import json
from pathlib import Path

import numpy as np
import pytest

from qreadout import cli


SMALL_REGISTER = {"horizon": 200, "dim": 64, "residual_strength": 0.3}


def config_doc(tmp_path, stage="pipeline", **extra):
    doc = {
        "stage": stage,
        "seed": 3,
        "output_dir": str(tmp_path / "out"),
        "register": dict(SMALL_REGISTER),
        "factorization": {"k_min": 1, "k_max": 3, "max_iters": 150, "tol": 1e-6},
    }
    doc.update(extra)
    return doc


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def run_stage(tmp_path, stage, seed=3, doc=None):
    doc = doc or config_doc(tmp_path, stage=stage)
    cfg = cli.RunConfig(
        stage=stage, seed=seed, output_dir=Path(doc["output_dir"]), document=doc
    )
    return cli.run(cfg)


class TestValidate:
    def test_well_formed_config_clean(self, tmp_path):
        path = write_config(tmp_path, config_doc(tmp_path))
        assert cli.validate(path) == []

    def test_k_bound_diagnostic(self, tmp_path):
        doc = config_doc(tmp_path)
        doc["factorization"]["k"] = 0
        path = write_config(tmp_path, doc)
        diags = cli.validate(path)
        assert any(">= 1" in d for d in diags)

    def test_missing_register_section(self, tmp_path):
        doc = config_doc(tmp_path)
        del doc["register"]
        path = write_config(tmp_path, doc)
        diags = cli.validate(path)
        assert any("register" in d for d in diags)

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        diags = cli.validate(path)
        assert any("JSON" in d for d in diags)


class TestStages:
    def test_simulate_writes_artifacts(self, tmp_path):
        record = run_stage(tmp_path, "simulate")
        out = tmp_path / "out"
        assert (out / "ground_truth.json").exists()
        assert (out / "observation.csv").exists()
        assert (out / "observation.json").exists()
        assert (out / "run.json").exists()
        assert record.stage == "simulate"

    def test_stagewise_equals_pipeline(self, tmp_path):
        doc = config_doc(tmp_path)
        for stage in ("simulate", "fit", "partition", "recover", "verify"):
            run_stage(tmp_path, stage, doc=dict(doc, stage=stage))
        stagewise = json.loads((tmp_path / "out" / "snr_report.json").read_text())

        doc2 = config_doc(tmp_path)
        doc2["output_dir"] = str(tmp_path / "out2")
        run_stage(tmp_path, "pipeline", doc=doc2)
        pipelined = json.loads((tmp_path / "out2" / "snr_report.json").read_text())
        assert stagewise == pipelined

    def test_fit_requires_simulate_first(self, tmp_path):
        with pytest.raises(cli.ValidationError, match="simulate"):
            run_stage(tmp_path, "fit")

    def test_pipeline_zero_residual_full_fidelity(self, tmp_path):
        doc = config_doc(tmp_path)
        doc["register"]["residual_strength"] = 0.0
        run_stage(tmp_path, "pipeline", doc=doc)
        recovery = json.loads((tmp_path / "out" / "recovery.json").read_text())
        assert recovery["fidelity_vs_target"] >= 1 - 1e-6

    def test_sweep_matches_analytic_curve(self, tmp_path):
        doc = config_doc(tmp_path, stage="sweep")
        doc["sweep"] = {"r_sx": 1.0, "deltas": list(range(1, 10))}
        run_stage(tmp_path, "sweep", doc=doc)
        lines = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 10
        for line in lines[1:]:
            d, s = (float(v) for v in line.split(","))
            assert s == pytest.approx(10 * np.log10(d + 1.0), abs=1e-12)

    def test_verify_report_fields(self, tmp_path):
        run_stage(tmp_path, "pipeline")
        rep = json.loads((tmp_path / "out" / "snr_report.json").read_text())
        for key in ("S", "X", "T", "delta", "snr_out_db", "snr_register_db"):
            assert key in rep
        assert rep["snr_out_db"] - rep["snr_register_db"] > 0


class TestDeterminism:
    def artifact_bytes(self, out: Path) -> dict:
        return {
            p.name: p.read_bytes()
            for p in sorted(out.iterdir())
            if p.name != "run.json"
        }

    def test_pipeline_reruns_byte_identical(self, tmp_path):
        doc = config_doc(tmp_path)
        run_stage(tmp_path, "pipeline", doc=doc)
        first = self.artifact_bytes(tmp_path / "out")
        run_stage(tmp_path, "pipeline", doc=doc)
        second = self.artifact_bytes(tmp_path / "out")
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], f"{name} differs between reruns"


# (section, key, value): one malformed entry per case; None as the key
# replaces the whole section
BAD_ENTRIES = [
    ("partition", "max_iters", "x"),
    ("partition", "max_iters", 0),
    ("partition", "max_iters", 2.5),
    ("partition", "max_iters", True),
    ("partition", "tol", 0),
    ("partition", "tol", -1e-7),
    ("partition", "tol", "x"),
    ("partition", None, 5),
    ("transform", "shift", 0),
    ("transform", "shift", -3),
    ("transform", "shift", "x"),
    ("transform", "shift", True),
    ("transform", "k", "x"),
    ("transform", "k", 1.5),
    ("transform", "k", False),
    ("transform", "unit_window", 1),
    ("transform", "unit_window", "yes"),
    ("transform", None, [1]),
    ("recovery", None, "x"),
    ("sweep", None, 3),
    ("sweep", "r_sx", "x"),
    ("sweep", "r_sx", True),
    ("sweep", "deltas", ["x"]),
    ("sweep", "deltas", [1, True]),
    ("register", "horizon", True),
    ("factorization", "k", True),
    ("factorization", "k_min", "x"),
    ("factorization", "k_max", True),
    ("factorization", "max_iters", True),
    ("recovery", "k1", True),
    (None, "seed", True),
]


class TestMain:
    @pytest.mark.parametrize(
        "section,key,value",
        BAD_ENTRIES,
        ids=[
            ".".join(part for part in (s, k) if part) + f"={v!r}"
            for s, k, v in BAD_ENTRIES
        ],
    )
    def test_bad_value_exits_2_before_any_stage(
        self, tmp_path, capsys, section, key, value
    ):
        doc = config_doc(tmp_path)
        if section is None:
            doc[key] = value
        elif key is None:
            doc[section] = value
        else:
            doc.setdefault(section, {})[key] = value
        path = write_config(tmp_path, doc)
        assert cli.main(["pipeline", "--config", str(path)]) == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "ValidationError"
        assert not (tmp_path / "out").exists()

    def test_sweep_with_bad_delta_exits_2(self, tmp_path, capsys):
        doc = {
            "stage": "sweep",
            "output_dir": str(tmp_path / "out"),
            "sweep": {"deltas": ["x"]},
        }
        path = write_config(tmp_path, doc)
        assert cli.main(["sweep", "--config", str(path)]) == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "ValidationError"
        assert not (tmp_path / "out").exists()

    def test_validate_subcommand_exit_codes(self, tmp_path, capsys):
        good = write_config(tmp_path, config_doc(tmp_path))
        assert cli.main(["validate", str(good)]) == 0
        doc = config_doc(tmp_path)
        doc["factorization"]["k"] = 0
        bad = write_config(tmp_path, doc)
        assert cli.main(["validate", str(bad)]) == 2

    def test_pipeline_subcommand(self, tmp_path, capsys):
        path = write_config(tmp_path, config_doc(tmp_path))
        assert cli.main(["pipeline", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert json.loads(out.strip())["stage"] == "pipeline"

    def test_missing_artifact_exits_2_with_error_json(self, tmp_path, capsys):
        path = write_config(tmp_path, config_doc(tmp_path, stage="fit"))
        assert cli.main(["fit", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        payload = json.loads(err.strip())
        assert payload["error"] == "ValidationError"

    def test_flag_overrides_document(self, tmp_path):
        path = write_config(tmp_path, config_doc(tmp_path))
        other = tmp_path / "elsewhere"
        assert cli.main(["simulate", "--config", str(path), "--out", str(other)]) == 0
        assert (other / "observation.json").exists()

    def test_seed_override_changes_artifacts(self, tmp_path):
        path = write_config(tmp_path, config_doc(tmp_path))
        cli.main(["simulate", "--config", str(path), "--seed", "1"])
        a = (tmp_path / "out" / "observation.json").read_bytes()
        cli.main(["simulate", "--config", str(path), "--seed", "2"])
        b = (tmp_path / "out" / "observation.json").read_bytes()
        assert a != b
