import csv
import io
import json
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qreadout import bnmf, cli, register


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


def artifact_bytes(out: Path) -> dict:
    """Every artifact but run.json, which holds wall-clock data."""
    return {
        p.name: p.read_bytes()
        for p in sorted(out.iterdir())
        if p.name != "run.json"
    }


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

    def test_run_config_rejects_fractional_max_iters(self, tmp_path):
        doc = config_doc(tmp_path)
        doc["factorization"]["max_iters"] = 2.7
        with pytest.raises(cli.ValidationError, match="max_iters"):
            cli.RunConfig(stage="fit", seed=3, output_dir=tmp_path / "out", document=doc)


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
        # every stage after fit reloads model.json, so byte-equal artifacts
        # pin that reload to the in-memory result the pipeline passes on
        doc = config_doc(tmp_path)
        for stage in ("simulate", "fit", "partition", "recover", "verify"):
            run_stage(tmp_path, stage, doc=dict(doc, stage=stage))
        stagewise = artifact_bytes(tmp_path / "out")

        doc2 = config_doc(tmp_path)
        doc2["output_dir"] = str(tmp_path / "out2")
        run_stage(tmp_path, "pipeline", doc=doc2)
        pipelined = artifact_bytes(tmp_path / "out2")
        assert json.loads(stagewise["model.json"])["K"] >= 2  # the argmax branch ran
        assert stagewise.keys() == pipelined.keys()
        for name in stagewise:
            assert stagewise[name] == pipelined[name], f"{name} differs"

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
    def test_pipeline_reruns_byte_identical(self, tmp_path):
        doc = config_doc(tmp_path)
        run_stage(tmp_path, "pipeline", doc=doc)
        first = artifact_bytes(tmp_path / "out")
        run_stage(tmp_path, "pipeline", doc=doc)
        second = artifact_bytes(tmp_path / "out")
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], f"{name} differs between reruns"

    def test_staged_rerun_into_used_directory(self, tmp_path):
        # seed 1's stages over seed 0's files write what a fresh seed-1 run
        # writes: no artifact keeps stale or partly rewritten bytes
        path = str(write_config(tmp_path, config_doc(tmp_path)))
        used, fresh = tmp_path / "used", tmp_path / "fresh"

        def staged(seed):
            for stage in ("simulate", "fit", "partition", "recover", "verify"):
                argv = [stage, "--config", path, "--seed", seed, "--out", str(used)]
                assert cli.main(argv) == 0
            return artifact_bytes(used)

        seed_0, rerun = staged("0"), staged("1")
        argv = ["pipeline", "--config", path, "--seed", "1", "--out", str(fresh)]
        assert cli.main(argv) == 0
        assert seed_0.keys() == rerun.keys() and seed_0 != rerun
        assert rerun == artifact_bytes(fresh)

    @pytest.mark.parametrize("how", ["pipeline", "staged"])
    def test_fewer_bases_over_a_used_directory_leave_no_stale_file(self, tmp_path, how):
        # a K = 1 run over a default seed-0 directory (K* = 2), into which
        # a scores.csv of an earlier version's K >= 2 partition stage and a
        # clustered_bases.json of its recover stage are planted, writes what
        # a fresh K = 1 run writes, and nothing more
        tiny = {"register": {"horizon": 64, "dim": 16}}
        configs = {"default": tiny, "k1": dict(tiny, factorization={"k": 1})}
        for name, doc in configs.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        used, fresh = tmp_path / "used", tmp_path / "fresh"

        def run(config, out, stages):
            for stage in stages:
                argv = [stage, "--config", str(tmp_path / f"{config}.json"),
                        "--seed", "0", "--out", str(out)]
                assert cli.main(argv) == 0

        run("default", used, ["pipeline"])
        stale = {"scores.csv": "k,q1,q2,q_total\n", "clustered_bases.json": "{}"}
        for name, text in stale.items():
            (used / name).write_text(text)
        run("k1", used, ["pipeline"] if how == "pipeline" else cli._STEPS["pipeline"])
        run("k1", fresh, ["pipeline"])
        assert not stale.keys() & artifact_bytes(fresh).keys()
        assert artifact_bytes(used) == artifact_bytes(fresh)

    def test_each_stage_writes_the_files_it_declares(self, tmp_path):
        # every stage run on its own adds exactly its declared files (this
        # config reaches K* >= 2 with a nonempty target cluster, so the
        # conditional ones are written too), but scores.csv and
        # clustered_bases.json, which the partition and recover stages only
        # remove
        seen = set()
        removed_only = {"scores.csv", "clustered_bases.json"}
        for stage in ("simulate", "fit", "partition", "recover", "verify", "sweep"):
            run_stage(tmp_path, stage, doc=config_doc(tmp_path, stage=stage, sweep=SWEEP))
            names = set(artifact_bytes(tmp_path / "out"))
            assert names - seen == set(cli._WRITES[stage][1]) - removed_only, stage
            seen = names


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
    ("transform", "k", 10**400),
    ("transform", "shift", 10**400),
    ("transform", "shift", 2**63),
    ("transform", "unit_window", 1),
    ("transform", "unit_window", "yes"),
    ("transform", "unit_window", False),
    ("transform", "unit_window", None),
    ("transform", "shift", 1),
    ("transform", None, [1]),
    ("recovery", None, "x"),
    ("sweep", None, 3),
    ("sweep", "r_sx", "x"),
    ("sweep", "r_sx", True),
    ("sweep", "deltas", ["x"]),
    ("sweep", "deltas", [1, True]),
    ("sweep", "r_sx", 10**400),
    ("sweep", "deltas", [10**400]),
    ("register", "horizon", True),
    ("register", "horizon", 10),
    ("register", "residual_strength", True),
    ("factorization", "tol", True),
    ("partition", "tol", True),
    ("factorization", "k", True),
    ("factorization", "k_min", "x"),
    ("factorization", "k_max", True),
    ("factorization", "k", 10**12),
    ("factorization", "k_max", 1025),
    ("register", "horizon", 10**13),
    ("register", "horizon", 10**6 + 1),
    ("factorization", "max_iters", True),
    ("recovery", "k1", True),
    (None, "seed", True),
    ("register", "seed", "x"),
    ("register", "seed", -1),
    ("register", "seed", True),
    ("factorization", "seed", -1),
    ("factorization", "seed", [1]),
    ("factorization", "seed", 2.5),
    (None, "output_dir", 5),
    (None, "output_dir", None),
]


def per_pair_target_bases(model, gt):
    """``cli.true_target_bases`` with each row's spread taken anew per pair."""
    labels = []
    for k in range(model.K):
        act = model.activations[k]
        corrs = []
        for row in gt.source_rows:
            if np.std(row) == 0.0 or np.std(act) == 0.0:
                corrs.append(-np.inf)
                continue
            corrs.append(float(np.corrcoef(act, row)[0, 1]))
        labels.append(int(np.argmax(corrs)))
    return [k for k, m in enumerate(labels) if m == 0]


def target_bases(activations, rows):
    model = bnmf.FitResult(
        bases=np.ones((2, len(activations))), activations=activations,
        K=len(activations), converged=True, iterations=1, elbo_trace=(0.0,),
    )
    gt = register.GroundTruth(
        source_rows=rows, input_weights=np.ones(1), residual_weights=np.zeros(1)
    )
    return cli.true_target_bases(model, gt), per_pair_target_bases(model, gt)


class TestTrueTargetBases:
    def test_a_constant_source_row_claims_no_basis(self):
        rng = np.random.default_rng(60)
        acts, varied = rng.random((3, 16)), rng.random(16)
        for fill in (0.0, 2.5):
            constant = np.full(16, fill)
            assert target_bases(acts, np.vstack([constant, varied])) == ([], [])
            assert target_bases(acts, np.vstack([varied, constant])) == ([0, 1, 2],) * 2

    def test_a_constant_activation_row_correlates_with_no_source_row(self):
        # its basis scores -inf against both rows and falls to the target,
        # as a tie does, wherever the rows point
        rng = np.random.default_rng(61)
        acts = rng.random((3, 16))
        acts[1] = 0.75
        for rows in (acts[[0, 2]], acts[[2, 0]]):
            got, _ = target_bases(acts, rows)
            assert 1 in got and (0 in got) != (2 in got)

    @pytest.mark.parametrize("seed", range(40))
    def test_equals_the_per_pair_version(self, seed):
        rng = np.random.default_rng(seed)
        K, T = int(rng.integers(1, 6)), int(rng.integers(2, 40))
        acts = rng.random((K, T)) * 10.0 ** rng.integers(-3, 5)
        rows = rng.random((2, T))
        acts[rng.random(K) < 0.25] = rng.random()
        rows[rng.random(2) < 0.25] = rng.choice([0.0, 1.5])
        got, want = target_bases(acts, rows)
        assert got == want


SWEEP = {"r_sx": 1.0, "deltas": [1, 2.5, 4]}


def pipeline_and_sweep(tmp_path):
    run_stage(tmp_path, "pipeline")
    run_stage(tmp_path, "sweep", doc=config_doc(tmp_path, stage="sweep", sweep=SWEEP))
    return tmp_path / "out"


@pytest.fixture(scope="module")
def pipeline_out(tmp_path_factory):
    """Artifacts of one pipeline + sweep run, copied by tests that damage them."""
    return pipeline_and_sweep(tmp_path_factory.mktemp("pipeline"))


class TestCsvArtifacts:
    def read(self, path):
        with open(path, newline="") as fh:
            return list(csv.reader(fh))

    def test_observation_csv_header_and_roundtrip(self, pipeline_out):
        doc = json.loads((pipeline_out / "observation.json").read_text())
        obs = register.ObservationMatrix.from_dict(doc)
        rows = self.read(pipeline_out / "observation.csv")
        assert rows[0] == ["m"] + [f"t{t}" for t in range(obs.metadata.horizon)]
        assert [row[0] for row in rows[1:]] == [str(m) for m in range(register.NUM_SOURCES)]
        back = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
        np.testing.assert_array_equal(back, obs.values)

    def test_ground_truth_csv_layout(self, pipeline_out):
        doc = json.loads((pipeline_out / "ground_truth.json").read_text())
        gt, cfg = register.ground_truth_from_dict(doc)
        rows = self.read(pipeline_out / "ground_truth.csv")
        assert rows[0] == ["m"] + [f"t{t}" for t in range(cfg.horizon)]
        assert len(rows) == 3
        for m in (0, 1):
            assert rows[m + 1][0] == str(m)
            np.testing.assert_array_equal(
                [float(v) for v in rows[m + 1][1:]], gt.source_rows[m]
            )

    def test_prob_table_csv(self, pipeline_out):
        doc = json.loads((pipeline_out / "recovery.json").read_text())
        rows = self.read(pipeline_out / "prob_table.csv")
        assert rows[0] == ["j", "probability"]
        probabilities = doc["prob_table"]["probabilities"]
        assert rows[1:] == [[str(j), repr(p)] for j, p in enumerate(probabilities)]

    def test_sweep_csv(self, pipeline_out):
        rows = self.read(pipeline_out / "sweep.csv")
        assert rows[0] == ["delta", "snr_db"]
        assert [float(row[0]) for row in rows[1:]] == SWEEP["deltas"]
        for d, s in rows[1:]:
            assert float(s) == pytest.approx(10 * np.log10(float(d) + 1.0), abs=1e-12)


    @pytest.mark.parametrize("horizon", [1, 9, 10, 11, 99, 100, 101])
    def test_channel_header_names_each_step(self, tmp_path, horizon):
        # the header text is formatted once; it reads as the step names
        doc = config_doc(tmp_path, stage="simulate", register={"horizon": horizon, "dim": 1})
        run_stage(tmp_path, "simulate", doc=doc)
        names = ",".join(["m", *(f"t{t}" for t in range(horizon))]) + "\r\n"
        for name in ("observation.csv", "ground_truth.csv"):
            with open(tmp_path / "out" / name, newline="") as fh:
                assert fh.readline() == names, name

    def test_channel_csvs_match_csv_writer_at_benchmark_size(self, tmp_path):
        # 20000 steps a row, about 50 of them off the row's fill value, whose
        # runs are written as repeated text
        horizon = 20000
        register_doc = {"horizon": horizon, "dim": 3000, "residual_strength": 0.3}
        doc = config_doc(tmp_path, stage="simulate", register=register_doc)
        run_stage(tmp_path, "simulate", seed=1013, doc=doc)
        out = tmp_path / "out"
        obs = register.ObservationMatrix.from_dict(
            json.loads((out / "observation.json").read_text())
        )
        gt, _ = register.ground_truth_from_dict(
            json.loads((out / "ground_truth.json").read_text())
        )
        header = ["m", *(f"t{t}" for t in range(horizon))]
        for name, rows in (("observation.csv", obs.values), ("ground_truth.csv", gt.source_rows)):
            buffer = io.StringIO(newline="")
            writer = csv.writer(buffer)
            writer.writerow(header)
            writer.writerows([m, *row.tolist()] for m, row in enumerate(rows))
            assert (out / name).read_bytes() == buffer.getvalue().encode(), name


class Unparsed(Exception):
    pass


def test_pipeline_hands_artifacts_on_without_parsing(tmp_path, monkeypatch, pipeline_out):
    def refuse(doc):
        raise Unparsed

    for name, (producer, _) in list(cli._READS.items()):
        monkeypatch.setitem(cli._READS, name, (producer, refuse))
    out = pipeline_and_sweep(tmp_path)
    assert artifact_bytes(out) == artifact_bytes(pipeline_out)

    # a stage run on its own reads what an earlier run wrote
    with pytest.raises(Unparsed):
        run_stage(tmp_path, "fit")


def dense(name: str, doc: dict) -> dict:
    """Artifact ``name`` rewritten in the dense layouts written before the
    column layout: nested lists for the register's arrays, ``{"shape",
    "data"}`` for the model's."""
    if name == "observation.json":
        values = register.ObservationMatrix.from_dict(doc).values
        return dict(doc, values=values.tolist())
    if name == "ground_truth.json":
        gt, _ = register.ground_truth_from_dict(doc)
        return dict(doc, **{key: getattr(gt, key).tolist() for key in
                            ("source_rows", "input_weights", "residual_weights")})
    model = bnmf.FitResult.from_dict(doc)
    return dict(doc, **{key: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
                        for key, arr in (("bases", model.bases),
                                         ("activations", model.activations))})


def test_dense_layouts_exit_2_naming_the_file(tmp_path, capsys, pipeline_out):
    # the dense layouts are no longer read: the stage reading one exits 2
    # with the error JSON naming the file, its first array's key and the
    # stage to rerun, and no traceback
    for name, key, stage in [
        ("observation.json", "values", "fit"),
        ("ground_truth.json", "source_rows", "recover"),
        ("model.json", "bases", "partition"),
    ]:
        case = tmp_path / name
        doc = config_doc(case, stage=stage)
        out = Path(doc["output_dir"])
        shutil.copytree(pipeline_out, out)
        art = json.loads((out / name).read_text())
        (out / name).write_text(json.dumps(dense(name, art), indent=2, sort_keys=True))
        assert cli.main([stage, "--config", str(write_config(tmp_path, doc))]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err, name
        payload = json.loads(err.strip())
        assert payload["error"] == "ValidationError", name
        message = payload["message"]
        assert name in message and key in message and cli._READS[name][0] in message


def same_floats(a, b) -> bool:
    """Equal documents whose floats also agree bit for bit (sign of zero, NaN)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a.hex() == b.hex()
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_floats(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same_floats, a, b))
    return a == b


def load_raw(monkeypatch, out: Path, name: str):
    """``cli._load`` of ``out/name`` with a parser that returns the document."""
    monkeypatch.setitem(cli._READS, name, ("simulate", lambda doc: doc))
    cfg = cli.RunConfig(stage="verify", seed=0, output_dir=out, document={})
    return cli._load(cfg, cli.RunRecord(stage="verify", seed=0), name)


def test_load_parses_artifacts_as_json_load(monkeypatch, pipeline_out):
    paths = sorted(pipeline_out.glob("*.json"))
    assert {"model.json", "observation.json", "ground_truth.json"} <= {p.name for p in paths}
    for path in paths:
        expected = json.loads(path.read_text())
        assert same_floats(load_raw(monkeypatch, pipeline_out, path.name), expected), path.name


def test_load_parses_float_edge_cases_as_json_load(monkeypatch, tmp_path):
    text = (
        '{"a": [-0.0, 1e-05, 5e-324, 1.7976931348623157e+308, NaN, Infinity],'
        ' "b": [-0.0, 0.0, 1e-05, 1E-5, 0.00001, 5e-324, -Infinity, 2, 1.0],'
        ' "c": {"x": 1.7976931348623157e+308, "y": -0.0}}'
    )
    (tmp_path / "edge.json").write_text(text)
    expected = json.loads(text)
    got = load_raw(monkeypatch, tmp_path, "edge.json")
    assert same_floats(got, expected)
    assert same_floats(got["a"][0], -0.0)


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

    @pytest.mark.parametrize("damage", ["truncated", "missing-key", "nested"])
    @pytest.mark.parametrize(
        "name,key,stage",
        [
            ("observation.json", "values", "fit"),
            ("model.json", "K", "partition"),
            ("partition.json", "assignment", "recover"),
            ("ground_truth.json", "config", "verify"),
        ],
    )
    def test_malformed_artifact_exits_2(
        self, tmp_path, capsys, pipeline_out, name, key, stage, damage
    ):
        doc = config_doc(tmp_path, stage=stage)
        out = Path(doc["output_dir"])
        shutil.copytree(pipeline_out, out)
        path = out / name
        if damage == "truncated":
            text = path.read_text()
            path.write_text(text[: len(text) // 2])
        elif damage == "nested":
            # deeper than the recursion limit
            path.write_text("[" * 200000 + "]" * 200000)
        else:
            art = json.loads(path.read_text())
            del art[key]
            path.write_text(json.dumps(art))
        config = write_config(tmp_path, doc)
        assert cli.main([stage, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        payload = json.loads(err.strip())
        assert payload["error"] == "ValidationError"
        assert name in payload["message"]

    @pytest.mark.parametrize(
        "name,key,value",
        [
            ("ground_truth.json", "input_weights", [[0.5], [0.5]]),
            ("ground_truth.json", "input_weights", "nan-first"),
            ("ground_truth.json", "residual_weights", "negative-first"),
            ("model.json", "bases", "nan-first"),
            ("model.json", "activations", "negative-first"),
            ("model.json", "K", 2.5),
            # the column layout, damaged: each refused before it is rebuilt
            ("observation.json", "values", lambda e: dict(e, cols=[-1, *e["cols"][1:]])),
            ("observation.json", "values", lambda e: dict(e, cols=[*e["cols"][:-1], 99999])),
            ("observation.json", "values", lambda e: dict(e, data=e["data"][:-1])),
            ("ground_truth.json", "source_rows", lambda e: dict(e, cols=e["cols"][::-1])),
            ("ground_truth.json", "input_weights",
             lambda e: dict(e, cols=[e["cols"][0], *e["cols"][:-1]])),
            ("ground_truth.json", "residual_weights", lambda e: dict(e, fill=[0.0, 0.0])),
            ("model.json", "activations", lambda e: dict(e, cols=[True, *e["cols"][1:]])),
            ("model.json", "activations", lambda e: dict(e, cols=[float(c) for c in e["cols"]])),
            ("model.json", "activations", lambda e: dict(e, shape=[e["shape"][0], True])),
            # a declared shape that its config does not give, refused before
            # it is allocated
            ("observation.json", "values", lambda e: dict(e, shape=[2, 10**15])),
            ("observation.json", "values", lambda e: dict(e, shape=[2, e["shape"][1] + 1])),
            ("ground_truth.json", "source_rows", lambda e: dict(e, shape=[2, 10**15])),
            ("ground_truth.json", "input_weights", lambda e: dict(e, shape=[10**15])),
            ("ground_truth.json", "residual_weights", lambda e: dict(e, shape=[1, 10**15])),
            ("model.json", "activations",
             lambda e: dict(e, shape=[e["shape"][0] + 1, e["shape"][1]])),
            # the trace holds one finite float a sweep
            ("model.json", "elbo_trace", "not a trace"),
            ("model.json", "elbo_trace", lambda e: e[:-1]),
            ("model.json", "elbo_trace", lambda e: [*e[:-1], None]),
        ],
        ids=["gt-2d-weights", "gt-nan-weight", "gt-negative-residual",
             "model-nan-basis", "model-negative-activation", "model-fractional-K",
             "obs-negative-col", "obs-col-past-end", "obs-short-data",
             "gt-decreasing-cols", "gt-repeated-col", "gt-long-fill",
             "model-bool-col", "model-float-cols", "model-bool-shape",
             "obs-huge-shape", "obs-wider-than-config", "gt-huge-sources",
             "gt-huge-weights", "gt-2d-huge-residual", "model-rows-not-K",
             "model-text-trace", "model-short-trace", "model-null-in-trace"],
    )
    def test_damaged_artifact_values_exit_2(
        self, tmp_path, capsys, pipeline_out, name, key, value
    ):
        # every stage that reads the damaged artifact refuses it
        stages = {
            "observation.json": ("fit",),
            "ground_truth.json": ("recover", "verify"),
            "model.json": ("partition", "recover", "verify"),
        }[name]
        doc = config_doc(tmp_path)
        out = Path(doc["output_dir"])
        shutil.copytree(pipeline_out, out)
        art = json.loads((out / name).read_text())
        if callable(value):
            art[key] = value(art[key])
        elif value in ("nan-first", "negative-first"):
            values = art[key]["data"] if isinstance(art[key], dict) else art[key]
            values[0] = float("nan") if value == "nan-first" else -1.0
        else:
            art[key] = value
        (out / name).write_text(json.dumps(art))
        for stage in stages:
            config = write_config(tmp_path, dict(doc, stage=stage))
            assert cli.main([stage, "--config", str(config)]) == 2, stage
            payload = json.loads(capsys.readouterr().err.strip())
            assert payload["error"] == "ValidationError", stage
            assert name in payload["message"] and key in payload["message"], stage

    def test_integer_past_the_float_range_exits_2(self, tmp_path, capsys, pipeline_out):
        # JSON integers have no size limit; one where a float belongs raised
        # OverflowError out of the loader, a traceback
        doc = config_doc(tmp_path, stage="fit")
        out = Path(doc["output_dir"])
        shutil.copytree(pipeline_out, out)
        art = json.loads((out / "observation.json").read_text())
        art["values"]["data"][0] = 10**400
        (out / "observation.json").write_text(json.dumps(art))
        assert cli.main(["fit", "--config", str(write_config(tmp_path, doc))]) == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "ValidationError"
        assert "observation.json" in payload["message"] and "OverflowError" in payload["message"]

    @pytest.mark.parametrize(
        "name,key,stage",
        [("observation.json", "values", "fit"), ("ground_truth.json", "source_rows", "recover")],
    )
    def test_shape_too_large_to_allocate_exits_2(
        self, tmp_path, capsys, pipeline_out, name, key, stage
    ):
        # a horizon of 10**15 in the artifact's own config agrees with its
        # declared shape, so the layout passes its checks; unbounded, numpy
        # refused the 14 PiB rows at once, with MemoryError (a traceback
        # before that was caught).  The config's horizon bound refuses it
        doc = config_doc(tmp_path, stage=stage)
        out = Path(doc["output_dir"])
        shutil.copytree(pipeline_out, out)
        art = json.loads((out / name).read_text())
        art["config"]["horizon"] = 10**15
        art[key] = {"shape": [2, 10**15], "cols": [], "data": [], "fill": [0, 0]}
        (out / name).write_text(json.dumps(art))
        assert cli.main([stage, "--config", str(write_config(tmp_path, doc))]) == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "ValidationError"
        assert name in payload["message"] and "horizon must be" in payload["message"]

    @pytest.mark.parametrize("stage", ["recover", "verify"])
    @pytest.mark.parametrize(
        "assignment",
        [
            lambda K: [1] * (K + 3),
            lambda K: [1] * (K - 1),
            lambda K: [2] * (K + 1),
        ],
        ids=["K+3", "K-1", "K+1-all-2"],
    )
    def test_partition_not_matching_model_exits_2(
        self, tmp_path, capsys, pipeline_out, stage, assignment
    ):
        doc = config_doc(tmp_path, stage=stage)
        out = Path(doc["output_dir"])
        shutil.copytree(pipeline_out, out)
        K = json.loads((out / "model.json").read_text())["K"]
        art = json.loads((out / "partition.json").read_text())
        art["assignment"] = assignment(K)
        (out / "partition.json").write_text(json.dumps(art))
        config = write_config(tmp_path, doc)
        assert cli.main([stage, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        payload = json.loads(err.strip())
        assert payload["error"] == "ValidationError"
        assert "partition.json" in payload["message"] and "model.json" in payload["message"]

    @pytest.mark.parametrize("stage", ["partition", "recover", "verify"])
    @pytest.mark.parametrize(
        "key,damage",
        [
            ("activations", lambda e, T: dict(e, shape=[e["shape"][0], 10**15])),
            ("activations", lambda e, T: {
                "shape": [e["shape"][0], T + 1], "data": [1.0] * (e["shape"][0] * (T + 1)),
            }),
            ("bases", lambda e, T: {
                "shape": [e["shape"][0], 10**15], "cols": [], "data": [],
                "fill": [0.0] * e["shape"][0],
            }),
        ],
        ids=["huge-activations", "dense-activations-one-wider", "huge-bases"],
    )
    def test_model_wider_than_its_register_exits_2(
        self, tmp_path, capsys, pipeline_out, stage, key, damage
    ):
        # model.json holds no reference for the activations' width; each
        # stage that reads it checks the width against the horizon of the
        # register's artifacts, and the bases' against K, before a column
        # layout is rebuilt at its declared size
        doc = config_doc(tmp_path, stage=stage)
        out = Path(doc["output_dir"])
        shutil.copytree(pipeline_out, out)
        art = json.loads((out / "model.json").read_text())
        art[key] = damage(art[key], SMALL_REGISTER["horizon"])
        (out / "model.json").write_text(json.dumps(art))
        assert cli.main([stage, "--config", str(write_config(tmp_path, doc))]) == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "ValidationError"
        assert "model.json" in payload["message"] and key in payload["message"]

    @pytest.mark.parametrize("name,stage", [
        ("observation.json", "fit"), ("ground_truth.json", "verify"),
    ])
    @pytest.mark.parametrize("key,value", [("horizon", 600.5), ("seed", True)])
    def test_mistyped_embedded_config_exits_2(
        self, tmp_path, capsys, pipeline_out, name, stage, key, value
    ):
        # the artifact's config is checked as strictly as the run's own
        doc = config_doc(tmp_path, stage=stage)
        out = Path(doc["output_dir"])
        shutil.copytree(pipeline_out, out)
        art = json.loads((out / name).read_text())
        art["config"][key] = value
        (out / name).write_text(json.dumps(art))
        config = write_config(tmp_path, doc)
        assert cli.main([stage, "--config", str(config)]) == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "ValidationError"
        assert name in payload["message"] and key in payload["message"]

    @pytest.mark.parametrize(
        "text",
        [
            '{"seed": 3, "note": "caf\xe9"}'.encode("latin-1"),
            b'{"seed": ' + b"1" * 4301 + b"}",
            b"[" * 100000 + b"]" * 100000,
        ],
        ids=["not-utf-8", "int-past-digit-limit", "nested-past-recursion-limit"],
    )
    def test_undecodable_config_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        path.write_bytes(text)
        assert cli.main(["validate", str(path)]) == 2
        assert "config is not valid JSON" in capsys.readouterr().out
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "ValidationError"
        assert "config is not valid JSON" in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unopenable_config_exits_2(self, tmp_path, capsys, kind):
        path = tmp_path / "config.json"
        if kind == "directory":
            path.mkdir()
        assert cli.main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out.startswith(f"cannot read config file {path}: ")
        assert captured.err == ""
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "ValidationError"
        assert payload["message"].startswith(f"cannot read config file {path}: ")
        assert not out.exists()

    def test_validate_subcommand_exit_codes(self, tmp_path, capsys):
        good = write_config(tmp_path, config_doc(tmp_path))
        assert cli.main(["validate", str(good)]) == 0
        doc = config_doc(tmp_path)
        doc["factorization"]["k"] = 0
        bad = write_config(tmp_path, doc)
        assert cli.main(["validate", str(bad)]) == 2

    def test_validate_subcommand_reports_bad_output_dir(self, tmp_path, capsys):
        doc = config_doc(tmp_path)
        doc["output_dir"] = 5
        assert cli.main(["validate", str(write_config(tmp_path, doc))]) == 2
        assert "output_dir" in capsys.readouterr().out

    def test_absurd_order_exits_2_naming_the_bound(self, tmp_path, capsys):
        # unbounded, an order of 10**12 reached the fit, whose K x T start
        # numpy cannot allocate: a traceback, not the error JSON
        doc = {
            "output_dir": str(tmp_path / "out"),
            "register": {"horizon": 64, "dim": 16},
            "factorization": {"k": 10**12},
        }
        path = write_config(tmp_path, doc)
        assert cli.main(["pipeline", "--config", str(path)]) == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "ValidationError"
        assert "k must be" in payload["message"] and "1024" in payload["message"]
        assert not (tmp_path / "out").exists()
        assert cli.main(["validate", str(path)]) == 2
        assert "1024" in capsys.readouterr().out

    def test_absurd_horizon_exits_2_naming_the_bound(self, tmp_path, capsys):
        # unbounded, a horizon of 10**13 reached simulate, whose channel
        # rows numpy cannot allocate: a traceback, not the error JSON
        doc = {
            "output_dir": str(tmp_path / "out"),
            "register": {"horizon": 10**13, "dim": 16},
        }
        path = write_config(tmp_path, doc)
        assert cli.main(["pipeline", "--config", str(path)]) == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "ValidationError"
        assert "horizon must be" in payload["message"]
        assert str(10**6) in payload["message"]
        assert not (tmp_path / "out").exists()
        assert cli.main(["validate", str(path)]) == 2
        assert str(10**6) in capsys.readouterr().out

    def test_bad_seed_flag_exits_2_before_any_stage(self, tmp_path, capsys):
        # the register's own seed lets simulate run on a bad run seed
        doc = config_doc(tmp_path)
        doc["register"]["seed"] = 5
        path = write_config(tmp_path, doc)
        assert cli.main(["pipeline", "--config", str(path), "--seed", "-1"]) == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "ValidationError"
        assert not (tmp_path / "out").exists()

    def test_simulate_requires_register_whatever_the_document_stage(self, tmp_path, capsys):
        path = write_config(tmp_path, {"output_dir": str(tmp_path / "out")})
        assert cli.main(["simulate", "--config", str(path)]) == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "ValidationError"
        assert "stage 'simulate' requires a 'register' section" in payload["message"]
        assert not (tmp_path / "out").exists()

    def test_fit_needs_no_register_under_a_pipeline_document(self, tmp_path):
        run_stage(tmp_path, "simulate")
        doc = {"stage": "pipeline", "output_dir": str(tmp_path / "out")}
        assert cli.main(["fit", "--config", str(write_config(tmp_path, doc))]) == 0
        assert (tmp_path / "out" / "model.json").exists()

    @pytest.mark.parametrize("command", ["pipeline", "validate"])
    @pytest.mark.parametrize(
        "key,value,reason",
        [("unit_window", False, "unit_window must be true"), ("shift", 2, "shift must be null")],
    )
    def test_tapered_or_shifted_window_exits_2(
        self, tmp_path, capsys, command, key, value, reason
    ):
        doc = config_doc(tmp_path, transform={"k": 0, key: value})
        path = str(write_config(tmp_path, doc))
        if command == "validate":
            assert cli.main(["validate", path]) == 2
            assert reason in capsys.readouterr().out
        else:
            assert cli.main(["pipeline", "--config", path]) == 2
            payload = json.loads(capsys.readouterr().err.strip())
            assert payload["error"] == "ValidationError"
            assert reason in payload["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "factorization,seed",
        [(None, 0), ({"k": 3}, 0), ({"k": 3}, 1)],
        ids=["tapered", "tapered-k3-seed0", "tapered-k3-seed1"],
    )
    def test_tapered_configs_write_nothing(self, tmp_path, capsys, factorization, seed):
        # a taper that zeroed every basis at K* = 2 ran to exit 0, and at
        # K = 3 one that emptied the target cluster ran to exit 3
        doc = {
            "register": {"horizon": 64, "dim": 16},
            "transform": {"k": 3, "shift": 1, "unit_window": False},
        }
        if factorization:
            doc["factorization"] = factorization
        path = str(write_config(tmp_path, doc))
        out = tmp_path / "out"
        for stage in ("pipeline", "simulate", "fit", "partition", "recover", "verify"):
            argv = [stage, "--config", path, "--out", str(out), "--seed", str(seed)]
            assert cli.main(argv) == 2
            payload = json.loads(capsys.readouterr().err.strip())
            assert payload["error"] == "ValidationError"
            assert "unit_window must be true" in payload["message"]
        assert not out.exists()

    def test_unit_window_document_runs_unchanged(self, tmp_path):
        plain = config_doc(tmp_path, transform={"k": 2})
        named = config_doc(tmp_path, transform={"k": 2, "unit_window": True, "shift": None})
        named["output_dir"] = str(tmp_path / "named")
        run_stage(tmp_path, "pipeline", doc=plain)
        run_stage(tmp_path, "pipeline", doc=named)
        assert artifact_bytes(tmp_path / "out") == artifact_bytes(tmp_path / "named")

    def test_recover_checks_k1_before_writing(self, tmp_path, capsys):
        doc = {"register": {"horizon": 64, "dim": 16}, "recovery": {"k1": 3}}
        path = str(write_config(tmp_path, doc))
        out = tmp_path / "out"
        for stage in ("simulate", "fit", "partition"):
            assert cli.main([stage, "--config", path, "--out", str(out)]) == 0
        assert json.loads((out / "model.json").read_text())["K"] == 2
        assert cli.main(["recover", "--config", path, "--out", str(out)]) == 2
        assert "must divide" in json.loads(capsys.readouterr().err.strip())["message"]
        assert not (out / "prob_table.csv").exists()
        assert not (out / "recovery.json").exists()

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

    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        # a rejected argv and a validate between two staged runs leave the
        # parser as it was: the second run writes the same artifacts
        path = write_config(tmp_path, config_doc(tmp_path))
        stages = ["simulate", "fit", "partition", "recover", "verify"]

        def staged(out):
            for stage in stages:
                assert cli.main([stage, "--config", str(path), "--out", str(out)]) == 0

        staged(tmp_path / "first")
        with pytest.raises(SystemExit) as exc:
            cli.main(["fit", "--seed", "three"])
        assert exc.value.code == 2
        assert cli.main(["validate", str(path)]) == 0
        staged(tmp_path / "second")
        assert artifact_bytes(tmp_path / "first") == artifact_bytes(tmp_path / "second")
        assert cli._parser() is cli._parser()

    def test_out_naming_a_file_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, config_doc(tmp_path))
        out = tmp_path / "taken"
        out.write_text("kept")
        assert cli.main(["pipeline", "--config", str(path), "--out", str(out)]) == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "FileExistsError"
        assert out.read_text() == "kept"

    def test_artifact_path_that_is_a_directory_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, config_doc(tmp_path))
        (tmp_path / "out" / "model.json").mkdir(parents=True)
        assert cli.main(["pipeline", "--config", str(path)]) == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "IsADirectoryError"
        assert "model.json" in payload["message"]


# documents built from the schema's own names, holding arbitrary JSON values
SECTION_KEYS = sorted(
    {key for sec in cli._DEFAULTS.values() for key in sec}
    | {"seed", "k", "shift", "unit_window"}
)
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.integers(1, 700),
    st.integers(),
    st.floats(),
    st.text(max_size=4),
    st.sampled_from(cli.STAGES),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
SECTIONS = st.dictionaries(st.sampled_from(SECTION_KEYS), JSON_VALUES, max_size=4)
DOCUMENTS = st.one_of(
    st.fixed_dictionaries(
        {},
        optional={
            "stage": JSON_VALUES,
            "seed": JSON_VALUES,
            "output_dir": st.one_of(st.text(max_size=4), JSON_VALUES),
            **{name: st.one_of(SECTIONS, JSON_VALUES) for name in cli._DEFAULTS},
        },
    ),
    JSON_VALUES,
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(doc=DOCUMENTS)
def test_validate_and_run_config_resolve_alike(doc, tmp_path_factory):
    diags = cli.validate_document(doc)
    assert isinstance(diags, list) and all(isinstance(d, str) for d in diags)
    seed = doc.get("seed", 0) if isinstance(doc, dict) else 0
    # the stage the document names decides its required sections in both;
    # verify requires none
    named = doc.get("stage") if isinstance(doc, dict) else None
    stage = named if named in cli.STAGES else "verify"
    try:
        cli.RunConfig(stage=stage, seed=seed, output_dir=None, document=doc)
        built = True
    except cli.ValidationError:
        built = False
    assert built == (diags == [])

    path = tmp_path_factory.getbasetemp() / "drawn.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli.main(["validate", str(path)])
    assert code in (0, 2)
    assert code == (2 if diags else 0)
    if err.getvalue():
        assert isinstance(json.loads(err.getvalue()), dict)
