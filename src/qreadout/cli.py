"""Experiment harness: run pipeline stages and persist their artifacts.

Each subcommand executes one stage (or the whole pipeline) from a JSON
config document; ``--seed`` and ``--out`` flags override the document.
Stages communicate only through files in the output directory, so any
stage can be rerun in isolation against artifacts produced earlier.
Numerical artifacts are written with full round-trip float formatting and
contain no timestamps, so identical config+seed reruns are byte-identical;
wall-clock data lives only in ``run.json``.

Exit codes: 0 success, 2 validation failure, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from . import bnmf, partition as part_mod, recovery, register, snr, transforms
from .artifacts import write_json
from .errors import (
    ConfigurationError,
    DimensionError,
    NumericalDomainError,
    QReadoutError,
    StateError,
    ValidationError,
)

STAGES = ("simulate", "fit", "partition", "recover", "verify", "sweep", "pipeline")

_DEFAULTS = {
    "register": {"horizon": 600, "dim": 512, "residual_strength": 0.3},
    "factorization": {"k_min": 1, "k_max": 4, "max_iters": 300, "tol": 1e-6},
    "partition": {"max_iters": 300, "tol": 1e-7},
    "transform": {"k": 0, "unit_window": True},
    "recovery": {"k1": None},
    "sweep": {"r_sx": 1.0, "deltas": [1, 2, 3, 4, 5, 6, 7, 8, 9]},
}


@dataclass
class RunConfig:
    """Resolved configuration for one stage execution."""

    stage: str
    seed: int
    output_dir: Path
    document: dict

    def section(self, name: str) -> dict:
        merged = dict(_DEFAULTS.get(name, {}))
        merged.update(self.document.get(name, {}))
        return merged

    def register_config(self) -> register.RegisterConfig:
        sec = self.section("register")
        return register.RegisterConfig(
            horizon=int(sec["horizon"]),
            dim=int(sec["dim"]),
            residual_strength=float(sec["residual_strength"]),
            seed=int(sec.get("seed", self.seed)),
        )

    def fit_options(self) -> bnmf.FitOptions:
        sec = self.section("factorization")
        return bnmf.FitOptions(
            max_iters=int(sec["max_iters"]),
            tol=float(sec["tol"]),
            seed=int(sec.get("seed", self.seed)),
        )

    def order_range(self) -> tuple[int, int]:
        sec = self.section("factorization")
        if "k" in sec and sec["k"] is not None:
            k = int(sec["k"])
            return k, k
        return int(sec["k_min"]), int(sec["k_max"])


@dataclass
class RunRecord:
    """What a stage run produced; persisted as ``run.json``."""

    stage: str
    seed: int
    artifacts: dict = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "seed": self.seed,
            "artifacts": {k: str(v) for k, v in self.artifacts.items()},
            "elapsed_seconds": self.elapsed_seconds,
            "notes": list(self.notes),
            "versions": {
                "qreadout": __version__,
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            },
        }


def _require(path: Path, producer: str) -> Path:
    if not path.exists():
        raise ValidationError(
            f"missing artifact {path.name}; run the {producer} stage first"
        )
    return path


def _load(cfg: RunConfig, name: str, producer: str, from_dict):
    """Read one stage artifact; a malformed file is a validation failure."""
    path = _require(cfg.output_dir / name, producer)
    try:
        with open(path) as fh:
            return from_dict(json.load(fh))
    except QReadoutError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise ValidationError(
            f"malformed artifact {name} ({type(exc).__name__}: {exc}); "
            f"rerun the {producer} stage"
        ) from exc


def validate(config_path: str | Path) -> list[str]:
    """Schema-check a config document; returns all violations found."""
    path = Path(config_path)
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        return [f"config is not valid JSON: {exc}"]
    return validate_document(doc)


def _is_int(value) -> bool:
    """JSON integer test; ``true``/``false`` are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """JSON number test; ``true``/``false`` are not numbers here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_loop(sec: dict, name: str, diags: list[str]) -> None:
    """Iteration cap and tolerance of an iterative fit section."""
    max_iters = sec.get("max_iters", _DEFAULTS[name]["max_iters"])
    if not _is_int(max_iters) or max_iters < 1:
        diags.append(f"{name}.max_iters must be an integer >= 1, got {max_iters!r}")
    tol = sec.get("tol", _DEFAULTS[name]["tol"])
    if not _is_real(tol) or not tol > 0:
        diags.append(f"{name}.tol must be > 0, got {tol!r}")


def _check_seed(sec: dict, prefix: str, diags: list[str]) -> None:
    """An optional seed, at the top level or in a section."""
    seed = sec.get("seed", 0)
    if not _is_int(seed) or seed < 0:
        diags.append(f"{prefix}seed must be a nonnegative integer, got {seed!r}")


def validate_document(doc: dict) -> list[str]:
    diags: list[str] = []
    if not isinstance(doc, dict):
        return ["config root must be a JSON object"]

    stage = doc.get("stage")
    if stage is not None and stage not in STAGES:
        diags.append(f"stage must be one of {'|'.join(STAGES)}, got {stage!r}")

    _check_seed(doc, "", diags)

    for name in _DEFAULTS:
        if doc.get(name) is not None and not isinstance(doc[name], dict):
            diags.append(f"'{name}' must be an object")

    reg = doc.get("register")
    if stage in ("simulate", "pipeline") and reg is None:
        diags.append(f"stage {stage!r} requires a 'register' section")
    if isinstance(reg, dict):
        horizon = reg.get("horizon", _DEFAULTS["register"]["horizon"])
        dim = reg.get("dim", _DEFAULTS["register"]["dim"])
        strength = reg.get(
            "residual_strength", _DEFAULTS["register"]["residual_strength"]
        )
        if not _is_int(horizon) or horizon < 1:
            diags.append(f"register.horizon must be an integer >= 1, got {horizon!r}")
        if not _is_int(dim) or dim < 1:
            diags.append(f"register.dim must be an integer >= 1, got {dim!r}")
        elif _is_int(horizon) and horizon < dim:
            # one time window per component: fewer steps than components
            # leaves some components unobservable
            diags.append(
                f"register.horizon must be >= register.dim ({dim}), got {horizon!r}"
            )
        if not _is_real(strength) or not 0 <= strength <= 1:
            diags.append(
                f"register.residual_strength must lie in [0, 1], got {strength!r}"
            )
        _check_seed(reg, "register.", diags)

    fact = doc.get("factorization")
    if isinstance(fact, dict):
        if "k" in fact and fact["k"] is not None:
            if not _is_int(fact["k"]) or fact["k"] < 1:
                diags.append(
                    f"factorization.k must be an integer >= 1, got {fact['k']!r}"
                )
        k_min = fact.get("k_min", _DEFAULTS["factorization"]["k_min"])
        k_max = fact.get("k_max", _DEFAULTS["factorization"]["k_max"])
        if not _is_int(k_min) or k_min < 1:
            diags.append(f"factorization.k_min must be an integer >= 1, got {k_min!r}")
        if not _is_int(k_max) or (_is_int(k_min) and k_max < k_min):
            diags.append(
                f"factorization.k_max must be an integer >= k_min, got {k_max!r}"
            )
        _check_loop(fact, "factorization", diags)
        _check_seed(fact, "factorization.", diags)

    if isinstance(doc.get("partition"), dict):
        _check_loop(doc["partition"], "partition", diags)

    trans = doc.get("transform")
    if isinstance(trans, dict):
        shift = trans.get("shift")
        if shift is not None and (not _is_int(shift) or shift < 1):
            diags.append(
                f"transform.shift must be null or an integer >= 1, got {shift!r}"
            )
        k = trans.get("k", _DEFAULTS["transform"]["k"])
        if not _is_int(k):
            diags.append(f"transform.k must be an integer, got {k!r}")
        unit = trans.get("unit_window", _DEFAULTS["transform"]["unit_window"])
        if not isinstance(unit, bool):
            diags.append(f"transform.unit_window must be true or false, got {unit!r}")

    rec = doc.get("recovery")
    if isinstance(rec, dict):
        k1 = rec.get("k1")
        if k1 is not None and (not _is_int(k1) or k1 < 1):
            diags.append(f"recovery.k1 must be an integer >= 1, got {k1!r}")

    sweep = doc.get("sweep")
    if stage == "sweep" and sweep is None:
        diags.append("stage 'sweep' requires a 'sweep' section")
    if isinstance(sweep, dict):
        r_sx = sweep.get("r_sx", _DEFAULTS["sweep"]["r_sx"])
        if not _is_real(r_sx):
            diags.append(f"sweep.r_sx must be a real number, got {r_sx!r}")
        deltas = sweep.get("deltas", _DEFAULTS["sweep"]["deltas"])
        if not isinstance(deltas, list) or not deltas or not all(map(_is_real, deltas)):
            diags.append(f"sweep.deltas must be a nonempty list of reals, got {deltas!r}")

    return diags


# ---------------------------------------------------------------------------
# stage implementations


def _stage_simulate(cfg: RunConfig, record: RunRecord) -> dict:
    reg_cfg = cfg.register_config()
    gt = register.generate_input(reg_cfg)
    obs = register.observe(gt, reg_cfg)

    gt_path = cfg.output_dir / "ground_truth.json"
    write_json(register.ground_truth_to_dict(gt, reg_cfg), gt_path)
    gt_csv = cfg.output_dir / "ground_truth.csv"
    register.channels_to_csv(gt.source_rows, gt_csv)
    obs_csv = cfg.output_dir / "observation.csv"
    register.channels_to_csv(obs.values, obs_csv)
    obs_json = cfg.output_dir / "observation.json"
    write_json(obs.to_dict(), obs_json)

    record.artifacts.update(
        ground_truth=gt_path,
        ground_truth_csv=gt_csv,
        observation_csv=obs_csv,
        observation=obs_json,
    )
    return {"ground_truth": gt, "observation": obs}


def _load_observation(cfg: RunConfig) -> register.ObservationMatrix:
    return _load(cfg, "observation.json", "simulate", register.ObservationMatrix.from_dict)


def _load_ground_truth(cfg: RunConfig) -> tuple[register.GroundTruth, register.RegisterConfig]:
    return _load(cfg, "ground_truth.json", "simulate", register.ground_truth_from_dict)


def _stage_fit(cfg: RunConfig, record: RunRecord, obs=None) -> bnmf.FitResult:
    obs = obs or _load_observation(cfg)
    opts = cfg.fit_options()
    k_min, k_max = cfg.order_range()
    k_star, model, scores = bnmf.select_order(
        obs.values, k_min, k_max, opts, with_trace=True
    )
    model = model.result()

    model_path = cfg.output_dir / "model.json"
    write_json(model.to_dict(), model_path)
    trace_path = cfg.output_dir / "elbo_trace.csv"
    with open(trace_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "elbo"])
        for i, value in enumerate(model.elbo_trace, start=1):
            writer.writerow([i, repr(value)])
    scores_path = cfg.output_dir / "order_scores.csv"
    with open(scores_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["K", "elbo", "converged"])
        for K, elbo, conv in scores:
            writer.writerow([K, repr(elbo), conv])

    record.artifacts.update(
        model=model_path, elbo_trace=trace_path, order_scores=scores_path
    )
    record.notes.append(f"selected K*={k_star} over [{k_min}, {k_max}]")
    if not model.converged:
        record.notes.append("factorization did not converge within max_iters")
    return model


def _load_model(cfg: RunConfig) -> bnmf.FitResult:
    return _load(cfg, "model.json", "fit", bnmf.FitResult.from_dict)


def _window_for(cfg: RunConfig, K: int) -> tuple[transforms.WindowSpec, int]:
    sec = cfg.section("transform")
    shift = sec.get("shift")
    spec = transforms.WindowSpec(
        shift=int(shift) if shift is not None else K,
        size=K,
        unit_window=bool(sec.get("unit_window", True)),
    )
    return spec, int(sec.get("k", 0))


def _stage_partition(cfg: RunConfig, record: RunRecord, model=None) -> part_mod.BasisPartition:
    model = model or _load_model(cfg)
    K = model.K
    sec = cfg.section("partition")

    if K < register.NUM_SOURCES:
        part = part_mod.BasisPartition(assignment=np.ones(K, dtype=int))
        record.notes.append(
            f"K={K} below the cluster count; all bases assigned to the target cluster"
        )
    else:
        w, k_freq = _window_for(cfg, K)
        c_b = part_mod.transform_bases(model, w, k_freq)
        S = np.abs(c_b @ model.activations)
        tensors = part_mod.fit_partition(
            S,
            K,
            max_iters=int(sec["max_iters"]),
            tol=float(sec["tol"]),
            seed=cfg.seed,
            init_bases=np.abs(c_b),
            init_activations=model.activations,
        )
        part = part_mod.assign(tensors)
        scores_path = cfg.output_dir / "scores.csv"
        part_mod.scores_to_csv(tensors, scores_path)
        record.artifacts["scores"] = scores_path
        if not tensors.converged:
            record.notes.append("partition decomposition did not converge")

    part_path = cfg.output_dir / "partition.json"
    write_json(part.to_dict(), part_path)
    record.artifacts["partition"] = part_path
    return part


def _load_partition(cfg: RunConfig) -> part_mod.BasisPartition:
    return _load(cfg, "partition.json", "partition", part_mod.BasisPartition.from_dict)


def true_target_bases(model: bnmf.FitResult, gt: register.GroundTruth) -> list[int]:
    """Bases whose activation profile tracks the planted target row.

    A basis belongs to the target when its activation series correlates at
    least as well with the target row as with the residual row; an all-zero
    reference row never claims a basis.
    """
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


def _stage_recover(
    cfg: RunConfig,
    record: RunRecord,
    model=None,
    part=None,
    gt=None,
) -> recovery.RecoveryResult:
    model = model or _load_model(cfg)
    part = part or _load_partition(cfg)
    if gt is None:
        gt, _ = _load_ground_truth(cfg)
    K = model.K
    sizes = part.cluster_sizes
    target_members = [int(k) for k in part.members(1)]
    reference = true_target_bases(model, gt)

    if sizes[0] == 0:
        record.notes.append("target cluster is empty; recovery degenerate")
        result = recovery.RecoveryResult(
            phi_star=transforms.SpectralState(np.ones(1, dtype=complex), "dft"),
            prob_table=None,
            fidelity_vs_target=0.0,
            recovered_bases=(),
        )
    else:
        w, k_freq = _window_for(cfg, K)
        c_b = part_mod.transform_bases(model, w, k_freq)
        clustered = recovery.regroup(c_b, part, w, k_freq)
        clustered_path = cfg.output_dir / "clustered_bases.json"
        write_json(
            {
                "cluster_sizes": clustered.sizes,
                "composite": [
                    [[float(v.real), float(v.imag)] for v in row]
                    for row in clustered.composite
                ],
            },
            clustered_path,
        )
        record.artifacts["clustered_bases"] = clustered_path

        sec = cfg.section("recovery")
        k1 = sec.get("k1") or recovery.choose_carrier(K, sizes[0])
        state = recovery.build_superposition(part, k1)
        out_state, table = recovery.extract_target(state, k1, K)
        result = recovery.finalize(
            out_state,
            sizes[0],
            prob_table=table,
            recovered_bases=target_members,
            target_bases=reference,
        )
        table_path = cfg.output_dir / "prob_table.csv"
        table.to_csv(table_path)
        record.artifacts["prob_table"] = table_path

    rec_path = cfg.output_dir / "recovery.json"
    write_json(result.to_dict(), rec_path)
    record.artifacts["recovery"] = rec_path
    return result


def recovered_spectrum(
    model: bnmf.FitResult,
    part: part_mod.BasisPartition,
    reg_cfg: register.RegisterConfig,
) -> np.ndarray:
    """Component power spectrum of the separated target estimate."""
    members = part.members(1)
    if members.size == 0:
        return np.zeros(reg_cfg.dim)
    rec = model.bases[:, members] @ model.activations[members, :]
    return register.spectrum_from_row(rec[0], reg_cfg.horizon, reg_cfg.dim)


def _stage_verify(cfg: RunConfig, record: RunRecord, model=None, part=None, gt=None) -> snr.SnrReport:
    if gt is None:
        gt, reg_cfg = _load_ground_truth(cfg)
    else:
        reg_cfg = cfg.register_config()
    model = model or _load_model(cfg)
    part = part or _load_partition(cfg)

    psi_in = register.input_state(gt)
    phi = register.register_state(gt)
    spectrum = recovered_spectrum(model, part, reg_cfg)
    if spectrum.sum() == 0.0:
        raise NumericalDomainError(
            "recovered target spectrum is empty; cannot score the output state"
        )
    phi_out = np.sqrt(spectrum).astype(complex)

    spec = snr.EnergySpec()
    report = snr.snr_report(
        snr.energy(psi_in, spec),
        snr.energy(phi, spec),
        snr.energy(phi_out, spec),
    )
    report_path = cfg.output_dir / "snr_report.json"
    write_json(report.to_dict(), report_path)
    record.artifacts["snr_report"] = report_path
    if report.no_gain:
        record.notes.append("verification flagged no-gain (delta <= 0)")
    return report


def _stage_sweep(cfg: RunConfig, record: RunRecord) -> list[tuple[float, float]]:
    sec = cfg.section("sweep")
    rows = snr.sweep_curve(float(sec["r_sx"]), [float(d) for d in sec["deltas"]])
    sweep_path = cfg.output_dir / "sweep.csv"
    snr.sweep_to_csv(rows, sweep_path)
    record.artifacts["sweep"] = sweep_path
    return rows


def run(cfg: RunConfig) -> RunRecord:
    """Execute the configured stage(s) and persist artifacts + run.json."""
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    record = RunRecord(stage=cfg.stage, seed=cfg.seed)
    started = time.monotonic()

    if cfg.stage == "simulate":
        _stage_simulate(cfg, record)
    elif cfg.stage == "fit":
        _stage_fit(cfg, record)
    elif cfg.stage == "partition":
        _stage_partition(cfg, record)
    elif cfg.stage == "recover":
        _stage_recover(cfg, record)
    elif cfg.stage == "verify":
        _stage_verify(cfg, record)
    elif cfg.stage == "sweep":
        _stage_sweep(cfg, record)
    elif cfg.stage == "pipeline":
        sim = _stage_simulate(cfg, record)
        model = _stage_fit(cfg, record, obs=sim["observation"])
        part = _stage_partition(cfg, record, model=model)
        _stage_recover(cfg, record, model=model, part=part, gt=sim["ground_truth"])
        _stage_verify(cfg, record, model=model, part=part, gt=sim["ground_truth"])
    else:
        raise ValidationError(f"unknown stage {cfg.stage!r}")

    record.elapsed_seconds = time.monotonic() - started
    write_json(record.to_dict(), cfg.output_dir / "run.json")
    return record


# ---------------------------------------------------------------------------
# command-line entry point


def _build_config(args, stage: str) -> RunConfig:
    doc = {}
    if args.config:
        diags = validate(args.config)
        if diags:
            raise ValidationError("; ".join(diags))
        with open(args.config) as fh:
            doc = json.load(fh)
    seed = args.seed if args.seed is not None else int(doc.get("seed", 0))
    out = Path(args.out) if args.out else Path(doc.get("output_dir", "out"))
    return RunConfig(stage=stage, seed=seed, output_dir=out, document=doc)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qreadout",
        description="Blind two-source register readout pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for stage in STAGES:
        p = sub.add_parser(stage, help=f"run the {stage} stage")
        p.add_argument("--config", help="JSON config document")
        p.add_argument("--seed", type=int, default=None, help="override the seed")
        p.add_argument("--out", default=None, help="override the output directory")
    v = sub.add_parser("validate", help="schema-check a config document")
    v.add_argument("config", help="JSON config document to check")
    return parser


def _fail(exc: Exception, code: int) -> int:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload), file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "validate":
            diags = validate(args.config)
            for d in diags:
                print(d)
            return 0 if not diags else 2
        cfg = _build_config(args, args.command)
        record = run(cfg)
        print(json.dumps({"stage": record.stage, "output_dir": str(cfg.output_dir)}))
        return 0
    except (ValidationError, ConfigurationError, DimensionError) as exc:
        return _fail(exc, 2)
    except (NumericalDomainError, StateError, QReadoutError) as exc:
        return _fail(exc, 3)


if __name__ == "__main__":
    sys.exit(main())
