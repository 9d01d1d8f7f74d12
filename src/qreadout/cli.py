"""Experiment harness: run pipeline stages and persist their artifacts.

Each subcommand runs one stage from a JSON config document, and
``pipeline`` runs simulate, fit, partition, recover and verify in turn;
``--seed`` and ``--out`` flags override the document, and the subcommand
decides which sections the document must hold.  Every stage reads its
inputs through one loader: an artifact this run already wrote is handed
over as the value it was written from, anything else is read from the
output directory.  So a stage run on its own reruns against artifacts
produced earlier, ``pipeline`` parses none of its own files, and both
write byte-identical artifacts.  Before a stage runs, every file it may
write is removed, so a rerun into a used directory keeps none of an
earlier run's files that it does not write itself.  Numerical artifacts
are written with full round-trip float formatting and contain no
timestamps, so identical config+seed reruns are byte-identical;
wall-clock data lives only in ``run.json``.

Exit codes: 0 success, 2 validation failure (a bad config, a missing or
malformed artifact, an output directory or artifact path that cannot be
created or written), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from . import bnmf, partition as part_mod, recovery, register, snr
from .artifacts import write_csv, write_json
from .errors import (
    ConfigurationError,
    DimensionError,
    NumericalDomainError,
    QReadoutError,
    StateError,
    ValidationError,
)

_DEFAULTS = {
    "register": {"horizon": 600, "dim": 512, "residual_strength": 0.3},
    "factorization": {"k_min": 1, "k_max": 4, "max_iters": 300, "tol": 1e-6},
    "partition": {"max_iters": 300, "tol": 1e-7},
    "transform": {"k": 0},
    "recovery": {"k1": None},
    "sweep": {"r_sx": 1.0, "deltas": [1, 2, 3, 4, 5, 6, 7, 8, 9]},
}


@dataclass
class RunConfig:
    """Resolved configuration for one stage execution.

    Construction resolves ``document`` once, through the same path as
    ``validate_document``, into the typed values the stages read; any
    violation raises ``ValidationError`` before a stage runs.  ``seed`` and
    ``output_dir`` override the document's when not ``None``; afterwards
    they hold the effective seed and directory.
    """

    stage: str
    seed: int | None
    output_dir: Path | str | None
    document: dict
    register: register.RegisterConfig = field(init=False)
    factorization: bnmf.FitOptions = field(init=False)
    orders: tuple[int, int] = field(init=False)
    transform: int = field(init=False)
    k1: int | None = field(init=False)
    sweep: tuple[float, list] = field(init=False)

    def __post_init__(self):
        values, diags = _resolve(self.document, self.stage, self.seed, self.output_dir)
        if diags:
            raise ValidationError("; ".join(diags))
        self.seed = values["seed"]
        self.output_dir = Path(values["output_dir"])
        self.register = values["register"]
        self.factorization, self.orders = values["factorization"]
        self.transform = values["transform"]
        self.k1 = values["recovery"]
        self.sweep = values["sweep"]


@dataclass
class RunRecord:
    """What a stage run produced; persisted as ``run.json``.

    ``written`` keeps, by file name, the value each JSON artifact of this
    run was written from, for the later stages of the run; it is not
    persisted.
    """

    stage: str
    seed: int
    artifacts: dict = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    notes: list = field(default_factory=list)
    written: dict = field(default_factory=dict)

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


def _read_config(path: str | Path) -> tuple[object, str | None]:
    """The parsed JSON of a config file and ``None``, or ``None`` and why
    the file cannot be read as JSON (it cannot be opened, or it is not JSON)."""
    try:
        with open(path) as fh:
            return json.load(fh), None
    except OSError as exc:
        return None, f"cannot read config file {path}: {exc}"
    # bad JSON or UTF-8 and an integer past int's digit limit raise
    # ValueError; nesting past the recursion limit raises RecursionError
    except (ValueError, RecursionError) as exc:
        return None, f"config is not valid JSON: {exc}"


def validate(config_path: str | Path) -> list[str]:
    """Schema-check a config file; returns all violations found."""
    doc, unreadable = _read_config(config_path)
    return [unreadable] if unreadable else validate_document(doc)


def validate_document(doc) -> list[str]:
    """Every violation in a config document, at most one per section."""
    return _resolve(doc)[1]


def _is_int(value) -> bool:
    """JSON integer test; ``true``/``false`` are not integers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_int64(value) -> bool:
    """JSON integer that fits in a signed 64-bit integer."""
    return _is_int(value) and -(2**63) <= value < 2**63


def _is_finite_real(value) -> bool:
    """JSON number that converts to a finite float; ``true``/``false`` are
    not numbers here."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer past the float range
        return False


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise ValidationError(message)


def _register(sec: dict, seed: int) -> register.RegisterConfig:
    return register.RegisterConfig(
        horizon=sec["horizon"],
        dim=sec["dim"],
        residual_strength=sec["residual_strength"],
        seed=sec.get("seed", seed),
    )


# the largest order a fit may take: the K scale the transforms target, and
# recover builds dense K x K matrices
_MAX_ORDER = 1024


def _factorization(sec: dict, seed: int) -> tuple[bnmf.FitOptions, tuple[int, int]]:
    opts = bnmf.FitOptions(sec["max_iters"], sec["tol"], sec.get("seed", seed))
    k_min, k_max, k = sec["k_min"], sec["k_max"], sec.get("k")
    _check(_is_int(k_min) and k_min >= 1, f"k_min must be an integer >= 1, got {k_min!r}")
    _check(_is_int(k_max) and k_min <= k_max <= _MAX_ORDER,
           f"k_max must be an integer >= k_min and <= {_MAX_ORDER}, got {k_max!r}")
    _check(k is None or _is_int(k) and 1 <= k <= _MAX_ORDER,
           f"k must be an integer >= 1 and <= {_MAX_ORDER}, got {k!r}")
    return opts, ((k_min, k_max) if k is None else (k, k))


def _transform(sec: dict, seed: int) -> int:
    # the readout has one window, the unit window; documents may still name it
    k, shift, unit = sec["k"], sec.get("shift"), sec.get("unit_window", True)
    _check(_is_int64(k), f"k must be a 64-bit integer, got {k!r}")
    _check(unit is True,
           "unit_window must be true: a Hann taper is zero at every multiple of "
           f"K-1, so it zeroes a transformed basis at every K >= 2; got {unit!r}")
    _check(shift is None,
           "shift must be null: it cancels out of the unit window's constant-Q "
           f"phase; got {shift!r}")
    return k


def _recovery(sec: dict, seed: int) -> int | None:
    k1 = sec["k1"]
    _check(k1 is None or _is_int(k1) and k1 >= 1, f"k1 must be an integer >= 1, got {k1!r}")
    return k1


def _sweep(sec: dict, seed: int) -> tuple[float, list]:
    r_sx, deltas = sec["r_sx"], sec["deltas"]
    _check(_is_finite_real(r_sx), f"r_sx must be a finite real number, got {r_sx!r}")
    _check(isinstance(deltas, list) and deltas and all(map(_is_finite_real, deltas)),
           f"deltas must be a nonempty list of finite reals, got {deltas!r}")
    return r_sx, deltas


# each section's builder, called with the section over its defaults and the run
# seed.  No stage reads the partition section; it is still checked, so that
# documents holding it run unchanged
_SECTIONS = {
    "register": _register,
    "factorization": _factorization,
    "partition": lambda sec, seed: bnmf.FitOptions(sec["max_iters"], sec["tol"]),
    "transform": _transform,
    "recovery": _recovery,
    "sweep": _sweep,
}


def _resolve(doc, stage=None, seed=None, output_dir=None) -> tuple[dict, list[str]]:
    """Build the typed value of every config section from one document.

    ``stage`` is the stage being run, which decides the required sections;
    ``None`` takes the document's.  ``seed`` and ``output_dir`` override
    the document's unless ``None``.  Returns the values by name and the
    diagnostics: the document-level ones, then the first error of each
    bad section.  The values are complete only when there are no
    diagnostics.
    """
    if not isinstance(doc, dict):
        return {}, ["config root must be a JSON object"]
    diags: list[str] = []
    named = doc.get("stage")
    stage = named if stage is None else stage
    for value in (named, stage):
        if value is not None and value not in STAGES:
            diags.append(f"stage must be one of {'|'.join(STAGES)}, got {value!r}")
            break
    for name, stages in (("register", ("simulate", "pipeline")), ("sweep", ("sweep",))):
        if stage in stages and doc.get(name) is None:
            diags.append(f"stage {stage!r} requires a '{name}' section")

    # the document's seed and the override, each bad value reported once
    seeds = (doc.get("seed", 0), seed)
    bad = [s for s in seeds if s is not None and not (_is_int(s) and s >= 0)]
    diags += dict.fromkeys(f"seed must be a nonnegative integer, got {s!r}" for s in bad)
    run_seed = seeds[0] if seed is None else seed
    if bad:
        run_seed = 0  # a stand-in, so the sections still report their own errors
    out = doc.get("output_dir", "out")
    if not isinstance(out, str):
        diags.append(f"output_dir must be a string, got {out!r}")
    values = {"seed": run_seed, "output_dir": output_dir or out}

    for name, build in _SECTIONS.items():
        sec = doc.get(name)
        if sec is not None and not isinstance(sec, dict):
            diags.append(f"'{name}' must be an object")
            continue
        try:
            values[name] = build({**_DEFAULTS[name], **(sec or {})}, run_seed)
        except (ConfigurationError, ValidationError) as exc:
            diags.append(f"{name}: {exc}")
    return values, diags


# ---------------------------------------------------------------------------
# stage implementations


def _save(cfg: RunConfig, record: RunRecord, name: str, doc, value=None) -> None:
    """Write JSON artifact ``name`` and keep ``value`` for later stages of the run."""
    path = cfg.output_dir / name
    write_json(doc, path)
    record.artifacts[path.stem] = path
    record.written[name] = value


def _save_csv(cfg: RunConfig, record: RunRecord, key: str, name: str, header, rows) -> None:
    path = cfg.output_dir / name
    write_csv(header, rows, path)
    record.artifacts[key] = path


def _save_channels(cfg: RunConfig, record: RunRecord, key: str, name: str, header, rows) -> None:
    """Channels-by-time rows as CSV under ``header``: each line the channel, then its row."""
    _save_csv(cfg, record, key, name, header, ([m, row] for m, row in enumerate(rows)))


def _channel_header(horizon: int) -> str:
    """The channel files' header text ``m,t0,...,t{horizon-1}``, with no Python object per step.

    The names of one digit count are one character matrix: a row for
    ``,`` and ``t``, then one row per decimal place, filled with numpy a
    place at a time.  At 20000 steps this takes 0.2 ms, where one ``%``
    format over the steps takes 0.7 ms and an f-string per name 1.1 ms.
    """
    parts, lo, width = ["m"], 0, 1
    while lo < horizon:
        hi = min(max(10 * lo, 10), horizon)
        steps = np.arange(lo, hi, dtype=np.min_scalar_type(hi))
        chars = np.empty((width + 2, hi - lo), dtype=np.uint8)
        chars[0], chars[1] = ord(","), ord("t")
        for place in range(width + 1, 1, -1):
            chars[place] = steps % 10
            steps //= 10
        chars[2:] += ord("0")
        parts.append(chars.T.tobytes().decode())
        lo, width = hi, width + 1
    return "".join(parts)


def _load(cfg: RunConfig, record: RunRecord, name: str, *args):
    """The value of artifact ``name``: kept if this run wrote it, else read from its file.

    ``args`` follow the parsed JSON into the file's parser.  A missing
    file, or one whose text or values its parser refuses or cannot hold
    in memory, is a validation failure that names it.
    """
    if name in record.written:
        return record.written[name]
    producer, parse = _READS[name]
    path = cfg.output_dir / name
    if not path.exists():
        raise ValidationError(f"missing artifact {name}; run the {producer} stage first")
    try:
        with open(path) as fh:
            return parse(json.load(fh), *args)
    # the parsers' own checks raise ValueError subclasses; nesting past the
    # recursion limit raises RecursionError, an integer past the float
    # range where a float belongs OverflowError, and an artifact too large
    # to hold MemoryError
    except (
        ValueError, KeyError, TypeError, RecursionError, OverflowError, MemoryError
    ) as exc:
        raise ValidationError(
            f"malformed artifact {name} ({type(exc).__name__}: {exc}); "
            f"rerun the {producer} stage"
        ) from exc


def _stage_simulate(cfg: RunConfig, record: RunRecord) -> None:
    gt = register.generate_input(cfg.register)
    obs = register.observe(gt, cfg.register)
    _save(
        cfg, record, "ground_truth.json",
        register.ground_truth_to_dict(gt, cfg.register), (gt, cfg.register),
    )
    header = _channel_header(cfg.register.horizon)  # once for both channel files
    _save_channels(cfg, record, "ground_truth_csv", "ground_truth.csv", header, gt.source_rows)
    _save_channels(cfg, record, "observation_csv", "observation.csv", header, obs.values)
    _save(cfg, record, "observation.json", obs.to_dict(), obs)


def _stage_fit(cfg: RunConfig, record: RunRecord) -> None:
    obs = _load(cfg, record, "observation.json")
    k_min, k_max = cfg.orders
    k_star, model, scores = bnmf.select_order(
        obs.values, k_min, k_max, cfg.factorization, with_trace=True
    )

    _save(cfg, record, "model.json", model.to_dict(), model)
    trace = enumerate(model.elbo_trace, start=1)
    _save_csv(cfg, record, "elbo_trace", "elbo_trace.csv", ["iter", "elbo"], trace)
    header = ["K", "elbo", "converged"]
    _save_csv(cfg, record, "order_scores", "order_scores.csv", header, scores)
    record.notes.append(f"selected K*={k_star} over [{k_min}, {k_max}]")
    if not model.converged:
        record.notes.append("factorization did not converge within max_iters")


def _stage_partition(cfg: RunConfig, record: RunRecord) -> None:
    horizon = _load(cfg, record, "observation.json").metadata.horizon
    model = _load(cfg, record, "model.json", horizon)
    K = model.K

    if K < register.NUM_SOURCES:
        part = part_mod.BasisPartition(assignment=np.ones(K, dtype=int))
        record.notes.append(
            f"K={K} below the cluster count; all bases assigned to the target cluster"
        )
    else:
        # the constant-Q transform scales each basis alone, so the bases'
        # argmax is the transformed bases' (see the partition module)
        part = part_mod.BasisPartition.from_scores(model.bases)

    _save(cfg, record, "partition.json", part.to_dict(), part)


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


def _check_partition(model: bnmf.FitResult, part: part_mod.BasisPartition) -> None:
    """Refuse a partition whose assignment does not name each of the model's bases."""
    if part.assignment.size != model.K:
        raise ValidationError(
            f"partition.json assigns {part.assignment.size} bases but model.json has "
            f"K={model.K}; rerun the partition stage"
        )


def _stage_recover(cfg: RunConfig, record: RunRecord) -> None:
    gt, _ = _load(cfg, record, "ground_truth.json")
    model = _load(cfg, record, "model.json", gt.horizon)
    part = _load(cfg, record, "partition.json")
    _check_partition(model, part)
    K = model.K
    sizes = part.cluster_sizes
    target_members = [int(k) for k in part.members(1)]
    reference = true_target_bases(model, gt)

    if sizes[0] == 0:
        record.notes.append("target cluster is empty; recovery degenerate")
        result = recovery.RecoveryResult(
            phi_star=np.ones(1, dtype=complex),
            prob_table=None,
            fidelity_vs_target=0.0,
            recovered_bases=(),
        )
    else:
        # k1 is checked (extract_target refuses one not dividing K) before any write
        k1 = cfg.k1 or recovery.choose_carrier(K, sizes[0])
        state = recovery.build_superposition(part, k1)
        out_state, table = recovery.extract_target(state, k1, K)

        c_b = part_mod.transform_bases(model, cfg.transform)
        clustered = recovery.regroup(c_b, part, cfg.transform)
        composite = [
            [[float(v.real), float(v.imag)] for v in row] for row in clustered.composite
        ]
        doc = {"cluster_sizes": clustered.sizes, "composite": composite}
        _save(cfg, record, "clustered_bases.json", doc)

        result = recovery.finalize(
            out_state,
            sizes[0],
            prob_table=table,
            recovered_bases=target_members,
            target_bases=reference,
        )
        rows = enumerate(table.probabilities.tolist())
        _save_csv(cfg, record, "prob_table", "prob_table.csv", ["j", "probability"], rows)

    _save(cfg, record, "recovery.json", result.to_dict())


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


def _stage_verify(cfg: RunConfig, record: RunRecord) -> None:
    gt, reg_cfg = _load(cfg, record, "ground_truth.json")
    model = _load(cfg, record, "model.json", gt.horizon)
    part = _load(cfg, record, "partition.json")
    _check_partition(model, part)

    psi_in = register.input_state(gt)
    phi = register.register_state(gt)
    spectrum = recovered_spectrum(model, part, reg_cfg)
    if spectrum.sum() == 0.0:
        raise NumericalDomainError(
            "recovered target spectrum is empty; cannot score the output state"
        )
    phi_out = np.sqrt(spectrum).astype(complex)

    report = snr.snr_report(snr.energy(psi_in), snr.energy(phi), snr.energy(phi_out))
    _save(cfg, record, "snr_report.json", report.to_dict())
    if report.no_gain:
        record.notes.append("verification flagged no-gain (delta <= 0)")


def _stage_sweep(cfg: RunConfig, record: RunRecord) -> None:
    r_sx, deltas = cfg.sweep
    # float(d) keeps sweep.csv reading 1.0 for an integer delta
    rows = snr.sweep_curve(r_sx, [float(d) for d in deltas])
    _save_csv(cfg, record, "sweep", "sweep.csv", ["delta", "snr_db"], rows)


# each artifact a stage reads: the stage that writes it and the parser of its
# JSON; model.json's parser also takes the horizon its activations must span
_READS = {
    "observation.json": ("simulate", register.ObservationMatrix.from_dict),
    "ground_truth.json": ("simulate", register.ground_truth_from_dict),
    "model.json": ("fit", bnmf.FitResult.from_dict),
    "partition.json": ("partition", part_mod.BasisPartition.from_dict),
}

# each stage: its function and every file it may write besides run.json.
# run() removes those files before the stage runs, so a rerun into a used
# directory keeps none that this run does not write (clustered_bases.json and
# prob_table.csv exist only with a nonempty target cluster).  The partition
# stage's first name is the score table an earlier version wrote, removed so
# that no partitioning over such a directory keeps it
_WRITES = {
    "simulate": (_stage_simulate, (
        "ground_truth.json", "ground_truth.csv", "observation.csv", "observation.json",
    )),
    "fit": (_stage_fit, ("model.json", "elbo_trace.csv", "order_scores.csv")),
    "partition": (_stage_partition, ("scores.csv", "partition.json")),
    "recover": (_stage_recover, ("clustered_bases.json", "prob_table.csv", "recovery.json")),
    "verify": (_stage_verify, ("snr_report.json",)),
    "sweep": (_stage_sweep, ("sweep.csv",)),
}

# the stages each subcommand runs, in order
_STEPS = {
    **{stage: (stage,) for stage in _WRITES},
    "pipeline": ("simulate", "fit", "partition", "recover", "verify"),
}
STAGES = tuple(_STEPS)


def run(cfg: RunConfig) -> RunRecord:
    """Execute the configured stage(s) and persist artifacts + run.json."""
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    record = RunRecord(stage=cfg.stage, seed=cfg.seed)
    started = time.monotonic()

    for stage in _STEPS[cfg.stage]:
        run_stage, files = _WRITES[stage]
        for name in files:
            (cfg.output_dir / name).unlink(missing_ok=True)
        run_stage(cfg, record)

    record.elapsed_seconds = time.monotonic() - started
    write_json(record.to_dict(), cfg.output_dir / "run.json")
    return record


# ---------------------------------------------------------------------------
# command-line entry point


def _build_config(args, stage: str) -> RunConfig:
    doc, unreadable = _read_config(args.config) if args.config else ({}, None)
    if unreadable:
        raise ValidationError(unreadable)
    return RunConfig(stage=stage, seed=args.seed, output_dir=args.out, document=doc)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and reused by every ``main`` call."""
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
    # an OSError is an output directory or artifact path the run cannot
    # create, write or read, e.g. --out naming a file
    except (ValidationError, ConfigurationError, DimensionError, OSError) as exc:
        return _fail(exc, 2)
    except (NumericalDomainError, StateError, QReadoutError) as exc:
        return _fail(exc, 3)


if __name__ == "__main__":
    sys.exit(main())
