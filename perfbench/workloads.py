"""The benchmark's workloads: input generation, the timed call, output checks.

Each workload splits one run into ``prepare`` (untimed: inputs for one
seed), ``execute`` (the timed call into qreadout's public entry points)
and ``check`` (untimed: invariants read from the artifacts or the
returned model, never from timing).  Run *i* of a benchmark process uses
the inputs of seed ``seed + i``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import shutil
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from qreadout import bnmf, cli

# relative drop of the bound tolerated as rounding, as in the acceptance suite
ELBO_RTOL = 1e-8
GAIN_DB_GATE = 10.0
FIDELITY_GATE = 0.9

# the example config of the README, without seed and output directory
README_CONFIG = {
    "register": {"horizon": 600, "dim": 512, "residual_strength": 0.3},
    "factorization": {"k_min": 1, "k_max": 4, "max_iters": 300, "tol": 1e-6},
    "partition": {"max_iters": 300, "tol": 1e-7},
    "transform": {"k": 0, "unit_window": True},
    "recovery": {"k1": None},
    "sweep": {"r_sx": 1.0, "deltas": [1, 2, 3, 4, 5, 6, 7, 8, 9]},
}

# written by every successful simulate/fit/partition/recover/verify sequence;
# scores.csv, clustered_bases.json and prob_table.csv depend on K* and the split
ALWAYS_WRITTEN = (
    "ground_truth.json", "ground_truth.csv", "observation.csv",
    "observation.json", "model.json", "elbo_trace.csv", "order_scores.csv",
    "partition.json", "recovery.json", "snr_report.json", "run.json",
)


@dataclass
class Outcome:
    """Result of one run's checks; ``error`` is None when every check passed."""

    error: str | None
    quality: bool
    artifact_bytes: int = 0


def timed_run(workload, seed: int, tracer=None) -> tuple[float, Outcome]:
    """Prepare, time and check one run; ``tracer`` is entered around the timed call."""
    inputs = workload.prepare(seed)
    started = perf_counter()
    try:
        with tracer or nullcontext():
            result = workload.execute(inputs)
    except Exception as exc:  # a failing run is counted, not fatal
        return perf_counter() - started, Outcome(f"{type(exc).__name__}: {exc}", False)
    elapsed = perf_counter() - started
    return elapsed, workload.check(inputs, result)


def bound_drop(trace) -> str | None:
    """Describe the first decrease of a variational bound trace, if any."""
    trace = np.asarray(trace, dtype=float)
    drops = trace[:-1] - trace[1:]
    bad = np.flatnonzero(drops > ELBO_RTOL * np.abs(trace[:-1]))
    if bad.size:
        i = int(bad[0])
        return f"ELBO decreased at sweep {i + 2}: {trace[i]!r} -> {trace[i + 1]!r}"
    return None


def first_argmax(values) -> int:
    """Index of the largest value; ties resolve to the first, like ``select_order``."""
    return int(np.argmax(np.asarray(values, dtype=float)))


class Pipeline:
    """``qreadout`` CLI stages run in-process through ``cli.main``.

    One run is either the ``pipeline`` subcommand or the five stages as
    separate calls on one output directory, each reloading its inputs
    from the files the previous stage wrote.
    """

    def __init__(self, workdir: Path, register: dict, stages: tuple[str, ...]):
        self.stages = stages
        self.out = workdir / "out"
        self.config = workdir / "config.json"
        workdir.mkdir(parents=True, exist_ok=True)
        doc = json.loads(json.dumps(README_CONFIG))
        doc["register"].update(register)
        self.config.write_text(json.dumps(doc, indent=2))

    def prepare(self, seed: int) -> int:
        # a fresh directory, so a stale artifact cannot pass for a new one
        shutil.rmtree(self.out, ignore_errors=True)
        return seed

    def execute(self, seed: int) -> list[tuple[str, int, str]]:
        done = []
        for stage in self.stages:
            sink = io.StringIO()
            with redirect_stdout(sink), redirect_stderr(sink):
                code = cli.main(
                    [stage, "--config", str(self.config), "--seed", str(seed),
                     "--out", str(self.out)]
                )
            done.append((stage, code, sink.getvalue()))
            if code != 0:
                break
        return done

    def check(self, seed: int, done) -> Outcome:
        for stage, code, text in done:
            if code != 0:
                return Outcome(f"{stage} exited {code}: {text.strip()}", False)
        missing = [n for n in ALWAYS_WRITTEN if not (self.out / n).is_file()]
        if missing:
            return Outcome(f"missing artifacts: {', '.join(missing)}", False)
        written = sum(p.stat().st_size for p in self.out.iterdir())
        try:
            error, quality = self._invariants()
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            error, quality = f"unreadable artifact: {type(exc).__name__}: {exc}", False
        return Outcome(error, quality, written)

    def _invariants(self) -> tuple[str | None, bool]:
        with open(self.out / "elbo_trace.csv", newline="") as fh:
            trace = [float(row["elbo"]) for row in csv.DictReader(fh)]
        with open(self.out / "order_scores.csv", newline="") as fh:
            scores = [(int(row["K"]), float(row["elbo"])) for row in csv.DictReader(fh)]
        model = json.loads((self.out / "model.json").read_text())
        report = json.loads((self.out / "snr_report.json").read_text())
        fidelity = json.loads((self.out / "recovery.json").read_text())["fidelity_vs_target"]

        if not trace or len(trace) != model["iterations"]:
            return f"elbo_trace.csv has {len(trace)} rows for {model['iterations']} sweeps", False
        drop = bound_drop(trace)
        if drop:
            return drop, False
        k_star = scores[first_argmax([e for _, e in scores])][0]
        if model["K"] != k_star:
            return f"model has K={model['K']} but order_scores selects K*={k_star}", False
        for name in ("S", "X", "T"):
            value = report[name]
            if not (isinstance(value, float) and math.isfinite(value) and value > 0):
                return f"energy {name}={value!r} is not finite and positive", False
        gain = report["snr_out_db"] - report["snr_register_db"]
        return None, bool(gain >= GAIN_DB_GATE and fidelity >= FIDELITY_GATE)


def planted_order_data(k_true: int, T: int, seed: int, scale: float = 20.0) -> np.ndarray:
    """Two-channel observation with ``k_true`` planted bases.

    Basis k points at an angle spread over (0, pi/2) and is active alone
    on the k-th block of time steps, so the mean matrix has rank k_true.
    """
    rng = np.random.default_rng(seed)
    angles = np.linspace(0.15, np.pi / 2 - 0.15, k_true)
    bases = np.vstack([np.cos(angles), np.sin(angles)])
    acts = np.zeros((k_true, T))
    edges = np.linspace(0, T, k_true + 1).astype(int)
    for k in range(k_true):
        lo, hi = edges[k], edges[k + 1]
        acts[k, lo:hi] = rng.uniform(0.5 * scale, 1.5 * scale, hi - lo)
    return bases @ acts


class OrderSelect:
    """``bnmf.select_order`` over K 1..4 on planted inputs with K_true 1 and 2.

    One run is one call per K_true, so every run does the same mix of
    work: single calls are bimodal in time (a K_true 1 input takes about
    1.7 times as long), and the median of runs alternating between the
    two modes would land in the sparse gap between them.
    """

    K_TRUE = (1, 2)

    def __init__(self, T: int = 128, max_iters: int = 200, tol: float = 1e-7):
        self.T = T
        self.opts = bnmf.FitOptions(max_iters=max_iters, tol=tol)

    def prepare(self, seed: int) -> list[np.ndarray]:
        return [planted_order_data(k, self.T, seed) for k in self.K_TRUE]

    def execute(self, inputs):
        return [bnmf.select_order(X, 1, 4, self.opts, with_trace=True) for X in inputs]

    def check(self, inputs, results) -> Outcome:
        quality = True
        for k_true, (k_star, model, scores) in zip(self.K_TRUE, results):
            drop = bound_drop(model.elbo_trace)
            if drop:
                return Outcome(drop, False)
            best = scores[first_argmax([e for _, e, _ in scores])][0]
            if k_star != best or model.K != k_star:
                return Outcome(
                    f"K*={k_star} (model K={model.K}) but the scores select {best}", False
                )
            quality = quality and k_star == k_true
        return Outcome(None, quality)


def build(name: str, workdir: Path):
    """The workload ``name`` at its benchmark size, writing under ``workdir``."""
    if name == "pipeline-default":
        return Pipeline(workdir, {}, ("pipeline",))
    if name == "staged-large":
        return Pipeline(
            workdir,
            {"horizon": 20000, "dim": 3000},
            ("simulate", "fit", "partition", "recover", "verify"),
        )
    if name == "order-select":
        return OrderSelect()
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("pipeline-default", "staged-large", "order-select")
