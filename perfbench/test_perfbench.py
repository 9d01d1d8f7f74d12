"""Smoke tests of the benchmark: tiny workloads, output checks, span arithmetic.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import spans
import workloads
from run import record_path, tail
from qreadout import bnmf

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TINY_REGISTER = {"horizon": 64, "dim": 16}
STAGED = ("simulate", "fit", "partition", "recover", "verify")


def tiny(name: str, workdir: Path):
    if name == "order-select":
        return workloads.OrderSelect(T=32, max_iters=50)
    stages = ("pipeline",) if name == "pipeline-default" else STAGED
    return workloads.Pipeline(workdir, TINY_REGISTER, stages)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_workload_passes_its_checks_under_tracing(name, tmp_path):
    original = bnmf.update_eta
    workload = tiny(name, tmp_path)
    inputs = workload.prepare(3)
    tracer = spans.Tracer()
    tracer.run_id = 0
    with tracer:
        assert bnmf.update_eta is not original
        result = workload.execute(inputs)
    assert bnmf.update_eta is original

    outcome = workload.check(inputs, result)
    assert outcome.error is None
    cols = tracer.columns()
    metrics = spans.per_layer(
        tracer.names, cols["name_id"], cols["start"], cols["end"], cols["parent"],
        tracer.counts, runs=1,
    )
    assert metrics["bnmf.sweeps"][0] > 0
    assert 0 < metrics["bnmf.kept_sweep_ratio"][0] < 1
    if name == "order-select":
        assert metrics["cli.self_s"][0] == 0.0 and outcome.artifact_bytes == 0
    else:
        assert metrics["cli.self_s"][0] > 0 and outcome.artifact_bytes > 0
        assert metrics["snr.energy_calls"][0] == 3
    # module self times add up to the root spans, i.e. to the traced call
    roots = cols["parent"] < 0
    own = spans.self_times(cols["start"], cols["end"], cols["parent"])
    assert own.sum() == pytest.approx((cols["end"] - cols["start"])[roots].sum())


def _rewrite_csv(path: Path, column: str, change) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    change(rows, column)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _drop_last_elbo(rows, col):
    rows[-1][col] = repr(float(rows[-2][col]) - 1.0)


def _promote_worst_order(rows, col):
    worst = min(rows, key=lambda r: float(r[col]))
    worst[col] = repr(max(float(r[col]) for r in rows) + 1.0)


def _negative_energy(out: Path) -> None:
    report = json.loads((out / "snr_report.json").read_text())
    report["X"] = -1.0
    (out / "snr_report.json").write_text(json.dumps(report))


CORRUPTIONS = {
    "truncated model": (
        lambda out: (out / "model.json").write_text((out / "model.json").read_text()[:100]),
        "unreadable artifact",
    ),
    "missing report": (lambda out: (out / "snr_report.json").unlink(), "missing artifacts"),
    "bound decreases": (
        lambda out: _rewrite_csv(out / "elbo_trace.csv", "elbo", _drop_last_elbo),
        "ELBO decreased",
    ),
    "order not argmax": (
        lambda out: _rewrite_csv(out / "order_scores.csv", "elbo", _promote_worst_order),
        "order_scores selects",
    ),
    "negative energy": (_negative_energy, "not finite and positive"),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_pipeline_check_catches_corrupted_artifact(corruption, tmp_path):
    workload = tiny("pipeline-default", tmp_path)
    seed = workload.prepare(5)
    done = workload.execute(seed)
    assert workload.check(seed, done).error is None
    corrupt, message = CORRUPTIONS[corruption]
    corrupt(workload.out)
    outcome = workload.check(seed, done)
    assert outcome.error is not None and message in outcome.error
    assert not outcome.quality


def test_pipeline_check_reports_nonzero_exit(tmp_path):
    workload = tiny("staged-large", tmp_path)
    seed = workload.prepare(0)
    done = workload.execute(seed)
    done[2] = ("partition", 3, '{"error": "NumericalDomainError"}')
    assert "partition exited 3" in workload.check(seed, done).error


def test_order_select_check_catches_wrong_selection():
    workload = tiny("order-select", Path("."))
    inputs = workload.prepare(2)
    results = workload.execute(inputs)
    k_star, model, scores = results[1]
    wrong = next(k for k, _, _ in scores if k != k_star)
    results[1] = (wrong, model, scores)
    assert "scores select" in workload.check(inputs, results).error


def test_self_time_arithmetic_on_synthetic_tree():
    # run 0: cli.main [0, 10] > bnmf.select_order [1, 4]
    #                         > snr.energy [5, 9] > transforms.cqt [6, 7]
    # run 1: cli.main [20, 22]
    names = ["cli.main", "bnmf.select_order", "snr.energy", "transforms.cqt"]
    name_id = [0, 1, 2, 3, 0]
    start = [0.0, 1.0, 5.0, 6.0, 20.0]
    end = [10.0, 4.0, 9.0, 7.0, 22.0]
    parent = [-1, 0, 0, 2, -1]
    assert spans.self_times(start, end, parent).tolist() == [3.0, 3.0, 3.0, 1.0, 2.0]

    m = spans.per_layer(names, name_id, start, end, parent, Counter(), runs=2)
    assert m["cli.self_s"] == (2.5, "s")
    assert m["bnmf.select_order_s"][0] == 1.5
    assert m["snr.energy_s"][0] == 2.0        # inclusive of the cqt child
    assert m["snr.self_s"][0] == 1.5
    assert m["transforms.self_s"][0] == 0.5
    assert m["transforms.calls"][0] == 0.5
    assert m["snr.energy_calls"][0] == 0.5
    assert m["partition.sweep_ms"][0] == 0.0  # no sweeps: zero, not a division error


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert tail([float(x) for x in range(1, 21)]) == (10.0, 50.0)
    assert tail([float(x) for x in range(100, 0, -1)]) == (90.0, 90.0)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def _bench(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "order-select",
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    # an outer setting must not change the recorded BLAS threads
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2"}
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_names_every_declared_metric(trace):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _bench(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = declared["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    record = json.loads(record_path("order-select", 7, trace).read_text())
    assert record["environment"]["blas_threads"] == 1
    if not trace:  # setup_s is the median of three fresh processes
        assert len(record["setup_times"]) == 3
        assert result["metrics"]["setup_s"]["value"] == statistics.median(record["setup_times"])


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
