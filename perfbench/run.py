"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload staged-large --seed 0 --seconds 50 --trace 0

Load is one client in a closed loop: run *i* starts when run *i-1* and
its output checks are done, and uses the inputs of seed ``seed + i``.
The package is imported from ``src/`` of the checkout this file sits in.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The full record
(environment, tail percentile, failing seeds) goes to
``.perfbench_out/<workload>-seed<seed>-trace<t>.json``, and a traced run
also writes its spans next to it.

With ``--trace 1`` every input runs twice, untraced and traced in
alternating order, so the tracing overhead is a paired difference on the
same inputs.

``setup_s`` is the median over three fresh processes of the time from
the first line of this script to the end of one untimed warm-up run:
this process and two set-up-only ones started before the timed runs.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # set-up time counts from here, before numpy loads

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def record_path(workload: str, seed: int, trace: int) -> Path:
    return OUT / f"{workload}-seed{seed}-trace{trace}.json"


def cap_blas_threads() -> int:
    """Run BLAS on one thread, set before numpy loads; returns the setting.

    The load is one client with no worker threads, and one thread never
    exceeds the CPUs this process may use.  On a 2-CPU machine a second
    thread made both pipelines slower and noisier at the benchmark's sizes.
    """
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, as (value, percentile).

    With fewer than eleven samples no such percentile exists and the
    maximum is returned as the 100th.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


class Tally:
    """Counts and timings of the runs in one pass."""

    def __init__(self):
        self.seconds: list[float] = []
        self.ok_seconds: list[float] = []
        self.artifact_bytes: list[int] = []
        self.failures: list[tuple[int, str]] = []
        self.misses: list[int] = []

    def add(self, seed: int, seconds: float, outcome) -> None:
        self.seconds.append(seconds)
        self.artifact_bytes.append(outcome.artifact_bytes)
        if outcome.error:
            self.failures.append((seed, outcome.error))
        else:
            self.ok_seconds.append(seconds)
        if not outcome.quality:
            self.misses.append(seed)


def warm_up(build, name: str, seed: int, workdir: Path):
    """Build the workload and run it once, untimed; returns the workload.

    The warm-up runs the inputs of run 0, so a failure there is counted
    and reported by the timed runs.
    """
    workload = build(name, workdir)
    try:
        workload.execute(workload.prepare(seed))
    except Exception:  # reported by run 0, which uses the same inputs
        pass
    return workload


def fresh_setups(workload: str, seed: int, count: int) -> list[float]:
    """Set-up times of ``count`` fresh processes, started one after another.

    Each is this script with ``--setup-only``: import, build and one
    warm-up run, timed from its own start, so one-off first-call costs
    count every time.  Each has ended before the timed runs begin.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--setup-only"]
    times = []
    for _ in range(count):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process exited {proc.returncode}: {proc.stderr}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def end_to_end(tally: Tally, setup_s: float) -> dict:
    ok = tally.ok_seconds or tally.seconds
    value, pct = tail(ok)
    attempted = len(tally.seconds)
    return {
        "setup_s": (setup_s, "s"),
        "run_tail_s": (value, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
        "quality_hit_ratio": ((attempted - len(tally.misses)) / attempted, "ratio"),
    }, {
        # recorded, not declared in BENCHMARK.json: they follow the share of
        # a run the host CPU spends in its faster state (see README.md)
        "runs_per_s": (len(tally.ok_seconds) / sum(tally.seconds), "1/s"),
        "run_p50_s": (statistics.median(ok), "s"),
        "artifact_mb": (statistics.fmean(tally.artifact_bytes) / 1e6, "MB"),
        "failed_ratio": (len(tally.failures) / attempted, "ratio"),
        "run_tail_percentile": (pct, "%"),
        "run_samples": (len(ok), "count"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit (used for setup_s)")
    args = parser.parse_args(argv)

    threads = cap_blas_threads()
    if not (ROOT / "src" / "qreadout" / "__init__.py").is_file():
        print(f"qreadout sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import numpy
    import scipy

    import qreadout
    import spans
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"unknown workload {args.workload!r}; one of {', '.join(workloads.NAMES)}",
              file=sys.stderr)
        return 2

    record_file = record_path(args.workload, args.seed, args.trace)
    workdir = record_file.with_suffix("")
    if args.setup_only:
        workdir = workdir.with_name(workdir.name + "-setup")
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workload = warm_up(workloads.build, args.workload, args.seed, workdir)
        setup_times = [time.perf_counter() - STARTED]
        if args.setup_only:
            print(json.dumps({"setup_s": setup_times[0]}))
            return 0
        if not args.trace:
            setup_times += fresh_setups(args.workload, args.seed, SETUP_SAMPLES - 1)
        untraced, traced = Tally(), Tally()
        tracer = None
        if args.trace:
            tracer = spans.Tracer()
        deadline = time.perf_counter() + args.seconds
        i = 0
        while i == 0 or time.perf_counter() < deadline:
            seed = args.seed + i
            if tracer is None:
                untraced.add(seed, *workloads.timed_run(workload, seed))
            else:
                tracer.run_id = i
                for traced_now in ((False, True) if i % 2 == 0 else (True, False)):
                    if traced_now:
                        traced.add(seed, *workloads.timed_run(workload, seed, tracer))
                    else:
                        untraced.add(seed, *workloads.timed_run(workload, seed))
            i += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = untraced.failures + traced.failures
    attempted = len(untraced.seconds) + len(traced.seconds)
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "runs": attempted,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "qreadout": qreadout.__version__,
    }
    if tracer is None:
        metrics, extra = end_to_end(untraced, statistics.median(setup_times))
    else:
        cols = tracer.columns()
        metrics = spans.per_layer(
            tracer.names, cols["name_id"], cols["start"], cols["end"], cols["parent"],
            tracer.counts, len(traced.seconds),
        )
        accounted = float(spans.self_times(cols["start"], cols["end"], cols["parent"]).sum())
        traced_wall = statistics.fmean(traced.seconds)
        untraced_wall = statistics.fmean(untraced.seconds)
        metrics.update({
            "cli.artifact_mb": (statistics.fmean(traced.artifact_bytes) / 1e6, "MB"),
            "trace.wall_s": (traced_wall, "s"),
            "trace.untraced_wall_s": (untraced_wall, "s"),
            "trace.overhead_s": (traced_wall - untraced_wall, "s"),
            "trace.accounted_ratio": (accounted / sum(traced.seconds), "ratio"),
        })
        extra = {"failed_ratio": (len(failures) / attempted, "ratio")}
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"trace-{args.workload}-seed{args.seed}.npz")

    record = {
        "environment": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "setup_times": setup_times,
        "failures": [{"seed": s, "error": e} for s, e in failures],
        "quality_misses": sorted(set(untraced.misses + traced.misses)),
    }
    OUT.mkdir(exist_ok=True)
    record_file.write_text(json.dumps(record, indent=2))

    print("  ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name:28s} {value:14.6g} {unit}")
    for seed, error in failures[:5]:
        print(f"FAILED seed {seed}: {error}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
