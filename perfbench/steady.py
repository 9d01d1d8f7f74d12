"""Steadiness check: run each workload repeatedly on one commit.

    python3 perfbench/steady.py                          # 10 seeds per workload
    python3 perfbench/steady.py --runs 1                 # every metric once, with units
    python3 perfbench/steady.py --workload order-select --runs 5 --sets 2

Every run is a fresh ``run.py`` process with its own ``--seed``.  For each
end-to-end metric this prints the median and quartiles of the runs
(``statistics.quantiles(values, n=4)``) and their spread, (q3 - q1) /
median, against the bound in ``BENCHMARK.json``.  With ``--sets 2`` or more, each set
gets its own spread, and each later set's median is compared with the
first set's, in the metric's worse direction.  The metrics ``run.py``
records but ``BENCHMARK.json`` does not declare, such as ``run_p50_s`` and
``failed_ratio``, come from the record each run writes and are shown
with their spread but not judged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import record_path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# recorded by run.py beside the end-to-end metrics: name -> unit
EXTRA = {"runs_per_s": "1/s", "run_p50_s": "s", "artifact_mb": "MB", "failed_ratio": "ratio",
         "run_tail_percentile": "%", "run_samples": "count"}


def run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(record_path(workload, seed, 0).read_text())
    values = {k: v["value"] for k, v in result["metrics"].items()}
    values.update({k: record["extra"][k]["value"] for k in EXTRA})
    values["attempted"], values["failed"] = result["attempted"], result["failed"]
    return values


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median); quartiles need two values."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    if not med:
        return med, q1, q3, 0.0 if q3 == q1 else float("inf")
    return med, q1, q3, (q3 - q1) / med


def worse_by(first: float, later: float, better: str) -> float:
    """Relative change of ``later`` against ``first`` in the worse direction."""
    change = (later - first) / first if first else 0.0
    return change if better == "lower" else -change


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable); default all")
    parser.add_argument("--runs", type=int, default=10, help="seeds per workload and set")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0, help="first seed")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)

    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    worst = (0.0, "")
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            seeds = [args.seed + s * args.runs + k for k in range(args.runs)]
            sets.append([run(workload, seed, args.seconds) for seed in seeds])
            print(f"# {workload} set {s}: seeds {seeds[0]}..{seeds[-1]}", flush=True)
        print(f"\n{workload}  ({args.runs} runs x {args.sets} sets, {args.seconds} s each)")
        print(f"{'metric':20s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s}  "
              f"{'bound':>6s}  spread per set; drift of later sets")
        for m in metrics:
            stats = [spread([r[m["name"]] for r in runs]) for runs in sets]
            med, q1, q3, _ = stats[0]
            spreads = [sp for *_, sp in stats]
            drifts = [worse_by(med, later[0], m["better"]) for later in stats[1:]]
            share = max(v / m["bound"] for v in spreads + drifts)
            worst = max(worst, (share, f"{m['name']} on {workload}"))
            print(f"{m['name']:20s} {m['unit']:6s} {med:12.6g} {q1:12.6g} {q3:12.6g}  "
                  f"{m['bound']:6.3f}  " + " ".join(f"{sp:.4f}" for sp in spreads)
                  + ("; " + " ".join(f"{d:+.4f}" for d in drifts) if drifts else ""))
        for name, unit in EXTRA.items():  # no bound: shown, not judged
            stats = [spread([r[name] for r in runs]) for runs in sets]
            med, q1, q3, _ = stats[0]
            print(f"{name:20s} {unit:6s} {med:12.6g} {q1:12.6g} {q3:12.6g}  {'-':>6s}  "
                  + " ".join(f"{sp:.4f}" for *_, sp in stats))
        runs = [r for rs in sets for r in rs]
        print(f"failed {sum(r['failed'] for r in runs)} of "
              f"{sum(r['attempted'] for r in runs)} runs attempted")
    print(f"\nlargest spread or drift as a share of its bound: {worst[0]:.3f} ({worst[1]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
