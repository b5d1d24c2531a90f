"""Run the benchmark over several seeds and report medians and spreads.

Usage (from the repository root):

    python3 perfbench/sweep.py --workloads oracle_verify,tensor_probe --seeds 1-10 \
        [--trace-seeds 1-3] [--out sweep.json]

For each workload and end-to-end metric it prints the median, the first and
third quartiles (``statistics.quantiles(n=4)``) and the spread, the distance
between the quartiles as a share of the median, next to the metric's bound
from ``BENCHMARK.json``.  With ``--trace-seeds`` it also makes a traced run
right after the untraced run of each of those seeds and reports the tracing
overhead, the median over those pairs of 1 - traced/untraced
``items_per_s``.  Runs are made one after another.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"record": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace-seeds", default=None)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    trace_seeds = set(seed_range(args.trace_seeds)) if args.trace_seeds else set()
    for workload in args.workloads.split(","):
        runs, traced = [], []
        for s in seed_range(args.seeds):
            runs.append(run_once(workload, s, bench["run_seconds"], 0))
            if s in trace_seeds:  # right after its untraced twin, so drift cancels
                traced.append(run_once(workload, s, bench["run_seconds"], 1))
        entry = {"runs": runs, "metrics": {}}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            stats = spread(values)
            stats["bound"] = bound
            entry["metrics"][name] = stats
            flag = "ok" if stats["spread"] < bound / 3 else ("WITHIN BOUND" if stats["spread"]
                                                            <= bound else "OVER BOUND")
            print(f"{workload:16s} {name:12s} median {stats['median']:12.5g}  "
                  f"q1 {stats['q1']:12.5g}  q3 {stats['q3']:12.5g}  "
                  f"spread {stats['spread']:6.3f}  bound {bound}  {flag}", flush=True)
        failed = sum(r["result"]["failed"] for r in runs)
        print(f"{workload:16s} samples per run "
              f"{sorted(r['result']['attempted'] for r in runs)}, failed {failed}", flush=True)
        if traced:
            entry["traced"] = traced
            plain = {r["record"]["seed"]: r["result"]["metrics"]["items_per_s"]["value"]
                     for r in runs}
            ratios = [1.0 - r["result"]["metrics"]["trace.items_per_s"]["value"]
                      / plain[r["record"]["seed"]] for r in traced]
            entry["tracing_overhead"] = statistics.median(ratios)
            print(f"{workload:16s} tracing overhead {entry['tracing_overhead']:+.3f} "
                  f"(median of {len(ratios)} back-to-back pairs: "
                  f"{', '.join(f'{x:+.3f}' for x in ratios)})", flush=True)
        report[workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
