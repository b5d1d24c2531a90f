"""Quick self-check of the benchmark harness at tiny sizes (about half a minute).

Usage (from the repository root):

    python3 perfbench/selfcheck.py

For every workload run.py knows (the BENCHMARK.json workloads and the
manual ``tensor_probe`` and ``verify_battery``), untraced and traced, it runs
``run.py --tiny`` with a seed that no baseline uses and asserts that the
last stdout line has exactly the result keys, that ``correct`` holds with
no failed item, and that the metrics are exactly the ``end_to_end`` (or
``per_layer``) metrics of BENCHMARK.json, each with its unit and a finite
value.  It then copies BENCHMARK.json and this directory, without
``src/``, to a scratch directory and asserts that a run there fails
without printing a result.  Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7919  # not one of the baseline seeds 1-10
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_result(proc, expected: dict) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"fail_ratio not 0: {proc.stdout.strip().splitlines()[-2]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted {result.get('attempted')!r}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"missing {sorted(set(expected) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')!r} != {unit!r}")
        v = m.get("value")
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"{name}: value {v!r}")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failed = False
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            problems = check_result(run(ROOT, workload, trace), expected[trace])
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{workload:16s} trace {trace}: {status}", flush=True)
            failed |= bool(problems)

    bare = ROOT / ".perfbench_work" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run(bare, WORKLOAD_NAMES[0], 0)
        printed_result = any(line.startswith('{"correct"') for line in proc.stdout.splitlines())
        ok = proc.returncode != 0 and not printed_result
        print(f"without src/: exit code {proc.returncode}, "
              f"{'no result printed' if not printed_result else 'RESULT PRINTED'}: "
              f"{'ok' if ok else 'FAIL'}")
        failed |= not ok
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
