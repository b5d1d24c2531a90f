"""gpchannels benchmark: one workload, one seed, a closed loop with one caller.

Usage (from the repository root):

    python3 perfbench/run.py --workload oracle_verify --seed 1 --seconds 10 --trace 0

Workloads are defined in ``workloads.py`` and described in ``NOTES.md``.
The run builds its inputs from ``--seed``, times items in whole blocks of
fixed composition until the next block would end past ``--seconds`` (at
least one block always runs), checks every output, and prints as its last
stdout line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` wraps the library's public functions in
spans and reports the per-layer metrics instead.  The line before it is a
JSON record of the machine, sample counts, workload shares and the
unscaled figures.

Between items the run times a fixed reference computation (``gauge.py``)
and scales each item's latency by how fast the machine ran around it, so
that a shared host's slow spells do not show as changes of the program.

The package is imported from ``src/`` next to this directory; without it
the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
# the keys of workloads.WORKLOADS; that module imports gpchannels, whose import is timed first
WORKLOAD_NAMES = ("oracle_verify", "tensor_probe", "closed_form_cli", "verify_battery")
SETUP_PROBES = 5
SEARCHES = ("oracle.extremize_self_fidelity", "oracle.maximize_output_2norm",
            "oracle.maximize_output_inf_norm", "oracle.tensor_fidelity_probe")
SPANNED_FUNCTIONS = SEARCHES + (
    "oracle.random_pure_state", "oracle.product_seed_states", "oracle.cptp_equivalence_scan",
    "oracle.eigenrelation_residual",
    "mub.build_mub_family", "channel.channel_from_dict", "channel.superoperator_of",
    "channel.tensor_power", "metrics.fidelity_report", "dynamics.timeline_report",
    "dynamics.timeline_csv_text", "dynamics.generator_consistency_residual", "cli.main",
)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="harness self-check sizes (see selfcheck.py); not a measurement")
    return ap.parse_args(argv)


def setup_probe(dims) -> tuple[float, float]:
    """One cold set-up in a fresh interpreter: (seconds, perf_counter at its middle)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), ",".join(map(str, dims))],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1]), (start + time.perf_counter()) / 2


def machine_record() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    rec = {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
        "commit": _commit(),
    }
    return rec


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or None


def _blas_threads() -> int | None:
    """Threads OpenBLAS will use, asked from the library numpy loaded."""
    import ctypes
    import glob

    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit() -> dict:
    """Git commit when the checkout is a repository, and always a digest of src/."""
    import hashlib

    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    rec = {"src_sha256": h.hexdigest()[:16], "git": None}
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            rec["git"] = proc.stdout.strip()
    return rec


def percentile(values, q: int) -> float:
    """The q-th percentile, as statistics.quantiles(n=100) gives it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Row(NamedTuple):
    kind: str
    stages: list  # (seconds, perf_counter at the middle) of each stage of the item's call
    lib: float | None  # seconds of the replayed library calls (traced cli items)
    ok: bool

    @property
    def latency(self) -> float:
        return sum(sec for sec, _mid in self.stages)


def call_in_stages(run, gauge):
    """Call ``run``; returns (output or exception, [(seconds, midpoint)] per stage).

    A call that returns a generator is a pipeline whose bare yields end its
    stages.  The gauge samples between stages, outside their timers, so a
    long item is scaled by how fast the machine ran during each stage.
    """
    stages = []
    start = time.perf_counter()
    try:
        out = run()
        if isinstance(out, types.GeneratorType):
            pipeline = out
            while True:
                try:
                    next(pipeline)
                except StopIteration as stop:
                    out = stop.value
                    break
                end = time.perf_counter()
                stages.append((end - start, (start + end) / 2))
                if gauge is not None:
                    gauge.maybe_sample()
                start = time.perf_counter()
    except Exception as exc:  # an item that raises counts as failed
        out = exc
    end = time.perf_counter()
    stages.append((end - start, (start + end) / 2))
    return out, stages


def run_items(items, tracer, item_ids, sink, gauge=None):
    """Time each item's call, sampling the gauge between items and stages.

    Returns (item, stages, library latency, output or exception).
    """
    results = []
    for item in items:
        tracer_item = next(item_ids)
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if tracer is not None:
                tracer.item = tracer_item
            out, stages = call_in_stages(item.run, gauge)
            lib_latency = None
            if tracer is not None:
                tracer.item = None
                if item.library is not None:
                    start = time.perf_counter()
                    item.library()
                    lib_latency = time.perf_counter() - start
        sink.seek(0)
        sink.truncate()
        if gauge is not None:
            gauge.maybe_sample()
        results.append((item, stages, lib_latency, out))
    return results


def measure(workload, seed, seconds, sizes, tracer, gauge):
    """Run whole blocks until the next one would end past ``seconds``."""
    import itertools

    import numpy as np

    import workloads as wl

    build_block, dims = wl.WORKLOADS[workload]
    WORKDIR.mkdir(exist_ok=True)
    workdir = str(WORKDIR / str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    item_ids = itertools.count()
    sink = io.StringIO()
    try:
        # warm-up: one tiny block from an unrelated stream, untimed and untraced
        warm_tally = wl.Tally()
        warm = build_block(np.random.default_rng([seed, 1]), 0, wl.TINY, warm_tally, workdir)
        for item, _stages, _lib, out in run_items(warm, None, item_ids, sink):
            if not isinstance(out, Exception):
                item.check(out)

        rng = np.random.default_rng(seed)
        tally = wl.Tally()
        rows = []
        failures = []
        probes = []
        gauge.sample()
        begin = time.perf_counter()
        last_block = 0.0
        blocks = 0
        while blocks == 0 or time.perf_counter() - begin + last_block <= seconds:
            # set-up probes are spread over the run, between blocks and outside
            # every item timer, so that their median spans the machine's speed levels
            if time.perf_counter() - begin >= len(probes) * seconds / SETUP_PROBES:
                probes.append(setup_probe(dims))
                gauge.sample()
            block_start = time.perf_counter()
            items = build_block(rng, blocks, sizes, tally, workdir)
            blocks += 1
            for item, stages, lib_latency, out in run_items(items, tracer, item_ids, sink, gauge):
                if isinstance(out, Exception):
                    reason = f"raised {type(out).__name__}: {out}"
                else:
                    try:
                        reason = item.check(out)
                    except Exception as exc:  # malformed output counts as failed
                        reason = f"check raised {type(exc).__name__}: {exc}"
                if reason is not None:
                    failures.append(f"{item.kind}: {reason}")
                rows.append(Row(item.kind, stages, lib_latency, reason is None))
            last_block = time.perf_counter() - block_start
        wall = time.perf_counter() - begin
        while len(probes) < SETUP_PROBES:
            probes.append(setup_probe(dims))
        gauge.sample()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORKDIR.rmdir()
    return rows, probes, failures, tally, wall, blocks


def kind_means(rows, latencies) -> dict:
    """Mean of ``latencies`` (one per row) for each item kind."""
    return {kind: statistics.fmean(lat for r, lat in zip(rows, latencies) if r.kind == kind)
            for kind in sorted({r.kind for r in rows})}


def latency_figures(rows, latencies) -> dict:
    passed = sum(r.ok for r in rows)
    return {
        "items_per_s": passed / sum(latencies),
        # the plain median of a mix whose kinds differ 100x in latency falls in a gap
        # between kinds; the geometric mean is the steady "typical item" figure
        "item_gmean_ms": 1e3 * math.exp(statistics.fmean(map(math.log, latencies))),
        # the heaviest kind's latency, averaged over every item of that kind, where a
        # p90 of a run of ~50 oracle items would rest on 5 samples; the mean, since a
        # median of ~12 items jumped between the machine's speed levels
        "slowest_kind_mean_ms": 1e3 * max(kind_means(rows, latencies).values()),
    }


def end_to_end_metrics(rows, scaled, setup_s) -> dict:
    figures = latency_figures(rows, scaled)
    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (figures["items_per_s"], "1/s"),
        "item_gmean_ms": (figures["item_gmean_ms"], "ms"),
        "slowest_kind_mean_ms": (figures["slowest_kind_mean_ms"], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer_metrics(rows, scaled, tally, tracer, import_s, scipy_loaded) -> dict:
    from tracing import LAYERS

    summary = tracer.summary(groups={"search": SEARCHES})
    n = len(rows)
    item_s = sum(r.latency for r in rows)
    lib_s = sum(r.lib for r in rows if r.lib is not None)
    cli_s = sum(r.latency for r in rows if r.lib is not None)
    scan_s = sum(r.latency for r in rows if r.kind.startswith("scan-"))
    passed = sum(r.ok for r in rows)
    m = {}
    for name in SPANNED_FUNCTIONS:
        m[f"{name}.s"] = (summary["fn_total"].get(name, 0.0) / n, "s")
    m["mub.build_mub_family.calls"] = (summary["fn_calls"].get("mub.build_mub_family", 0) / n,
                                       "count")
    for layer in LAYERS:
        m[f"layer.{layer}.calls"] = (summary["layer_calls"].get(layer, 0) / n, "count")
        m[f"layer.{layer}.s"] = (summary["layer_total"].get(layer, 0.0) / n, "s")
        m[f"layer.{layer}.self_s"] = (summary["layer_self"].get(layer, 0.0) / n, "s")
    searches = max(tally.searches, 1)
    m.update({
        "oracle.search_share": (summary["group_total"]["search"] / item_s, "ratio"),
        "oracle.restarts": (tally.restarts / n, "count"),
        "oracle.sweeps": (tally.sweeps / n, "count"),
        "oracle.max_iters_hits": (tally.max_iters_hits / n, "count"),
        "oracle.seed_win_ratio": (tally.seed_wins / searches, "ratio"),
        "oracle.search_excess_mean": (statistics.fmean(tally.excess) if tally.excess else 0.0,
                                      "prob"),
        "oracle.lower_bound_share": (tally.lower_bound / max(tally.channels, 1), "ratio"),
        "oracle.near_degenerate_share": (tally.near_degenerate / max(tally.channels, 1), "ratio"),
        "oracle.scan_points_per_s": (tally.scan_points / scan_s if scan_s else 0.0, "1/s"),
        "cli.self_s": ((cli_s - lib_s) / n, "s"),
        "import.s": (import_s, "s"),
        "import.scipy_linalg_loaded": (float(scipy_loaded), "flag"),
        "trace.coverage": (summary["root_total"] / item_s, "ratio"),
        # scaled like the untraced items_per_s, so the two give the tracing overhead
        "trace.items_per_s": (passed / sum(scaled), "1/s"),
        "trace.spans": (summary["spans"] / n, "count"),
    })
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    # one caller and single-threaded BLAS: on a small shared machine BLAS worker
    # threads made same-input runs differ by up to 25%; an explicit setting wins
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    if not (SRC / "gpchannels" / "__init__.py").is_file():
        print(f"error: no gpchannels package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    start = time.perf_counter()
    import gpchannels.cli  # timed: the import cost of the CLI module

    import_s = time.perf_counter() - start
    scipy_loaded = "scipy.linalg" in sys.modules
    if not Path(gpchannels.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: gpchannels imported from {gpchannels.cli.__file__}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    import workloads as wl
    from gauge import Gauge

    gauge = Gauge()
    sizes = wl.TINY if args.tiny else wl.FULL
    rows, probes, failures, tally, wall, blocks = measure(args.workload, args.seed, args.seconds,
                                                          sizes, tracer, gauge)
    setup_s = statistics.median(sec * gauge.scale(mid) for sec, mid in probes)
    attempted = len(rows)
    failed = sum(not r.ok for r in rows)
    latencies = [r.latency for r in rows]
    scaled = [sum(sec * gauge.scale(mid) for sec, mid in r.stages) for r in rows]
    p90 = percentile(scaled, 90)
    if tracer is None:
        metrics = end_to_end_metrics(rows, scaled, setup_s)
    else:
        metrics = per_layer_metrics(rows, scaled, tally, tracer, import_s, scipy_loaded)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "samples": attempted,
        "blocks": blocks,
        "wall_s": wall,
        "kind_mean_ms": {k: 1e3 * v for k, v in kind_means(rows, scaled).items()},
        "raw": {"setup_s": statistics.median(sec for sec, _mid in probes),
                **latency_figures(rows, latencies)},
        "gauge_ms": {q: 1e3 * v for q, v in zip(
            ("min", "q1", "median", "q3", "max"),
            (min(gauge.values), *statistics.quantiles(gauge.values, n=4), max(gauge.values)))},
        "gauge_samples": len(gauge.values),
        "fail_ratio": failed / attempted,
        "failures": failures[:5],
        "search_excess_mean": statistics.fmean(tally.excess) if tally.excess else None,
        "excess_samples": len(tally.excess),
        "sweeps": tally.sweeps,
        "item_s": sum(latencies),
        "item_p90_ms": 1e3 * p90,
        "samples_beyond_p90": sum(lat > p90 for lat in scaled),
        "lower_bound_share": tally.lower_bound / tally.channels if tally.channels else None,
        "near_degenerate_share": (tally.near_degenerate / tally.channels
                                  if tally.channels else None),
        "machine": machine_record(),
    }
    print(json.dumps(record, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
