"""Run one workload of the softaug benchmark and print its metrics.

    python3 perfbench/run.py --workload {compare,augment,score} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout: the package is imported from its `src/`
and the metric names and units come from its BENCHMARK.json; without
either the run exits with code 2 before measuring. The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. A traced run spends half its time untraced and
half traced, and writes its spans to .perfbench_out/.

Operation and set-up times are stated in seconds on the nominal host:
each wall time is divided by the host's speed, gauged around and during
it with a fixed reference task (reference.py), because the shared host's
own speed drifts by more than the regressions the benchmark must catch.
"""
from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from stats import op_median

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))
# set-up repeats for at least this long: the host's speed drifts over
# seconds, and a median over a window this wide stays within a few percent
SETUP_SECONDS, SETUP_MIN = 4.0, 3
# a timed call is divided by the host's speed, gauged for EDGE_S before
# and after it and for one reference chunk (about 2 ms) every TICK_S while
# it runs (see reference.py)
EDGE_S, TICK_S = 0.03, 0.1
# the benchmark runs on one Python thread; cap BLAS pools at nproc before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)


def on_nominal_host(call, context):
    """Run `call()` inside `context`. Returns (seconds, host, what the
    context yielded): `host` is the mean host factor gauged for EDGE_S
    before and after the call and at each tick while it ran, and `seconds`
    the call's wall time, less the ticks, divided by `host`: the time it
    would take on the nominal host."""
    from reference import HostGauge, host_factor  # loads numpy, so not before the BLAS cap is set

    before = host_factor(EDGE_S)
    with context as entered, HostGauge(TICK_S) as gauge:
        t0 = perf_counter()
        call()
        t1 = perf_counter()
    host = (before + gauge.factor_sum + host_factor(EDGE_S)) / (gauge.count + 2)
    return (t1 - t0 - gauge.paused(t1)) / host, host, entered


def run_ops(workload, budget, first, min_ops, tracer=None, totals=None):
    """Operations until `budget` seconds would be exceeded by one more, at
    least `min_ops`. Returns (seconds on the nominal host, passed) per
    operation; an operation that raises or fails its checks is a failed
    operation."""
    results = []
    walls = []
    start = perf_counter()
    for i in itertools.count(first):
        wall = perf_counter()
        workload.prepare(i)
        seconds, host = 0.0, 0.0
        try:
            root = tracer.root("op") if tracer else contextlib.nullcontext()
            seconds, host, spans = on_nominal_host(lambda: workload.op(i), root)
            if tracer:
                totals.add(spans)
            passed = workload.check(i)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            passed = False
        status = "ok" if passed else "FAILED"
        print(f"perfbench: {workload.name} operation {i}: {seconds * host:.6f} s, host {host:.4f}, {status}",
              file=sys.stderr)
        results.append((seconds, passed))
        walls.append(perf_counter() - wall)
        if len(results) >= min_ops and perf_counter() - start + statistics.median(walls) > budget:
            return results


def machine_note(softaug, np) -> dict:
    src = ROOT / "src"
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(src.rglob("*.py")))
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": NPROC,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "softaug": softaug.__version__,
        "src_lines": lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path, src = ROOT / "BENCHMARK.json", ROOT / "src"
    if not spec_path.is_file() or not (src / "softaug" / "__init__.py").is_file():
        print(f"perfbench: {ROOT} holds no BENCHMARK.json or src/softaug", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np

    import softaug
    from layers import KEEP_DURATIONS, TRACED, layer_metrics
    from tracing import Totals, Tracer
    from workloads import WORKLOADS

    if Path(softaug.__file__).resolve().parent != (src / "softaug").resolve():
        print(f"perfbench: softaug imported from {softaug.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    print("perfbench machine " + json.dumps(machine_note(softaug, np)), file=sys.stderr)

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        if not args.trace:
            setups = []
            start = perf_counter()
            while len(setups) < SETUP_MIN or perf_counter() - start < SETUP_SECONDS:
                setups.append(on_nominal_host(workload.setup, contextlib.nullcontext())[0])
            results = run_ops(workload, args.seconds, 0, min_ops=2)
            values = {
                "op_s": op_median(results),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "ok_frac": sum(ok for _, ok in results) / len(results),
            }
            names = spec["end_to_end"]
        else:
            workload.setup()
            untraced = run_ops(workload, args.seconds / 2, 0, min_ops=1)
            tracer = Tracer(TRACED)
            setup_totals, op_totals = Totals(), Totals(KEEP_DURATIONS)
            tracer.install()
            try:
                with tracer.root("setup") as setup_spans:
                    workload.setup()
                setup_totals.add(setup_spans)
                traced = run_ops(workload, args.seconds / 2, len(untraced), 2, tracer, op_totals)
            finally:
                tracer.uninstall()
            results = untraced + traced
            base = op_median(untraced)
            values = layer_metrics(setup_totals, op_totals, op_median(traced) / base - 1.0 if base else 0.0)
            values.update(workload.layer_values())
            names = spec["per_layer"]
            dump_spans(args.workload, args.seed, {"setup": setup_totals.first, "op": op_totals.first})
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not ok for _, ok in results)
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in names}
    print(json.dumps({"correct": failed == 0, "attempted": len(results), "failed": failed, "metrics": metrics}))
    return 0


def dump_spans(workload, seed, roots):
    """Write [name, start, end, parent] rows, times in seconds from the root's start."""
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    rows = {}
    for kind, spans in roots.items():
        origin = spans[0][1] if spans else 0.0
        rows[kind] = [[n, s - origin, e - origin, p] for n, s, e, p, _ in spans or []]
    (out / f"spans-{workload}-seed{seed}.json").write_text(json.dumps(rows), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
