"""One workload in a fresh process: set-up, then measured passes or a traced run.

    python3 perfbench/child.py --mode setup|measure|trace --workload NAME
        --seed N --seconds S --out DIR [--smoke]

``run.py`` starts this with ``PYTHONPATH`` pointing at the checkout's ``src``.
The last line of standard output is one JSON object:

- ``ready``: ``time.monotonic()`` when the workload's inputs were ready; the
  parent subtracts the moment it started this process.
- ``passes`` (measure, trace): per pass, per operation, its time, error and
  the facts the metrics are computed from. ``measure`` makes at least two passes
  of the whole operation list and repeats them until ``--seconds`` have gone
  by. It also records the time of the workload's calibration kernel around
  each operation.
- ``layers`` (trace): the per-layer metrics. The first pass runs with the
  wrappers installed, the second without, and the span dump is written to
  ``--out``.
"""

import argparse
import contextlib
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

import calibration
import workloads

ROOT = Path(__file__).resolve().parent.parent
# every operation's median is then taken over at least two samples
MIN_PASSES = 2


def run_pass(ops, tracer=None, calibrate=None):
    """Runs every op once. With a `calibrate` kernel, the kernel is timed
    before each op and after the last, and each op records the mean of the
    two times around it as `cal_s`."""
    results = []
    cal = calibration.timed(calibrate) if calibrate else None
    for op in ops:
        error = facts = out = None
        span = tracer.span(f"bench.{op.label}") if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with span:
                out = op.call()
        except Exception:  # an operation that raises is counted as failed
            error = traceback.format_exc()
        elapsed = time.perf_counter() - start
        if calibrate:
            before, cal = cal, calibration.timed(calibrate)
        if error is None:
            try:
                error = op.check(out)
                if error is None and op.facts:
                    facts = op.facts(out)
            except Exception:
                error = traceback.format_exc()
        if error:
            print(f"{op.label}: {error}", file=sys.stderr)
        results.append({"label": op.label, "s": elapsed, "error": error,
                        "facts": facts, "tags": op.tags})
        if calibrate:
            results[-1]["cal_s"] = (before + cal) / 2.0
        del out
    return results


def environment():
    import numpy
    import scipy

    import markosparse
    from markosparse import kernels

    source = Path(markosparse.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"markosparse was imported from {source}, not from {ROOT / 'src'}")
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "backend": kernels.backend_name()}


def measure(args, tmp):
    ops = workloads.build(args.workload, args.seed, args.smoke, ROOT, tmp)
    report = {"ready": time.monotonic(), "env": environment()}
    if args.mode == "setup":
        return report
    kernel = getattr(calibration, workloads.CALIBRATION[args.workload])
    kernel()  # untimed: its first call builds its inputs
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        passes.append(run_pass(ops, calibrate=kernel))
    report["passes"] = passes
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return report


def trace(args, tmp):
    import layers
    import tracer as tracing

    tracer = tracing.Tracer(layers.OBSERVERS)
    tracer.install()
    with tracer.span("bench.setup"):
        ops = workloads.build(args.workload, args.seed, args.smoke, ROOT, tmp)
    first = len(tracer.spans)
    traced = run_pass(ops, tracer)
    tracer.uninstall()
    untraced = run_pass(ops)
    roots = {rec["id"] for rec in tracer.spans[first:] if rec["parent"] is None}

    gaps = [r["facts"]["formula_gap"] for r in traced
            if r["facts"] and r["facts"].get("formula_gap") is not None]
    metrics = layers.layer_metrics(tracer, max(gaps, default=0.0))
    metrics["trace.overhead_s"] = sum(r["s"] for r in traced) - sum(r["s"] for r in untraced)
    metrics["trace.layer_self_s"] = sum(
        t[2] for name, t in tracer.totals(roots).items() if not name.startswith("bench."))

    dump = Path(args.out) / f"spans-{args.workload}-seed{args.seed}.json"
    with open(dump, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "pass_roots": sorted(roots),
                   "counters": tracer.counters, "spans": tracer.spans}, fh)
    return {"env": environment(), "passes": [traced, untraced], "layers": metrics,
            "span_dump": str(dump.relative_to(ROOT))}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--out", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=args.out))
    try:
        report = trace(args, tmp) if args.mode == "trace" else measure(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
