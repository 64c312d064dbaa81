"""markosparse benchmark: train, hitting and chain workloads.

    python3 perfbench/run.py --workload train|hitting|chain|all --seed N
        --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout; the package is imported from its ``src``.
Every workload runs in fresh processes started here, one at a time, each a
closed loop with one client on one thread, BLAS included:

- ``--trace 0`` starts several set-up-only processes and one measuring
  process, and prints the end-to-end metrics of BENCHMARK.json. The measuring
  process runs the workload's operation list at least twice and until
  ``--seconds`` have gone by. ``wall_s`` is the sum over operations of each
  one's median time; ``wall_cal`` is the same sum with each operation's time divided by the time
  of a calibration kernel run just before and after it (see calibration.py).
- ``--trace 1`` starts one process that wraps the package's public functions
  and prints the per-layer metrics.

Each operation's output is checked; a failed check or an exception counts as
a failed operation. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
list every metric by name with its unit, plus the workload's own figures
(``info``). The run's environment, metrics and info are also written to
``.perfbench_out/``. ``--smoke`` shrinks every workload to a few seconds.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("train", "hitting", "chain")
REQUIRED = ("src/markosparse/__init__.py", "data/mushrooms_synth.libsvm")

SETUP_SAMPLES = 9           # fresh processes per run whose set-up time is sampled
TIME_LIMIT_S = 170.0        # a run must end within 180 s
# a two-thread BLAS pool ran at half speed whenever the other core of a
# shared 2-core host was busy
BLAS_THREADS = 1

# (facts key of the work done, facts key of the time it took or None for the
# operation's own time) for the throughput figure
THROUGHPUT = {"train": ("rounds", "loop_s"), "hitting": ("draws", None), "chain": ("states", None)}


class RunFailed(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.pop("MARKOSPARSE_CACHE_DIR", None)   # cold: no reference cache on disk
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def start_child(mode, workload, args, env, deadline):
    """Runs child.py to completion; returns (start time, its report)."""
    cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode, "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--out", str(OUT)]
    if args.smoke:
        cmd.append("--smoke")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunFailed("time limit reached before the run was complete")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{mode} process for {workload} exceeded the time limit") from None
    if proc.returncode != 0:
        raise RunFailed(f"{mode} process for {workload} exited with {proc.returncode}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def _ops(passes):
    return [op for p in passes for op in p]


def _rate(ops, work, seconds):
    ops = [op for op in ops if op["facts"]]
    spent = sum(op["facts"][seconds] if seconds else op["s"] for op in ops)
    return sum(op["facts"][work] for op in ops) / spent if spent else 0.0


def end_to_end(workload, setups, report):
    passes = report["passes"]
    ops = _ops(passes)
    failed = sum(1 for op in ops if op["error"])
    per_op = range(len(passes[0]))
    wall = sum(statistics.median(p[i]["s"] for p in passes) for i in per_op)
    metrics = {
        "setup_s": statistics.median(setups),
        # each operation in units of the calibration kernel timed around it
        "wall_cal": sum(statistics.median(p[i]["s"] / p[i]["cal_s"] for p in passes)
                        for i in per_op),
        "peak_rss_mb": report["peak_rss_mb"],
        "success_rate": 1.0 - failed / len(ops),
    }
    work, seconds = THROUGHPUT[workload]
    info = {"wall_s": wall, "calibration_s": statistics.median(op["cal_s"] for op in ops),
            "passes": len(passes),
            "error_rate": failed / len(ops),
            "throughput_per_s": statistics.median(_rate(p, work, seconds) for p in passes)}
    first = [op for op in passes[0] if op["facts"]]
    if workload == "train":
        steps = [1000.0 * s for op in ops if op["facts"] for s in op["facts"]["step_s"]]
        if steps:
            info["step_ms_p50"] = statistics.median(steps)
            info["step_ms_p99"] = _percentile(steps, 99)
            info["step_samples"] = len(steps)
        reached = [op["facts"]["coords_to"] for op in first if op["tags"]["compressed"]]
        info["coords_to_1e-3"] = None if None in reached else sum(reached)
    elif workload == "hitting":
        for regime, narrow in (("narrow", True), ("wide", False)):
            info[f"mc_draws_per_s.{regime}"] = statistics.median(
                _rate([op for op in p if op["tags"]["narrow"] == narrow], "draws", None)
                for p in passes)
        info["chain_analysis.formula_vs_mc_gap_max"] = max(
            (op["facts"]["formula_gap"] for op in first if op["facts"]["formula_gap"] is not None),
            default=None)
    return len(ops), failed, metrics, info


def _percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def per_layer(workload, report):
    ops = _ops(report["passes"])
    failed = sum(1 for op in ops if op["error"])
    metrics = dict(report["layers"])
    traced, untraced = report["passes"]
    traced_wall = sum(op["s"] for op in traced)
    info = {"untraced_wall_s": sum(op["s"] for op in untraced), "traced_wall_s": traced_wall,
            # traced time that no layer's self time covers
            "unaccounted_s": traced_wall - metrics["trace.layer_self_s"],
            "span_dump": report["span_dump"]}
    if workload == "train":
        # the compressors' own count must match what the CSVs record
        csv_total = sum(op["facts"]["coords_sent"] for op in traced if op["facts"])
        info["csv_coords_sent"] = csv_total
        if abs(csv_total - metrics["compressors.coords_sent"]) > 1e-9 * max(csv_total, 1.0):
            print(f"compressors.coords_sent {metrics['compressors.coords_sent']} != "
                  f"CSV total {csv_total}", file=sys.stderr)
            failed += 1
    return len(ops), failed, metrics, info


def environment(args):
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "markosparse").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": git_sha, "src_sha256": digest.hexdigest(), "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
            "loadavg_start": os.getloadavg()}


def run_workload(workload, args, env, deadline):
    if args.trace:
        _, report = start_child("trace", workload, args, env, deadline)
        attempted, failed, metrics, info = per_layer(workload, report)
    else:
        setups = []
        for _ in range((2 if args.smoke else SETUP_SAMPLES) - 1):
            started, report = start_child("setup", workload, args, env, deadline)
            setups.append(report["ready"] - started)
        started, report = start_child("measure", workload, args, env, deadline)
        setups.append(report["ready"] - started)
        attempted, failed, metrics, info = end_to_end(workload, setups, report)
    return attempted, failed, metrics, info, report["env"]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for testing the benchmark")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a markosparse checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    env = child_env()
    record = environment(args)
    OUT.mkdir(exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for workload in names:
        try:
            n, bad, values, info, child_record = run_workload(workload, args, env, deadline)
        except RunFailed as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        if set(values) != set(declared):
            print(f"error: {workload} measured {sorted(set(values) ^ set(declared))} "
                  "differently from BENCHMARK.json", file=sys.stderr)
            return 1
        attempted += n
        failed += bad
        prefix = f"{workload}." if len(names) > 1 else ""
        for name, value in values.items():
            metrics[prefix + name] = {"value": value, "unit": declared[name]}
            print(f"{workload:8s} {name:50s} {value:>16.6g} {declared[name]}")
        for name, value in info.items():
            print(f"{workload:8s} {'info ' + name:50s} {value!s:>16}")
        record.update(child_record)
        record["loadavg_end"] = os.getloadavg()
        result = OUT / f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
        with open(result, "w", encoding="utf-8") as fh:
            json.dump({"workload": workload, "env": record, "attempted": n, "failed": bad,
                       "metrics": values, "info": info}, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
