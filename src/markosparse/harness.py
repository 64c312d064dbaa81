"""Experiment configuration, metric emission, and reproduction recipes.

Configs are YAML trees with four sections (dataset / optimizer / compressor
/ run) that load into one frozen `ExperimentConfig`. The config validates
itself when it is built (every range, e.g. p in (0, 1] and alpha_shift in
[0, 1]), and training reads it directly. Every run writes one CSV with a
fixed schema

    t,coords_sent_cum,f_value,fdist_ratio,grad_norm_sq,dist_sq_to_opt

and prints a summary of the coordinates needed to reach fixed suboptimality
thresholds. Reference minimizers are cached on disk keyed by dataset hash,
sharding and lambda so paired runs share one high-accuracy solve.
"""

import hashlib
import math
import os
import sys
import tempfile
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
import yaml

from . import chain_analysis as chains
from .compressors import (ALL_KINDS, BANLAST, IDENTITY, KAWASAKI, NATURAL,
                          ACTIVATIONS)
from .errors import ConfigError, DivergenceError
from .objectives import load_libsvm, partition
from .optimizers import OPTIMIZERS, reference_minimizer, run_training

CACHE_ENV = "MARKOSPARSE_CACHE_DIR"
CSV_HEADER = "t,coords_sent_cum,f_value,fdist_ratio,grad_norm_sq,dist_sq_to_opt"
SUMMARY_THRESHOLDS = (1e-2, 1e-3, 1e-4)
# data shuffling must not share a stream with any worker id
_DATA_STREAM = 0x64617461

ALPHA_GRID = (5.3, 6.7, 8.3, 10.0, 11.1, 12.5, 14.3, 16.7, 20.0)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run needs: dataset, optimizer, compressor and run
    settings. It is the only config; it validates itself when it is built,
    so a config that exists is valid."""
    path: str = None
    dim: int = None
    clients: int = 10
    lam: float = 0.05
    optimizer: str = "mqsgd"
    gamma: float = 0.1
    p: float = None
    alpha_shift: float = None
    compressor: str = IDENTITY
    m: int = None
    pct: float = None
    K: int = 0
    b: float = 50.0
    activation: str = "normalize"
    T: int = 100
    budget: float = None
    seed: int = 42
    output: str = None

    def __post_init__(self):
        validate_config(self)

    def mask_size(self, d):
        """m, resolving a percentage against the feature dimension."""
        if self.m is not None:
            return self.m
        if self.pct is not None:
            return max(1, round(self.pct * d / 100.0))
        return d


_SCHEMA = {
    "dataset": {"path": str, "dim": int, "clients": int, "lambda": (int, float)},
    "optimizer": {"kind": str, "gamma": (int, float), "p": (int, float),
                  "alpha_shift": (int, float)},
    "compressor": {"kind": str, "m": int, "pct": (int, float), "K": int,
                   "b": (int, float), "activation": str},
    "run": {"T": int, "budget": (int, float), "seed": int, "output": str},
}


def _section(tree, name):
    sec = tree.pop(name, {}) or {}
    if not isinstance(sec, dict):
        raise ConfigError(name, "must be a mapping")
    allowed = _SCHEMA[name]
    for key, value in sec.items():
        if key not in allowed:
            raise ConfigError(f"{name}.{key}", "unknown key")
        if not isinstance(value, allowed[key]) or isinstance(value, bool):
            raise ConfigError(f"{name}.{key}", f"expected {allowed[key]}, got {value!r}")
    return sec


def load_config(path):
    """Parses and validates a YAML experiment config, applying defaults."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            tree = yaml.safe_load(fh)
    except OSError as err:
        raise ConfigError("file", str(err)) from None
    except yaml.YAMLError as err:
        raise ConfigError("file", f"invalid YAML: {err}") from None
    if tree is None:
        tree = {}
    if not isinstance(tree, dict):
        raise ConfigError("file", "top level must be a mapping")
    ds = _section(tree, "dataset")
    op = _section(tree, "optimizer")
    cp = _section(tree, "compressor")
    rn = _section(tree, "run")
    if tree:
        raise ConfigError(next(iter(tree)), "unknown section")

    return ExperimentConfig(
        path=ds.get("path"),
        dim=ds.get("dim"),
        clients=ds.get("clients", 10),
        lam=float(ds.get("lambda", 0.05)),
        optimizer=op.get("kind", "mqsgd"),
        gamma=float(op.get("gamma", 0.1)),
        p=op.get("p"),
        alpha_shift=op.get("alpha_shift"),
        compressor=cp.get("kind", IDENTITY),
        m=cp.get("m"),
        pct=cp.get("pct"),
        K=cp.get("K", 0),
        b=float(cp.get("b", 50.0)),
        activation=cp.get("activation", "normalize"),
        T=rn.get("T", 100 if "budget" not in rn else None),
        budget=rn.get("budget"),
        seed=rn.get("seed", 42),
        output=rn.get("output"),
    )


def validate_config(cfg):
    if cfg.path is not None and not os.path.exists(cfg.path):
        raise ConfigError("dataset.path", f"file not found: {cfg.path}")
    if cfg.clients < 1:
        raise ConfigError("dataset.clients", "must be >= 1")
    if cfg.lam < 0:
        raise ConfigError("dataset.lambda", "must be >= 0")
    if cfg.optimizer not in OPTIMIZERS:
        raise ConfigError("optimizer.kind", f"unknown optimizer {cfg.optimizer!r}")
    if cfg.gamma <= 0:
        raise ConfigError("optimizer.gamma", "must be > 0")
    if cfg.p is not None and not 0 < cfg.p <= 1:
        raise ConfigError("optimizer.p", "must lie in (0, 1]")
    if cfg.alpha_shift is not None and not 0 <= cfg.alpha_shift <= 1:
        raise ConfigError("optimizer.alpha_shift", "must lie in [0, 1]")
    if cfg.compressor not in ALL_KINDS:
        raise ConfigError("compressor.kind", f"unknown compressor {cfg.compressor!r}")
    if cfg.m is not None and cfg.pct is not None:
        raise ConfigError("compressor.m", "give either m or pct, not both")
    if cfg.m is not None and cfg.m < 1:
        raise ConfigError("compressor.m", "must be >= 1")
    if cfg.pct is not None and not 0 < cfg.pct <= 100:
        raise ConfigError("compressor.pct", "must lie in (0, 100]")
    if cfg.K < 0:
        raise ConfigError("compressor.K", "must be >= 0")
    if cfg.b <= 1:
        raise ConfigError("compressor.b", "must be > 1")
    if cfg.activation not in ACTIVATIONS:
        raise ConfigError("compressor.activation", f"unknown activation {cfg.activation!r}")
    if cfg.T is None and cfg.budget is None:
        raise ConfigError("run.T", "need T or budget")
    if cfg.T is not None and cfg.T < 0:
        raise ConfigError("run.T", "must be >= 0")
    if cfg.budget is not None and cfg.budget <= 0:
        raise ConfigError("run.budget", "must be > 0")


_REFERENCE_MEMORY = {}


def _reference_key(cfg, data_bytes):
    h = hashlib.sha256()
    h.update(data_bytes)
    h.update(repr((cfg.dim, cfg.clients, cfg.lam, cfg.seed)).encode())
    return h.hexdigest()


def _save_reference(cache_dir, path, ref):
    # write a temp file and rename it, so no reader sees a half-written blob
    os.makedirs(cache_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".npz", dir=cache_dir)
    os.close(fd)
    try:
        np.savez(tmp, x_star=ref[0], f_star=ref[1])
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _cached_reference(cfg, problem, data_bytes, tol=1e-10):
    key = _reference_key(cfg, data_bytes)
    if key in _REFERENCE_MEMORY:
        return _REFERENCE_MEMORY[key]
    cache_dir = os.environ.get(CACHE_ENV)
    path = os.path.join(cache_dir, f"ref_{key}.npz") if cache_dir else None
    if path and os.path.exists(path):
        blob = np.load(path)
        ref = (blob["x_star"], float(blob["f_star"]))
    else:
        ref = reference_minimizer(problem, tol=tol)
        if path:
            _save_reference(cache_dir, path, ref)
    _REFERENCE_MEMORY[key] = ref
    return ref


def _fmt(v):
    if isinstance(v, (int, np.integer)):
        return str(v)
    f = float(v)
    if not math.isfinite(f):  # a diverged row holds inf or nan
        return repr(f)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def trace_to_csv(trace):
    lines = [CSV_HEADER]
    for i in range(trace.rows):
        lines.append(",".join((
            _fmt(trace.t[i]), _fmt(trace.coords_sent_cum[i]), _fmt(trace.f_value[i]),
            _fmt(trace.fdist_ratio[i]), _fmt(trace.grad_norm_sq[i]),
            _fmt(trace.dist_sq_to_opt[i]),
        )))
    return "\n".join(lines) + "\n"


def _write_csv(path, trace):
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(trace_to_csv(trace))


def coords_to_threshold(trace, threshold):
    """Cumulative coordinates at the first iterate with fdist_ratio <=
    threshold, or None if it is never reached."""
    hit = np.nonzero(trace.fdist_ratio <= threshold)[0]
    return float(trace.coords_sent_cum[hit[0]]) if hit.size else None


def summarize(trace):
    summary = {"final_fdist_ratio": float(trace.fdist_ratio[-1]),
               "final_f": float(trace.f_value[-1]),
               "iterations": int(trace.t[-1]),
               "coords_sent": float(trace.coords_sent_cum[-1]),
               "coords_to": {}}
    for thr in SUMMARY_THRESHOLDS:
        summary["coords_to"][thr] = coords_to_threshold(trace, thr)
    return summary


def print_summary(summary, stream=None):
    stream = stream or sys.stdout
    print(f"iterations: {summary['iterations']}", file=stream)
    print(f"coords sent: {_fmt(summary['coords_sent'])}", file=stream)
    print(f"final fdist_ratio: {summary['final_fdist_ratio']:.6e}", file=stream)
    for thr, coords in summary["coords_to"].items():
        shown = _fmt(coords) if coords is not None else "not reached"
        print(f"coords to fdist_ratio {thr:g}: {shown}", file=stream)


def build_problem(cfg):
    """Loads, shards and returns (problem, dataset bytes) for a config."""
    if cfg.path is None:
        raise ConfigError("dataset.path", "required")
    with open(cfg.path, "rb") as fh:
        data_bytes = fh.read()
    dataset = load_libsvm(cfg.path, dim=cfg.dim)
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([cfg.seed, _DATA_STREAM])))
    problem = partition(dataset, cfg.clients, rng, lam=cfg.lam)
    return problem, data_bytes


def run_experiment(cfg, csv_path=None, quiet=False, reference_tol=1e-10):
    """Reference solve (cached), training run, CSV emission, summary."""
    problem, data_bytes = build_problem(cfg)
    return _run_on(cfg, problem, data_bytes, csv_path, quiet, reference_tol)


def _run_on(cfg, problem, data_bytes, csv_path=None, quiet=False, reference_tol=1e-10):
    # run_experiment on a problem already parsed and sharded for cfg
    m = cfg.mask_size(problem.d)
    if m > problem.d:
        raise ConfigError("compressor.m", f"m={m} exceeds dimension {problem.d}")
    reference = _cached_reference(cfg, problem, data_bytes, tol=reference_tol)
    out = csv_path or cfg.output
    try:
        trace = run_training(problem, cfg, reference=reference)
    except DivergenceError as err:
        # the rows up to the divergence are still written
        if out and err.trace is not None:
            _write_csv(out, err.trace)
        raise
    if out:
        _write_csv(out, trace)
    summary = summarize(trace)
    if not quiet:
        print_summary(summary)
    return {"summary": summary, "trace": trace, "csv_path": out}


def feasible_history_sizes(cfg, d, k_values):
    """Splits K values into (feasible, skipped) for the configured
    compressor; banlast needs d > (K+1)m for an ergodic chain."""
    m = cfg.mask_size(d)
    feasible, skipped = [], []
    for K in k_values:
        if K < 0 or (cfg.compressor == BANLAST and d <= (K + 1) * m):
            skipped.append(K)
        else:
            feasible.append(K)
    return feasible, skipped


def sweep_k(cfg, k_values, quiet=False):
    """One training run per feasible K with the shared base seed; returns
    rows of coords-to-threshold with the argmin marked. The dataset is
    parsed and sharded once; K changes neither the shards nor the reference."""
    problem, data_bytes = build_problem(cfg)
    feasible, skipped = feasible_history_sizes(cfg, problem.d, k_values)
    for K in skipped:
        print(f"warning: skipping infeasible K={K}", file=sys.stderr)
    rows = []
    for K in feasible:
        result = _run_on(replace(cfg, K=K, output=None), problem, data_bytes, quiet=True)
        row = {"K": K, "final_fdist_ratio": result["summary"]["final_fdist_ratio"]}
        for thr in SUMMARY_THRESHOLDS:
            row[f"coords_to_{thr:g}"] = result["summary"]["coords_to"][thr]
        rows.append(row)
    target = f"coords_to_{1e-3:g}"
    best = None
    for i, row in enumerate(rows):
        c = row[target]
        if c is not None and (best is None or c < rows[best][target]):
            best = i
    for i, row in enumerate(rows):
        row["best"] = i == best
    if not quiet:
        for row in rows:
            mark = " *" if row["best"] else ""
            print(f"K={row['K']}: coords to 1e-3 = "
                  f"{_fmt(row[target]) if row[target] is not None else 'not reached'}{mark}")
    return rows


def alpha_to_dm(alpha):
    """Integer (d, m) with d/m equal to the grid value."""
    frac = Fraction(str(alpha)).limit_denominator(1000)
    return frac.numerator, frac.denominator


def reproduce_hitting_table(alphas=ALPHA_GRID, trials=10**5, seed=2024,
                            output=None, quiet=False):
    """The alpha-grid table: optimal K, hitting-time formulas, Monte-Carlo
    cross-check, and the zero-intercept linear fit of K* on alpha."""
    rows = []
    for alpha in alphas:
        d, m = alpha_to_dm(alpha)
        k_star = chains.optimal_history_size(alpha)
        formula = chains.expected_hitting_time_banlast(alpha, k_star)
        exact = chains.banlast_hitting_time_exact(alpha, k_star)
        mc_mean, mc_err = chains.monte_carlo_hitting_time(
            BANLAST, d, m=m, K=k_star, trials=trials, seed=seed)
        rows.append({
            "alpha": alpha, "d": d, "m": m, "K_star": k_star,
            "rand": chains.expected_hitting_time_randm(alpha),
            "banlast_formula": formula, "banlast_exact": exact,
            "mc_mean": mc_mean, "mc_stderr": mc_err,
            "formula_vs_mc": abs(formula - mc_mean) / mc_mean,
            "exact_vs_mc": abs(exact - mc_mean) / mc_mean,
        })
    a = np.array([r["alpha"] for r in rows])
    k = np.array([r["K_star"] for r in rows], dtype=np.float64)
    slope = float((a @ k) / (a @ a))
    report = {"rows": rows, "slope": slope}
    if output:
        cols = list(rows[0].keys())
        lines = [",".join(cols)]
        lines += [",".join(_fmt(r[c]) for c in cols) for r in rows]
        lines.append(f"# zero-intercept slope,{_fmt(slope)}")
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    if not quiet:
        for r in rows:
            print(f"alpha={r['alpha']:>5}: K*={r['K_star']:>2} rand={r['rand']:>5.1f} "
                  f"formula={r['banlast_formula']:.4f} exact={r['banlast_exact']:.4f} "
                  f"mc={r['mc_mean']:.4f}+/-{r['mc_stderr']:.4f}")
        print(f"zero-intercept slope: {slope:.4f}")
    return report
