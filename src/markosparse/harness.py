"""Experiment configuration, metric emission, and reproduction recipes.

Configs are YAML trees with four sections (dataset / optimizer / compressor
/ run) that load into one frozen `ExperimentConfig`. The config validates
itself when it is built (every range, e.g. p in (0, 1] and alpha_shift in
[0, 1]), and training reads it directly. Every run writes one CSV with a
fixed schema, the names of TrainTrace's fields

    t,coords_sent_cum,f_value,fdist_ratio,grad_norm_sq,dist_sq_to_opt

and prints a summary of the coordinates needed to reach fixed suboptimality
thresholds. csv_text builds every CSV a command writes (this trace, the
appendix-B table, analyze-chain's curve) in one number format. Paired runs
on one dataset share its parse and its solve: the memo is one record of
the last dataset, its key (the file's content hash, dim, sharding and
lambda), its sharded problem and, once solved, its reference minimizer.
Nothing but the CSV is written to disk. The file is read and hashed on
every run, so an edited file is noticed.
"""

import hashlib
import math
import os
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import chain_analysis as chains
from .compressors import ACTIVATIONS, ALL_KINDS, BANLAST, IDENTITY, KAWASAKI, validate_parameters
from .errors import ConfigError, DivergenceError, InvalidArgumentError
from .objectives import load_libsvm, partition
from .optimizers import OPTIMIZERS, momentum_schedule, reference_minimizer, run_training

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


_NUM = (int, float)
# YAML section -> key -> (ExperimentConfig field, accepted types); the
# field defaults are the only defaults
_SCHEMA = {
    "dataset": {"path": ("path", str), "dim": ("dim", int), "clients": ("clients", int),
                "lambda": ("lam", _NUM)},
    "optimizer": {"kind": ("optimizer", str), "gamma": ("gamma", _NUM), "p": ("p", _NUM),
                  "alpha_shift": ("alpha_shift", _NUM)},
    "compressor": {"kind": ("compressor", str), "m": ("m", int), "pct": ("pct", _NUM),
                   "K": ("K", int), "b": ("b", _NUM), "activation": ("activation", str)},
    "run": {"T": ("T", int), "budget": ("budget", _NUM), "seed": ("seed", int),
            "output": ("output", str)},
}
# stored as float whether the YAML writes 1 or 1.0
_FLOAT_FIELDS = ("lam", "gamma", "b")


def _section(tree, name):
    """The config fields one YAML section sets, checked against _SCHEMA."""
    sec = tree.pop(name, {}) or {}
    if not isinstance(sec, dict):
        raise ConfigError(name, "must be a mapping")
    fields = {}
    for key, value in sec.items():
        if key not in _SCHEMA[name]:
            raise ConfigError(f"{name}.{key}", "unknown key")
        field, types = _SCHEMA[name][key]
        if not isinstance(value, types) or isinstance(value, bool):
            raise ConfigError(f"{name}.{key}", f"expected {types}, got {value!r}")
        fields[field] = float(value) if field in _FLOAT_FIELDS else value
    return fields


def load_config(path):
    """Parses and validates a YAML experiment config; what it does not set
    keeps ExperimentConfig's defaults, except that a budget without T runs
    to the budget alone."""
    import yaml

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
    fields = {}
    for name in _SCHEMA:
        fields.update(_section(tree, name))
    if tree:
        raise ConfigError(next(iter(tree)), "unknown section")
    if "budget" in fields:
        fields.setdefault("T", None)
    return ExperimentConfig(**fields)


def validate_config(cfg):
    if cfg.path is not None and not os.path.exists(cfg.path):
        raise ConfigError("dataset.path", f"file not found: {cfg.path}")
    if cfg.clients < 1:
        raise ConfigError("dataset.clients", "must be >= 1")
    if not 0 <= cfg.lam < math.inf:
        raise ConfigError("dataset.lambda", "must be finite and >= 0")
    if cfg.optimizer not in OPTIMIZERS:
        raise ConfigError("optimizer.kind", f"unknown optimizer {cfg.optimizer!r}")
    if not 0 < cfg.gamma < math.inf:
        raise ConfigError("optimizer.gamma", "must be finite and > 0")
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
    if not cfg.b > 1:
        raise ConfigError("compressor.b", "must be > 1")
    if cfg.activation not in ACTIVATIONS:
        raise ConfigError("compressor.activation", f"unknown activation {cfg.activation!r}")
    if cfg.T is None and cfg.budget is None:
        raise ConfigError("run.T", "need T or budget")
    if cfg.T is not None and cfg.T < 0:
        raise ConfigError("run.T", "must be >= 0")
    if cfg.budget is not None and not cfg.budget > 0:
        raise ConfigError("run.budget", "must be > 0")
    if cfg.budget == math.inf:
        raise ConfigError("run.budget", "must be finite")
    if cfg.seed < 0:
        raise ConfigError("run.seed", "must be >= 0")


# the last dataset only: its "key" (_reference_key), its sharded "problem"
# and, once solved, its "reference"
_MEMO = {}


def _reference_key(cfg, data_bytes):
    h = hashlib.sha256()
    h.update(data_bytes)
    h.update(repr((cfg.dim, cfg.clients, cfg.lam, cfg.seed)).encode())
    return h.hexdigest()


def _fmt(v):
    if isinstance(v, (int, np.integer)):
        return str(v)
    f = float(v)
    # inf and nan (a diverged row) are not integers, so they keep their repr
    if f.is_integer() and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def csv_text(header, columns, footer=()):
    """Every command's CSV: the header line, one row per entry of the columns,
    each formatted a column at a time by _fmt, then the footer lines."""
    cells = [list(map(_fmt, np.asarray(col).tolist())) for col in columns]
    return "\n".join([header, *map(",".join, zip(*cells)), *footer]) + "\n"


def trace_to_csv(trace):
    # TrainTrace's fields carry the CSV's column names
    return csv_text(CSV_HEADER, [getattr(trace, name) for name in CSV_HEADER.split(",")])


def _check_output(path):
    # raises, before the work that fills path, the error its write would
    # raise at the end for a directory or a path under a regular file; such
    # an open creates nothing, and write_text makes the parents at the write
    parent = os.path.dirname(os.path.abspath(path))
    while not os.path.exists(parent):
        parent = os.path.dirname(parent)
    if os.path.isdir(path) or not os.path.isdir(parent):
        with open(path, "w", encoding="utf-8"):
            pass


def write_text(path, text):
    """Writes text as UTF-8 with \\n line ends, creating missing parent
    directories; every command's CSV is written here."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


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


def print_summary(summary):
    print(f"iterations: {summary['iterations']}")
    print(f"coords sent: {_fmt(summary['coords_sent'])}")
    print(f"final fdist_ratio: {summary['final_fdist_ratio']:.6e}")
    for thr, coords in summary["coords_to"].items():
        shown = _fmt(coords) if coords is not None else "not reached"
        print(f"coords to fdist_ratio {thr:g}: {shown}")


def build_problem(cfg):
    """Loads, shards and returns the problem of a config.

    The memo's key (_reference_key) hashes the file's content and (dim,
    clients, lam, seed); it names both the problem and its reference
    solution. The last problem built is kept, so a run on the same data and
    sharding skips the parse and the partition; a build that fails keeps
    the previous one. The returned problem is therefore shared: treat it
    and its shards as read-only."""
    if cfg.path is None:
        raise ConfigError("dataset.path", "required")
    with open(cfg.path, "rb") as fh:
        data_bytes = fh.read()
    key = _reference_key(cfg, data_bytes)
    if _MEMO.get("key") != key:
        dataset = load_libsvm(cfg.path, dim=cfg.dim)
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence([cfg.seed, _DATA_STREAM])))
        problem = partition(dataset, cfg.clients, rng, lam=cfg.lam)
        _MEMO.clear()
        _MEMO.update(key=key, problem=problem)
    return _MEMO["problem"]


def run_experiment(cfg, csv_path=None, quiet=False):
    """Reference solve (cached), training run, CSV emission, summary."""
    return _run_on(cfg, build_problem(cfg), csv_path, quiet)


def _check_compressor(cfg, d, K):
    # cfg's compressor at history size K on d features, its workers' history
    # and amqsgd's schedule, checked before any reference solve or training
    momentum_schedule(cfg, cfg.lam)
    m = cfg.mask_size(d)
    if m > d:
        raise ConfigError("compressor.m", f"m={m} exceeds dimension {d}")
    validate_parameters(cfg.compressor, d, m, K, cfg.b, cfg.activation)
    if cfg.compressor in (BANLAST, KAWASAKI):
        chains._check_entries(K * cfg.clients * m, f"a compressor history of {K} masks x "
                              f"{cfg.clients} workers x m={m}")


def _run_on(cfg, problem, csv_path=None, quiet=False):
    # run_experiment on the memo's problem, built for cfg by build_problem;
    # its reference is solved on first use and kept in the memo (a solve
    # that raises keeps nothing)
    _check_compressor(cfg, problem.d, cfg.K)
    out = csv_path or cfg.output
    if out:
        _check_output(out)
    if "reference" not in _MEMO:
        _MEMO["reference"] = reference_minimizer(problem)
    try:
        trace = run_training(problem, cfg, reference=_MEMO["reference"])
    except DivergenceError as err:
        # the rows up to the divergence are still written
        if out:
            write_text(out, trace_to_csv(err.trace))
        raise
    if out:
        write_text(out, trace_to_csv(trace))
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


def sweep_k(cfg, k_values):
    """One training run per feasible K with the shared base seed; returns
    rows of coords-to-threshold with the argmin marked. Every feasible K's
    compressor parameters and history size are checked before the first
    run, so a bad K, or no feasible K at all, fails before any training.
    The dataset is parsed and sharded once; K changes neither the shards
    nor the reference."""
    problem = build_problem(cfg)
    feasible, skipped = feasible_history_sizes(cfg, problem.d, k_values)
    for K in skipped:
        print(f"warning: skipping infeasible K={K}", file=sys.stderr)
    if not feasible:
        raise InvalidArgumentError("no feasible K to sweep")
    for K in feasible:
        _check_compressor(cfg, problem.d, K)
    rows = []
    for K in feasible:
        result = _run_on(replace(cfg, K=K, output=None), problem, quiet=True)
        row = {"K": K, "final_fdist_ratio": result["summary"]["final_fdist_ratio"]}
        for thr in SUMMARY_THRESHOLDS:
            row[f"coords_to_{thr:g}"] = result["summary"]["coords_to"][thr]
        rows.append(row)
    target = f"coords_to_{1e-3:g}"
    low = min((row[target] for row in rows if row[target] is not None), default=None)
    # the first row at the minimum is marked; a tie is named on its own line
    tied = [row for row in rows if low is not None and row[target] == low]
    for row in rows:
        row["best"] = bool(tied) and row is tied[0]
        mark = " *" if row["best"] else ""
        print(f"K={row['K']}: coords to 1e-3 = "
              f"{_fmt(row[target]) if row[target] is not None else 'not reached'}{mark}")
    if len(tied) > 1:
        print(f"tied minimum: K={', '.join(str(row['K']) for row in tied)} at {_fmt(low)} coords")
    return rows


def alpha_to_dm(alpha):
    """Integer (d, m) with d/m equal to the grid value."""
    frac = Fraction(str(alpha)).limit_denominator(1000)
    return frac.numerator, frac.denominator


def reproduce_hitting_table(trials=10**5, seed=2024, output=None):
    """The ALPHA_GRID table: optimal K, hitting-time formulas, Monte-Carlo
    cross-check, and the zero-intercept linear fit of K* on alpha."""
    if output:
        _check_output(output)
    rows = []
    for alpha in ALPHA_GRID:
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
        write_text(output, csv_text(",".join(rows[0]), [[r[c] for r in rows] for c in rows[0]],
                                    footer=[f"# zero-intercept slope,{_fmt(slope)}"]))
    for r in rows:
        print(f"alpha={r['alpha']:>5}: K*={r['K_star']:>2} rand={r['rand']:>5.1f} "
              f"formula={r['banlast_formula']:.4f} exact={r['banlast_exact']:.4f} "
              f"mc={r['mc_mean']:.4f}+/-{r['mc_stderr']:.4f}")
    print(f"zero-intercept slope: {slope:.4f}")
    return report
