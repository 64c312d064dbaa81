"""The three benchmark workloads: their inputs, operations and output checks.

A workload is built by ``build(name, seed, smoke, root, tmp)``, which imports
the package and prepares every input; that is the set-up the benchmark times.
It returns a list of ``Op``s. Each op makes one call into the package's public
API (``call``) and checks what came back (``check``); ``facts`` extracts the
numbers the end-to-end metrics are computed from.

Nothing here imports ``markosparse`` at module level, so that importing the
package is part of the measured set-up.
"""

import csv
from dataclasses import dataclass, field, replace

WORKLOADS = ("train", "hitting", "chain")
# the calibration kernel whose speed tracks each workload's
CALIBRATION = {"train": "interpreter", "hitting": "interpreter", "chain": "blas"}


@dataclass
class Op:
    label: str
    call: object                # () -> output
    check: object               # output -> error message or None
    facts: object = None        # output -> dict of numbers for the metrics
    tags: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Sizes:
    T: int
    diana_final_ratio: float    # diana's last fdist_ratio must be at most this
    grid_trials: int
    criterion3_trials: int
    kawasaki_trials: int
    chains: tuple


FULL = Sizes(
    T=200, diana_final_ratio=1e-8,
    grid_trials=300, criterion3_trials=50_000, kawasaki_trials=20_000,
    chains=(
        ("kawasaki", dict(d=6, m=1, K=4)),
        ("banlast", dict(d=10, m=1, K=3)),
        ("kawasaki", dict(d=6, m=2, K=2, joint_law=True)),
        ("kawasaki", dict(d=6, m=1, K=3, activation="project", b=2.0)),
        ("rand", dict(d=5, m=2, K=2)),
    ),
)

# plumbing check only: every op kind runs, at a size that takes seconds;
# 60 rounds are too few for diana's 1e-8, so its final target is 1e-3 here
SMOKE = Sizes(
    T=60, diana_final_ratio=1e-3,
    grid_trials=30, criterion3_trials=500, kawasaki_trials=200,
    chains=(
        ("kawasaki", dict(d=4, m=1, K=2)),
        ("banlast", dict(d=6, m=1, K=2)),
        ("kawasaki", dict(d=4, m=2, K=1, joint_law=True)),
        ("kawasaki", dict(d=4, m=1, K=2, activation="project", b=2.0)),
        ("rand", dict(d=4, m=2, K=1)),
    ),
)

DATASET = "data/mushrooms_synth.libsvm"

# (optimizer, compressor, extra settings); identity is the uncompressed baseline
TRAIN_RUNS = (
    ("mqsgd", "rand", {}),
    ("mqsgd", "banlast", dict(K=7)),
    ("mqsgd", "kawasaki", dict(K=7, b=50.0)),
    ("diana", "banlast", dict(K=7)),
    ("amqsgd", "kawasaki", dict(K=7, p=0.5)),
    ("mqsgd", "natural", {}),
    ("mqsgd", "identity", {}),
)
CONVERGED = 1e-3


def build(name, seed, smoke, root, tmp):
    sizes = SMOKE if smoke else FULL
    return {"train": _train, "hitting": _hitting, "chain": _chain}[name](seed, sizes, root, tmp)


# -- train ------------------------------------------------------------------

def _train(seed, sizes, root, tmp):
    from markosparse import harness

    base = harness.ExperimentConfig(
        path=str(root / DATASET), dim=112, clients=10, lam=0.05,
        gamma=0.855, pct=10, T=0, seed=seed)
    # parse, shard and the cold reference solve; the runs below reuse it
    harness.run_experiment(base, quiet=True)
    ops = []
    for optimizer, compressor, extra in TRAIN_RUNS:
        cfg = replace(base, optimizer=optimizer, compressor=compressor, T=sizes.T, **extra)
        label = f"{optimizer}x{compressor}"
        path = str(tmp / f"{label}.csv")
        final = sizes.diana_final_ratio if optimizer == "diana" else None
        ops.append(Op(
            label,
            call=lambda cfg=cfg, path=path: harness.run_experiment(cfg, csv_path=path, quiet=True),
            check=lambda out, path=path, final=final: _check_csv(
                path, harness.CSV_HEADER, sizes.T, final),
            facts=_train_facts,
            tags={"compressed": compressor != "identity"},
        ))
    return ops


def _check_csv(path, header, T, final_ratio):
    with open(path, newline="", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != header:
        return f"{path}: header is {lines[:1]!r}"
    if len(lines) != T + 2:
        return f"{path}: {len(lines) - 1} rows, expected {T + 1}"
    ratios = [float(row["fdist_ratio"]) for row in csv.DictReader(lines)]
    if not min(ratios) <= CONVERGED:
        return f"{path}: fdist_ratio never reaches {CONVERGED:g} (min {min(ratios):.3e})"
    if final_ratio is not None and not ratios[-1] <= final_ratio:
        return f"{path}: final fdist_ratio {ratios[-1]:.3e} > {final_ratio:g}"
    return None


def _train_facts(out):
    trace = out["trace"]
    wall = trace.wallclock
    return {
        "rounds": int(trace.t[-1]),
        "loop_s": float(wall[-1]),
        "step_s": [float(b - a) for a, b in zip(wall[:-1], wall[1:])],
        "coords_to": out["summary"]["coords_to"][CONVERGED],
        "coords_sent": float(trace.coords_sent_cum[-1]),
    }


# -- hitting ----------------------------------------------------------------

def _hitting(seed, sizes, root, tmp):
    from markosparse import chain_analysis as chains
    from markosparse import harness

    calls = []
    for alpha in harness.ALPHA_GRID:
        d, m = harness.alpha_to_dm(alpha)
        calls.append(("banlast", d, m, chains.optimal_history_size(alpha), 50.0, sizes.grid_trials))
    calls.append(("banlast", 10, 1, 7, 50.0, sizes.criterion3_trials))
    calls.append(("kawasaki", 10, 1, 3, 50.0, sizes.kawasaki_trials))
    ops = []
    for kind, d, m, K, b, trials in calls:
        if kind == "banlast":
            exact = chains.banlast_hitting_time_exact(d / m, K)
            formula = chains.expected_hitting_time_banlast(d / m, K)
        else:
            exact = formula = None
        ops.append(Op(
            f"{kind}_d{d}_m{m}_K{K}",
            call=lambda kind=kind, d=d, m=m, K=K, b=b, trials=trials: chains.monte_carlo_hitting_time(
                kind, d, m=m, K=K, b=b, trials=trials, seed=seed),
            check=lambda out, d=d, m=m, exact=exact: _check_hitting(out, d, m, exact),
            facts=lambda out, trials=trials, formula=formula: {
                "draws": out[0] * trials,
                "formula_gap": None if formula is None else abs(formula - out[0]) / out[0],
            },
            tags={"narrow": m == 1},
        ))
    return ops


def _check_hitting(out, d, m, exact):
    mean, stderr = out
    if exact is not None:
        # the simulated fresh-start process has this exact mean
        if abs(mean - exact) > 5.0 * stderr:
            return f"MC mean {mean:.4f} +/- {stderr:.4f} is over 5 stderr from exact {exact:.4f}"
    elif not 1.0 <= mean <= d / m:
        return f"MC mean {mean:.4f} outside [1, {d / m:g}]"
    return None


# -- chain ------------------------------------------------------------------

def _chain(seed, sizes, root, tmp):
    # exact computation: the seed selects nothing here
    from markosparse import chain_analysis as chains

    def analyze(kind, kw):
        # the sequence of calls analyze-chain makes
        chain = chains.build_transition_matrix(kind, **kw)
        result = chains.stationary_distribution(chain)
        marginal = chains.newest_mask_marginal(chain, result.pi)
        tau = chains.mixing_time(chain, 0.05)
        return chain, result, marginal, tau

    ops = []
    for kind, kw in sizes.chains:
        label = kind + "".join(f"_{k}{v}" for k, v in kw.items())
        ops.append(Op(
            label,
            call=lambda kind=kind, kw=kw: analyze(kind, kw),
            check=_check_chain,
            facts=lambda out: {"states": out[0].n_states},
        ))
    return ops


def _check_chain(out):
    chain, result, marginal, tau = out
    if abs(float(result.pi.sum()) - 1.0) > 1e-9:
        return f"stationary law sums to {float(result.pi.sum())!r}"
    gap = max(abs(float(v) - chain.m / chain.d) for v in marginal)
    if gap > 1e-9:
        return f"newest-mask marginal is {gap:.3e} from m/d"
    if not tau >= 1:
        return f"mixing time {tau}"
    return None

