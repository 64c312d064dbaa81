"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible with -s, or in the failure
report) and enforces a wall-clock budget.  Failures accumulate within a
criterion so the line names every violated sub-check instead of stopping at
the first one.  JIT warm-up happens once in a session fixture so the budgets
measure steady-state runtime, not compiler latency.
"""

import statistics
import time

import numpy as np
import pytest

from markosparse.chain_analysis import (
    build_transition_matrix,
    deviation_curve,
    expected_hitting_time_banlast,
    expected_hitting_time_randm,
    monte_carlo_hitting_time,
    newest_mask_marginal,
    optimal_history_size,
    rho_bound_banlast,
    rho_bound_kawasaki_normalize,
    stationary_distribution,
)
from markosparse.compressors import Compressor
from markosparse.errors import InvalidArgumentError
from markosparse.harness import ALPHA_GRID, ExperimentConfig, run_experiment
from markosparse.objectives import (
    estimate_constants,
    heterogeneous_problem,
    loss_and_gradient,
    synthetic_binary_dataset,
)
from markosparse.optimizers import (
    ServerState,
    amqsgd_params,
    make_workers,
    reference_minimizer,
    run_training,
    training_round,
)

BANLAST_CHAINS = [(3, 1, 1), (4, 1, 1), (5, 1, 2), (5, 2, 1)]
KAWASAKI_CHAINS = [(3, 1, 1, 2), (4, 1, 1, 5), (4, 1, 2, 2)]


@pytest.fixture(scope="session", autouse=True)
def _warm_kernels():
    """Compile the jit kernels once, outside any timed region."""
    c = Compressor("banlast", 6, m=1, K=1, seed=0)
    c.compress(np.ones(6))
    c = Compressor("kawasaki", 6, m=1, K=1, b=2.0, seed=0)
    c.compress(np.ones(6))
    monte_carlo_hitting_time("banlast", d=6, m=1, K=1, trials=10, seed=0)


def _finish(n, label, failures, t0, limit=None):
    elapsed = time.perf_counter() - t0
    if limit is not None and elapsed >= limit:
        failures.append(f"runtime {elapsed:.2f}s exceeds {limit}s budget")
    status = "FAIL" if failures else "PASS"
    print(f"criterion {n} [{label}]: {status} ({elapsed:.2f}s)")
    for item in failures:
        print(f"  - {item}")
    assert not failures, f"criterion {n}: " + "; ".join(failures)


def test_criterion_1_stationarity():
    t0 = time.perf_counter()
    failures = []
    chains = [("banlast", d, m, K, None) for d, m, K in BANLAST_CHAINS]
    chains += [("kawasaki", d, m, K, b) for d, m, K, b in KAWASAKI_CHAINS]
    for kind, d, m, K, b in chains:
        tag = f"{kind}{(d, m, K) if b is None else (d, m, K, b)}"
        chain = build_transition_matrix(kind, d, m=m, K=K,
                                        **({} if b is None else {"b": b}))
        result = stationary_distribution(chain)
        pi_rec = result.pi[result.recurrent]
        uni_err = np.abs(pi_rec - 1.0 / len(pi_rec)).max()
        if uni_err > 1e-10:
            failures.append(f"{tag}: stationary not uniform, max dev {uni_err:.3e}")
        marg_err = np.abs(newest_mask_marginal(chain, result.pi) - m / d).max()
        if marg_err > 1e-10:
            failures.append(f"{tag}: newest-mask marginal off m/d by {marg_err:.3e}")
    _finish(1, "stationarity", failures, t0, limit=5.0)


def test_criterion_2_ergodicity_bounds():
    t0 = time.perf_counter()
    failures = []
    checked = 0
    for d, m, K in BANLAST_CHAINS:
        try:
            bound = rho_bound_banlast(d, m, K)
        except InvalidArgumentError:
            continue  # outside the formula's validity regime
        chain = build_transition_matrix("banlast", d, m=m, K=K)
        devs = deviation_curve(chain, t_max=200)
        envelope = bound.C * bound.rho ** np.arange(201)
        if not np.all(devs <= envelope + 1e-12):
            worst = int(np.argmax(devs - envelope))
            failures.append(f"banlast{(d, m, K)}: deviation exceeds C*rho^t at t={worst}")
        checked += 1
    for d, m, K, b in KAWASAKI_CHAINS:
        try:
            bound = rho_bound_kawasaki_normalize(d, m, K, b)
        except InvalidArgumentError:
            continue
        chain = build_transition_matrix("kawasaki", d, m=m, K=K, b=b)
        devs = deviation_curve(chain, t_max=200)
        envelope = bound.C * bound.rho ** np.arange(201)
        if not np.all(devs <= envelope + 1e-12):
            worst = int(np.argmax(devs - envelope))
            failures.append(f"kawasaki{(d, m, K, b)}: deviation exceeds C*rho^t at t={worst}")
        checked += 1
    if checked == 0:
        failures.append("no chain fell inside any bound's validity regime")
    _finish(2, f"ergodicity bounds ({checked} chains in regime)", failures, t0, limit=5.0)


def test_criterion_3_hitting_times():
    t0 = time.perf_counter()
    failures = []
    if expected_hitting_time_randm(10) != 10.0:
        failures.append(f"randm(10) = {expected_hitting_time_randm(10)!r}, want exactly 10")
    formula = expected_hitting_time_banlast(10, 7)
    if not 3.3 <= formula <= 3.5:
        failures.append(f"banlast formula(10,7) = {formula:.4f} outside [3.3, 3.5]")
    mc, stderr = monte_carlo_hitting_time("banlast", d=10, m=1, K=7,
                                          trials=10**6, seed=5)
    rel = abs(formula - mc) / mc
    if rel > 0.01:
        failures.append(
            f"formula {formula:.4f} vs 1e6-trial MC {mc:.4f} (stderr {stderr:.4f}): "
            f"relative gap {rel:.1%} exceeds 1%")
    alphas = np.array(ALPHA_GRID)
    k_star = np.array([optimal_history_size(a) for a in ALPHA_GRID], dtype=float)
    slope = float(alphas @ k_star / (alphas @ alphas))
    if not 0.6 <= slope <= 0.85:
        failures.append(f"zero-intercept K*(alpha) slope {slope:.4f} outside [0.6, 0.85]")
    _finish(3, "hitting times", failures, t0, limit=60.0)


def test_criterion_4_time_average_unbiasedness():
    t0 = time.perf_counter()
    failures = []
    steps = 10**5
    x = np.linspace(1.0, 2.0, 10) * np.where(np.arange(10) % 2, -1.0, 1.0)
    for kind, kwargs in (("banlast", {}), ("kawasaki", {"b": 50.0})):
        c = Compressor(kind, 10, m=1, K=3, seed=1, **kwargs)
        acc = np.zeros(10)
        for _ in range(steps):
            v, _ = c.compress(x)
            acc += v
        rel = np.abs(acc / steps - x) / np.abs(x)
        if rel.max() > 0.01:
            failures.append(f"{kind}: worst componentwise error {rel.max():.2%} over "
                            f"{steps} steps exceeds 1%")
    _finish(4, "time-average unbiasedness", failures, t0, limit=10.0)


def test_criterion_5_optimizer_correctness(small_problem):
    t0 = time.perf_counter()
    failures = []
    prob = small_problem

    gamma = 0.37
    trace = run_training(prob, ExperimentConfig(optimizer="mqsgd", gamma=gamma,
                                                compressor="identity", T=50, seed=0))
    x = np.zeros(prob.d)
    f_vals = []
    for _ in range(51):
        f_vals.append(prob.full_loss_grad(x)[0])
        agg = np.zeros(prob.d)
        for i in range(len(prob.shards)):
            agg += prob.shard_loss_grad(x, i)[1]
        agg /= len(prob.shards)
        x = x - gamma * agg
    if not np.array_equal(trace.f_value, np.array(f_vals)):
        worst = np.abs(trace.f_value - np.array(f_vals)).max()
        failures.append(f"identity-mqsgd differs from gradient descent, max gap {worst:.3e}")

    ds = synthetic_binary_dataset(30, 7, 3, seed=4)
    rng = np.random.default_rng(8)
    worst_rel = 0.0
    for _ in range(100):
        w = rng.standard_normal(7)
        v = rng.standard_normal(7)
        v /= np.linalg.norm(v)
        _, g = loss_and_gradient(w, ds, 0.05)
        h = 1e-6
        fp, _ = loss_and_gradient(w + h * v, ds, 0.05)
        fm, _ = loss_and_gradient(w - h * v, ds, 0.05)
        directional = (fp - fm) / (2 * h)
        worst_rel = max(worst_rel, abs(directional - float(g @ v))
                        / max(abs(directional), 1e-10))
    if worst_rel > 1e-6:
        failures.append(f"finite-difference gradient check: worst rel err {worst_rel:.3e}")

    params = amqsgd_params(mu=prob.mu, gamma=0.2, p=0.6)
    workers = make_workers(prob, ExperimentConfig(compressor="rand", m=2, seed=1))
    server = ServerState(np.zeros(prob.d), np.zeros(prob.d))
    worst_id = 0.0
    for _ in range(60):
        x_old, xf_old = server.x.copy(), server.x_f.copy()
        server, _ = training_round(prob, server, workers, params.gamma, momentum=params)
        xg = server.x_g
        lhs = (params.eta * xg + (params.p - params.eta) * xf_old
               + (1 - params.p) * (1 - params.beta) * x_old
               + (1 - params.p) * params.beta * xg)
        rhs = params.beta * xg + (1 - params.beta) * x_old
        worst_id = max(worst_id, float(np.abs(lhs - rhs).max()))
    if worst_id >= 1e-10:
        failures.append(f"momentum-coupling identity violated by {worst_id:.3e}")

    for mu, g, p in [(1.0, 2 / 3, 1.0), (0.1, 0.5, 0.3), (2.0, 0.05, 0.8)]:
        pr = amqsgd_params(mu=mu, gamma=g, p=p)
        if abs(pr.beta * pr.eta - p) > 1e-12:
            failures.append(f"beta*eta != p for (mu={mu}, gamma={g}, p={p})")
    _finish(5, "optimizer correctness", failures, t0, limit=30.0)


def test_criterion_6_markovian_vs_rand_coordinates(mushrooms_path):
    t0 = time.perf_counter()
    failures = []
    # gamma = 1/L for this split, shared by all three compressors; K=7 is
    # optimal_history_size(d/m) for d=112, m=11
    base = dict(path=str(mushrooms_path), dim=112, clients=10, lam=0.05,
                optimizer="mqsgd", gamma=0.855, pct=10.0, T=200)
    variants = {"rand": {"compressor": "rand"},
                "banlast": {"compressor": "banlast", "K": 7},
                "kawasaki": {"compressor": "kawasaki", "K": 7, "b": 50.0}}
    coords = {name: [] for name in variants}
    for seed in range(42, 47):
        for name, extra in variants.items():
            cfg = ExperimentConfig(seed=seed, **base, **extra)
            out = run_experiment(cfg, quiet=True)
            c = out["summary"]["coords_to"][1e-3]
            if c is None:
                failures.append(f"{name} seed {seed}: never reached fdist 1e-3")
            else:
                coords[name].append(c)
    if not failures:
        med = {name: statistics.median(vals) for name, vals in coords.items()}
        for name in ("banlast", "kawasaki"):
            ratio = med[name] / med["rand"]
            if ratio > 1.05:
                failures.append(f"{name}: median coords {med[name]:.0f} is "
                                f"{ratio:.3f}x rand's {med['rand']:.0f} (> 1.05)")
    _finish(6, "markovian vs rand coordinate budget", failures, t0, limit=300.0)


def test_criterion_7_neighborhood_vs_variance_reduction():
    t0 = time.perf_counter()
    failures = []
    prob = heterogeneous_problem(n=10, d=20, rows_per_shard=50, shift=1.0,
                                 lam=0.1, seed=7)
    prob = estimate_constants(prob)
    gamma = 1.0 / prob.L_global
    ref = reference_minimizer(prob)
    mq = run_training(prob, ExperimentConfig(optimizer="mqsgd", gamma=gamma,
                                             compressor="rand", m=2, T=1000, seed=0),
                      reference=ref)
    mq_floor = float(np.nanmin(mq.fdist_ratio))
    if mq_floor <= 1e-6:
        failures.append(f"mqsgd did not stall: reached fdist {mq_floor:.3e}")
    # 2x the plain budget, well under the allowed 10x
    di = run_training(prob, ExperimentConfig(optimizer="diana", gamma=gamma,
                                             compressor="rand", m=2, T=2000, seed=0),
                      reference=ref)
    di_floor = float(np.nanmin(di.fdist_ratio))
    if di_floor > 1e-6:
        failures.append(f"diana stalled at fdist {di_floor:.3e} > 1e-6")
    if not failures:
        print(f"  mqsgd floor {mq_floor:.3e}, diana floor {di_floor:.3e}")
    _finish(7, "noise floor vs variance reduction", failures, t0, limit=120.0)


def test_criterion_8_byte_identical_reruns(tmp_path, mushrooms_path):
    t0 = time.perf_counter()
    failures = []
    configs = {
        "banlast-mqsgd": ExperimentConfig(
            path=str(mushrooms_path), dim=112, clients=10, lam=0.05,
            optimizer="mqsgd", gamma=0.855, compressor="banlast", pct=10.0,
            K=7, T=30, seed=123),
        "rand-diana": ExperimentConfig(
            path=str(mushrooms_path), dim=112, clients=10, lam=0.05,
            optimizer="diana", gamma=0.855, compressor="rand", pct=10.0,
            T=25, seed=9),
    }
    for name, cfg in configs.items():
        paths = [tmp_path / f"{name}-{i}.csv" for i in (0, 1)]
        for p in paths:
            run_experiment(cfg, csv_path=str(p), quiet=True)
        if paths[0].read_bytes() != paths[1].read_bytes():
            failures.append(f"{name}: re-run produced different CSV bytes")
    _finish(8, "byte-identical reruns", failures, t0)
