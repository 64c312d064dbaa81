"""Optimizer steps, parameter schedules and the training loop."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from markosparse.errors import ConfigError, DivergenceError, InvalidArgumentError
from markosparse.harness import ExperimentConfig
from markosparse.objectives import QuadraticProblem, heterogeneous_problem
from markosparse.optimizers import (
    ServerState,
    amqsgd_params,
    make_workers,
    reference_minimizer,
    run_training,
    theory_momentum_p,
    theory_step_size,
    training_round,
)
from markosparse import IDENTITY, RAND


def test_mqsgd_with_identity_is_gradient_descent_bitwise(small_problem):
    prob = small_problem
    gamma = 0.37
    cfg = ExperimentConfig(optimizer="mqsgd", gamma=gamma, compressor=IDENTITY, T=50, seed=0)
    trace = run_training(prob, cfg)

    x = np.zeros(prob.d)
    f_vals = []
    for _ in range(51):
        f_vals.append(prob.full_loss_grad(x)[0])
        agg = np.zeros(prob.d)
        for i in range(len(prob.shards)):
            agg += prob.shard_loss_grad(x, i)[1]
        agg /= len(prob.shards)
        x = x - gamma * agg
    # bit-for-bit: same accumulation order, same float ops
    np.testing.assert_array_equal(trace.f_value, np.array(f_vals))


def test_amqsgd_params_worked_example():
    p = amqsgd_params(mu=1.0, gamma=2.0 / 3.0, p=1.0)
    assert p.beta == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert p.eta == pytest.approx(1.5, abs=1e-15)
    assert p.theta == pytest.approx(0.6, abs=1e-15)


@given(st.floats(0.05, 10.0), st.floats(1e-4, 0.5), st.floats(0.05, 1.0))
def test_amqsgd_beta_eta_product_is_p(mu, gamma, p):
    try:
        params = amqsgd_params(mu, gamma, p)
    except InvalidArgumentError:
        return
    assert params.beta * params.eta == pytest.approx(params.p, abs=1e-12)


def test_amqsgd_rejects_bad_regimes():
    with pytest.raises(InvalidArgumentError):
        amqsgd_params(mu=0.0, gamma=0.1)
    with pytest.raises(InvalidArgumentError):
        amqsgd_params(mu=1.0, gamma=0.1, p=1.5)
    with pytest.raises(InvalidArgumentError):
        amqsgd_params(mu=1.0, gamma=10.0, p=1.0)  # p/eta >= 1


def test_amqsgd_momentum_coupling_identity(small_problem):
    # eta x_g + (p-eta) x_f + (1-p)(1-beta) x + (1-p) beta x_g
    # must equal beta x_g + (1-beta) x at every iterate
    prob = small_problem
    params = amqsgd_params(mu=prob.mu, gamma=0.2, p=0.6)
    workers = make_workers(prob, ExperimentConfig(compressor=RAND, m=2, seed=1))
    server = ServerState(np.zeros(prob.d), np.zeros(prob.d))
    for _ in range(60):
        x_old, xf_old = server.x.copy(), server.x_f.copy()
        server, _ = training_round(prob, server, workers, params.gamma, momentum=params)
        xg = server.x_g
        lhs = (params.eta * xg + (params.p - params.eta) * xf_old
               + (1 - params.p) * (1 - params.beta) * x_old
               + (1 - params.p) * params.beta * xg)
        rhs = params.beta * xg + (1 - params.beta) * x_old
        # identity reduces to (eta - p beta) x_g = (eta - p) x_f + p(1-beta) x
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_amqsgd_with_identity_reduces_suboptimality(small_problem):
    prob = small_problem
    cfg = ExperimentConfig(optimizer="amqsgd", gamma=0.2, compressor=IDENTITY, T=300, seed=0)
    trace = run_training(prob, cfg, reference=reference_minimizer(prob))
    assert trace.fdist_ratio[-1] < 1e-6


def test_diana_converges_to_the_exact_optimum():
    centers = np.random.default_rng(0).standard_normal((5, 6))
    prob = QuadraticProblem(centers)
    ref = reference_minimizer(prob)
    np.testing.assert_allclose(ref[0], centers.mean(axis=0), atol=1e-9)
    cfg = ExperimentConfig(optimizer="diana", gamma=0.5, compressor=RAND, m=2, T=800, seed=2)
    trace = run_training(prob, cfg, reference=ref)
    assert trace.dist_sq_to_opt[-1] < 1e-12


def test_diana_shift_update_rule():
    centers = np.array([[2.0, 0.0], [0.0, 2.0]])
    prob = QuadraticProblem(centers)
    workers = make_workers(prob, ExperimentConfig(optimizer="diana", compressor=IDENTITY,
                                                  seed=0))
    server = ServerState(np.zeros(2))
    server, _ = training_round(prob, server, workers, gamma=0.1, alpha_shift=1.0)
    # with identity compression and alpha 1 the shift equals last gradient
    np.testing.assert_allclose(workers[0].shift, np.zeros(2) - centers[0], atol=1e-15)
    with pytest.raises(ConfigError):
        ExperimentConfig(optimizer="diana", alpha_shift=1.5)


def test_diana_with_zero_alpha_matches_mqsgd(small_problem):
    prob = small_problem
    a = run_training(prob, ExperimentConfig(optimizer="diana", gamma=0.3, compressor=RAND,
                                            m=2, T=40, seed=3, alpha_shift=0.0))
    b = run_training(prob, ExperimentConfig(optimizer="mqsgd", gamma=0.3, compressor=RAND,
                                            m=2, T=40, seed=3))
    np.testing.assert_array_equal(a.f_value, b.f_value)


def test_theory_step_size_formulas():
    v = theory_step_size("nonconvex", L=2.0, delta_sq=3.0, d=10, m=2, tau=4)
    assert v == pytest.approx(4.0 / (100.0 * 2.0 * 4.0 * 4.0))
    v = theory_step_size("strongly-convex-acc", L=2.0, mu=0.5, d=9, m=4, tau=2)
    assert v == pytest.approx(0.5 ** (1 / 3) * 2.0 / (2 * 2.0 ** (4 / 3) * 3.0))
    with pytest.raises(InvalidArgumentError):
        theory_step_size("convex-ish", L=1.0)
    with pytest.raises(InvalidArgumentError):
        theory_step_size("strongly-convex-acc", L=1.0)


def test_theory_momentum_p_caps_at_one():
    assert theory_momentum_p(d=2, m=2, delta_sq=0.0, tau=1) == pytest.approx(1 / 13)
    assert theory_momentum_p(d=1, m=1, delta_sq=0.0, tau=1) < 1.0
    big_m = theory_momentum_p(d=1, m=100, delta_sq=0.0, tau=1)
    assert big_m == 1.0


def test_reference_minimizer_solves_quadratic_exactly():
    centers = np.array([[1.0, -2.0, 0.5], [3.0, 0.0, -1.5]])
    prob = QuadraticProblem(centers)
    x, f = reference_minimizer(prob)
    np.testing.assert_allclose(x, centers.mean(axis=0), atol=1e-12)
    assert f == pytest.approx(prob.full_loss_grad(x)[0])


def test_reference_minimizer_reaches_gradient_tolerance(small_problem):
    x, f = reference_minimizer(small_problem, tol=1e-10)
    _, g = small_problem.full_loss_grad(x)
    assert float(np.linalg.norm(g)) <= 1e-10


def test_run_training_stops_on_coordinate_budget(small_problem):
    prob = small_problem
    d = prob.d
    cfg = ExperimentConfig(optimizer="mqsgd", gamma=0.1, compressor=RAND, m=2,
                           T=None, budget=50 * len(prob.shards), seed=0)
    trace = run_training(prob, cfg)
    # each step sends 2 coords per worker; budget trips after ceil(50/2) steps
    assert trace.coords_sent_cum[-1] >= cfg.budget
    assert trace.coords_sent_cum[-2] < cfg.budget


def test_natural_compression_counts_nine_bit_coordinates(small_problem):
    prob = small_problem
    cfg = ExperimentConfig(optimizer="mqsgd", gamma=0.1, compressor="natural", T=8, seed=0)
    trace = run_training(prob, cfg)
    per_step = len(prob.shards) * prob.d * 9 / 32
    assert trace.coords_sent_cum[-1] == pytest.approx(8 * per_step)


def test_divergence_carries_partial_trace(small_problem):
    cfg = ExperimentConfig(optimizer="mqsgd", gamma=1e9, compressor=IDENTITY, T=500, seed=0)
    with pytest.raises(DivergenceError) as err:
        run_training(small_problem, cfg, reference=reference_minimizer(small_problem))
    assert err.value.trace is not None
    assert 0 < len(err.value.trace.t) < 501


def test_run_training_validates_configuration(small_problem):
    with pytest.raises(ConfigError):
        run_training(small_problem, ExperimentConfig(optimizer="sgd", T=5))
    with pytest.raises(ConfigError):
        run_training(small_problem, ExperimentConfig(optimizer="mqsgd", T=None, budget=None))


def test_make_workers_initializes_shifts(small_problem):
    workers = make_workers(small_problem, ExperimentConfig(optimizer="diana", compressor=RAND,
                                                           m=1, seed=0))
    assert [w.index for w in workers] == [0, 1, 2, 3]
    for w in workers:
        np.testing.assert_array_equal(w.shift, np.zeros(small_problem.d))
