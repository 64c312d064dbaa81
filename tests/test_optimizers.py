"""Optimizer steps, parameter schedules and the training loop."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from markosparse.errors import ConfigError, DivergenceError, InvalidArgumentError
from markosparse.harness import CSV_HEADER, ExperimentConfig
from markosparse.optimizers import (
    ServerState,
    amqsgd_params,
    make_workers,
    reference_minimizer,
    run_training,
    training_round,
)
from markosparse import IDENTITY, RAND
from markosparse.objectives import ShardedProblem
from problems import QuadraticProblem, heterogeneous_problem, loss_and_gradient


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
            agg += loss_and_gradient(x, prob.shards[i], prob.lam)[1]
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
    params = amqsgd_params(mu=2 * prob.lam, gamma=0.2, p=0.6)
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


def test_amqsgd_evaluates_the_losses_only_for_its_metric_rows(small_problem, monkeypatch):
    # the metric row at the served point needs the losses; the round's query
    # point x_g needs only the gradients
    calls = []
    full = ShardedProblem.shard_loss_grads
    monkeypatch.setattr(ShardedProblem, "shard_loss_grads",
                        lambda self, w: calls.append(1) or full(self, w))
    T = 12
    trace = run_training(small_problem, ExperimentConfig(optimizer="amqsgd", gamma=0.2,
                                                         compressor=RAND, m=2, T=T, seed=0))
    assert trace.rows == T + 1
    assert len(calls) == T + 1


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
    np.testing.assert_allclose(workers.shift[0], np.zeros(2) - centers[0], atol=1e-15)
    with pytest.raises(ConfigError):
        ExperimentConfig(optimizer="diana", alpha_shift=1.5)


def test_diana_with_zero_alpha_matches_mqsgd(small_problem):
    prob = small_problem
    a = run_training(prob, ExperimentConfig(optimizer="diana", gamma=0.3, compressor=RAND,
                                            m=2, T=40, seed=3, alpha_shift=0.0))
    b = run_training(prob, ExperimentConfig(optimizer="mqsgd", gamma=0.3, compressor=RAND,
                                            m=2, T=40, seed=3))
    np.testing.assert_array_equal(a.f_value, b.f_value)


def test_reference_minimizer_solves_quadratic_exactly():
    centers = np.array([[1.0, -2.0, 0.5], [3.0, 0.0, -1.5]])
    prob = QuadraticProblem(centers)
    x, f = reference_minimizer(prob)
    np.testing.assert_allclose(x, centers.mean(axis=0), atol=1e-12)
    assert f == pytest.approx(prob.full_loss_grad(x)[0])


def test_reference_minimizer_reaches_gradient_tolerance(small_problem):
    x, f = reference_minimizer(small_problem)
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


def test_a_divergence_in_a_round_carries_the_rows_before_it(small_problem, monkeypatch):
    # amqsgd's rounds take their gradients through shard_grads, its metric
    # rows through shard_loss_grads; a NaN gradient at round t ends the run
    # with rows 0..t, equal to the same run's rows undisturbed
    cfg = ExperimentConfig(optimizer="amqsgd", gamma=0.2, compressor=RAND, m=2, T=12, seed=0)
    reference = reference_minimizer(small_problem)
    full = run_training(small_problem, cfg, reference=reference)
    bad = 5
    calls = []
    grads = ShardedProblem.shard_grads

    def poisoned(self, w):
        calls.append(1)
        g = grads(self, w)
        return np.full_like(g, np.nan) if len(calls) == bad + 1 else g

    monkeypatch.setattr(ShardedProblem, "shard_grads", poisoned)
    with pytest.raises(DivergenceError, match=f"worker 0 at t={bad}") as err:
        run_training(small_problem, cfg, reference=reference)
    trace = err.value.trace
    np.testing.assert_array_equal(trace.t, np.arange(bad + 1))
    for name in CSV_HEADER.split(","):
        np.testing.assert_array_equal(getattr(trace, name), getattr(full, name)[:bad + 1])


def test_round_names_the_first_worker_with_a_non_finite_gradient(small_problem):
    workers = make_workers(small_problem, ExperimentConfig(compressor=RAND, m=2, seed=0))
    grads = np.ones((small_problem.n, small_problem.d))
    grads[2, 5] = np.nan
    grads[3, 0] = np.inf
    with pytest.raises(DivergenceError, match="worker 2 at t=0"):
        training_round(small_problem, ServerState(np.zeros(small_problem.d)), workers,
                       0.1, grads=grads)


def test_reference_minimizer_is_pinned_on_mushrooms(mushrooms_path):
    # SHA-256 of x_star's bytes, recorded before the shard evaluation was
    # stacked: the full gradient still sums the shards in the same order
    from markosparse.harness import build_problem
    problem = build_problem(ExperimentConfig(path=mushrooms_path, dim=112, clients=10,
                                             lam=0.05, seed=7))
    x_star, f_star = reference_minimizer(problem)
    assert hashlib.sha256(x_star.tobytes()).hexdigest() == (
        "e7149cddaed3723e5063bc2ff86d7e468f6e774c025f614b5782740adcd9c7c1")
    assert f_star == 0.15729250659615676


def test_run_training_validates_configuration(small_problem):
    with pytest.raises(ConfigError):
        run_training(small_problem, ExperimentConfig(optimizer="sgd", T=5))
    with pytest.raises(ConfigError):
        run_training(small_problem, ExperimentConfig(optimizer="mqsgd", T=None, budget=None))


def test_make_workers_initializes_shifts(small_problem):
    workers = make_workers(small_problem, ExperimentConfig(optimizer="diana", compressor=RAND,
                                                           m=1, seed=0))
    assert workers.compressor.workers.tolist() == [0, 1, 2, 3]
    np.testing.assert_array_equal(workers.shift, np.zeros((4, small_problem.d)))
