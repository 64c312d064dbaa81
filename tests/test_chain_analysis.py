"""Exact chain analysis: laws, stationarity, bounds, hitting times."""

import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from markosparse import chain_analysis, kernels
from markosparse.chain_analysis import (
    _initial_states,
    _next_mask_law,
    _shift_step,
    banlast_hitting_time_exact,
    build_transition_matrix,
    deviation_curve,
    expected_hitting_time_banlast,
    expected_hitting_time_randm,
    mixing_time,
    monte_carlo_hitting_time,
    newest_mask_marginal,
    optimal_history_size,
    orbit_starts,
    recurrent_class,
    rho_bound_banlast,
    rho_bound_kawasaki_normalize,
    sequential_mask_law,
    stationary_distribution,
)
from markosparse.errors import (
    InvalidArgumentError,
    NonErgodicError,
    NumericalError,
    TooLargeError,
)


def test_masks_and_states_counts():
    chain = build_transition_matrix("rand", d=4, m=2, K=2)
    assert chain.masks.dtype == np.int64
    assert chain.masks.tolist() == [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]
    assert chain.n_states == 36
    with pytest.raises(TooLargeError):
        build_transition_matrix("banlast", d=30, m=5, K=4)


def test_sequential_mask_law_m1_is_the_base_law():
    p = np.array([0.2, 0.3, 0.5])
    law = sequential_mask_law(p, 1)
    for mask, prob in law.items():
        assert prob == pytest.approx(p[mask[0]])


def test_sequential_mask_law_matches_brute_force_m2():
    p = np.array([0.5, 0.3, 0.2])
    law = sequential_mask_law(p, 2)
    # direct sum over ordered draws: P(i then j) = p_i * p_j / (1 - p_i)
    for (i, j), prob in law.items():
        expect = p[i] * p[j] / (1 - p[i]) + p[j] * p[i] / (1 - p[j])
        assert prob == pytest.approx(expect)
    assert sum(law.values()) == pytest.approx(1.0)


def test_the_exact_law_stops_at_six_coordinates():
    # it sums m! orderings per mask; a 7-coordinate chain fails at once
    with pytest.raises(InvalidArgumentError, match="m=7 exceeds 6"):
        sequential_mask_law(np.full(7, 1 / 7), 7)
    for K in (0, 1):
        with pytest.raises(InvalidArgumentError, match="m=7 exceeds 6"):
            build_transition_matrix("rand", d=8, m=7, K=K)


def test_transition_matrices_are_stochastic():
    for kind, kwargs in (
        ("banlast", dict(d=5, m=2, K=1)),
        ("kawasaki", dict(d=4, m=1, K=2, b=2.0)),
        ("rand", dict(d=4, m=1, K=1)),
    ):
        chain = build_transition_matrix(kind, **kwargs)
        np.testing.assert_allclose(chain.P.sum(axis=1), 1.0, atol=1e-12)
        assert chain.P.min() >= 0.0


def test_banlast_small_chains_have_uniform_stationary_law():
    for d, m, K in ((3, 1, 1), (4, 1, 1), (5, 1, 2), (5, 2, 1)):
        chain = build_transition_matrix("banlast", d=d, m=m, K=K)
        result = stationary_distribution(chain)
        np.testing.assert_allclose(result.pi[result.recurrent],
                                   1.0 / len(result.recurrent), atol=1e-12)
        marg = newest_mask_marginal(chain, result.pi)
        np.testing.assert_allclose(marg, m / d, atol=1e-12)


def test_banlast_recurrent_class_is_disjoint_tuples():
    # with K=2 the reachable states are the ordered pairs of disjoint masks
    chain = build_transition_matrix("banlast", d=4, m=1, K=2)
    result = stationary_distribution(chain)
    assert chain.n_states == 16
    assert len(result.recurrent) == 12
    np.testing.assert_allclose(result.pi[result.recurrent], 1.0 / 12, atol=1e-12)
    assert result.pi.sum() == pytest.approx(1.0, abs=1e-12)


def test_kawasaki_k1_chains_have_uniform_stationary_law():
    for d, m, K, b in ((3, 1, 1, 2.0), (4, 1, 1, 5.0)):
        chain = build_transition_matrix("kawasaki", d=d, m=m, K=K, b=b)
        result = stationary_distribution(chain)
        np.testing.assert_allclose(result.pi[result.recurrent],
                                   1.0 / len(result.recurrent), atol=1e-12)
        np.testing.assert_allclose(newest_mask_marginal(chain, result.pi), m / d, atol=1e-12)


def test_kawasaki_k2_stationary_law_is_witnessed_nonuniform():
    # the two-step penalty memory breaks tuple-uniformity even though the
    # newest-mask marginal stays exactly m/d
    chain = build_transition_matrix("kawasaki", d=4, m=1, K=2, b=2.0)
    result = stationary_distribution(chain)
    pi = result.pi[result.recurrent]
    np.testing.assert_allclose(pi @ chain.P[np.ix_(result.recurrent, result.recurrent)],
                               pi, atol=1e-11)
    assert pi.max() - pi.min() > 0.01
    np.testing.assert_allclose(newest_mask_marginal(chain, result.pi), 0.25, atol=1e-11)


def test_nonergodic_chains_are_reported():
    with pytest.raises(NonErgodicError, match="periodic"):
        recurrent_class(build_transition_matrix("banlast", d=2, m=1, K=1))
    with pytest.raises(NonErgodicError, match="reducible"):
        recurrent_class(build_transition_matrix("banlast", d=4, m=2, K=1))


def _refuse_allocation(*args, **kwargs):
    raise AssertionError("allocated an array over the cap")


def test_state_and_matrix_caps(monkeypatch):
    with pytest.raises(TooLargeError):
        build_transition_matrix("banlast", d=40, m=4, K=3)
    # K=0 has one state but C(d,m) masks, each a row of d memberships
    with pytest.raises(TooLargeError):
        build_transition_matrix("rand", d=30, m=6, K=0)
    assert chain_analysis.ARRAY_CAP == 2**23


@pytest.mark.parametrize("kind, kwargs, entries", [
    # the table, C(d,m)^(K+1), is the largest array
    ("banlast", dict(d=10, m=1, K=2), 1000),
    # the window coordinates and orbit profiles, C(d,m)^K (K m)^2
    ("kawasaki", dict(d=2, m=1, K=3, b=2.0), 8 * 9),
    # the mask membership of the K=0 one-step law, C(d,m) d
    ("rand", dict(d=6, m=2, K=0), 15 * 6),
], ids=["table", "window", "membership"])
def test_the_build_checks_its_largest_array_against_the_cap(kind, kwargs, entries,
                                                            monkeypatch):
    monkeypatch.setattr(chain_analysis, "ARRAY_CAP", entries)
    chain = build_transition_matrix(kind, **kwargs)  # at the cap: built
    assert mixing_time(chain, 0.05) >= 1
    monkeypatch.setattr(chain_analysis, "ARRAY_CAP", entries - 1)
    # refused before the masks are enumerated
    monkeypatch.setattr(chain_analysis, "combinations", _refuse_allocation)
    with pytest.raises(TooLargeError, match=f": {entries} entries, exceeds cap {entries - 1}"):
        build_transition_matrix(kind, **kwargs)


def test_the_deviation_columns_are_checked_against_the_cap(monkeypatch):
    chain = build_transition_matrix("kawasaki", d=2, m=1, K=4, b=2.0)
    entries = chain.n_states * len(chain.starts)
    assert entries == 16 * 8
    expect = mixing_time(chain, 0.05)
    monkeypatch.setattr(chain_analysis, "ARRAY_CAP", entries)
    assert mixing_time(chain, 0.05) == expect  # at the cap: stepped
    assert len(deviation_curve(chain, 3)) == 4
    monkeypatch.setattr(chain_analysis, "ARRAY_CAP", entries - 1)
    monkeypatch.setattr(np, "repeat", _refuse_allocation)
    monkeypatch.setattr(chain_analysis, "_shift_step", _refuse_allocation)
    message = f"deviation columns of 16 states x 8 start orbits: {entries} entries"
    with pytest.raises(TooLargeError, match=message):
        mixing_time(chain, 0.05)
    with pytest.raises(TooLargeError, match=message):
        deviation_curve(chain, 3)


def test_the_dense_p_is_checked_against_the_cap(monkeypatch):
    chain = build_transition_matrix("banlast", d=5, m=1, K=2)
    monkeypatch.setattr(chain_analysis, "ARRAY_CAP", 25 * 25)
    np.testing.assert_allclose(chain.P.sum(axis=1), 1.0, atol=1e-12)  # at the cap
    monkeypatch.setattr(chain_analysis, "ARRAY_CAP", 25 * 25 - 1)
    monkeypatch.setattr(np, "zeros", _refuse_allocation)
    with pytest.raises(TooLargeError, match="a dense P over 25 states: 625 entries"):
        chain.P


def test_kawasaki_multicoordinate_masks_follow_the_sampler_law():
    # the row of the state holding mask k is the sequential-draw law of the
    # coordinate law after that one mask: the law the sampler draws from
    chain = build_transition_matrix("kawasaki", d=4, m=2, K=1, b=2.0)
    np.testing.assert_allclose(chain.P.sum(axis=1), 1.0, atol=1e-12)
    masks = list(map(tuple, chain.masks.tolist()))
    for k, mask in enumerate(masks):
        counts = np.zeros((1, 4), np.int64)
        counts[0, list(mask)] = 1
        p = kernels.coordinate_law("kawasaki", "normalize", 2.0, counts)[0]
        law = sequential_mask_law(p, 2)
        assert chain.table[k].tolist() == [law[other] for other in masks]


def test_every_input_the_simulation_accepts_builds_under_the_cap(monkeypatch):
    # the chain is the simulated one, so it is refused only where the
    # simulation refuses too, or by its own size limits; the stub keeps the
    # simulation to its argument checks
    monkeypatch.setattr(kernels, "simulate_hitting_times",
                        lambda rng, *args: (np.ones(args[-2], np.int64), 0))
    grid = itertools.product(("rand", "banlast", "kawasaki"), range(1, 8), range(1, 4),
                             range(4), (1.0, 2.0, 1e300),
                             ("normalize", "softmax", "project", "relu"))
    for kind, d, m, K, b, activation in grid:
        args = (kind, d, m, K, b, activation)
        try:
            monte_carlo_hitting_time(*args, trials=1)
        except InvalidArgumentError as err:
            with pytest.raises(InvalidArgumentError) as refused:
                build_transition_matrix(*args)
            assert str(refused.value) == str(err), args
            continue
        try:
            build_transition_matrix(*args)
        except TooLargeError:
            M = math.comb(d, m)
            entries = max(M ** (K + 1), M ** K * (K * m) ** 2, M * d)
            assert entries > chain_analysis.ARRAY_CAP, args


def test_rho_bound_banlast_worked_value():
    bound = rho_bound_banlast(4, 1, 1)
    assert bound.rho == pytest.approx(math.sqrt(7) / 3, abs=1e-15)
    assert bound.C == pytest.approx(9 / 7, abs=1e-15)
    for d, m, K in ((3, 1, 1), (5, 1, 2), (5, 2, 1)):
        with pytest.raises(InvalidArgumentError):
            rho_bound_banlast(d, m, K)  # outside d > (2K+1)m


def test_rho_bound_kawasaki_worked_value():
    bound = rho_bound_kawasaki_normalize(2, 1, 1, 2.0)
    assert bound.rho == pytest.approx(2 / 3, abs=1e-15)
    assert bound.C == pytest.approx(1.5, abs=1e-15)


@pytest.mark.parametrize("b", [math.inf, 1e200])
def test_rho_bound_kawasaki_refuses_a_b_power_out_of_float_range(b):
    # inf - inf made a NaN bound, and 1e200**2 raised OverflowError
    with pytest.raises(InvalidArgumentError, match=r"needs a finite b\*\*K"):
        rho_bound_kawasaki_normalize(4, 1, 2, b)


@pytest.mark.parametrize("bound, args", [
    # d*b**K overflows to inf
    (rho_bound_kawasaki_normalize, (4, 1, 1, 1e308)),
    # (d b^K - m(b^K - 1))^(-mK) = (2e200)^-2 underflows
    (rho_bound_kawasaki_normalize, (4, 2, 1, 1e200)),
    # q = (600 / 800^2)^200, about 1e-606, underflows
    (rho_bound_banlast, (1000, 1, 200)),
])
def test_bounds_refuse_a_gap_that_rounds_to_zero(bound, args):
    # a gap of 0 printed as rho=1 C=1, a rate that bounds nothing
    with pytest.raises(InvalidArgumentError, match=r"vacuous bound: its gap 1 - rho rounds to 0"):
        bound(*args)


@pytest.mark.parametrize("d, m, K, b", [(3, 1, 1, 2), (4, 1, 1, 5), (4, 1, 2, 2), (2, 1, 1, 2),
                                        (6, 1, 4, 50)])
def test_kawasaki_bound_gap_is_exact(d, m, K, b):
    bound = rho_bound_kawasaki_normalize(d, m, K, float(b))
    exact = Fraction(d * b ** K - m * (b ** K - 1)) ** (-m * K)
    assert float(Fraction(bound.gap) / exact) == pytest.approx(1.0, abs=1e-14)
    assert bound.rho == 1.0 - bound.gap


def test_kawasaki_bound_gap_survives_where_rho_rounds_to_one():
    bound = rho_bound_kawasaki_normalize(6, 1, 4, 50.0)
    assert bound.rho == 1.0  # 1 - 31250001**-4 in float
    assert float(Fraction(bound.gap) * 31250001 ** 4) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("d, m, K", [(4, 1, 1), (6, 1, 2), (10, 1, 3), (12, 2, 2)])
def test_banlast_bound_gap_is_exact(d, m, K):
    # rho = sqrt(1 - q), so the gap g = 1 - rho solves g * (2 - g) = q
    bound = rho_bound_banlast(d, m, K)
    q = Fraction(math.comb(d - 2 * K * m, m), math.comb(d - K * m, m) ** 2) ** K
    g = Fraction(bound.gap)
    assert float(g * (2 - g) / q) == pytest.approx(1.0, abs=1e-14)
    assert bound.gap == pytest.approx(1.0 - bound.rho, rel=1e-12)


def test_deviation_curves_respect_the_ergodicity_bound():
    cases = [
        ("banlast", dict(d=4, m=1, K=1), rho_bound_banlast(4, 1, 1)),
        ("kawasaki", dict(d=3, m=1, K=1, b=2.0), rho_bound_kawasaki_normalize(3, 1, 1, 2.0)),
        ("kawasaki", dict(d=4, m=1, K=1, b=5.0), rho_bound_kawasaki_normalize(4, 1, 1, 5.0)),
        ("kawasaki", dict(d=4, m=1, K=2, b=2.0), rho_bound_kawasaki_normalize(4, 1, 2, 2.0)),
    ]
    for kind, kwargs, bound in cases:
        chain = build_transition_matrix(kind, **kwargs)
        curve = deviation_curve(chain, t_max=200)
        envelope = bound.C * bound.rho ** np.arange(201)
        assert np.all(curve <= envelope + 1e-12), (kind, kwargs)


def test_mixing_time_is_one_when_the_start_is_within_eps():
    # every start's point mass against pi, computed directly: the t = 0
    # deviation; an eps whose threshold reaches it gives tau = 1
    chain = build_transition_matrix("kawasaki", d=6, m=1, K=4)
    result = stationary_distribution(chain)
    starts = chain.starts
    point_masses = np.zeros((chain.n_states, len(starts)))
    point_masses[starts, np.arange(len(starts))] = 1.0
    dev0 = np.abs(point_masses - result.pi[:, None]).max()
    assert deviation_curve(chain, 0).tolist() == [dev0]
    pi_min = result.pi[result.recurrent].min()
    eps = 2 * dev0 / pi_min
    assert eps * pi_min >= dev0
    assert mixing_time(chain, eps) == 1


def test_mixing_time_decreases_with_looser_eps():
    chain = build_transition_matrix("banlast", d=4, m=1, K=1)
    t_tight = mixing_time(chain, eps=1e-6)
    t_loose = mixing_time(chain, eps=0.2)
    assert 1 <= t_loose <= t_tight


def test_power_iteration_raises_at_its_iteration_cap(monkeypatch):
    # pi is not uniform on kawasaki(4,1,2) at b=2, so power iteration from
    # the uniform start needs 12 steps (CHAIN_PINS)
    chain = build_transition_matrix("kawasaki", d=4, m=1, K=2, b=2.0)
    monkeypatch.setattr(chain_analysis, "STATIONARY_MAX_ITER", 11)
    with pytest.raises(NumericalError,
                       match="power iteration residual > 1e-12 after 11 iterations"):
        stationary_distribution(chain)
    monkeypatch.setattr(chain_analysis, "STATIONARY_MAX_ITER", 12)
    assert stationary_distribution(chain).iterations == 12


def test_mixing_time_raises_at_its_step_cap(monkeypatch):
    # kawasaki(6,1,4) at b=50 mixes to eps=0.05 in 191 steps (CHAIN_PINS)
    chain = build_transition_matrix("kawasaki", d=6, m=1, K=4)
    result = stationary_distribution(chain)
    monkeypatch.setattr(chain_analysis, "MIXING_STEPS_CAP", 190)
    with pytest.raises(NumericalError, match=r"not mixed to eps\*pi_min after 190 steps"):
        mixing_time(chain, 0.05)
    monkeypatch.setattr(chain_analysis, "MIXING_STEPS_CAP", 191)
    assert mixing_time(chain, 0.05) == 191


@pytest.mark.parametrize("eps", [float("nan"), 0.0, -0.05])
def test_mixing_time_refuses_an_eps_that_is_not_positive(eps):
    chain = build_transition_matrix("kawasaki", d=6, m=1, K=4)
    with pytest.raises(InvalidArgumentError, match="eps must be positive"):
        mixing_time(chain, eps)


def _count_calls(monkeypatch, names):
    """Wraps each named chain_analysis function to log its name per call."""
    calls = []
    for name in names:
        def counted(*args, name=name, original=getattr(chain_analysis, name)):
            calls.append(name)
            return original(*args)
        monkeypatch.setattr(chain_analysis, name, counted)
    return calls


def test_a_chain_is_solved_once(monkeypatch):
    calls = _count_calls(monkeypatch, ["recurrent_class", "_power_iteration", "orbit_starts"])
    # kawasaki(4,1,2) at b=2: 12 power iterations, tau = 7 (CHAIN_PINS)
    chain = build_transition_matrix("kawasaki", d=4, m=1, K=2, b=2.0)
    result = stationary_distribution(chain)
    assert stationary_distribution(chain) is result
    assert calls == ["recurrent_class", "_power_iteration"]
    assert mixing_time(chain, 0.05) == 7
    curve = deviation_curve(chain, 20)
    assert len(chain.starts) == 2
    assert mixing_time(chain, 0.05) == 7
    assert deviation_curve(chain, 20).tobytes() == curve.tobytes()
    assert stationary_distribution(chain) is result
    assert calls == ["recurrent_class", "_power_iteration", "orbit_starts"]
    # mixing_time first solves a fresh chain just the same, once
    chain = build_transition_matrix("kawasaki", d=4, m=1, K=2, b=2.0)
    calls.clear()
    assert mixing_time(chain, 0.05) == 7
    assert deviation_curve(chain, 20).tobytes() == curve.tobytes()
    assert stationary_distribution(chain).iterations == 12
    assert calls == ["recurrent_class", "_power_iteration", "orbit_starts"]


def test_a_shared_solve_is_read_only():
    chain = build_transition_matrix("kawasaki", d=4, m=1, K=2, b=2.0)
    result = stationary_distribution(chain)
    for array in (result.pi, result.recurrent, chain.starts):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    with pytest.raises(AttributeError):
        result.pi = np.zeros(chain.n_states)


def _dense_stationary(chain, tol=1e-12):
    """Power iteration with the dense restriction of P to the recurrent class."""
    cls = recurrent_class(chain)
    sub = chain.P[np.ix_(cls, cls)]
    pi = np.full(len(cls), 1.0 / len(cls))
    for it in itertools.count(1):
        new = pi @ sub
        residual = np.abs(new - pi).sum()
        pi = new
        if residual <= tol:
            full = np.zeros(chain.n_states)
            full[cls] = pi / pi.sum()
            return full, it


def _dense_deviations(chain, pi):
    """max |P^t - pi| over the recurrent class, t = 0, 1, ..., by dense
    powers of the restricted matrix."""
    cls = recurrent_class(chain)
    sub = chain.P[np.ix_(cls, cls)]
    D = np.eye(len(cls))
    while True:
        yield np.abs(D - pi[cls][None, :]).max()
        D = D @ sub


def _dense_recurrent_class(chain):
    """Closure over the rows of the dense P from the fresh starts, checked to
    be one strongly connected component."""
    P = chain.P
    reach = set(_initial_states(chain))
    frontier = list(reach)
    while frontier:
        for t in np.flatnonzero(P[frontier.pop()] > 0.0).tolist():
            if t not in reach:
                reach.add(t)
                frontier.append(t)
    reach = sorted(reach)
    n_classes, _ = connected_components(csr_matrix(P[np.ix_(reach, reach)] > 0.0),
                                        connection="strong")
    assert n_classes == 1
    return reach


@pytest.mark.parametrize("kind, kwargs", [
    ("banlast", dict(d=4, m=1, K=0)),
    ("banlast", dict(d=8, m=1, K=3)),  # 336 of 512 states reachable
    ("banlast", dict(d=5, m=2, K=1)),
    ("kawasaki", dict(d=4, m=2, K=2, b=2.0)),
    ("kawasaki", dict(d=4, m=1, K=2, b=2.0)),
    ("kawasaki", dict(d=6, m=1, K=3, b=2.0, activation="project")),
    ("kawasaki", dict(d=5, m=1, K=3, b=2.0, activation="softmax")),
    ("rand", dict(d=5, m=2, K=2)),
])
def test_shift_step_matches_dense_products(kind, kwargs):
    chain = build_transition_matrix(kind, **kwargs)
    np.testing.assert_array_equal(recurrent_class(chain), _dense_recurrent_class(chain))
    pi_dense, iterations = _dense_stationary(chain)
    result = stationary_distribution(chain)
    assert result.iterations == iterations
    np.testing.assert_allclose(result.pi, pi_dense, rtol=0, atol=1e-15)
    dense = list(itertools.islice(_dense_deviations(chain, pi_dense), 101))
    np.testing.assert_allclose(deviation_curve(chain, t_max=100),
                               dense, rtol=0, atol=1e-15)
    for eps in (0.2, 0.05, 1e-3):
        threshold = eps * pi_dense[result.recurrent].min()
        dense_tau = next(t for t, dev in enumerate(_dense_deviations(chain, pi_dense))
                         if t >= 1 and dev <= threshold)
        assert mixing_time(chain, eps) == dense_tau, eps


def _digest(a):
    return hashlib.sha256(np.asarray(a).tobytes()).hexdigest()


# SHA-256 of chain.table bytes, of the sorted fresh-start states and of the
# recurrent class (int64), then the power iteration's count and the mixing
# time at eps=0.05, recorded while states were still enumerated as mask
# tuples. A non-ergodic chain pins its error message instead. The rows cover
# the shift-step chains above, the benchmark's chains, K=0 chains and a
# reducible (banlast(3,1,2): two 3-cycles) and a periodic chain.
CHAIN_PINS = [
    ("banlast", dict(d=4, m=1, K=0),
     "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
     "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
     "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc", 1, 1),
    ("banlast", dict(d=8, m=1, K=3),
     "10e970861188ca2957ec82d259b0973b4bb34c96d84611b71ab44b14c6a33c7f",
     "c26dad8917482c969f01abaab08dd323f99b3f6425a3a6b5150d36feec11d36c",
     "c26dad8917482c969f01abaab08dd323f99b3f6425a3a6b5150d36feec11d36c", 1, 12),
    ("banlast", dict(d=5, m=2, K=1),
     "4c12e2c990872f5c0c8e0d9e28fedf00012ed1109397f39f33685005087b8e35",
     "23c379d6c0f22ef64cdef873fd530df1f1419b4a3935e9323d5f1d82ca697b6a",
     "23c379d6c0f22ef64cdef873fd530df1f1419b4a3935e9323d5f1d82ca697b6a", 1, 11),
    ("kawasaki", dict(d=4, m=2, K=2, b=2.0),
     "25ca7e459c244a9a12c81d2f2d24e48c8cd74302459ae85b08e3b686ca79ebe9",
     "0a8debd26c46b3c7b1c0f2cd13e088848852c614fcd2f9fde84622e7b1ba4a00",
     "0a8debd26c46b3c7b1c0f2cd13e088848852c614fcd2f9fde84622e7b1ba4a00", 21, 9),
    ("kawasaki", dict(d=4, m=1, K=2, b=2.0),
     "8974bc730593a5c904de55e6c1c4b6cf6834636e56b734cdf9b16f0217a84b2f",
     "f23d672bb9b341f9afa8498423b75deb80e726145969391d4b9392464c2298ee",
     "f23d672bb9b341f9afa8498423b75deb80e726145969391d4b9392464c2298ee", 12, 7),
    ("kawasaki", dict(d=6, m=1, K=3, b=2.0, activation="project"),
     "d9b041e5179175bd14419cb63b02ddba33d2e87f4e7ecbadd80f74c74086984f",
     "84b39cc609f61c279dd11dd4c00a7a5da0787af7f6b65ceee5f1220cb6c01fca",
     "84b39cc609f61c279dd11dd4c00a7a5da0787af7f6b65ceee5f1220cb6c01fca", 16, 10),
    ("kawasaki", dict(d=5, m=1, K=3, b=2.0, activation="softmax"),
     "d0119694a520c73e8ade527e8648b5fad7fc5f3ef675f3fb782bba610d524947",
     "58a9478ec9a879a6eeb0f1cabb94b28acd4064aec8872e5138f141cd0031e431",
     "58a9478ec9a879a6eeb0f1cabb94b28acd4064aec8872e5138f141cd0031e431", 10, 6),
    ("rand", dict(d=5, m=2, K=2),
     "36efd0acbb8e9383047d9dd5ebf662ce6eadd71dcffc3b6bb22dbd34a6bada5b",
     "96bdba67cd0b5e6dc0f9e399f66b17eae627eac812d0620119e87687d789546a",
     "96bdba67cd0b5e6dc0f9e399f66b17eae627eac812d0620119e87687d789546a", 1, 2),
    ("kawasaki", dict(d=6, m=1, K=4),
     "e15e5220b58355bec646458b90ad05f04a43afaf83bb42f305a780619b4cbd58",
     "fe94fd7d00ccb64891267620f5b05d1deabf796d38693266a82a92e1b4447aaf",
     "fe94fd7d00ccb64891267620f5b05d1deabf796d38693266a82a92e1b4447aaf", 17, 191),
    ("banlast", dict(d=10, m=1, K=3),
     "ca53bdda704102cefccc97350bece5fb13be0f5f6b492ec4aaefb25f1d11f82e",
     "10ca6cbaa3a0c4ba31d1782a2bed81f88c4b388cac1dc2afd9cc8917fffbf0ff",
     "10ca6cbaa3a0c4ba31d1782a2bed81f88c4b388cac1dc2afd9cc8917fffbf0ff", 1, 10),
    ("kawasaki", dict(d=6, m=2, K=2),
     "da7493f179deda123f183ebf4ea636eb6f517e1ab10a715eccddb4befeccc897",
     "34618413e0eb3a9cb7b8ff17362e7ea6d360264c4cda7dd4859823211f0ebff3",
     "34618413e0eb3a9cb7b8ff17362e7ea6d360264c4cda7dd4859823211f0ebff3", 10, 184),
    ("kawasaki", dict(d=5, m=1, K=0),
     "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
     "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
     "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc", 1, 1),
    ("rand", dict(d=5, m=2, K=0),
     "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
     "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
     "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc", 1, 1),
    ("banlast", dict(d=3, m=1, K=2),
     "5f2b62bb375cf8ba1141826e5e2225f1bf6d3a2651a17bd6cd4cfc7e66f84511",
     "4628650b3eb59a6844aacb012761f418623807199efabaa9ef769b04a3136983",
     "reducible: the 6 reachable states are not one communicating class", None, None),
    ("banlast", dict(d=2, m=1, K=1),
     "c9a2fb79c96caefae3797082eb0820d925a5170c74bcba2446db9484124acb82",
     "9d34149fbd1fe777eb238799054c8cbfbce372255f219f8740838def9bfd02db",
     "periodic with period 2", None, None),

]


@pytest.mark.parametrize("kind, kwargs, table, initial, recurrent, iterations, tau", CHAIN_PINS)
def test_chain_analysis_is_pinned(kind, kwargs, table, initial, recurrent, iterations, tau):
    chain = build_transition_matrix(kind, **kwargs)
    assert _digest(chain.table) == table
    assert _digest(np.array(sorted(_initial_states(chain)), np.int64)) == initial
    if iterations is None:
        with pytest.raises(NonErgodicError, match=recurrent):
            recurrent_class(chain)
        return
    assert _digest(recurrent_class(chain)) == recurrent
    result = stationary_distribution(chain)
    assert result.iterations == iterations
    assert mixing_time(chain, 0.05) == tau


ERGODIC_PINS = [pin[:2] for pin in CHAIN_PINS if pin[5] is not None]


@pytest.mark.parametrize("kind, kwargs", ERGODIC_PINS)
def test_mixing_time_is_the_first_crossing_of_the_curve(kind, kwargs):
    # mixing_time checks the deviation once per block of steps and replays
    # the block that crosses; the curve has every step. Each eps either
    # crosses inside the curve or stalls on the rounding floor
    # (kawasaki(6,1,4) from 1e-4 down)
    chain = build_transition_matrix(kind, **kwargs)
    curve = deviation_curve(chain, 2000)
    result = stationary_distribution(chain)
    pi_min = result.pi[result.recurrent].min()
    for eps in (0.5, 0.2, 0.05, 1e-2, 1e-3, 1e-4, 1e-6, 1e-8):
        below = np.flatnonzero(curve[1:] <= eps * pi_min)
        if below.size:
            assert mixing_time(chain, eps) == 1 + below[0], eps
            continue
        with pytest.raises(NumericalError, match="stalled"):
            mixing_time(chain, eps)
    if np.all(np.diff(curve[:18]) < 0):
        # a threshold between curve[t - 1] and curve[t] puts tau at t, on
        # each side of the block ends 8 and 16
        for t in (7, 8, 9, 16, 17):
            assert mixing_time(chain, (curve[t - 1] + curve[t]) / 2 / pi_min) == t


def _transpositions(chain):
    """For each adjacent transposition (j, j+1) of coordinates, the map pm
    of mask indices (mask k -> pm[k]) and the map g of state indices."""
    masks = list(map(tuple, chain.masks.tolist()))
    index = {mask: k for k, mask in enumerate(masks)}
    M = len(masks)
    place = M ** np.arange(chain.K - 1, -1, -1)
    digits = np.arange(M ** chain.K)[:, None] // place % M
    for j in range(chain.d - 1):
        swap = {j: j + 1, j + 1: j}
        pm = np.array([index[tuple(sorted(swap.get(c, c) for c in mask))]
                       for mask in masks])
        yield pm, pm[digits] @ place


@pytest.mark.parametrize("kind, kwargs", ERGODIC_PINS)
def test_the_law_commutes_with_relabelling_coordinates(kind, kwargs):
    # the premise of one start per orbit: table[g(s), pm_g[k]] == table[s, k]
    chain = build_transition_matrix(kind, **kwargs)
    # the K=0 table is the one-state [[1.0]]; its one-step law carries the premise
    law = chain.table if chain.K else _next_mask_law(chain, np.zeros((1, 0), np.int64))
    for pm, g in _transpositions(chain):
        np.testing.assert_allclose(law[g[:, None], pm], law, rtol=0, atol=1e-15)


@pytest.mark.parametrize("kind, kwargs", ERGODIC_PINS)
def test_orbit_starts_match_transposition_closure(kind, kwargs):
    # smallest state of each orbit by propagating the minimum label along
    # every adjacent transposition until nothing changes
    chain = build_transition_matrix(kind, **kwargs)
    maps = [g for _, g in _transpositions(chain)]
    label = np.arange(chain.n_states)
    while True:
        new = label.copy()
        for g in maps:
            np.minimum(new, new[g], out=new)
        if np.array_equal(new, label):
            break
        label = new
    cls = recurrent_class(chain)
    assert np.isin(label[cls], cls).all()  # the class is closed under relabelling
    np.testing.assert_array_equal(orbit_starts(chain, cls), cls[label[cls] == cls])


def _one_pass_deviations(chain, result, starts):
    """The deviation loop with one column per start, each deviation reduced
    over all of x in one pass."""
    step = _shift_step(chain)
    pi = result.pi
    x = np.zeros((chain.n_states, len(starts)))
    x[starts, np.arange(len(starts))] = 1.0
    out = np.empty_like(x)
    while True:
        yield max((x.max(axis=1) - pi).max(), (pi - x.min(axis=1)).max())
        x, out = step(x, out), x


@pytest.mark.parametrize("kind, kwargs, n_orbits", [
    # the benchmark's chains, then the 2401-state kawasaki chain
    ("kawasaki", dict(d=6, m=1, K=4), 15),
    ("banlast", dict(d=10, m=1, K=3), 1),
    ("kawasaki", dict(d=6, m=2, K=2), 3),
    ("kawasaki", dict(d=6, m=1, K=3, activation="project", b=2.0), 5),
    ("rand", dict(d=5, m=2, K=2), 3),
    ("kawasaki", dict(d=7, m=1, K=4), 15),
])
def test_orbit_starts_match_every_start(kind, kwargs, n_orbits):
    chain = build_transition_matrix(kind, **kwargs)
    result = stationary_distribution(chain)
    assert len(orbit_starts(chain, result.recurrent)) == n_orbits
    thresholds = {eps: eps * result.pi[result.recurrent].min()
                  for eps in (0.5, 0.2, 0.05, 0.01)}
    # t <= 200, and on to the first t >= 1 under every threshold
    reference = []
    for dev in _one_pass_deviations(chain, result, result.recurrent):
        reference.append(dev)
        if len(reference) > 201 and min(reference[1:]) <= min(thresholds.values()):
            break
    # orbit members differ by rounding only: the mask law sums orderings
    # in a fixed order, so on kawasaki(6,2,2) they differ by 8.9e-16
    np.testing.assert_allclose(deviation_curve(chain, 200),
                               reference[:201], rtol=0, atol=4e-15)
    for eps, threshold in thresholds.items():
        tau = next(t for t in range(1, len(reference)) if reference[t] <= threshold)
        assert mixing_time(chain, eps) == tau, eps


@pytest.mark.parametrize("kind, kwargs", ERGODIC_PINS + [("kawasaki", dict(d=7, m=1, K=4))])
def test_blockwise_deviation_matches_the_one_pass_formula(kind, kwargs):
    # the program subtracts a block of pi repeated once per start; the
    # reference reduces each state's row to its max and min first
    chain = build_transition_matrix(kind, **kwargs)
    result = stationary_distribution(chain)
    starts = orbit_starts(chain, result.recurrent)
    thresholds = {eps: eps * result.pi[result.recurrent].min()
                  for eps in (0.5, 0.2, 0.05, 0.01)}
    # t <= 60, and on to the first t >= 1 under every threshold
    reference = []
    for dev in _one_pass_deviations(chain, result, starts):
        reference.append(dev)
        if len(reference) > 61 and min(reference[1:]) <= min(thresholds.values()):
            break
    assert deviation_curve(chain, 60).tobytes() == np.array(reference[:61]).tobytes()
    for eps, threshold in thresholds.items():
        tau = next(t for t in range(1, len(reference)) if reference[t] <= threshold)
        assert mixing_time(chain, eps) == tau, eps


# SHA-256 of deviation_curve(chain, 200) bytes, recorded while each
# deviation was reduced block by block: the benchmark's chains, then the
# 2401-state kawasaki chain. banlast(10,1,3) holds rows off its recurrent
# class (720 of its 1000 states).
CURVE_PINS = [
    ("kawasaki", dict(d=6, m=1, K=4),
     "bb8fe837095f891fe65ca2169b6883afc2e33668ea3637196ad94c4e9b1bc3f3"),
    ("banlast", dict(d=10, m=1, K=3),
     "20353e55144f3c6084c82f34851191de7edb8e4b411b3243f4f7a76908faaeeb"),
    ("kawasaki", dict(d=6, m=2, K=2),
     "0a201d977dab533cd79a55a953034b89cbc07791230a31baa3aa32dcff946a9e"),
    ("kawasaki", dict(d=6, m=1, K=3, activation="project", b=2.0),
     "4494abe9db8564662279c7fc49df103f782688bc1205be044882b27dd3ace4c5"),
    ("rand", dict(d=5, m=2, K=2),
     "1037b24884eac5b9b0f60d5f5dcba75d254533ac5a7bb9128bea3fa5e3e8dfa3"),
    ("kawasaki", dict(d=7, m=1, K=4),
     "f808358db3ea3cb9bac75941ad72868abddb78a6fc0b3ea13008d9a03c1c651c"),
]


@pytest.mark.parametrize("kind, kwargs, digest", CURVE_PINS)
def test_deviation_curve_is_pinned(kind, kwargs, digest):
    assert _digest(deviation_curve(build_transition_matrix(kind, **kwargs), 200)) == digest


@pytest.mark.parametrize("t_max", [-1, -2])
def test_deviation_curve_rejects_a_negative_t_max_before_stepping(t_max, monkeypatch):
    chain = build_transition_matrix("banlast", d=4, m=1, K=1)
    result = stationary_distribution(chain)

    def no_step(chain):
        raise AssertionError("stepped the chain")

    monkeypatch.setattr(chain_analysis, "_shift_step", no_step)
    with pytest.raises(InvalidArgumentError, match="t_max"):
        deviation_curve(chain, t_max)


def test_deviation_curves_refuse_a_t_max_above_the_step_cap(monkeypatch):
    chain = build_transition_matrix("banlast", d=4, m=1, K=1)
    stationary_distribution(chain)
    cap = chain_analysis.MIXING_STEPS_CAP
    monkeypatch.setattr(chain_analysis, "MIXING_STEPS_CAP", 50)
    assert len(deviation_curve(chain, 50)) == 51
    with pytest.raises(TooLargeError, match="t_max=51, exceeds cap 50"):
        deviation_curve(chain, 51)
    monkeypatch.setattr(chain_analysis, "MIXING_STEPS_CAP", cap)

    def no_step(chain):
        raise AssertionError("stepped the chain")

    monkeypatch.setattr(chain_analysis, "_shift_step", no_step)
    for t_max in (cap + 1, 10**9):
        message = f"a deviation curve to t_max={t_max}, exceeds cap {cap}"
        with pytest.raises(TooLargeError, match=message):
            deviation_curve(chain, t_max)


def test_a_memoryless_chain_over_the_cap_names_its_masks():
    # C(30,6) = 593775 masks of 30 memberships each
    with pytest.raises(TooLargeError,
                       match="has 593775 masks: 17813250 entries, exceeds cap 8388608"):
        build_transition_matrix("rand", d=30, m=6, K=0)


def _per_state_marginal(chain, pi):
    """newest_mask_marginal by one loop over the K-tuples of masks."""
    marginal = np.zeros(chain.d)
    if chain.K == 0:  # memoryless: the one-step law from the empty history
        p = kernels.coordinate_law(chain.kind, chain.activation, chain.b,
                                   np.zeros(chain.d, np.int64))
        for mask, prob in sequential_mask_law(p, chain.m).items():
            for j in mask:
                marginal[j] += prob
        return marginal
    for i, state in enumerate(itertools.product(chain.masks, repeat=chain.K)):
        for j in state[-1]:
            marginal[j] += pi[i]
    return marginal


@pytest.mark.parametrize("kind, kwargs", [pin[:2] for pin in CHAIN_PINS if pin[5] is not None])
def test_newest_mask_marginal_matches_the_per_state_sum(kind, kwargs):
    chain = build_transition_matrix(kind, **kwargs)
    pi = stationary_distribution(chain).pi
    np.testing.assert_allclose(newest_mask_marginal(chain, pi), _per_state_marginal(chain, pi),
                               rtol=0, atol=1e-15)


def test_hitting_time_closed_forms():
    assert expected_hitting_time_randm(10) == pytest.approx(10.0, abs=1e-12)
    assert expected_hitting_time_banlast(10, 7) == pytest.approx(3.3852766346593515, abs=1e-12)
    assert expected_hitting_time_banlast(10, 0) == pytest.approx(10.0, abs=1e-12)
    assert banlast_hitting_time_exact(10, 7) == pytest.approx(5.8, abs=1e-9)
    assert banlast_hitting_time_exact(10, 0) == pytest.approx(10.0, abs=1e-12)


def test_exact_hitting_time_matches_monte_carlo():
    # the closed-form estimate is optimistic; the exact process mean is the
    # value a simulation reproduces
    mean, stderr = monte_carlo_hitting_time("banlast", d=10, m=1, K=7, trials=200_000, seed=3)
    assert abs(mean - 5.8) / 5.8 < 0.01
    assert stderr < 0.02
    mean_rand, _ = monte_carlo_hitting_time("rand", d=10, m=1, trials=100_000, seed=4)
    assert abs(mean_rand - 10.0) / 10.0 < 0.02


@pytest.mark.parametrize("d,m,K,trials,expected", [
    (10, 1, 7, 5000, (5.714, 0.04914187404604094)),
    (53, 10, 4, 3000, (3.2043333333333335, 0.028871832514686415)),
])
def test_monte_carlo_stream_is_pinned(d, m, K, trials, expected):
    # exact values of calls with more trials than kernels.HITTING_BLOCK
    # rows: a finished row takes the next trial, so a step's uniforms go to
    # a mix of old and new trials
    assert monte_carlo_hitting_time("banlast", d=d, m=m, K=K, trials=trials, seed=3) == expected


@pytest.mark.parametrize("kind,d,m,K,trials,seed,expected", [
    ("banlast", 53, 10, 4, 300, 1, (3.3033333333333332, 0.09237342822232968)),
    ("kawasaki", 10, 1, 3, 2048, 2, (7.583984375, 0.1457182451633997)),
])
def test_monte_carlo_of_at_most_one_block_is_pinned(kind, d, m, K, trials, seed, expected):
    # exact values for calls of at most kernels.HITTING_BLOCK trials: every
    # trial starts at step 0 and the rows draw their uniforms in row order
    assert trials <= kernels.HITTING_BLOCK
    assert monte_carlo_hitting_time(kind, d=d, m=m, K=K, trials=trials, seed=seed) == expected


@pytest.mark.parametrize("kind,d,m,K,trials,expected", [
    ("kawasaki", 10, 1, 3, 20_000, (7.72165, 0.04742711281984727)),
    ("banlast", 167, 10, 12, 300, (9.666666666666666, 0.3388725925256699)),
])
def test_the_hitting_workloads_largest_calls_are_pinned(kind, d, m, K, trials, expected):
    # exact values, seed 1, of the two call shapes that take most of the
    # benchmark's hitting workload: a tall m = 1 pool and a top-m draw
    assert monte_carlo_hitting_time(kind, d=d, m=m, K=K, trials=trials, seed=1) == expected


def test_monte_carlo_refuses_trials_past_its_cap():
    # 10^13 int64 times would be 80 TB: without the cap numpy refuses that
    # allocation at once, so this fails fast either way
    cap = chain_analysis.HITTING_TRIALS_CAP
    with pytest.raises(TooLargeError, match=f"10000000000000 hitting-time trials, exceeds cap {cap}"):
        monte_carlo_hitting_time("banlast", d=10, m=1, K=3, trials=10**13)


@pytest.mark.parametrize("kind", ["identity", "natural", "permk"])
def test_monte_carlo_refuses_kinds_without_a_mask_chain(kind):
    with pytest.raises(InvalidArgumentError,
                       match=f"no hitting-time simulation for kind '{kind}'"):
        monte_carlo_hitting_time(kind, d=5, trials=10)


def test_optimal_history_size_matches_the_grid():
    grid = [5.3, 6.7, 8.3, 10.0, 11.1, 12.5, 14.3, 16.7, 20.0]
    assert [optimal_history_size(a) for a in grid] == [4, 5, 6, 7, 8, 9, 10, 12, 15]
    assert optimal_history_size(3.0) == 1
    with pytest.raises(InvalidArgumentError):
        optimal_history_size(2.0)


def test_optimal_history_size_respects_k_max():
    assert optimal_history_size(10.0, K_max=3) == 3
    assert optimal_history_size(10.0, K_max=0) == 0
    with pytest.raises(InvalidArgumentError, match="need K_max >= 0, got -5"):
        optimal_history_size(10.0, K_max=-5)


def _closed_form_reference(alpha, K):
    # expected_hitting_time_banlast as a loop of its own for each K
    head = 0.0
    survival = 1.0
    for s in range(1, K + 1):
        head += s * survival / (alpha - (s - 1))
        survival *= 1.0 - 1.0 / (alpha - (s - 1))
    tail = alpha * (1.0 - 1.0 / (alpha - K)) ** K
    return head + tail


def _argmin_reference(alpha):
    # the per-K search, O(alpha^2)
    best_k, best_v = 0, _closed_form_reference(alpha, 0)
    for K in range(1, math.ceil(alpha) - 1):
        v = _closed_form_reference(alpha, K)
        if v < best_v:
            best_k, best_v = K, v
    return best_k


ALPHA_SEARCH_GRID = [2.001, 2.5, 3.0, 3.7, 4.0, 7.25, 10.0, 33.3, 64.0, 99.99,
                     250.0, 511.5, 1000.0, 1234.5, 2000.0]


@pytest.mark.parametrize("alpha", ALPHA_SEARCH_GRID)
def test_optimal_history_size_matches_the_per_k_search(alpha):
    assert optimal_history_size(alpha) == _argmin_reference(alpha)
    for K in {0, 1, math.ceil(alpha) // 2, math.ceil(alpha) - 2}:
        assert expected_hitting_time_banlast(alpha, K) == _closed_form_reference(alpha, K)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_optimal_history_size_rejects_alpha_outside_its_range(alpha):
    with pytest.raises(InvalidArgumentError, match="finite alpha > 2"):
        optimal_history_size(alpha)


def test_optimal_history_size_refuses_a_search_past_its_cap(monkeypatch):
    # the estimates raise when drawn, so a missing cap fails at once
    # instead of searching 10^300 sizes
    def refused(alpha):
        raise AssertionError("searched past the cap")
        yield

    cap = chain_analysis.HISTORY_SEARCH_CAP
    monkeypatch.setattr(chain_analysis, "_banlast_estimates", refused)
    for alpha in (1e300, cap + 1.5):
        with pytest.raises(TooLargeError, match=f"exceeds cap {cap}"):
            optimal_history_size(alpha)
    with pytest.raises(AssertionError, match="searched past the cap"):
        optimal_history_size(cap + 1.0)  # exactly cap sizes: searched
    monkeypatch.undo()
    assert optimal_history_size(10.0 * cap, K_max=3) == 3  # K_max lifts the cap
