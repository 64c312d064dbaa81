"""Compressor state machines: laws, invariants, streams, unbiasedness."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from markosparse.compressors import (
    ACTIVATIONS,
    Compressor,
    apply_activation,
    natural_compress,
    perm_k_masks,
    sparsify,
    validate_parameters,
)
from markosparse.errors import InfeasibleSampleError, InvalidArgumentError
from markosparse.kernels import coordinate_law
from markosparse import BANLAST, IDENTITY, KAWASAKI, NATURAL, PERMK, RAND


def test_sparsify_scales_kept_coordinates():
    x = np.array([1.0, -2.0, 3.0, 4.0])
    out = sparsify(x, np.array([1, 3]), d=4, m=2)
    np.testing.assert_array_equal(out, [0.0, -4.0, 0.0, 8.0])


def history_counts(history, d):
    return np.bincount(np.concatenate(history), minlength=d)


def test_banlast_probabilities_ban_and_renormalize():
    counts = history_counts([np.array([0, 2])], 5)
    p = coordinate_law("banlast", "normalize", 50.0, counts)
    np.testing.assert_allclose(p, [0.0, 1 / 3, 0.0, 1 / 3, 1 / 3])
    # two stored masks of 2 leave 1 of 5 coordinates for a mask of 2
    with pytest.raises(InfeasibleSampleError):
        validate_parameters(BANLAST, 5, 2, K=2, allow_nonergodic=True)


def test_kawasaki_probabilities_count_multiplicity():
    # the same coordinate in two stored masks is divided by b twice
    counts = history_counts([np.array([0]), np.array([0])], 3)
    p = coordinate_law("kawasaki", "normalize", 2.0, counts)
    w = np.array([0.25 / 4, 0.25, 0.25])  # baseline 1/d applies before normalize
    np.testing.assert_allclose(p, w / w.sum())


def test_kawasaki_single_ban_closed_form():
    c = Compressor(KAWASAKI, d=4, m=1, K=1, b=2.0, seed=0)
    c.compress(np.ones(4))
    j = int(c.last_mask()[0])
    p = c.probabilities()
    assert p[j] == pytest.approx(1 / 7)  # (1/8) / (1/8 + 3/4)
    others = [p[i] for i in range(4) if i != j]
    np.testing.assert_allclose(others, 2 / 7)


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=12))
def test_activations_map_to_simplex(vals):
    w = np.array(vals)
    for activation in ACTIVATIONS:
        if activation == "normalize" and not np.abs(w).sum() > 0:
            continue
        p = apply_activation(w, activation)
        assert p.min() >= 0.0
        assert p.sum() == pytest.approx(1.0, abs=1e-9)


def test_simplex_projection_fixes_simplex_points():
    p = np.array([0.2, 0.5, 0.3])
    np.testing.assert_allclose(apply_activation(p, "project"), p, atol=1e-12)


def test_normalize_rejects_zero_vector():
    with pytest.raises(InvalidArgumentError):
        apply_activation(np.zeros(3), "normalize")
    with pytest.raises(InvalidArgumentError):
        apply_activation(np.ones(3), "relu")


def test_banlast_compressor_never_repeats_within_window():
    c = Compressor(BANLAST, d=10, m=2, K=3, seed=5)
    recent = []
    for _ in range(200):
        c.compress(np.ones(10))
        mask = set(c.last_mask().tolist())
        for old in recent:
            assert mask.isdisjoint(old)
        recent.append(mask)
        recent = recent[-3:]


def test_banlast_constructor_guards():
    with pytest.raises(InvalidArgumentError):
        Compressor(BANLAST, d=6, m=2, K=2)  # d <= (K+1)m
    with pytest.raises(InfeasibleSampleError):
        Compressor(BANLAST, d=5, m=2, K=2, allow_nonergodic=True)
    Compressor(BANLAST, d=7, m=2, K=2)  # d > (K+1)m is fine


def test_banlast_saturated_history_cycles_deterministically():
    # d = (K+1)m leaves exactly one admissible mask per step once the
    # buffer is full, so coordinates alternate in a fixed cycle
    c = Compressor(BANLAST, d=2, m=1, K=1, allow_nonergodic=True)
    seen = [int(c.compress(np.ones(2))[0].nonzero()[0][0]) for _ in range(6)]
    assert seen[0] != seen[1]
    assert seen == [seen[0], seen[1]] * 3


def test_same_seed_same_worker_reproduces_masks():
    a = Compressor(BANLAST, d=8, m=2, K=2, seed=3, worker=1)
    b = Compressor(BANLAST, d=8, m=2, K=2, seed=3, worker=1)
    for _ in range(20):
        a.compress(np.ones(8))
        b.compress(np.ones(8))
        np.testing.assert_array_equal(a.last_mask(), b.last_mask())


def test_workers_get_independent_streams():
    a = Compressor(RAND, d=50, m=5, seed=3, worker=0)
    b = Compressor(RAND, d=50, m=5, seed=3, worker=1)
    seqs = []
    for c in (a, b):
        masks = [tuple(sorted(c.compress(np.ones(50))[0].nonzero()[0].tolist())) for _ in range(8)]
        seqs.append(masks)
    assert seqs[0] != seqs[1]


def test_permk_masks_partition_the_coordinates():
    rng = np.random.default_rng(0)
    masks = perm_k_masks(10, 3, rng)
    sizes = sorted(len(m) for m in masks)
    assert sizes == [3, 3, 4]
    union = np.concatenate(masks)
    assert sorted(union.tolist()) == list(range(10))


def test_permk_workers_share_the_permutation():
    team = [Compressor(PERMK, d=12, m=None, seed=9, worker=i, n_workers=3) for i in range(3)]
    x = np.arange(12, dtype=np.float64)
    outs = [c.compress(x) for c in team]
    support = np.concatenate([np.nonzero(q)[0] for q, _ in outs])
    assert sorted(support.tolist()) == list(range(1, 12))  # x[0] = 0 vanishes
    assert sum(c for _, c in outs) == 12


def test_natural_rounds_to_signed_powers_of_two():
    rng = np.random.default_rng(1)
    x = np.array([0.0, 3.0, -0.7, 2.0, 1e-3])
    out = natural_compress(x, rng)
    assert out[0] == 0.0
    assert out[3] == 2.0  # exact power of two is a fixed point
    for v, o in zip(x, out):
        if v == 0.0:
            continue
        assert np.sign(o) == np.sign(v)
        assert np.log2(abs(o)) == pytest.approx(round(np.log2(abs(o))))
        assert abs(v) / 2 < abs(o) <= 2 * abs(v)


def scalar_natural(x, rng):
    """The per-coordinate natural rounding loop, kept as the reference for
    the vectorized one."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    for j in range(len(x)):
        v = x[j]
        if v == 0.0 or not np.isfinite(v):
            out[j] = v
            continue
        a = abs(v)
        lo = 2.0 ** np.floor(np.log2(a))
        if lo > a:  # float log2 can round up at the bin edge
            lo /= 2.0
        u = rng.random()
        if a == lo:  # power of two: keep, but burn the draw for stream stability
            out[j] = v
            continue
        frac = (a - lo) / lo
        mag = 2.0 * lo if u < frac else lo
        out[j] = np.copysign(mag, v)
    return out


def test_natural_matches_scalar_reference_bit_for_bit():
    tiny = np.finfo(np.float64).smallest_subnormal
    powers = np.ldexp(1.0, np.array([-1074, -1022, -3, 0, 1, 52, 1023]))
    edges = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    x = np.concatenate([
        [0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 3 * tiny, 2.5e-310, -7e-320],
        edges, -edges, np.random.default_rng(4).standard_normal(40) * 1e3,
    ])
    for seed in range(20):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = natural_compress(x, a)
        want = scalar_natural(x, b)
        assert got.tobytes() == want.tobytes()
        assert a.random() == b.random()  # both drew once per finite non-zero entry


def test_natural_rounding_is_unbiased():
    rng = np.random.default_rng(2)
    v = np.full(20_000, 1.3)
    mean = natural_compress(v, rng).mean()
    assert mean == pytest.approx(1.3, rel=5e-3)


@pytest.mark.parametrize("kind,kwargs", [
    (RAND, dict(m=3)),
    (BANLAST, dict(m=2, K=3)),
    (KAWASAKI, dict(m=2, K=3, b=2.0, activation="softmax")),
    (PERMK, dict()),
    (NATURAL, dict()),
    (IDENTITY, dict()),
])
def test_team_rows_equal_single_worker_compressors(kind, kwargs):
    # a team steps every worker as one row; each row is what that worker's
    # own compressor produces, bit for bit, and the coordinates add up
    d, n = 11, 4
    team = Compressor(kind, d, seed=3, worker=range(n), n_workers=n, **kwargs)
    solo = [Compressor(kind, d, seed=3, worker=i, n_workers=n, **kwargs) for i in range(n)]
    rng = np.random.default_rng(0)
    for _ in range(25):
        x = rng.standard_normal((n, d))
        x[1, 2] = 0.0      # natural rows then draw different numbers of
        x[2, 4] = np.inf   # uniforms, each from its own worker's stream
        q, coords = team.compress(x)
        outs = [c.compress(row) for c, row in zip(solo, x)]
        assert q.tobytes() == np.array([o for o, _ in outs]).tobytes()
        assert coords == sum(c for _, c in outs)
        if kind in (RAND, BANLAST, KAWASAKI):
            np.testing.assert_array_equal(team.last_mask(), [c.last_mask() for c in solo])
            np.testing.assert_array_equal(team.probabilities(),
                                          [c.probabilities() for c in solo])


def test_natural_reports_nine_bits():
    assert Compressor(NATURAL, d=4).bits_per_coord == 9
    assert Compressor(RAND, d=4, m=1).bits_per_coord == 32


def test_identity_passthrough():
    c = Compressor(IDENTITY, d=3)
    x = np.array([1.0, 2.0, 3.0])
    q, coords = c.compress(x)
    np.testing.assert_array_equal(q, x)
    assert coords == 3


def test_compress_checks_vector_length():
    with pytest.raises(InvalidArgumentError):
        Compressor(RAND, d=4, m=1).compress(np.ones(5))
    with pytest.raises(InvalidArgumentError):
        Compressor(RAND, d=4, m=1, worker=range(3), n_workers=3).compress(np.ones((2, 4)))


def test_constructor_rejects_bad_parameters():
    with pytest.raises(InvalidArgumentError):
        Compressor("middle-out", d=4, m=1)
    with pytest.raises(InvalidArgumentError):
        Compressor(RAND, d=4, m=0)
    with pytest.raises(InvalidArgumentError):
        Compressor(KAWASAKI, d=4, m=1, K=1, b=1.0)
    with pytest.raises(InvalidArgumentError):
        Compressor(KAWASAKI, d=4, m=1, K=1, activation="relu")
    with pytest.raises(InvalidArgumentError):
        Compressor(BANLAST, d=4, m=1, K=-1)
    # 0.5/b^2 underflows to 0: five masks can zero both coordinates' weights
    with pytest.raises(InvalidArgumentError, match="underflows"):
        Compressor(KAWASAKI, d=2, m=1, K=5, b=1e300)
    Compressor(KAWASAKI, d=2, m=1, K=2, b=1e300)  # two masks zero at most one


@pytest.mark.parametrize("kind,kwargs", [
    (BANLAST, dict(m=1, K=3)),
    (KAWASAKI, dict(m=1, K=3, b=50.0)),
    (RAND, dict(m=1)),
])
def test_time_average_matches_vector(kind, kwargs):
    # ergodic-average unbiasedness: mean of Q(x) over a long run approaches
    # x. 50 workers, each on its own stream (row 0 is the one worker's
    # stream), for 6000 steps: over 3e5 draws rand's relative standard error
    # per coordinate is 3/sqrt(3e5), so rtol 0.03 sits 5.5 of them out;
    # banlast and kawasaki have lower long-run variance, so further out
    d, rows, steps = 10, 50, 6_000
    x = np.linspace(1.0, 2.0, d)
    c = Compressor(kind, d, seed=6, worker=range(rows), n_workers=rows, **kwargs)
    team = np.tile(x, (rows, 1))
    acc = np.zeros((rows, d))
    for _ in range(steps):
        acc += c.compress(team)[0]
    np.testing.assert_allclose(acc.sum(axis=0) / (rows * steps), x, rtol=0.03)
