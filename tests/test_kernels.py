"""Mask kernels: the pinned mask stream and its selection laws."""

import hashlib
import itertools
import math
import sys

import numpy as np
import pytest
from scipy.stats import chi2

from markosparse import chain_analysis, kernels
from markosparse.chain_analysis import (
    banlast_hitting_time_exact,
    monte_carlo_hitting_time,
    optimal_history_size,
    sequential_mask_law,
)
from markosparse.compressors import ACTIVATIONS
from markosparse.errors import NumericalError
from markosparse.harness import ALPHA_GRID, alpha_to_dm


def fresh_rng(seed=0):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def test_backend_reports_a_known_name():
    assert kernels.backend_name() == "numpy"


# SHA-256 of simulate_masks(seed 11, 500 steps) as (steps, m) int64 bytes;
# the m = 1 streams were recorded before the coordinate law was vectorised,
# the m = 11 streams when m > 1 moved to one-pass keys. A change here means
# the mask stream, and so every training CSV, has moved
MASK_STREAM_DIGESTS = [
    ("banlast", "normalize", 112, 11, 7, 50.0,
     "4708f6f367a0db996d6beae1aba3711d9ac4ca1ea6fb324625003080358b285a"),
    ("kawasaki", "normalize", 112, 11, 7, 50.0,
     "d7e0e5834964f2efee319abb0bc205313017a8ca049b6da76cb6cb40c6939312"),
    ("kawasaki", "softmax", 112, 11, 7, 50.0,
     "5a110e5c08161527a304450ee58c92a41c8cebe3e3ae64d22d2318591290baae"),
    ("kawasaki", "project", 112, 11, 7, 2.0,
     "18060c16f7b0d5c15dcc64983cd5bf293e9523f7871ae5b7487f0ffceb66a900"),
    ("banlast", "normalize", 10, 1, 7, 50.0,
     "6b248ff262d876fdea2c0f2e55833530bddf43345930dda87ced74b261ff3c33"),
    ("kawasaki", "normalize", 10, 1, 7, 50.0,
     "fb020e112bdfcf4947429aa6ff3394b986d37a49ea503a70fae02eae46b2faf9"),
    ("kawasaki", "softmax", 10, 1, 7, 50.0,
     "e1c7eb189564129fa0827dac5e042db384d3c2c9f74f129075ca9b32a487be6f"),
    ("kawasaki", "project", 10, 1, 7, 2.0,
     "7a9f56b5a136b9a6e49f2f00d7c7d98d42d2e15b9f2b22a165a2d4e3d29814f3"),
]


# the ids keep the numbering the kernels once used for kinds (rand 0,
# banlast 1, kawasaki 2) and activations (normalize 0, softmax 1, project 2),
# so each pinned stream keeps its test name
_LEGACY_IDS = {"rand": 0, "banlast": 1, "kawasaki": 2, "normalize": 0, "softmax": 1, "project": 2}


@pytest.mark.parametrize("kind,act,d,m,K,b,digest", MASK_STREAM_DIGESTS, ids=[
    "-".join(str(_LEGACY_IDS.get(v, v)) for v in pin) for pin in MASK_STREAM_DIGESTS])
def test_markov_mask_stream_is_pinned(kind, act, d, m, K, b, digest):
    masks = kernels.simulate_masks(fresh_rng(11), kind, act, d, m, K, b, 500)
    assert masks.dtype == np.int64 and masks.shape == (500, m)
    assert hashlib.sha256(masks.tobytes()).hexdigest() == digest


def scalar_law(kind, act, b, counts):
    """The coordinate law as loops over Python floats, summed left to right."""
    d = len(counts)
    if kind != "kawasaki":
        p = [1.0 if c == 0 or kind == "rand" else 0.0 for c in counts]
    else:
        p = []
        for c in counts:
            w = 1.0 / d
            for _ in range(c):
                w /= b
            p.append(w)
        if act == "softmax":
            hi = max(p)
            p = [float(np.exp(v - hi)) for v in p]
        elif act == "project":
            css, theta = 0.0, 0.0
            for i, v in enumerate(sorted(p, reverse=True)):
                css += v
                if v - (css - 1.0) / (i + 1) > 0.0:
                    theta = (css - 1.0) / (i + 1)
            p = [max(v - theta, 0.0) for v in p]
    total = 0.0
    for v in p:
        total += v
    return np.array([v / total for v in p])


def test_coordinate_law_matches_scalar_reference():
    # a batch of count rows gives each row's law, bit for bit, whether the
    # rows come together or one at a time
    rng = np.random.default_rng(5)
    for _ in range(300):
        d = int(rng.integers(2, 131))
        K = int(rng.integers(0, min(6, d)))
        m = int(rng.integers(1, d // (K + 1) + 1))  # (K+1)m <= d keeps banlast feasible
        counts = np.zeros((int(rng.integers(1, 4)), d), dtype=np.int64)
        for row in counts:
            for _ in range(K):
                row[rng.choice(d, m, replace=False)] += 1
        b = float(rng.choice([1.5, 2.0, 50.0]))
        for kind in ("rand", "banlast", "kawasaki"):
            for act in ACTIVATIONS:
                expect = np.array([scalar_law(kind, act, b, row) for row in counts])
                np.testing.assert_array_equal(kernels.coordinate_law(kind, act, b, counts), expect)
                for row, law in zip(counts, expect):
                    np.testing.assert_array_equal(kernels.coordinate_law(kind, act, b, row), law)


def test_batched_projection_without_positive_gap():
    # weights so large that u - t rounds to 0 at every index: theta is 0 and
    # the row is only normalized; the other row has a threshold
    w = np.array([[1e20, 1e20, 1e20], [0.5, 0.25, 0.0]])
    u = np.sort(w[0])[::-1]
    assert np.all(u - (np.cumsum(u) - 1.0) / np.arange(1, 4) <= 0.0)
    got = kernels.activate(w, "project")
    np.testing.assert_array_equal(got[0], np.full(3, 1.0 / 3))
    for row, p in zip(w, got):
        np.testing.assert_array_equal(kernels.activate(row, "project"), p)


def scalar_sampler(rng, p, m):
    """The sampler over Python floats; the mask sorted. m = 1 takes one
    rng.random(): the first index whose running total exceeds it scaled by
    the total, else the last positive index. m > 1 takes d of them, one key
    log(u) / p per coordinate (-inf where p = 0, at least -DBL_MAX
    elsewhere), and keeps the m largest."""
    d = len(p)
    if m == 1:
        total = 0.0
        for v in p:
            total += v
        u = rng.random() * total
        acc, idx = 0.0, -1
        for j, v in enumerate(p):
            if v > 0.0:
                acc += v
                idx = j
                if u < acc:
                    break
        return [idx]
    keys = []
    for v in map(float, p):
        u = float(rng.random())
        if v > 0.0:
            key = math.log(u) / v if u > 0.0 else -math.inf
            keys.append(max(key, -sys.float_info.max))
        else:
            keys.append(-math.inf)
    return sorted(sorted(range(d), key=keys.__getitem__, reverse=True)[:m])


def test_single_row_sampler_matches_scalar_reference():
    rng = np.random.default_rng(7)
    for seed in range(300):
        d = int(rng.integers(1, 60))
        p = rng.random(d) * (rng.random(d) < 0.7)
        p[rng.integers(d)] = rng.random() + 0.1
        p /= np.cumsum(p)[-1]
        m = int(rng.integers(1, np.count_nonzero(p) + 1))
        a, b = fresh_rng(seed), fresh_rng(seed)
        got = kernels.sample_masks(p[None].copy(), a.random((1, kernels.uniforms_per_row(d, m))), m)
        assert got.shape == (1, m) and got.dtype == np.int64
        assert got[0].tolist() == scalar_sampler(b, p.copy(), m)
        assert a.random() == b.random()  # both consumed the same uniforms


class TopUniform:
    """A stand-in generator whose uniforms are 1.0, so every scaled uniform
    equals its row total: the case the last-positive-index fallback covers."""

    def random(self, size=None):
        return 1.0 if size is None else np.ones(size)


def test_sampler_falls_back_to_the_last_positive_index():
    p = np.array([[0.2, 0.5, 0.3, 0.0, 0.0], [0.0, 0.0, 0.0, 0.6, 0.4]])
    got = kernels.sample_masks(p.copy(), TopUniform().random((2, 1)), 1)
    np.testing.assert_array_equal(got, [[2], [4]])
    for row, mask in zip(p, got):
        assert mask.tolist() == scalar_sampler(TopUniform(), row.copy(), 1)


def _tall_counts(kind, n, d, rng):
    # n count rows of a K = 2, m = 1 history; banlast rows leave some
    # coordinate free
    counts = np.zeros((n, d), np.int64)
    for row in counts:
        row[rng.integers(d, size=2)] += 1
        if kind == "banlast":
            row[rng.integers(d)] = 0
    return counts


@pytest.mark.parametrize("kind,act", [
    ("banlast", "normalize"), ("rand", "normalize"),
    ("kawasaki", "normalize"), ("kawasaki", "softmax"), ("kawasaki", "project")])
@pytest.mark.parametrize("d", [3, 10])
def test_tall_coordinate_law_equals_its_rows_one_at_a_time(kind, act, d):
    # TALL rows per coordinate and more: totals are taken down the leading
    # axis; a single row takes the per-row path
    rng = fresh_rng(30 + d)
    for n in (kernels.TALL * d, kernels.TALL * d + 37):
        counts = _tall_counts(kind, n, d, rng)
        law = kernels.coordinate_law(kind, act, 2.0, counts)
        assert law.shape == (n, d)
        expect = np.array([kernels.coordinate_law(kind, act, 2.0, row) for row in counts])
        np.testing.assert_array_equal(law, expect)


class Uniforms:
    """A stand-in generator that returns the given uniforms in order."""

    def __init__(self, values):
        self.values = iter(values)

    def random(self):
        return next(self.values)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("order", ["C", "F"])
def test_tall_sampler_equals_its_rows_one_at_a_time(m, order):
    d = 6
    n = kernels.TALL * d + 11
    rng = fresh_rng(40 + m)
    p = rng.random((n, d))
    for _ in range(2):  # up to two zeros a row leave at least four coordinates
        p[np.arange(n), rng.integers(d, size=n)] = 0.0
    u = rng.random((n, kernels.uniforms_per_row(d, m)))
    tiny = np.nextafter(0.0, 1.0)
    if m == 1:
        # dyadic weights and uniforms: a scaled uniform lands exactly on a
        # running total, whose index is not above it
        p[:8] = [[0.25, 0.25, 0.25, 0.25, 0.0, 0.0], [0.5, 0.0, 0.25, 0.125, 0.125, 0.0]] * 4
        u[:8] = 0.5
        # subnormal totals: the uniform just below 1 rounds up to the row's
        # total, so no running total is above it and the draw falls back to
        # the last positive index
        p[8:12] = [[0.0, tiny, 3 * tiny, 2 * tiny, 0.0, 0.0]] * 4
        u[8:12] = np.nextafter(1.0, 0.0)
        assert all(np.nextafter(1.0, 0.0) * t == t for t in p[8:12].sum(1))
    else:
        # m positive coordinates: a uniform of exactly 0.0 on one of them,
        # and subnormal weights whose keys overflow, still rank above the
        # zero-probability coordinates' -inf
        p[:4] = 0.0
        p[:4, :m] = np.arange(1, m + 1) / (m * (m + 1) / 2)
        u[:4, 0] = 0.0
        u[:4, m] = 0.0
        p[4:8] = 0.0
        p[4:8, d - m:] = tiny * np.arange(1, m + 1)
    q = np.array(p, order=order)
    masks = kernels.sample_masks(q, u.copy(), m)
    assert masks.shape == (n, m)
    np.testing.assert_array_equal(q, p)  # the law is left as it was
    for i in range(n):
        row = kernels.sample_masks(p[i:i + 1].copy(), u[i:i + 1].copy(), m)
        np.testing.assert_array_equal(masks[i:i + 1], row)
        assert masks[i].tolist() == scalar_sampler(Uniforms(u[i]), p[i].copy(), m)
    if m == 1:
        np.testing.assert_array_equal(masks[8:12, -1], 3)
    else:
        np.testing.assert_array_equal(masks[:4], np.tile(np.arange(m), (4, 1)))
        np.testing.assert_array_equal(masks[4:8], np.tile(np.arange(d - m, d), (4, 1)))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_keys_never_draw_a_zero_probability_coordinate(m):
    # every uniform is 0.0, or the weights are subnormal: every positive key
    # is -DBL_MAX, still above the -inf of the banned coordinates
    d, n = 9, 50
    rng = fresh_rng(50 + m)
    p = rng.random((n, d))
    p[:, ::2] = 0.0               # four positive coordinates left
    p[n // 2:, 1::2] = np.nextafter(0.0, 1.0) * rng.integers(1, 100, size=(n - n // 2, 4))
    u = rng.random((n, d))
    u[:n // 2] = 0.0
    masks = kernels.sample_masks(p, u, m)
    assert np.all(masks % 2 == 1)
    assert np.all(np.diff(masks, axis=1) > 0)


def _reference_top_keys(p, u, m):
    """The keys of m > 1 as the sampler first selected them: a positive
    coordinate's key floored at -DBL_MAX, a zero-probability one's left at
    -inf, the m largest found by argpartition and sorted."""
    with np.errstate(divide="ignore", over="ignore"):
        np.log(u, out=u)
        np.divide(u, p, out=u)
    np.maximum(u, -sys.float_info.max, out=u, where=p > 0.0)
    d = u.shape[1]
    masks = np.argpartition(u, d - m, axis=1)[:, d - m:]
    masks.sort(1)
    return masks


def _has_tie_at_the_mth_key(p, u, m):
    # per row: another key equals the m-th largest floored key, so the set
    # of keys at or above it is not the top m alone
    with np.errstate(divide="ignore", over="ignore"):
        keys = np.maximum(np.log(u) / p, -sys.float_info.max)
    kth = np.sort(keys, axis=1)[:, keys.shape[1] - m, None]
    return np.count_nonzero(keys >= kth, axis=1) > m


def _top_key_laws(n, d, m, rng):
    # a banlast law (some coordinates banned, at least m left) and a
    # kawasaki law (counts of a K = 3 history, b = 50) over n rows
    banned = np.zeros((n, d), np.int64)
    for row in banned:
        row[rng.permutation(d)[:rng.integers(0, d - m + 1)]] = 1
    kawasaki = rng.integers(0, 4, size=(n, d))
    return (kernels.coordinate_law("banlast", "normalize", 50.0, banned),
            kernels.coordinate_law("kawasaki", "normalize", 50.0, kawasaki))


@pytest.mark.parametrize("n,d,m", [(300, 167, 10), (300, 53, 10), (10, 112, 11),
                                   (2048, 10, 2), (50, 25, 2)])
def test_top_keys_equal_the_argpartition_reference(n, d, m):
    rng = fresh_rng(60 + d)
    for p in _top_key_laws(n, d, m, rng):
        u = rng.random((n, d))
        got = kernels.sample_masks(p, u.copy(), m)
        expect = _reference_top_keys(p, u.copy(), m)
        assert got.dtype == expect.dtype and got.shape == (n, m)
        np.testing.assert_array_equal(got, expect)


@pytest.mark.parametrize("case", ["zero-uniforms", "subnormal", "m-positive",
                                  "m-positive-zero-uniform", "equal-keys", "m-equals-d"])
@pytest.mark.parametrize("n,d,m", [(300, 53, 10), (50, 25, 2), (2048, 10, 2)])
def test_top_keys_equal_the_reference_on_ties(case, n, d, m):
    # rows built so that a key equals the m-th largest (the argpartition
    # path) or so that exactly m keys are kept (the value path), among
    # ordinary rows of a banlast law
    rng = fresh_rng(70 + d)
    p = _top_key_laws(n, d, m, rng)[0]
    u = rng.random((n, d))
    rows = slice(0, 5)
    tiny = np.nextafter(0.0, 1.0)
    if case == "zero-uniforms":
        u[rows] = 0.0
    elif case == "subnormal":
        p[rows] = tiny * rng.integers(1, 100, size=(5, d))
    elif case in ("m-positive", "m-positive-zero-uniform"):
        p[rows] = 0.0
        p[rows, d - m:] = 1.0 / m
        if case == "m-positive-zero-uniform":
            u[rows, d - 1] = 0.0
    elif case == "equal-keys":
        # two coordinates of the same weight and uniform, ranked m-th and
        # (m+1)-th
        p[rows] = np.arange(d, 0, -1) / (d * (d + 1) / 2)
        u[rows] = 0.5
        p[rows, m] = p[rows, m - 1]
    else:
        m = d
        p[:] = rng.random((n, d)) + 0.1
    tie = _has_tie_at_the_mth_key(p, u, m)
    assert (tie[rows] == (case not in ("m-positive", "m-equals-d"))).all()
    got = kernels.sample_masks(p, u.copy(), m)
    np.testing.assert_array_equal(got, _reference_top_keys(p, u.copy(), m))
    if case.startswith("m-positive"):
        np.testing.assert_array_equal(got[rows], np.tile(np.arange(d - m, d), (5, 1)))


def test_sampler_draws_distinct_positive_coordinates():
    p = np.array([0.1, 0.0, 0.3, 0.2, 0.4])
    for seed in range(5):
        u = fresh_rng(seed).random((50, kernels.uniforms_per_row(5, 3)))
        masks = kernels.sample_masks(np.tile(p, (50, 1)), u, 3)
        for mask in masks.tolist():
            assert len(set(mask)) == 3
        assert not np.any(masks == 1)  # zero-probability coordinate never drawn
        assert np.all(np.diff(masks, axis=1) > 0)  # masks are ordered index sets


def _scalar_mask_law(p, m):
    """The exact law one mask at a time, as a dict over the masks inside
    p's support: each mask sums its m! drawing orders, each order the
    product of its draws without replacement."""
    support = [j for j in range(len(p)) if p[j] > 0.0]
    law = {}
    for mask in itertools.combinations(support, m):
        total = 0.0
        for order in itertools.permutations(mask):
            pr = 1.0
            rem = 1.0
            for j in order:
                pr *= p[j] / rem
                rem -= p[j]
            total += pr
        law[mask] = total
    return law


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_mask_law_equals_the_scalar_oracle_bit_for_bit(m):
    d, n = 7, 40
    rng = fresh_rng(20 + m)
    p = rng.random((n, d))
    for row in p[::2]:  # every other row keeps between m and d - 1 coordinates
        row[rng.permutation(d)[:rng.integers(1, d - m + 1)]] = 0.0
    p /= p.cumsum(1)[:, -1:]
    # the last row has fewer than m coordinates, and draws that use up all
    # of its total: no mask can be drawn, and 0/0 must not leak out
    p[-1] = 0.0
    p[-1, :m - 1] = {1: [], 2: [1.0], 3: [0.5, 0.5], 4: [0.5, 0.25, 0.25]}[m]
    masks = np.array(list(itertools.combinations(range(d), m)))
    law = kernels.mask_law(p, masks)
    index = {mask: k for k, mask in enumerate(map(tuple, masks.tolist()))}
    expect = np.zeros((n, len(masks)))
    for row, q in zip(expect, p):
        oracle = _scalar_mask_law(q, m)
        assert sequential_mask_law(q, m) == oracle  # the one-row view
        for mask, prob in oracle.items():
            row[index[mask]] = prob
    np.testing.assert_array_equal(law, expect)
    assert (law[::2] == 0.0).any(axis=1).all()
    assert not law[-1].any()
    np.testing.assert_allclose(law[:-1].sum(axis=1), 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_batched_mask_frequencies_follow_the_joint_law(m):
    # a full row, and a row with two banned coordinates, each n times
    n = 20_000
    rng = fresh_rng(8 + m)
    for p in (np.array([0.3, 0.05, 0.2, 0.1, 0.25, 0.1]),
              np.array([0.3, 0.0, 0.2, 0.1, 0.25, 0.0, 0.15])):
        law = sequential_mask_law(p, m)  # the exact law
        masks = kernels.sample_masks(np.tile(p, (n, 1)), rng.random((n, len(p))), m)
        seen = {}
        for mask in map(tuple, masks.tolist()):
            seen[mask] = seen.get(mask, 0) + 1
        assert set(seen) <= set(law)
        for mask, q in law.items():
            sigma = np.sqrt(n * q * (1.0 - q))
            assert abs(seen.get(mask, 0) - n * q) <= 5.0 * sigma, (p, mask)


def test_banlast_masks_never_repeat_within_window():
    d, m, K, steps = 9, 2, 3, 400
    masks = kernels.simulate_masks(fresh_rng(1), "banlast",
                                   "normalize", d, m, K, 50.0, steps)
    masks = np.asarray(masks).reshape(steps, m)
    for t in range(steps):
        banned = set()
        for back in range(1, K + 1):
            if t - back >= 0:
                banned.update(masks[t - back].tolist())
        assert banned.isdisjoint(masks[t].tolist())


@pytest.mark.parametrize("m", [1, 2])
def test_team_steps_return_and_store_coordinates(m):
    # every row's mask is its own coordinates, whatever the row's index, and
    # the counts are each row's tally of the coordinates its history holds
    n, d, K = 4, 7, 2
    hist = np.full((K, n, m), -1, np.int64)
    counts = np.zeros((n, d), np.int64)
    rng = fresh_rng(5)
    for t in range(6):
        u = rng.random((n, kernels.uniforms_per_row(d, m)))
        at = kernels.step_mask("banlast", "normalize", K, 50.0, u, hist, counts, t)
        assert at.shape == (n, m) and at.min() >= 0 and at.max() < d
        np.testing.assert_array_equal(hist[t % K], at)
        stored = hist.transpose(1, 0, 2).reshape(n, -1)
        np.testing.assert_array_equal(
            counts, [np.bincount(row[row >= 0], minlength=d) for row in stored])


def test_kawasaki_with_huge_forgetting_rate_avoids_recent_coords():
    # with b = 1e12 the penalized mass on the last mask is ~1e-12, so a
    # 2000-step run on this seed never repeats the previous coordinate
    d, m, K, steps = 5, 1, 1, 2000
    masks = np.asarray(kernels.simulate_masks(
        fresh_rng(2), "kawasaki", "normalize",
        d, m, K, 1e12, steps)).ravel()
    assert np.all(masks[1:] != masks[:-1])


def test_rand_selection_counts_are_roughly_uniform():
    d, m, steps = 6, 2, 30_000
    masks = kernels.simulate_masks(
        fresh_rng(3), "rand", "normalize", d, m, 0, 50.0, steps)
    counts = np.bincount(masks.ravel(), minlength=d)
    freq = counts / (steps * m)
    np.testing.assert_allclose(freq, 1.0 / d, rtol=0.05)


def test_hitting_time_simulation_identity_case():
    # banlast with K=0 is plain uniform sampling: geometric with mean d/m
    mean, stderr = _hit("banlast", d=10, m=1, K=0, trials=40_000)
    assert mean == pytest.approx(10.0, rel=0.05)
    assert stderr < 0.1


def _hit(kind, d, m, K, trials):
    times, n_capped = kernels.simulate_hitting_times(
        fresh_rng(4), kind, "normalize", d, m, K, 50.0, 0, trials, 10**7)
    assert n_capped == 0
    times = np.asarray(times, dtype=np.float64)
    return float(times.mean()), float(times.std(ddof=1) / np.sqrt(trials))


def test_hitting_times_cover_more_trials_than_the_pool():
    trials = kernels.HITTING_BLOCK + 37
    times, n_capped = kernels.simulate_hitting_times(
        fresh_rng(9), "banlast", "normalize", 10, 1, 3, 50.0, 0,
        trials, 10**7)
    assert times.shape == (trials,) and times.dtype == np.int64
    assert n_capped == 0 and times.min() >= 1


def _replay_hitting_times(rng, kind, d, m, K, b, target, trials, cap, pool):
    """simulate_hitting_times one trial at a time: each row is a Python list
    [trial, steps, masks]. Each step takes the pool's uniforms in row order
    and makes one coordinate_law and one sample_masks call per row; a
    finished row takes the next trial, or leaves once none is left."""
    times, n_capped = [None] * trials, 0
    rows = [[i, 0, []] for i in range(min(trials, pool))]
    started = len(rows)
    while rows:
        u = rng.random((len(rows), kernels.uniforms_per_row(d, m)))
        survivors = []
        for row, draw in zip(rows, u):
            counts = np.zeros((1, d), np.int64)
            for mask in row[2][-K:] if K else []:
                counts[0, mask] += 1
            law = kernels.coordinate_law(kind, "normalize", b, counts)
            mask = kernels.sample_masks(law, draw[None].copy(), m)[0].tolist()
            row[1] += 1
            row[2].append(mask)
            if target not in mask and row[1] < cap:
                survivors.append(row)
                continue
            times[row[0]] = row[1]
            n_capped += target not in mask
            if started < trials:
                survivors.append([started, 0, []])
                started += 1
        rows = survivors
    return times, n_capped


@pytest.mark.parametrize("kind,d,m,K,trials,cap,pool", [
    # refills: more trials than HITTING_BLOCK rows
    ("banlast", 10, 1, 3, None, 10**7, None),
    ("banlast", 53, 10, 4, None, 10**7, None),
    ("kawasaki", 10, 1, 3, None, 10**7, None),
    # a cap counted from each trial's own start, with refills mid-run
    ("rand", 10, 1, 0, 60, 3, 8),
    ("banlast", 10, 1, 3, 60, 4, 8),
    ("banlast", 12, 2, 2, 60, 2, 8),
    # no refill: rows only leave
    ("banlast", 53, 10, 4, 300, 10**7, None),
    ("kawasaki", 10, 1, 3, 8, 10**7, 8),
])
def test_hitting_times_match_a_one_trial_replay(kind, d, m, K, trials, cap, pool, monkeypatch):
    if pool is not None:
        monkeypatch.setattr(kernels, "HITTING_BLOCK", pool)
    pool = kernels.HITTING_BLOCK
    trials = pool + 37 if trials is None else trials
    times, n_capped = kernels.simulate_hitting_times(
        fresh_rng(12), kind, "normalize", d, m, K, 50.0, 0, trials, cap)
    ref_times, ref_capped = _replay_hitting_times(
        fresh_rng(12), kind, d, m, K, 50.0, 0, trials, cap, pool)
    assert times.tolist() == ref_times
    assert n_capped == ref_capped
    if cap < 10**7:
        assert 0 < n_capped < trials


def _banlast_hitting_pmf(d, m, K, t_max):
    """P(T = t) for t = 1..t_max of banlast's fresh-start hitting time, whose
    hazard at step t is m / (d - min(t-1, K) m)."""
    pmf, survival = [], 1.0
    for t in range(1, t_max + 1):
        hazard = m / (d - min(t - 1, K) * m)
        pmf.append(survival * hazard)
        survival *= 1.0 - hazard
    return np.array(pmf)


@pytest.mark.parametrize("d,m,K", [(10, 1, 7), (53, 10, 4)])
def test_hitting_times_follow_the_exact_banlast_law(d, m, K):
    # chi-square against the exact pmf; the run size, seed and p-value
    # floor were fixed before any result was seen. Each step t is its own
    # bin while it and the tail beyond it expect at least 5 trials; the
    # tail is one more bin
    trials = 20_000
    assert trials > kernels.HITTING_BLOCK
    times, n_capped = kernels.simulate_hitting_times(
        fresh_rng(1), "banlast", "normalize", d, m, K, 50.0, 0, trials, 10**7)
    assert n_capped == 0
    pmf = _banlast_hitting_pmf(d, m, K, int(times.max()) + 1)
    tail = 1.0 - np.cumsum(pmf)
    bins = 0
    while bins < len(pmf) and trials * pmf[bins] >= 5 and trials * tail[bins] >= 5:
        bins += 1
    expected = trials * np.append(pmf[:bins], 1.0 - pmf[:bins].sum())
    observed = np.bincount(np.minimum(times, bins + 1), minlength=bins + 2)[1:]
    stat = float(((observed - expected) ** 2 / expected).sum())
    p_value = chi2.sf(stat, len(expected) - 1)
    assert p_value >= 1e-3, (d, m, K, stat, p_value)


def test_hitting_time_cap_is_recorded(monkeypatch):
    # a 2-step cap: trials that miss the target twice record 2 and count as capped
    times, n_capped = kernels.simulate_hitting_times(
        fresh_rng(10), "rand", "normalize", 10, 1, 0, 50.0, 0, 500, 2)
    assert set(times.tolist()) <= {1, 2}
    assert 0 < n_capped < 500
    assert n_capped <= np.count_nonzero(times == 2)
    monkeypatch.setattr(chain_analysis, "HITTING_STEPS_CAP", 2)
    with pytest.raises(NumericalError, match="trials hit the 2-step cap"):
        monte_carlo_hitting_time("rand", d=10, m=1, trials=500, seed=10)


def test_hitting_workload_means_match_the_exact_banlast_mean():
    # the benchmark's hitting configs: the alpha grid at its optimal K, and
    # criterion 3's banlast (10, K=7)
    configs = [(*alpha_to_dm(a), optimal_history_size(a), 300) for a in ALPHA_GRID]
    configs.append((10, 1, 7, 50_000))
    for d, m, K, trials in configs:
        mean, stderr = monte_carlo_hitting_time("banlast", d, m=m, K=K, trials=trials, seed=1)
        exact = banlast_hitting_time_exact(d / m, K)
        assert abs(mean - exact) <= 5.0 * stderr, (d, m, K, mean, stderr, exact)
