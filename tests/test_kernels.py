"""Mask kernels: the pinned mask stream and its selection laws."""

import hashlib

import numpy as np
import pytest

from markosparse import kernels


def fresh_rng(seed=0):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def test_backend_reports_a_known_name():
    assert kernels.backend_name() == "numpy"


# SHA-256 of simulate_masks(seed 11, 500 steps) as (steps, m) int64 bytes,
# recorded before the coordinate law was vectorised; a change here means
# the mask stream, and so every training CSV, has moved
MASK_STREAM_DIGESTS = [
    (kernels.KIND_BANLAST, kernels.ACT_NORMALIZE, 112, 11, 7, 50.0,
     "b53c446b3f15da281aa45bf0a4496fa0d4e87b504999be9c3433f84937767772"),
    (kernels.KIND_KAWASAKI, kernels.ACT_NORMALIZE, 112, 11, 7, 50.0,
     "29fc21af3dddb7ae438c2c32a58e87d08a425dfd9a823e9825d123f5c42571a0"),
    (kernels.KIND_KAWASAKI, kernels.ACT_SOFTMAX, 112, 11, 7, 50.0,
     "c04a22b5ee297fea666a7a81b154fee8d214c4331770d5a655f896524490eb40"),
    (kernels.KIND_KAWASAKI, kernels.ACT_PROJECT, 112, 11, 7, 2.0,
     "02d768369d3e95cb43ec40f7cf37735a5c6d4be14b9d5635f48d9e9947fd4fa9"),
    (kernels.KIND_BANLAST, kernels.ACT_NORMALIZE, 10, 1, 7, 50.0,
     "6b248ff262d876fdea2c0f2e55833530bddf43345930dda87ced74b261ff3c33"),
    (kernels.KIND_KAWASAKI, kernels.ACT_NORMALIZE, 10, 1, 7, 50.0,
     "fb020e112bdfcf4947429aa6ff3394b986d37a49ea503a70fae02eae46b2faf9"),
    (kernels.KIND_KAWASAKI, kernels.ACT_SOFTMAX, 10, 1, 7, 50.0,
     "e1c7eb189564129fa0827dac5e042db384d3c2c9f74f129075ca9b32a487be6f"),
    (kernels.KIND_KAWASAKI, kernels.ACT_PROJECT, 10, 1, 7, 2.0,
     "7a9f56b5a136b9a6e49f2f00d7c7d98d42d2e15b9f2b22a165a2d4e3d29814f3"),
]


@pytest.mark.parametrize("kind,act,d,m,K,b,digest", MASK_STREAM_DIGESTS)
def test_markov_mask_stream_is_pinned(kind, act, d, m, K, b, digest):
    masks = kernels.simulate_masks(fresh_rng(11), kind, act, d, m, K, b, 500)
    assert masks.dtype == np.int64 and masks.shape == (500, m)
    assert hashlib.sha256(masks.tobytes()).hexdigest() == digest


def scalar_law(kind, act, b, counts):
    """The coordinate law as loops over Python floats, summed left to right."""
    d = len(counts)
    if kind != kernels.KIND_KAWASAKI:
        p = [1.0 if c == 0 or kind == kernels.KIND_RAND else 0.0 for c in counts]
    else:
        p = []
        for c in counts:
            w = 1.0 / d
            for _ in range(c):
                w /= b
            p.append(w)
        if act == kernels.ACT_SOFTMAX:
            hi = max(p)
            p = [float(np.exp(v - hi)) for v in p]
        elif act == kernels.ACT_PROJECT:
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
    rng = np.random.default_rng(5)
    for _ in range(300):
        d = int(rng.integers(2, 131))
        K = int(rng.integers(0, min(6, d)))
        m = int(rng.integers(1, d // (K + 1) + 1))  # (K+1)m <= d keeps banlast feasible
        counts = np.zeros(d, dtype=np.int64)
        for _ in range(K):
            counts[rng.choice(d, m, replace=False)] += 1
        b = float(rng.choice([1.5, 2.0, 50.0]))
        for kind in (kernels.KIND_RAND, kernels.KIND_BANLAST, kernels.KIND_KAWASAKI):
            for act in kernels.ACTIVATION_IDS.values():
                expect = scalar_law(kind, act, b, counts)
                got = kernels.coordinate_law(kind, act, b, counts)
                np.testing.assert_array_equal(got, expect)


def test_sampler_draws_distinct_positive_coordinates():
    p = np.array([0.1, 0.0, 0.3, 0.2, 0.4])
    for seed in range(5):
        mask = np.empty(3, dtype=np.int64)
        kernels._sample_without_replacement(fresh_rng(seed), p.copy(), 3, mask)
        assert len(set(mask.tolist())) == 3
        assert 1 not in mask  # zero-probability coordinate never drawn
        assert np.all(np.diff(mask) > 0)  # masks are ordered index sets


def test_banlast_masks_never_repeat_within_window():
    d, m, K, steps = 9, 2, 3, 400
    masks = kernels.simulate_masks(fresh_rng(1), kernels.KIND_BANLAST,
                                   kernels.ACT_NORMALIZE, d, m, K, 50.0, steps)
    masks = np.asarray(masks).reshape(steps, m)
    for t in range(steps):
        banned = set()
        for back in range(1, K + 1):
            if t - back >= 0:
                banned.update(masks[t - back].tolist())
        assert banned.isdisjoint(masks[t].tolist())


def test_kawasaki_with_huge_forgetting_rate_avoids_recent_coords():
    # with b = 1e12 the penalized mass on the last mask is ~1e-12, so a
    # 2000-step run on this seed never repeats the previous coordinate
    d, m, K, steps = 5, 1, 1, 2000
    masks = np.asarray(kernels.simulate_masks(
        fresh_rng(2), kernels.KIND_KAWASAKI, kernels.ACT_NORMALIZE,
        d, m, K, 1e12, steps)).ravel()
    assert np.all(masks[1:] != masks[:-1])


def test_rand_selection_counts_are_roughly_uniform():
    d, m, steps = 6, 2, 30_000
    counts = np.asarray(kernels.simulate_selection_counts(
        fresh_rng(3), kernels.KIND_RAND, kernels.ACT_NORMALIZE, d, m, 0, 50.0, steps))
    freq = counts / (steps * m)
    np.testing.assert_allclose(freq, 1.0 / d, rtol=0.05)


def test_hitting_time_simulation_identity_case():
    # banlast with K=0 is plain uniform sampling: geometric with mean d/m
    mean, stderr = _hit(kernels.KIND_BANLAST, d=10, m=1, K=0, trials=40_000)
    assert mean == pytest.approx(10.0, rel=0.05)
    assert stderr < 0.1


def _hit(kind, d, m, K, trials):
    times, n_capped = kernels.simulate_hitting_times(
        fresh_rng(4), kind, kernels.ACT_NORMALIZE, d, m, K, 50.0, 0, trials, 10**7)
    assert n_capped == 0
    times = np.asarray(times, dtype=np.float64)
    return float(times.mean()), float(times.std(ddof=1) / np.sqrt(trials))
