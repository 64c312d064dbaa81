"""Hot loops: the coordinate law, mask sampling, history updates, chain
simulation.

``coordinate_law`` is the one map from a history's per-coordinate counts to
the law of the next draw. The live compressors (through ``step_mask``),
``Compressor.probabilities`` and the exact chain analysis all call it, so
the analysed chain is the simulated one. Every total is a left-to-right sum
(``np.cumsum(...)[-1]``), never numpy's pairwise ``sum``, which fixes the law
bit for bit. Randomness is drawn only through ``rng.random()`` on a
``numpy.random.Generator``, so the seed fixes the whole mask stream.

Nothing here validates its arguments: callers check them once, where they
enter the package (``compressors.validate_parameters``).
"""

import numpy as np

# compressor kinds handled by the kernels (baselines live in compressors.py)
KIND_RAND = 0
KIND_BANLAST = 1
KIND_KAWASAKI = 2

KIND_IDS = {"rand": KIND_RAND, "banlast": KIND_BANLAST, "kawasaki": KIND_KAWASAKI}

ACT_NORMALIZE = 0
ACT_SOFTMAX = 1
ACT_PROJECT = 2

ACTIVATION_IDS = {"normalize": ACT_NORMALIZE, "softmax": ACT_SOFTMAX, "project": ACT_PROJECT}


def backend_name():
    """The array backend the kernels run on."""
    return "numpy"


def _total(p):
    # sequential sum: np.sum adds pairwise and rounds differently
    return np.cumsum(p)[-1]


def activate(w, act):
    """Maps weights onto the probability simplex; returns a new array.

    normalize: |w| / ||w||_1; softmax; project: Euclidean projection,
    sort-and-threshold form."""
    if act == ACT_SOFTMAX:
        p = np.exp(w - w.max())
    elif act == ACT_PROJECT:
        u = np.sort(w)[::-1]
        t = (np.cumsum(u) - 1.0) / np.arange(1, len(u) + 1)
        above = np.flatnonzero(u - t > 0.0)
        theta = t[above[-1]] if above.size else 0.0
        v = w - theta
        p = np.where(v > 0.0, v, 0.0)
    else:
        p = np.abs(w)
    return p / _total(p)


def _weight_table(d, b, c_max):
    # (1/d) / b**c for c = 0..c_max, by repeated division so each count
    # rounds one way
    table = np.empty(c_max + 1)
    w = 1.0 / d
    for c in range(c_max + 1):
        table[c] = w
        w /= b
    return table


def _kawasaki_weights(b, counts):
    return _weight_table(len(counts), b, int(counts.max()))[counts]


def coordinate_law(kind, act, b, counts):
    """Law of the next draw given per-coordinate counts over the stored masks.

    banlast: uniform over the coordinates with count 0. kawasaki: base
    weight 1/d divided by b once per count, mapped through activation `act`.
    rand: uniform; the counts are ignored.
    """
    if kind == KIND_KAWASAKI:
        return activate(_kawasaki_weights(b, counts), act)
    # normalize over 0/1 weights: their total is an exact count
    allowed = counts == 0 if kind == KIND_BANLAST else np.ones(len(counts), dtype=bool)
    return allowed / np.count_nonzero(allowed)


def _sample_without_replacement(rng, p, m, mask):
    # sequential weighted draws; p is consumed in place
    d = p.shape[0]
    for k in range(m):
        total = 0.0
        for j in range(d):
            total += p[j]
        u = rng.random() * total
        acc = 0.0
        idx = -1
        for j in range(d):
            if p[j] > 0.0:
                acc += p[j]
                idx = j
                if u < acc:
                    break
        mask[k] = idx
        p[idx] = 0.0
    # insertion sort: masks are kept as ordered index sets
    for a in range(1, m):
        key = mask[a]
        t = a - 1
        while t >= 0 and mask[t] > key:
            mask[t + 1] = mask[t]
            t -= 1
        mask[t + 1] = key


def _push_history(hist, counts, fill, pos, mask, K):
    m = mask.shape[0]
    if K == 0:
        return 0, 0
    if fill == K:
        for t in range(m):
            counts[hist[pos, t]] -= 1
    else:
        fill += 1
    for t in range(m):
        hist[pos, t] = mask[t]
        counts[mask[t]] += 1
    pos = (pos + 1) % K
    return fill, pos


def step_mask(rng, kind, act, m, K, b, hist, counts, fill, pos, mask_out):
    """One compressor step: law from history counts, sample, push mask."""
    p = coordinate_law(kind, act, b, counts)
    _sample_without_replacement(rng, p, m, mask_out)
    return _push_history(hist, counts, fill, pos, mask_out, K)


def simulate_masks(rng, kind, act, d, m, K, b, steps):
    """Mask sequence of a fresh compressor run; (steps, m) int64 array."""
    hist = np.zeros((max(K, 1), m), np.int64)
    counts = np.zeros(d, np.int64)
    masks = np.empty((steps, m), np.int64)
    fill = 0
    pos = 0
    for t in range(steps):
        fill, pos = step_mask(rng, kind, act, m, K, b, hist, counts, fill, pos, masks[t])
    return masks


def simulate_selection_counts(rng, kind, act, d, m, K, b, steps):
    """Per-coordinate selection counts over a fresh run; (d,) int64 array."""
    hist = np.zeros((max(K, 1), m), np.int64)
    counts = np.zeros(d, np.int64)
    mask = np.empty(m, np.int64)
    sel = np.zeros(d, np.int64)
    fill = 0
    pos = 0
    for _ in range(steps):
        fill, pos = step_mask(rng, kind, act, m, K, b, hist, counts, fill, pos, mask)
        for k in range(m):
            sel[mask[k]] += 1
    return sel


def simulate_hitting_times(rng, kind, act, d, m, K, b, target, trials, cap):
    """Steps until `target` first appears in a mask, per fresh-start trial.

    Returns (times, n_capped); trials that never hit within `cap` steps are
    recorded as `cap` and counted in n_capped.
    """
    hist = np.zeros((max(K, 1), m), np.int64)
    counts = np.zeros(d, np.int64)
    mask = np.empty(m, np.int64)
    times = np.empty(trials, np.int64)
    n_capped = 0
    for r in range(trials):
        for j in range(d):
            counts[j] = 0
        fill = 0
        pos = 0
        steps = 0
        hit = False
        while steps < cap:
            fill, pos = step_mask(rng, kind, act, m, K, b, hist, counts, fill, pos, mask)
            steps += 1
            for k in range(m):
                if mask[k] == target:
                    hit = True
                    break
            if hit:
                break
        times[r] = steps
        if not hit:
            n_capped += 1
    return times, n_capped
