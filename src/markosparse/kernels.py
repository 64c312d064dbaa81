"""Hot loops: the coordinate law, mask sampling, history updates, chain
simulation.

``coordinate_law`` is the one map from a history's per-coordinate counts to
the law of the next draw, and ``sample_masks`` the one without-replacement
sampler; both work on rows, one run per row. The live compressors (through
``step_mask``, a single row), ``Compressor.probabilities``, the exact chain
analysis (every state's row at once) and the hitting-time Monte Carlo (a
block of trials at once) all call them, so the analysed chain is the
simulated one. Every total is a left-to-right sum per row
(``np.cumsum(..., axis=-1)[..., -1]``), never numpy's pairwise ``sum``, so
each row's law is the same bit for bit however many rows are computed
together. Randomness is drawn only through ``rng.random`` on a
``numpy.random.Generator``, one uniform per row and draw, so the seed fixes
the whole mask stream; a single row draws exactly what one
``rng.random()`` per draw would.

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

# hitting-time trials stepped together; bounds the (block, d) law and
# cumsum arrays, and so the simulation's memory
HITTING_BLOCK = 2048


def backend_name():
    """The array backend the kernels run on."""
    return "numpy"


def _total(p):
    # sequential sum per row, kept as a column: np.sum adds pairwise and
    # rounds differently
    return p.cumsum(-1)[..., -1:]


def activate(w, act):
    """Maps each row of weights (..., d) onto the probability simplex;
    returns a new array.

    normalize: |w| / ||w||_1; softmax; project: Euclidean projection,
    sort-and-threshold form."""
    if act == ACT_SOFTMAX:
        p = np.exp(w - w.max(axis=-1, keepdims=True))
    elif act == ACT_PROJECT:
        u = np.sort(w, axis=-1)[..., ::-1]
        t = (np.cumsum(u, axis=-1) - 1.0) / np.arange(1, w.shape[-1] + 1)
        # theta is t at the last index with u - t > 0, or 0 where none is
        last = np.where(u - t > 0.0, np.arange(w.shape[-1]), -1).max(axis=-1, keepdims=True)
        theta = np.where(last >= 0, np.take_along_axis(t, np.maximum(last, 0), axis=-1), 0.0)
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
    return _weight_table(counts.shape[-1], b, int(counts.max()))[counts]


def coordinate_law(kind, act, b, counts):
    """Law of the next draw given per-coordinate counts over the stored
    masks; counts (..., d) give one law per row.

    banlast: uniform over the coordinates with count 0. kawasaki: base
    weight 1/d divided by b once per count, mapped through activation `act`.
    rand: uniform; the counts are ignored.
    """
    if kind == KIND_KAWASAKI:
        return activate(_kawasaki_weights(b, counts), act)
    # normalize over 0/1 weights: their total is an exact count
    allowed = counts == 0 if kind == KIND_BANLAST else np.ones(counts.shape, dtype=bool)
    return allowed / allowed.sum(-1, keepdims=True)


def sample_masks(rng, p, m):
    """One mask of m distinct coordinates per row of p (n, d), by sequential
    weighted draws without replacement; (n, m) int64, each row sorted.

    Each draw takes n uniforms in one call, one per row, and picks the
    first index whose running total exceeds the row's scaled uniform, or the
    last positive index should rounding carry the uniform up to the total.
    p is overwritten: each drawn coordinate is zeroed before the next draw.
    """
    n, d = p.shape
    rows = np.arange(n)
    masks = np.empty((n, m), np.int64)
    for k in range(m):
        if k:
            p[rows, masks[:, k - 1]] = 0.0
        acc = p.cumsum(1)
        above = acc > rng.random((n, 1)) * acc[:, -1:]
        idx = above.argmax(1)
        if not above[:, -1].all():  # a uniform rounded up to its row's total
            short = ~above[:, -1]
            idx[short] = d - 1 - (p[short, ::-1] > 0.0).argmax(1)
        masks[:, k] = idx
    masks.sort(1)
    return masks


def _push_history(hist, counts, fill, pos, at, K):
    # one run per row of `at`, the new masks as positions in the flat
    # counts; the ring buffer hist (K, ..., m) keeps the last K of them
    if K == 0:
        return 0, 0
    if fill == K:
        np.subtract.at(counts, hist[pos], 1)
    else:
        fill += 1
    hist[pos] = at
    np.add.at(counts, at, 1)
    return fill, (pos + 1) % K


def step_mask(rng, kind, act, m, K, b, hist, counts, fill, pos, mask_out):
    """One compressor step: law from history counts, sample, push mask."""
    mask_out[:] = sample_masks(rng, coordinate_law(kind, act, b, counts)[None], m)[0]
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


def simulate_hitting_times(rng, kind, act, d, m, K, b, target, trials, cap):
    """Steps until `target` first appears in a mask, per fresh-start trial.

    Trials run in blocks of HITTING_BLOCK that start fresh and step
    together; a trial leaves its block when it hits. Returns (times,
    n_capped); trials that never hit within `cap` steps are recorded as
    `cap` and counted in n_capped.
    """
    times = np.full(trials, cap, np.int64)
    n_capped = 0
    for first in range(0, trials, HITTING_BLOCK):
        live = np.arange(first, min(first + HITTING_BLOCK, trials))
        counts = np.zeros((len(live), d), np.int64)
        start = np.arange(0, counts.size, d)[:, None]   # row r's counts begin at r*d
        hist = np.zeros((max(K, 1), len(live), m), np.int64)
        fill = pos = steps = 0
        while live.size and steps < cap:
            masks = sample_masks(rng, coordinate_law(kind, act, b, counts), m)
            fill, pos = _push_history(hist, counts.reshape(-1), fill, pos, masks + start, K)
            steps += 1
            hit = (masks == target).any(axis=1)
            if hit.any():
                times[live[hit]] = steps
                keep = ~hit
                live, counts = live[keep], counts[keep]
                # the survivors move up to rows 0..len(live)-1, and so do
                # the positions their history holds
                hist = hist[:, keep] - (start[keep] - start[:len(live)])
                start = start[:len(live)]
        n_capped += live.size
    return times, n_capped
