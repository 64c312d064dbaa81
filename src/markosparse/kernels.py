"""Hot loops: the coordinate law, mask sampling and its exact law, history
updates, chain simulation.

``coordinate_law`` is the one map from a history's per-coordinate counts to
the law of the next draw, ``sample_masks`` the one without-replacement
sampler, ``mask_law`` the sampler's exact law and ``step_mask`` the one
history step; all work on rows, one run per row. The live compressors (one
row per worker), the exact chain analysis (every state's row at once: one
``coordinate_law`` call and one ``mask_law`` call fill its table for every
m) and the hitting-time Monte Carlo (a pool of trials at once, each row
taking the next trial when its own ends) all call them, so the analysed
chain is the simulated one. A history is a ring buffer of the last K masks
per row, each mask its m coordinates; a slot that holds no mask yet, in a
row fewer than K steps into its run, holds -1 and leaves the counts alone.
Masks pass between functions as coordinates; only ``step_mask``'s update
of the counts turns row r's coordinate j into the flat position r*d + j.

``sample_masks`` draws a mask of m = 1 by inverse CDF, from one uniform
per row, and a mask of m > 1 by one-pass keys (Efraimidis & Spirakis,
"Weighted random sampling with a reservoir", 2006), from d uniforms per
row: the m coordinates with the largest log(u) / p, found by a value
partition (each row's m-th largest key, then the columns at or above it,
in order, by ``flatnonzero``), with ``argpartition`` and a sort only when a
row ties at its m-th key. Both give the law of sequential weighted draws
without replacement that ``mask_law`` computes exactly. Every total and
running total of the inverse-CDF draw and of the law is a left-to-right
sum per row, never numpy's pairwise ``sum``, and the keys are elementwise,
so each row's law and draws are the same bit for bit however many rows are
computed together. The axis of a sum follows the array's shape:

- a *long* array (fewer than ``TALL`` rows per coordinate: one compressor,
  a team of workers, 300 Monte Carlo trials at d = 53) is summed along
  each row, ``np.cumsum(..., axis=-1)``;
- a *tall* array (at least ``TALL`` rows per coordinate: a Monte Carlo
  pool of 2048 trials at d = 10, a chain table) is summed down the leading
  axis of its transpose, a C-ordered (d, n) copy, one coordinate at a time.
  numpy reduces a non-contiguous axis element by element, in order, so
  each column's total is the row's left-to-right sum, and the fixed cost
  numpy pays per row of a reduction along a short axis is not paid. A
  tall law is divided by its totals in place, in that private copy.

``sample_masks`` takes its uniforms, ``uniforms_per_row(d, m)`` per row,
instead of a generator: the caller decides which stream feeds which row. A
compressor draws each worker's row from that worker's own
``numpy.random.Generator`` with ``rng.random(out=row)``, which for PCG64
gives the values of as many single ``rng.random()`` calls; the Monte Carlo
draws its pool's rows in order, row by row. The seed therefore fixes the
whole mask stream.

Kinds and activations are passed by name (``"banlast"``, ``"softmax"``).
Nothing here validates its arguments: callers check them once, where they
enter the package (``compressors.validate_parameters``).
"""

from itertools import permutations

import numpy as np

# rows of the hitting-time pool, one trial per row, stepped together; a row
# whose trial ends takes the next one. Bounds the (rows, d) law, cumsum and
# key arrays, and so the simulation's memory. On the 5*10^4-trial banlast and
# 2*10^4-trial kawasaki runs at d = 10, pools of 1024, 4096 and 8192 rows
# took longer in total
HITTING_BLOCK = 2048

# rows per coordinate from which an array is summed down its leading axis
# instead of along each row. Timed on coordinate_law plus sample_masks, the
# two ways broke even at 16-24 rows per coordinate for d = 6 and 10 with
# m = 1, at 8-12 for d = 25 and 53, and below 4 for d = 112 and 167 with
# m = 10 or 11 (timed with the m-draw sampler; the keys of m > 1 take no
# sums, so there TALL now steers only the law)
TALL = 16


def backend_name():
    """The array backend the kernels run on."""
    return "numpy"


def _tall(a):
    # a (rows, d) array with at least TALL rows per coordinate
    return len(a) >= TALL * a.shape[-1] and a.ndim == 2


def _normalize(w):
    # w over each row's left-to-right total (np.sum adds a contiguous axis
    # pairwise and rounds differently); a tall result is Fortran-ordered,
    # divided in place in its private copy. A 0/1 law is cast to float64
    # after the transposing copy: on a (2048, 10) pool, bool / int64 took
    # 45 us and float / float 23 us, plus 6.6 us for the contiguous cast
    if _tall(w):
        q = w.T.copy().astype(np.float64, copy=False)
        q /= np.add.reduce(q, axis=0)
        return q.T
    return w / w.cumsum(-1)[..., -1:]


def activate(w, act):
    """Maps each row of weights (..., d) onto the probability simplex with
    the activation named `act`; returns a new array.

    normalize: |w| / ||w||_1; softmax; project: Euclidean projection,
    sort-and-threshold form."""
    if act == "softmax":
        p = np.exp(w - w.max(axis=-1, keepdims=True))
    elif act == "project":
        u = np.sort(w, axis=-1)[..., ::-1]
        t = (np.cumsum(u, axis=-1) - 1.0) / np.arange(1, w.shape[-1] + 1)
        # theta is t at the last index with u - t > 0, or 0 where none is
        last = np.where(u - t > 0.0, np.arange(w.shape[-1]), -1).max(axis=-1, keepdims=True)
        theta = np.where(last >= 0, np.take_along_axis(t, np.maximum(last, 0), axis=-1), 0.0)
        v = w - theta
        p = np.where(v > 0.0, v, 0.0)
    else:
        p = np.abs(w)
    return _normalize(p)


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
    return _weight_table(counts.shape[-1], b, int(counts.max())).take(counts)


def coordinate_law(kind, act, b, counts):
    """Law of the next draw of the compressor named `kind` given
    per-coordinate counts over the stored masks; counts (..., d) give one
    law per row.

    banlast: uniform over the coordinates with count 0. kawasaki: base
    weight 1/d divided by b once per count, mapped through activation `act`.
    rand: uniform; the counts are ignored.
    """
    if kind == "kawasaki":
        return activate(_kawasaki_weights(b, counts), act)
    # normalize over 0/1 weights: their total is an exact count, which
    # np.sum gives cheaper than a running total on a few rows
    allowed = counts == 0 if kind == "banlast" else np.ones(counts.shape, dtype=bool)
    if _tall(allowed):
        return _normalize(allowed)
    return allowed / allowed.sum(-1, keepdims=True)


def uniforms_per_row(d, m):
    """Uniforms sample_masks takes per row of d coordinates for a mask of
    m: 1 for m = 1 (one inverse-CDF draw), d for m > 1 (one key per
    coordinate)."""
    return 1 if m == 1 else d


def sample_masks(p, u, m):
    """One mask of m distinct coordinates per row of p (n, d), with the law
    of sequential weighted draws without replacement; (n, m) int64, each
    row sorted. u holds uniforms in [0, 1), uniforms_per_row(d, m) per row.

    m = 1: row i takes the one uniform u[i, 0] and picks the first index
    whose running total exceeds it scaled by the row's total, or the last
    positive index should rounding carry the uniform up to the total.

    m > 1: one-pass keys (Efraimidis & Spirakis, 2006). Row i takes d
    uniforms and keeps the m coordinates with the largest key
    log(u[i, j]) / p[i, j], whose law is that of the m sequential draws.
    The keys are computed in place: u is overwritten. Every key is floored
    at -DBL_MAX; a value partition gives each row's m-th largest key, and
    the columns whose key is at least that value, listed in order by
    ``flatnonzero``, are the mask. If some row ties at its m-th key (equal
    keys, or keys at the floor: u is 0.0, p is so small that the quotient
    overflows, or p = 0), the zero-probability coordinates' keys go back to
    -inf and ``argpartition`` plus a sort pick the masks instead, so a
    zero-probability coordinate is never kept while m positive ones remain.
    """
    if m > 1:
        return _top_keys(p, u, m)
    d = p.shape[1]
    if _tall(p):
        # running totals down the leading axis of a private copy: the first
        # index above the scaled uniform is the count at or below it
        acc = p.T.copy()
        for j in range(1, d):
            acc[j] += acc[j - 1]
        idx = np.add.reduce(acc <= u[:, 0] * acc[-1], axis=0, dtype=np.intp)
        full = idx < d
    else:
        acc = p.cumsum(1)
        above = acc > u * acc[:, -1:]
        idx = above.argmax(1)
        full = above[:, -1]
    # argmin finds a row whose uniform rounded up to its total, if any
    # (cheaper than full.all() on the small rows of one compressor)
    if not full[full.argmin()]:
        idx[~full] = d - 1 - (p[~full, ::-1] > 0.0).argmax(1)
    return idx[:, None]


# the most negative finite double, the floor of a positive coordinate's key
_KEY_FLOOR = -np.finfo(np.float64).max


def _top_keys(p, u, m):
    # log(0) and x / 0 give -inf, a subnormal p may overflow to -inf
    with np.errstate(divide="ignore", over="ignore"):
        np.log(u, out=u)
        np.divide(u, p, out=u)
    # an unmasked floor: on a (300, 167) banlast pool the maximum took 17 us,
    # and 455 us with where=p > 0, whose masked loop runs once per stretch
    # of positive p
    np.maximum(u, _KEY_FLOOR, out=u)
    n, d = u.shape
    # each row has at least m keys at or above its m-th largest, and exactly
    # m unless a key ties with it; then they are the top m, found in row
    # order. At (300, 167, 10) the partition took 174 us and argpartition
    # 555 us before its sort, and flatnonzero 48 us against 176 us for the
    # row and column indices of a 2-d nonzero
    kth = np.partition(u, d - m, axis=1)[:, d - m:d - m + 1]
    masks = np.flatnonzero(u >= kth)
    if masks.size == n * m:
        masks = masks.reshape(n, m)
        masks -= np.arange(0, n * d, d)[:, None]
        return masks
    # a tie, at the floor or between equal keys: rank as argpartition over
    # the keys with -inf at p = 0, so no zero-probability coordinate is kept
    u[~(p > 0.0)] = -np.inf
    masks = np.argpartition(u, d - m, axis=1)[:, d - m:]
    masks.sort(1)
    return masks


def mask_law(p, masks):
    """Exact law of sample_masks: out[i, k] (n, M) is the probability that
    row p[i] (n, d) draws the sorted mask masks[k] (M, m). Each mask sums
    its m! drawing orders (itertools.permutations order), each order the
    product of its draws p[j] / (1 - earlier draws); a mask holding a
    zero-probability coordinate is exactly 0. Its temporaries are a few
    arrays of out's shape."""
    law = np.zeros((len(p), len(masks)))
    # only a mask outside the support can meet 0/0; it is zeroed below
    with np.errstate(divide="ignore", invalid="ignore"):
        for order in permutations(range(masks.shape[1])):
            first_draw, *draws = masks[:, list(order)].T
            pr = p[:, first_draw]  # 1 * (p / 1); 1 - p is left
            rem = 1.0 - pr
            for j in draws:
                pj = p[:, j]
                pr *= pj / rem
                rem -= pj
            law += pr
        for j in masks.T:
            law[~(p[:, j] > 0.0)] = 0.0
    return law


def step_mask(kind, act, K, b, u, hist, counts, t):
    """Step t (0, 1, ...) of a run per row: each row's law from its history
    counts (n, d), one mask of m = hist.shape[2] per row drawn with the
    uniforms u (n, uniforms_per_row(d, m), overwritten when m > 1), and the
    masks pushed into the ring buffer hist (K, n, m) of the last K masks,
    at slot t % K in place of the oldest mask, which leaves the counts.

    Masks are returned, and kept in hist, as coordinates (n, m). An empty
    slot, of a row fewer than K steps into its run, holds -1 and removes
    nothing. Returns the masks."""
    n, d = counts.shape
    at = sample_masks(coordinate_law(kind, act, b, counts), u, hist.shape[2])
    if K:
        slot = hist[t % K]
        old, new = slot, at
        if n > 1:  # row r's coordinate j is position r*d + j of the flat counts
            rows = np.arange(0, n * d, d)[:, None]
            old, new = slot + rows, at + rows
        flat = counts.reshape(-1)
        np.subtract.at(flat, old[slot >= 0], 1)
        slot[...] = at
        np.add.at(flat, new, 1)
    return at


def simulate_masks(rng, kind, act, d, m, K, b, steps):
    """Mask sequence of a fresh compressor run; (steps, m) int64 array."""
    hist = np.full((K, 1, m), -1, np.int64)
    counts = np.zeros((1, d), np.int64)
    masks = np.empty((steps, m), np.int64)
    for t in range(steps):
        u = rng.random((1, uniforms_per_row(d, m)))
        masks[t] = step_mask(kind, act, K, b, u, hist, counts, t)[0]
    return masks


def simulate_hitting_times(rng, kind, act, d, m, K, b, target, trials, cap):
    """Steps until `target` first appears in a mask, per fresh-start trial.

    Trials run in one pool of min(trials, HITTING_BLOCK) rows that step
    together, one trial per row, each step's uniforms drawn in row order.
    A row whose trial hits, or reaches `cap` steps of its own, takes the
    next unstarted trial, from an empty history; finished rows take new
    trials in row order. Once no trial is left to start, a finished row
    leaves the pool. Returns (times, n_capped); trials that never hit
    within `cap` steps are recorded as `cap` and counted in n_capped.
    """
    times = np.empty(trials, np.int64)
    n_capped = 0
    live = np.arange(min(trials, HITTING_BLOCK))   # each row's trial
    started = len(live)
    start = np.zeros(len(live), np.int64)          # the step each row's trial started after
    counts = np.zeros((len(live), d), np.int64)
    hist = np.full((K, len(live), m), -1, np.int64)
    steps = 0
    while live.size:
        u = rng.random((len(live), uniforms_per_row(d, m)))
        at = step_mask(kind, act, K, b, u, hist, counts, steps)
        steps += 1
        finished = (at == target).any(axis=1)
        if steps >= cap:
            capped = ~finished & (steps - start >= cap)
            n_capped += int(np.count_nonzero(capped))
            finished |= capped
        rows = np.flatnonzero(finished)
        if not rows.size:
            continue
        times[live[rows]] = steps - start[rows]
        fresh = rows[:trials - started]
        if fresh.size:
            live[fresh] = np.arange(started, started + fresh.size)
            started += fresh.size
            start[fresh] = steps
            counts[fresh] = 0
            hist[:, fresh] = -1
            if fresh.size == rows.size:
                continue
            finished[fresh] = False
        keep = np.flatnonzero(~finished)
        live, start, counts = live.take(keep), start.take(keep), counts.take(keep, axis=0)
        hist = hist.take(keep, axis=1)
    return times, n_capped
