"""Sparsifying compressors with Markovian coordinate-selection laws.

The sparsification operator keeps m of d coordinates and rescales by d/m so
the compressed vector is conditionally unbiased given the mask distribution:

    Q(x) = (d/m) * x * 1(mask)

Mask laws:
  * rand      - uniform over coordinates, no memory.
  * banlast   - coordinates sent during the last K steps get probability 0,
                the remaining mass is uniform (K*m coordinates banned once
                the history buffer is full).
  * kawasaki  - every past selection within the window divides a coordinate's
                base weight 1/d by the forgetting rate b (twice selected ->
                divided by b^2); an activation then maps the penalized weight
                vector onto the probability simplex.
  * permk     - fresh uniform permutation each step, split into one block per
                worker; workers sharing a seed draw the same permutation.
  * natural   - per-coordinate random rounding to a signed power of two,
                unbiased; costs 9 bits/coordinate instead of 32.
  * identity  - passthrough.

The rand, banlast and kawasaki laws are computed by kernels.coordinate_law,
the same function the exact chain analysis uses; validate_parameters checks
their inputs once, where they enter. Masks are mutually exclusive draws: for
m > 1 the mask has the law of sequential weighted draws without replacement,
renormalizing after each draw, and is drawn in one pass by one-pass keys
(kernels.sample_masks): d uniforms per worker and step, against one for
m = 1, drawn BLOCK_STEPS steps at a time (Compressor). Randomness comes
from numpy's PCG64 generator; every compressor owns its seeded stream, so
runs are reproducible from the seed alone. validate_parameters' kawasaki
underflow check builds no weight table for b < 2, where no weight
underflows, and for b >= 2 only up to the first zero.
"""

import math

import numpy as np

from . import kernels
from .errors import InfeasibleSampleError, InvalidArgumentError

RAND = "rand"
BANLAST = "banlast"
KAWASAKI = "kawasaki"
PERMK = "permk"
NATURAL = "natural"
IDENTITY = "identity"

SPARSIFYING_KINDS = (RAND, BANLAST, KAWASAKI)
ALL_KINDS = SPARSIFYING_KINDS + (PERMK, NATURAL, IDENTITY)

ACTIVATIONS = ("normalize", "softmax", "project")

# a compressor draws this many steps of every worker's uniforms at once, or
# fewer, so that its buffer holds at most BLOCK_VALUES of them (64 KB): the
# benchmark's train runs kept their peak RSS: 60.56 MB drawing per step,
# 60.55 MB in blocks (median of 10 runs each)
BLOCK_STEPS = 64
BLOCK_VALUES = 2**13


def validate_parameters(kind, d, m=None, K=0, b=50.0, activation="normalize",
                        allow_nonergodic=False):
    """Checks a compressor's parameters; returns the resolved mask size m.

    Every entry point that runs a mask law (the compressor, the exact chain
    analysis, the hitting-time simulation) checks here once, so the law
    itself never has to.
    """
    if kind not in ALL_KINDS:
        raise InvalidArgumentError(f"unknown compressor kind '{kind}'")
    if d < 1:
        raise InvalidArgumentError("d must be positive")
    if kind in (IDENTITY, NATURAL, PERMK):
        m = d if m is None else m
    if m is None or not 1 <= m <= d:
        raise InvalidArgumentError(f"mask size m={m} outside [1, {d}]")
    if K < 0:
        raise InvalidArgumentError("history size K must be non-negative")
    if kind == BANLAST and not allow_nonergodic and d <= (K + 1) * m:
        raise InvalidArgumentError(
            f"banlast needs d > (K+1)*m for an ergodic chain; got d={d}, K={K}, m={m}"
        )
    if kind == BANLAST and d < (K + 1) * m:
        # even with the ergodicity check waived the ban must stay feasible
        raise InfeasibleSampleError(
            f"banlast with d={d} < (K+1)*m = {(K + 1) * m} cannot fill a mask"
        )
    if kind == KAWASAKI and not b > 1:
        raise InvalidArgumentError("forgetting rate b must exceed 1")
    if activation not in ACTIVATIONS:
        raise InvalidArgumentError(f"unknown activation '{activation}'")
    if kind == KAWASAKI and activation == "normalize":
        _check_kawasaki_support(d, m, K, b)
    return m


def _check_kawasaki_support(d, m, K, b):
    # normalize keeps a zero weight at zero; if (1/d)/b^c underflows at some
    # count c0 <= K, a full window can zero floor(mK/c0) coordinates. Below
    # b = 2 the smallest subnormal over b still rounds to itself, so no
    # weight ever underflows and no table is built; from b = 2 on the table
    # ends at its first zero, within 1076 entries (1073 at d = 10, b = 2)
    if math.ulp(0.0) / b > 0.0:
        return
    table = kernels._weight_table(d, b, K)
    c0 = len(table) - 1
    if table[-1] == 0.0 and d - (m * K) // c0 < m:
        raise InvalidArgumentError(
            f"kawasaki weight (1/d)/b^c underflows to 0 at c={c0}: a full "
            f"window of K={K} masks can leave fewer than m={m} of d={d} "
            "coordinates drawable; lower b or K")


def sparsify(x, mask, d, m):
    """(d/m) * x at the coordinates `mask`, zero elsewhere: for a vector x an
    array of its kept coordinates (of any shape: one worker's compressor
    passes its one row, (1, m)), for (rows, d) x one row of kept
    coordinates per row of x, (rows, m). x must be a float array: the
    caller converts and checks it once."""
    out = np.zeros(x.shape)
    if x.ndim > 1:  # row r's coordinate j is entry r*d + j of the flattened x
        mask = mask + np.arange(0, x.size, d)[:, None]
    out.ravel()[mask] = x.ravel()[mask] * (d / m)
    return out


def natural_compress(x, rngs):
    """Random rounding of each entry to a signed power of two.

    |x_j| in [2^k, 2^(k+1)) goes up with probability (|x_j| - 2^k)/2^k and
    down otherwise, which makes the rounding unbiased; exact powers of two,
    zeros and non-finite entries are fixed points. Each finite non-zero
    entry takes one uniform, powers of two included, in index order: x is
    (rows, d), and row r draws its uniforms from rngs[r].
    """
    x = np.asarray(x, dtype=np.float64)
    draw = np.isfinite(x) & (x != 0.0)
    u = np.concatenate([g.random(k) for g, k in zip(rngs, np.count_nonzero(draw, axis=1))])
    v = x[draw]
    a = np.abs(v)
    lo = np.ldexp(0.5, np.frexp(a)[1])  # the largest power of two <= a, exactly
    with np.errstate(over="ignore"):    # 2 lo overflows only where a rounds up to inf
        mag = np.where(u < (a - lo) / lo, 2.0 * lo, lo)
    out = x.copy()
    out[draw] = np.copysign(mag, v)
    return out


def perm_k_masks(d, n, rng):
    """Fresh uniform permutation of range(d) split into n blocks.

    With n not dividing d the first d % n workers receive one extra
    coordinate.
    """
    if n < 1 or d < n:
        raise InvalidArgumentError(f"need 1 <= n <= d, got n={n}, d={d}")
    return [np.sort(block) for block in np.array_split(rng.permutation(d), n)]


class Compressor:
    """Compressor state of one worker, or of a team of workers stepped
    together as the rows of one array.

    `worker` is one worker index (compress takes and returns a vector) or a
    sequence of them (compress takes and returns a (rows, d) array, row r
    for worker[r]); one worker is the one-row case of the same path. Holds
    every row's mask history ((K, rows, m) ring buffer, (rows, d) counts),
    one seeded PCG64 stream per worker, and the per-kind parameters. Each
    step computes every row's law in one call, takes each worker's
    uniforms (kernels.uniforms_per_row: 1 for m = 1, d for m > 1) and
    sparsifies all rows in one write. The uniforms of B steps (BLOCK_STEPS,
    fewer on wide teams) are drawn at once, one rng.random(out=...) call per
    worker on its own stream, and step t reads slice t % B: for PCG64 the
    same values as one call per step, so every mask is unchanged, while a
    worker's generator runs up to B - 1 steps ahead of its masks (nothing
    reads it). natural and permk draw per step.
    `compress` mutates the state (advances the streams, pushes masks) and
    is its one reader: a step's masks are the support of its output on
    ones, and the next law is kernels.coordinate_law on the last K masks'
    counts. validate_parameters checks the parameters with the ergodicity
    check on, so a banlast compressor needs d > (K+1)m.
    """

    def __init__(self, kind, d, m=None, K=0, b=50.0, activation="normalize",
                 seed=0, worker=0, n_workers=1):
        m = validate_parameters(kind, d, m, K, b, activation)

        self.kind = kind
        self.d = int(d)
        self.m = int(m)
        self.K = int(K) if kind in (BANLAST, KAWASAKI) else 0
        self.b = float(b)
        self.activation = activation
        self.workers = np.atleast_1d(np.asarray(worker, dtype=np.int64))
        self.n_workers = n_workers
        rows = len(self.workers)
        self._shape = (self.d,) if np.ndim(worker) == 0 else (rows, self.d)
        # PermK coordination: the team shares one stream and so one
        # permutation per step; other kinds get an independent stream per
        # worker.
        if kind == PERMK:
            seeds = [[int(seed), 0x7065726D]]
        else:
            seeds = [[int(seed), int(w)] for w in self.workers]
        self._rngs = [np.random.Generator(np.random.PCG64(np.random.SeedSequence(s)))
                      for s in seeds]

        self._hist = np.full((self.K, rows, self.m), -1, dtype=np.int64)   # -1: empty slot
        self._counts = np.zeros((rows, self.d), dtype=np.int64)
        self._steps = 0
        # (rows, B, u): B steps of uniforms, row r filled from worker r's stream
        u = kernels.uniforms_per_row(self.d, self.m)
        self._u = np.empty((rows, max(1, min(BLOCK_STEPS, BLOCK_VALUES // (rows * u))), u))

        # communication accounting: coordinates sent per step and bits per
        # coordinate (the budget layer multiplies by bits/32)
        self.bits_per_coord = 9 if kind == NATURAL else 32

    def compress(self, x):
        """One step of every row: returns (compressed x, coordinates sent
        over all rows)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != self._shape:
            raise InvalidArgumentError(f"input has shape {x.shape}, expected {self._shape}")
        if self.kind == IDENTITY:
            return x.copy(), x.size
        if self.kind == NATURAL:
            return natural_compress(x.reshape(-1, self.d), self._rngs).reshape(x.shape), x.size
        if self.kind == PERMK:
            rows = x.reshape(-1, self.d)
            blocks = perm_k_masks(self.d, self.n_workers, self._rngs[0])
            cols = np.concatenate([blocks[w] for w in self.workers])
            sizes = np.array([len(blocks[w]) for w in self.workers])
            owner = np.repeat(np.arange(len(sizes)), sizes)
            out = np.zeros_like(rows)
            out[owner, cols] = rows[owner, cols] * (self.d / sizes)[owner]
            return out.reshape(x.shape), len(cols)
        step = self._steps % self._u.shape[1]
        if step == 0:
            for rng, u in zip(self._rngs, self._u):
                rng.random(out=u)
        at = kernels.step_mask(self.kind, self.activation, self.K, self.b, self._u[:, step],
                               self._hist, self._counts, self._steps)
        self._steps += 1
        return sparsify(x, at, self.d, self.m), at.size
