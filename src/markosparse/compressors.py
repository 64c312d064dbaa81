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
m > 1 the mask is built by sequential weighted draws without replacement,
renormalizing after each draw. Randomness comes from numpy's PCG64
generator; every compressor owns its seeded stream, so runs are reproducible
from the seed alone.
"""

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

ACTIVATIONS = tuple(kernels.ACTIVATION_IDS)


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
    if kind == KAWASAKI and b <= 1:
        raise InvalidArgumentError("forgetting rate b must exceed 1")
    if activation not in ACTIVATIONS:
        raise InvalidArgumentError(f"unknown activation '{activation}'")
    if kind == KAWASAKI and activation == "normalize":
        _check_kawasaki_support(d, m, K, b)
    return m


def _check_kawasaki_support(d, m, K, b):
    # normalize keeps a zero weight at zero; if (1/d)/b^c underflows at some
    # count c0 <= K, a full window can zero floor(mK/c0) coordinates
    zero = np.flatnonzero(kernels._weight_table(d, b, K) == 0.0)
    if zero.size and d - (m * K) // int(zero[0]) < m:
        raise InvalidArgumentError(
            f"kawasaki weight (1/d)/b^c underflows to 0 at c={int(zero[0])}: a full "
            f"window of K={K} masks can leave fewer than m={m} of d={d} "
            "coordinates drawable; lower b or K")


def apply_activation(w, activation):
    """Maps weights onto the probability simplex with the named activation."""
    if activation not in ACTIVATIONS:
        raise InvalidArgumentError(f"unknown activation '{activation}'")
    w = np.asarray(w, dtype=np.float64)
    if activation == "normalize":
        total = np.abs(w).sum()
        if not np.isfinite(total) or total <= 0.0:
            raise InvalidArgumentError("normalize needs finite weights with a positive sum")
    return kernels.activate(w, kernels.ACTIVATION_IDS[activation])


def sample_mask(p, m, rng):
    """m distinct indices by sequential weighted draws without replacement."""
    p = np.asarray(p, dtype=np.float64)
    if np.count_nonzero(p > 0) < m:
        raise InfeasibleSampleError(
            f"{int(np.count_nonzero(p > 0))} positive-probability coordinates, need {m}"
        )
    work = p.copy()
    mask = np.empty(m, dtype=np.int64)
    kernels._sample_without_replacement(rng, work, m, mask)
    return mask


def sparsify(x, mask, d, m):
    """(d/m) * x on the mask, zero elsewhere."""
    x = np.asarray(x, dtype=np.float64)
    if len(x) != d:
        raise InvalidArgumentError(f"vector has length {len(x)}, expected {d}")
    out = np.zeros_like(x)
    out[mask] = x[mask] * (d / m)
    return out


def natural_compress(x, rng):
    """Random rounding of each entry to a signed power of two.

    |x_j| in [2^k, 2^(k+1)) goes up with probability (|x_j| - 2^k)/2^k and
    down otherwise, which makes the rounding unbiased; exact powers of two
    and zeros are fixed points. One uniform draw per coordinate.
    """
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


def perm_k_masks(d, n, rng, pad=True):
    """Fresh uniform permutation of range(d) split into n blocks.

    With n not dividing d the first d % n workers receive one extra
    coordinate (pad convention); pass pad=False to reject that case.
    """
    if n < 1 or d < n:
        raise InvalidArgumentError(f"need 1 <= n <= d, got n={n}, d={d}")
    if d % n != 0 and not pad:
        raise InvalidArgumentError(f"d={d} not divisible by n={n} and padding disabled")
    perm = rng.permutation(d)
    base = d // n
    extra = d % n
    masks = []
    start = 0
    for i in range(n):
        size = base + (1 if i < extra else 0)
        masks.append(np.sort(perm[start:start + size]).astype(np.int64))
        start += size
    return masks


class Compressor:
    """Single-owner per-worker compressor state.

    Holds the mask history ring buffer, the seeded PCG64 stream, and per-kind
    parameters. `compress` mutates the state (advances rng, pushes masks);
    never share one instance across workers.
    """

    def __init__(self, kind, d, m=None, K=0, b=50.0, activation="normalize",
                 seed=0, worker=0, n_workers=1, allow_nonergodic=False):
        m = validate_parameters(kind, d, m, K, b, activation, allow_nonergodic)

        self.kind = kind
        self.d = int(d)
        self.m = int(m)
        self.K = int(K) if kind in (BANLAST, KAWASAKI) else 0
        self.b = float(b)
        self.activation = activation
        # the kernels take integer ids; None marks kinds without a mask law
        self._kind_id = kernels.KIND_IDS.get(kind)
        self._act_id = kernels.ACTIVATION_IDS[activation]
        self.seed = seed
        self.worker = worker
        self.n_workers = n_workers
        # PermK coordination: all workers of a team draw from the same stream
        # and therefore see the same permutation every step; other kinds get
        # an independent per-worker stream.
        if kind == PERMK:
            ss = np.random.SeedSequence([int(seed), 0x7065726D])
        else:
            ss = np.random.SeedSequence([int(seed), int(worker)])
        self.rng = np.random.Generator(np.random.PCG64(ss))

        self._hist = np.zeros((max(self.K, 1), self.m), dtype=np.int64)
        self._counts = np.zeros(self.d, dtype=np.int64)
        self._fill = 0
        self._pos = 0
        self._mask_buf = np.empty(self.m, dtype=np.int64)

        # communication accounting: coordinates sent per step and bits per
        # coordinate (the budget layer multiplies by bits/32)
        self.bits_per_coord = 9 if kind == NATURAL else 32

    def probabilities(self):
        """Law of the next mask's sequential draws, given current history."""
        if self._kind_id is None:
            raise InvalidArgumentError(f"'{self.kind}' has no coordinate law")
        return kernels.coordinate_law(self._kind_id, self._act_id, self.b, self._counts)

    def compress(self, x):
        """One step: returns (compressed vector, coords_sent)."""
        x = np.asarray(x, dtype=np.float64)
        if len(x) != self.d:
            raise InvalidArgumentError(f"vector has length {len(x)}, expected {self.d}")
        if self.kind == IDENTITY:
            return x.copy(), self.d
        if self.kind == NATURAL:
            return natural_compress(x, self.rng), self.d
        if self.kind == PERMK:
            masks = perm_k_masks(self.d, self.n_workers, self.rng)
            mask = masks[self.worker]
            return sparsify(x, mask, self.d, len(mask)), len(mask)
        self._fill, self._pos = kernels.step_mask(
            self.rng, self._kind_id, self._act_id, self.m, self.K, self.b,
            self._hist, self._counts, self._fill, self._pos, self._mask_buf,
        )
        return sparsify(x, self._mask_buf, self.d, self.m), self.m

    def last_mask(self):
        return self._mask_buf.copy()
