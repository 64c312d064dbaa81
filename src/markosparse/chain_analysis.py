"""Exact finite-state analysis of the compressor mask chains.

A chain state is the ordered tuple of the last K masks (oldest first),
numbered by its index: the base-C(d,m) number whose digits are its mask
indices, oldest most significant, so the state space is all C(d,m)^K
indices. Transitions append the next mask drawn from the same probability
law the live compressor uses and drop the oldest. For small spaces this
module builds the transition law, finds the recurrent class actually
reachable from a fresh start, verifies ergodicity, and computes stationary
distributions, mixing times and geometric-ergodicity bounds, plus the
closed-form and simulated hitting times of a target coordinate.

A state's successors are the C(d,m) histories that drop its oldest mask and
append a new one, so a chain stores only its next-mask table: row i is the
law of the mask state i appends. Every step works on arrays of state
indices or of their digit rows: for every m, one ``kernels.coordinate_law``
call and one ``kernels.mask_law`` call (the sampler's exact law) fill the
table, one such pair per warm-up length finds the fresh starts, and the
recurrent-class search is a breadth-first search over the table's positive
entries. The stationary law, deviation curves and mixing times read the
table at C(d,m) operations per state and column; the dense P is built only
on request. The law reads only counts, so relabelling coordinates maps the
chain onto itself: deviation curves and mixing times step one start column
per orbit of the recurrent class, not one per state. A deviation
max|x - pi| is one contiguous pass over x against pi repeated once per
start. Deviation curves compute it after every step. mixing_time, the one
producer of a mixing time and of its stall and cap errors, computes it once
per block of 8 steps, since the exact deviation never increases, and
replays step by step only the block that first ends at or below the
threshold.

Each chain is solved once. Its first read of ``ChainModel.stationary``
(through ``stationary_distribution``, ``mixing_time`` or ``deviation_curve``)
finds the recurrent class and runs the power iteration; its first read of
``ChainModel.starts`` finds the start orbits. Both are cached on the chain,
their arrays read-only, and shared by every later reader; a solve that
raises caches nothing. So a chain's ``table`` must not change after its
first solve.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations, count, islice

import numpy as np

from . import kernels
from .compressors import SPARSIFYING_KINDS, validate_parameters
from .errors import (
    InvalidArgumentError,
    NonErgodicError,
    NumericalError,
    TooLargeError,
)

# the most entries (64 MB of float64) of any array sized from a chain; each
# is checked by _check_entries before it is allocated
ARRAY_CAP = 2**23

_MASK_LAW_MAX_M = 6

# the exact deviation never increases, so when it has gone this many steps
# without a new minimum it sits on its rounding floor and the mixing time
# stops; mixing_time looks for that minimum only among the deviations it
# checks, one per block of _CHECK_STEPS steps
_STALL_STEPS = 1000

# mixing_time checks the deviation at the end of each block of this many
# steps; on the five chains of the benchmark's chain workload (one BLAS
# thread), blocks of 4, 16 and 32 took about 2%, 1% and 9% more CPU time
# than blocks of 8
_CHECK_STEPS = 8

# power iteration stops once its residual ||pi P - pi||_1 is at most
# STATIONARY_TOL, and raises NumericalError after STATIONARY_MAX_ITER steps
STATIONARY_TOL = 1e-12
STATIONARY_MAX_ITER = 10**6

# the most steps mixing_time takes before it raises NumericalError, and the
# largest t_max of a deviation curve
MIXING_STEPS_CAP = 10**6

# the most history sizes optimal_history_size searches when no K_max bounds
# them (alpha up to about 10^6); the search takes about 0.5 s per 10^6 sizes
HISTORY_SEARCH_CAP = 10**6

# the most trials monte_carlo_hitting_time runs: it keeps one int64 time per
# trial, so this bounds that array at 80 MB (criterion 3 runs 10^6)
HITTING_TRIALS_CAP = 10**7

# the most steps one hitting-time trial runs; a trial that has not hit by
# then makes monte_carlo_hitting_time raise NumericalError
HITTING_STEPS_CAP = 10**7


def _check_entries(size, what):
    """Raises TooLargeError, naming `what`, for more than ARRAY_CAP entries."""
    if size > ARRAY_CAP:
        raise TooLargeError(size, ARRAY_CAP, f"{what}: {size} entries")


def _check_mask_size(m):
    if m > _MASK_LAW_MAX_M:
        raise InvalidArgumentError(
            f"the mask law sums m! orderings; m={m} exceeds {_MASK_LAW_MAX_M}")


def sequential_mask_law(p, m):
    """Exact law of a size-m mask under sequential weighted draws without
    replacement from p: the one-row view of kernels.mask_law. Returns
    {mask tuple: probability} over the masks inside p's support."""
    _check_mask_size(m)
    p = np.asarray(p, dtype=np.float64)
    masks = list(combinations(np.flatnonzero(p > 0.0).tolist(), m))
    law = kernels.mask_law(p[None], np.array(masks, np.int64).reshape(len(masks), m))
    return dict(zip(masks, law[0]))


@dataclass
class ChainModel:
    kind: str
    d: int
    m: int
    K: int
    b: float
    activation: str
    masks: np.ndarray   # (C(d,m), m) int64, mask k's coordinates, lexicographic
    table: np.ndarray   # table[i, k] = P(state i appends mask k)

    @property
    def n_states(self):
        return len(self.table)

    @cached_property
    def stationary(self):
        """The StationaryResult of stationary_distribution, solved on the
        first read."""
        result = _power_iteration(self, recurrent_class(self))
        result.pi.flags.writeable = result.recurrent.flags.writeable = False
        return result

    @cached_property
    def starts(self):
        """One start state per orbit of the recurrent class (orbit_starts),
        found on the first read."""
        starts = orbit_starts(self, self.stationary.recurrent)
        starts.flags.writeable = False
        return starts

    def successor(self, state, k):
        """The state reached from `state` by appending mask k (ints or
        arrays). States are mixed-radix numbers of their mask indices, so
        state a*R + r (M = C(d,m), R = M^(K-1)) goes to r*M + k. The K=0
        chain is the one empty history, with M = R = 1."""
        n, M = self.table.shape
        return state % (n // M) * M + k

    @property
    def P(self):
        """The dense transition matrix, built on request from the table."""
        n, M = self.table.shape
        _check_entries(n * n, f"a dense P over {n} states")
        rows = np.arange(n)[:, None]
        P = np.zeros((n, n))
        P[rows, self.successor(rows, np.arange(M))] = self.table
        return P


@dataclass
class ErgodicityBound:
    """Envelope C * rho**t on the deviation from the stationary law; gap is
    1 - rho, computed without the cancellation that rounds rho to 1."""
    rho: float
    C: float
    gap: float


@dataclass(frozen=True)
class StationaryResult:
    pi: np.ndarray          # over all states; zero off the recurrent class
    recurrent: np.ndarray   # indices of the recurrent class
    n_unreachable: int
    iterations: int


def _next_mask_law(chain, histories):
    """Next-mask table rows for rows of mask indices (n, k), oldest first:
    row i is the law of the mask appended after histories[i]."""
    n = len(histories)
    # coordinate counts of each history: a bincount of row*d + coordinate
    flat = (np.arange(n)[:, None] * chain.d + chain.masks[histories].reshape(n, -1)).ravel()
    counts = np.bincount(flat, minlength=n * chain.d).reshape(n, chain.d)
    p = kernels.coordinate_law(chain.kind, chain.activation, chain.b, counts)
    return kernels.mask_law(p, chain.masks)


def build_transition_matrix(kind, d, m=1, K=1, b=50.0, activation="normalize",
                            joint_law=False):
    """Exact chain over K-tuples of masks for rand/banlast/kawasaki.

    Every kind, at every m, appends its next mask by the law the sampler
    draws from: kernels.coordinate_law, then the sequential-draw law
    kernels.mask_law. joint_law changes nothing; it is kept only so the
    benchmark's call still binds, and ROADMAP item A removes it. Raises
    TooLargeError, before any enumeration, when the largest array the chain
    sizes has more than ARRAY_CAP entries: the table, M^(K+1) with
    M = C(d,m); the window coordinates and orbit profiles, M^K (K m)^2; the
    mask membership, M d. Raises InvalidArgumentError when m > 6 (the law
    sums m! orderings).
    """
    if kind not in SPARSIFYING_KINDS:
        raise InvalidArgumentError(f"no Markov chain for compressor kind '{kind}'")
    validate_parameters(kind, d, m, K, b, activation, allow_nonergodic=True)
    M = math.comb(d, m)
    n = M ** K
    _check_entries(max(n * M, n * (K * m) ** 2, M * d),
                   f"the chain over {n} states of {M} masks" if K else
                   f"the one-step law of the K=0 chain has {M} masks")
    _check_mask_size(m)
    masks = np.fromiter(combinations(range(d), m), np.dtype((np.int64, m)), M)
    # K=0 is the one empty history, which moves to itself
    chain = ChainModel(kind, d, m, K, float(b), activation, masks, np.ones((1, 1)))
    if K:
        digits = np.arange(n)[:, None] // M ** np.arange(K - 1, -1, -1) % M
        chain.table = _next_mask_law(chain, digits)
    return chain


def _initial_states(chain):
    """Full histories reachable by warming up from an empty buffer, as
    sorted state indices."""
    M = len(chain.masks)
    histories = np.zeros((1, 0), np.int64)
    for _ in range(chain.K):
        rows, k = np.nonzero(_next_mask_law(chain, histories) > 0.0)
        histories = np.column_stack([histories[rows], k])
    return histories @ M ** np.arange(chain.K - 1, -1, -1)


def _bfs(start, src, dst, n):
    """Hop distances over the n states from the states `start` along the
    edges src -> dst; -1 where unreached."""
    dist = np.full(n, -1)
    dist[start] = 0
    level = 0
    while True:
        new = np.zeros(n, bool)
        new[dst[dist[src] == level]] = True
        new &= dist < 0
        if not new.any():
            return dist
        level += 1
        dist[new] = level


def recurrent_class(chain):
    """Indices of the class reachable from a fresh start, after verifying the
    chain restricted to it is irreducible and aperiodic."""
    src, k = np.nonzero(chain.table > 0.0)
    dst = chain.successor(src, k)
    n = chain.n_states
    reach = np.flatnonzero(_bfs(_initial_states(chain), src, dst, n) >= 0)
    # one class exactly when the root reaches every state and every state
    # reaches the root
    root = reach[:1]
    dist = _bfs(root, src, dst, n)
    if (dist[reach] < 0).any() or (_bfs(root, dst, src, n)[reach] < 0).any():
        raise NonErgodicError(
            f"reducible: the {len(reach)} reachable states are not one communicating class"
        )
    # tree edges add 0; every other class edge adds its cycle-length residual
    inside = dist[src] >= 0
    period = np.gcd.reduce(dist[src[inside]] + 1 - dist[dst[inside]])
    if period != 1:
        raise NonErgodicError(f"periodic with period {period}")
    return reach


def _shift_step(chain):
    """One chain step for column distributions: step(x, out) writes P^T x
    into out (both n or n x c) and returns out.

    State a*R + r moves to r*M + k (ChainModel.successor), so the table is
    read as W[r, k, a] = table[a*R + r, k] and a step costs n*M*c instead of
    n^2*c.
    """
    n, M = chain.table.shape
    R = n // M
    W = np.ascontiguousarray(chain.table.reshape(M, R, M).transpose(1, 2, 0))

    def step(x, out):
        np.matmul(W, x.reshape(M, R, -1).transpose(1, 0, 2), out=out.reshape(R, M, -1))
        return out

    return step


def stationary_distribution(chain):
    """Power iteration on the recurrent class; residual ||piP - pi||_1 <=
    STATIONARY_TOL within STATIONARY_MAX_ITER steps. The first call solves
    the chain; later calls return the same result (ChainModel.stationary)."""
    return chain.stationary


def _power_iteration(chain, cls):
    """The StationaryResult on the recurrent class cls, from its uniform law."""
    step = _shift_step(chain)
    pi = np.zeros(chain.n_states)
    pi[cls] = 1.0 / len(cls)
    prev = np.empty_like(pi)
    for it in range(1, STATIONARY_MAX_ITER + 1):
        pi, prev = step(pi, prev), pi
        residual = np.abs(pi[cls] - prev[cls]).sum()
        if residual <= STATIONARY_TOL:
            full = np.zeros(chain.n_states)
            full[cls] = pi[cls] / pi[cls].sum()
            return StationaryResult(full, cls, chain.n_states - len(cls), it)
    raise NumericalError(f"power iteration residual > {STATIONARY_TOL} "
                         f"after {STATIONARY_MAX_ITER} iterations")


def column_sum_defect(chain, recurrent):
    """max over class states j of |sum_{i in class} P[i, j] - 1|; 0 exactly
    when P on the class is doubly stochastic, as a uniform stationary law
    needs."""
    x = np.zeros(chain.n_states)
    x[recurrent] = 1.0
    sums = _shift_step(chain)(x, np.empty_like(x))
    return float(np.abs(sums[recurrent] - 1.0).max())


def newest_mask_marginal(chain, pi):
    """P(coordinate j in the newest mask) under pi, for every j; for K=0
    (memoryless) the one-step law from the empty history."""
    if chain.K == 0:
        newest = _next_mask_law(chain, np.zeros((1, 0), np.int64))[0]
    else:
        # the newest mask is a state's last digit
        newest = pi.reshape(-1, len(chain.masks)).sum(axis=0)
    # members[k, j] is True when mask k holds coordinate j
    members = np.zeros((len(chain.masks), chain.d), bool)
    members[np.arange(len(chain.masks))[:, None], chain.masks] = True
    return newest @ members


def orbit_starts(chain, recurrent):
    """The smallest state of each orbit of the recurrent class under
    relabelling coordinates, ascending.

    The coordinate law reads only counts, so relabelling coordinates maps
    the chain onto itself, and the class, reached from the symmetric empty
    history, onto itself. A coordinate's profile is the set of window slots
    whose mask holds it; two states share an orbit exactly when they hold
    the same multiset of profiles. Each of a state's K*m mask entries is
    tagged with its coordinate's profile, and the sorted tags are the
    orbit's key.
    """
    if chain.n_states == 1:  # K=0, or one mask
        return recurrent
    M, K = len(chain.masks), chain.K
    digits = recurrent[:, None] // M ** np.arange(K - 1, -1, -1) % M
    coords = chain.masks[digits].reshape(len(recurrent), K * chain.m)
    slot_bit = np.repeat(1 << np.arange(K - 1, -1, -1), chain.m)
    profile = ((coords[:, :, None] == coords[:, None, :]) * slot_bit).sum(axis=2)
    keys = np.sort(profile, axis=1)
    # a stable sort of the keys, first column most significant, puts each
    # orbit's smallest state first among its equal keys
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    first = np.ones(len(order), bool)
    first[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    return recurrent[np.sort(order[first])]


def _start_columns(chain):
    """(x, rep) for the deviation loops: x holds one column per start orbit
    and one row per state, each column a start's point mass, and rep is pi
    repeated once per start, in x's shape."""
    starts = chain.starts
    n, c = chain.n_states, len(starts)
    _check_entries(n * c, f"deviation columns of {n} states x {c} start orbits")
    rep = np.repeat(chain.stationary.pi, c).reshape(-1, c)
    x = np.zeros_like(rep)
    x[starts, np.arange(c)] = 1.0
    return x, rep


def _deviation(x, rep, scratch):
    """max |x - rep|, through scratch, a buffer of x's shape whose contents
    are not needed.

    pi is stored repeated once per start, so each deviation is one
    subtraction, abs and max over contiguous arrays. Each entry of x - pi is
    rounded once and abs and max are exact, so the value does not depend on
    the order of the reduction."""
    return np.abs(np.subtract(x, rep, out=scratch), out=scratch).max()


def _deviations(chain):
    """max over recurrent starts s and states j of |P^t(s, j) - pi_j|, for
    t = 0, 1, ...; x holds one column per start orbit and one row per
    state. Relabelling coordinates maps P^t(s, .) and pi onto P^t(g s, .)
    and pi, so every start of an orbit has the same deviation. Each
    deviation goes through the buffer the next step overwrites."""
    x, rep = _start_columns(chain)
    step = _shift_step(chain)
    out = np.empty_like(x)
    while True:
        yield _deviation(x, rep, out)
        x, out = step(x, out), x


def _checked_deviations(chain, threshold):
    """(t, deviation) pairs for mixing_time, t <= MIXING_STEPS_CAP: the
    deviation at the end of each block of _CHECK_STEPS steps while it is
    above threshold; then every step of the first block that ends at or
    below it, replayed from the block's first state, through its end.

    The exact deviation never increases, so the first step at or below
    threshold lies in that block. x keeps the block's first state while y
    and z take its later steps in turn; the three rotate at each block end,
    so no state is copied."""
    x, rep = _start_columns(chain)
    step = _shift_step(chain)
    y, z = np.empty_like(x), np.empty_like(x)
    for t in range(0, MIXING_STEPS_CAP, _CHECK_STEPS):
        n = min(_CHECK_STEPS, MIXING_STEPS_CAP - t)
        end, spare = step(x, y), z
        for _ in range(n - 1):
            end, spare = step(end, spare), end
        dev = _deviation(end, rep, spare)
        if dev <= threshold:
            for s in range(t + 1, t + n):
                x, y = step(x, y), x
                yield s, _deviation(x, rep, y)
            yield t + n, dev
            return
        yield t + n, dev
        x, y, z = end, x, spare


def _check_t_max(t_max):
    if t_max < 0:
        raise InvalidArgumentError(f"t_max must be >= 0, got {t_max}")
    if t_max > MIXING_STEPS_CAP:
        raise TooLargeError(t_max, MIXING_STEPS_CAP, f"a deviation curve to t_max={t_max}")


def deviation_curve(chain, t_max):
    """max over start states and entries of |P^t - pi| on the recurrent
    class, for t = 0..t_max. A t_max above MIXING_STEPS_CAP raises
    TooLargeError before the first step."""
    _check_t_max(t_max)
    return np.fromiter(_deviations(chain), dtype=np.float64, count=t_max + 1)


def mixing_time(chain, eps):
    """Smallest t >= 1 with max-start deviation ||P^t(s0,.) - pi||_inf <=
    eps*pi_min; t = 0 is not checked, so a chain that starts at pi gives 1.

    The deviation is checked once per _CHECK_STEPS steps, and the block
    that first ends at or below the threshold is replayed step by step, so
    the result is the first such t. Raises NumericalError after
    MIXING_STEPS_CAP steps, or sooner once the checked deviation has
    stalled on its rounding floor above the threshold."""
    if not eps > 0:  # NaN too
        raise InvalidArgumentError(f"eps must be positive, got {eps}")
    result = chain.stationary
    threshold = eps * result.pi[result.recurrent].min()
    # the stall window counts the t that were checked
    lowest, lowest_t = math.inf, 0
    for t, dev in _checked_deviations(chain, threshold):
        if dev <= threshold:
            return t
        if dev < lowest:
            lowest, lowest_t = dev, t
        elif t - lowest_t >= _STALL_STEPS:
            raise NumericalError(
                f"deviation stalled at {lowest:.3e} above eps*pi_min = {threshold:.3e}: "
                f"no new minimum in {_STALL_STEPS} steps, rounding sets its floor")
    raise NumericalError(f"chain not mixed to eps*pi_min after {MIXING_STEPS_CAP} steps")


def rho_bound_banlast(d, m, K):
    """Geometric ergodicity bound (rho, C=rho^-2) for the banlast chain;
    valid for d > (2K+1)m, K >= 1. Exact rational arithmetic."""
    if K < 1:
        raise InvalidArgumentError("bound needs K >= 1")
    if d <= (2 * K + 1) * m:
        raise InvalidArgumentError(
            f"out of regime: bound needs d > (2K+1)m = {(2 * K + 1) * m}, got d={d}"
        )
    ratio = Fraction(math.comb(d - 2 * K * m, m), math.comb(d - K * m, m) ** 2)
    q = float(ratio ** K)
    rho = math.sqrt(1.0 - q)
    return ErgodicityBound(rho, rho ** -2, -math.expm1(0.5 * math.log1p(-q)))


def rho_bound_kawasaki_normalize(d, m, K, b):
    """Geometric ergodicity bound (rho, C=rho^-1) for kawasaki with the
    normalize activation."""
    if not b > 1:
        raise InvalidArgumentError("forgetting rate b must exceed 1")
    if d < m or m < 1:
        raise InvalidArgumentError(f"need 1 <= m <= d, got m={m}, d={d}")
    if K < 1:
        raise InvalidArgumentError("bound needs K >= 1")
    try:
        bK = b ** K
    except OverflowError:  # a finite b whose power leaves the float range
        bK = math.inf
    if bK == math.inf:
        raise InvalidArgumentError(f"bound needs a finite b**K, got b={b:g}, K={K}")
    base = d * bK - m * (bK - 1.0)
    gap = base ** (-m * K)
    rho = 1.0 - gap
    return ErgodicityBound(rho, 1.0 / rho, gap)


def expected_hitting_time_randm(alpha):
    """Mean steps for a fixed coordinate to enter a uniform size-m mask,
    alpha = d/m."""
    if alpha < 1:
        raise InvalidArgumentError("alpha = d/m must be >= 1")
    return float(alpha)


def expected_hitting_time_banlast(alpha, K):
    """Closed-form banlast hitting-time estimate, valid for alpha > K+1.

    Two-part sum: exact warm-up hazards for the first K steps plus a
    geometric tail at the full-ban rate. Note the tail discounts by
    (1-1/(alpha-K))^K rather than the warm-up survival, so this value is an
    optimistic estimate of the fresh-start process simulated by
    monte_carlo_hitting_time; see banlast_hitting_time_exact for the exact
    mean of that process.
    """
    _check_banlast_regime(alpha, K)
    return next(islice(_banlast_estimates(alpha), K, None))


def _banlast_estimates(alpha):
    """expected_hitting_time_banlast(alpha, K) for K = 0, 1, 2, ...: the
    warm-up sum `head` and its `survival` grow by one step from each K to
    the next, and each K adds its own tail. A value holds while
    alpha > K + 1; the caller stops drawing there."""
    head = 0.0
    survival = 1.0
    for K in count():
        yield head + alpha * (1.0 - 1.0 / (alpha - K)) ** K
        head += (K + 1) * survival / (alpha - K)
        survival *= 1.0 - 1.0 / (alpha - K)


def _check_banlast_regime(alpha, K):
    if K < 0:
        raise InvalidArgumentError("K must be non-negative")
    if alpha <= K + 1:
        raise InvalidArgumentError(
            f"out of regime: need alpha > K+1, got alpha={alpha}, K={K}"
        )


def banlast_hitting_time_exact(alpha, K):
    """Exact mean hitting time of the fresh-start ban process.

    Hazard at step s is 1/(alpha - min(s-1, K)): nothing is banned at the
    first step and the ban window then fills one mask per step. Summing the
    survival function gives
        E = (K+2) - (K+1)(K+2)/(2 alpha) + (alpha-K-1)^2 / alpha,
    which reduces to alpha at K=0 and matches simulation for all K.
    """
    _check_banlast_regime(alpha, K)
    return (K + 2) - (K + 1) * (K + 2) / (2.0 * alpha) + (alpha - K - 1) ** 2 / alpha


def optimal_history_size(alpha, K_max=None):
    """argmin over K = 0..ceil(alpha)-2, and K <= K_max if given, of
    expected_hitting_time_banlast(alpha, K); ties break toward smaller K.
    One pass extends the estimate from each K to the next. Without K_max,
    more than HISTORY_SEARCH_CAP sizes raise TooLargeError before the
    search; a negative K_max is an InvalidArgumentError."""
    if not alpha > 2 or not math.isfinite(alpha):
        raise InvalidArgumentError(
            f"need a finite alpha > 2 for a non-trivial history, got {alpha}")
    hi = math.ceil(alpha) - 2
    if K_max is not None:
        if K_max < 0:
            raise InvalidArgumentError(f"need K_max >= 0, got {K_max}")
        hi = min(hi, K_max)
    elif hi + 1 > HISTORY_SEARCH_CAP:
        raise TooLargeError(hi + 1, HISTORY_SEARCH_CAP,
                            f"alpha={alpha:g} gives {hi + 1:.4g} history sizes to search")
    values = islice(_banlast_estimates(alpha), max(hi, 0) + 1)
    return min(enumerate(values), key=lambda kv: kv[1])[0]


def monte_carlo_hitting_time(kind, d, m=1, K=0, b=50.0, activation="normalize",
                             target=0, trials=10**5, seed=0):
    """Simulates fresh compressor runs from an empty history and counts steps
    until `target` appears in a mask. Returns (mean, stderr). A kind with no
    mask chain (identity, natural, permk) is an InvalidArgumentError; more
    than HITTING_TRIALS_CAP trials raise TooLargeError before anything is
    allocated; a trial still running after HITTING_STEPS_CAP steps raises
    NumericalError."""
    if trials < 1:
        raise InvalidArgumentError("trials must be >= 1")
    if seed < 0:
        raise InvalidArgumentError(f"seed must be >= 0, got {seed}")
    if trials > HITTING_TRIALS_CAP:
        raise TooLargeError(trials, HITTING_TRIALS_CAP, f"{trials} hitting-time trials")
    if not 0 <= target < d:
        raise InvalidArgumentError(f"target {target} outside [0, {d})")
    validate_parameters(kind, d, m, K, b, activation, allow_nonergodic=True)
    if kind not in SPARSIFYING_KINDS:
        raise InvalidArgumentError(f"no hitting-time simulation for kind '{kind}'")
    times, n_capped = kernels.simulate_hitting_times(
        np.random.Generator(np.random.PCG64(seed)), kind, activation, d, m, K, float(b),
        target, trials, HITTING_STEPS_CAP)
    if n_capped:
        raise NumericalError(f"{n_capped} of {trials} trials hit the {HITTING_STEPS_CAP}-step cap")
    mean = float(times.mean())
    stderr = float(times.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return mean, stderr
