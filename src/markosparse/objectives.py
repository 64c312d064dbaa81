"""LIBSVM parsing, sharding, and the regularized logistic-regression objective.

The distributed objective is f(x) = (1/n) sum_i f_i(x) with per-shard

    f_i(w) = (1/|S_i|) sum_{s in S_i} log(1 + exp(-y_s <w, x_s>)) + lambda ||w||^2

(no 1/2 on the regularizer, so the strong-convexity constant is 2*lambda).
Also provides empirical estimators for the smoothness and similarity
constants and small synthetic problem generators used by tests and the
experiment harness.

`ShardedProblem.shard_loss_grads` evaluates every shard at once, bit for
bit as each shard alone. All rows are stored once, each row's values times
its -y (exact, since y is +-1), and two sparse matrices share that data
array: one with each shard's own columns gives every row's -y<w, x> in one
matvec with no label multiply, and a block-diagonal one whose transpose
gives every shard's gradient in one more. Shard losses are summed by runs
of consecutive equal-size shards, each run one (shards, size) array summed
along its rows: numpy's pairwise sum of each shard's slice, as one shard
alone sums it.

scipy is imported inside the functions that use it (parsing, the stacked
shards, the loss functions and the generators), not at module level:
importing this module, and the harness and CLI that import it, then loads
no scipy, and the chain commands start without it.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, groupby

import numpy as np

from .errors import InvalidArgumentError, NumericalError, ParseError

# accepted raw label encodings as (negative, positive), in precedence order
_LABEL_ENCODINGS = ((-1.0, 1.0), (0.0, 1.0), (1.0, 2.0))
# the largest 1-based index an int32 column index holds
_MAX_INDEX = 2**31
# lines parsed per block of array passes; bounds the parse's scratch memory
_BLOCK_LINES = 256
_COLON, _SPACE = ord(":"), ord(" ")


@dataclass(frozen=True)
class Dataset:
    """Sparse rows (CSR), labels in {-1,+1}, and the feature dimension."""
    X: "scipy.sparse.csr_matrix"
    y: np.ndarray
    d: int

    @property
    def n_rows(self):
        return self.X.shape[0]

    def row_pairs(self, i):
        """(index, value) pairs of row i, 0-based, increasing index."""
        start, end = self.X.indptr[i], self.X.indptr[i + 1]
        return list(zip(self.X.indices[start:end].tolist(),
                        self.X.data[start:end].tolist()))


def parse_libsvm(source, dim=None):
    """Parses LIBSVM text: `<label> <idx>:<val> ...`, 1-based strictly
    increasing indices. Accepts a string or any iterable of lines; a string
    splits into lines as a file does, at \\n, \\r\\n or \\r.

    Raw labels {-1,+1}, {0,1} and {1,2} are accepted, mapped so the larger
    label becomes +1; the feature dimension is the largest index seen unless
    `dim` forces a larger one. A malformed line raises the ParseError of the
    first bad line, as reading line by line would.
    """
    import scipy.sparse as sp

    lines = _split_lines(source) if isinstance(source, str) else list(source)
    blocks = []
    # at least one block, so that empty input still gives (empty) arrays
    for start in range(0, len(lines) or 1, _BLOCK_LINES):
        *block, stop = _parse_block(lines[start:start + _BLOCK_LINES], start)
        blocks.append(block)
        if stop is not None:
            break
    labels, counts, cols, val, row_line = map(np.concatenate, zip(*blocks))
    n = len(labels)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    # each column against the one before it in its row, -1 at a row start
    prev = np.full_like(cols, -1)
    prev[1:] = cols[:-1]
    prev[indptr[:-1][counts > 0]] = -1
    bad = np.flatnonzero(cols <= prev)
    bad_row = np.searchsorted(indptr, bad[0], side="right") - 1 if bad.size else n
    # each encoding's first row outside it (n if none): the labels fit no
    # encoding from the row where the last one fails
    misfit = [np.append(np.isin(labels, accepted), False).argmin()
              for accepted in _LABEL_ENCODINGS]
    row = min(max(misfit), bad_row)
    if row < n or stop is not None:
        line = row_line[row] if row < n else stop
        raise _line_error(line + 1, lines[line].split(), set(labels[:row].tolist()))
    max_idx = int(cols.max()) + 1 if cols.size else 0
    d = max_idx if dim is None else dim
    if dim is not None and dim < max_idx:
        raise InvalidArgumentError(f"dim={dim} smaller than max feature index {max_idx}")
    positive = next(pos for (_, pos), out in zip(_LABEL_ENCODINGS, misfit) if out == n)
    X = sp.csr_matrix((val, cols, indptr.astype(np.int32)), shape=(n, d))
    return Dataset(X, np.where(labels == positive, 1.0, -1.0), d)


def _split_lines(text):
    # as reading a file splits it: at \n, \r\n or \r
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _parse_block(lines, start):
    """Array form of the non-empty lines among `lines`, which begin at line
    index `start`: labels (NaN where unreadable), feature counts, 0-based
    int32 columns (-1 where unreadable or out of range), values and each
    row's line index. Parsing stops at the first line with a token that is
    not `idx:val` with text on both sides of its one colon; the last item
    is that line's index, or None."""
    tokens = [line.split() for line in lines]
    at = np.flatnonzero(np.fromiter(map(len, tokens), np.int64, len(tokens)))
    rows = list(filter(None, tokens))
    labels = [t.pop(0) for t in rows]
    counts = np.fromiter(map(len, rows), np.int64, len(rows))
    text = " ".join(chain.from_iterable(rows))
    stop = None
    misplaced = _colon_misplaced(text)
    if misplaced.any():
        r = np.searchsorted(np.cumsum(counts), misplaced.argmax(), side="right")
        stop = start + at[r]
        at, labels, counts = at[:r], labels[:r], counts[:r]
        text = " ".join(chain.from_iterable(rows[:r]))
    del tokens, rows  # freed before the pieces are made, for peak memory
    pieces = text.replace(":", " ").split()
    idx_s, val_s = pieces[0::2], pieces[1::2]
    cols, _ = _converted(idx_s, _column, -1, np.int32)
    val, unreadable = _converted(val_s, float, 0.0, np.float64)
    if unreadable:  # marks the column of the first unreadable value as bad
        cols[min(map(val_s.index, unreadable))] = -1
    return _converted(labels, float, math.nan, np.float64)[0], counts, cols, val, at + start, stop


def _colon_misplaced(text):
    """For each space-separated token of `text`, whether it does not hold
    exactly one colon with a character on either side."""
    b = np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    if not b.size:
        return np.zeros(0, dtype=bool)
    space = np.flatnonzero(b == _SPACE)
    colon = b == _COLON
    first = np.concatenate(([0], space + 1))
    last = np.concatenate((space - 1, [b.size - 1]))
    return (np.add.reduceat(colon, first, dtype=np.intp) != 1) | colon[first] | colon[last]


def _column(s):
    # -1, which the order check flags, for an index out of range
    i = int(s)
    return i - 1 if 1 <= i <= _MAX_INDEX else -1


def _converted(strings, convert, fallback, dtype):
    """convert(s) for every string as a `dtype` array, called once per
    distinct string, with `fallback` where it raises ValueError; and the
    strings that raised."""
    table, failed = {}, []
    for s in set(strings):
        try:
            table[s] = convert(s)
        except ValueError:
            table[s] = fallback
            failed.append(s)
    return np.fromiter(map(table.__getitem__, strings), dtype, len(strings)), failed


def _line_error(line_no, tokens, seen):
    """The ParseError for one line read after lines whose labels are
    `seen`: its label first, then each idx:val token in turn. None if the
    line is well formed."""
    try:
        label = float(tokens[0])
    except ValueError:
        return ParseError(line_no, f"bad label token {tokens[0]!r}")
    if not any((seen | {label}) <= set(accepted) for accepted in _LABEL_ENCODINGS):
        return ParseError(line_no, f"label {tokens[0]!r} does not fit any accepted encoding")
    prev = 0
    for tok in tokens[1:]:
        idx_s, sep, val_s = tok.partition(":")
        if not sep:
            return ParseError(line_no, f"expected idx:val, got {tok!r}")
        try:
            idx = int(idx_s)
            float(val_s)
        except ValueError:
            return ParseError(line_no, f"bad feature token {tok!r}")
        if idx < 1:
            return ParseError(line_no, f"index {idx} must be >= 1")
        if idx > _MAX_INDEX:
            return ParseError(line_no, f"index {idx} must be <= {_MAX_INDEX}")
        if idx <= prev:
            return ParseError(line_no, f"indices not strictly increasing at {tok!r}")
        prev = idx
    return None


def load_libsvm(path, dim=None):
    """Parses a UTF-8 LIBSVM file; bytes that are not UTF-8 raise the
    ParseError of their line, unless an earlier line is malformed."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        before = _split_lines(data[:err.start].decode("utf-8"))
        parse_libsvm(before[:-1])  # raises first if an earlier line is bad
        raise ParseError(len(before), f"invalid UTF-8 byte 0x{data[err.start]:02x}") from None
    del data  # the text replaces it
    return parse_libsvm(text, dim=dim)


def serialize_libsvm(dataset):
    """Canonical text form: labels 1/-1, 1-based indices, repr() values."""
    out = []
    for i in range(dataset.n_rows):
        parts = ["1" if dataset.y[i] > 0 else "-1"]
        parts += [f"{idx + 1}:{val!r}" for idx, val in dataset.row_pairs(i)]
        out.append(" ".join(parts))
    return "\n".join(out) + ("\n" if out else "")


def mean_loss_grad(losses, grads):
    """The mean objective from every shard's (loss, grad): rows summed one
    after another in shard order, then divided by the shard count."""
    n = len(losses)
    return float(np.add.accumulate(losses)[-1] / n), np.add.accumulate(grads)[-1] / n


@dataclass(frozen=True)
class ShardedProblem:
    """n per-worker shards plus the shared L2 coefficient; smoothness and
    similarity constants are None until estimated."""
    shards: tuple
    lam: float
    L_i: tuple = None
    L_global: float = None
    L_sq: float = None
    mu: float = None
    delta_sq: float = None
    sigma_sq: float = None

    @property
    def n(self):
        return len(self.shards)

    @property
    def d(self):
        return self.shards[0].d

    @cached_property
    def _stacked(self):
        # every shard's rows one after another, each row's values stored
        # times -y (exact, as y is +-1) in one data array. Two matrices share
        # it and its indptr: A keeps each shard's columns, so A @ w is every
        # row's -y<w, x>; B moves shard i's features to columns i*d..i*d+d-1,
        # and its transpose (a CSC view on the same arrays, not a copy) sums
        # each shard's rows into its own d gradient entries. Also the runs of
        # consecutive equal-size shards as (first shard, last + 1, first
        # row, last + 1, size), the shard sizes and each row's divisor.
        import scipy.sparse as sp

        Xs = [s.X for s in self.shards]
        sizes = np.array([s.n_rows for s in self.shards])
        y = np.concatenate([s.y for s in self.shards])
        counts = np.concatenate([np.diff(X.indptr) for X in Xs])
        indptr = np.concatenate(([0], np.cumsum(counts)))
        data = np.concatenate([X.data for X in Xs])
        data *= np.repeat(-y, counts)
        cols = np.concatenate([X.indices for X in Xs])
        A = sp.csr_matrix((data, cols, indptr), shape=(len(y), self.d))
        shifted = np.repeat(np.arange(self.n) * self.d, [X.nnz for X in Xs])
        shifted += cols
        B = sp.csr_matrix((A.data, shifted, A.indptr), shape=(len(y), self.n * self.d))
        runs, shard, row = [], 0, 0
        for size, group in groupby(sizes.tolist()):
            k = len(list(group))
            runs.append((shard, shard + k, row, row + k * size, size))
            shard, row = shard + k, row + k * size
        return A, B.T, runs, sizes, np.repeat(sizes.astype(np.float64), sizes)

    def shard_loss_grad(self, w, i):
        return loss_and_gradient(w, self.shards[i], self.lam)

    def shard_loss_grads(self, w):
        """Every shard's (loss, grad) at w in one stacked evaluation: losses
        (n,) and gradients (n, d), row i equal bit for bit to
        shard_loss_grad(w, i)."""
        from scipy.special import expit

        A, BT, runs, sizes, rows = self._stacked
        w = np.asarray(w, dtype=np.float64)
        t = A @ w
        terms = np.logaddexp(0.0, t)
        # np.sum adds each row of a reshaped run pairwise, as one shard's
        # slice sums in loss_and_gradient
        losses = np.empty(self.n)
        for i, j, a, b, size in runs:
            terms[a:b].reshape(j - i, size).sum(axis=1, out=losses[i:j])
        losses /= sizes
        losses += self.lam * (w @ w)
        coeff = expit(t, out=t)
        coeff /= rows
        grads = (BT @ coeff).reshape(self.n, -1)
        grads += 2.0 * self.lam * w
        return losses, grads

    def full_loss_grad(self, w):
        return mean_loss_grad(*self.shard_loss_grads(w))


def partition(dataset, n, rng, lam=0.0):
    """Shuffles rows with the given seed, splits into n contiguous shards
    whose sizes differ by at most one."""
    if n < 1:
        raise InvalidArgumentError("need n >= 1 workers")
    if n > dataset.n_rows:
        raise InvalidArgumentError(f"cannot split {dataset.n_rows} rows across {n} workers")
    if lam < 0:
        raise InvalidArgumentError("lambda must be non-negative")
    rng = np.random.default_rng(rng)
    order = rng.permutation(dataset.n_rows)
    base, extra = divmod(dataset.n_rows, n)
    shards = []
    start = 0
    for i in range(n):
        size = base + (1 if i < extra else 0)
        take = order[start:start + size]
        shards.append(Dataset(dataset.X[take], dataset.y[take], dataset.d))
        start += size
    return ShardedProblem(tuple(shards), lam)


def loss_and_gradient(w, dataset, lam):
    """Value and exact gradient of one shard objective at w."""
    from scipy.special import expit

    w = np.asarray(w, dtype=np.float64)
    z = dataset.X @ w
    t = -dataset.y * z
    rows = dataset.n_rows
    loss = float(np.logaddexp(0.0, t).sum() / rows + lam * (w @ w))
    coeff = -dataset.y * expit(t) / rows
    grad = dataset.X.T @ coeff + 2.0 * lam * w
    return loss, np.asarray(grad)


def estimate_smoothness(dataset, lam, tol=1e-8, max_iter=10_000):
    """L_i = lambda_max(X^T X)/(4 |shard|) + 2 lambda, largest eigenvalue by
    power iteration to relative tolerance tol."""
    if dataset.n_rows == 0:
        raise InvalidArgumentError("empty shard")
    d = dataset.d
    # deterministic non-uniform start so no single eigenvector is missed
    v = 1.0 + np.arange(d) / max(d, 1)
    v /= np.linalg.norm(v)
    eig = 0.0
    for _ in range(max_iter):
        u = dataset.X @ v
        new = dataset.X.T @ u
        norm = np.linalg.norm(new)
        if norm == 0.0:
            return 2.0 * lam
        new_eig = float(v @ new)
        v = np.asarray(new) / norm
        if abs(new_eig - eig) <= tol * max(abs(new_eig), 1e-30):
            return new_eig / (4.0 * dataset.n_rows) + 2.0 * lam
        eig = new_eig
    raise NumericalError(f"power iteration did not converge within {max_iter} iterations")


def strong_convexity_constant(lam):
    """mu = 2*lambda from the ||w||^2 regularizer; logistic part is convex."""
    if lam <= 0:
        raise InvalidArgumentError("objective is strongly convex only for lambda > 0")
    return 2.0 * lam


def estimate_similarity(problem, probes):
    """Conservative (delta^2, sigma^2) envelope for the gradient-similarity
    inequality ||grad f_i - grad f||^2 <= delta^2 ||grad f||^2 + sigma^2.

    Over all (shard, probe) pairs let a = ||grad f||^2, b = ||grad f_i -
    grad f||^2. sigma^2 is the max b among pairs with a below the median;
    delta^2 is the max of (b - sigma^2)/a over the rest, clamped at 0. This
    is an empirical estimate, not a certificate.
    """
    probes = list(probes)
    if len(probes) < 2:
        raise InvalidArgumentError("need at least 2 probe points")
    a_vals = []
    b_vals = []
    for x in probes:
        losses, grads = problem.shard_loss_grads(x)
        _, g_full = mean_loss_grad(losses, grads)
        a = float(g_full @ g_full)
        for g_i in grads:
            diff = g_i - g_full
            a_vals.append(a)
            b_vals.append(float(diff @ diff))
    a_vals = np.array(a_vals)
    b_vals = np.array(b_vals)
    med = float(np.median(a_vals))
    # zero-gradient probes cannot inform delta, so they feed the sigma pool
    low = (a_vals < med) | (a_vals == 0.0)
    sigma_sq = float(b_vals[low].max()) if low.any() else 0.0
    rest = ~low
    if rest.any():
        delta_sq = float(np.max((b_vals[rest] - sigma_sq) / a_vals[rest]))
        delta_sq = max(delta_sq, 0.0)
    else:
        delta_sq = 0.0
    return delta_sq, sigma_sq


def default_probes(problem, n_probes=8, seed=0, scale=1.0, trajectory=()):
    """Gaussian perturbations of w=0, optionally extended by iterates from a
    training trajectory."""
    rng = np.random.default_rng(seed)
    probes = [np.zeros(problem.d)]
    probes += [scale * rng.standard_normal(problem.d) for _ in range(n_probes - 1)]
    probes += [np.asarray(x) for x in trajectory]
    return probes


def estimate_constants(problem, probes=None, tol=1e-8):
    """Returns a copy of the problem with L_i, L_global, L_sq, mu and the
    similarity constants filled in."""
    L_i = tuple(estimate_smoothness(s, problem.lam, tol=tol) for s in problem.shards)
    L_global = float(np.mean(L_i))
    L_sq = float(np.mean(np.square(L_i)))
    mu = strong_convexity_constant(problem.lam) if problem.lam > 0 else None
    if probes is None:
        probes = default_probes(problem)
    delta_sq, sigma_sq = estimate_similarity(problem, probes)
    return replace(problem, L_i=L_i, L_global=L_global, L_sq=L_sq, mu=mu,
                   delta_sq=delta_sq, sigma_sq=sigma_sq)


class QuadraticProblem:
    """f_i(x) = 0.5 ||x - a_i||^2; the shard-gradient shifts relative to the
    mean objective sum to zero by construction. Used for exactness tests."""

    def __init__(self, centers):
        self.centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
        self.lam = 0.0

    @property
    def n(self):
        return self.centers.shape[0]

    @property
    def d(self):
        return self.centers.shape[1]

    def shard_loss_grad(self, w, i):
        diff = w - self.centers[i]
        return 0.5 * float((diff * diff).sum()), diff

    def shard_loss_grads(self, w):
        diffs = w - self.centers
        return 0.5 * (diffs * diffs).sum(axis=1), diffs

    def full_loss_grad(self, w):
        return mean_loss_grad(*self.shard_loss_grads(w))


def synthetic_binary_dataset(n_rows, d, nnz_per_row, seed, label_noise=0.5):
    """Sparse 0/1-feature dataset with labels from a planted linear rule plus
    Gaussian noise. Deterministic in seed."""
    import scipy.sparse as sp

    if not 1 <= nnz_per_row <= d:
        raise InvalidArgumentError("need 1 <= nnz_per_row <= d")
    rng = np.random.default_rng(seed)
    w_true = rng.standard_normal(d)
    indices = np.empty(n_rows * nnz_per_row, dtype=np.int32)
    for r in range(n_rows):
        cols = np.sort(rng.choice(d, size=nnz_per_row, replace=False))
        indices[r * nnz_per_row:(r + 1) * nnz_per_row] = cols
    data = np.ones(n_rows * nnz_per_row)
    indptr = np.arange(0, (n_rows + 1) * nnz_per_row, nnz_per_row, dtype=np.int32)
    X = sp.csr_matrix((data, indices, indptr), shape=(n_rows, d))
    margin = X @ w_true / math.sqrt(nnz_per_row) + label_noise * rng.standard_normal(n_rows)
    y = np.where(margin >= 0, 1.0, -1.0)
    return Dataset(X, y, d)


def separable_binary_dataset(n_rows, d, nnz_per_row, seed):
    """Sparse 0/1-feature dataset where each class draws its active columns
    from its own half of the feature space, mimicking categorical datasets
    with class-exclusive indicator features. Linearly separable, so worker
    gradients nearly agree at the regularized optimum. Deterministic in seed."""
    import scipy.sparse as sp

    half = d // 2
    if not 1 <= nnz_per_row <= half:
        raise InvalidArgumentError("need 1 <= nnz_per_row <= d // 2")
    rng = np.random.default_rng(seed)
    indices = np.empty(n_rows * nnz_per_row, dtype=np.int32)
    y = np.empty(n_rows)
    for r in range(n_rows):
        pos = rng.random() < 0.5
        cols = (0 if pos else half) + rng.choice(half, size=nnz_per_row, replace=False)
        cols.sort()
        indices[r * nnz_per_row:(r + 1) * nnz_per_row] = cols
        y[r] = 1.0 if pos else -1.0
    data = np.ones(n_rows * nnz_per_row)
    indptr = np.arange(0, (n_rows + 1) * nnz_per_row, nnz_per_row, dtype=np.int32)
    X = sp.csr_matrix((data, indices, indptr), shape=(n_rows, d))
    return Dataset(X, y, d)


def heterogeneous_problem(n, d, rows_per_shard, shift, lam, seed):
    """n shards of dense Gaussian rows whose feature means are shifted per
    shard, so worker gradients disagree at the optimum (sigma^2 > 0)."""
    import scipy.sparse as sp

    rng = np.random.default_rng(seed)
    w_true = rng.standard_normal(d) / math.sqrt(d)
    shards = []
    for i in range(n):
        center = shift * rng.standard_normal(d)
        rows = center + rng.standard_normal((rows_per_shard, d))
        margin = rows @ w_true + 0.5 * rng.standard_normal(rows_per_shard)
        y = np.where(margin >= 0, 1.0, -1.0)
        shards.append(Dataset(sp.csr_matrix(rows), y, d))
    return ShardedProblem(tuple(shards), lam)
