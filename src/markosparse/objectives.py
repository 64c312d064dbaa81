"""LIBSVM parsing, sharding, and the regularized logistic-regression objective.

The distributed objective is f(x) = (1/n) sum_i f_i(x) with per-shard

    f_i(w) = (1/|S_i|) sum_{s in S_i} log(1 + exp(-y_s <w, x_s>)) + lambda ||w||^2

(no 1/2 on the regularizer, so the strong-convexity constant is 2*lambda).
Also provides separable_binary_dataset, the generator with which
scripts/generate_data.py rebuilds the shipped dataset.

`parse_libsvm` reads LIBSVM text with one grammar, line by line: each line
is split once, its label checked against the label encodings that still
hold every label so far, then each idx:val token in turn, so the first bad
line raises its own ParseError. A table of converted tokens, cleared every
_BLOCK_LINES lines to bound its memory, converts each distinct token of a
block once.

`ShardedProblem.shard_loss_grads` evaluates every shard at once, bit for
bit as each shard alone. All rows are stored once, each row's values times
its -y (exact, since y is +-1), and two sparse matrices share that data
array: one with each shard's own columns gives every row's -y<w, x> in one
matvec with no label multiply, and a block-diagonal one whose transpose
gives every shard's gradient in one more. Shard losses are summed by runs
of consecutive equal-size shards, each run one (shards, size) array summed
along its rows: numpy's pairwise sum of each shard's slice, as one shard
alone sums it. `ShardedProblem.shard_grads` runs the gradient half alone,
for a point whose losses nobody reads. The mean over shards adds their rows
one after another (`_sum_rows`).

scipy is imported inside the functions that use it (parsing, the stacked
shards, the loss functions and the generator), not at module level:
importing this module, and the harness and CLI that import it, then loads
no scipy, and the chain commands start without it.
"""

from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby

import numpy as np

from .errors import InvalidArgumentError, ParseError

# accepted raw label encodings as (negative, positive), in precedence order
_LABEL_ENCODINGS = ((-1.0, 1.0), (0.0, 1.0), (1.0, 2.0))
# the largest 1-based index an int32 column index holds
_MAX_INDEX = 2**31
# lines between clears of the parser's token table; bounds its memory
_BLOCK_LINES = 256


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
    `dim` forces a larger one. The first malformed line raises its
    ParseError: its label is checked first, then each idx:val token in turn.
    """
    import scipy.sparse as sp

    lines = _split_lines(source) if isinstance(source, str) else source
    encodings = _LABEL_ENCODINGS  # those that hold every label so far
    # values as C doubles, so no float object outlives its block's features
    labels, cols, vals, indptr = [], [], array("d"), [0]
    features = {}  # token -> (column, value), each distinct token converted once
    for i, line in enumerate(lines):
        if i % _BLOCK_LINES == 0:
            features.clear()
        tokens = line.split()
        if not tokens:
            continue
        line_no = i + 1
        try:
            label = float(tokens[0])
        except ValueError:
            raise ParseError(line_no, f"bad label token {tokens[0]!r}") from None
        encodings = [accepted for accepted in encodings if label in accepted]
        if not encodings:
            raise ParseError(line_no, f"label {tokens[0]!r} does not fit any accepted encoding")
        prev = -1
        for tok in tokens[1:]:
            pair = features.get(tok)
            if pair is None:
                pair = features[tok] = _feature(line_no, tok)
            col, val = pair
            if col <= prev:
                raise ParseError(line_no, f"indices not strictly increasing at {tok!r}")
            prev = col
            cols.append(col)
            vals.append(val)
        labels.append(label)
        indptr.append(len(cols))
    del features
    cols = np.array(cols, dtype=np.int32)
    max_idx = int(cols.max()) + 1 if cols.size else 0
    d = max_idx if dim is None else dim
    if dim is not None and dim < max_idx:
        raise InvalidArgumentError(f"dim={dim} smaller than max feature index {max_idx}")
    X = sp.csr_matrix((np.array(vals, dtype=np.float64), cols, np.array(indptr, dtype=np.int32)),
                      shape=(len(labels), d))
    positive = encodings[0][1]
    return Dataset(X, np.where(np.array(labels) == positive, 1.0, -1.0), d)


def _split_lines(text):
    # as reading a file splits it: at \n, \r\n or \r
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _feature(line_no, tok):
    """(0-based column, value) of an idx:val token on line `line_no`, or
    that line's ParseError."""
    idx_s, sep, val_s = tok.partition(":")
    if not sep:
        raise ParseError(line_no, f"expected idx:val, got {tok!r}")
    try:
        idx = int(idx_s)
        val = float(val_s)
    except ValueError:
        raise ParseError(line_no, f"bad feature token {tok!r}") from None
    if idx < 1:
        raise ParseError(line_no, f"index {idx} must be >= 1")
    if idx > _MAX_INDEX:
        raise ParseError(line_no, f"index {idx} must be <= {_MAX_INDEX}")
    return idx - 1, val


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


def _sum_rows(a):
    """a's rows added one after another, in order: the last row of
    np.add.accumulate(a), bit for bit, without the running sums before it.

    numpy reduces the leading axis of a C-ordered (n, d > 1) array element
    by element, in row order (at (10, 112) in 1.5 against 6.2 us for the
    running sum). It starts from the initial value, which is -0.0, not the
    identity +0.0: -0.0 + x is x for every x, so a column of -0.0 keeps its
    sign. One column, a vector or any other layout would make the reduced
    axis the contiguous one, which numpy sums pairwise, so those keep the
    running sum."""
    if a.ndim == 2 and a.shape[1] > 1 and a.flags.c_contiguous:
        return np.add.reduce(a, axis=0, initial=-0.0)
    return np.add.accumulate(a)[-1]


def mean_loss_grad(losses, grads):
    """The mean objective from every shard's (loss, grad): rows summed one
    after another in shard order, then divided by the shard count."""
    n = len(losses)
    return float(_sum_rows(losses) / n), _sum_rows(grads) / n


@dataclass(frozen=True)
class ShardedProblem:
    """n per-worker shards plus the shared L2 coefficient."""
    shards: tuple
    lam: float

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

    def shard_loss_grads(self, w):
        """Every shard's (loss, grad) at w in one stacked evaluation: losses
        (n,) and gradients (n, d), row i equal bit for bit to shard i
        evaluated alone."""
        A, _, runs, sizes, _ = self._stacked
        w = np.asarray(w, dtype=np.float64)
        t = A @ w
        terms = np.logaddexp(0.0, t)
        # np.sum adds each row of a reshaped run pairwise, as one shard's
        # own slice sums alone
        losses = np.empty(self.n)
        for i, j, a, b, size in runs:
            terms[a:b].reshape(j - i, size).sum(axis=1, out=losses[i:j])
        losses /= sizes
        losses += self.lam * (w @ w)
        return losses, self._grads(w, t)

    def shard_grads(self, w):
        """Every shard's gradient at w (n, d), the gradients of
        shard_loss_grads bit for bit, without the losses."""
        w = np.asarray(w, dtype=np.float64)
        return self._grads(w, self._stacked[0] @ w)

    def _grads(self, w, t):
        # every shard's gradient from t = A @ w, which it overwrites
        from scipy.special import expit

        _, BT, _, _, rows = self._stacked
        coeff = expit(t, out=t)
        coeff /= rows
        grads = (BT @ coeff).reshape(self.n, -1)
        grads += 2.0 * self.lam * w
        return grads

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
