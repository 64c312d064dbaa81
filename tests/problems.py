"""Test problems: a quadratic objective and two synthetic logistic datasets,
plus the one-shard logistic oracle and a smoothness estimate.

Deterministic in their seeds. The package's own generator of the shipped
dataset, objectives.separable_binary_dataset, stays in src/ because
scripts/generate_data.py uses it.
"""

import math

import numpy as np
import scipy.sparse as sp

from markosparse.errors import InvalidArgumentError, NumericalError
from markosparse.objectives import Dataset, ShardedProblem, mean_loss_grad

# standard deviation of the Gaussian noise on synthetic_binary_dataset's margins
LABEL_NOISE = 0.5
# global_smoothness's power iteration stops at this relative change of its
# eigenvalue estimate, and raises NumericalError after SMOOTHNESS_MAX_ITER steps
SMOOTHNESS_TOL = 1e-8
SMOOTHNESS_MAX_ITER = 10_000


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

    def shard_grads(self, w):
        return w - self.centers

    def full_loss_grad(self, w):
        return mean_loss_grad(*self.shard_loss_grads(w))


def synthetic_binary_dataset(n_rows, d, nnz_per_row, seed):
    """Sparse 0/1-feature dataset with labels from a planted linear rule plus
    Gaussian noise of standard deviation LABEL_NOISE. Deterministic in seed."""
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
    margin = X @ w_true / math.sqrt(nnz_per_row) + LABEL_NOISE * rng.standard_normal(n_rows)
    y = np.where(margin >= 0, 1.0, -1.0)
    return Dataset(X, y, d)


def heterogeneous_problem(n, d, rows_per_shard, shift, lam, seed):
    """n shards of dense Gaussian rows whose feature means are shifted per
    shard, so worker gradients disagree at the optimum."""
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


def loss_and_gradient(w, dataset, lam):
    """Value and exact gradient of one shard objective at w; the oracle that
    ShardedProblem.shard_loss_grads matches bit for bit, row by row."""
    from scipy.special import expit

    w = np.asarray(w, dtype=np.float64)
    z = dataset.X @ w
    t = -dataset.y * z
    rows = dataset.n_rows
    loss = float(np.logaddexp(0.0, t).sum() / rows + lam * (w @ w))
    coeff = -dataset.y * expit(t) / rows
    grad = dataset.X.T @ coeff + 2.0 * lam * w
    return loss, np.asarray(grad)


def global_smoothness(problem):
    """L_global, the mean over shards of L_i = lambda_max(X^T X)/(4 |shard|)
    + 2 lambda, each largest eigenvalue by power iteration to relative
    tolerance SMOOTHNESS_TOL."""
    lam = problem.lam
    L_i = []
    for dataset in problem.shards:
        if dataset.n_rows == 0:
            raise InvalidArgumentError("empty shard")
        d = dataset.d
        # deterministic non-uniform start so no single eigenvector is missed
        v = 1.0 + np.arange(d) / max(d, 1)
        v /= np.linalg.norm(v)
        eig = 0.0
        for _ in range(SMOOTHNESS_MAX_ITER):
            u = dataset.X @ v
            new = dataset.X.T @ u
            norm = np.linalg.norm(new)
            if norm == 0.0:
                L_i.append(2.0 * lam)
                break
            new_eig = float(v @ new)
            v = np.asarray(new) / norm
            if abs(new_eig - eig) <= SMOOTHNESS_TOL * max(abs(new_eig), 1e-30):
                L_i.append(new_eig / (4.0 * dataset.n_rows) + 2.0 * lam)
                break
            eig = new_eig
        else:
            raise NumericalError(
                f"power iteration did not converge within {SMOOTHNESS_MAX_ITER} iterations")
    return float(np.mean(L_i))
