"""Distributed training loops with compressed gradients.

Three server-side methods over n workers that each hold one shard:
plain compressed SGD (mqsgd), its momentum-accelerated variant (amqsgd)
with the closed-form (beta, eta, theta) schedule, and a DIANA baseline with
per-worker shift vectors. All three run the same communication round,
`training_round`: they differ only in the point where gradients are taken,
whether workers hold a shift, and the server update. A round steps every
worker as one row of (n, d) arrays: one stacked shard evaluation (the
gradients alone, `shard_grads`, at a point no metric row reads), one
compressor state for all workers, one sum over the rows in worker order
(`objectives._sum_rows`) and one finiteness pass over the gradients.
A run is configured by one `harness.ExperimentConfig`, validated when it is
built; `momentum_schedule` resolves amqsgd's schedule from it. A metric row
is one tuple; `run_training` attaches the rows so far to any divergence.
Also a high-accuracy full-gradient reference minimizer for suboptimality.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .compressors import Compressor
from .errors import DivergenceError, InvalidArgumentError, NumericalError
from .objectives import _sum_rows, mean_loss_grad

MQSGD = "mqsgd"
AMQSGD = "amqsgd"
DIANA = "diana"
OPTIMIZERS = (MQSGD, AMQSGD, DIANA)

# reference_minimizer stops once the full gradient norm is at most
# REFERENCE_TOL, and raises NumericalError after REFERENCE_MAX_ITER steps
REFERENCE_TOL = 1e-10
REFERENCE_MAX_ITER = 500_000


@dataclass(frozen=True)
class AmqsgdParams:
    """Closed-form momentum schedule: beta = sqrt(2 p^2 mu gamma / 3),
    eta = sqrt(3 / (2 mu gamma)), theta = (p/eta - 1) / (beta p/eta - 1)."""
    gamma: float
    p: float
    beta: float
    eta: float
    theta: float


def amqsgd_params(mu, gamma, p=1.0):
    if mu <= 0 or gamma <= 0:
        raise InvalidArgumentError("mu and gamma must be positive")
    if not 0 < p <= 1:
        raise InvalidArgumentError(f"p must lie in (0, 1], got {p}")
    beta = math.sqrt(2.0 * p * p * mu * gamma / 3.0)
    eta = math.sqrt(3.0 / (2.0 * mu * gamma))
    ratio = p / eta
    denom = beta * ratio - 1.0
    if abs(denom) < 1e-15 or ratio >= 1.0:
        raise InvalidArgumentError(
            f"parameter regime invalid: p/eta = {ratio} must be < 1 with beta*p/eta != 1"
        )
    theta = (ratio - 1.0) / denom
    if not 0.0 < theta < 1.0:
        raise InvalidArgumentError(f"theta = {theta} outside (0, 1); shrink gamma or p")
    return AmqsgdParams(gamma, p, beta, eta, theta)


def momentum_schedule(cfg, lam):
    """amqsgd's schedule for cfg at ridge lam (mu = 2 lam, p defaulting to 1),
    refused as amqsgd_params refuses it; None for the other methods."""
    if cfg.optimizer != AMQSGD:
        return None
    return amqsgd_params(2.0 * lam, cfg.gamma, 1.0 if cfg.p is None else cfg.p)


@dataclass
class ServerState:
    """The server's iterate after t rounds. amqsgd also keeps the served
    point x_f and the point x_g where the last round took its gradients;
    the other methods serve and query x itself."""
    x: np.ndarray
    x_f: np.ndarray = None
    x_g: np.ndarray = None
    t: int = 0

    @property
    def served(self):
        return self.x if self.x_f is None else self.x_f


@dataclass
class Workers:
    """The n workers of a run as the rows of one array: row i holds shard i.
    One compressor state steps all of them; DIANA workers also hold their
    shifts h_i as the rows of `shift` (n, d), None for other methods."""
    compressor: Compressor
    shift: np.ndarray = None


def training_round(problem, server, workers, gamma, momentum=None, alpha_shift=0.0,
                   grads=None):
    """One communication round, shared by every method; returns the next
    server state and the coordinates sent.

    Every worker takes its shard gradient at the query point (x, or x_g =
    theta x_f + (1 - theta) x under the amqsgd `momentum` schedule), all in
    one stacked gradient evaluation unless `grads` (n, d) already holds
    them, and compresses it; a worker holding a DIANA shift compresses the
    difference against the shift instead, sends shift + message, and moves
    the shift by alpha_shift times the message. The server averages the messages,
    summed in worker order, and takes a gradient step, or the accelerated
    step."""
    if momentum is None:
        x_q = server.x
    else:
        x_q = momentum.theta * server.x_f + (1.0 - momentum.theta) * server.x
    if grads is None:
        # overflow at a diverging iterate is detected, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            grads = problem.shard_grads(x_q)
    if not np.isfinite(grads).all():   # rows are scanned only to name the first bad one
        bad = int(np.isfinite(grads).all(axis=1).argmin())
        raise DivergenceError(
            server.t, message=f"non-finite gradient on worker {bad} at t={server.t}")
    if workers.shift is None:
        q, coords = workers.compressor.compress(grads)
    else:
        delta, coords = workers.compressor.compress(grads - workers.shift)
        q = workers.shift + delta
        workers.shift = workers.shift + alpha_shift * delta
    agg = _sum_rows(q) / len(q)   # one row after another, in worker order
    if momentum is None:
        return ServerState(server.x - gamma * agg, t=server.t + 1), coords
    p, beta, eta = momentum.p, momentum.beta, momentum.eta
    x_f = x_q - p * gamma * agg
    x = (eta * x_f
         + (p - eta) * server.x_f
         + (1.0 - p) * (1.0 - beta) * server.x
         + (1.0 - p) * beta * x_q)
    return ServerState(x, x_f, x_q, server.t + 1), coords


def reference_minimizer(problem):
    """Full-gradient descent from 0 with Armijo backtracking until the full
    gradient norm is at most REFERENCE_TOL. Assumes a unique minimizer
    (lambda > 0 for the logistic objective).

    Near the optimum the f-gap falls below float resolution before the
    gradient does, so Armijo alone cannot certify descent there; the step is
    additionally capped at 1/L_est with L_est the largest curvature observed
    along the trajectory, which keeps every step a true descent step and
    lets the gradient contract all the way to REFERENCE_TOL."""
    x = np.zeros(problem.d)
    f, g = problem.full_loss_grad(x)
    step = 1.0
    L_est = 0.0
    eps = float(np.finfo(np.float64).eps)
    for _ in range(REFERENCE_MAX_ITER):
        gnorm_sq = float(g @ g)
        if math.sqrt(gnorm_sq) <= REFERENCE_TOL:
            return x, f
        step *= 2.0  # let the line search grow back after conservative steps
        if L_est > 0.0:
            step = min(step, 1.0 / L_est)
        # the 4*eps*|f| allowance keeps one-ulp noise in f from rejecting
        # true descent steps once the gap is below float resolution
        f_tol = 4.0 * eps * max(abs(f), 1.0)
        while True:
            x_new = x - step * g
            f_new, g_new = problem.full_loss_grad(x_new)
            if f_new <= f - 1e-4 * step * gnorm_sq + f_tol:
                break
            step *= 0.5
            if step < 1e-300:
                raise NumericalError("line search collapsed; gradient may be inexact")
        move = float(np.linalg.norm(x_new - x))
        if move >= 1e-8 * (1.0 + float(np.linalg.norm(x))):
            L_est = max(L_est, float(np.linalg.norm(g_new - g)) / move)
        x, f, g = x_new, f_new, g_new
    raise NumericalError(
        f"reference minimizer stalled at ||grad|| = {float(np.linalg.norm(g)):.3e} "
        f"> {REFERENCE_TOL}"
    )


@dataclass
class TrainTrace:
    t: np.ndarray
    coords_sent_cum: np.ndarray
    f_value: np.ndarray
    fdist_ratio: np.ndarray     # NaN when no reference was supplied
    grad_norm_sq: np.ndarray
    dist_sq_to_opt: np.ndarray  # NaN when no reference was supplied
    wallclock: np.ndarray
    rows: int = field(init=False)

    def __post_init__(self):
        self.rows = len(self.t)


class _TraceBuilder:
    def __init__(self, problem, reference):
        self.problem = problem
        self.x_star, self.f_star = reference if reference else (None, None)
        self.rows = []
        self.f0_gap = None
        self.start = time.perf_counter()

    def record(self, t, coords, x):
        """Appends the metric row at x; returns every shard's gradient at x,
        which the next round reuses when it queries x."""
        # overflow at a diverging iterate is detected, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            losses, grads = self.problem.shard_loss_grads(x)
            f, g = mean_loss_grad(losses, grads)
            gns = float(g @ g)
            if self.f_star is not None:
                gap = f - self.f_star
                if self.f0_gap is None:
                    self.f0_gap = gap if gap != 0.0 else 1.0
                ratio = gap / self.f0_gap
                diff = x - self.x_star
                dist = float(diff @ diff)
            else:
                ratio = math.nan
                dist = math.nan
        # one row in TrainTrace's field order
        self.rows.append((t, coords, f, ratio, gns, dist, time.perf_counter() - self.start))
        if not (math.isfinite(f) and math.isfinite(gns)):
            raise DivergenceError(t, message=f"non-finite metrics at t={t}")
        return grads

    def build(self):
        t, coords, *floats = zip(*self.rows)
        return TrainTrace(np.array(t, dtype=np.int64), np.array(coords, dtype=np.float64),
                          *map(np.array, floats))


def make_workers(problem, cfg):
    """Every shard's worker as one row of one compressor state; diana
    workers also start a zero shift."""
    d = problem.d
    compressor = Compressor(cfg.compressor, d, m=cfg.mask_size(d), K=cfg.K, b=cfg.b,
                            activation=cfg.activation, seed=cfg.seed,
                            worker=range(problem.n), n_workers=problem.n)
    return Workers(compressor, np.zeros((problem.n, d)) if cfg.optimizer == DIANA else None)


def run_training(problem, cfg, reference=None):
    """Runs the configured optimizer, recording metrics every iteration at
    the served point (x, or x_f for the accelerated method). `cfg` is a
    validated harness.ExperimentConfig; m resolves through cfg.mask_size,
    p defaults to 1, alpha_shift to m/d and amqsgd's mu to 2*lambda.
    Deterministic given cfg.seed. Raises a divergence error carrying the
    partial trace.

    The served point is evaluated once per round. mqsgd and diana query the
    point they serve, so that evaluation gives both the metric row and the
    next round's gradients; amqsgd serves x_f but queries x_g, so its round
    evaluates the gradients again, without the losses."""
    workers = make_workers(problem, cfg)
    momentum = momentum_schedule(cfg, problem.lam)
    x0 = np.zeros(problem.d)
    server = ServerState(x0.copy(), None if momentum is None else x0.copy())
    alpha_shift = cfg.alpha_shift
    if alpha_shift is None:
        alpha_shift = cfg.mask_size(problem.d) / problem.d

    tracer = _TraceBuilder(problem, reference)
    coords_cum = 0
    try:
        grads = tracer.record(0, 0, server.served)
        while cfg.T is None or server.t < cfg.T:
            if cfg.budget is not None and coords_cum >= cfg.budget:
                break
            server, coords = training_round(problem, server, workers, cfg.gamma,
                                            momentum, alpha_shift,
                                            grads=grads if momentum is None else None)
            # communication is measured in 32-bit coordinate units, so the
            # 9-bit natural rounding counts for 9/32 of a coordinate
            coords_cum += coords * workers.compressor.bits_per_coord / 32.0
            grads = tracer.record(server.t, coords_cum, server.served)
    except DivergenceError as err:
        # the rows recorded so far, the non-finite one included
        err.trace = tracer.build()
        raise
    return tracer.build()
