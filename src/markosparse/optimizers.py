"""Distributed training loops with compressed gradients.

Three server-side methods over n workers that each hold one shard and one
compressor state: plain compressed SGD (mqsgd), its momentum-accelerated
variant (amqsgd) with the closed-form (beta, eta, theta) schedule, and a
DIANA baseline with per-worker shift vectors. All three run the same
communication round, `training_round`: they differ only in the point where
gradients are taken, whether workers hold a shift, and the server update.
A run is configured by one `harness.ExperimentConfig`, validated when it is
built. Also the theoretical step-size calculators and a high-accuracy
full-gradient reference minimizer used for suboptimality metrics.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .compressors import Compressor
from .errors import DivergenceError, InvalidArgumentError, NumericalError

MQSGD = "mqsgd"
AMQSGD = "amqsgd"
DIANA = "diana"
OPTIMIZERS = (MQSGD, AMQSGD, DIANA)


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
class Worker:
    index: int
    compressor: Compressor
    shift: np.ndarray = None  # DIANA h_i, zero-initialized; None for other methods


def training_round(problem, server, workers, gamma, momentum=None, alpha_shift=0.0):
    """One communication round, shared by every method; returns the next
    server state and the coordinates sent.

    Each worker, in fixed order, takes its shard gradient at the query point
    (x, or x_g = theta x_f + (1 - theta) x under the amqsgd `momentum`
    schedule) and compresses it; a worker holding a DIANA shift compresses
    the difference against the shift instead, sends shift + message, and
    moves the shift by alpha_shift times the message. The server averages
    the messages and takes a gradient step, or the accelerated step."""
    if momentum is None:
        x_q = server.x
    else:
        x_q = momentum.theta * server.x_f + (1.0 - momentum.theta) * server.x
    agg = np.zeros_like(server.x)
    coords = 0
    for w in workers:
        # overflow at a diverging iterate is detected, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            _, g = problem.shard_loss_grad(x_q, w.index)
        if not np.all(np.isfinite(g)):
            raise DivergenceError(
                server.t, message=f"non-finite gradient on worker {w.index} at t={server.t}")
        if w.shift is None:
            q, c = w.compressor.compress(g)
        else:
            delta, c = w.compressor.compress(g - w.shift)
            q = w.shift + delta
            w.shift = w.shift + alpha_shift * delta
        agg += q
        coords += c
    agg /= len(workers)
    if momentum is None:
        return ServerState(server.x - gamma * agg, t=server.t + 1), coords
    p, beta, eta = momentum.p, momentum.beta, momentum.eta
    x_f = x_q - p * gamma * agg
    x = (eta * x_f
         + (p - eta) * server.x_f
         + (1.0 - p) * (1.0 - beta) * server.x
         + (1.0 - p) * beta * x_q)
    return ServerState(x, x_f, x_q, server.t + 1), coords


def theory_step_size(regime, L, mu=None, delta_sq=0.0, d=1, m=1, tau=1):
    """Right-hand sides of the theoretical step-size bounds with the
    suppressed constant taken as 1; reference values only, practical runs
    tune gamma."""
    if L <= 0 or d < 1 or m < 1 or tau < 1 or delta_sq < 0:
        raise InvalidArgumentError("constants must be positive (delta_sq >= 0)")
    if regime in ("nonconvex", "pl"):
        return m * m / (d * d * L * (delta_sq + 1.0) * tau)
    if regime == "strongly-convex-acc":
        if mu is None or mu <= 0:
            raise InvalidArgumentError("accelerated regime needs mu > 0")
        return mu ** (1.0 / 3.0) * math.sqrt(m) / (tau * L ** (4.0 / 3.0) * math.sqrt(d))
    raise InvalidArgumentError(f"unknown regime '{regime}'")


def theory_momentum_p(d, m, delta_sq, tau):
    """Default momentum probability min(1, m^2 / (13 d^2 (delta^2+1) tau^2))."""
    if d < 1 or m < 1 or tau < 1 or delta_sq < 0:
        raise InvalidArgumentError("constants must be positive (delta_sq >= 0)")
    return min(1.0, m * m / (13.0 * d * d * (delta_sq + 1.0) * tau * tau))


def reference_minimizer(problem, tol=1e-10, max_iter=500_000, x0=None):
    """Full-gradient descent with Armijo backtracking until the full
    gradient norm is at most tol. Assumes a unique minimizer (lambda > 0
    for the logistic objective).

    Near the optimum the f-gap falls below float resolution before the
    gradient does, so Armijo alone cannot certify descent there; the step is
    additionally capped at 1/L_est with L_est the largest curvature observed
    along the trajectory, which keeps every step a true descent step and
    lets the gradient contract all the way to tol."""
    x = np.zeros(problem.d) if x0 is None else np.array(x0, dtype=np.float64)
    f, g = problem.full_loss_grad(x)
    step = 1.0
    L_est = 0.0
    eps = float(np.finfo(np.float64).eps)
    for _ in range(max_iter):
        gnorm_sq = float(g @ g)
        if math.sqrt(gnorm_sq) <= tol:
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
        f"reference minimizer stalled at ||grad|| = {float(np.linalg.norm(g)):.3e} > {tol}"
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
        self.cols = {k: [] for k in ("t", "coords", "f", "ratio", "gns", "dist", "wall")}
        self.f0_gap = None
        self.start = time.perf_counter()

    def record(self, t, coords, x):
        # overflow at a diverging iterate is detected, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            f, g = self.problem.full_loss_grad(x)
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
        c = self.cols
        c["t"].append(t)
        c["coords"].append(coords)
        c["f"].append(f)
        c["ratio"].append(ratio)
        c["gns"].append(gns)
        c["dist"].append(dist)
        c["wall"].append(time.perf_counter() - self.start)
        if not (math.isfinite(f) and math.isfinite(gns)):
            raise DivergenceError(t, trace=self.build(),
                                  message=f"non-finite metrics at t={t}")

    def build(self):
        c = self.cols
        return TrainTrace(
            np.array(c["t"], dtype=np.int64),
            np.array(c["coords"], dtype=np.float64),
            np.array(c["f"]), np.array(c["ratio"]),
            np.array(c["gns"]), np.array(c["dist"]),
            np.array(c["wall"]),
        )


def make_workers(problem, cfg):
    """One compressor per shard; diana workers also start a zero shift."""
    d = problem.d
    m = cfg.mask_size(d)
    return [
        Worker(i,
               Compressor(cfg.compressor, d, m=m, K=cfg.K, b=cfg.b,
                          activation=cfg.activation, seed=cfg.seed, worker=i,
                          n_workers=problem.n),
               np.zeros(d) if cfg.optimizer == DIANA else None)
        for i in range(problem.n)
    ]


def run_training(problem, cfg, reference=None):
    """Runs the configured optimizer, recording metrics every iteration at
    the served point (x, or x_f for the accelerated method). `cfg` is a
    validated harness.ExperimentConfig; m resolves through cfg.mask_size,
    p defaults to 1, alpha_shift to m/d and amqsgd's mu to 2*lambda.
    Deterministic given cfg.seed. Raises a divergence error carrying the
    partial trace."""
    workers = make_workers(problem, cfg)
    x0 = np.zeros(problem.d)
    momentum = None
    if cfg.optimizer == AMQSGD:
        p = 1.0 if cfg.p is None else cfg.p
        momentum = amqsgd_params(2.0 * problem.lam, cfg.gamma, p)
        server = ServerState(x0.copy(), x0.copy())
    else:
        server = ServerState(x0.copy())
    alpha_shift = cfg.alpha_shift
    if alpha_shift is None:
        alpha_shift = cfg.mask_size(problem.d) / problem.d

    tracer = _TraceBuilder(problem, reference)
    coords_cum = 0
    tracer.record(0, 0, server.served)
    while cfg.T is None or server.t < cfg.T:
        if cfg.budget is not None and coords_cum >= cfg.budget:
            break
        try:
            server, coords = training_round(problem, server, workers, cfg.gamma,
                                            momentum, alpha_shift)
        except DivergenceError as err:
            if err.trace is None:
                err.trace = tracer.build()
            raise
        # communication is measured in 32-bit coordinate units, so the
        # 9-bit natural rounding counts for 9/32 of a coordinate
        coords_cum += coords * workers[0].compressor.bits_per_coord / 32.0
        tracer.record(server.t, coords_cum, server.served)
    return tracer.build()
