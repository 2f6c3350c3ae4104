"""Federated training over the simulated analog channel, plus the
closed-form convergence bound for strongly convex losses.

The learning task is synthetic ridge regression: per-point loss
0.5 (u.w - v)^2 + (reg_lambda/2) ||w||^2, which is exactly
reg_lambda-strongly convex with smoothness mu = lambda_max(cov) + reg_lambda
computed from the generated data.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator

from ._checks import count, finite, nonnegative, positive, unit_interval
from .aircomp import (
    _NOISE_BLOCK,
    clip_gradient,
    draw_noise,
    plan_link,
    round_kernel,
    simulate_round,  # noqa: F401 -- unused; bench/spans.py wraps it
)
from .channel import ChannelConfig, sample_channel
from .pcran import (
    Pairing,
    PairSecret,
    PowerAllocation,
    compute_alignment,
    draw_secrets,
    form_pairs,
)

DIVERGENCE_FACTOR = 1e6


@dataclass(frozen=True)
class SyntheticTask:
    """Ridge-regression task split across K users with equal data sizes.

    U has shape (K, n, d) and V shape (K, n).  mu is the smoothness constant
    of the global loss; reg_lambda its strong-convexity constant.
    """

    U: np.ndarray
    V: np.ndarray
    reg_lambda: float
    mu: float

    def __post_init__(self) -> None:
        positive("reg_lambda", self.reg_lambda)  # strong convexity
        positive("mu", self.mu)
        if np.ndim(self.U) != 3 or np.shape(self.V) != np.shape(self.U)[:2]:
            raise ValueError(f"V must have shape U.shape[:2] for U of shape (K, n, d), "
                             f"got U {np.shape(self.U)} and V {np.shape(self.V)}")

    @property
    def K(self) -> int:
        return self.U.shape[0]

    @property
    def d(self) -> int:
        return self.U.shape[2]


@dataclass
class TrainState:
    """Trajectory of one training run."""

    w: np.ndarray
    loss_history: list[float] = field(default_factory=list)
    gap_history: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class BoundInputs:
    """Inputs to the closed-form convergence bound.

    noise_power_sum is sum_k |h_k|^2 beta_k P_k.
    """

    mu: float
    lam: float
    T: int
    L_s: float
    d: int
    m: float
    K: int
    noise_power_sum: float
    sigma_z2: float


def make_task(
    K: int,
    n_per_user: int,
    d: int,
    reg_lambda: float,
    rng: Generator,
) -> SyntheticTask:
    """Generate a synthetic ridge task with a known planted model."""
    K, n_per_user, d = count("K", K), count("n_per_user", n_per_user), count("d", d)
    U = rng.normal(0.0, 1.0 / np.sqrt(d), size=(K, n_per_user, d))
    w_true = rng.normal(0.0, 1.0, size=d)
    V = U @ w_true + rng.normal(0.0, 1.0, size=(K, n_per_user))
    flat = U.reshape(-1, d)
    cov = flat.T @ flat / flat.shape[0]
    # a numpy float adds a list or a bool too, so the task's check of
    # reg_lambda, which runs before its check of mu, names such a value
    mu = np.linalg.eigvalsh(cov)[-1] + reg_lambda
    return SyntheticTask(U=U, V=V, reg_lambda=reg_lambda, mu=mu)


def _residual(w: np.ndarray, task: SyntheticTask, out: np.ndarray | None = None) -> np.ndarray:
    """Per-point residuals U @ w - V of every user, shape (K, n), into `out` if given."""
    resid = np.matmul(task.U, w, out=out)
    resid -= task.V
    return resid


def _gradients_at(resid: np.ndarray, w: np.ndarray, task: SyntheticTask,
                  out: np.ndarray | None = None, lam_w: np.ndarray | None = None) -> np.ndarray:
    """Every user's local gradient at w from its residuals, shape (K, d), into
    `out` if given; `lam_w` is a work buffer of w's shape."""
    grads = np.einsum("kn,knd->kd", resid, task.U, out=out)
    grads /= task.U.shape[1]
    grads += np.multiply(task.reg_lambda, w, out=lam_w)
    return grads


def _loss_at(resid: np.ndarray, w: np.ndarray, task: SyntheticTask,
             squares: np.ndarray | None = None) -> float:
    """The global loss at w from its residuals; `squares` is a work buffer of resid's shape."""
    squares = np.multiply(resid, resid, out=squares)
    # add.reduce / size is the sum and divide np.mean runs, minus its dispatch
    return float(0.5 * (float(np.add.reduce(squares, axis=None)) / resid.size)
                 + 0.5 * task.reg_lambda * float(w @ w))


def global_loss(w: np.ndarray, task: SyntheticTask) -> float:
    """Mean per-point regularized squared error over the pooled dataset."""
    return _loss_at(_residual(w, task), w, task)


def all_local_gradients(w: np.ndarray, task: SyntheticTask) -> np.ndarray:
    """Stack of every user's local gradient, shape (K, d)."""
    return _gradients_at(_residual(w, task), w, task)


def optimal_model(task: SyntheticTask) -> np.ndarray:
    """Exact minimizer of the global loss (normal equations)."""
    flat = task.U.reshape(-1, task.d)
    A = flat.T @ flat / flat.shape[0] + task.reg_lambda * np.eye(task.d)
    b = flat.T @ task.V.reshape(-1) / flat.shape[0]
    return np.linalg.solve(A, b)


def convergence_bound(inputs: BoundInputs) -> float:
    """Closed-form upper bound on the expected optimality gap at iteration T.

    (2 mu / (lam^2 T)) * (L_s^2 + (d / (m^2 K^2)) * (noise_power_sum + sigma_z2))
    """
    rules = {"T": count, "K": count, "d": count, "mu": positive, "lam": positive,
             "L_s": positive, "m": positive, "noise_power_sum": nonnegative,
             "sigma_z2": nonnegative}
    for name, rule in rules.items():
        rule(name, getattr(inputs, name))
    # as Python floats, an overflowing product or quotient is inf without
    # numpy's warning; a float power instead raises OverflowError where the
    # product is inf, and a square that underflows to 0 would divide by zero,
    # so each square is checked as a product (the powers keep their bits,
    # which can differ from the product's in the last place)
    mu, lam, m, L_s = (float(getattr(inputs, name)) for name in ("mu", "lam", "m", "L_s"))
    for name, x in (("lam", lam), ("m", m), ("L_s", L_s)):
        positive(f"{name}**2", x * x)
    noise = (inputs.d / (m**2 * inputs.K**2)) * (inputs.noise_power_sum + inputs.sigma_z2)
    return finite("convergence bound", (2.0 * mu / (lam**2 * inputs.T)) * (L_s**2 + noise))


@dataclass(frozen=True)
class TrainSettings:
    """Knobs of a training run over the air."""

    T: int
    L_s: float = 1.0
    power: float = 1000.0  # linear per-user transmit power
    alpha_cap: float = 0.5
    beta: float = 0.5

    def __post_init__(self) -> None:
        count("T", self.T)
        positive("power", self.power)


def centralized_gd(task: SyntheticTask, settings: TrainSettings) -> TrainState:
    """Noise-free reference: per-user gradients clipped and averaged exactly.

    Uses the same learning-rate schedule as the over-the-air loop, so with a
    noiseless channel the two trajectories coincide.
    """
    state = TrainState(w=np.zeros(task.d))
    for t in range(1, settings.T + 1):
        grads = all_local_gradients(state.w, task)
        s_hat = clip_gradient(grads, settings.L_s).mean(axis=0)
        state.w = state.w - 1.0 / (task.reg_lambda * t) * s_hat
        state.loss_history.append(global_loss(state.w, task))
    return state


def draw_link(
    channel_config: ChannelConfig,
    K: int,
    power: float,
    L_s: float,
    alpha_cap: float,
    beta: float,
    rng: Generator,
) -> tuple[np.ndarray, PowerAllocation, Pairing, list[PairSecret]]:
    """Draw one run's link: gains, power split, pairs and secrets, in that order.

    Every user transmits at `power`; channel inversion sets m and alpha_k,
    and each user's noise fraction is beta cut back to 1 - alpha_k.
    """
    unit_interval("beta", beta)
    h2 = sample_channel(channel_config, K, rng)
    P = np.full(K, positive("power", power))
    m, alpha = compute_alignment(h2, P, L_s, alpha_cap=alpha_cap)
    beta = np.minimum(np.full(K, beta), 1.0 - alpha)
    alloc = PowerAllocation(P=P, alpha=alpha, beta=beta, m=m, L_s=L_s)
    pairing = form_pairs(K, rng)
    secrets = draw_secrets(K // 2, rng)
    return h2, alloc, pairing, secrets


def train_over_air(
    task: SyntheticTask,
    channel_config: ChannelConfig,
    settings: TrainSettings,
    rng: Generator,
) -> tuple[TrainState, BoundInputs]:
    """Run T federated rounds over the simulated analog channel.

    The channel is sampled once (time-invariant link), pairs and secrets are
    formed once, and each round clips the local gradients, transmits them
    with PCR-AN, and applies the global update w <- w - s_hat / (lam t).  The
    round kernel and the buffers are set up once per run, and each round
    computes in place.  Noise is drawn ahead in blocks of at most
    _NOISE_BLOCK doubles (see draw_noise).
    Returns the trajectory plus the bound inputs matching the realized run.
    """
    K, d = task.K, task.d
    h2, alloc, pairing, secrets = draw_link(
        channel_config, K, settings.power, settings.L_s, settings.alpha_cap,
        settings.beta, rng,
    )
    plan = plan_link(h2, alloc, pairing, secrets, channel_config.sigma_z2)
    aggregate = round_kernel(plan, d)

    state = TrainState(w=np.zeros(d))
    w, losses, gaps = state.w, state.loss_history, state.gap_history
    f_star = global_loss(optimal_model(task), task)
    # one residual per round serves the loss at w_t and round t+1's gradients
    resid = _residual(w, task)
    # the 1/(lam t) schedule makes a large t=1 step intrinsic, so the
    # divergence guard anchors at the post-first-step loss
    guard_ref = _loss_at(resid, w, task)
    per_block = max(1, _NOISE_BLOCK // ((K + 1) * d))

    # each round computes the gradients and the loss in place: w, resid and
    # these buffers are overwritten every round
    grads, lam_w, squares = np.empty((K, d)), np.empty(d), np.empty(resid.shape)
    # an overflow makes the loss non-finite, which the guard rejects
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, settings.T + 1):
            if (t - 1) % per_block == 0:
                block = iter(draw_noise(plan, min(per_block, settings.T + 1 - t), d, rng))
            s_hat = aggregate(_gradients_at(resid, w, task, grads, lam_w), next(block))
            s_hat *= 1.0 / (task.reg_lambda * t)
            w -= s_hat
            loss = _loss_at(_residual(w, task, resid), w, task, squares)
            losses.append(loss)
            gaps.append(loss - f_star)
            if not math.isfinite(loss):
                raise RuntimeError(f"training diverged at iteration {t} (loss {loss:.3e})")
            if t == 1:
                guard_ref = max(guard_ref, loss)
            elif loss > DIVERGENCE_FACTOR * max(guard_ref, 1e-12):
                raise RuntimeError(f"training diverged at iteration {t} (loss {loss:.3e})")

    bound_inputs = BoundInputs(
        mu=task.mu,
        lam=task.reg_lambda,
        T=settings.T,
        L_s=settings.L_s,
        d=task.d,
        m=alloc.m,
        K=K,
        noise_power_sum=float(np.sum(h2 * alloc.beta * alloc.P)),
        sigma_z2=channel_config.sigma_z2,
    )
    return state, bound_inputs
