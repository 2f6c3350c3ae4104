"""Analog over-the-air aggregation of gradient frames.

Each user transmits a channel-scaled mix of its clipped gradient and its
PCR-AN vector; the multiple-access channel superposes all frames plus
receiver noise, and the server rescales by 1/(mK) to recover an unbiased
estimate of the mean gradient.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator

from ._checks import count, finite, positive, unit_interval
from .channel import awgn  # noqa: F401 -- unused; bench/spans.py wraps aircomp.awgn
from .pcran import (
    NoiseStats,
    Pairing,
    PairSecret,
    PowerAllocation,
    aggregate_noise_stats,
    draw_pcran,  # noqa: F401 -- unused; bench/spans.py wraps aircomp.draw_pcran
    equalized_gain,
    noise_gains,
)


@dataclass(frozen=True)
class LinkPlan:
    """Per-run invariants of the aggregation link, indexed by user k.

    sig_amp is |h_k| sqrt(alpha_k P_k) / L_s, which alignment makes equal to
    m; noise_amp is |h_k| sqrt(beta_k P_k).  equalize is the pre-equalization
    factor target / gains_k applied to the drawn noise (1 where gains_k = 0).
    loc and scale are (rows, 1) columns of the Gaussian law of each row a
    round draws: user k's PCR-AN mean and sd from its pair role in row k,
    then N(0, sigma_z2) for the receiver in row K when sigma_z2 > 0, the one
    place a plan states the receiver noise.
    """

    sig_amp: np.ndarray
    noise_amp: np.ndarray
    gains: np.ndarray
    equalize: np.ndarray
    loc: np.ndarray
    scale: np.ndarray
    m: float
    L_s: float
    noise_stats: NoiseStats


def _clip(g: np.ndarray, L_s: float, norm: np.ndarray) -> np.ndarray:
    """Scale each gradient (last axis of g) down to norm L_s, where it
    exceeds it, in place.

    norm is a g.shape[:-1] + (1, 1) buffer.  The vector @ vector matmul runs
    np.linalg.norm's dot routine, so a (K, d) stack clips bit for bit like its
    rows one by one (an einsum norm sums in another order); L_s / max(norm,
    L_s) is exactly 1 within the bound.
    """
    np.matmul(g[..., None, :], g[..., :, None], out=norm)
    np.sqrt(norm, out=norm)
    np.maximum(norm, L_s, out=norm)
    np.divide(L_s, norm, out=norm)
    g *= norm[..., 0]
    return g


def _clippable(g) -> np.ndarray:
    """A float copy of the gradients g (last axis), with finite entries and squared norms."""
    # checked before the copy, which fails unnamed on a ragged nesting; numpy
    # allows at most 64 axes
    g = np.array(finite("gradient", g, ndim=64), dtype=float)
    if g.ndim == 0:
        raise ValueError(f"gradient must be an array of at least one axis, got {g!r}")
    # a squared norm that overflows would clip the gradient to 0, not to L_s
    with np.errstate(over="ignore"):
        norm = np.matmul(g[..., None, :], g[..., :, None])
    finite("squared norm of gradient", norm[..., 0, 0], ndim=g.ndim)
    return g


def clip_gradient(g: np.ndarray, L_s: float) -> np.ndarray:
    """Scale each gradient (last axis of g) down to norm L_s if it exceeds it.

    Returns a new array; the rows are clipped as a round of
    :func:`round_kernel` clips them.
    """
    g = _clippable(g)
    return _clip(g, positive("L_s", L_s), np.empty(g.shape[:-1] + (1, 1)))


def plan_link(
    h2: np.ndarray,
    alloc: PowerAllocation,
    pairing: Pairing,
    secrets: list[PairSecret],
    sigma_z2: float,
) -> LinkPlan:
    """Precompute one run's link invariants and check that they fit together.

    Each user pre-equalizes its noise so the received noise gain is the
    common minimum, which makes the pairwise means cancel exactly.
    """
    K = len(h2)
    if K == 0:
        raise ValueError("no transmitters: the link has no users")
    users = sorted(u for pair in pairing.pairs for u in pair)
    if users != list(range(K)):
        raise ValueError(f"pairing is not a perfect matching of users 0..{K - 1}")
    if np.size(unit_interval("alpha", alloc.alpha, ndim=1)) != K:
        raise ValueError(f"alpha needs one entry per user ({K}), got {np.size(alloc.alpha)}")
    positive("L_s", alloc.L_s)
    stats = aggregate_noise_stats(pairing, secrets, h2, alloc.P, alloc.beta, alloc.m, sigma_z2)
    gains = noise_gains(h2, alloc.P, alloc.beta)
    target = equalized_gain(gains)
    equalize = np.divide(target, gains, out=np.ones(K), where=gains > 0)
    loc = np.zeros(K)
    var = np.zeros(K)
    for (pos, neg), secret in zip(pairing.pairs, secrets):
        loc[pos], var[pos] = secret.mu, secret.sigma2_pos
        loc[neg], var[neg] = -secret.mu, secret.sigma2_neg
    h = np.sqrt(h2)
    scale = np.sqrt(var)
    if sigma_z2 > 0:  # the receiver's row comes after the users'
        loc, scale = np.append(loc, 0.0), np.append(scale, np.sqrt(sigma_z2))
    return LinkPlan(
        sig_amp=h * np.sqrt(alloc.alpha * alloc.P) / alloc.L_s,
        noise_amp=h * np.sqrt(alloc.beta * alloc.P),
        gains=gains,
        equalize=equalize,
        loc=loc[:, None],
        scale=scale[:, None],
        m=alloc.m,
        L_s=alloc.L_s,
        noise_stats=stats,
    )


# doubles of received noise that noise-check draws at once (128 KB); a
# training batch draws at most half as many (see train_over_air)
_NOISE_BLOCK = 1 << 14


def _gaussian(rng: Generator, loc, scale, out: np.ndarray) -> np.ndarray:
    """Fill out with N(loc, scale^2) draws and return it.

    Generator.normal(loc, scale) reads the same standard normals n and
    computes loc + scale * n; scaling and shifting in place gives the same
    bits, without a fresh array per call.  loc = 0.0 is still added, because
    it turns scale * n = -0.0 into +0.0 as normal does.
    """
    rng.standard_normal(out=out)
    out *= scale
    out += loc
    return out


def draw_noise(plan: LinkPlan, rounds: int, d: int, rng: Generator) -> np.ndarray:
    """Received noise of a batch of rounds, shape (rounds, K + 1, d).

    Row 0 of a round is the receiver noise (zeros when the plan has no
    receiver row, as at sigma_z2 = 0), row 1 + k user k's PCR-AN as received,
    noise_amp_k * equalize_k * n_k.  One Gaussian fill reads each round's
    users in index order, then its receiver row; standard_normal keeps no
    state between calls, so a batch of R rounds reads what R one-round
    batches do.
    """
    K = len(plan.sig_amp)
    z = _gaussian(rng, plan.loc, plan.scale, np.empty((rounds, len(plan.scale), d)))
    slab = np.empty((rounds, K + 1, d))
    slab[:, 0] = z[:, K] if len(plan.scale) > K else 0.0
    noise = np.multiply(z[:, :K], plan.equalize[:, None], out=slab[:, 1:])
    noise *= plan.noise_amp[:, None]
    return slab


def round_kernel(plan: LinkPlan, d: int):
    """Build one run's aggregation round, for d-dimensional gradients.

    Checks L_s and computes m * K and sig_amp, repeated along each (K, d)
    gradient row so that scaling needs no broadcast, once.  The returned
    round(gradients, noise) takes a (K, d) gradient buffer, which it clips and
    scales by sig_amp in place, and one (K + 1, d) round of :func:`draw_noise`,
    which it adds the payloads into.  It sums the rows from the receiver noise
    on, adding users in index order (the per-user float order, so a seeded run
    is reproducible bit for bit), and returns s_hat = sum / (mK) in a buffer
    of its own that the next round overwrites.
    """
    L_s = positive("L_s", plan.L_s)
    K = len(plan.sig_amp)
    sig_amp = np.repeat(plan.sig_amp[:, None], d, axis=1)
    mK = plan.m * K
    norm = np.empty((K, 1, 1))
    s_hat = np.empty(d)
    # add.reduce over axis 0 adds whole rows in order, but at d = 1 it sums
    # the column pairwise, so there the rows are accumulated instead.  Both
    # start from row 0, which draw_noise never writes as -0.0: reduce adds it
    # to a +0.0 start, and +0.0 + -0.0 would lose the sign
    partial = np.empty((K + 1, 1)) if d == 1 else None

    def aggregate(gradients: np.ndarray, noise: np.ndarray) -> np.ndarray:
        _clip(gradients, L_s, norm)
        gradients *= sig_amp
        noise[1:] += gradients
        if partial is None:
            np.add.reduce(noise, axis=0, out=s_hat)
        else:
            s_hat[:] = np.add.accumulate(noise, axis=0, out=partial)[-1]
        return np.divide(s_hat, mK, out=s_hat)

    return aggregate


def simulate_round(gradients: np.ndarray, plan: LinkPlan, noise: np.ndarray) -> np.ndarray:
    """One aggregation round: clip, add to the noise, superpose, rescale by 1/(mK).

    gradients is (K, d), left unchanged and checked as :func:`clip_gradient`
    checks it, and noise one finite float64 (K + 1, d) round of
    :func:`draw_noise`, which the payloads sig_amp * s_k are added into in
    place.  The checked one-shot form of :func:`round_kernel`; returns a new s_hat.
    """
    K = len(plan.sig_amp)
    g = _clippable(gradients)
    kind = getattr(noise, "dtype", type(noise))
    if not (isinstance(noise, np.ndarray) and kind == np.float64):
        raise ValueError(f"noise must be a float64 array, got {kind}")
    if g.ndim != 2 or len(g) != K or noise.shape != (K + 1, g.shape[1]):
        raise ValueError(f"gradient shape {g.shape} and noise shape {noise.shape} "
                         f"do not fit a plan of K={K} users")
    finite("noise", noise, ndim=2)
    return round_kernel(plan, g.shape[1])(g, noise)


def simulate_aggregation_rounds(
    gradients: np.ndarray,
    h2: np.ndarray,
    alloc: PowerAllocation,
    pairing: Pairing,
    secrets: list[PairSecret],
    sigma_z2: float,
    n_rounds: int,
    rng: Generator,
) -> np.ndarray:
    """Vectorized Monte Carlo of many independent rounds with fixed gradients.

    Returns the (n_rounds, d) array of mean-gradient estimates.  Same model
    as :func:`simulate_round`, batched over rounds for desk-scale sample
    counts.  Each user's noise, then the receiver's, is drawn over the rounds
    axis in turn, a block of at most _NOISE_BLOCK doubles at a time into one
    reused buffer, so memory stays at one (n_rounds, d) array plus one block
    whatever K is; the stream and the sums are those of one whole-array
    Generator.normal per user.  Once the link is planned, only the plan is
    read: its receiver row gives the receiver's law, its m the 1/(mK).
    """
    count("n_rounds", n_rounds)
    plan = plan_link(h2, alloc, pairing, secrets, sigma_z2)
    K, shape = len(plan.sig_amp), np.shape(gradients)
    if len(shape) != 2 or shape[0] != K or shape[1] < 1:
        raise ValueError(f"gradients must have shape (K, d) with K = {K}, d >= 1, got {shape}")
    d = shape[1]
    signal = plan.sig_amp @ clip_gradient(gradients, plan.L_s)  # (d,)
    c = equalized_gain(plan.gains)
    # receiver sees c * n_k per user; draw the scaled noise directly
    laws = [(c * plan.loc[k, 0], c * plan.scale[k, 0]) for k in range(K) if plan.gains[k] > 0]
    laws += zip(plan.loc[K:, 0], plan.scale[K:, 0])  # the receiver's row, if any

    received = np.tile(signal, (n_rounds, 1))
    rows = max(1, _NOISE_BLOCK // d)
    buf = np.empty((min(rows, n_rounds), d))
    for loc, scale in laws:
        for start in range(0, n_rounds, rows):
            block = received[start:start + rows]
            block += _gaussian(rng, loc, scale, buf[:len(block)])
    received /= plan.m * K
    return received
