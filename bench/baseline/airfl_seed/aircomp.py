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

from .channel import ChannelRealization, awgn
from .pcran import (
    NoiseStats,
    Pairing,
    PairSecret,
    PowerAllocation,
    aggregate_noise_stats,
    draw_pcran,
    equalized_gain,
    noise_gains,
)


@dataclass(frozen=True)
class TransmitFrame:
    """One user's channel-scaled analog contribution."""

    payload: np.ndarray


@dataclass(frozen=True)
class AggregateEstimate:
    """Server-side mean-gradient estimate with its noise statistics."""

    s_hat: np.ndarray
    noise_stats: NoiseStats | None = None


def clip_gradient(g: np.ndarray, L_s: float) -> np.ndarray:
    """Scale g down to norm L_s if it exceeds the bound, else pass through."""
    if L_s <= 0:
        raise ValueError("gradient-norm bound L_s must be positive")
    norm = float(np.linalg.norm(g))
    if norm <= L_s:
        return np.asarray(g, dtype=float)
    return np.asarray(g, dtype=float) * (L_s / norm)


def build_transmit(
    s_k: np.ndarray,
    n_k: np.ndarray,
    k: int,
    alloc: PowerAllocation,
    h2: np.ndarray,
) -> TransmitFrame:
    """Channel-scaled frame |h_k| (sqrt(alpha_k P_k)/L_s s_k + sqrt(beta_k P_k) n_k).

    By the alignment construction the gradient part equals m * s_k.
    """
    norm = float(np.linalg.norm(s_k))
    if norm > alloc.L_s * (1 + 1e-12):
        raise ValueError("gradient exceeds the norm bound; clip before transmitting")
    h = np.sqrt(h2[k])
    sig_amp = h * np.sqrt(alloc.alpha[k] * alloc.P[k]) / alloc.L_s
    noise_amp = h * np.sqrt(alloc.beta[k] * alloc.P[k])
    return TransmitFrame(payload=sig_amp * np.asarray(s_k) + noise_amp * np.asarray(n_k))


def superpose(frames: list[TransmitFrame], z: np.ndarray) -> np.ndarray:
    """Multiple-access channel output: elementwise sum of payloads plus noise."""
    if not frames:
        raise ValueError("no transmitters: frame list is empty")
    dim = frames[0].payload.shape
    if any(f.payload.shape != dim for f in frames) or z.shape != dim:
        raise ValueError("frame/noise dimension mismatch")
    out = z.astype(float).copy()
    for f in frames:
        out += f.payload
    return out


def postprocess(
    r: np.ndarray,
    m: float,
    K: int,
    noise_stats: NoiseStats | None = None,
) -> AggregateEstimate:
    """Rescale the received signal by 1/(mK) into the mean-gradient estimate."""
    if m <= 0:
        raise ValueError("degenerate alignment: m must be positive")
    if K < 1:
        raise ValueError("need at least one user")
    return AggregateEstimate(s_hat=np.asarray(r, dtype=float) / (m * K), noise_stats=noise_stats)


def _role_params(pairing: Pairing, secrets: list[PairSecret], K: int):
    """Per-user (mean, variance) arrays from pair secrets and roles."""
    means = np.zeros(K)
    variances = np.zeros(K)
    for (pos, neg), secret in zip(pairing.pairs, secrets):
        means[pos], variances[pos] = secret.mu, secret.sigma2_pos
        means[neg], variances[neg] = -secret.mu, secret.sigma2_neg
    return means, variances


def simulate_round(
    gradients: np.ndarray,
    realization: ChannelRealization,
    alloc: PowerAllocation,
    pairing: Pairing,
    secrets: list[PairSecret],
    sigma_z2: float,
    rng: Generator,
    pre_equalized: bool = True,
) -> AggregateEstimate:
    """One full aggregation round: clip, add PCR-AN, superpose, postprocess.

    gradients has shape (K, d).  With pre-equalization each user scales its
    noise so the received noise gain is the common minimum, making the
    pairwise means cancel exactly; without it the raw gains apply and
    cancellation is imperfect.
    """
    K, d = gradients.shape
    gains = noise_gains(realization.h2, alloc.P, alloc.beta)
    target = equalized_gain(gains)
    frames = []
    for k in range(K):
        s_k = clip_gradient(gradients[k], alloc.L_s)
        pair_idx, role = _user_role(pairing, k)
        n_k = draw_pcran(secrets[pair_idx], role, d, rng)
        if pre_equalized and gains[k] > 0:
            n_k = n_k * (target / gains[k])
        frames.append(build_transmit(s_k, n_k, k, alloc, realization.h2))
    z = awgn(d, sigma_z2, rng)
    stats = aggregate_noise_stats(
        pairing, secrets, realization.h2, alloc.P, alloc.beta,
        alloc.m, sigma_z2, pre_equalized=pre_equalized,
    )
    return postprocess(superpose(frames, z), alloc.m, K, noise_stats=stats)


def _user_role(pairing: Pairing, k: int) -> tuple[int, str]:
    for i, (pos, neg) in enumerate(pairing.pairs):
        if k == pos:
            return i, "positive"
        if k == neg:
            return i, "negative"
    raise ValueError(f"user {k} is not in the pairing")


def simulate_aggregation_rounds(
    gradients: np.ndarray,
    realization: ChannelRealization,
    alloc: PowerAllocation,
    pairing: Pairing,
    secrets: list[PairSecret],
    sigma_z2: float,
    n_rounds: int,
    rng: Generator,
    pre_equalized: bool = True,
) -> np.ndarray:
    """Vectorized Monte Carlo of many independent rounds with fixed gradients.

    Returns the (n_rounds, d) array of mean-gradient estimates.  Same model
    as :func:`simulate_round`, batched over rounds for desk-scale sample
    counts.
    """
    K, d = gradients.shape
    clipped = np.stack([clip_gradient(gradients[k], alloc.L_s) for k in range(K)])
    h = np.sqrt(realization.h2)
    sig_amp = h * np.sqrt(alloc.alpha * alloc.P) / alloc.L_s  # (K,)
    signal = sig_amp @ clipped  # (d,)

    gains = noise_gains(realization.h2, alloc.P, alloc.beta)
    eff = np.full(K, equalized_gain(gains)) if pre_equalized else gains
    means, variances = _role_params(pairing, secrets, K)

    received = np.tile(signal, (n_rounds, 1))
    for k in range(K):
        if gains[k] == 0:
            continue
        # receiver sees eff[k] * n_k per user; draw the scaled noise directly
        received += rng.normal(
            eff[k] * means[k], eff[k] * np.sqrt(variances[k]), size=(n_rounds, d)
        )
    if sigma_z2 > 0:
        received += rng.normal(0.0, np.sqrt(sigma_z2), size=(n_rounds, d))
    return received / (alloc.m * K)
