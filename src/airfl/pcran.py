"""Pairwise-cancellable random artificial noise (PCR-AN).

Covers pair formation, shared-secret noise parameters, noise sampling, the
gradient/noise power split (alignment constant m and per-user alpha), the
privacy-driven beta allocation, and the aggregated-noise statistics of the
cancellation algebra.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator

from ._checks import (count, finite, nonnegative, open_unit_interval, positive,
                      positive_fraction, unit_interval)

@dataclass(frozen=True)
class PairSecret:
    """Shared (mu, sigma2_pos, sigma2_neg) defining one pair's noise laws.

    The positive-role user draws N(+mu, sigma2_pos); the negative-role user
    draws N(-mu, sigma2_neg).  Opposite means cancel in the aggregate.
    """

    mu: float
    sigma2_pos: float
    sigma2_neg: float

    def __post_init__(self) -> None:
        finite("mu", self.mu)
        positive("sigma2_pos", self.sigma2_pos)
        positive("sigma2_neg", self.sigma2_neg)


@dataclass(frozen=True)
class Pairing:
    """Perfect matching of users into (positive, negative) role pairs."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        seen = [u for pair in self.pairs for u in pair]
        if len(set(seen)) != len(seen):
            raise ValueError("a user appears in more than one pair")


@dataclass(frozen=True)
class PowerAllocation:
    """Per-user power budget and split, plus the alignment constant."""

    P: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    m: float
    L_s: float


@dataclass(frozen=True)
class NoiseStats:
    """Aggregated PCR-AN statistics at the aggregation server.

    M is the scalar front factor (1/(mK)) * sum over positive-role users of
    the equalized noise gain c; sigma_A2 sums both variances of every pair.
    sigma_zprime2 = M^2 sigma_A2 + sigma_z2 is the paper's residual-noise
    formula.  estimator_var = (c^2 sigma_A2 + sigma_z2) / (mK)^2 is the exact
    per-coordinate variance of the server's estimate s_hat, the quantity a
    simulation measures.
    """

    M: float
    sigma_A2: float
    sigma_zprime2: float
    estimator_var: float


def form_pairs(K: int, rng: Generator) -> Pairing:
    """Randomly match K users (K even) into positive/negative role pairs."""
    if count("K", K, 2) % 2 != 0:
        raise ValueError(f"pairwise noise needs an even number of users, got K={K}")
    perm = rng.permutation(K)
    pairs = tuple((int(perm[2 * i]), int(perm[2 * i + 1])) for i in range(K // 2))
    return Pairing(pairs=pairs)


def draw_secrets(n_pairs: int, rng: Generator) -> list[PairSecret]:
    """Draw per-pair secrets: mu uniform in [0.5, 1.5] and unit variances,
    each still read as a uniform on [1, 1] (three uniforms per pair)."""
    secrets = []
    for _ in range(count("n_pairs", n_pairs, 0)):
        mu = rng.uniform(0.5, 1.5)
        s_pos = rng.uniform(1.0, 1.0)
        s_neg = rng.uniform(1.0, 1.0)
        secrets.append(PairSecret(mu=mu, sigma2_pos=s_pos, sigma2_neg=s_neg))
    return secrets


def draw_pcran(secret: PairSecret, role: str, dim: int, rng: Generator) -> np.ndarray:
    """Sample one user's artificial-noise vector for its pair role."""
    count("dim", dim)
    if role == "positive":
        mean, var = secret.mu, secret.sigma2_pos
    elif role == "negative":
        mean, var = -secret.mu, secret.sigma2_neg
    else:
        raise ValueError(f"role must be 'positive' or 'negative', got {role!r}")
    return rng.normal(mean, np.sqrt(var), size=dim)


def compute_alignment(
    h2: np.ndarray,
    P: np.ndarray,
    L_s: float,
    alpha_cap: float = 1.0,
) -> tuple[float, np.ndarray]:
    """Channel-inversion power split: alignment constant m and per-user alpha.

    m = sqrt(alpha_cap * min_q |h_q|^2 P_q) / L_s and
    alpha_k = alpha_cap * min_q(|h_q|^2 P_q) / (|h_k|^2 P_k), so that
    |h_k| sqrt(alpha_k P_k) / L_s = m for every user.  alpha_cap < 1 caps the
    signal power fraction of the worst-SNR user (alpha_cap = 0.5 realizes the
    "alpha_k = 0.5" operating point on equal-gain channels).  An m that
    overflows (L_s far below the signal amplitude) is rejected.
    """
    h2 = np.asarray(nonnegative("h2", h2, ndim=1), dtype=float)
    P = np.asarray(positive("P", P, ndim=1), dtype=float)
    if h2.size != P.size:
        raise ValueError(f"h2 and P need one entry per user, got {h2.size} and {P.size} entries")
    positive("L_s", L_s)
    positive_fraction("alpha_cap", alpha_cap)
    with np.errstate(over="ignore"):  # an overflowing product is rejected here
        eff = finite("h2 * P", h2 * P, ndim=1)
    if np.any(eff == 0):
        raise ValueError("degenerate channel: zero gain makes channel inversion impossible")
    worst = float(eff.min())  # first index wins on ties via min
    # Python floats overflow to inf without numpy's warning
    m = math.sqrt(alpha_cap * worst) / float(L_s)
    if not math.isfinite(m):
        raise ValueError(f"alignment constant m = sqrt(alpha_cap * min |h|^2 P) / L_s "
                         f"overflows at L_s = {L_s}")
    alpha = alpha_cap * worst / eff
    return m, alpha


def optimize_beta_dp(
    h2: np.ndarray,
    P: np.ndarray,
    eps: np.ndarray,
    delta: float,
    sigma_z2: float,
    caps: np.ndarray,
    alpha: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """Privacy-driven sequential noise-power allocation: returns (beta, psi).

    The total noise-power demand is
    Psi = max_p (min_q |h_q|^2 P_q / eps_p) * ln(1.25/delta) - sigma_z2,
    filled user by user: Z_k = min(cap_k, (Psi - sum_{p<k} U_p)^+) with
    U_p = |h_p|^2 beta_p P_p, and beta_k = Z_k / (|h_k|^2 P_k).  The result
    is clipped to the physical range [0, 1 - alpha_k] (alpha defaults to 0).
    Psi <= 0 means the privacy demand is already met by channel noise and no
    artificial noise is allocated.
    """
    h2 = np.asarray(positive("h2", h2, ndim=1), dtype=float)
    P = np.asarray(positive("P", P, ndim=1), dtype=float)
    eps = np.asarray(positive("eps", eps, ndim=1), dtype=float)
    caps = np.asarray(nonnegative("caps", caps, ndim=1), dtype=float)
    alpha = np.zeros(h2.shape) if alpha is None else unit_interval("alpha", alpha, ndim=1)
    shapes = [np.shape(v) for v in (h2, P, eps, caps, alpha)]
    if h2.ndim != 1 or len(set(shapes)) != 1 or not h2.size:
        raise ValueError(f"h2, P, eps, caps and alpha need one entry per user (at least one), "
                         f"got shapes {shapes}")
    open_unit_interval("delta", delta)
    nonnegative("sigma_z2", sigma_z2)
    with np.errstate(over="ignore"):  # an overflowing product is rejected here
        eff = positive("h2 * P", h2 * P, ndim=1)

    worst = float(eff.min())
    psi = float(np.max(worst / eps) * np.log(1.25 / delta) - sigma_z2)

    K = len(eff)
    beta = np.zeros(K)
    used = 0.0
    for k in range(K):
        remaining = max(psi - used, 0.0)
        z_k = min(float(caps[k]), remaining)
        beta[k] = z_k / eff[k]
        used += eff[k] * beta[k]

    return np.clip(beta, 0.0, 1.0 - np.asarray(alpha, dtype=float)), psi


def noise_gains(h2: np.ndarray, P: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Per-user effective noise amplitude |h_k| sqrt(beta_k P_k)."""
    return np.sqrt(np.asarray(h2) * np.asarray(beta) * np.asarray(P))


def equalized_gain(gains: np.ndarray) -> float:
    """Common noise-gain target for pre-equalization: the minimum gain."""
    return float(np.min(gains))


def aggregate_noise_stats(
    pairing: Pairing,
    secrets: list[PairSecret],
    h2: np.ndarray,
    P: np.ndarray,
    beta: np.ndarray,
    m: float,
    sigma_z2: float,
) -> NoiseStats:
    """Predicted statistics of the aggregated PCR-AN term.

    Pre-equalization makes every user's effective noise gain the common
    minimum c, so the pairwise means cancel and the aggregated noise term has
    mean exactly zero.  See :class:`NoiseStats` for the fields.
    """
    if len(secrets) != len(pairing.pairs):
        raise ValueError("need one secret per pair")
    for name, value in (("h2", h2), ("P", P), ("beta", beta)):
        nonnegative(name, value, ndim=1)
    nonnegative("sigma_z2", sigma_z2)
    positive("alignment constant m", m)
    K = 2 * len(pairing.pairs)
    if K == 0:
        raise ValueError("pairing has no pairs: there are no users to aggregate")
    sizes = [np.size(h2), np.size(P), np.size(beta)]
    if sizes != [K] * 3:
        # an unpaired user's gain would set the common noise gain c
        raise ValueError(f"h2, P and beta need one entry per paired user ({K}), got "
                         f"{sizes[0]}, {sizes[1]} and {sizes[2]} entries")
    c = equalized_gain(noise_gains(h2, P, beta))
    sigma_A2 = float(sum(s.sigma2_pos + s.sigma2_neg for s in secrets))
    M = float(sum(c for _ in pairing.pairs) / (m * K))
    # a float power raises OverflowError where the product returns inf, and
    # (mK)^2 is a divisor that must not underflow to 0; the powers below keep
    # their bits, which can differ from the product's in the last place
    finite("noise factor M**2", M * M)
    positive("(m*K)**2", (m * K) * (m * K))
    # a product of floats overflows to inf, and a subnormal (mK)^2 divides to inf
    sigma_zprime2 = finite("sigma_zprime2", M**2 * sigma_A2 + sigma_z2)
    estimator_var = finite("estimator_var", (c**2 * sigma_A2 + sigma_z2) / (m * K) ** 2)
    return NoiseStats(M=M, sigma_A2=sigma_A2, sigma_zprime2=sigma_zprime2,
                      estimator_var=estimator_var)
