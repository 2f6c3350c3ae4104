"""Secrecy-capacity evaluation against a wiretapping eavesdropper.

Implements the server/eavesdropper SNR and capacity formulas literally as
printed, including the amplitude-like signal factor S = sqrt(alpha P)/L_s,
plus a Monte Carlo sweep engine over Rayleigh fading realizations with
common random numbers across sweep points.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .channel import ChannelConfig, db_to_linear, sample_gains


@dataclass(frozen=True)
class SecrecyInputs:
    """One victim user's link parameters for a single evaluation."""

    alpha_a: float
    P_a: float
    L_s: float
    h2_a: float
    h2_ev: float
    sigma_z2: float
    sigma_a2: float
    sigma_zprime2: float


@dataclass(frozen=True)
class SecrecyPoint:
    """SNRs and capacities (bits) at one evaluation point."""

    snr_s: float
    c_s: float
    snr_ev: float
    c_ev: float
    c: float


def secrecy_point(inp: SecrecyInputs) -> SecrecyPoint:
    """Server capacity, eavesdropper capacity, and their clamped difference.

    c_s = log2(S h2_a + sigma_zprime2) - log2(sigma_zprime2) with
    S = sqrt(alpha_a P_a)/L_s; the eavesdropper sees noise sigma_z2 +
    sigma_a2; the secrecy capacity is max(c_s - c_ev, 0).
    """
    S = np.sqrt(inp.alpha_a * inp.P_a) / inp.L_s
    if inp.sigma_zprime2 <= 0:
        raise ValueError("residual noise variance sigma_zprime2 must be positive")
    ev_noise = inp.sigma_z2 + inp.sigma_a2
    if ev_noise <= 0:
        raise ValueError("eavesdropper noise sigma_z2 + sigma_a2 must be positive")
    snr_s = S * inp.h2_a / inp.sigma_zprime2
    c_s = np.log2(S * inp.h2_a + inp.sigma_zprime2) - np.log2(inp.sigma_zprime2)
    snr_ev = S * inp.h2_ev / ev_noise
    c_ev = np.log2(S * inp.h2_ev + ev_noise) - np.log2(ev_noise)
    c = max(float(c_s - c_ev), 0.0)
    return SecrecyPoint(
        snr_s=float(snr_s), c_s=float(c_s), snr_ev=float(snr_ev),
        c_ev=float(c_ev), c=c,
    )


def _capacity_vec(S: float, h2: np.ndarray, noise: float) -> np.ndarray:
    return np.log2(S * h2 + noise) - np.log2(noise)


@dataclass(frozen=True)
class SecrecySweep:
    """Grid of sweep coordinates for the Monte Carlo engine.

    Every combination of (alpha, power, delta_h, sigma_A2) is evaluated over
    the same fading draws (common random numbers).  sigma_zprime2 for each
    point is m_factor^2 * sigma_A2 + sigma_z2.
    """

    alpha_grid: tuple[float, ...]
    power_db_grid: tuple[float, ...]
    delta_h_grid: tuple[float, ...] = (0.0,)
    sigma_A2_db_grid: tuple[float, ...] = (0.0,)
    sigma_a2_db: float = 25.0
    sigma_z2: float = 1.0
    L_s: float = 1.0
    m_factor: float = 1.0
    fading: ChannelConfig = field(
        default_factory=lambda: ChannelConfig(fading_mode="rayleigh")
    )


@dataclass(frozen=True)
class SweepResult:
    """Mean secrecy metrics at one sweep coordinate."""

    alpha: float
    power_db: float
    delta_h: float
    sigma_A2_db: float
    mean_c: float
    mean_c_s: float
    mean_c_ev: float


def monte_carlo_secrecy(
    sweep: SecrecySweep, n_samples: int, seed: int
) -> list[SweepResult]:
    """Average the secrecy capacity over fading realizations per sweep point.

    Deterministic given the seed; all sweep points share one set of channel
    draws so monotonicity comparisons are paired.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if not (sweep.alpha_grid and sweep.power_db_grid
            and sweep.delta_h_grid and sweep.sigma_A2_db_grid):
        raise ValueError("empty sweep grid")
    rng = np.random.default_rng(seed)
    h2 = sample_gains(sweep.fading, n_samples, rng)
    sigma_a2 = db_to_linear(sweep.sigma_a2_db)
    ev_noise = sweep.sigma_z2 + sigma_a2

    results = []
    for alpha, p_db, delta_h, sA2_db in product(
        sweep.alpha_grid, sweep.power_db_grid, sweep.delta_h_grid, sweep.sigma_A2_db_grid
    ):
        P = db_to_linear(p_db)
        S = np.sqrt(alpha * P) / sweep.L_s
        sigma_zprime2 = sweep.m_factor**2 * db_to_linear(sA2_db) + sweep.sigma_z2
        h2_ev = np.maximum(h2 - delta_h, 0.0)
        c_s = _capacity_vec(S, h2, sigma_zprime2)
        c_ev = _capacity_vec(S, h2_ev, ev_noise)
        c = np.maximum(c_s - c_ev, 0.0)
        results.append(
            SweepResult(
                alpha=alpha, power_db=p_db, delta_h=delta_h, sigma_A2_db=sA2_db,
                mean_c=float(c.mean()), mean_c_s=float(c_s.mean()),
                mean_c_ev=float(c_ev.mean()),
            )
        )
    return results
