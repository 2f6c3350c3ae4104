"""Secrecy-capacity evaluation against a wiretapping eavesdropper.

Implements the server/eavesdropper SNR and capacity formulas literally as
printed, including the amplitude-like signal factor S = sqrt(alpha P)/L_s,
plus a Monte Carlo sweep engine over Rayleigh fading realizations with
common random numbers across sweep points.
"""
from __future__ import annotations

from collections.abc import Iterator
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


@dataclass(frozen=True)
class SecrecySweep:
    """Grid of sweep coordinates for the Monte Carlo engine.

    Every combination of (alpha, power, delta_h, sigma_A2) is evaluated over
    the same fading draws (common random numbers).  sigma_zprime2 for each
    point is m_factor^2 * sigma_A2 + sigma_z2.  Construction rejects a
    non-finite value, an alpha outside [0, 1], L_s <= 0, a negative sigma_z2
    or delta_h, and a point whose residual or eavesdropper noise is not
    positive, any of which would turn the means into NaN or leave the model.
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

    def __post_init__(self) -> None:
        grids = {
            "alpha_grid": self.alpha_grid,
            "power_db_grid": self.power_db_grid,
            "delta_h_grid": self.delta_h_grid,
            "sigma_A2_db_grid": self.sigma_A2_db_grid,
        }
        if not all(grids.values()):
            raise ValueError("empty sweep grid")
        scalars = {name: (getattr(self, name),)
                   for name in ("sigma_a2_db", "sigma_z2", "L_s", "m_factor")}
        for name, values in {**grids, **scalars}.items():
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{name} must be finite, got {values}")
        if not all(0 <= a <= 1 for a in self.alpha_grid):
            raise ValueError(f"alpha_grid values must lie in [0, 1], got {self.alpha_grid}")
        if self.L_s <= 0:
            raise ValueError(f"L_s must be positive, got {self.L_s}")
        if self.sigma_z2 < 0:
            raise ValueError(f"sigma_z2 must be nonnegative, got {self.sigma_z2}")
        if any(dh < 0 for dh in self.delta_h_grid):
            raise ValueError(f"delta_h_grid values must be nonnegative, got {self.delta_h_grid}")
        if any(self.residual_noise(s) <= 0 for s in self.sigma_A2_db_grid):
            raise ValueError("residual noise variance sigma_zprime2 must be positive")
        if self.eavesdropper_noise() <= 0:
            raise ValueError("eavesdropper noise sigma_z2 + sigma_a2 must be positive")

    def residual_noise(self, sigma_A2_db: float) -> float:
        """The server's sigma_zprime2 = m_factor^2 * sigma_A2 + sigma_z2."""
        return self.m_factor**2 * db_to_linear(sigma_A2_db) + self.sigma_z2

    def eavesdropper_noise(self) -> float:
        """The eavesdropper's noise sigma_z2 + sigma_a2 (no cancellation)."""
        return self.sigma_z2 + db_to_linear(self.sigma_a2_db)


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


# leaf size of the blocked sweep: a few float64 buffers of this length stay
# in cache while every sweep point is evaluated on them
_BLOCK = 16384


def _tree_split(n: int) -> int:
    """Where numpy's pairwise float sum splits a run of n > 128 elements."""
    half = n // 2
    return half - half % 8


def _tree_blocks(n: int, start: int = 0) -> list[slice]:
    """The nodes of numpy's pairwise-summation tree over n elements that hold
    at most _BLOCK elements, left to right."""
    if n <= _BLOCK:
        return [slice(start, start + n)]
    half = _tree_split(n)
    return _tree_blocks(half, start) + _tree_blocks(n - half, start + half)


def _tree_sum(leaf_sums: Iterator, n: int):
    """Add the sums of the _tree_blocks(n) leaves, in that order, up the tree.

    Equals np.add.reduce over the n elements bit for bit, because each leaf
    sum is the subtree numpy itself would compute there.
    """
    if n <= _BLOCK:
        return next(leaf_sums)
    half = _tree_split(n)
    left = _tree_sum(leaf_sums, half)
    return left + _tree_sum(leaf_sums, n - half)


def monte_carlo_secrecy(
    sweep: SecrecySweep, n_samples: int, seed: int
) -> list[SweepResult]:
    """Average the secrecy capacity over fading realizations per sweep point.

    Deterministic given the seed; all sweep points share one set of channel
    draws so monotonicity comparisons are paired.

    The sample axis is walked in cache-sized blocks, the leaves of numpy's
    pairwise-summation tree (_tree_blocks), and every point is evaluated on
    a block before the next block is read.  Per block, max(h2 - delta_h, 0)
    is computed once per distinct delta_h and c_s once per run of points
    that share (S, sigma_zprime2); c_ev and c are computed per point.  The
    values go through the same float operations in the same order as the
    full-array formulas (S*h2, + noise, log2, - log2(noise); c_s - c_ev,
    max(., 0)), each block is reduced with np.add.reduce, and the block sums
    are added up the same tree (_tree_sum) and divided by n.  That is the
    sum and divide that ndarray.mean runs, so every mean equals the
    full-array mean bit for bit.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    rng = np.random.default_rng(seed)
    h2 = sample_gains(sweep.fading, n_samples, rng)
    ev_noise = sweep.eavesdropper_noise()
    log2_ev_noise = np.log2(ev_noise)
    delta_hs = list(dict.fromkeys(sweep.delta_h_grid))

    coords = list(product(
        sweep.alpha_grid, sweep.power_db_grid, sweep.delta_h_grid, sweep.sigma_A2_db_grid
    ))
    points = []  # (S, sigma_zprime2, log2(sigma_zprime2), delta_h index, new c_s)
    last = None
    for alpha, p_db, delta_h, sA2_db in coords:
        S = np.sqrt(alpha * db_to_linear(p_db)) / sweep.L_s
        sigma_zprime2 = sweep.residual_noise(sA2_db)
        points.append((S, sigma_zprime2, np.log2(sigma_zprime2),
                       delta_hs.index(delta_h), (S, sigma_zprime2) != last))
        last = (S, sigma_zprime2)

    buf = np.empty((len(delta_hs) + 3, min(n_samples, _BLOCK)))
    leaf_sums = []
    for block in _tree_blocks(n_samples):
        x = h2[block]
        width = x.size
        h2_ev = buf[:len(delta_hs), :width]
        c_s, c_ev, c = buf[len(delta_hs):, :width]
        for row, delta_h in zip(h2_ev, delta_hs):
            np.subtract(x, delta_h, out=row)
            np.maximum(row, 0.0, out=row)
        sums = []
        for S, sigma_zprime2, log2_szp2, j, new_c_s in points:
            if new_c_s:
                np.multiply(S, x, out=c_s)
                c_s += sigma_zprime2
                np.log2(c_s, out=c_s)
                c_s -= log2_szp2
                sum_c_s = np.add.reduce(c_s)
            np.multiply(S, h2_ev[j], out=c_ev)
            c_ev += ev_noise
            np.log2(c_ev, out=c_ev)
            c_ev -= log2_ev_noise
            np.subtract(c_s, c_ev, out=c)
            np.maximum(c, 0.0, out=c)
            sums.append((np.add.reduce(c), sum_c_s, np.add.reduce(c_ev)))
        leaf_sums.append(sums)
    means = _tree_sum(iter(np.array(leaf_sums)), n_samples) / n_samples

    return [
        SweepResult(
            alpha=alpha, power_db=p_db, delta_h=delta_h, sigma_A2_db=sA2_db,
            mean_c=float(mean_c), mean_c_s=float(mean_c_s), mean_c_ev=float(mean_c_ev),
        )
        for (alpha, p_db, delta_h, sA2_db), (mean_c, mean_c_s, mean_c_ev)
        in zip(coords, means)
    ]
