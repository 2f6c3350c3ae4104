"""Fading channel and receiver-noise generation.

All randomness flows through explicit ``numpy.random.Generator`` instances so
that every realization is reproducible from a seed.  Channel coefficients are
modelled as circularly-symmetric complex Gaussians with unit variance
(real/imag each N(0, 1/2)), so the power gain |h|^2 is unit-mean exponential
(Rayleigh fading).  Phase correction at the transmitter is assumed perfect,
hence only magnitudes appear downstream.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator


# Largest dB value whose linear power is a finite float (about 3082.5 dB).
# 10*log10 of the largest float rounds up to a value that overflows, so the
# limit is the float just below it.
MAX_DB = float(np.nextafter(10.0 * np.log10(np.finfo(float).max), 0.0))


def db_to_linear(db: float) -> float:
    """Convert a dB power quantity to linear scale: 10^(db/10).

    Values above MAX_DB overflow to inf with a numpy warning; callers that
    take dB values from outside reject them first.
    """
    return float(10.0 ** (np.asarray(db) / 10.0))


@dataclass(frozen=True)
class ChannelConfig:
    """Static channel parameters shared by all realizations of a run."""

    fading_mode: str = "rayleigh"  # "rayleigh" or "fixed"
    sigma_z2: float = 1.0
    fixed_gains: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.fading_mode not in ("rayleigh", "fixed"):
            raise ValueError(f"unknown fading_mode {self.fading_mode!r}")
        if not np.isfinite(self.sigma_z2):
            raise ValueError(f"sigma_z2 must be finite, got {self.sigma_z2}")
        if self.sigma_z2 < 0:
            raise ValueError("sigma_z2 must be nonnegative")
        if self.fading_mode == "fixed":
            if self.fixed_gains is None:
                raise ValueError("fixed fading mode requires fixed_gains")
            if not np.all(np.isfinite(self.fixed_gains)):
                raise ValueError("fixed_gains must be finite")
            if any(g < 0 for g in self.fixed_gains):
                raise ValueError("fixed_gains must be nonnegative")


def sample_channel(config: ChannelConfig, K: int, rng: Generator) -> np.ndarray:
    """Draw the linear power gains |h_k|^2 of K users' server links.

    In rayleigh mode |h_k|^2 is exponential with unit mean; in fixed mode the
    configured gains are used verbatim.
    """
    if K < 1:
        raise ValueError("empty system: need at least one user")
    if config.fading_mode == "rayleigh":
        return sample_gains(config, K, rng)
    if len(config.fixed_gains) != K:
        raise ValueError(
            f"fixed_gains has length {len(config.fixed_gains)}, expected K={K}"
        )
    return np.asarray(config.fixed_gains, dtype=float)


def sample_gains(config: ChannelConfig, n: int, rng: Generator) -> np.ndarray:
    """Draw n i.i.d. Rayleigh server-link power gains (Monte Carlo helper)."""
    if config.fading_mode != "rayleigh":
        raise ValueError(f"sample_gains draws Rayleigh gains, got fading_mode "
                         f"{config.fading_mode!r}")
    if n < 1:
        raise ValueError("need at least one sample")
    re = rng.normal(0.0, np.sqrt(0.5), size=n)
    im = rng.normal(0.0, np.sqrt(0.5), size=n)
    return re**2 + im**2


def awgn(dim: int, sigma2: float, rng: Generator) -> np.ndarray:
    """Zero-mean i.i.d. Gaussian receiver noise with variance sigma2."""
    if sigma2 < 0:
        raise ValueError("noise variance must be nonnegative")
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if sigma2 == 0:
        return np.zeros(dim)
    return rng.normal(0.0, np.sqrt(sigma2), size=dim)
