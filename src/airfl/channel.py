"""Fading channel and receiver-noise generation.

All randomness flows through explicit ``numpy.random.Generator`` instances so
that every realization is reproducible from a seed.  Channel coefficients are
modelled as circularly-symmetric complex Gaussians with unit variance
(real/imag each N(0, 1/2)), so the power gain |h|^2 is unit-mean exponential
(Rayleigh fading).  Phase correction at the transmitter is assumed perfect,
hence only magnitudes appear downstream.
"""
from __future__ import annotations

from collections.abc import Iterator
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
    (h2,) = gain_blocks(config, n, rng, [slice(0, n)])
    return h2


def gain_blocks(config: ChannelConfig, n: int, rng: Generator,
                blocks: list[slice]) -> Iterator[np.ndarray]:
    """Draw the gains of sample_gains(config, n, rng) block by block.

    `blocks` must tile range(n) left to right.  All n real parts are drawn
    and squared first; then, per block, its imaginary parts are drawn,
    squared and added, and the block's gains are yielded as a view of one
    n-element array.  Generator.normal in chunks reads the same stream as in
    one call, so the gains and the generator's final state are those of
    sample_gains, and a consumer can start on a block while the next is drawn.
    """
    if config.fading_mode != "rayleigh":
        raise ValueError(f"sample_gains draws Rayleigh gains, got fading_mode "
                         f"{config.fading_mode!r}")
    if n < 1:
        raise ValueError("need at least one sample")
    stops = [0] + [block.stop for block in blocks]
    if [(b.start, b.step) for b in blocks] != [(a, None) for a in stops[:-1]] or stops[-1] != n:
        raise ValueError(f"blocks must tile range({n}) left to right")
    h2 = rng.normal(0.0, np.sqrt(0.5), size=n)
    np.square(h2, out=h2)
    for block in blocks:
        im = rng.normal(0.0, np.sqrt(0.5), size=block.stop - block.start)
        np.square(im, out=im)
        h2[block] += im
        yield h2[block]


def awgn(dim: int, sigma2: float, rng: Generator) -> np.ndarray:
    """Zero-mean i.i.d. Gaussian receiver noise with variance sigma2."""
    if sigma2 < 0:
        raise ValueError("noise variance must be nonnegative")
    if dim < 1:
        raise ValueError("dim must be at least 1")
    if sigma2 == 0:
        return np.zeros(dim)
    return rng.normal(0.0, np.sqrt(sigma2), size=dim)
