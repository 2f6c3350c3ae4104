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

# MAX_DB, the largest dB value with a finite linear power, is re-exported here
from ._checks import MAX_DB, count, decibels, nonnegative


def db_to_linear(db: float) -> float:
    """Convert a dB power quantity of at most MAX_DB to linear scale: 10^(db/10)."""
    return float(10.0 ** (np.asarray(decibels("db", db)) / 10.0))


@dataclass(frozen=True)
class ChannelConfig:
    """Static channel parameters of a run: fixed at fixed_gains if given, else Rayleigh."""

    sigma_z2: float = 1.0
    fixed_gains: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        nonnegative("sigma_z2", self.sigma_z2)
        if self.fixed_gains is not None:
            nonnegative("fixed_gains", self.fixed_gains, ndim=1)

    @property
    def fading_mode(self) -> str:
        """The fading mode: "rayleigh" without fixed_gains, else "fixed"."""
        return "rayleigh" if self.fixed_gains is None else "fixed"


def sample_channel(config: ChannelConfig, K: int, rng: Generator) -> np.ndarray:
    """Draw the linear power gains |h_k|^2 of K users' server links.

    In rayleigh mode |h_k|^2 is exponential with unit mean; in fixed mode the
    configured gains are used verbatim.
    """
    count("K", K)
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
    (h2,) = gain_blocks(n, rng, [slice(0, n)])
    return h2


def gain_blocks(n: int, rng: Generator, blocks: list[slice]) -> Iterator[np.ndarray]:
    """Draw sample_gains' n Rayleigh gains block by block, with no config.

    `blocks` must tile range(n) left to right.  The call draws and squares
    all n real parts, so the calling thread owns the n-element array; the
    iterator it returns adds each block's squared imaginary parts and yields
    the block's gains as a view of that array.  Generator.normal in chunks
    reads the same stream as in one call, so the gains and the generator's
    final state are those of sample_gains.
    """
    count("n", n)
    stops = [0] + [block.stop for block in blocks]
    if [(b.start, b.step) for b in blocks] != [(a, None) for a in stops[:-1]] or stops[-1] != n:
        raise ValueError(f"blocks must tile range({n}) left to right")
    h2 = rng.normal(0.0, np.sqrt(0.5), size=n)
    np.square(h2, out=h2)
    return (_add_imaginary_parts(h2[block], rng) for block in blocks)


def _add_imaginary_parts(gains: np.ndarray, rng: Generator) -> np.ndarray:
    """Add squared N(0, 1/2) draws to the squared real parts `gains`, in place."""
    im = rng.normal(0.0, np.sqrt(0.5), size=gains.size)
    gains += np.square(im, out=im)
    return gains


def awgn(dim: int, sigma2: float, rng: Generator) -> np.ndarray:
    """Zero-mean i.i.d. Gaussian receiver noise with variance sigma2."""
    nonnegative("sigma2", sigma2)
    count("dim", dim)
    if sigma2 == 0:
        return np.zeros(dim)
    return rng.normal(0.0, np.sqrt(sigma2), size=dim)
