"""Secrecy-capacity evaluation against a wiretapping eavesdropper.

Implements the server/eavesdropper SNR and capacity formulas literally as
printed, including the amplitude-like signal factor S = sqrt(alpha P)/L_s,
plus a Monte Carlo sweep engine over Rayleigh fading realizations with
common random numbers across sweep points.
"""
from __future__ import annotations

import math
import os
import threading
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import product

import numpy as np

from ._checks import count, decibels, nonnegative, positive, unit_interval
from .channel import db_to_linear, gain_blocks
from .channel import sample_gains  # noqa: F401 -- unused; bench/spans.py wraps it


@dataclass(frozen=True)
class SecrecyPoint:
    """SNRs and capacities (bits) at one evaluation point."""

    snr_s: float
    c_s: float
    snr_ev: float
    c_ev: float
    c: float


def secrecy_point(*, alpha_a: float, P_a: float, L_s: float, h2_a: float, h2_ev: float,
                  sigma_z2: float, sigma_a2: float, sigma_zprime2: float) -> SecrecyPoint:
    """Server capacity, eavesdropper capacity, and their difference floored at 0.

    c_s = log2(S h2_a + sigma_zprime2) - log2(sigma_zprime2) with
    S = sqrt(alpha_a P_a)/L_s; the eavesdropper sees noise sigma_z2 +
    sigma_a2; the secrecy capacity is max(c_s - c_ev, 0).  Every input is
    finite, alpha_a lies in [0, 1], L_s and sigma_zprime2 are positive and the
    rest nonnegative.  S and the received powers are computed in Python
    floats, which overflow to inf without a warning; an input whose S or
    S h2 + noise is not finite is rejected.
    """
    rules = {"alpha_a": unit_interval, "P_a": nonnegative, "L_s": positive,
             "h2_a": nonnegative, "h2_ev": nonnegative, "sigma_z2": nonnegative,
             "sigma_a2": nonnegative, "sigma_zprime2": positive}
    given = (alpha_a, P_a, L_s, h2_a, h2_ev, sigma_z2, sigma_a2, sigma_zprime2)
    alpha_a, P_a, L_s, h2_a, h2_ev, sigma_z2, sigma_a2, sigma_zprime2 = values = [
        float(rule(name, value)) for (name, rule), value in zip(rules.items(), given)]
    S = math.sqrt(alpha_a * P_a) / L_s
    ev_noise = sigma_z2 + sigma_a2
    if not ev_noise > 0:
        raise ValueError("eavesdropper noise sigma_z2 + sigma_a2 must be positive")
    rx_s = S * h2_a + sigma_zprime2
    rx_ev = S * h2_ev + ev_noise
    if not (math.isfinite(rx_s) and math.isfinite(rx_ev)):
        shown = ", ".join(f"{name} = {value}" for name, value in zip(rules, values))
        raise ValueError(f"signal factor S = sqrt(alpha_a P_a) / L_s = {S} times a "
                         f"gain plus the noise overflows, got {shown}")
    snr_s = S * h2_a / sigma_zprime2
    c_s = np.log2(rx_s) - np.log2(sigma_zprime2)
    snr_ev = S * h2_ev / ev_noise
    c_ev = np.log2(rx_ev) - np.log2(ev_noise)
    c = max(float(c_s - c_ev), 0.0)
    return SecrecyPoint(snr_s=snr_s, c_s=float(c_s), snr_ev=snr_ev, c_ev=float(c_ev), c=c)


@dataclass(frozen=True)
class SecrecySweep:
    """Grid of sweep coordinates for the Monte Carlo engine.

    Every combination of (alpha, power, delta_h, sigma_A2) is evaluated over
    the same Rayleigh fading draws (common random numbers).  sigma_zprime2
    for each point is sigma_A2 + sigma_z2, and the eavesdropper's gain is
    max(|h|^2 - delta_h, 0).  Construction rejects a non-finite value, a dB
    value above MAX_DB (its linear power overflows), an alpha outside
    [0, 1], L_s <= 0, a signal factor S that overflows, a negative sigma_z2
    or delta_h, and a residual or eavesdropper noise that is not finite and
    positive, any of which would turn the means into NaN or leave the model.
    """

    alpha_grid: tuple[float, ...]
    power_db_grid: tuple[float, ...]
    delta_h_grid: tuple[float, ...] = (0.0,)
    sigma_A2_db_grid: tuple[float, ...] = (0.0,)
    sigma_a2_db: float = 25.0
    sigma_z2: float = 1.0
    L_s: float = 1.0

    def __post_init__(self) -> None:
        if not all((self.alpha_grid, self.power_db_grid, self.delta_h_grid,
                    self.sigma_A2_db_grid)):
            raise ValueError("empty sweep grid")
        rules = {"alpha_grid": unit_interval, "power_db_grid": decibels,
                 "delta_h_grid": nonnegative, "sigma_A2_db_grid": decibels,
                 "sigma_a2_db": decibels, "sigma_z2": nonnegative, "L_s": positive}
        for name, rule in rules.items():
            rule(name, getattr(self, name), ndim=1 if name.endswith("_grid") else 0)
        # S grows with alpha and power, so the largest S is at their maxima
        if not math.isfinite(self.signal_factor(max(self.alpha_grid),
                                                max(self.power_db_grid))):
            raise ValueError(f"signal factor S = sqrt(alpha P) / L_s overflows at "
                             f"L_s = {self.L_s}")
        for sigma_A2_db in self.sigma_A2_db_grid:
            positive("residual noise variance sigma_zprime2", self.residual_noise(sigma_A2_db))
        positive("eavesdropper noise sigma_z2 + sigma_a2", self.eavesdropper_noise())

    def signal_factor(self, alpha: float, power_db: float) -> float:
        """S = sqrt(alpha P) / L_s; Python floats overflow to inf unwarned."""
        return math.sqrt(alpha * db_to_linear(power_db)) / float(self.L_s)

    def residual_noise(self, sigma_A2_db: float) -> float:
        """The server's sigma_zprime2 = sigma_A2 + sigma_z2."""
        return db_to_linear(sigma_A2_db) + self.sigma_z2

    def eavesdropper_noise(self) -> float:
        """The eavesdropper's noise sigma_z2 + sigma_a2 (no cancellation)."""
        return self.sigma_z2 + db_to_linear(self.sigma_a2_db)


# leaf size of the blocked sweep: a few float64 buffers of this length stay
# in cache while every sweep point is evaluated on them, and each ufunc call
# on a leaf is long enough that worker threads rarely wait for the GIL
_BLOCK = 32768


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
    return _tree_sum(leaf_sums, half) + _tree_sum(leaf_sums, n - half)


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _leaf_sums(x: np.ndarray, buf: np.ndarray, signals: list, delta_h: np.ndarray,
               noise: np.ndarray, log2_noise: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The sums of c over one leaf's gains `x` at every (S, delta_h, sigma_A2),
    into `out`, of shape (len(signals), len(delta_h), len(sigma_A2)).

    `delta_h` is a column of the grid's delta_h values.  `noise` is a column
    of each sigma_zprime2, then the eavesdropper noise once per delta_h;
    `log2_noise` holds their log2.  `buf` has 3 len(delta_h) + len(sigma_A2)
    rows of at least x.size: the h2_ev rows, the c_s rows (one per
    sigma_A2), the c_ev rows (one per delta_h) and len(delta_h) spare rows.

    Per leaf, max(x - delta_h, 0) fills every h2_ev row in one subtract and
    one maximum.  Per S, one multiply fills the c_s rows (S x) and one the
    c_ev rows (S h2_ev); one add of `noise`, one log2 and one subtract of
    `log2_noise` run over all of them.  Per sigma_A2, c = max(c_s - c_ev, 0)
    for every delta_h takes one subtract, one maximum and one add.reduce
    along the sample axis; with one delta_h, those three calls cover every
    sigma_A2.
    """
    width, n_dh = x.size, delta_h.size
    h2_ev = buf[:n_dh, :width]
    rx = buf[n_dh:n_dh + noise.size, :width]  # the c_s rows, then the c_ev rows
    c_s, c_ev = rx[:-n_dh], rx[-n_dh:]
    # (c_s rows, where c goes, where its sums go).  With one delta_h, c is
    # written over every c_s row in one step: fewer calls and fewer rows in
    # cache (one step per sigma_A2 ran fig4 slower than a step per point).
    # Else one sigma_A2 per step, c into the spare rows and over c_ev at its
    # last use.
    if n_dh == 1:
        steps = [(c_s, c_s, 0)]
    else:
        c_rows = [buf[n_dh + noise.size:, :width]] * (len(c_s) - 1) + [c_ev]
        steps = [(c_s[a], c, (slice(None), a)) for a, c in enumerate(c_rows)]
    np.subtract(x, delta_h, out=h2_ev)
    np.maximum(h2_ev, 0.0, out=h2_ev)
    for S, sums in zip(signals, out):
        np.multiply(S, x, out=c_s)
        np.multiply(S, h2_ev, out=c_ev)
        rx += noise
        np.log2(rx, out=rx)
        rx -= log2_noise
        for rows, c, at in steps:
            np.subtract(rows, c_ev, out=c)
            np.maximum(c, 0.0, out=c)
            np.add.reduce(c, axis=-1, out=sums[at])
    return out


def _log2_cancels(noise: float) -> bool:
    """Whether log2 over a run of `noise` minus the scalar log2(noise) is +0.0
    in every element: what _leaf_sums computes for c_s or c_ev at S = 0.  The
    run spans several SIMD vectors and a tail."""
    run = np.full(71, noise)
    np.log2(run, out=run)
    run -= np.log2(noise)
    return not (np.any(run) or np.any(np.signbit(run)))


def monte_carlo_secrecy(sweep: SecrecySweep, n_samples: int, seed: int) -> np.ndarray:
    """Average the secrecy capacity over fading realizations per sweep point.

    Returns the float64 means, shaped (len(alpha_grid), len(power_db_grid),
    len(delta_h_grid), len(sigma_A2_db_grid)), so the .flat order is
    itertools.product over the four grids.  Deterministic given the seed;
    all sweep points share one set of channel draws so monotonicity
    comparisons are paired.  n_samples (at least 1)
    and seed (at least 0) must be integers.  A draw whose largest S h2 plus
    noise overflows is rejected, since its means would be NaN.

    The sample axis is walked in cache-sized blocks of at most _BLOCK =
    32768 samples, the leaves of numpy's pairwise-summation tree
    (_tree_blocks), and every point is evaluated on a block before the next
    block is read (_leaf_sums).  Per block, max(h2 - delta_h, 0) is computed
    once for every delta_h; then, for each signal factor
    S = sqrt(alpha P)/L_s, c_s once per sigma_zprime2, c_ev once per delta_h
    and c once per (delta_h, sigma_A2), each numpy call running over the
    stacked rows of one S.  The values go through the same float operations
    in the same order as the full-array formulas (S*h2, + noise, log2,
    - log2(noise); c_s - c_ev, max(., 0)), each block's rows are reduced
    with np.add.reduce, and the block sums are added up the same tree
    (_tree_sum) and divided by n.  That is the sum and divide that
    ndarray.mean runs, so every mean equals the full-array mean bit for bit.
    At S = 0, c_s = c_ev = c = +0.0 in every sample when log2 cancels for
    every noise (checked once, _log2_cancels); then every S = 0 row is
    skipped and its means are the +0.0 of np.zeros.

    The gains are drawn block by block (channel.gain_blocks, whose n real
    parts the calling thread draws), so only one n-sample array is held.
    One worker per CPU this process may run on (os.sched_getaffinity, else
    os.cpu_count), at most one per block, runs one loop in its own buffer:
    under one lock, unless a worker has failed, draw the next block and
    check its largest S h2 plus noise, whose overflow is the error that
    ends every loop; then evaluate the block.  So the error names the first
    overflowing block in draw order.  The calling thread is one worker, so
    one usable CPU starts no thread; numpy releases the GIL.  Blocks are
    drawn in a fixed order, and their sums are stored by index and added in
    tree order, so every worker count gives the same bits.
    """
    n_samples = count("n_samples", n_samples)
    rng = np.random.default_rng(count("seed", seed, 0))
    n_dh, n_sA2 = len(sweep.delta_h_grid), len(sweep.sigma_A2_db_grid)
    # the noise of each c_s row (sigma_zprime2 per sigma_A2), then of each c_ev row
    noises = ([sweep.residual_noise(sA2_db) for sA2_db in sweep.sigma_A2_db_grid]
              + [sweep.eavesdropper_noise()] * n_dh)
    signals = [sweep.signal_factor(alpha, p_db)
               for alpha, p_db in product(sweep.alpha_grid, sweep.power_db_grid)]
    # S h2 + noise grows with each factor; Python floats overflow unwarned
    top_S, top_noise = max(signals), float(max(noises))
    skip_zero = 0.0 in signals and all(map(_log2_cancels, noises))
    live = [i for i, S in enumerate(signals) if S or not skip_zero]

    blocks = _tree_blocks(n_samples)
    workers = min(_cpu_count(), len(blocks))
    # allocated here, not in the threads, to keep the peak RSS down
    bufs = np.empty((workers, 3 * n_dh + n_sA2, min(n_samples, _BLOCK)))
    leaves = enumerate(gain_blocks(n_samples, rng, blocks))  # draws the real parts
    # the log2 of each noise taken alone, as the full-array formula takes it
    args = ([signals[i] for i in live], np.array(sweep.delta_h_grid)[:, None],
            np.array(noises)[:, None], np.array([np.log2(v) for v in noises])[:, None])
    leaf_sums = np.empty((len(blocks), len(live), n_dh, n_sA2))
    pull = threading.Lock()  # held while a leaf is drawn and checked
    errors = []

    def work(w: int) -> None:
        try:
            while True:
                with pull:
                    if errors or (leaf := next(leaves, None)) is None:
                        return
                    i, x = leaf
                    top_h2 = float(x.max())
                    if not math.isfinite(top_S * top_h2 + top_noise):
                        errors.append(ValueError(
                            f"received power S |h|^2 + noise overflows at L_s = {sweep.L_s}: S = "
                            f"{top_S}, largest |h|^2 in samples {blocks[i].start}.."
                            f"{blocks[i].stop - 1} = {top_h2}"))
                        return
                _leaf_sums(x, bufs[w], *args, leaf_sums[i])
        except BaseException as exc:  # re-raised by the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(w,)) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    work(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    means = np.zeros((len(signals), n_dh, n_sA2))
    means[live] = _tree_sum(iter(leaf_sums), n_samples) / n_samples
    return means.reshape(len(sweep.alpha_grid), len(sweep.power_db_grid), n_dh, n_sA2)
