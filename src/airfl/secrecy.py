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
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import product

import numpy as np

from ._checks import count, decibels, nonnegative, positive, unit_interval
from .channel import db_to_linear, gain_blocks
from .channel import sample_gains  # noqa: F401 -- unused; bench/spans.py wraps it


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
    alpha_a, P_a, L_s, h2_a, h2_ev, sigma_z2, sigma_a2, sigma_zprime2 = (
        float(rule(name, getattr(inp, name))) for name, rule in rules.items())
    S = math.sqrt(alpha_a * P_a) / L_s
    ev_noise = sigma_z2 + sigma_a2
    if not ev_noise > 0:
        raise ValueError("eavesdropper noise sigma_z2 + sigma_a2 must be positive")
    rx_s = S * h2_a + sigma_zprime2
    rx_ev = S * h2_ev + ev_noise
    if not (math.isfinite(rx_s) and math.isfinite(rx_ev)):
        raise ValueError(f"signal factor S = sqrt(alpha_a P_a) / L_s = {S} times a "
                         f"gain plus the noise overflows, got {inp}")
    snr_s = S * h2_a / sigma_zprime2
    c_s = np.log2(rx_s) - np.log2(sigma_zprime2)
    snr_ev = S * h2_ev / ev_noise
    c_ev = np.log2(rx_ev) - np.log2(ev_noise)
    c = max(float(c_s - c_ev), 0.0)
    return SecrecyPoint(
        snr_s=snr_s, c_s=float(c_s), snr_ev=snr_ev, c_ev=float(c_ev), c=c,
    )


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
    left = _tree_sum(leaf_sums, half)
    return left + _tree_sum(leaf_sums, n - half)


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _leaf_sums(x: np.ndarray, buf: np.ndarray, points: list, delta_hs: list,
               ev_noise: float, log2_ev_noise: float) -> list:
    """The (c, c_s, c_ev) sums of every point over one leaf's gains `x`,
    computed in `buf` (len(delta_hs) + 3 rows of at least x.size)."""
    width = x.size
    h2_ev = buf[:len(delta_hs), :width]
    c_s, c_ev, c = buf[len(delta_hs):, :width]
    for row, delta_h in zip(h2_ev, delta_hs):
        np.subtract(x, delta_h, out=row)
        np.maximum(row, 0.0, out=row)
    sums = []
    for S, sigma_zprime2, log2_szp2, j, new_c_s, new_c_ev in points:
        if new_c_s:
            np.multiply(S, x, out=c_s)
            c_s += sigma_zprime2
            np.log2(c_s, out=c_s)
            c_s -= log2_szp2
            sum_c_s = np.add.reduce(c_s)
        if new_c_ev:
            np.multiply(S, h2_ev[j], out=c_ev)
            c_ev += ev_noise
            np.log2(c_ev, out=c_ev)
            c_ev -= log2_ev_noise
            sum_c_ev = np.add.reduce(c_ev)
        np.subtract(c_s, c_ev, out=c)
        np.maximum(c, 0.0, out=c)
        sums.append((np.add.reduce(c), sum_c_s, sum_c_ev))
    return sums


def _log2_cancels(noise: float) -> bool:
    """Whether log2 over a run of `noise` minus the scalar log2(noise) is +0.0
    in every element: what _leaf_sums computes for c_s or c_ev at S = 0.  The
    run spans several SIMD vectors and a tail."""
    run = np.full(71, noise)
    np.log2(run, out=run)
    run -= np.log2(noise)
    return not (np.any(run) or np.any(np.signbit(run)))


def monte_carlo_secrecy(
    sweep: SecrecySweep, n_samples: int, seed: int
) -> list[SweepResult]:
    """Average the secrecy capacity over fading realizations per sweep point.

    Deterministic given the seed; all sweep points share one set of channel
    draws so monotonicity comparisons are paired.  n_samples (at least 1)
    and seed (at least 0) must be integers.  A draw whose largest S h2 plus
    noise overflows is rejected, since its means would be NaN.

    The sample axis is walked in cache-sized blocks of at most _BLOCK =
    32768 samples, the leaves of numpy's pairwise-summation tree
    (_tree_blocks), and every point is evaluated on a block before the next
    block is read (_leaf_sums).  Per block, max(h2 - delta_h, 0) is computed
    once per distinct delta_h, c_s once per run of points that share
    (S, sigma_zprime2) and c_ev once per run that shares (S, delta_h); c is
    computed per point.  The values go through the same float operations in
    the same order as the full-array formulas (S*h2, + noise, log2,
    - log2(noise); c_s - c_ev, max(., 0)), each block is reduced with
    np.add.reduce, and the block sums are added up the same tree
    (_tree_sum) and divided by n.  That is the sum and divide that
    ndarray.mean runs, so every mean equals the full-array mean bit for bit.
    A point with S = 0 has c_s = c_ev = c = +0.0 in every sample (checked
    once, _log2_cancels), so its three means are +0.0 without block work.

    The gains are drawn block by block (channel.gain_blocks), so only one
    n-sample array is held, and each block is handed out as soon as it is
    drawn and its largest S h2 plus noise is checked.  One worker per CPU
    this process may run on (os.sched_getaffinity, else os.cpu_count), at
    most one per block, takes the blocks as they land, each in its own
    buffer: threading.Threads from the start, and the calling thread once
    the draw is done; numpy's ufuncs and normal draws release the GIL.  The
    block sums are stored by block index and added in tree order, so every
    worker count gives the same bits.  With one usable CPU no thread starts.
    """
    n_samples = count("n_samples", n_samples)
    rng = np.random.default_rng(count("seed", seed, 0))
    ev_noise = sweep.eavesdropper_noise()
    log2_ev_noise = np.log2(ev_noise)
    delta_hs = list(dict.fromkeys(sweep.delta_h_grid))

    coords = list(product(
        sweep.alpha_grid, sweep.power_db_grid, sweep.delta_h_grid, sweep.sigma_A2_db_grid
    ))
    signals = [(sweep.signal_factor(alpha, p_db), sweep.residual_noise(sA2_db),
                delta_hs.index(delta_h)) for alpha, p_db, delta_h, sA2_db in coords]
    # S h2 + noise grows with each factor; Python floats overflow unwarned
    top_S = max(S for S, _, _ in signals)
    top_noise = float(max(ev_noise, *(szp2 for _, szp2, _ in signals)))
    skipped = [S == 0 and _log2_cancels(szp2) and _log2_cancels(ev_noise)
               for S, szp2, _ in signals]
    # (S, sigma_zprime2, log2(sigma_zprime2), delta_h index, new c_s, new c_ev)
    points = []
    last_c_s = last_c_ev = None
    for (S, szp2, j), skip in zip(signals, skipped):
        if not skip:
            points.append((S, szp2, np.log2(szp2), j, (S, szp2) != last_c_s,
                           (S, j) != last_c_ev))
            last_c_s, last_c_ev = (S, szp2), (S, j)

    blocks = _tree_blocks(n_samples)
    workers = min(_cpu_count(), len(blocks))
    # allocated here, not in the threads, to keep the peak RSS down
    bufs = np.empty((workers, len(delta_hs) + 3, min(n_samples, _BLOCK)))
    args = (points, delta_hs, ev_noise, log2_ev_noise)
    leaf_sums = [None] * len(blocks)
    landed = deque()  # (block index, gains) as drawn, then one None per worker
    ready = threading.Semaphore(0)  # released once per entry of landed
    errors = []

    def work(w: int) -> None:
        while ready.acquire() and (item := landed.popleft()) is not None:
            if errors:
                continue
            i, x = item
            try:
                leaf_sums[i] = _leaf_sums(x, bufs[w], *args)
            except BaseException as exc:  # re-raised by the calling thread
                errors.append(exc)

    threads = [threading.Thread(target=work, args=(w,)) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    top_h2 = 0.0
    try:
        for i, x in enumerate(gain_blocks(n_samples, rng, blocks)):
            top_h2 = max(top_h2, float(x.max()))
            if math.isfinite(top_S * top_h2 + top_noise):
                landed.append((i, x))
                ready.release()
    except BaseException as exc:  # re-raised once every worker is joined
        errors.append(exc)
    landed.extend([None] * workers)
    ready.release(workers)
    work(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    if not math.isfinite(top_S * top_h2 + top_noise):
        raise ValueError(f"received power S |h|^2 + noise overflows at L_s = {sweep.L_s}: "
                         f"S = {top_S}, largest drawn |h|^2 = {top_h2}")
    means = iter(_tree_sum(iter(np.array(leaf_sums)), n_samples) / n_samples)

    return [
        SweepResult(
            alpha=alpha, power_db=p_db, delta_h=delta_h, sigma_A2_db=sA2_db,
            mean_c=float(mean_c), mean_c_s=float(mean_c_s), mean_c_ev=float(mean_c_ev),
        )
        for (alpha, p_db, delta_h, sA2_db), (mean_c, mean_c_s, mean_c_ev)
        in zip(coords, ((0.0, 0.0, 0.0) if skip else next(means) for skip in skipped))
    ]
