import math
import sys
import threading
import time
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

from airfl import secrecy
from airfl.channel import MAX_DB, ChannelConfig, db_to_linear, sample_gains
from airfl.secrecy import (
    SecrecySweep,
    _BLOCK,
    _tree_blocks,
    _tree_sum,
    monte_carlo_secrecy,
    secrecy_point,
)


def point(**kw):
    base = dict(alpha_a=1.0, P_a=1.0, L_s=1.0, h2_a=2.0, h2_ev=1.0,
                sigma_z2=1.0, sigma_a2=1.0, sigma_zprime2=1.0)
    base.update(kw)
    return secrecy_point(**base)


class TestSecrecyPoint:
    def test_hand_derived_one_bit(self):
        p = point()
        assert p.c_s == pytest.approx(np.log2(3.0), rel=1e-12)
        assert p.c_ev == pytest.approx(np.log2(1.5), rel=1e-12)
        assert p.c == pytest.approx(1.0, rel=1e-12)

    def test_identical_links_zero_secrecy(self):
        p = point(h2_ev=2.0, sigma_a2=0.0, sigma_zprime2=1.0)
        assert p.c == 0.0

    def test_clamped_at_zero(self):
        # eavesdropper with the better channel
        p = point(h2_a=0.5, h2_ev=5.0, sigma_a2=0.0)
        assert p.c_s - p.c_ev < 0
        assert p.c == 0.0

    def test_log_identity(self):
        r = np.random.default_rng(3)
        for _ in range(10**4):
            p = point(
                alpha_a=r.uniform(0, 1), P_a=r.uniform(0.1, 1000),
                h2_a=r.uniform(0, 5), h2_ev=r.uniform(0, 5),
                sigma_a2=r.uniform(0, 300), sigma_zprime2=r.uniform(0.1, 100),
                sigma_z2=r.uniform(0.1, 2),
            )
            assert p.c_s == pytest.approx(np.log2(1 + p.snr_s), abs=1e-12)
            assert p.c_ev == pytest.approx(np.log2(1 + p.snr_ev), abs=1e-12)
            assert p.c == max(p.c_s - p.c_ev, 0.0)

    def test_more_sender_noise_raises_secrecy(self):
        cs = [point(sigma_a2=s).c for s in (0.0, 1.0, 10.0, 100.0)]
        assert all(lo <= hi for lo, hi in zip(cs, cs[1:]))

    def test_more_residual_noise_lowers_secrecy(self):
        cs = [point(sigma_zprime2=s).c for s in (1.0, 2.0, 10.0, 100.0)]
        assert all(hi <= lo for lo, hi in zip(cs, cs[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="sigma_zprime2"):
            point(sigma_zprime2=0.0)
        with pytest.raises(ValueError, match="eavesdropper"):
            point(sigma_z2=0.0, sigma_a2=0.0)

    @pytest.mark.parametrize("kw", [
        {"L_s": 1e-320},
        {"P_a": 1e300, "L_s": 1e-160},
        {"P_a": 1e300, "L_s": 1e-150, "h2_a": 1e10},
        {"P_a": 1e300, "L_s": 1e-150, "h2_ev": 1e10},
    ])
    def test_overflowing_signal_rejected(self, kw):
        # S = sqrt(alpha P) / L_s, or S h2 + noise, once overflowed after a
        # numpy warning and gave c = nan
        with pytest.raises(ValueError, match="overflows"):
            point(**kw)

    @pytest.mark.parametrize("kw", [{"L_s": 0.0}, {"L_s": -1.0}, {"alpha_a": -0.5}])
    def test_out_of_domain_signal_factor_rejected(self, kw):
        (name,) = kw
        rule = {"L_s": "a finite positive value", "alpha_a": r"a finite value in \[0, 1\]"}
        with pytest.raises(ValueError, match=f"{name} must be {rule[name]}"):
            point(**kw)

    @pytest.mark.parametrize("kw", [{"h2_a": -5.0}, {"h2_ev": -0.5}])
    def test_negative_gain_rejected(self, kw):
        # h2_a = -5 once gave c = nan after numpy's "invalid value" warning,
        # and h2_ev = -0.5 silently gave snr_ev = -0.25
        (name,) = kw
        with pytest.raises(ValueError, match=f"{name} must be a finite nonnegative value"):
            point(**kw)

    @pytest.mark.parametrize("name", ["h2_a", "sigma_zprime2", "h2_ev", "alpha_a"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, name, value):
        # a NaN h2_a or sigma_zprime2 once gave c = nan
        with pytest.raises(ValueError, match="finite"):
            point(**{name: value})


def assert_same_bits(a, b):
    """Equal shapes and bytes: unlike ==, this tells -0.0 from +0.0."""
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def base_sweep(**kw):
    base = dict(
        alpha_grid=tuple(np.round(np.arange(0.0, 0.51, 0.05), 2)),
        power_db_grid=(25.0, 30.0),
        delta_h_grid=(0.0, 1.0),
    )
    base.update(kw)
    return SecrecySweep(**base)


class TestMonteCarloSecrecy:
    def test_alpha_zero_means_zero_secrecy(self):
        sweep = base_sweep()
        means = monte_carlo_secrecy(sweep, 1000, seed=1)
        assert sweep.alpha_grid[0] == 0.0
        assert (means[0] == 0.0).all()

    def test_engine_is_mean_of_secrecy_point(self):
        sweep = base_sweep(
            alpha_grid=(0.25,), power_db_grid=(10.0,), delta_h_grid=(0.5,),
            sigma_A2_db_grid=(3.0,),
        )
        (mean_c,) = monte_carlo_secrecy(sweep, 100, seed=2).flat
        h2 = sample_gains(ChannelConfig(), 100, np.random.default_rng(2))
        per_sample = [secrecy_point(
            alpha_a=0.25, P_a=db_to_linear(10.0), L_s=1.0, h2_a=h,
            h2_ev=max(h - 0.5, 0.0), sigma_z2=1.0, sigma_a2=db_to_linear(25.0),
            sigma_zprime2=1.0 + db_to_linear(3.0),
        ) for h in h2]
        assert mean_c > 0
        assert mean_c == pytest.approx(np.mean([p.c for p in per_sample]), rel=1e-12)

    def test_nondecreasing_in_alpha(self):
        # the alpha grid ascends, so axis 0 of the means runs along each curve
        means = monte_carlo_secrecy(base_sweep(), 5000, seed=3)
        assert (means[1:] >= means[:-1]).all()

    def test_delta_h_ordering(self):
        means = monte_carlo_secrecy(base_sweep(), 5000, seed=4)  # delta_h 0, then 1
        assert (means[:, :, 1] >= means[:, :, 0]).all()

    def test_deterministic(self):
        a = monte_carlo_secrecy(base_sweep(), 2000, seed=5)
        b = monte_carlo_secrecy(base_sweep(), 2000, seed=5)
        assert_same_bits(a, b)

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError, match="empty sweep"):
            monte_carlo_secrecy(base_sweep(alpha_grid=()), 10, seed=0)

    def test_bad_sample_count(self):
        with pytest.raises(ValueError):
            monte_carlo_secrecy(base_sweep(), 0, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be at least 0"):
            monte_carlo_secrecy(base_sweep(), 10, seed=-1)

    @pytest.mark.parametrize("kw", [
        {"n_samples": 10.5}, {"n_samples": True}, {"n_samples": np.float64(3.0)},
        {"n_samples": "5"}, {"seed": 1.5}, {"seed": False}, {"seed": np.float64(2.0)},
    ])
    def test_non_integer_count_rejected(self, kw):
        # each once raised a TypeError from numpy or from a comparison
        (name,) = kw
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            monte_carlo_secrecy(base_sweep(), **{"n_samples": 10, "seed": 0, **kw})

    def test_numpy_integers_accepted(self):
        assert_same_bits(monte_carlo_secrecy(base_sweep(), np.int64(100), seed=np.uint8(3)),
                         monte_carlo_secrecy(base_sweep(), 100, seed=3))


class TestSweepValidation:
    @pytest.mark.parametrize("kw", [
        {"alpha_grid": (-0.1,)},
        {"alpha_grid": (0.2, 1.5)},
        {"alpha_grid": (float("nan"),)},
        {"power_db_grid": (float("inf"),)},
        {"power_db_grid": (30.0, float("nan"))},
        {"delta_h_grid": (-1.0,)},
        {"delta_h_grid": (float("inf"),)},
        {"sigma_A2_db_grid": (float("nan"),)},
        {"sigma_a2_db": float("nan")},
        {"sigma_z2": -1.0},
        {"sigma_z2": float("inf")},
        {"L_s": 0.0},
        {"L_s": -1.0},
        {"L_s": float("inf")},
        {"delta_h_grid": (float("nan"),)},
    ])
    def test_bad_value_rejected(self, kw):
        # each of these once gave NaN or out-of-model means without an error
        with pytest.raises(ValueError):
            base_sweep(**kw)

    def test_zero_residual_noise_rejected(self):
        with pytest.raises(ValueError, match="sigma_zprime2"):
            # 10^(-400) underflows to 0, so the server would see no noise
            base_sweep(sigma_z2=0.0, sigma_A2_db_grid=(-4000.0,))

    def test_zero_eavesdropper_noise_rejected(self):
        # 10^(-400) underflows to 0, so the eavesdropper would see no noise
        with pytest.raises(ValueError, match="eavesdropper"):
            base_sweep(sigma_z2=0.0, sigma_a2_db=-4000.0)

    @pytest.mark.parametrize("kw", [
        {"power_db_grid": (30.0, 4000.0)},
        {"sigma_A2_db_grid": (4000.0,)},
        {"sigma_a2_db": 4000.0},
    ])
    def test_overflowing_db_rejected(self, kw):
        # 10^400 once overflowed to inf after a numpy warning (an error under
        # the suite's warning filter) and gave NaN means
        (name,) = kw
        with pytest.raises(ValueError, match=f"{name} must be a finite value at most"):
            base_sweep(**kw)

    @pytest.mark.parametrize("kw", [
        {"L_s": 1e-320},
        {"L_s": 1e-160, "power_db_grid": (3000.0,)},
    ])
    def test_overflowing_signal_factor_rejected(self, kw):
        # S = sqrt(alpha P) / L_s once overflowed after a numpy warning, and
        # fig3/fig4 wrote mean_c = nan rows
        with pytest.raises(ValueError, match="signal factor S = sqrt"):
            base_sweep(**kw)

    def test_largest_finite_db_allowed(self):
        assert np.isfinite(db_to_linear(MAX_DB))
        base_sweep(power_db_grid=(MAX_DB,), sigma_A2_db_grid=(MAX_DB,), sigma_a2_db=MAX_DB)
        with pytest.raises(ValueError, match="power_db_grid must be a finite value at most"):
            base_sweep(power_db_grid=(float(np.nextafter(MAX_DB, np.inf)),))

    def test_overflowing_received_power_rejected(self):
        # S is finite, but S h2 + noise overflows for a drawn gain; the sweep
        # once returned mean_c = nan after numpy's "invalid value" warning
        sweep = base_sweep(alpha_grid=(0.5,), power_db_grid=(3000.0,), L_s=7e-159)
        with pytest.raises(ValueError, match=r"received power S \|h\|\^2 \+ noise overflows"):
            monte_carlo_secrecy(sweep, 1000, seed=0)

    def test_noiseless_receiver_allowed(self):
        assert monte_carlo_secrecy(base_sweep(sigma_z2=0.0), 10, seed=0).shape == (11, 2, 2, 1)


def reference_sweep(sweep, n_samples, seed):
    """The per-point full-array loop the blocked engine replaced."""
    rng = np.random.default_rng(seed)
    h2 = sample_gains(ChannelConfig(), n_samples, rng)
    ev_noise = sweep.sigma_z2 + db_to_linear(sweep.sigma_a2_db)
    grids = (sweep.alpha_grid, sweep.power_db_grid, sweep.delta_h_grid, sweep.sigma_A2_db_grid)
    means = []
    for alpha, p_db, delta_h, sA2_db in product(*grids):
        S = np.sqrt(alpha * db_to_linear(p_db)) / sweep.L_s
        sigma_zprime2 = db_to_linear(sA2_db) + sweep.sigma_z2
        h2_ev = np.maximum(h2 - delta_h, 0.0)
        c_s = np.log2(S * h2 + sigma_zprime2) - np.log2(sigma_zprime2)
        c_ev = np.log2(S * h2_ev + ev_noise) - np.log2(ev_noise)
        c = np.maximum(c_s - c_ev, 0.0)
        means.append(c.mean())
    return np.array(means).reshape([len(grid) for grid in grids])


# n around the block size and the 8-element split alignment of the sum tree
TREE_LENGTHS = (1, 7, 128, 129, 16384, 16385, 32768, 32769, 50_001, 123_457)

EXACT_SWEEPS = {
    "fig3": base_sweep(),
    "fig4": SecrecySweep(
        alpha_grid=(0.5,),
        power_db_grid=tuple(float(p) for p in range(0, 31, 5)),
        delta_h_grid=(1.0,),
        sigma_A2_db_grid=(0.0, 5.0, 10.0, 15.0, 20.0),
    ),
    # repeated and non-adjacent alpha and delta_h values, several sigma_A2
    "mixed": SecrecySweep(
        alpha_grid=(0.3, 0.0, 0.3, 1.0),
        power_db_grid=(10.0, 30.0),
        delta_h_grid=(0.5, 0.0, 0.5, 2.0),
        sigma_A2_db_grid=(0.0, 10.0, 0.0),
        sigma_a2_db=20.0,
        sigma_z2=0.5,
        L_s=2.0,
    ),
}


class TestBlockedEngineExact:
    @pytest.mark.parametrize("n", TREE_LENGTHS)
    @pytest.mark.parametrize("name", sorted(EXACT_SWEEPS))
    def test_matches_full_array_loop(self, name, n):
        sweep = EXACT_SWEEPS[name]
        assert_same_bits(monte_carlo_secrecy(sweep, n, seed=n), reference_sweep(sweep, n, seed=n))

    @pytest.mark.parametrize("cancels", [True, False])
    @pytest.mark.parametrize("name", ["fig3", "mixed"])
    def test_zero_signal_points_skip_leaf_work(self, monkeypatch, name, cancels):
        # alpha = 0 gives S = 0, whose mean is +0.0; the leaves
        # evaluate only the other points, unless the log2 check says the
        # per-sample values at S = 0 would not be exactly +0.0; a leaf's
        # points are the entries of its `out`, one per evaluated point
        sweep, n = EXACT_SWEEPS[name], 5_001
        leaf_sums, evaluated = secrecy._leaf_sums, set()

        def counted(*args):
            evaluated.add(args[-1].size)
            return leaf_sums(*args)

        monkeypatch.setattr(secrecy, "_leaf_sums", counted)
        if not cancels:
            monkeypatch.setattr(secrecy, "_log2_cancels", lambda noise: False)
        means = monte_carlo_secrecy(sweep, n, seed=n)
        assert_same_bits(means, reference_sweep(sweep, n, seed=n))
        zero = means[np.array(sweep.alpha_grid) == 0.0]
        assert zero.size and (zero == 0.0).all() and not np.signbit(zero).any()
        assert evaluated == {means.size - (zero.size if cancels else 0)}

    @pytest.mark.parametrize("n", TREE_LENGTHS + (3 * 10**6,))
    def test_tree_sum_matches_add_reduce(self, n):
        x = np.random.default_rng(n).standard_normal(n) * 1e3
        blocks = _tree_blocks(n)
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        leaf_sums = [np.add.reduce(x[b]) for b in blocks]
        assert _tree_sum(iter(leaf_sums), n) == np.add.reduce(x)
        assert _tree_sum(iter(leaf_sums), n) / n == x.mean()


# (n, _BLOCK or None for the default, workers): one leaf and three workers,
# fewer leaves than workers, runs of unequal length, and many leaves per run
PARALLEL_CASES = [
    (n, block, workers)
    for n, block in [(1, None), (300, 128), (1000, 128), (5_001, 1000), (16_385, 1000),
                     (123_457, None)]
    for workers in (1, 2, 3)
]


def test_parallel_cases_cover_run_shapes(monkeypatch):
    runs = []
    for n, block, workers in PARALLEL_CASES:
        monkeypatch.setattr(secrecy, "_BLOCK", block or _BLOCK)
        runs.append((len(_tree_blocks(n)), workers))
    assert any(leaves < workers for leaves, workers in runs)
    assert any(leaves > workers and leaves % workers for leaves, workers in runs)


@pytest.fixture(scope="module")
def reference_results():
    cache = {}

    def results(name, n):
        if (name, n) not in cache:
            cache[name, n] = reference_sweep(EXACT_SWEEPS[name], n, seed=n)
        return cache[name, n]

    return results


class TestParallelLeaves:
    @pytest.mark.parametrize("n, block, workers", PARALLEL_CASES)
    @pytest.mark.parametrize("name", sorted(EXACT_SWEEPS))
    def test_matches_full_array_loop(self, monkeypatch, reference_results, name, n,
                                     block, workers):
        # the worker count and the leaf size change only the speed
        if block is not None:
            monkeypatch.setattr(secrecy, "_BLOCK", block)
        monkeypatch.setattr(secrecy, "_cpu_count", lambda: workers)
        assert_same_bits(monte_carlo_secrecy(EXACT_SWEEPS[name], n, seed=n),
                         reference_results(name, n))

    def test_many_workers_under_short_switch_interval(self, monkeypatch,
                                                       reference_results):
        # more workers than CPUs, switching threads every microsecond: a lost
        # or misplaced leaf sum would change the means
        monkeypatch.setattr(secrecy, "_BLOCK", 128)
        monkeypatch.setattr(secrecy, "_cpu_count", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            means = monte_carlo_secrecy(EXACT_SWEEPS["mixed"], 5_001, seed=5_001)
        finally:
            sys.setswitchinterval(interval)
        assert_same_bits(means, reference_results("mixed", 5_001))

    def test_worker_error_reaches_caller(self, monkeypatch):
        # every worker thread fails its leaves, and the calling thread holds
        # its leaves until one has, so the error comes from a non-first worker
        leaf_sums = secrecy._leaf_sums
        failed = threading.Event()

        def fail_off_caller(*args):
            if threading.current_thread() is threading.main_thread():
                assert failed.wait(timeout=30)
                return leaf_sums(*args)
            failed.set()
            raise ArithmeticError("leaf failed")

        monkeypatch.setattr(secrecy, "_BLOCK", 1000)
        monkeypatch.setattr(secrecy, "_cpu_count", lambda: 3)
        monkeypatch.setattr(secrecy, "_leaf_sums", fail_off_caller)
        threads = threading.active_count()
        with pytest.raises(ArithmeticError, match="leaf failed"):
            monte_carlo_secrecy(EXACT_SWEEPS["fig3"], 50_001, seed=0)
        assert failed.is_set()
        assert threading.active_count() == threads

    @pytest.mark.parametrize("landed", [0, 3])
    def test_draw_error_joins_every_worker(self, monkeypatch, landed):
        # the draw fails before or after some leaves were handed out
        gain_blocks = secrecy.gain_blocks
        evaluated = []
        leaf_sums = secrecy._leaf_sums

        def failing_draw(*args):
            for i, x in enumerate(gain_blocks(*args)):
                if i == landed:
                    raise MemoryError("draw failed")
                yield x

        def counted(x, *args):
            evaluated.append(x.size)
            return leaf_sums(x, *args)

        monkeypatch.setattr(secrecy, "_BLOCK", 1000)
        monkeypatch.setattr(secrecy, "_cpu_count", lambda: 3)
        monkeypatch.setattr(secrecy, "gain_blocks", failing_draw)
        monkeypatch.setattr(secrecy, "_leaf_sums", counted)
        threads = threading.active_count()
        with pytest.raises(MemoryError, match="draw failed"):
            monte_carlo_secrecy(EXACT_SWEEPS["fig3"], 50_001, seed=0)
        assert threading.active_count() == threads
        assert len(evaluated) <= landed

    def test_overflow_stops_the_draw_at_the_first_overflowing_leaf(self, monkeypatch):
        # the workers once kept drawing leaves after an overflow and reported
        # a running maximum that depended on thread timing
        monkeypatch.setattr(secrecy, "_BLOCK", 32)
        sweep = base_sweep(alpha_grid=(0.05,), power_db_grid=(3000.0,), L_s=7e-159)
        n = 5_000
        h2 = sample_gains(ChannelConfig(), n, np.random.default_rng(0))
        blocks = _tree_blocks(n)
        S = sweep.signal_factor(0.05, 3000.0)
        first = next(i for i, b in enumerate(blocks) if S * float(h2[b].max()) == np.inf)
        assert 3 <= first < len(blocks) - 1
        gain_blocks = secrecy.gain_blocks
        drawn = []

        def counted_draw(*args):
            for x in gain_blocks(*args):
                drawn.append(x.size)
                yield x

        def slow_isfinite(x):
            # another worker that is not held off by the lock takes its turn
            time.sleep(1e-3)
            return math.isfinite(x)

        monkeypatch.setattr(secrecy, "gain_blocks", counted_draw)
        monkeypatch.setattr(secrecy, "math", SimpleNamespace(sqrt=math.sqrt,
                                                             isfinite=slow_isfinite))
        messages = set()
        threads = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 3) * 5:
                monkeypatch.setattr(secrecy, "_cpu_count", lambda: workers)
                drawn.clear()
                with pytest.raises(ValueError) as error:
                    monte_carlo_secrecy(sweep, n, seed=0)
                messages.add(str(error.value))
                assert len(drawn) == first + 1
                assert threading.active_count() == threads
        finally:
            sys.setswitchinterval(interval)
        (message,) = messages
        assert message.startswith("received power S |h|^2 + noise overflows at L_s = 7e-159")
        assert message.endswith(f"largest |h|^2 in samples {blocks[first].start}.."
                                f"{blocks[first].stop - 1} = {h2[blocks[first]].max()}")

    def test_one_cpu_starts_no_thread(self, monkeypatch, reference_results):
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(secrecy, "_BLOCK", 1000)
        monkeypatch.setattr(secrecy, "_cpu_count", lambda: 1)
        monkeypatch.setattr(secrecy.threading, "Thread", no_thread)
        assert_same_bits(monte_carlo_secrecy(EXACT_SWEEPS["mixed"], 5_001, seed=5_001),
                         reference_results("mixed", 5_001))

    def test_worker_count_is_the_usable_cpus(self, monkeypatch):
        if hasattr(secrecy.os, "sched_getaffinity"):
            assert secrecy._cpu_count() == len(secrecy.os.sched_getaffinity(0))
            monkeypatch.delattr(secrecy.os, "sched_getaffinity")
        monkeypatch.setattr(secrecy.os, "cpu_count", lambda: 5)
        assert secrecy._cpu_count() == 5
        monkeypatch.setattr(secrecy.os, "cpu_count", lambda: None)
        assert secrecy._cpu_count() == 1
