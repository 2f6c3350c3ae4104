from itertools import product

import numpy as np
import pytest

from airfl.channel import ChannelConfig, db_to_linear, sample_gains
from airfl.secrecy import (
    SecrecyInputs,
    SecrecySweep,
    SweepResult,
    _tree_blocks,
    _tree_sum,
    monte_carlo_secrecy,
    secrecy_point,
)


def point(**kw):
    base = dict(alpha_a=1.0, P_a=1.0, L_s=1.0, h2_a=2.0, h2_ev=1.0,
                sigma_z2=1.0, sigma_a2=1.0, sigma_zprime2=1.0)
    base.update(kw)
    return secrecy_point(SecrecyInputs(**base))


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
        results = monte_carlo_secrecy(base_sweep(), 1000, seed=1)
        for r in results:
            if r.alpha == 0.0:
                assert r.mean_c == 0.0

    def test_fixed_channel_reduces_to_secrecy_point(self):
        sweep = base_sweep(
            alpha_grid=(0.25,), power_db_grid=(10.0,), delta_h_grid=(0.5,),
            sigma_A2_db_grid=(3.0,),
            fading=ChannelConfig(fading_mode="fixed", fixed_gains=(2.0,)),
        )
        res = monte_carlo_secrecy(sweep, 100, seed=2)[0]
        expected = secrecy_point(SecrecyInputs(
            alpha_a=0.25, P_a=db_to_linear(10.0), L_s=1.0, h2_a=2.0, h2_ev=1.5,
            sigma_z2=1.0, sigma_a2=db_to_linear(25.0),
            sigma_zprime2=1.0 + db_to_linear(3.0),
        ))
        assert res.mean_c == pytest.approx(expected.c, rel=1e-12)

    def test_nondecreasing_in_alpha(self):
        results = monte_carlo_secrecy(base_sweep(), 5000, seed=3)
        by_curve = {}
        for r in results:
            by_curve.setdefault((r.power_db, r.delta_h), []).append((r.alpha, r.mean_c))
        for curve in by_curve.values():
            cs = [c for _, c in sorted(curve)]
            assert all(lo <= hi for lo, hi in zip(cs, cs[1:]))

    def test_delta_h_ordering(self):
        results = monte_carlo_secrecy(base_sweep(), 5000, seed=4)
        weak = {(r.alpha, r.power_db): r.mean_c for r in results if r.delta_h == 0.0}
        strong = {(r.alpha, r.power_db): r.mean_c for r in results if r.delta_h == 1.0}
        assert all(strong[key] >= weak[key] for key in weak)

    def test_deterministic(self):
        a = monte_carlo_secrecy(base_sweep(), 2000, seed=5)
        b = monte_carlo_secrecy(base_sweep(), 2000, seed=5)
        assert a == b

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError, match="empty sweep"):
            monte_carlo_secrecy(base_sweep(alpha_grid=()), 10, seed=0)

    def test_bad_sample_count(self):
        with pytest.raises(ValueError):
            monte_carlo_secrecy(base_sweep(), 0, seed=0)


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
        {"m_factor": float("nan")},
    ])
    def test_bad_value_rejected(self, kw):
        # each of these once gave NaN or out-of-model means without an error
        with pytest.raises(ValueError):
            base_sweep(**kw)

    def test_zero_residual_noise_rejected(self):
        with pytest.raises(ValueError, match="sigma_zprime2"):
            base_sweep(sigma_z2=0.0, m_factor=0.0)

    def test_zero_eavesdropper_noise_rejected(self):
        # 10^(-400) underflows to 0, so the eavesdropper would see no noise
        with pytest.raises(ValueError, match="eavesdropper"):
            base_sweep(sigma_z2=0.0, sigma_a2_db=-4000.0)

    def test_noiseless_receiver_allowed(self):
        assert len(monte_carlo_secrecy(base_sweep(sigma_z2=0.0), 10, seed=0)) == 44


def reference_sweep(sweep, n_samples, seed):
    """The per-point full-array loop the blocked engine replaced."""
    rng = np.random.default_rng(seed)
    h2 = sample_gains(sweep.fading, n_samples, rng)
    ev_noise = sweep.sigma_z2 + db_to_linear(sweep.sigma_a2_db)
    results = []
    for alpha, p_db, delta_h, sA2_db in product(
        sweep.alpha_grid, sweep.power_db_grid, sweep.delta_h_grid, sweep.sigma_A2_db_grid
    ):
        S = np.sqrt(alpha * db_to_linear(p_db)) / sweep.L_s
        sigma_zprime2 = sweep.m_factor**2 * db_to_linear(sA2_db) + sweep.sigma_z2
        h2_ev = np.maximum(h2 - delta_h, 0.0)
        c_s = np.log2(S * h2 + sigma_zprime2) - np.log2(sigma_zprime2)
        c_ev = np.log2(S * h2_ev + ev_noise) - np.log2(ev_noise)
        c = np.maximum(c_s - c_ev, 0.0)
        results.append(SweepResult(
            alpha=alpha, power_db=p_db, delta_h=delta_h, sigma_A2_db=sA2_db,
            mean_c=float(c.mean()), mean_c_s=float(c_s.mean()),
            mean_c_ev=float(c_ev.mean()),
        ))
    return results


# n around the block size and the 8-element split alignment of the sum tree
TREE_LENGTHS = (1, 7, 128, 129, 16384, 16385, 50_001, 123_457)

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
        m_factor=2.0,
    ),
}


class TestBlockedEngineExact:
    @pytest.mark.parametrize("n", TREE_LENGTHS)
    @pytest.mark.parametrize("name", sorted(EXACT_SWEEPS))
    def test_matches_full_array_loop(self, name, n):
        sweep = EXACT_SWEEPS[name]
        assert monte_carlo_secrecy(sweep, n, seed=n) == reference_sweep(sweep, n, seed=n)

    def test_fixed_gain_matches_full_array_loop(self):
        sweep = base_sweep(fading=ChannelConfig(fading_mode="fixed", fixed_gains=(1.5,)))
        assert monte_carlo_secrecy(sweep, 40_000, 0) == reference_sweep(sweep, 40_000, 0)

    @pytest.mark.parametrize("n", TREE_LENGTHS + (3 * 10**6,))
    def test_tree_sum_matches_add_reduce(self, n):
        x = np.random.default_rng(n).standard_normal(n) * 1e3
        blocks = _tree_blocks(n)
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        leaf_sums = [np.add.reduce(x[b]) for b in blocks]
        assert _tree_sum(iter(leaf_sums), n) == np.add.reduce(x)
        assert _tree_sum(iter(leaf_sums), n) / n == x.mean()
