import numpy as np
import pytest

from airfl.aircomp import plan_link
from airfl.pcran import (
    PairSecret,
    PowerAllocation,
    aggregate_noise_stats,
    compute_alignment,
    draw_pcran,
    draw_secrets,
    form_pairs,
    optimize_beta_dp,
)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestFormPairs:
    def test_two_users_single_pair(self):
        pairs = form_pairs(2, rng())
        assert len(pairs) == 1
        assert sorted(pairs[0]) == [0, 1]

    def test_four_users_partition(self):
        users = sorted(u for pair in form_pairs(4, rng(3)) for u in pair)
        assert users == [0, 1, 2, 3]

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError, match="even"):
            form_pairs(3, rng())

    def test_deterministic(self):
        assert form_pairs(10, rng(9)) == form_pairs(10, rng(9))

    def test_duplicate_user_rejected(self):
        # a pairing is a plain tuple; plan_link is where a repeated user is caught
        h2 = np.ones(4)
        m, alpha = compute_alignment(h2, np.ones(4), 1.0)
        alloc = PowerAllocation(P=np.ones(4), alpha=alpha, beta=np.zeros(4), m=m, L_s=1.0)
        secret = PairSecret(mu=1.0, sigma2_pos=1.0, sigma2_neg=1.0)
        with pytest.raises(ValueError, match="perfect matching"):
            plan_link(h2, alloc, ((0, 1), (1, 2)), [secret, secret], 0.0)


class TestDrawPcran:
    def test_pair_means_cancel(self):
        secret = PairSecret(mu=0.5, sigma2_pos=1.0, sigma2_neg=2.0)
        n = 10**6
        total = draw_pcran(secret, "positive", n, rng(1)) + draw_pcran(
            secret, "negative", n, rng(2)
        )
        assert abs(total.mean()) < 5 * np.sqrt(3.0 / n)

    def test_moments(self):
        secret = PairSecret(mu=2.0, sigma2_pos=4.0, sigma2_neg=1.0)
        x = draw_pcran(secret, "positive", 10**6, rng(5))
        assert abs(x.mean() - 2.0) < 0.01 * 2.0
        assert abs(x.var() - 4.0) < 0.01 * 4.0

    def test_bad_role(self):
        secret = PairSecret(mu=0.0, sigma2_pos=1.0, sigma2_neg=1.0)
        with pytest.raises(ValueError, match="role"):
            draw_pcran(secret, "neutral", 1, rng())


class TestComputeAlignment:
    def test_hand_example(self):
        m, alpha = compute_alignment(np.array([4.0, 9.0]), np.array([1.0, 1.0]), 1.0)
        assert m == pytest.approx(2.0)
        assert alpha == pytest.approx([1.0, 4.0 / 9.0])

    def test_single_user(self):
        m, alpha = compute_alignment(np.array([1.0]), np.array([1.0]), 1.0)
        assert m == 1.0
        assert alpha == pytest.approx([1.0])

    def test_ls_scales_m_down(self):
        m, alpha = compute_alignment(np.array([4.0, 4.0]), np.array([1.0, 1.0]), 2.0)
        assert m == pytest.approx(1.0)
        assert alpha == pytest.approx([1.0, 1.0])

    def test_alignment_consistency(self):
        # |h_k| sqrt(alpha_k P_k) / L_s must equal m for every user
        r = rng(2)
        for _ in range(20):
            K = int(r.integers(1, 9))
            h2 = r.uniform(0.1, 5.0, K)
            P = r.uniform(0.5, 100.0, K)
            L_s = r.uniform(0.5, 3.0)
            m, alpha = compute_alignment(h2, P, L_s)
            np.testing.assert_allclose(
                np.sqrt(h2 * alpha * P) / L_s, m, rtol=1e-12
            )
            assert np.all((alpha > 0) & (alpha <= 1.0 + 1e-15))

    def test_alpha_cap(self):
        m, alpha = compute_alignment(np.array([1.0, 1.0]), np.array([1.0, 1.0]), 1.0,
                                     alpha_cap=0.5)
        assert alpha == pytest.approx([0.5, 0.5])
        assert m == pytest.approx(np.sqrt(0.5))

    def test_zero_gain_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            compute_alignment(np.array([0.0, 1.0]), np.array([1.0, 1.0]), 1.0)

    @pytest.mark.parametrize("h2, P", [
        ([float("nan"), 1.0], [1.0, 1.0]),
        ([1.0, float("inf")], [1.0, 1.0]),
        ([1.0, 1.0], [1.0, float("nan")]),
    ])
    def test_non_finite_gain_rejected(self, h2, P):
        with pytest.raises(ValueError, match="finite"):
            compute_alignment(np.array(h2), np.array(P), 1.0)

    @pytest.mark.parametrize("L_s", [0.0, -1.0, float("nan")])
    def test_bound_must_be_positive(self, L_s):
        with pytest.raises(ValueError, match="L_s"):
            compute_alignment(np.ones(2), np.ones(2), L_s)

    @pytest.mark.parametrize("P", [[1.0, -1.0], [0.0, 1.0]])
    def test_non_positive_power_named(self, P):
        # was reported as a zero channel gain
        with pytest.raises(ValueError, match="^P must be a finite positive value"):
            compute_alignment(np.ones(2), np.array(P), 1.0)

    def test_overflowing_alignment_constant_rejected(self):
        # L_s = 1e-320 once made m = inf after a numpy overflow warning
        with pytest.raises(ValueError, match="m = .* overflows at L_s = 1e-320"):
            compute_alignment(np.ones(2), np.ones(2), 1e-320)

    def test_negative_gain_named(self):
        with pytest.raises(ValueError, match="^h2 must be a finite nonnegative value"):
            compute_alignment(np.array([-1.0, 1.0]), np.ones(2), 1.0)


class TestOptimizeBetaDp:
    def test_weak_privacy_demand_needs_no_noise(self):
        # Psi = (1/10) ln 5 - 1 < 0 -> all-zero beta
        beta, psi = optimize_beta_dp(
            np.array([1.0]), np.array([1.0]), np.array([10.0]), 0.25, 1.0,
            caps=np.array([5.0]),
        )
        assert psi == pytest.approx(np.log(5.0) / 10.0 - 1.0)
        assert beta == pytest.approx([0.0])

    def test_sequential_waterfilling(self):
        # delta chosen so ln(1.25/delta) = 5 and sigma_z2 = 0 -> Psi = 5 at
        # min |h|^2 P / eps = 1; the caps 3 then fill Z = [3, 2]
        delta = 1.25 * np.exp(-5.0)
        beta, psi = optimize_beta_dp(
            np.array([1.0, 1.0]), np.array([10.0, 10.0]), np.array([10.0, 10.0]),
            delta, 0.0, caps=np.array([3.0, 3.0]),
        )
        assert psi == pytest.approx(5.0)
        assert beta == pytest.approx([0.3, 0.2])  # Z_k / (|h_k|^2 P_k)
        # with unit power the same fill asks beta = [3, 2], clamped to 1 - alpha = 1
        beta, psi = optimize_beta_dp(
            np.array([1.0, 1.0]), np.array([1.0, 1.0]), np.array([1.0, 1.0]),
            delta, 0.0, caps=np.array([3.0, 3.0]),
        )
        assert psi == pytest.approx(5.0)
        assert beta == pytest.approx([1.0, 1.0])

    def test_zero_caps(self):
        beta, psi = optimize_beta_dp(
            np.array([1.0, 2.0]), np.array([1.0, 1.0]), np.array([0.5, 0.5]),
            0.1, 1.0, caps=np.array([0.0, 0.0]),
        )
        assert np.all(beta == 0.0)

    def test_feasibility_random_instances(self):
        r = rng(4)
        for _ in range(500):
            K = int(r.integers(1, 11))
            h2 = r.uniform(0.05, 4.0, K)
            P = r.uniform(0.5, 1000.0, K)
            eps = r.uniform(0.01, 20.0, K)
            delta = r.uniform(1e-5, 0.5)
            caps = r.uniform(0.0, 50.0, K)
            alpha = r.uniform(0.0, 1.0, K)
            beta, psi = optimize_beta_dp(h2, P, eps, delta, 1.0, caps, alpha=alpha)
            assert np.all(beta >= 0.0)
            assert np.all(beta <= 1.0 - alpha + 1e-12)
            used = np.sum(h2 * beta * P)
            assert used <= max(psi, 0.0) + 1e-9

    def test_bad_inputs(self):
        h2, P = np.array([1.0]), np.array([1.0])
        with pytest.raises(ValueError):
            optimize_beta_dp(h2, P, np.array([-1.0]), 0.1, 1.0, np.array([1.0]))
        with pytest.raises(ValueError):
            optimize_beta_dp(h2, P, np.array([1.0]), 1.5, 1.0, np.array([1.0]))

    @pytest.mark.parametrize("eps, sigma_z2, caps, match", [
        ([np.nan, 1.0], 1.0, [1.0, 1.0], "eps"),
        ([1.0, 1.0], np.nan, [1.0, 1.0], "sigma_z2"),
        ([1.0, 1.0], np.inf, [1.0, 1.0], "sigma_z2"),
        ([1.0, 1.0], 1.0, [np.nan, 1.0], "caps"),
        ([1.0, 1.0, 1.0], 1.0, [1.0, 1.0], "one entry per user"),
        ([1.0, 1.0], 1.0, [1.0], "one entry per user"),
    ])
    def test_nan_and_mismatched_inputs_rejected(self, eps, sigma_z2, caps, match):
        # each once returned psi = nan, a NaN beta or a silently broadcast
        # allocation
        with pytest.raises(ValueError, match=match):
            optimize_beta_dp(np.ones(2), np.ones(2), np.array(eps), 0.1, sigma_z2,
                             np.array(caps))


class TestAggregateNoiseStats:
    def make(self, sigmas, h2, P, beta, m, sigma_z2):
        secrets = [
            PairSecret(mu=1.0, sigma2_pos=sp, sigma2_neg=sn) for sp, sn in sigmas
        ]
        return aggregate_noise_stats(secrets, h2, P, beta, m, sigma_z2)

    def test_sigma_a2_sums_pairs(self):
        stats = self.make(
            [(1.0, 2.0), (3.0, 4.0)], np.ones(4), np.ones(4), np.ones(4), 1.0, 1.0
        )
        assert stats.sigma_A2 == 10.0

    def test_zero_noise_power(self):
        # beta = 0 silences every user's noise, whatever the secrets
        stats = self.make([(2.0, 3.0)], np.ones(2), np.ones(2), np.zeros(2), 1.0, 1.0)
        assert stats.M == 0.0
        assert stats.sigma_zprime2 == 1.0
        assert stats.estimator_var == 1.0 / 2**2

    def test_estimator_variance(self):
        # (c^2 sigma_A2 + sigma_z2) / (mK)^2 with c = min |h| sqrt(beta P)
        h2, beta = np.array([1.0, 4.0, 9.0, 2.0]), np.full(4, 0.5)
        stats = self.make([(1.0, 2.0), (0.5, 0.5)], h2, np.ones(4), beta, 0.5, 1.0)
        assert stats.estimator_var == pytest.approx((0.5 * 4.0 + 1.0) / (0.5 * 4) ** 2)

    def test_residual_at_least_channel_noise(self):
        stats = self.make(
            [(2.0, 5.0)], np.array([1.0, 4.0]), np.ones(2), np.full(2, 0.5), 0.5, 1.0
        )
        assert stats.sigma_zprime2 >= 1.0

    def test_front_factor_two_users(self):
        # K=2, equalized: M = min gain / (m K)
        h2 = np.array([1.0, 4.0])
        beta = np.full(2, 0.5)
        stats = self.make([(1.0, 1.0)], h2, np.ones(2), beta, 0.5, 1.0)
        c = np.sqrt(0.5)  # min |h| sqrt(beta P)
        assert stats.M == pytest.approx(c / (0.5 * 2))

    def test_secret_count_mismatch(self):
        # one secret is one pair of users, so four users' arrays do not fit it
        with pytest.raises(ValueError, match=r"one entry per paired user \(2\), got 4, 4 and 4"):
            aggregate_noise_stats(
                [PairSecret(1.0, 1.0, 1.0)], np.ones(4), np.ones(4), np.ones(4), 1.0, 1.0,
            )


@pytest.mark.parametrize("mu, sp, sn", [
    (float("nan"), 1.0, 1.0), (float("inf"), 1.0, 1.0), (1.0, float("nan"), 1.0),
    (1.0, 1.0, float("inf")), (1.0, -1.0, 1.0), (1.0, 1.0, -0.5), (1.0, 0.0, 1.0),
    (1.0, 1.0, 0.0),
])
def test_pair_secret_rejects_non_finite_or_negative(mu, sp, sn):
    match = ("mu must be a finite value" if mu != 1.0 else
             f"sigma2_{'pos' if sp != 1.0 else 'neg'} must be a finite positive value")
    with pytest.raises(ValueError, match=match):
        PairSecret(mu=mu, sigma2_pos=sp, sigma2_neg=sn)


def test_draw_secrets_ranges():
    gen = rng(8)
    secrets = draw_secrets(50, gen)
    assert len(secrets) == 50
    assert all(0.5 <= s.mu <= 1.5 for s in secrets)
    assert all(s.sigma2_pos == s.sigma2_neg == 1.0 for s in secrets)
    # three uniforms per pair: mu, then both variances
    ref = rng(8)
    for s in secrets:
        assert s.mu == ref.uniform(0.5, 1.5)
        ref.uniform(size=2)
    assert gen.bit_generator.state == ref.bit_generator.state


def test_cancellable_noise_is_gaussian():
    # sum of pair noises, standardized by sqrt(sigma_A2), has normal moments
    r = rng(12)
    sigmas = [(1.0, 3.0), (0.5, 2.0), (4.0, 0.25)]
    sigma_A2 = sum(a + b for a, b in sigmas)
    n = 10**6
    total = np.zeros(n)
    for sp, sn in sigmas:
        total += r.normal(1.7, np.sqrt(sp), n) + r.normal(-1.7, np.sqrt(sn), n)
    z = total / np.sqrt(sigma_A2)
    assert abs(z.mean()) < 5 / np.sqrt(n)
    assert abs(z.var() - 1.0) < 0.01
    kurtosis = np.mean(z**4) / z.var() ** 2 - 3.0
    assert abs(kurtosis) < 0.05
