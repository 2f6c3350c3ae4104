from dataclasses import replace

import numpy as np
import pytest

from airfl.aircomp import (
    _NOISE_BLOCK,
    _gaussian,
    clip_gradient,
    draw_noise,
    plan_link,
    round_kernel,
    simulate_aggregation_rounds,
    simulate_round,
)
from airfl.pcran import (
    PairSecret,
    PowerAllocation,
    aggregate_noise_stats,
    compute_alignment,
    equalized_gain,
    noise_gains,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def make_alloc(h2, P, L_s=1.0, beta=0.0, alpha_cap=1.0):
    h2 = np.asarray(h2, dtype=float)
    P = np.asarray(P, dtype=float)
    m, alpha = compute_alignment(h2, P, L_s, alpha_cap=alpha_cap)
    beta_arr = np.minimum(np.full(len(h2), beta), 1.0 - alpha)
    return PowerAllocation(P=P, alpha=alpha, beta=beta_arr, m=m, L_s=L_s)


UNIT = PairSecret(mu=1.0, sigma2_pos=1.0, sigma2_neg=1.0)


def make_plan(h2, alloc, secrets=None, sigma_z2=0.0):
    """Plan for users paired (0, 1), (2, 3), ...; unit secrets by default,
    which make no noise when the allocation's beta is 0."""
    h2 = np.asarray(h2, dtype=float)
    pairing = tuple((i, i + 1) for i in range(0, len(h2), 2))
    secrets = secrets or [UNIT] * len(pairing)
    return plan_link(h2, alloc, pairing, secrets, sigma_z2)


def run_round(gradients, plan, gen):
    """One aggregation round on a freshly drawn one-round noise block."""
    d = np.shape(gradients)[-1]
    return simulate_round(gradients, plan, draw_noise(plan, 1, d, gen)[0])


def received(s_hat, alloc):
    """Undo the 1/(mK) rescaling to recover the superposed channel output."""
    return s_hat * (alloc.m * len(alloc.P))


def reference_clip(g, L_s):
    """Per-vector clip by np.linalg.norm."""
    norm = float(np.linalg.norm(g))
    return g if norm <= L_s else g * (L_s / norm)


def reference_round(gradients, h2, alloc, pairing, secrets, sigma_z2, gen):
    """Per-user aggregation round: clip -> PCR-AN draw -> equalize -> payload,
    then z, summed as z first and users in index order.  A pair's positive
    user draws N(mu, sigma2_pos) and its negative user N(-mu, sigma2_neg),
    in user order, and z ~ N(0, sigma_z2) is drawn last, only if sigma_z2 > 0."""
    K, d = gradients.shape
    gains = noise_gains(h2, alloc.P, alloc.beta)
    target = equalized_gain(gains)
    laws = {}
    for i, (pos, neg) in enumerate(pairing):
        laws[pos] = (secrets[i].mu, secrets[i].sigma2_pos)
        laws[neg] = (-secrets[i].mu, secrets[i].sigma2_neg)
    payloads = []
    for k in range(K):
        s_k = reference_clip(gradients[k], alloc.L_s)
        mean, var = laws[k]
        n_k = gen.normal(mean, np.sqrt(var), size=d)
        if gains[k] > 0:
            n_k = n_k * (target / gains[k])
        h = np.sqrt(h2[k])
        sig_amp = h * np.sqrt(alloc.alpha[k] * alloc.P[k]) / alloc.L_s
        noise_amp = h * np.sqrt(alloc.beta[k] * alloc.P[k])
        payloads.append(sig_amp * s_k + noise_amp * n_k)
    out = gen.normal(0.0, np.sqrt(sigma_z2), size=d) if sigma_z2 > 0 else np.zeros(d)
    for payload in payloads:
        out += payload
    return out / (alloc.m * K)


class TestClipGradient:
    def test_within_bound_unchanged(self):
        g = np.array([0.3, 0.4])
        assert np.array_equal(clip_gradient(g, 1.0), g)

    def test_clipped_to_bound(self):
        assert clip_gradient(np.array([2.0, 0.0]), 1.0) == pytest.approx([1.0, 0.0])

    def test_zero_vector(self):
        assert np.array_equal(clip_gradient(np.zeros(3), 1.0), np.zeros(3))

    def test_stack_matches_rows(self):
        r = rng(3)
        for d in (1, 30, 1000):
            G = r.normal(0.0, 1.0, size=(6, d)) * r.uniform(0.01, 3.0, size=(6, 1))
            ref = np.stack([reference_clip(g, 1.5) for g in G])
            assert np.array_equal(clip_gradient(G, 1.5), ref)
            assert np.array_equal(clip_gradient(G[0], 1.5), ref[0])

    def test_output_norm_bounded(self):
        r = rng(1)
        for _ in range(50):
            g = r.normal(0, 5, size=8)
            assert np.linalg.norm(clip_gradient(g, 1.5)) <= 1.5 + 1e-12

    @pytest.mark.parametrize("L_s", [0.0, -1.0, np.nan])
    def test_bound_must_be_positive(self, L_s):
        with pytest.raises(ValueError, match="L_s"):
            clip_gradient(np.ones(3), L_s)


def random_link(K, d, silent, seed, muted=False):
    """A random K-user link with shuffled pairs and d-dimensional gradients,
    one of which must be clipped.  muted gives user 0 no noise power
    (beta = 0), so its noise gain is 0 and so is the equalization target of
    every user; silent does the same to both users of the first pair and,
    for K > 2, one user of the second pair."""
    r = rng(seed)
    h2 = r.exponential(size=K)
    alloc = make_alloc(h2, np.full(K, 1000.0), L_s=1.0, beta=0.5, alpha_cap=0.5)
    perm = r.permutation(K)
    pairing = tuple((int(perm[2 * i]), int(perm[2 * i + 1])) for i in range(K // 2))
    quiet = [0] if muted else []
    if silent:
        quiet += list(pairing[0]) + ([pairing[1][1]] if K > 2 else [])
    alloc = replace(alloc, beta=np.where(np.isin(np.arange(K), quiet), 0.0, alloc.beta))
    secrets = [PairSecret(r.uniform(0.5, 1.5), r.uniform(0.5, 2.0),
                          r.uniform(0.5, 2.0)) for _ in range(K // 2)]
    grads = r.normal(0.0, 0.1, size=(K, d))
    grads[K - 1] *= 50.0 / np.linalg.norm(grads[K - 1])  # must be clipped
    return h2, alloc, pairing, secrets, grads


class TestRoundKernelExact:
    @pytest.mark.parametrize("K", [2, 10])
    @pytest.mark.parametrize("d", [1, 30])
    @pytest.mark.parametrize("muted", [True, False])
    @pytest.mark.parametrize("sigma_z2", [0.0, 1.0])
    @pytest.mark.parametrize("silent", [True, False])
    def test_matches_per_user_loop(self, K, d, muted, sigma_z2, silent):
        h2, alloc, pairing, secrets, grads = random_link(K, d, silent, K * 1000 + d,
                                                         muted)
        plan = plan_link(h2, alloc, pairing, secrets, sigma_z2)
        gen_kernel, gen_loop = rng(5), rng(5)
        for _ in range(3):
            est = run_round(grads, plan, gen_kernel)
            ref = reference_round(grads, h2, alloc, pairing, secrets, sigma_z2,
                                  gen_loop)
            assert np.array_equal(est, ref)
        # both consumed the stream identically
        assert gen_kernel.random() == gen_loop.random()
        assert plan.noise_stats == aggregate_noise_stats(
            secrets, h2, alloc.P, alloc.beta, alloc.m, sigma_z2)


class TestDrawNoise:
    @pytest.mark.parametrize("K", [2, 10])
    @pytest.mark.parametrize("muted", [True, False])
    @pytest.mark.parametrize("sigma_z2", [0.0, 1.0])
    @pytest.mark.parametrize("silent", [True, False])
    def test_block_equals_stacked_rounds(self, K, muted, sigma_z2, silent):
        h2, alloc, pairing, secrets, _ = random_link(K, 3, silent, K, muted)
        plan = plan_link(h2, alloc, pairing, secrets, sigma_z2)
        gen_block, gen_rounds = rng(9), rng(9)
        block = draw_noise(plan, 6, 3, gen_block)
        rounds = np.stack([draw_noise(plan, 1, 3, gen_rounds)[0] for _ in range(6)])
        assert block.shape == (6, K + 1, 3)
        assert np.array_equal(block, rounds)
        assert gen_block.bit_generator.state == gen_rounds.bit_generator.state

    def test_rows(self):
        h2 = np.array([1.0, 4.0])
        alloc = make_alloc(h2, [1.0, 1.0], beta=0.5, alpha_cap=0.5)
        plan = make_plan(h2, alloc, [PairSecret(mu=2.0, sigma2_pos=0.5, sigma2_neg=3.0)])
        block = draw_noise(plan, 2, 3, rng())
        # no receiver noise; user k sends N(+-mu, sigma2) equalized and scaled
        assert np.array_equal(block[:, 0], np.zeros((2, 3)))
        z = rng().standard_normal((2, 2, 3))
        law = (z * np.sqrt([[0.5], [3.0]]) + [[2.0], [-2.0]]) * plan.equalize[:, None]
        assert np.array_equal(block[:, 1:], law * plan.noise_amp[:, None])


def bits(x):
    """Bit patterns of a float array, so that -0.0 and +0.0 differ."""
    return np.asarray(x, dtype=float).view(np.uint64)


def test_gaussian_fill_is_generator_normal():
    # scalar and per-row laws, and loc = 0.0 with scale 0, where only the
    # added loc turns scale * n = -0.0 into the +0.0 that normal returns
    row_loc, row_scale = np.array([[2.0], [0.0], [-1.5]]), np.array([[0.5], [0.0], [3.0]])
    for loc, scale, shape in ((0.7, 1.3, (4, 5)), (0.0, 1.0, (4, 5)), (0.0, 0.0, (4, 5)),
                              (row_loc, row_scale, (2, 3, 4))):
        gen_fill, gen_normal = rng(8), rng(8)
        fill = _gaussian(gen_fill, loc, scale, np.empty(shape))
        assert np.array_equal(bits(fill), bits(gen_normal.normal(loc, scale, size=shape)))
        assert gen_fill.bit_generator.state == gen_normal.bit_generator.state


class TestRoundKernelContract:
    def test_one_shot_round_leaves_gradients_and_returns_a_new_array(self):
        # random_link's last gradient must be clipped, which the kernel does
        # in place on its own copy
        h2, alloc, pairing, secrets, grads = random_link(4, 3, False, 21)
        plan = plan_link(h2, alloc, pairing, secrets, 1.0)
        before = grads.copy()
        first, second = (simulate_round(grads, plan, noise)
                         for noise in draw_noise(plan, 2, 3, rng(1)))
        assert np.array_equal(bits(grads), bits(before))
        assert not np.shares_memory(first, second)

    def test_one_shot_round_takes_a_nested_list(self):
        # as clip_gradient does; the round once failed on the list's missing .ndim
        h2, alloc, pairing, secrets, grads = random_link(4, 3, False, 21)
        plan = plan_link(h2, alloc, pairing, secrets, 1.0)
        (noise,) = draw_noise(plan, 1, 3, rng(1))
        assert np.array_equal(bits(simulate_round(grads.tolist(), plan, noise.copy())),
                              bits(simulate_round(grads, plan, noise.copy())))

    @pytest.mark.parametrize("d", [1, 2, 3, 30])
    @pytest.mark.parametrize("sigma_z2", [0.0, 1.0])
    @pytest.mark.parametrize("zero_payloads", [False, True])
    def test_receiver_sum_is_the_row_order_sum(self, d, sigma_z2, zero_payloads):
        # 11 rows: a pairwise sum of a column would use its 8 partial sums;
        # zero_payloads makes every user row -0.0, so only the receiver row
        # can give a coordinate its sign
        K = 10
        h2, alloc, pairing, secrets, grads = random_link(K, d, False, 70 + d)
        plan = plan_link(h2, alloc, pairing, secrets, sigma_z2)
        if zero_payloads:
            grads = np.full((K, d), -0.0)
        aggregate = round_kernel(plan, d)
        for noise in draw_noise(plan, 8, d, rng(d)):
            if zero_payloads:
                noise[1:] = -0.0
            rows = noise.copy()
            rows[1:] += clip_gradient(grads, plan.L_s) * plan.sig_amp[:, None]
            total = rows[0]
            for row in rows[1:]:
                total = total + row
            s_hat = aggregate(grads.copy(), noise)
            assert np.array_equal(bits(s_hat), bits(total / (plan.m * K)))

    @pytest.mark.parametrize("sigma_z2", [0.0, 1.0])
    def test_draw_noise_writes_no_negative_zero_receiver_row(self, sigma_z2):
        # the kernel's add.reduce adds row 0 to a +0.0 start, which would turn
        # a -0.0 there into +0.0; here every standard normal drawn is -0.0
        class NegativeZeros:
            def standard_normal(self, out):
                out[...] = -0.0
                return out

        h2, alloc, pairing, secrets, _ = random_link(4, 3, False, 5)
        plan = plan_link(h2, alloc, pairing, secrets, sigma_z2)
        block = draw_noise(plan, 3, 3, NegativeZeros())
        assert np.array_equal(bits(block[:, 0]), bits(np.zeros((3, 3))))


def reference_aggregation_rounds(gradients, plan, sigma_z2, n_rounds, gen):
    """Monte Carlo rounds with one whole-array Generator.normal per user with
    a noise gain, then one N(0, sigma_z2) for the receiver, summed from the
    signal on; the receiver law is the test's own, not read from the plan."""
    K, d = gradients.shape
    c = equalized_gain(plan.gains)
    received = np.tile(plan.sig_amp @ clip_gradient(gradients, plan.L_s), (n_rounds, 1))
    for k in range(K):
        if plan.gains[k] > 0:
            received += gen.normal(c * plan.loc[k, 0], c * plan.scale[k, 0], size=(n_rounds, d))
    if sigma_z2 > 0:
        received += gen.normal(0.0, np.sqrt(sigma_z2), size=(n_rounds, d))
    return received / (plan.m * K)


class TestAggregationRoundsExact:
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("blocks", [(0, 1), (1, -1), (1, 0), (1, 1), (3, 5)],
                             ids=["1", "B-1", "B", "B+1", "3B+5"])
    @pytest.mark.parametrize("sigma_z2", [0.0, 1.0])
    @pytest.mark.parametrize("muted", [False, True])
    def test_matches_whole_array_draws(self, d, blocks, sigma_z2, muted):
        # n_rounds on either side of the boundaries of blocks of B rounds;
        # muted gives one user zero noise gain, so it draws nothing and the
        # others draw N(0, 0)
        n_rounds = blocks[0] * (_NOISE_BLOCK // d) + blocks[1]
        h2, alloc, pairing, secrets, grads = random_link(4, d, False, 40 + d, muted)
        plan = plan_link(h2, alloc, pairing, secrets, sigma_z2)
        gen_blocks, gen_ref = rng(12), rng(12)
        est = simulate_aggregation_rounds(grads, h2, alloc, pairing, secrets, sigma_z2,
                                          n_rounds, gen_blocks)
        ref = reference_aggregation_rounds(grads, plan, sigma_z2, n_rounds, gen_ref)
        assert est.shape == (n_rounds, d)
        assert np.array_equal(bits(est), bits(ref))
        assert gen_blocks.bit_generator.state == gen_ref.bit_generator.state


class TestPayloadMTimesSk:
    """The transmit step of the round kernel: sig_amp * s_k + noise_amp * n_k."""

    def test_gradient_part_is_m_times_s(self):
        alloc = make_alloc([4.0, 4.0], [1.0, 1.0], L_s=1.0)  # m = 2
        est = run_round(np.array([[1.0], [0.0]]), make_plan([4.0, 4.0], alloc), rng())
        assert received(est, alloc) == pytest.approx([2.0])

    def test_zero_inputs(self):
        alloc = make_alloc([1.0, 1.0], [1.0, 1.0])
        est = run_round(np.zeros((2, 2)), make_plan([1.0, 1.0], alloc), rng())
        assert np.array_equal(est, np.zeros(2))

    def test_noise_only_when_alpha_zero(self):
        h2 = [1.0, 4.0]
        alloc = PowerAllocation(
            P=np.array([4.0, 4.0]), alpha=np.zeros(2), beta=np.ones(2),
            m=1.0, L_s=1.0,
        )
        plan = make_plan(h2, alloc)
        # equalized gain min |h| sqrt(beta P) = 2: the means 2 * (+1) and
        # 2 * (-1) cancel exactly, and the gradients do not enter
        assert np.array_equal(plan.loc[:, 0] * plan.equalize * plan.noise_amp, [2.0, -2.0])
        est = run_round(np.array([[0.5], [-0.3]]), plan, rng())
        assert np.array_equal(est, run_round(np.zeros((2, 1)), plan, rng()))

    def test_unclipped_gradient_is_clipped(self):
        alloc = make_alloc([1.0, 1.0], [1.0, 1.0])
        est = run_round(np.array([[2.0], [0.0]]), make_plan([1.0, 1.0], alloc), rng())
        assert received(est, alloc) == pytest.approx([alloc.m * 1.0])


class TestRowSumPlusNoise:
    """The superposition step of the round kernel: z plus every payload."""

    def test_sum_plus_noise(self):
        alloc = make_alloc([1.0, 1.0], [1.0, 1.0])  # m = 1
        plan = make_plan([1.0, 1.0], alloc, sigma_z2=1.0)
        est = run_round(np.array([[0.25], [0.75]]), plan, rng(4))
        z = rng(4).standard_normal(3)[2]  # the users' rows come first
        assert received(est, alloc) == pytest.approx(1.0 + z)

    def test_noise_floor_only(self):
        alloc = make_alloc([1.0, 1.0], [1.0, 1.0])
        plan = make_plan([1.0, 1.0], alloc, sigma_z2=0.5)
        est = run_round(np.zeros((2, 2)), plan, rng(6))
        z = np.sqrt(0.5) * rng(6).standard_normal((3, 2))[2]
        assert np.array_equal(est, z / (alloc.m * 2))

    def test_empty_frames_rejected(self):
        empty = np.zeros(0)
        alloc = PowerAllocation(P=empty, alpha=empty, beta=empty, m=1.0, L_s=1.0)
        with pytest.raises(ValueError, match="no transmitters"):
            plan_link(empty, alloc, (), [], 0.0)

    def test_dimension_mismatch(self):
        alloc = make_alloc([1.0, 1.0], [1.0, 1.0])
        plan = make_plan([1.0, 1.0], alloc)
        for bad in (np.zeros((3, 2)), np.zeros(2), np.zeros((2, 2, 1))):
            with pytest.raises(ValueError, match="shape"):
                run_round(bad, plan, rng())
        noise = draw_noise(plan, 1, 2, rng())[0]
        for bad in (noise[:, :1], noise[1:], noise[None]):
            with pytest.raises(ValueError, match="noise shape"):
                simulate_round(np.zeros((2, 2)), plan, bad)

    def test_linearity(self):
        alloc = make_alloc([1.0, 2.0, 0.5, 3.0], np.ones(4), L_s=10.0, beta=0.3,
                           alpha_cap=0.5)
        secrets = [PairSecret(1.0, 1.0, 2.0), PairSecret(0.5, 0.5, 0.5)]
        plan = make_plan([1.0, 2.0, 0.5, 3.0], alloc, secrets, sigma_z2=1.0)
        r = rng(2)
        a, b = r.normal(size=(4, 3)), r.normal(size=(4, 3))
        base = run_round(np.zeros((4, 3)), plan, rng(8))
        joint = run_round(a + b, plan, rng(8)) - base
        part_a = run_round(a, plan, rng(8)) - base
        part_b = run_round(b, plan, rng(8)) - base
        assert joint == pytest.approx(part_a + part_b)
        assert joint == pytest.approx((a + b).mean(axis=0))
        quiet = make_plan([1.0, 2.0, 0.5, 3.0], make_alloc([1.0, 2.0, 0.5, 3.0],
                                                           np.ones(4), L_s=10.0))
        scaled = run_round(2 * a, quiet, rng())
        assert scaled == pytest.approx(2 * run_round(a, quiet, rng()))


class TestLinkPlan:
    def test_pairing_must_cover_every_user(self):
        h2 = np.ones(4)
        alloc = make_alloc(h2, np.ones(4))
        # 2.0 == 2 once passed the matching and failed as a numpy index
        for pairs, match in ((((0, 1),), "perfect matching"),
                             (((0, 1), (2, 4)), "perfect matching"),
                             (((0, 1), (1, 2)), "perfect matching"),
                             (((0, 1), (2.0, 3)), r"^paired user must be an integer, got 2\.0$"),
                             (((0, 1), (2, 3, 4)), "two user indices")):
            with pytest.raises(ValueError, match=match):
                plan_link(h2, alloc, pairs, [UNIT] * len(pairs), 0.0)

    def test_one_secret_per_pair(self):
        alloc = make_alloc([1.0, 1.0], np.ones(2))
        with pytest.raises(ValueError, match="one secret per pair"):
            make_plan([1.0, 1.0], alloc, [UNIT, UNIT])

    @pytest.mark.parametrize("bad", [-0.5, np.nan, np.inf])
    def test_beta_must_be_finite_and_nonnegative(self, bad):
        alloc = make_alloc([1.0, 4.0], np.ones(2), beta=0.5, alpha_cap=0.5)
        alloc = replace(alloc, beta=np.array([0.5, bad]))
        with pytest.raises(ValueError, match="beta"):
            make_plan([1.0, 4.0], alloc)

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_sigma_z2_must_be_finite_and_nonnegative(self, bad):
        alloc = make_alloc([1.0, 1.0], np.ones(2))
        with pytest.raises(ValueError, match="sigma_z2"):
            make_plan([1.0, 1.0], alloc, sigma_z2=bad)

    def test_amplitudes(self):
        h2 = np.array([1.0, 4.0])
        alloc = make_alloc(h2, [1.0, 1.0], L_s=2.0, beta=0.5, alpha_cap=0.5)
        plan = make_plan(h2, alloc)
        assert plan.sig_amp == pytest.approx([alloc.m, alloc.m])
        assert plan.noise_amp == pytest.approx(np.sqrt(h2 * alloc.beta))
        assert plan.noise_amp * plan.equalize == pytest.approx(np.full(2, plan.gains.min()))


class TestRescaleByOneOverMK:
    """The rescaling step of the round kernel: s_hat = r / (mK)."""

    def test_noiseless_equal_gains_mean(self):
        alloc = make_alloc([1.0, 1.0], [1.0, 1.0])
        est = run_round(np.array([[1.0], [1.0]]), make_plan([1.0, 1.0], alloc), rng())
        assert est == pytest.approx([1.0])

    def test_unequal_gains_alpha_restores_alignment(self):
        h2 = [4.0, 9.0]
        alloc = make_alloc(h2, [1.0, 1.0], L_s=3.0)
        est = run_round(np.array([[1.0], [3.0]]), make_plan(h2, alloc), rng())
        assert est == pytest.approx([2.0])

    def test_degenerate_alignment_rejected(self):
        alloc = make_alloc([1.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="alignment"):
            make_plan([1.0, 1.0], replace(alloc, m=0.0))


class TestSimulateRound:
    def setup_scenario(self, beta=0.5):
        h2 = np.array([1.0, 4.0])
        alloc = make_alloc(h2, [1.0, 1.0], L_s=np.sqrt(2.0), beta=beta, alpha_cap=0.5)
        pairing = ((0, 1),)
        secrets = [PairSecret(mu=1.0, sigma2_pos=1.0, sigma2_neg=2.0)]
        return h2, alloc, pairing, secrets

    def test_noiseless_round_is_exact_mean(self):
        h2, alloc, pairing, secrets = self.setup_scenario(beta=0.0)
        grads = np.array([[0.5, 0.1], [-0.3, 0.2]])
        plan = plan_link(h2, alloc, pairing, secrets, 0.0)
        est = run_round(grads, plan, rng(1))
        assert est == pytest.approx(grads.mean(axis=0), rel=1e-12)

    def test_monte_carlo_unbiased(self):
        h2, alloc, pairing, secrets = self.setup_scenario()
        grads = np.array([[0.5], [-0.3]])
        n = 10**5
        s_hat = simulate_aggregation_rounds(
            grads, h2, alloc, pairing, secrets, 1.0, n, rng(3)
        )
        truth = grads.mean()
        sigma_est = s_hat[:, 0].std()
        assert abs(s_hat[:, 0].mean() - truth) < 5 * sigma_est / np.sqrt(n)

    def test_vectorized_matches_loop_in_moments(self):
        h2, alloc, pairing, secrets = self.setup_scenario()
        grads = np.array([[0.2], [0.4]])
        n = 20000
        plan = plan_link(h2, alloc, pairing, secrets, 1.0)
        loop = np.array([
            run_round(grads, plan, rng(100 + i))[0]
            for i in range(n)
        ])
        vec = simulate_aggregation_rounds(
            grads, h2, alloc, pairing, secrets, 1.0, n, rng(7)
        )[:, 0]
        assert abs(loop.mean() - vec.mean()) < 0.05
        assert abs(loop.var() / vec.var() - 1.0) < 0.1

    def test_residual_variance_matches_prediction(self):
        # two-user point with m*K = 1, where M^-1 * A_t has variance sigma_A2
        h2 = np.array([1.0, 4.0])
        alloc = make_alloc(h2, [1.0, 1.0], L_s=np.sqrt(2.0), beta=0.5, alpha_cap=0.5)
        pairing = ((0, 1),)
        secrets = [PairSecret(mu=1.0, sigma2_pos=1.0, sigma2_neg=2.0)]
        stats = aggregate_noise_stats(secrets, h2, alloc.P, alloc.beta, alloc.m, 0.0)
        n = 10**6
        a_t = simulate_aggregation_rounds(
            np.zeros((2, 1)), h2, alloc, pairing, secrets, 0.0, n, rng(9)
        )[:, 0]
        standardized = a_t / stats.M
        assert abs(standardized.var() / stats.sigma_A2 - 1.0) < 0.02
        assert abs(a_t.mean()) < 5 * np.sqrt(stats.M**2 * stats.sigma_A2 / n)

    def test_estimator_variance_matches_simulation(self):
        # a four-user link with m K != 1, where estimator_var is the one
        # prediction of the per-coordinate variance of s_hat
        h2, alloc, pairing, secrets, _ = random_link(4, 1, False, 21)
        stats = aggregate_noise_stats(secrets, h2, alloc.P, alloc.beta, alloc.m, 1.0)
        assert abs(alloc.m * 4 - 1.0) > 0.1
        n = 2 * 10**5
        s_hat = simulate_aggregation_rounds(
            np.zeros((4, 1)), h2, alloc, pairing, secrets, 1.0, n, rng(10)
        )[:, 0]
        assert abs(s_hat.var() / stats.estimator_var - 1.0) < 0.02
        assert abs(s_hat.mean()) < 5 * np.sqrt(stats.estimator_var / n)

    def test_equalized_cancellation_is_exact_under_unequal_gains(self):
        h2, alloc, pairing, secrets = self.setup_scenario()
        # raw noise gains 1 : 2; equalization makes the received means
        # +mu c and -mu c, which cancel exactly
        assert len(set(noise_gains(h2, alloc.P, alloc.beta))) == 2
        plan = plan_link(h2, alloc, pairing, secrets, 0.0)
        received_means = plan.loc[:, 0] * plan.equalize * plan.noise_amp
        assert received_means[0] == -received_means[1] != 0.0
        assert np.sum(received_means) == 0.0
