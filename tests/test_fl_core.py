import inspect
from dataclasses import fields, replace

import numpy as np
import pytest

from airfl import fl_core
from airfl.aircomp import draw_noise, plan_link, round_kernel, simulate_round
from airfl.channel import ChannelConfig, sample_channel
from airfl.fl_core import (
    BoundInputs,
    TrainSettings,
    TrainState,
    all_local_gradients,
    centralized_gd,
    convergence_bound,
    draw_link,
    global_loss,
    make_task,
    optimal_model,
    train_over_air,
)
from airfl.pcran import PairSecret, PowerAllocation, compute_alignment, draw_secrets, form_pairs


def rng(seed=0):
    return np.random.default_rng(seed)


def small_task(seed=0, K=2, n=10, d=5, lam=0.1):
    return make_task(K, n, d, lam, rng(seed))


def naive_loss(w, task):
    # independent double-loop oracle for the pooled regularized loss
    total, count = 0.0, 0
    for k in range(task.K):
        for j in range(task.U.shape[1]):
            resid = float(task.U[k, j] @ w - task.V[k, j])
            total += 0.5 * resid**2 + 0.5 * task.reg_lambda * float(w @ w)
            count += 1
    return total / count


class TestGlobalLoss:
    def test_matches_naive_double_loop(self):
        task = small_task(3)
        w = rng(4).normal(size=task.d)
        assert global_loss(w, task) == pytest.approx(naive_loss(w, task), rel=1e-12)

    def test_perfect_fit_single_point(self):
        task = make_task(1, 1, 1, 1e-12, rng(0))
        # overwrite with the hand-built single point u=[1], v=1
        object.__setattr__(task, "U", np.array([[[1.0]]]))
        object.__setattr__(task, "V", np.array([[1.0]]))
        assert global_loss(np.array([1.0]), task) == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative(self):
        task = small_task(5)
        for _ in range(10):
            assert global_loss(rng().normal(size=task.d), task) >= 0.0

    def test_gradient_zero_at_optimum(self):
        task = small_task(6)
        w_star = optimal_model(task)
        grad = all_local_gradients(w_star, task).mean(axis=0)
        assert np.linalg.norm(grad) < 1e-8


def per_user_gradient(w, U_k, V_k, reg_lambda):
    """Reference: mean per-point gradient over one user's dataset."""
    resid = U_k @ w - V_k
    return resid @ U_k / U_k.shape[0] + reg_lambda * w


class TestLocalGradient:
    def test_finite_difference_oracle(self):
        task = small_task(7)
        w = rng(8).normal(size=task.d)
        g = all_local_gradients(w, task)[0]
        step = 1e-6
        fd = np.zeros(task.d)
        for i in range(task.d):
            e = np.zeros(task.d)
            e[i] = step

            def f(wv):
                resid = task.U[0] @ wv - task.V[0]
                return 0.5 * np.mean(resid**2) + 0.5 * task.reg_lambda * wv @ wv

            fd[i] = (f(w + e) - f(w - e)) / (2 * step)
        assert np.max(np.abs(g - fd)) <= 1e-4

    def test_zero_labels_zero_model(self):
        task = small_task(9)
        task = replace(task, V=np.zeros_like(task.V))
        g = all_local_gradients(np.zeros(task.d), task)
        assert np.array_equal(g, np.zeros((task.K, task.d)))

    def test_stacked_matches_per_user(self):
        task = small_task(10, K=4)
        w = rng(11).normal(size=task.d)
        stacked = all_local_gradients(w, task)
        for k in range(task.K):
            expected = per_user_gradient(w, task.U[k], task.V[k], task.reg_lambda)
            assert stacked[k] == pytest.approx(expected, rel=1e-12)


class TestConvergenceBound:
    def test_hand_value(self):
        b = convergence_bound(BoundInputs(
            mu=1.0, lam=1.0, T=2, L_s=1.0, d=1, m=1.0, K=1,
            noise_power_sum=1.0, sigma_z2=1.0,
        ))
        assert b == pytest.approx(3.0, rel=1e-12)

    def test_doubling_t_halves(self):
        base = dict(mu=2.0, lam=0.5, L_s=1.0, d=30, m=0.7, K=4,
                    noise_power_sum=10.0, sigma_z2=1.0)
        b1 = convergence_bound(BoundInputs(T=100, **base))
        b2 = convergence_bound(BoundInputs(T=200, **base))
        assert b2 == pytest.approx(b1 / 2.0, rel=1e-12)

    def test_noise_terms_vanish(self):
        b = convergence_bound(BoundInputs(
            mu=1.5, lam=0.5, T=10, L_s=2.0, d=30, m=1.0, K=2,
            noise_power_sum=0.0, sigma_z2=0.0,
        ))
        assert b == pytest.approx(2 * 1.5 * 4.0 / (0.25 * 10), rel=1e-12)

    def test_monotonicity(self):
        base = dict(mu=1.0, lam=0.1, L_s=1.0, d=30, m=0.5, sigma_z2=1.0)
        # nonincreasing in K with per-user noise power fixed
        per_user = 5.0
        bounds = [
            convergence_bound(BoundInputs(T=100, K=K, noise_power_sum=per_user * K, **base))
            for K in (2, 4, 8, 16)
        ]
        assert all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:]))
        # nondecreasing in noise power and d
        b_lo = convergence_bound(BoundInputs(T=100, K=2, noise_power_sum=1.0, **base))
        b_hi = convergence_bound(BoundInputs(T=100, K=2, noise_power_sum=2.0, **base))
        assert b_hi >= b_lo

    def test_domain_errors(self):
        good = dict(mu=1.0, lam=1.0, L_s=1.0, d=1, noise_power_sum=0.0, sigma_z2=0.0)
        with pytest.raises(ValueError):
            convergence_bound(BoundInputs(T=0, m=1.0, K=1, **good))
        with pytest.raises(ValueError):
            convergence_bound(BoundInputs(T=1, m=0.0, K=1, **good))
        with pytest.raises(ValueError):
            convergence_bound(BoundInputs(T=1, m=1.0, K=0, **good))

    @pytest.mark.parametrize("bad", [
        dict(lam=0.0), dict(lam=np.nan), dict(mu=np.nan), dict(mu=0.0),
        dict(L_s=np.nan), dict(m=np.nan), dict(T=np.nan), dict(d=0),
        dict(noise_power_sum=np.nan), dict(sigma_z2=np.nan),
    ])
    def test_rejects_zero_or_nan_inputs(self, bad):
        good = dict(mu=1.0, lam=1.0, T=1, L_s=1.0, d=1, m=1.0, K=1,
                    noise_power_sum=0.0, sigma_z2=0.0)
        with pytest.raises(ValueError):
            convergence_bound(BoundInputs(**{**good, **bad}))


def varied_secrets(n_pairs, gen):
    """draw_secrets' three uniforms per pair, with the variances on [0.5, 2]."""
    return [PairSecret(gen.uniform(0.5, 1.5), gen.uniform(0.5, 2.0), gen.uniform(0.5, 2.0))
            for _ in range(n_pairs)]


def reference_train(task, chan, settings, gen, secret_draw):
    """train_over_air spelled out with the public per-round functions: every
    round draws its own noise and evaluates the gradients and the loss from
    scratch."""
    K = task.K
    h2 = sample_channel(chan, K, gen)
    P = np.full(K, settings.power)
    m, alpha = compute_alignment(h2, P, settings.L_s, alpha_cap=settings.alpha_cap)
    beta = np.minimum(np.full(K, settings.beta), 1.0 - alpha)
    alloc = PowerAllocation(P=P, alpha=alpha, beta=beta, m=m, L_s=settings.L_s)
    pairing = form_pairs(K, gen)
    secrets = secret_draw(K // 2, gen)
    plan = plan_link(h2, alloc, pairing, secrets, chan.sigma_z2)
    f_star = global_loss(optimal_model(task), task)
    w = np.zeros(task.d)
    losses, gaps = [], []
    for t in range(1, settings.T + 1):
        noise = draw_noise(plan, 1, task.d, gen)[0]
        s_hat = simulate_round(all_local_gradients(w, task), plan, noise)
        w = w - 1.0 / (task.reg_lambda * t) * s_hat
        loss = global_loss(w, task)
        losses.append(loss)
        gaps.append(loss - f_star)
    return w, losses, gaps


class TestTrainOverAir:
    @pytest.mark.parametrize("K, d", [(2, 5), (6, 5), (2, 1), (6, 1)],
                             ids=["2", "6", "2-d1", "6-d1"])
    @pytest.mark.parametrize("sigma_z2", [0.0, 1.0])
    @pytest.mark.parametrize("quiet", [False, True])
    def test_matches_reference_loop_exactly(self, K, sigma_z2, quiet, d, monkeypatch):
        # quiet runs with beta = 0: every user draws noise that reaches no one;
        # d = 1 is the round kernel's accumulate branch
        monkeypatch.setattr(fl_core, "draw_secrets", varied_secrets)
        task = small_task(12, K=K, n=8, d=d, lam=0.1)
        settings = TrainSettings(T=40, power=100.0, beta=0.0 if quiet else 0.5)
        chan = ChannelConfig(sigma_z2=sigma_z2)
        gen_ref = rng(13)
        w, losses, gaps = reference_train(task, chan, settings, gen_ref, varied_secrets)
        blocks = []

        def recorded(plan, rounds, d, gen):
            blocks.append(rounds)
            return draw_noise(plan, rounds, d, gen)

        monkeypatch.setattr(fl_core, "draw_noise", recorded)
        kernels = []

        def counted(plan, d):
            kernels.append(d)
            return round_kernel(plan, d)

        monkeypatch.setattr(fl_core, "round_kernel", counted)
        # the module's block holds all 40 rounds; blocks of 7 rounds end on a
        # short block of 5; blocks of 1 round draw round by round.  fl_core
        # imports _NOISE_BLOCK from aircomp, and train_over_air reads fl_core's
        for block_rounds, sizes in ((None, [40]), (7, [7] * 5 + [5]), (1, [1] * 40)):
            if block_rounds is not None:
                monkeypatch.setattr(fl_core, "_NOISE_BLOCK", block_rounds * (K + 1) * task.d)
            blocks.clear()
            kernels.clear()
            gen_train = rng(13)
            state, _ = train_over_air(task, chan, settings, gen_train)
            assert blocks == sizes
            assert kernels == [d]  # built once per run
            assert np.array_equal(state.loss_history, losses)
            assert np.array_equal(state.gap_history, gaps)
            assert np.array_equal(state.w, w)
            assert gen_train.bit_generator.state == gen_ref.bit_generator.state

    def noiseless_settings(self, T=200):
        return TrainSettings(T=T, L_s=1.0, power=1.0, alpha_cap=1.0, beta=0.0)

    def test_noiseless_matches_centralized(self):
        task = small_task(1, K=2, lam=0.1)
        settings = self.noiseless_settings()
        chan = ChannelConfig(fading_mode="fixed", fixed_gains=(1.0, 1.0), sigma_z2=0.0)
        state, _ = train_over_air(task, chan, settings, rng(2))
        ref = centralized_gd(task, settings)
        np.testing.assert_allclose(state.loss_history, ref.loss_history, rtol=1e-10)

    def test_deterministic_given_seed(self):
        task = small_task(2, K=4, lam=0.05)
        settings = TrainSettings(T=50, beta=0.5)
        chan = ChannelConfig(sigma_z2=1.0)
        a, _ = train_over_air(task, chan, settings, rng(7))
        b, _ = train_over_air(task, chan, settings, rng(7))
        assert a.loss_history == b.loss_history

    def test_odd_k_rejected(self):
        task = small_task(3, K=3)
        with pytest.raises(ValueError, match="even"):
            train_over_air(task, ChannelConfig(), TrainSettings(T=1), rng())

    def test_gap_below_bound(self):
        task = small_task(4, K=2, d=5, lam=0.1)
        settings = TrainSettings(T=300, beta=0.5, power=100.0)
        chan = ChannelConfig(sigma_z2=1.0)
        gaps = []
        bounds = []
        for s in range(10):
            state, binp = train_over_air(task, chan, settings, rng(100 + s))
            gaps.append(state.gap_history[-1])
            bounds.append(convergence_bound(binp))
        assert np.mean(gaps) <= np.mean(bounds)

    def test_divergence_guard_trips(self, monkeypatch):
        # a round that returns the negated mean gradient turns every step
        # into gradient ascent, so the loss passes DIVERGENCE_FACTOR times its
        # reference while it is still finite
        def ascent(plan, d):
            return lambda grads, noise: -grads.mean(axis=0)

        monkeypatch.setattr(fl_core, "round_kernel", ascent)
        task = small_task(6, K=2, lam=0.1)
        settings = TrainSettings(T=5000, beta=0.0, alpha_cap=1.0, power=1.0)
        chan = ChannelConfig(fading_mode="fixed", fixed_gains=(1.0, 1.0), sigma_z2=0.0)
        with pytest.raises(RuntimeError, match=r"diverged at iteration \d+ \(loss \d\.\d{3}e\+\d+\)"):
            train_over_air(task, chan, settings, rng(3))

    def test_first_step_spike_not_divergence(self):
        # eta_1 = 1/lam makes a huge transient step; the guard must
        # tolerate it and training must still finish
        task = small_task(7, K=2, d=30, lam=1e-3)
        settings = TrainSettings(T=50, beta=0.5)
        state, _ = train_over_air(task, ChannelConfig(), settings, rng(4))
        assert len(state.loss_history) == 50

    @pytest.mark.parametrize("T", [0, -2])
    def test_rejects_no_rounds(self, T):
        with pytest.raises(ValueError, match="T must be at least 1"):
            train_over_air(small_task(), ChannelConfig(), TrainSettings(T=T), rng())

    def test_nan_gradient_bound_rejected_before_training(self):
        settings = TrainSettings(T=5, L_s=np.nan)
        with pytest.raises(ValueError, match="L_s"):
            train_over_air(small_task(), ChannelConfig(), settings, rng())

    @pytest.mark.parametrize("T", [2.5, True, "3"])
    def test_non_integer_rounds_rejected(self, T):
        # T=2.5 once failed later with a TypeError in range
        with pytest.raises(ValueError, match="T must be an integer"):
            TrainSettings(T=T)

    @pytest.mark.parametrize("power", [-1.0, 0.0, np.nan, np.inf])
    def test_non_positive_power_rejected(self, power):
        # power=-1 once failed in training as "degenerate channel: zero gain"
        with pytest.raises(ValueError, match="power must be a finite positive value"):
            TrainSettings(T=3, power=power)


def test_draw_link_clamps_beta_and_keeps_the_draw_order():
    chan = ChannelConfig(sigma_z2=1.0)
    link_gen, gen = rng(3), rng(3)
    h2, alloc, pairing, secrets = draw_link(chan, 6, 100.0, 2.0, 0.3, 0.9, link_gen)
    assert np.array_equal(h2, sample_channel(chan, 6, gen))
    m, alpha = compute_alignment(h2, np.full(6, 100.0), 2.0, alpha_cap=0.3)
    assert (alloc.m, alloc.L_s) == (m, 2.0)
    assert np.array_equal(alloc.P, np.full(6, 100.0))
    assert np.array_equal(alloc.alpha, alpha)
    # beta is cut back to 1 - alpha_k, at least for the worst user (alpha 0.3)
    assert np.array_equal(alloc.beta, np.minimum(0.9, 1.0 - alpha))
    assert alloc.beta.min() == pytest.approx(0.7)
    assert pairing == form_pairs(6, gen)
    assert secrets == draw_secrets(3, gen)
    assert link_gen.bit_generator.state == gen.bit_generator.state


def test_make_task_validation():
    for lam in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="reg_lambda"):
            make_task(2, 5, 3, lam, rng())
    for K, n, d in ((0, 5, 3), (2, 0, 3), (2, 5, 0)):
        with pytest.raises(ValueError, match="at least 1"):
            make_task(K, n, d, 0.1, rng())


@pytest.mark.parametrize("lam", [-1.0, np.nan])
def test_hand_built_task_is_checked(lam):
    # such a task once trained with steps 1/(lam t) < 0 to a rising loss, or
    # failed as a divergence at iteration 1, without naming reg_lambda
    with pytest.raises(ValueError, match="reg_lambda must be a finite positive value"):
        replace(small_task(), reg_lambda=lam)


def test_hand_built_task_needs_one_label_per_point():
    task = small_task()
    for U, V in ((task.U, task.V[:, 1:]), (task.U, task.V.T), (task.U[0], task.V)):
        with pytest.raises(ValueError, match=r"V must have shape U.shape\[:2\]"):
            replace(task, U=U, V=V)


def test_training_api_parameters_are_pinned():
    # a knob no caller sets is an untested configuration; adding one back
    # must change this list on purpose
    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert [f.name for f in fields(TrainSettings)] == [
        "T", "L_s", "power", "alpha_cap", "beta"]
    assert [f.name for f in fields(TrainState)] == [
        "w", "loss_history", "gap_history"]
    assert params(make_task) == ["K", "n_per_user", "d", "reg_lambda", "rng"]
    assert params(train_over_air) == ["task", "channel_config", "settings", "rng"]
    assert params(centralized_gd) == ["task", "settings"]
    assert params(draw_secrets) == ["n_pairs", "rng"]


def test_task_smoothness_at_least_lambda():
    task = small_task(11)
    assert task.mu >= task.reg_lambda
