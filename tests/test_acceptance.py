"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole module is also part of the default pytest run.
"""
import time
from dataclasses import replace

import numpy as np
import pytest

from airfl.aircomp import simulate_aggregation_rounds
from airfl.channel import ChannelConfig, db_to_linear
from airfl.experiments import config_from_dict, run_experiment
from airfl.fl_core import (
    BoundInputs,
    centralized_gd,
    convergence_bound,
    make_task,
    train_over_air,
)
from airfl.pcran import (
    PairSecret,
    Pairing,
    PowerAllocation,
    aggregate_noise_stats,
    compute_alignment,
    optimize_beta_dp,
)
from airfl.secrecy import (
    SecrecySweep,
    monte_carlo_secrecy,
    secrecy_point,
)


# lines recorded here are echoed in the terminal summary (see conftest.py)
# so they show up even under pytest's output capture
REPORT_LINES: list[str] = []


def report(n, text):
    line = f"ACCEPTANCE {n} PASS: {text}"
    REPORT_LINES.append(line)
    print(f"\n{line}", flush=True)


def test_criterion_1_fig3_trends():
    start = time.time()
    sweep = SecrecySweep(
        alpha_grid=tuple(float(a) for a in np.round(np.arange(0.0, 0.501, 0.05), 2)),
        power_db_grid=(25.0, 30.0),
        delta_h_grid=(0.0, 1.0),
        sigma_a2_db=25.0,
        sigma_z2=1.0,
    )
    means = monte_carlo_secrecy(sweep, 10**5, seed=11)
    # means[:, j, k, 0] is the curve over the ascending alpha grid at power j
    # and delta_h k: nondecreasing on every curve, zero violations
    for j, k in np.ndindex(means.shape[1:3]):
        curve = means[:, j, k, 0]
        assert (curve[1:] >= curve[:-1]).all(), (sweep.power_db_grid[j], sweep.delta_h_grid[k])
    # delta_h > 0 dominates delta_h = 0 at every (alpha, power)
    assert (means[:, :, 1] >= means[:, :, 0]).all()
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(1, f"secrecy capacity nondecreasing in alpha and dominated by "
              f"delta_h>0 at 1e5 samples ({elapsed:.1f}s)")


def test_criterion_2_fig4_trends():
    sweep = SecrecySweep(
        alpha_grid=(0.5,),
        power_db_grid=tuple(float(p) for p in range(0, 31, 5)),
        delta_h_grid=(1.0,),
        sigma_A2_db_grid=(0.0, 5.0, 10.0, 15.0, 20.0),
        sigma_a2_db=25.0,
    )
    # one row per power, one column per sigma_A2, both grids ascending
    means = monte_carlo_secrecy(sweep, 10**5, seed=13)[0, :, 0, :]
    # nonincreasing as sigma_A2 grows, at every power
    assert (means[:, 1:] <= means[:, :-1]).all()
    # the sigma_A2 = 0 dB curve dominates every other curve
    assert sweep.sigma_A2_db_grid[0] == 0.0
    assert (means[:, :1] >= means).all()
    # nondecreasing in transmit power on every sigma_A2 curve
    assert (means[1:] >= means[:-1]).all()
    report(2, "secrecy capacity nonincreasing in sigma_A2, 0 dB curve dominant, "
              "nondecreasing in transmit power")


def test_criterion_3_bound_oracle():
    b = convergence_bound(BoundInputs(
        mu=1.0, lam=1.0, T=2, L_s=1.0, d=1, m=1.0, K=1,
        noise_power_sum=1.0, sigma_z2=1.0,
    ))
    assert b == pytest.approx(3.0, rel=1e-12)
    base = BoundInputs(mu=1.0, lam=1.0, T=100, L_s=1.0, d=1, m=1.0, K=1,
                       noise_power_sum=1.0, sigma_z2=1.0)
    assert convergence_bound(replace(base, T=200)) == pytest.approx(
        convergence_bound(base) / 2.0, rel=1e-12
    )
    # doubling K with per-user noise power fixed shrinks the bound
    per_user = 1.0
    b1 = convergence_bound(replace(base, K=1, noise_power_sum=per_user * 1))
    b2 = convergence_bound(replace(base, K=2, noise_power_sum=per_user * 2))
    assert b2 < b1
    report(3, "closed-form bound equals 3 at the hand-evaluated point, halves "
              "with T, and decreases with K")


def test_criterion_4_secrecy_oracle():
    p = secrecy_point(
        alpha_a=1.0, P_a=1.0, L_s=1.0, h2_a=2.0, h2_ev=1.0,
        sigma_z2=1.0, sigma_a2=1.0, sigma_zprime2=1.0,
    )
    assert p.c == pytest.approx(1.0, rel=1e-12)
    r = np.random.default_rng(21)
    for _ in range(10**4):
        q = secrecy_point(
            alpha_a=r.uniform(0, 1), P_a=r.uniform(0.1, 1000), L_s=r.uniform(0.5, 2),
            h2_a=r.uniform(0, 5), h2_ev=r.uniform(0, 5), sigma_z2=r.uniform(0.1, 2),
            sigma_a2=r.uniform(0, 300), sigma_zprime2=r.uniform(0.1, 100),
        )
        assert q.c_s == pytest.approx(np.log2(1 + q.snr_s), abs=1e-12)
    report(4, "hand-derived point yields exactly 1.0 bit and the log2(1+SNR) "
              "identity holds across 1e4 random inputs")


def test_criterion_5_cancellation_unbiasedness():
    # two-user operating point with m*K = 1, where the residual-variance
    # formula (M^2 sigma_A2 + sigma_z2)/(m K)^2 is exact
    h2 = np.array([1.0, 4.0])
    P = np.array([1.0, 1.0])
    L_s = np.sqrt(2.0)
    m, alpha = compute_alignment(h2, P, L_s, alpha_cap=0.5)
    assert m * 2 == pytest.approx(1.0, rel=1e-12)
    beta = np.full(2, 0.5)
    alloc = PowerAllocation(P=P, alpha=alpha, beta=beta, m=m, L_s=L_s)
    pairing = Pairing(pairs=((0, 1),))
    secrets = [PairSecret(mu=1.0, sigma2_pos=1.0, sigma2_neg=2.0)]
    sigma_z2 = 1.0
    stats = aggregate_noise_stats(pairing, secrets, h2, P, beta, m, sigma_z2)
    predicted_var = (stats.M**2 * stats.sigma_A2 + sigma_z2) / (m * 2) ** 2

    gradients = np.array([[0.3, -0.2], [0.1, 0.4]])
    n = 10**6
    s_hat = simulate_aggregation_rounds(
        gradients, h2, alloc, pairing,
        secrets, sigma_z2, n, np.random.default_rng(31),
    )
    residual = s_hat - gradients.mean(axis=0)
    stderr = np.sqrt(predicted_var / n)
    assert np.all(np.abs(residual.mean(axis=0)) < 5 * stderr)
    emp_var = residual.var(axis=0)
    assert np.all(np.abs(emp_var / predicted_var - 1.0) < 0.02)
    report(5, f"aggregated noise mean within 5 stderr of 0 and residual "
              f"variance within 2% of {predicted_var} over 1e6 rounds")


def test_criterion_6_noiseless_equivalence():
    task = make_task(2, 20, 10, 0.1, np.random.default_rng(41))
    shared = dict(T=1000, L_s=1.0)  # the settings both runs read
    chan = ChannelConfig(fixed_gains=(1.0, 1.0), sigma_z2=0.0)
    state, _ = train_over_air(task, chan, np.random.default_rng(42), power=1.0,
                              alpha_cap=1.0, beta=0.0, **shared)
    ref = centralized_gd(task, **shared)
    np.testing.assert_allclose(state.loss_history, ref.loss_history, rtol=1e-10)
    report(6, "noiseless over-the-air training reproduces centralized GD loss "
              "history to 1e-10 over 1000 iterations")


def _train_batch(K, alpha_cap, beta, n_seeds=50, T=1000):
    task = make_task(K, 20, 30, 1e-3, np.random.default_rng([17, K]))
    chan = ChannelConfig(sigma_z2=1.0)
    t = np.arange(1, T + 1)
    gaps, bounds, terminal = [], [], []
    for s in range(n_seeds):
        state, binp = train_over_air(
            task, chan, np.random.default_rng([41, K, int(beta * 100), s]),
            T=T, power=db_to_linear(30.0), alpha_cap=alpha_cap, beta=beta,
        )
        gaps.append(state.gap_history)
        bounds.append(convergence_bound(replace(binp, T=1)) / t)
        terminal.append(state.loss_history[-1])
    return np.asarray(gaps), np.asarray(bounds), float(np.mean(terminal))


def test_criterion_7_bound_validity():
    start = time.time()
    terminal = {}
    for K in (2, 10, 20):
        gaps, bounds, terminal[K] = _train_batch(K, 0.5, 0.5)
        assert np.all(gaps.mean(axis=0) <= bounds.mean(axis=0)), K
    loss_low_beta = terminal[10]  # the same batch as beta=0.5 at K=10 above
    _, _, loss_high_beta = _train_batch(10, 0.3, 0.7)
    assert loss_low_beta <= loss_high_beta
    elapsed = time.time() - start
    assert elapsed < 300.0
    report(7, f"mean optimality gap below the bound at every iteration for "
              f"K in (2, 10, 20) and beta=0.5 beats beta=0.7 "
              f"({loss_low_beta:.3f} vs {loss_high_beta:.3f}, {elapsed:.0f}s)")


def test_criterion_8_dp_allocation():
    beta, psi = optimize_beta_dp(
        np.array([1.0]), np.array([1.0]), np.array([10.0]), 0.25, 1.0,
        caps=np.array([5.0]),
    )
    assert beta == pytest.approx([0.0])
    r = np.random.default_rng(51)
    for _ in range(10**4):
        K = int(r.integers(1, 13))
        h2 = r.uniform(0.05, 4.0, K)
        P = r.uniform(0.5, 1000.0, K)
        eps = r.uniform(0.01, 20.0, K)
        delta = r.uniform(1e-6, 0.5)
        caps = r.uniform(0.0, 100.0, K)
        alpha = r.uniform(0.0, 1.0, K)
        beta, psi = optimize_beta_dp(h2, P, eps, delta, r.uniform(0.0, 2.0), caps,
                                     alpha=alpha)
        assert np.all(beta >= 0.0)
        assert np.all(beta <= 1.0 - alpha + 1e-12)
        assert np.sum(h2 * beta * P) <= max(psi, 0.0) + 1e-9
    report(8, "beta allocation feasible (range and cumulative power) across "
              "1e4 random instances; weak-privacy instance returns beta=0")


def test_criterion_9_determinism(tmp_path):
    outputs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        cfg = config_from_dict({
            "experiment": "fig3", "samples": 20000, "seed": 7, "out": str(out)
        })
        run_experiment(cfg)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    outputs = []
    for name in ("c.csv", "d.csv"):
        out = tmp_path / name
        cfg = config_from_dict({
            "experiment": "fig5", "T": 20, "n_seeds": 2, "k_grid": [2],
            "splits": [[0.5, 0.5]], "seed": 7, "d": 5, "n_per_user": 6,
            "reg_lambda": 0.1, "out": str(out),
        })
        run_experiment(cfg)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    report(9, "identical config+seed reruns emit byte-identical CSV")
