"""Federated ridge regression trained over the simulated analog channel.

Runs desk-scale over-the-air training for two noise power splits and prints
the loss trajectory alongside the closed-form convergence bound.  A lower
artificial-noise fraction beta converges faster; both stay below the bound.
"""
from dataclasses import replace

import numpy as np

from airfl import (
    ChannelConfig,
    convergence_bound,
    make_task,
    train_over_air,
)

K, d, T = 10, 30, 1000
task = make_task(K, n_per_user=20, d=d, reg_lambda=1e-3,
                 rng=np.random.default_rng(17))
chan = ChannelConfig(sigma_z2=1.0)

for alpha_cap, beta in ((0.5, 0.5), (0.3, 0.7)):
    state, bound_inputs = train_over_air(
        task, chan, np.random.default_rng(1),
        T=T, power=1000.0, alpha_cap=alpha_cap, beta=beta,
    )
    print(f"\nalpha_cap={alpha_cap}, beta={beta} (m={bound_inputs.m:.3f})")
    print(f"{'t':>6} {'loss':>12} {'gap':>12} {'bound':>12}")
    # the bound after t rounds is its one-round value over t, as fig5 writes it
    first_round = convergence_bound(replace(bound_inputs, T=1))
    for t in (1, 10, 100, 500, 1000):
        bound_t = first_round / t
        print(f"{t:>6} {state.loss_history[t - 1]:>12.4f} "
              f"{state.gap_history[t - 1]:>12.4f} {bound_t:>12.1f}")
