"""Secrecy capacity as a function of the signal power coefficient alpha.

Sweeps alpha in [0, 0.5] for transmit powers of 25 and 30 dB, comparing an
eavesdropper with the same channel quality as the server (delta_h = 0)
against a weaker one (delta_h = 1).  More signal power helps secrecy in
every scenario because the eavesdropper sits behind a 25 dB artificial-noise
floor.
"""
from itertools import product

import numpy as np

from airfl import SecrecySweep, monte_carlo_secrecy

sweep = SecrecySweep(
    alpha_grid=tuple(float(a) for a in np.round(np.arange(0.0, 0.501, 0.05), 2)),
    power_db_grid=(25.0, 30.0),
    delta_h_grid=(0.0, 1.0),
    sigma_a2_db=25.0,
)
means = monte_carlo_secrecy(sweep, n_samples=100_000, seed=0)

print(f"{'alpha':>6} {'P [dB]':>7} {'delta_h':>8} {'mean C [bits]':>14}")
# one sigma_A2, so means[..., 0].flat runs in the product order of the other grids
points = product(sweep.alpha_grid, sweep.power_db_grid, sweep.delta_h_grid)
for (alpha, p_db, delta_h), mean_c in zip(points, means[..., 0].flat):
    print(f"{alpha:>6.2f} {p_db:>7.0f} {delta_h:>8.1f} {mean_c:>14.4f}")
