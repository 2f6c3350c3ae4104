"""Pairwise cancellation of artificial noise at the aggregation server.

Two users mask their (zero) gradients with high-power Gaussian noise of
opposite means.  Each user pre-equalizes its noise to the common minimum
gain, so over many simulated rounds the aggregated noise term averages to
zero and its variance matches the closed-form residual prediction.  Without
that equalization the opposite means would reach the server with unequal
gains, and the script prints the bias they would leave.
"""
import numpy as np

from airfl import (
    PairSecret,
    PowerAllocation,
    aggregate_noise_stats,
    compute_alignment,
    simulate_aggregation_rounds,
)
from airfl.pcran import noise_gains

h2 = np.array([1.0, 4.0])
P = np.array([1.0, 1.0])
L_s = np.sqrt(2.0)
m, alpha = compute_alignment(h2, P, L_s, alpha_cap=0.5)
beta = np.full(2, 0.5)
alloc = PowerAllocation(P=P, alpha=alpha, beta=beta, m=m, L_s=L_s)
pairing = ((0, 1),)
mu = 5.0
secrets = [PairSecret(mu=mu, sigma2_pos=1.0, sigma2_neg=2.0)]

s_hat = simulate_aggregation_rounds(
    np.zeros((2, 1)), h2, alloc, pairing, secrets,
    sigma_z2=1.0, n_rounds=200_000, rng=np.random.default_rng(0),
)
stats = aggregate_noise_stats(secrets, h2, P, beta, m, 1.0)
print(f"pre-equalized: empirical mean {s_hat.mean():+.4f}  "
      f"empirical var {s_hat.var():.4f}  "
      f"(sigma_A2={stats.sigma_A2:.1f}, sigma_zprime2={stats.sigma_zprime2:.3f})")

# raw gains: each pair's +mu and -mu reach the server scaled by its users'
# own noise gains |h_k| sqrt(beta_k P_k), so they no longer cancel
gains = noise_gains(h2, P, beta)
bias = sum(mu * (gains[pos] - gains[neg]) for pos, neg in pairing) / (m * len(h2))
print(f"raw gains would leave a bias of {bias:+.4f} from the mu=+/-{mu:g} means")
