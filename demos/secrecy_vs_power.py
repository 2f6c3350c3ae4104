"""Impact of transmit power and residual-noise variance on secrecy capacity.

With alpha fixed at 0.5 and a weaker eavesdropper channel, secrecy capacity
grows with transmit power and shrinks as the aggregated artificial-noise
variance sigma_A2 (the part that survives cancellation at the server) grows.
The sigma_A2 = 0 dB curve is the perfect-cancellation ceiling.
"""
from airfl import SecrecySweep, monte_carlo_secrecy

sweep = SecrecySweep(
    alpha_grid=(0.5,),
    power_db_grid=tuple(float(p) for p in range(0, 31, 5)),
    delta_h_grid=(1.0,),
    sigma_A2_db_grid=(0.0, 5.0, 10.0, 15.0, 20.0),
    sigma_a2_db=25.0,
)
means = monte_carlo_secrecy(sweep, n_samples=100_000, seed=0)
curves = means[0, :, 0, :]  # one row per power, one column per sigma_A2

print("P [dB] " + "  ".join(f"sA2={s:>4.0f}dB" for s in sweep.sigma_A2_db_grid))
for p, row in zip(sweep.power_db_grid, curves):
    print(f"{p:>6.0f} " + "  ".join(f"{c:>9.4f}" for c in row))
