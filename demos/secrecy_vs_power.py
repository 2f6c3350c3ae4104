"""Impact of transmit power and residual-noise variance on secrecy capacity.

Runs the fig4 experiment at its defaults: with alpha fixed at 0.5 and a
weaker eavesdropper channel, secrecy capacity grows with transmit power and
shrinks as the aggregated artificial-noise variance sigma_A2 (the part that
survives cancellation at the server) grows.  The sigma_A2 = 0 dB curve is
the perfect-cancellation ceiling.
"""
from airfl.experiments import Fig4Config

config = Fig4Config()
_, rows = config.run()  # (p_db, sigma_A2_db, mean_c) rows, sigma_A2 fastest
n = len(config.sigma_A2_db_grid)

print("P [dB] " + "  ".join(f"sA2={s:>4.0f}dB" for s in config.sigma_A2_db_grid))
for i in range(0, len(rows), n):  # one line per power, one column per sigma_A2
    curve = rows[i:i + n]
    print(f"{curve[0][0]:>6.0f} " + "  ".join(f"{c:>9.4f}" for _, _, c in curve))
