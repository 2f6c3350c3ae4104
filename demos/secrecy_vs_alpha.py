"""Secrecy capacity as a function of the signal power coefficient alpha.

Runs the fig3 experiment at its defaults: alpha in [0, 0.5] for transmit
powers of 25 and 30 dB, comparing an eavesdropper with the same channel
quality as the server (delta_h = 0) against a weaker one (delta_h = 1).
More signal power helps secrecy in every scenario because the eavesdropper
sits behind a 25 dB artificial-noise floor.
"""
from airfl.experiments import Fig3Config

_, rows = Fig3Config().run()  # (alpha, p_db, delta_h, mean_c) rows

print(f"{'alpha':>6} {'P [dB]':>7} {'delta_h':>8} {'mean C [bits]':>14}")
for alpha, p_db, delta_h, mean_c in rows:
    print(f"{alpha:>6.2f} {p_db:>7.0f} {delta_h:>8.1f} {mean_c:>14.4f}")
