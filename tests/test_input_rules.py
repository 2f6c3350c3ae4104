"""One table of every public entry point's numeric parameters.

Each parameter, given a value that its rule forbids, must raise a ValueError
that names it; the config layer raises ConfigError, a ValueError.  The rules
are the predicates of airfl._checks.  A per-user array gets the bad value in
its second entry, or in every entry when the value is a bool; a number or a
grid entry is also given a list.
"""
import math
from dataclasses import replace

import numpy as np
import pytest

import airfl
from airfl import (
    BoundInputs,
    ChannelConfig,
    Pairing,
    PairSecret,
    PowerAllocation,
    SecrecyInputs,
    SecrecySweep,
    TrainSettings,
    aggregate_noise_stats,
    awgn,
    centralized_gd,
    clip_gradient,
    compute_alignment,
    convergence_bound,
    db_to_linear,
    draw_link,
    draw_pcran,
    draw_secrets,
    form_pairs,
    make_task,
    monte_carlo_secrecy,
    optimize_beta_dp,
    plan_link,
    sample_channel,
    sample_gains,
    secrecy_point,
    simulate_aggregation_rounds,
    train_over_air,
)
from airfl.experiments import ConfigError, config_from_dict

NOT_FINITE = [math.nan, math.inf, -math.inf, True]
BAD = {
    "finite": NOT_FINITE,
    "decibels": NOT_FINITE,
    "nonnegative": NOT_FINITE + [-1.0],
    "positive": NOT_FINITE + [-1.0, 0.0],
    "unit_interval": NOT_FINITE + [-1.0, 1.5],
    "count": NOT_FINITE + [-1, 2.5],
}
# a value each rule accepts, given inside a list where a number is expected
GOOD = {"finite": 0.5, "decibels": 0.5, "nonnegative": 0.5, "positive": 0.5,
        "unit_interval": 0.5, "count": 2}
# exported names with no numeric parameter of their own: records that the
# entry points below check or return, and functions of data arrays; and
# draw_noise, which runs once per noise block of a training run and takes
# its counts from checked settings, so it checks nothing
EXEMPT = {
    "BetaAllocation", "LinkPlan", "NoiseStats", "SecrecyPoint", "SweepResult",
    "TrainState", "Pairing", "PowerAllocation", "BoundInputs",
    "SecrecyInputs", "all_local_gradients", "global_loss", "optimal_model",
    "simulate_round", "draw_noise",
}


def rng():
    return np.random.default_rng(0)


def per_user(value):
    return np.full(2, value) if isinstance(value, bool) else np.array([1.0, value])


H2 = np.array([1.0, 4.0])
M, ALPHA = compute_alignment(H2, np.ones(2), 1.0, alpha_cap=0.5)
ALLOC = PowerAllocation(P=np.ones(2), alpha=ALPHA, beta=np.full(2, 0.5), m=M, L_s=1.0)
PAIRING = Pairing(pairs=((0, 1),))
SECRETS = [PairSecret(1.0, 1.0, 1.0)]
PLAN = plan_link(H2, ALLOC, PAIRING, SECRETS, 1.0)
TASK = make_task(2, 3, 2, 0.1, rng())


def plan(h2=H2, sigma_z2=1.0, **alloc):
    return plan_link(h2, replace(ALLOC, **alloc), PAIRING, SECRETS, sigma_z2)


def stats(h2=H2, P=ALLOC.P, beta=ALLOC.beta, m=M, sigma_z2=1.0):
    return aggregate_noise_stats(PAIRING, SECRETS, h2, P, beta, m, sigma_z2)


def beta_dp(h2=H2, P=np.ones(2), eps=np.ones(2), delta=0.1, sigma_z2=1.0,
            caps=np.ones(2), alpha=np.zeros(2)):
    return optimize_beta_dp(h2, P, eps, delta, sigma_z2, caps, alpha)


def bound(**kw):
    base = dict(mu=1.0, lam=1.0, T=1, L_s=1.0, d=1, m=1.0, K=1,
                noise_power_sum=0.0, sigma_z2=0.0)
    return convergence_bound(BoundInputs(**{**base, **kw}))


def point(**kw):
    base = dict(alpha_a=1.0, P_a=1.0, L_s=1.0, h2_a=2.0, h2_ev=1.0,
                sigma_z2=1.0, sigma_a2=1.0, sigma_zprime2=1.0)
    return secrecy_point(SecrecyInputs(**{**base, **kw}))


def sweep(**kw):
    return SecrecySweep(**{"alpha_grid": (0.5,), "power_db_grid": (30.0,), **kw})


def train(**settings):
    return train_over_air(TASK, ChannelConfig(), TrainSettings(T=3, **settings), rng())


def link(**kw):
    base = dict(K=2, power=1.0, L_s=1.0, alpha_cap=0.5, beta=0.5)
    return draw_link(ChannelConfig(), **{**base, **kw}, rng=rng())


def config(experiment):
    return lambda **kw: config_from_dict({"experiment": experiment, **kw})


# (entry point, call taking keyword arguments, {parameter: rule}, parameters
# given as per-user arrays, parameters given as one-entry grids)
TABLE = [
    ("db_to_linear", db_to_linear, {"db": "decibels"}, (), ()),
    ("ChannelConfig", ChannelConfig, {"sigma_z2": "nonnegative"}, (), ()),
    ("ChannelConfig", lambda fixed_gains: ChannelConfig("fixed", fixed_gains=fixed_gains),
     {"fixed_gains": "nonnegative"}, ("fixed_gains",), ()),
    ("sample_channel", lambda K: sample_channel(ChannelConfig(), K, rng()), {"K": "count"}, (), ()),
    ("sample_gains", lambda n: sample_gains(ChannelConfig(), n, rng()), {"n": "count"}, (), ()),
    ("awgn", lambda dim=3, sigma2=1.0: awgn(dim, sigma2, rng()),
     {"dim": "count", "sigma2": "nonnegative"}, (), ()),
    ("PairSecret", lambda mu=1.0, sigma2_pos=1.0, sigma2_neg=1.0:
        PairSecret(mu, sigma2_pos, sigma2_neg),
     {"mu": "finite", "sigma2_pos": "positive", "sigma2_neg": "positive"}, (), ()),
    ("form_pairs", lambda K: form_pairs(K, rng()), {"K": "count"}, (), ()),
    ("draw_secrets", lambda n_pairs: draw_secrets(n_pairs, rng()), {"n_pairs": "count"}, (), ()),
    ("draw_pcran", lambda dim: draw_pcran(SECRETS[0], "positive", dim, rng()),
     {"dim": "count"}, (), ()),
    ("compute_alignment", lambda h2=H2, P=np.ones(2), L_s=1.0, alpha_cap=0.5:
        compute_alignment(h2, P, L_s, alpha_cap),
     {"h2": "nonnegative", "P": "positive", "L_s": "positive", "alpha_cap": "unit_interval"},
     ("h2", "P"), ()),
    ("optimize_beta_dp", beta_dp,
     {"h2": "positive", "P": "positive", "eps": "positive", "delta": "unit_interval",
      "sigma_z2": "nonnegative", "caps": "nonnegative", "alpha": "unit_interval"},
     ("h2", "P", "eps", "caps", "alpha"), ()),
    ("aggregate_noise_stats", stats,
     {"h2": "nonnegative", "P": "nonnegative", "beta": "nonnegative", "m": "positive",
      "sigma_z2": "nonnegative"}, ("h2", "P", "beta"), ()),
    ("clip_gradient", lambda L_s: clip_gradient(np.ones(3), L_s), {"L_s": "positive"}, (), ()),
    ("plan_link", plan,
     {"h2": "nonnegative", "sigma_z2": "nonnegative", "P": "nonnegative",
      "alpha": "unit_interval", "beta": "nonnegative", "m": "positive", "L_s": "positive"},
     ("h2", "P", "alpha", "beta"), ()),
    ("simulate_aggregation_rounds", lambda n_rounds=2, sigma_z2=1.0:
        simulate_aggregation_rounds(np.zeros((2, 1)), H2, ALLOC, PAIRING, SECRETS,
                                    sigma_z2, n_rounds, rng()),
     {"n_rounds": "count", "sigma_z2": "nonnegative"}, (), ()),
    ("make_task", lambda K=2, n_per_user=3, d=2, reg_lambda=0.1:
        make_task(K, n_per_user, d, reg_lambda, rng()),
     {"K": "count", "n_per_user": "count", "d": "count", "reg_lambda": "positive"}, (), ()),
    ("SyntheticTask", lambda reg_lambda=0.1, mu=1.0: replace(TASK, reg_lambda=reg_lambda, mu=mu),
     {"reg_lambda": "positive", "mu": "positive"}, (), ()),
    ("convergence_bound", bound,
     {"mu": "positive", "lam": "positive", "T": "count", "L_s": "positive", "d": "count",
      "m": "positive", "K": "count", "noise_power_sum": "nonnegative",
      "sigma_z2": "nonnegative"}, (), ()),
    ("TrainSettings", lambda T=3, power=1.0: TrainSettings(T=T, power=power),
     {"T": "count", "power": "positive"}, (), ()),
    ("train_over_air", train,
     {"L_s": "positive", "alpha_cap": "unit_interval", "beta": "unit_interval"}, (), ()),
    ("centralized_gd", lambda L_s: centralized_gd(TASK, TrainSettings(T=3, L_s=L_s)),
     {"L_s": "positive"}, (), ()),
    ("draw_link", link,
     {"K": "count", "power": "positive", "L_s": "positive", "alpha_cap": "unit_interval",
      "beta": "unit_interval"}, (), ()),
    ("secrecy_point", point,
     {"alpha_a": "unit_interval", "P_a": "nonnegative", "L_s": "positive",
      "h2_a": "nonnegative", "h2_ev": "nonnegative", "sigma_z2": "nonnegative",
      "sigma_a2": "nonnegative", "sigma_zprime2": "positive"}, (), ()),
    ("SecrecySweep", sweep,
     {"alpha_grid": "unit_interval", "power_db_grid": "decibels",
      "delta_h_grid": "nonnegative", "sigma_A2_db_grid": "decibels",
      "sigma_a2_db": "decibels", "sigma_z2": "nonnegative", "L_s": "positive"},
     (), ("alpha_grid", "power_db_grid", "delta_h_grid", "sigma_A2_db_grid")),
    ("monte_carlo_secrecy", lambda n_samples=10, seed=0:
        monte_carlo_secrecy(sweep(), n_samples, seed),
     {"n_samples": "count", "seed": "count"}, (), ()),
    ("config-fig3", config("fig3"),
     {"seed": "count", "samples": "count", "alpha_grid": "unit_interval",
      "powers_db": "decibels", "delta_h_values": "nonnegative",
      "sigma_A2_db_grid": "decibels", "sigma_a2_db": "decibels",
      "sigma_z2": "nonnegative", "L_s": "positive"},
     (), ("alpha_grid", "powers_db", "delta_h_values", "sigma_A2_db_grid")),
    ("config-fig4", config("fig4"), {"alpha": "unit_interval"}, (), ()),
    ("config-fig5", config("fig5"),
     {"k_grid": "count", "n_seeds": "count", "d": "count", "T": "count",
      "n_per_user": "count", "reg_lambda": "positive"}, (), ("k_grid",)),
    ("config-train", config("train"),
     {"users": "count", "beta": "unit_interval"}, (), ()),
    ("config-fig5-splits", lambda alpha=0.5, beta=0.5: config("fig5")(splits=[[alpha, beta]]),
     {"alpha": "unit_interval", "beta": "unit_interval"}, (), ()),
]
# the name a message gives a parameter, where it is not the parameter's own
NAMED = {("config-fig3", "alpha_grid"): "alpha", ("aggregate_noise_stats", "m"): "constant m",
         ("plan_link", "m"): "constant m"}


def cases():
    for entry, call, rules, arrays, grids in TABLE:
        for name, rule in rules.items():
            # a list, even of one good value or of none, is not a number, and
            # a grid entry is a number
            lists = [] if name in arrays else [[GOOD[rule]], []]
            for value in BAD[rule] + lists:
                yield pytest.param(entry, call, name, value, arrays, grids,
                                   id=f"{entry}-{name}-{value!r}")


@pytest.mark.parametrize("entry, call, name, value, arrays, grids", cases())
def test_bad_value_is_rejected_by_name(entry, call, name, value, arrays, grids):
    if name in arrays:
        value = per_user(value)
    elif name in grids:
        value = [value]
    error = ConfigError if entry.startswith("config") else ValueError
    named = NAMED.get((entry, name), name)
    with pytest.raises(error, match=rf"(^|\W){named} must"):
        call(**{name: value})


@pytest.mark.parametrize("call, match", [
    # inputs the tables do not build: a negative h2 and P whose product is
    # positive, a wrong-length alpha (numpy's broadcast error), products that
    # overflow (numpy's overflow warning came first) and a ragged list
    (lambda: beta_dp(h2=np.array([-1.0, -2.0]), P=np.array([-100.0, -100.0])),
     "h2 must be a finite positive value"),
    (lambda: beta_dp(alpha=np.zeros(3)), "and alpha need one entry per user"),
    (lambda: compute_alignment(np.array([1e200, 1.0]), np.array([1e200, 1.0]), 1.0),
     r"h2 \* P must be a finite value"),
    (lambda: beta_dp(h2=np.array([1e200, 1.0]), P=np.array([1e200, 1.0])),
     r"h2 \* P must be a finite positive value"),
    # numpy raises its own ValueError on a ragged nesting, which named nothing
    (lambda: config("train")(beta=[[0.5], [0.5, 0.5]]), r"^beta must be a finite value"),
    # numpy wraps a long array's repr, which split the CLI's one error line
    (lambda: compute_alignment(np.full(40, 1e200), np.full(40, 1e200), 1.0),
     r"^h2 \* P must be a finite value, got array\(\[inf, [^\n]*\]\)$"),
], ids=["negative-h2-and-P", "alpha-length", "alignment-overflow", "beta-dp-overflow",
        "ragged-list", "long-array"])
def test_reported_input_is_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_table_covers_every_public_entry_point():
    exported = {name for name in dir(airfl) if not name.startswith("_")
                and callable(getattr(airfl, name))}
    covered = {entry for entry, *_ in TABLE if not entry.startswith("config")}
    assert covered | EXEMPT == exported
    assert not covered & EXEMPT
