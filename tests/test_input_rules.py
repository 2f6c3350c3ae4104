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
    PairSecret,
    PowerAllocation,
    SecrecySweep,
    aggregate_noise_stats,
    all_local_gradients,
    awgn,
    centralized_gd,
    clip_gradient,
    compute_alignment,
    convergence_bound,
    db_to_linear,
    draw_link,
    draw_noise,
    draw_pcran,
    draw_secrets,
    form_pairs,
    global_loss,
    make_task,
    monte_carlo_secrecy,
    optimize_beta_dp,
    plan_link,
    sample_channel,
    sample_gains,
    secrecy_point,
    simulate_aggregation_rounds,
    simulate_round,
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
    "positive_fraction": NOT_FINITE + [-1.0, 0.0, 1.5],
    "open_unit_interval": NOT_FINITE + [-1.0, 0.0, 1.0, 1.5],
    "count": NOT_FINITE + [-1, 2.5],
}
# a value each rule accepts, given inside a list where a number is expected
GOOD = {"finite": 0.5, "decibels": 0.5, "nonnegative": 0.5, "positive": 0.5,
        "unit_interval": 0.5, "positive_fraction": 0.5, "open_unit_interval": 0.5,
        "count": 2}
# exported names with no numeric parameter of their own: records that the
# entry points below check or return, and functions of data arrays; and
# draw_noise, which runs once per batch of a training run and takes
# its counts from checked settings, so it checks nothing
EXEMPT = {
    "LinkPlan", "NoiseStats", "SecrecyPoint", "TrainState",
    "PowerAllocation", "BoundInputs", "optimal_model",
    "simulate_round", "draw_noise",
}


def rng():
    return np.random.default_rng(0)


def per_user(value):
    return np.full(2, value) if isinstance(value, bool) else np.array([1.0, value])


H2 = np.array([1.0, 4.0])
M, ALPHA = compute_alignment(H2, np.ones(2), 1.0, alpha_cap=0.5)
ALLOC = PowerAllocation(P=np.ones(2), alpha=ALPHA, beta=np.full(2, 0.5), m=M, L_s=1.0)
PAIRING = ((0, 1),)
SECRETS = [PairSecret(1.0, 1.0, 1.0)]
PLAN = plan_link(H2, ALLOC, PAIRING, SECRETS, 1.0)
TASK = make_task(2, 3, 2, 0.1, rng())


def plan(h2=H2, sigma_z2=1.0, **alloc):
    return plan_link(h2, replace(ALLOC, **alloc), PAIRING, SECRETS, sigma_z2)


def stats(h2=H2, P=ALLOC.P, beta=ALLOC.beta, m=M, sigma_z2=1.0):
    return aggregate_noise_stats(SECRETS, h2, P, beta, m, sigma_z2)


def rounds(gradients):
    return simulate_aggregation_rounds(gradients, H2, ALLOC, PAIRING, SECRETS, 1.0, 2, rng())


def one_round(gradients, noise=None):
    return simulate_round(gradients, PLAN,
                          draw_noise(PLAN, 1, 2, rng())[0] if noise is None else noise)


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
    return secrecy_point(**{**base, **kw})


def sweep(**kw):
    return SecrecySweep(**{"alpha_grid": (0.5,), "power_db_grid": (30.0,), **kw})


def train(T=3, **settings):
    return train_over_air(TASK, ChannelConfig(), rng(), T=T, **settings)


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
    ("ChannelConfig", lambda fixed_gains: ChannelConfig(fixed_gains=fixed_gains),
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
     {"h2": "nonnegative", "P": "positive", "L_s": "positive", "alpha_cap": "positive_fraction"},
     ("h2", "P"), ()),
    ("optimize_beta_dp", beta_dp,
     {"h2": "positive", "P": "positive", "eps": "positive", "delta": "open_unit_interval",
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
    ("SyntheticTask", lambda reg_lambda: replace(TASK, reg_lambda=reg_lambda),
     {"reg_lambda": "positive"}, (), ()),
    ("global_loss", lambda w: global_loss(w, TASK), {"w": "finite"}, ("w",), ()),
    ("all_local_gradients", lambda w: all_local_gradients(w, TASK), {"w": "finite"}, ("w",), ()),
    ("convergence_bound", bound,
     {"mu": "positive", "lam": "positive", "T": "count", "L_s": "positive", "d": "count",
      "m": "positive", "K": "count", "noise_power_sum": "nonnegative",
      "sigma_z2": "nonnegative"}, (), ()),
    ("train_over_air", train,
     {"T": "count", "L_s": "positive", "power": "positive", "alpha_cap": "positive_fraction",
      "beta": "unit_interval"}, (), ()),
    ("centralized_gd", lambda T=3, L_s=1.0: centralized_gd(TASK, T=T, L_s=L_s),
     {"T": "count", "L_s": "positive"}, (), ()),
    ("draw_link", link,
     {"K": "count", "power": "positive", "L_s": "positive", "alpha_cap": "positive_fraction",
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
     {"users": "count", "alpha": "positive_fraction", "beta": "unit_interval"}, (), ()),
    ("config-noise-check", config("noise-check"),
     {"users": "count", "alpha": "positive_fraction", "beta": "unit_interval"}, (), ()),
    ("config-fig5-splits", lambda alpha=0.5, beta=0.5: config("fig5")(splits=[[alpha, beta]]),
     {"alpha": "positive_fraction", "beta": "unit_interval"}, (), ()),
]
# the name a message gives a parameter, where it is not the parameter's own
NAMED = {("config-fig3", "alpha_grid"): "alpha", ("aggregate_noise_stats", "m"): "constant m",
         ("plan_link", "m"): "constant m", ("config-fig5-splits", "alpha"): "splits alpha",
         ("config-fig5-splits", "beta"): "splits beta"}


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
    with pytest.raises(error, match=rf"(^|\W){named} must be"):
        call(**{name: value})


@pytest.mark.parametrize("call, match", [
    # inputs the tables do not build: a negative h2 and P whose product is
    # positive, a wrong-length alpha (numpy's broadcast error), products that
    # overflow (numpy's overflow warning came first), a ragged list and
    # per-user arrays of the wrong length
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
    # per-user arrays that do not fit the pairing: an unpaired third gain set
    # the common noise gain (M = 0.0354 where the pair alone gives 0.354),
    # and unequal lengths raised numpy's unnamed broadcast error
    (lambda: stats(h2=np.array([1.0, 2.0, 0.01]), P=np.ones(3), beta=np.full(3, 0.5)),
     r"^h2, P and beta need one entry per paired user \(2\), got 3, 3 and 3 entries$"),
    (lambda: stats(h2=np.array([1.0, 2.0, 0.01])),
     r"^h2, P and beta need one entry per paired user \(2\), got 3, 2 and 2 entries$"),
    (lambda: stats(P=np.ones(3)), r"got 2, 3 and 2 entries$"),
    (lambda: stats(beta=np.full(1, 0.5)), r"got 2, 2 and 1 entries$"),
    (lambda: stats(P=1.0, beta=0.5), r"got 2, 1 and 1 entries$"),
    (lambda: plan(P=np.ones(3)), r"^h2, P and beta need one entry per paired user"),
    # a one-entry alpha broadcast to every user, unequal signal amplitudes
    (lambda: plan(alpha=np.array([0.9])), r"^alpha needs one entry per user \(2\), got 1$"),
    (lambda: plan(alpha=np.full(3, 0.5)), r"^alpha needs one entry per user \(2\), got 3$"),
    (lambda: compute_alignment(np.ones(3), np.ones(2), 1.0),
     r"^h2 and P need one entry per user, got 3 and 2 entries$"),
    (lambda: compute_alignment(np.ones(2), np.ones(3), 1.0),
     r"^h2 and P need one entry per user, got 2 and 3 entries$"),
    # gradient arrays that do not fit the link: d = 0 divided by zero, a 1-D
    # array failed to unpack and a short one raised numpy's matmul error
    (lambda: rounds(np.zeros((2, 0))),
     r"^gradients must have shape \(K, d\) with K = 2, d >= 1, got \(2, 0\)$"),
    (lambda: rounds(np.zeros(2)), r"^gradients must have shape .*, got \(2,\)$"),
    (lambda: rounds(np.zeros((3, 1))), r"^gradients must have shape .*, got \(3, 1\)$"),
    # gradients the clip cannot scale to norm L_s: NaN came back as NaN, inf
    # as NaN, and a squared norm that overflows clipped [1e200, 0] to [0, 0]
    (lambda: clip_gradient(np.array([math.nan, 0.0]), 1.0), r"^gradient must be a finite value"),
    (lambda: clip_gradient(np.array([math.inf, 0.0]), 1.0), r"^gradient must be a finite value"),
    (lambda: clip_gradient(np.array([[1.0, 0.0], [0.0, -math.inf]]), 1.0),
     r"^gradient must be a finite value"),
    (lambda: clip_gradient(np.array([1e200, 0.0]), 1.0),
     r"^squared norm of gradient must be a finite value, got array\(inf\)$"),
    (lambda: rounds(np.array([[1.0, 0.0], [1e200, 0.0]])),
     r"^squared norm of gradient must be a finite value, got array\(\[ *1\., inf\]\)$"),
    # (labels so large that each user's gradient sum overflows to -inf; the
    # task itself rejects a NaN label)
    (lambda: centralized_gd(replace(TASK, U=np.ones((2, 3, 2)), V=np.full((2, 3), 1e308)),
                            T=1),
     r"^gradient must be a finite value, got array\(\[\[-inf, -inf\], \[-inf, -inf\]\]\)$"),
    # the one-shot round clipped without clip_gradient's checks: NaN came
    # back as s_hat = [nan, nan], [1e200, 0] warned of an overflow in matmul
    # and was clipped to 0, and a nested list failed on its missing .ndim
    (lambda: one_round(np.array([[math.nan, 0.0], [0.0, 0.0]])),
     r"^gradient must be a finite value"),
    (lambda: one_round(np.array([[1e200, 0.0], [0.0, 0.0]])),
     r"^squared norm of gradient must be a finite value, got array\(\[inf, +0\.\]\)$"),
    (lambda: one_round([[1.0, 0.0], [0.0, math.inf]]), r"^gradient must be a finite value"),
    # empty or shapeless arrays that reached numpy: no pair secrets
    # divided by zero users, empty per-user arrays reduced a zero-size
    # array, a number for a gradient failed to index, and a model of the
    # wrong length raised numpy's matmul error
    (lambda: aggregate_noise_stats([], [], [], [], 1.0, 1.0), r"^no pair secrets"),
    (lambda: optimize_beta_dp(*[np.zeros(0)] * 3, 0.1, 1.0, *[np.zeros(0)] * 2),
     r"^h2, P, eps, caps and alpha need one entry per user \(at least one\), got shapes "
     r"\[\(0,\), \(0,\), \(0,\), \(0,\), \(0,\)\]$"),
    (lambda: clip_gradient(3.0, 1.0),
     r"^gradient must be an array of at least one axis, got array\(3\.\)$"),
    (lambda: global_loss(np.ones(3), TASK),
     r"^w needs one entry per feature \(d = 2\), got shape \(3,\)$"),
    (lambda: all_local_gradients(np.ones(1), TASK),
     r"^w needs one entry per feature \(d = 2\), got shape \(1,\)$"),
    # the one-shot round's noise: a list failed on its missing .shape, and
    # NaN noise came back as s_hat = [nan, nan]
    (lambda: one_round(np.zeros((2, 2)), [[0.0, 0.0]] * 3),
     r"^noise must be a float64 array, got <class 'list'>$"),
    (lambda: one_round(np.zeros((2, 2)), np.full((3, 2), math.nan)),
     r"^noise must be a finite value, got array\(\[\[nan, nan\], "),
    # a ragged gradient nesting raised numpy's unnamed "setting an array
    # element with a sequence"
    (lambda: clip_gradient([[1.0], [1.0, 2.0]], 1.0),
     r"^gradient must be a finite value, got \[\[1\.0\], \[1\.0, 2\.0\]\]$"),
    (lambda: one_round([[1.0], [1.0, 2.0]]),
     r"^gradient must be a finite value, got \[\[1\.0\], \[1\.0, 2\.0\]\]$"),
    # make_task added reg_lambda to a numpy float before the task checked it:
    # a string raised numpy's UFuncTypeError and None a bare TypeError; and
    # the task's smoothness came out NaN for non-finite data
    (lambda: make_task(2, 3, 3, "x", rng()),
     r"^reg_lambda must be a finite positive value, got 'x'$"),
    (lambda: make_task(2, 3, 3, None, rng()),
     r"^reg_lambda must be a finite positive value, got None$"),
    (lambda: replace(TASK, U=np.full((2, 3, 2), math.nan)), r"^U must be a finite value"),
    (lambda: replace(TASK, V=np.full((2, 3), -math.inf)), r"^V must be a finite value"),
    (lambda: replace(TASK, U=np.zeros((2, 0, 2)), V=np.zeros((2, 0))),
     r"^V must have shape U\.shape\[:2\] for U of shape \(K, n, d\), K, n, d >= 1, "
     r"got U \(2, 0, 2\) and V \(2, 0\)$"),
    # data given as nested lists: a list U failed on its missing .shape, and a
    # list V was accepted until the loss, the reference or the training loop
    # read its .size or its reshape
    (lambda: replace(TASK, U=TASK.U.tolist()), r"^U must be a numpy array, got <class 'list'>$"),
    (lambda: replace(TASK, V=TASK.V.tolist()), r"^V must be a numpy array, got <class 'list'>$"),
], ids=["negative-h2-and-P", "alpha-length", "alignment-overflow", "beta-dp-overflow",
        "ragged-list", "long-array", "stats-unpaired-user", "stats-h2-length",
        "stats-P-length", "stats-beta-length", "stats-scalars", "plan-P-length",
        "plan-alpha-one-entry", "plan-alpha-length",
        "alignment-h2-length", "alignment-P-length",
        "rounds-no-dimensions", "rounds-1d", "rounds-short", "clip-nan", "clip-inf",
        "clip-minus-inf", "clip-norm-overflow", "rounds-norm-overflow", "centralized-nan",
        "round-nan", "round-norm-overflow", "round-nested-list", "stats-no-pairs",
        "beta-dp-empty", "clip-number", "loss-w-length", "gradients-w-length",
        "round-noise-list", "round-noise-nan", "clip-ragged", "round-ragged",
        "task-lambda-string", "task-lambda-none", "task-nan-U", "task-inf-V", "task-empty",
        "task-list-U", "task-list-V"])
def test_reported_input_is_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_fixed_gains_set_the_fixed_mode():
    # fixed_gains were ignored, and Rayleigh gains drawn, in rayleigh mode;
    # now the gains decide the mode
    config = ChannelConfig(fixed_gains=(4.0, 9.0))
    assert config.fading_mode == "fixed" and ChannelConfig().fading_mode == "rayleigh"
    assert np.array_equal(sample_channel(config, 2, rng()), [4.0, 9.0])
    with pytest.raises(AttributeError):
        config.fading_mode = "rayleigh"


def test_table_covers_every_public_entry_point():
    exported = {name for name in dir(airfl) if not name.startswith("_")
                and callable(getattr(airfl, name))}
    covered = {entry for entry, *_ in TABLE if not entry.startswith("config")}
    assert covered | EXEMPT == exported
    assert not covered & EXEMPT
