"""Experiment orchestration: config ingestion, sweep runners, CSV output.

Each experiment is a pure function of (config, seed): reruns with the same
config emit byte-identical CSV files.
"""
from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, fields, replace

import numpy as np

from .aircomp import simulate_aggregation_rounds
from .channel import ChannelConfig, db_to_linear, sample_channel
from .fl_core import (
    TrainSettings,
    convergence_bound,
    make_task,
    train_over_air,
)
from .pcran import (
    PowerAllocation,
    aggregate_noise_stats,
    compute_alignment,
    draw_secrets,
    equalized_gain,
    form_pairs,
    noise_gains,
)
from .secrecy import SecrecySweep, monte_carlo_secrecy

EXPERIMENTS = ("fig3", "fig4", "fig5", "train", "noise-check")


class ConfigError(ValueError):
    """Raised when an experiment configuration is missing or malformed."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated configuration for one experiment run.

    Defaults follow the reference operating point: unit channel noise,
    unit gradient-norm bound, artificial-noise power 25 dB, transmit power
    30 dB, d = 30, T = 1000, reg_lambda = 1e-3.
    """

    experiment: str
    seed: int = 0
    samples: int = 100_000
    users: int = 2
    powers_db: tuple[float, ...] = (25.0, 30.0)
    alpha_grid: tuple[float, ...] = tuple(
        float(a) for a in np.round(np.arange(0.0, 0.501, 0.05), 2)
    )
    alpha: float = 0.5
    beta: float = 0.5
    splits: tuple[tuple[float, float], ...] = ((0.5, 0.5), (0.3, 0.7))
    k_grid: tuple[int, ...] = (2, 10, 20)
    n_seeds: int = 5
    sigma_a2_db: float = 25.0
    sigma_A2_db_grid: tuple[float, ...] = (0.0,)
    delta_h_values: tuple[float, ...] = (0.0, 1.0)
    sigma_z2: float = 1.0
    L_s: float = 1.0
    d: int = 30
    T: int = 1000
    reg_lambda: float = 1e-3
    n_per_user: int = 20
    out: str | None = None

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENTS}"
            )
        for name in ("seed", "users", "samples", "n_seeds", "d", "T", "n_per_user"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < 1 and name not in ("seed", "users"):
                raise ConfigError(f"{name} must be at least 1")
        unit = ("a finite value in [0, 1]", lambda v: 0 <= v <= 1)
        positive = ("a finite positive value", lambda v: v > 0)
        nonnegative = ("a finite nonnegative value", lambda v: v >= 0)
        finite = ("a finite value", lambda v: True)
        reals = (
            # power fractions: fig3/fig4 sweep alpha, train/fig5 cap it; beta is the noise share
            ("alpha", (self.alpha, *self.alpha_grid, *(a for a, _ in self.splits)), unit),
            ("beta", (self.beta, *(b for _, b in self.splits)), unit),
            ("L_s", (self.L_s,), positive),
            ("sigma_z2", (self.sigma_z2,), nonnegative),
            ("delta_h_values", self.delta_h_values, nonnegative),
            ("powers_db", self.powers_db, finite),
            ("sigma_a2_db", (self.sigma_a2_db,), finite),
            ("sigma_A2_db_grid", self.sigma_A2_db_grid, finite),
        )
        for name, values, (requirement, in_range) in reals:
            for value in values:
                if (isinstance(value, bool) or not isinstance(value, (int, float, np.number))
                        or not np.isfinite(value) or not in_range(value)):
                    raise ConfigError(f"{name} must be {requirement}, got {value!r}")
        if self.experiment in ("train", "fig5", "noise-check") and self.users % 2 != 0:
            raise ConfigError(
                f"odd user count K={self.users} is unsupported by the pairwise scheme"
            )
        if self.experiment == "fig5" and any(k % 2 for k in self.k_grid):
            raise ConfigError("every K in k_grid must be even")
        if not (self.alpha_grid and self.powers_db and self.sigma_A2_db_grid
                and self.delta_h_values):
            raise ConfigError("sweep grids must be nonempty")


_EXPERIMENT_DEFAULTS: dict[str, dict] = {
    "fig4": {
        "powers_db": (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
        "sigma_A2_db_grid": (0.0, 5.0, 10.0, 15.0, 20.0),
        "delta_h_values": (1.0,),
    },
    "fig5": {"powers_db": (30.0,)},
    "train": {"powers_db": (30.0,)},
}


def load_config(path: str) -> ExperimentConfig:
    """Read and validate a JSON experiment config, rejecting unknown keys."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> ExperimentConfig:
    if "experiment" not in raw:
        raise ConfigError("config must name an experiment")
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    merged = dict(_EXPERIMENT_DEFAULTS.get(raw["experiment"], {}))
    merged.update(raw)
    for key in ("powers_db", "alpha_grid", "sigma_A2_db_grid", "delta_h_values", "k_grid"):
        if key in merged:
            merged[key] = tuple(merged[key])
    if "splits" in merged:
        merged["splits"] = tuple((a, b) for a, b in merged["splits"])
    return ExperimentConfig(**merged)


def run_experiment(config: ExperimentConfig) -> tuple[list[str], list[tuple]]:
    """Dispatch to the experiment runner; returns (header, rows)."""
    runner = {
        "fig3": _run_fig3,
        "fig4": _run_fig4,
        "fig5": _run_fig5,
        "train": _run_train,
        "noise-check": _run_noise_check,
    }[config.experiment]
    header, rows = runner(config)
    if config.out:
        write_csv(config.out, header, rows)
    return header, rows


def write_csv(path: str, header: list[str], rows: list[tuple]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row]
            )


def _run_fig3(config: ExperimentConfig) -> tuple[list[str], list[tuple]]:
    """Secrecy capacity vs the signal power coefficient alpha."""
    sweep = SecrecySweep(
        alpha_grid=config.alpha_grid,
        power_db_grid=config.powers_db,
        delta_h_grid=config.delta_h_values,
        sigma_A2_db_grid=(config.sigma_A2_db_grid[0],),
        sigma_a2_db=config.sigma_a2_db,
        sigma_z2=config.sigma_z2,
        L_s=config.L_s,
    )
    results = monte_carlo_secrecy(sweep, config.samples, config.seed)
    rows = [(r.alpha, r.power_db, r.delta_h, r.mean_c) for r in results]
    return ["alpha", "p_db", "delta_h", "mean_c"], rows


def _run_fig4(config: ExperimentConfig) -> tuple[list[str], list[tuple]]:
    """Secrecy capacity vs transmit power and residual-noise variance."""
    sweep = SecrecySweep(
        alpha_grid=(config.alpha,),
        power_db_grid=config.powers_db,
        delta_h_grid=(config.delta_h_values[0],),
        sigma_A2_db_grid=config.sigma_A2_db_grid,
        sigma_a2_db=config.sigma_a2_db,
        sigma_z2=config.sigma_z2,
        L_s=config.L_s,
    )
    results = monte_carlo_secrecy(sweep, config.samples, config.seed)
    rows = [(r.power_db, r.sigma_A2_db, r.mean_c) for r in results]
    return ["p_db", "sigma_A2_db", "mean_c"], rows


def _train_once(config: ExperimentConfig, K: int, alpha_cap: float, beta: float,
                seed_key: tuple[int, ...]):
    task_rng = np.random.default_rng([config.seed, 17])
    task = make_task(K, config.n_per_user, config.d, config.reg_lambda, task_rng)
    settings = TrainSettings(
        T=config.T,
        L_s=config.L_s,
        power=db_to_linear(config.powers_db[0]),
        alpha_cap=alpha_cap,
        beta=beta,
    )
    chan = ChannelConfig(fading_mode="rayleigh", sigma_z2=config.sigma_z2)
    rng = np.random.default_rng(list(seed_key))
    return train_over_air(task, chan, settings, rng)


def _run_fig5(config: ExperimentConfig) -> tuple[list[str], list[tuple]]:
    """Convergence bound and simulated loss vs iteration, users, and beta."""
    rows = []
    for K in config.k_grid:
        for alpha_cap, beta in config.splits:
            losses = np.zeros(config.T)
            bound_terms = np.zeros(config.T)
            for s in range(config.n_seeds):
                state, binp = _train_once(
                    config, K, alpha_cap, beta, (config.seed, K, int(beta * 100), s)
                )
                losses += np.asarray(state.loss_history)
                t = np.arange(1, config.T + 1)
                bound_terms += convergence_bound(replace(binp, T=1)) / t
            losses /= config.n_seeds
            bound_terms /= config.n_seeds
            for t in range(1, config.T + 1):
                rows.append((t, K, beta, float(bound_terms[t - 1]), float(losses[t - 1])))
    return ["t", "K", "beta", "bound", "simulated_loss"], rows


def _run_train(config: ExperimentConfig) -> tuple[list[str], list[tuple]]:
    """Single federated training run over the simulated channel."""
    state, binp = _train_once(
        config, config.users, config.alpha, config.beta, (config.seed, 1)
    )
    rows = [
        (t + 1, float(state.loss_history[t]), float(state.gap_history[t]))
        for t in range(config.T)
    ]
    return ["t", "loss", "gap"], rows


def _run_noise_check(config: ExperimentConfig) -> tuple[list[str], list[tuple]]:
    """Empirical cancellation check of the aggregated artificial noise."""
    rng = np.random.default_rng([config.seed, 29])
    K = config.users
    chan = ChannelConfig(fading_mode="rayleigh", sigma_z2=config.sigma_z2)
    realization = sample_channel(chan, K, rng)
    P = np.full(K, db_to_linear(config.powers_db[0]))
    m, alpha = compute_alignment(realization.h2, P, config.L_s, alpha_cap=config.alpha)
    beta = np.minimum(np.full(K, config.beta), 1.0 - alpha)
    alloc = PowerAllocation(P=P, alpha=alpha, beta=beta, m=m, L_s=config.L_s)
    pairing = form_pairs(K, rng)
    secrets = draw_secrets(K // 2, (0.5, 1.5), (1.0, 1.0), rng)
    stats = aggregate_noise_stats(
        pairing, secrets, realization.h2, P, beta, m, config.sigma_z2
    )
    gradients = np.zeros((K, 1))
    s_hat = simulate_aggregation_rounds(
        gradients, realization, alloc, pairing, secrets,
        config.sigma_z2, config.samples, rng,
    )
    noise = s_hat[:, 0]
    # exact per-coordinate variance of the residual under pre-equalization
    c = equalized_gain(noise_gains(realization.h2, P, beta))
    exact_var = (c**2 * stats.sigma_A2 + config.sigma_z2) / (m * K) ** 2
    stderr = np.sqrt(exact_var / config.samples)
    rows = [
        ("empirical_mean", float(noise.mean())),
        ("mean_stderr", float(stderr)),
        ("empirical_var", float(noise.var())),
        ("predicted_var", float(exact_var)),
        ("sigma_A2", float(stats.sigma_A2)),
        ("sigma_zprime2", float(stats.sigma_zprime2)),
    ]
    return ["stat", "value"], rows
