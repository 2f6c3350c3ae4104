"""Experiment orchestration: config ingestion, one schema per experiment, CSV output.

Each experiment is defined once, as a frozen schema class: its fields are the
experiment's config keys, checked on construction, and its `run()` returns the
CSV header and rows.  A run is a pure function of (config, seed): reruns with
the same config emit byte-identical CSV files.
"""
from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, fields, replace
from itertools import product
from typing import ClassVar

import numpy as np

from ._checks import (count, decibels, finite, nonnegative, positive, positive_fraction,
                      unit_interval)
from .aircomp import simulate_aggregation_rounds
from .channel import ChannelConfig, db_to_linear
from .channel import sample_channel  # noqa: F401 -- unused; bench/spans.py wraps it
from .fl_core import (
    convergence_bound,
    draw_link,
    make_task,
    train_over_air,
)
from .pcran import (
    aggregate_noise_stats,
    compute_alignment,  # noqa: F401 -- unused; bench/spans.py wraps it
    draw_secrets,  # noqa: F401 -- unused; bench/spans.py wraps it
    equalized_gain,  # noqa: F401 -- unused; bench/spans.py wraps it
    form_pairs,  # noqa: F401 -- unused; bench/spans.py wraps it
    noise_gains,  # noqa: F401 -- unused; bench/spans.py wraps it
)
from .secrecy import SecrecySweep, monte_carlo_secrecy


class ConfigError(ValueError):
    """Raised when an experiment configuration is missing or malformed."""


def _user_count(name, value):
    if count(name, value, 2) % 2:
        raise ConfigError(
            f"{name}: odd user count K={value} is unsupported by the pairwise scheme"
        )
    return value


def _grid(entry, label: str | None = None):
    """A nonempty list checked entry by entry (named `label`), kept as a tuple."""
    def check(name, value):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        if not value:
            raise ConfigError(f"sweep grids must be nonempty, but {name} is empty")
        return tuple(entry(label or name, v) for v in value)
    return check


def _path(name, value):
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"{name} must be a path string, got {value!r}")
    return value


def _split(name, value):
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(
            f"each {name} entry must be an [alpha_cap, beta] pair, got {value!r}"
        )
    return positive_fraction(f"{name} alpha", value[0]), unit_interval(f"{name} beta", value[1])


def _splits(name, value):
    splits = _grid(_split)(name, value)
    betas = [beta for _, beta in splits]
    if len(set(betas)) != len(betas):
        raise ConfigError(
            f"{name} repeat a beta in {betas}; fig5 rows keyed by (t, K, beta) would collide"
        )
    return splits


# One rule per config field: (field name, value) -> the value to store.
_RULES = {
    "seed": lambda name, value: count(name, value, 0),
    "out": _path,
    "samples": count,
    "n_seeds": count,
    "d": count,
    "T": count,
    "n_per_user": count,
    "users": _user_count,
    "k_grid": _grid(_user_count),
    "splits": _splits,
    "alpha": positive_fraction,  # the alignment's alpha_cap; fig4 replaces it
    "beta": unit_interval,
    "alpha_grid": _grid(unit_interval, "alpha"),
    "powers_db": _grid(decibels),
    "sigma_A2_db_grid": _grid(decibels),
    "sigma_a2_db": decibels,
    "delta_h_values": _grid(nonnegative),
    "sigma_z2": nonnegative,
    "L_s": positive,
    "reg_lambda": positive,
}


@dataclass(frozen=True)
class _Config:
    """Fields every experiment reads; each field is checked by its _RULES entry,
    whose ValueError is raised as a ConfigError.

    Defaults follow the reference operating point: unit channel noise, unit
    gradient-norm bound, transmit power 30 dB.  A field named in `one_entry`
    is a list the runner reads only at [0], so it must hold exactly one entry.
    """

    experiment: ClassVar[str]
    one_entry: ClassVar[tuple[str, ...]] = ()
    rules: ClassVar[dict] = {}  # {field name: the rule checking it in place of _RULES'}

    seed: int = 0
    out: str | None = None
    powers_db: tuple[float, ...] = (30.0,)
    sigma_z2: float = 1.0
    L_s: float = 1.0

    def __post_init__(self) -> None:
        for f in fields(self):
            try:
                value = self.rules.get(f.name, _RULES[f.name])(f.name, getattr(self, f.name))
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
            if f.name in self.one_entry and len(value) != 1:
                raise ConfigError(
                    f"{self.experiment} reads one {f.name} entry, got {len(value)}"
                )
            object.__setattr__(self, f.name, value)


@dataclass(frozen=True)
class _Secrecy(_Config):
    """The secrecy sweeps; artificial-noise power 25 dB.

    `columns` maps each CSV header before the closing `mean_c` to the axis of
    the sweep grid it holds: 0 alpha, 1 power, 2 delta_h, 3 sigma_A2.
    """

    columns: ClassVar[dict[str, int]]

    samples: int = 100_000
    sigma_a2_db: float = 25.0
    sigma_A2_db_grid: tuple[float, ...] = (0.0,)
    delta_h_values: tuple[float, ...] = (0.0, 1.0)

    def run(self) -> tuple[list[str], list[tuple]]:
        """Mean secrecy capacity at every point of the schema's four grids."""
        grids = (self.alpha_grid, self.powers_db, self.delta_h_values, self.sigma_A2_db_grid)
        sweep = SecrecySweep(*grids, sigma_a2_db=self.sigma_a2_db, sigma_z2=self.sigma_z2,
                             L_s=self.L_s)
        means = monte_carlo_secrecy(sweep, self.samples, self.seed)
        axes = self.columns.values()
        # the sweep keeps the grids' values, and means.flat runs in product order
        rows = [tuple(coord[axis] for axis in axes) + (float(mean),)
                for coord, mean in zip(product(*grids), means.flat)]
        return [*self.columns, "mean_c"], rows


@dataclass(frozen=True)
class Fig3Config(_Secrecy):
    """Secrecy capacity vs alpha at one residual-noise level."""

    experiment: ClassVar[str] = "fig3"
    one_entry: ClassVar[tuple[str, ...]] = ("sigma_A2_db_grid",)
    columns: ClassVar[dict[str, int]] = {"alpha": 0, "p_db": 1, "delta_h": 2}

    powers_db: tuple[float, ...] = (25.0, 30.0)
    alpha_grid: tuple[float, ...] = tuple(
        float(a) for a in np.round(np.arange(0.0, 0.501, 0.05), 2)
    )


@dataclass(frozen=True)
class Fig4Config(_Secrecy):
    """Secrecy capacity vs transmit power and residual noise at one gap."""

    experiment: ClassVar[str] = "fig4"
    one_entry: ClassVar[tuple[str, ...]] = ("delta_h_values",)
    rules: ClassVar[dict] = {"alpha": unit_interval}  # alpha = 0 is S = 0, no signal
    columns: ClassVar[dict[str, int]] = {"p_db": 1, "sigma_A2_db": 3}

    powers_db: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    sigma_A2_db_grid: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0)
    delta_h_values: tuple[float, ...] = (1.0,)
    alpha: float = 0.5

    @property
    def alpha_grid(self) -> tuple[float, ...]:
        # a property, not a field: fig4 takes one `alpha`, never an alpha_grid key
        return (self.alpha,)


@dataclass(frozen=True)
class _Training(_Config):
    """The ridge task and schedule of a training run: d = 30, T = 1000."""

    one_entry: ClassVar[tuple[str, ...]] = ("powers_db",)

    d: int = 30
    T: int = 1000
    reg_lambda: float = 1e-3
    n_per_user: int = 20

    def _train_once(self, K: int, alpha_cap: float, beta: float,
                    seed_key: tuple[int, ...]):
        task_rng = np.random.default_rng([self.seed, 17])
        task = make_task(K, self.n_per_user, self.d, self.reg_lambda, task_rng)
        chan = ChannelConfig(sigma_z2=self.sigma_z2)
        rng = np.random.default_rng(list(seed_key))
        return train_over_air(task, chan, rng, T=self.T, L_s=self.L_s,
                              power=db_to_linear(self.powers_db[0]),
                              alpha_cap=alpha_cap, beta=beta)


@dataclass(frozen=True)
class Fig5Config(_Training):
    """Convergence sweep over user counts and (alpha cap, beta) splits."""

    experiment: ClassVar[str] = "fig5"

    k_grid: tuple[int, ...] = (2, 10, 20)
    splits: tuple[tuple[float, float], ...] = ((0.5, 0.5), (0.3, 0.7))
    n_seeds: int = 5

    def run(self) -> tuple[list[str], list[tuple]]:
        """Convergence bound and simulated loss vs iteration, users, and beta."""
        rows = []
        steps = np.arange(1, self.T + 1)
        for K in self.k_grid:
            for alpha_cap, beta in self.splits:
                losses = np.zeros(self.T)
                bound_terms = np.zeros(self.T)
                for s in range(self.n_seeds):
                    state, binp = self._train_once(
                        K, alpha_cap, beta, (self.seed, K, int(beta * 100), s)
                    )
                    losses += np.asarray(state.loss_history)
                    bound_terms += convergence_bound(replace(binp, T=1)) / steps
                losses /= self.n_seeds
                bound_terms /= self.n_seeds
                rows += [(t + 1, K, beta, bound, loss) for t, (bound, loss)
                         in enumerate(zip(bound_terms.tolist(), losses.tolist()))]
        return ["t", "K", "beta", "bound", "simulated_loss"], rows


@dataclass(frozen=True)
class TrainConfig(_Training):
    """One training run."""

    experiment: ClassVar[str] = "train"

    users: int = 2
    alpha: float = 0.5
    beta: float = 0.5

    def run(self) -> tuple[list[str], list[tuple]]:
        """Single federated training run over the simulated channel."""
        state, _ = self._train_once(self.users, self.alpha, self.beta, (self.seed, 1))
        rows = list(zip(range(1, self.T + 1), state.loss_history, state.gap_history))
        return ["t", "loss", "gap"], rows


@dataclass(frozen=True)
class NoiseCheckConfig(_Config):
    """Monte Carlo check that the aggregated artificial noise cancels."""

    experiment: ClassVar[str] = "noise-check"
    one_entry: ClassVar[tuple[str, ...]] = ("powers_db",)

    powers_db: tuple[float, ...] = (25.0,)
    samples: int = 100_000
    users: int = 2
    alpha: float = 0.5
    beta: float = 0.5

    def run(self) -> tuple[list[str], list[tuple]]:
        """Empirical cancellation check of the aggregated artificial noise."""
        rng = np.random.default_rng([self.seed, 29])
        K, n = self.users, self.samples
        h2, alloc, pairing, secrets = draw_link(
            ChannelConfig(sigma_z2=self.sigma_z2), K, db_to_linear(self.powers_db[0]),
            self.L_s, self.alpha, self.beta, rng,
        )
        stats = aggregate_noise_stats(
            pairing, secrets, h2, alloc.P, alloc.beta, alloc.m, self.sigma_z2
        )
        s_hat = simulate_aggregation_rounds(
            np.zeros((K, 1)), h2, alloc, pairing, secrets, self.sigma_z2, n, rng,
        )
        noise = s_hat[:, 0]
        # ndarray.var's arithmetic, in place of its n-sized temporary; an
        # overflow leaves a non-finite statistic, which is rejected by name
        with np.errstate(over="ignore", invalid="ignore"):
            mean = noise.mean()
            noise -= mean
            np.multiply(noise, noise, out=noise)
            var = np.add.reduce(noise) / n
        values = [
            ("empirical_mean", mean),
            ("mean_stderr", np.sqrt(stats.estimator_var / n)),
            ("empirical_var", var),
            ("predicted_var", stats.estimator_var),
            ("sigma_A2", stats.sigma_A2),
            ("sigma_zprime2", stats.sigma_zprime2),
        ]
        return ["stat", "value"], [(name, finite(name, float(x))) for name, x in values]


SCHEMAS: dict[str, type[_Config]] = {
    schema.experiment: schema
    for schema in (Fig3Config, Fig4Config, Fig5Config, TrainConfig, NoiseCheckConfig)
}
EXPERIMENTS = tuple(SCHEMAS)


def load_config(path: str) -> _Config:
    """Read and validate a JSON experiment config, rejecting unknown keys."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> _Config:
    """The named experiment's schema, built from the other keys of `raw`."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    if "experiment" not in raw:
        raise ConfigError("config must name an experiment")
    experiment = raw["experiment"]
    schema = SCHEMAS.get(experiment) if isinstance(experiment, str) else None
    if schema is None:
        raise ConfigError(
            f"unknown experiment {experiment!r}; expected one of {EXPERIMENTS}"
        )
    settings = {k: v for k, v in raw.items() if k != "experiment"}
    unknown = set(settings) - {f.name for f in fields(schema)}
    if unknown:
        raise ConfigError(
            f"unknown config keys for {experiment}: {sorted(unknown, key=str)}"
        )
    return schema(**settings)


def run_experiment(config: _Config) -> tuple[list[str], list[tuple]]:
    """Run the configured experiment and write its CSV to `out` if set;
    returns (header, rows)."""
    header, rows = config.run()
    if config.out:
        write_csv(config.out, header, rows)
    return header, rows


def write_csv(path: str, header: list[str], rows: list[tuple]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        # csv writes a float (np.float64 included) as its repr
        writer.writerows(rows)
