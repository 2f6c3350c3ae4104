"""Differential test: every experiment returns the rows of the frozen seed library.

bench/baseline/airfl_seed is a verbatim copy of the library before any
optimization.  For small schema-valid configs drawn by hypothesis, the
current `run_experiment` must return its header and rows exactly, float
for float (bit patterns are compared, so -0.0 and 0.0 differ).  The ranges
stay where both libraries return rows, so any exception fails the test.
"""
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airfl.experiments import config_from_dict, run_experiment

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench" / "baseline"))
import airfl_seed.experiments as seed  # noqa: E402

EXAMPLES = settings(max_examples=25, derandomize=True, database=None, deadline=None)

_seed = st.integers(0, 2**16)
_db = st.floats(-20.0, 40.0)
_frac = st.floats(0.05, 1.0)
_beta = st.floats(0.0, 1.0)
_sigma_z2 = st.one_of(st.just(0.0), st.floats(0.1, 4.0))
_L_s = st.floats(0.25, 4.0)
_users = st.sampled_from([2, 4, 6])


def _grid(values, max_size=3):
    return st.lists(values, min_size=1, max_size=max_size)


def _secrecy(experiment, **keys):
    # past secrecy._BLOCK (32768 samples) the sweep runs in several blocks
    return st.fixed_dictionaries({
        "experiment": st.just(experiment),
        "seed": _seed,
        "samples": st.one_of(st.integers(1, 2000), st.integers(16_385, 40_000)),
        "sigma_a2_db": _db,
        "sigma_z2": st.floats(0.1, 4.0),
        "L_s": _L_s,
        **keys,
    })


def _training(experiment, **keys):
    return st.fixed_dictionaries({
        "experiment": st.just(experiment),
        "seed": _seed,
        "powers_db": _grid(_db, 1),
        # a training batch holds at most 2^13 doubles of a round's noise
        # ((K + 1) d) or residuals (K n), whichever is more: 273 rounds or
        # more at d <= 4 and n <= 5, at most 97 at d >= 28 and 102 at n >= 40,
        # so T past 280 with a wide d or n crosses batch and noise-draw
        # boundaries (fl_core.train_over_air)
        "d": st.one_of(st.integers(1, 4), st.integers(28, 32)),
        "T": st.one_of(st.integers(1, 30), st.integers(280, 300)),
        "reg_lambda": st.floats(1e-3, 1.0),
        "n_per_user": st.one_of(st.integers(1, 5), st.integers(40, 60)),
        "sigma_z2": _sigma_z2,
        "L_s": _L_s,
        **keys,
    })


_splits = st.lists(st.tuples(_frac, _beta).map(list), min_size=1, max_size=2,
                   unique_by=lambda split: split[1])

CONFIGS = {
    "fig3": _secrecy(
        "fig3",
        alpha_grid=_grid(_frac),
        powers_db=_grid(_db, 2),
        delta_h_values=_grid(st.floats(0.0, 3.0), 2),
        sigma_A2_db_grid=_grid(_db, 1),
    ),
    "fig4": _secrecy(
        "fig4",
        alpha=_frac,
        powers_db=_grid(_db),
        sigma_A2_db_grid=_grid(_db),
        delta_h_values=_grid(st.floats(0.0, 3.0), 1),
    ),
    "fig5": _training(
        "fig5",
        k_grid=_grid(_users, 2),
        splits=_splits,
        n_seeds=st.integers(1, 2),
    ),
    "train": _training("train", users=_users, alpha=_frac, beta=_beta),
    # past aircomp._NOISE_BLOCK (16384 rounds at d = 1) the draw runs in
    # several blocks
    "noise-check": st.fixed_dictionaries({
        "experiment": st.just("noise-check"),
        "seed": _seed,
        "samples": st.one_of(st.integers(1, 2000), st.integers(16_385, 40_000)),
        "users": st.sampled_from([2, 4, 20]),
        "alpha": _frac,
        "beta": _beta,
        "powers_db": _grid(_db, 1),
        "sigma_z2": _sigma_z2,
        "L_s": _L_s,
    }),
}


def _bits(rows):
    return [tuple(float(v).hex() if isinstance(v, (float, np.floating)) else v
                  for v in row) for row in rows]


@pytest.mark.parametrize("experiment", list(CONFIGS))
def test_rows_equal_the_seed_library(experiment):
    @EXAMPLES
    @given(CONFIGS[experiment])
    def check(raw):
        header, rows = run_experiment(config_from_dict(raw))
        seed_header, seed_rows = seed.run_experiment(seed.config_from_dict(raw))
        assert header == seed_header
        assert len(rows) == len(seed_rows) > 0
        assert _bits(rows) == _bits(seed_rows)

    check()
