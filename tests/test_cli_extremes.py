"""Fuzz of the CLI at finite extremes: no traceback, no warning, no inf row.

Every numeric config field of every schema is drawn from the finite extremes
its rule accepts: 1e+-300 (and -1e+-300 in dB), +-MAX_DB, subnormals, squares
at the edge of the float range, and 0 where the field allows it; counts stay
small so each run is quick.  Out-of-range values are tests/test_input_rules.py's
cases.  Each config must end in rows that are all finite or in one
`airfl: error:` line.
"""
import contextlib
import io
import json
import math
import warnings
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airfl._checks import MAX_COUNT, MAX_DB
from airfl.cli import main
from airfl.experiments import SCHEMAS

EXAMPLES = settings(max_examples=60, derandomize=True, database=None, deadline=None)

SUBNORMALS = [5e-324, 1.1125369292536007e-308]
# 1e+-155 squares to about 1e+-310: past the largest float or subnormal
EXTREMES = [1e-300, 1e300, 1e-155, 1e155]
# hypothesis favours the first entry of each pool, so it is a plain value
_positive = st.sampled_from([1.0] + EXTREMES + SUBNORMALS)
_nonnegative = st.sampled_from([1.0] + EXTREMES + SUBNORMALS + [0.0])
_unit = st.sampled_from([0.5, 1.0, 1.0 - 2**-53, 1e-300] + SUBNORMALS + [0.0])
_db = st.sampled_from([30.0, MAX_DB, -MAX_DB, 1e-300, -1e-300, 1e-155, -1e300]
                      + SUBNORMALS + [0.0])


def _grid(values):
    return st.lists(values, min_size=1, max_size=2)


FIELDS = {
    "seed": st.sampled_from([0, 7, MAX_COUNT]),
    "samples": st.sampled_from([1, 2, 33]),
    "n_seeds": st.sampled_from([1, 2]),
    "d": st.sampled_from([1, 2]),
    "T": st.sampled_from([1, 3]),
    "n_per_user": st.sampled_from([1, 2]),
    "users": st.sampled_from([2, 4]),
    "k_grid": _grid(st.sampled_from([2, 4])),
    "splits": st.lists(st.tuples(_unit, _unit).map(list), min_size=1, max_size=2,
                       unique_by=lambda split: split[1]),
    "alpha": _unit,
    "beta": _unit,
    "alpha_grid": _grid(_unit),
    "powers_db": _grid(_db),
    "sigma_A2_db_grid": _grid(_db),
    "sigma_a2_db": _db,
    "delta_h_values": _grid(_nonnegative),
    "sigma_z2": _nonnegative,
    "L_s": _positive,
    "reg_lambda": _positive,
}


def configs(schema):
    # every field but the output path is drawn, so no large default applies;
    # a list the schema reads only at [0] gets one entry
    names = [f.name for f in fields(schema) if f.name != "out"]
    return st.fixed_dictionaries({
        name: FIELDS[name].map(lambda v: v[:1]) if name in schema.one_entry else FIELDS[name]
        for name in names})


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("extremes") / "config.json"


def test_every_field_is_drawn():
    drawn = {f.name for schema in SCHEMAS.values() for f in fields(schema)} - {"out"}
    assert drawn == set(FIELDS)


@pytest.mark.parametrize("experiment", list(SCHEMAS))
def test_extreme_config_is_rows_or_one_error_line(experiment, config_path):
    @EXAMPLES
    @given(configs(SCHEMAS[experiment]))
    def run(raw):
        config_path.write_text(json.dumps({"experiment": experiment, **raw}))
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main([experiment, "--config", str(config_path)])
        if code == 1:
            assert out.getvalue() == ""
            (line,) = err.getvalue().splitlines()
            assert line.startswith("airfl: error: ")
        else:
            assert code == 0 and err.getvalue() == ""
            rows = out.getvalue().splitlines()[1:]  # after the header
            assert rows
            for row in rows:
                for value in row.split(","):
                    try:
                        number = float(value)
                    except ValueError:  # noise-check's stat names
                        continue
                    assert math.isfinite(number), row

    run()
