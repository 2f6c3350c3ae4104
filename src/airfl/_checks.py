"""The input rules that the public entry points and the config schemas share.

Each predicate takes a field name and a value, returns the value and raises a
ValueError that names the field if the value breaks the rule.  The real-valued
rules take a number, or an array of at most `ndim` dimensions where the caller
allows one, and must hold in every entry; a bool, a string, None or a list
given for a number is not a number.
"""
from __future__ import annotations

import math

import numpy as np

# Largest dB value whose linear power is a finite float (about 3082.5 dB).
# 10*log10 of the largest float rounds up to a value that overflows, so the
# limit is the float just below it.
MAX_DB = float(np.nextafter(10.0 * np.log10(np.finfo(float).max), 0.0))
# numpy sizes and indices are intp; a larger count fails inside numpy
MAX_COUNT = int(np.iinfo(np.intp).max)


def _real(requirement: str, in_range):
    def check(name: str, value, ndim: int = 0):
        try:
            if type(value) in (float, int):  # the common case, without numpy
                x = float(value)  # an int may exceed numpy's integers
                ok = math.isfinite(x) and in_range(x)
            else:
                x = np.asarray(value)
                ok = (x.ndim <= ndim and x.dtype.kind in "iuf"
                      and (np.isfinite(x) & in_range(x)).all())
        except (OverflowError, ValueError):  # a huge int, a ragged nesting
            ok = False
        if not ok:
            # numpy wraps a long array's repr over several lines
            shown = " ".join(repr(value).split()) if isinstance(value, np.ndarray) else repr(value)
            raise ValueError(f"{name} must be {requirement}, got {shown}")
        return value
    return check


finite = _real("a finite value", lambda x: True)
unit_interval = _real("a finite value in [0, 1]", lambda x: (0 <= x) & (x <= 1))
positive = _real("a finite positive value", lambda x: x > 0)
nonnegative = _real("a finite nonnegative value", lambda x: x >= 0)
# a larger dB value overflows to an infinite linear power
decibels = _real(f"a finite value at most {MAX_DB} dB", lambda x: x <= MAX_DB)


def count(name: str, value, low: int = 1) -> int:
    """A scalar count as an int: an integer (numpy's too, not a bool) in
    [low, MAX_COUNT]."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")
    if value > MAX_COUNT:
        raise ValueError(f"{name} must be at most {MAX_COUNT}, got {value}")
    return int(value)
