"""In-memory span tracing of airfl's layers, installed from outside the library.

Each public function is wrapped where another module calls it.  A module
that does ``from .x import y`` holds its own binding of ``y``, so the wrapper
replaces the name in the caller's namespace (``airfl.fl_core.simulate_round``,
not ``airfl.aircomp.simulate_round``).  A span records (name, layer, parent,
start, end); a layer's self time is the duration of its spans minus the part
covered by their child spans.  Work counters (variates drawn, user·rounds,
sample·points, CSV rows) are computed from each call's arguments.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter

LAYERS = ("channel", "pcran", "aircomp", "fl_core", "secrecy", "experiments")


# Work counters: each takes the wrapped function's own parameters.

def _sample_channel_work(config, K, rng):
    return {"channel.normals": 2 * K if config.fading_mode == "rayleigh" else 0}


def _sample_gains_work(config, n, rng):
    return {"channel.normals": 2 * n if config.fading_mode == "rayleigh" else 0}


def _awgn_work(dim, sigma2, rng):
    return {"channel.normals": dim if sigma2 > 0 else 0}


def _draw_pcran_work(secret, role, dim, rng):
    var = secret.sigma2_pos if role == "positive" else secret.sigma2_neg
    return {"pcran.normals": dim if var != 0 else 0}


def _noise_stats_work(*args, **kwargs):
    return {"pcran.noise_stats_calls": 1}


def _simulate_round_work(gradients, *args, **kwargs):
    return {"aircomp.user_rounds": gradients.shape[0]}


def _aggregation_rounds_work(gradients, realization, alloc, pairing, secrets,
                             sigma_z2, n_rounds, rng, pre_equalized=True):
    return {"aircomp.user_rounds": gradients.shape[0] * n_rounds}


def _secrecy_work(sweep, n_samples, seed):
    points = (len(sweep.alpha_grid) * len(sweep.power_db_grid)
              * len(sweep.delta_h_grid) * len(sweep.sigma_A2_db_grid))
    return {"secrecy.sample_points": n_samples * points}


def _write_csv_work(path, header, rows):
    return {"experiments.csv_rows": len(rows)}


# (caller module, name bound there, layer of the callee, work counter)
CALL_SITES = (
    ("experiments", "write_csv", "experiments", _write_csv_work),
    ("experiments", "sample_channel", "channel", _sample_channel_work),
    ("experiments", "db_to_linear", "channel", None),
    ("experiments", "simulate_aggregation_rounds", "aircomp", _aggregation_rounds_work),
    ("experiments", "train_over_air", "fl_core", None),
    ("experiments", "make_task", "fl_core", None),
    ("experiments", "convergence_bound", "fl_core", None),
    ("experiments", "aggregate_noise_stats", "pcran", _noise_stats_work),
    ("experiments", "compute_alignment", "pcran", None),
    ("experiments", "draw_secrets", "pcran", None),
    ("experiments", "equalized_gain", "pcran", None),
    ("experiments", "form_pairs", "pcran", None),
    ("experiments", "noise_gains", "pcran", None),
    ("experiments", "monte_carlo_secrecy", "secrecy", _secrecy_work),
    ("fl_core", "simulate_round", "aircomp", _simulate_round_work),
    ("fl_core", "clip_gradient", "aircomp", None),
    ("fl_core", "sample_channel", "channel", _sample_channel_work),
    ("fl_core", "compute_alignment", "pcran", None),
    ("fl_core", "draw_secrets", "pcran", None),
    ("fl_core", "form_pairs", "pcran", None),
    ("aircomp", "awgn", "channel", _awgn_work),
    ("aircomp", "draw_pcran", "pcran", _draw_pcran_work),
    ("aircomp", "aggregate_noise_stats", "pcran", _noise_stats_work),
    ("aircomp", "equalized_gain", "pcran", None),
    ("aircomp", "noise_gains", "pcran", None),
    ("secrecy", "sample_gains", "channel", _sample_gains_work),
    ("secrecy", "db_to_linear", "channel", None),
)

# Calls inside fl_core, counted without a span: (module, name, counter).
COUNTED = (
    ("fl_core", "all_local_gradients", "fl_core.grad_evals"),
    ("fl_core", "global_loss", "fl_core.loss_evals"),
)


class Tracer:
    """Records spans and work counts while installed; restores on exit."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list = []

    def wrap(self, fn, layer: str, work=None):
        """Return fn wrapped in a span of `layer`, counting `work(*args)`."""
        spans, stack, counts = self.spans, self._stack, self.counts
        name = f"{layer}.{fn.__name__}"
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if work is not None:
                counts.update(work(*args, **kwargs))
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, layer, parent, start, end)

        return traced

    def _count(self, fn, key: str):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def __enter__(self) -> "Tracer":
        for mod_name, attr, layer, work in CALL_SITES:
            mod = importlib.import_module(f"airfl.{mod_name}")
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self.wrap(original, layer, work))
        for mod_name, attr, key in COUNTED:
            mod = importlib.import_module(f"airfl.{mod_name}")
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._count(original, key))
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()


def layer_totals(spans) -> dict:
    """Per-layer calls, self time and inclusive time over a list of spans."""
    child = [0.0] * len(spans)
    for _, _, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, self_s, incl_s = Counter(), Counter(), Counter()
    for i, (_, layer, parent, start, end) in enumerate(spans):
        calls[layer] += 1
        self_s[layer] += (end - start) - child[i]
        # a layer's inclusive time counts only its outermost spans
        if parent < 0 or spans[parent][1] != layer:
            incl_s[layer] += end - start
    return {"calls": calls, "self_s": self_s, "incl_s": incl_s}


def write_spans(spans, path) -> None:
    """Write spans as JSON lines, with times relative to the first span."""
    t0 = spans[0][3] if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        for i, (name, layer, parent, start, end) in enumerate(spans):
            fh.write(json.dumps({
                "id": i, "parent": parent, "name": name, "layer": layer,
                "start_s": start - t0, "end_s": end - t0,
            }) + "\n")
