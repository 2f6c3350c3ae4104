"""Pins of the model layer's API and of the names the bench tracer wraps."""
import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
import typing
from dataclasses import fields
from pathlib import Path

import numpy as np

from airfl import secrecy
from airfl.aircomp import LinkPlan, plan_link, simulate_aggregation_rounds
from airfl.channel import ChannelConfig
from airfl.experiments import SCHEMAS, config_from_dict, run_experiment
from airfl.fl_core import BoundInputs, SyntheticTask, draw_link
from airfl.pcran import NoiseStats, PairSecret, aggregate_noise_stats, optimize_beta_dp
from airfl.secrecy import SecrecySweep, monte_carlo_secrecy

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "bench" / "spans.py"


def names(dataclass):
    return [f.name for f in fields(dataclass)]


def params(fn):
    return list(inspect.signature(fn).parameters)


def test_model_api_is_pinned():
    # an option no experiment sets is an untested model; adding one back must
    # change this list on purpose (TrainState is pinned with the training API);
    # the fading mode is read from fixed_gains, and mu is computed from U
    assert names(ChannelConfig) == ["sigma_z2", "fixed_gains"]
    assert [(f.name, f.init) for f in fields(SyntheticTask)] == [
        ("U", True), ("V", True), ("reg_lambda", True), ("mu", False)]
    assert names(PairSecret) == ["mu", "sigma2_pos", "sigma2_neg"]
    assert names(NoiseStats) == ["M", "sigma_A2", "sigma_zprime2", "estimator_var"]
    # the privacy allocation is (beta, psi): one float64 beta per user and
    # the total noise-power demand as a Python float
    allocation = optimize_beta_dp(np.ones(3), np.ones(3), np.ones(3), 0.1, 0.0, np.ones(3))
    assert isinstance(allocation, tuple) and len(allocation) == 2
    beta, psi = allocation
    assert isinstance(beta, np.ndarray) and beta.dtype == np.float64 and beta.shape == (3,)
    assert type(psi) is float
    # one PCR-AN law per user: loc and scale rows, nothing held twice; the
    # receiver noise is the plan's last law row, not a field of its own
    assert names(LinkPlan) == [
        "sig_amp", "noise_amp", "gains", "equalize", "loc", "scale", "m", "L_s",
        "noise_stats"]
    assert names(SecrecySweep) == [
        "alpha_grid", "power_db_grid", "delta_h_grid", "sigma_A2_db_grid",
        "sigma_a2_db", "sigma_z2", "L_s"]
    # one mean per coordinate, the ergodic secrecy capacity that Figs. 3 and 4
    # plot, in an array with one axis per grid: the caller holds the coordinates
    for sweep in (SecrecySweep(alpha_grid=(0.0, 0.25, 0.5), power_db_grid=(25.0, 30.0),
                               delta_h_grid=(0.0, 1.0)),
                  SecrecySweep(alpha_grid=(0.3, 0.0), power_db_grid=(10.0, 20.0, 30.0),
                               delta_h_grid=(0.5, 0.0, 2.0), sigma_A2_db_grid=(0.0, 10.0))):
        means = monte_carlo_secrecy(sweep, 10, 0)
        assert isinstance(means, np.ndarray) and means.dtype == np.float64
        assert means.shape == (len(sweep.alpha_grid), len(sweep.power_db_grid),
                               len(sweep.delta_h_grid), len(sweep.sigma_A2_db_grid))
    assert names(BoundInputs) == [
        "mu", "lam", "T", "L_s", "d", "m", "K", "noise_power_sum", "sigma_z2"]
    assert params(plan_link) == ["h2", "alloc", "pairing", "secrets", "sigma_z2"]
    assert params(aggregate_noise_stats) == ["secrets", "h2", "P", "beta", "m", "sigma_z2"]
    assert params(simulate_aggregation_rounds) == [
        "gradients", "h2", "alloc", "pairing", "secrets", "sigma_z2",
        "n_rounds", "rng"]
    assert params(draw_link) == [
        "channel_config", "K", "power", "L_s", "alpha_cap", "beta", "rng"]


def test_dataclasses_are_pinned():
    # each dataclass costs cold start (0.29-0.81 ms each to create during an
    # import of airfl.experiments on a 2-vCPU Xeon, Python 3.11.7), so one
    # more must change this list on purpose
    found = []
    for path in sorted((ROOT / "src" / "airfl").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                    getattr(getattr(d, "func", d), "id", None) == "dataclass"
                    for d in node.decorator_list):
                found.append(f"{path.stem}.{node.name}")
    assert found == [
        "aircomp.LinkPlan", "channel.ChannelConfig",
        "experiments._Config", "experiments._Secrecy", "experiments.Fig3Config",
        "experiments.Fig4Config", "experiments._Training", "experiments.Fig5Config",
        "experiments.TrainConfig", "experiments.NoiseCheckConfig",
        "fl_core.SyntheticTask", "fl_core.TrainState", "fl_core.BoundInputs",
        "pcran.PairSecret", "pcran.PowerAllocation", "pcran.NoiseStats",
        "secrecy.SecrecyPoint", "secrecy.SecrecySweep"]


def test_receiver_noise_law_is_built_once():
    # plan_link appends the receiver's N(0, sigma_z2) row to the plan's laws,
    # and both noise engines read it there: sqrt(sigma_z2) is taken once
    found = []
    for path in sorted((ROOT / "src" / "airfl").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "sqrt"
                        and any(getattr(arg, "id", None) == "sigma_z2" for arg in node.args)):
                    found.append(f"{path.stem}.{fn.name}")
    assert found == ["aircomp.plan_link"]


def test_each_experiment_is_defined_once():
    # a schema class is its experiment's only definition: no module-level
    # _run_* function and no name->runner table beside SCHEMAS
    tree = ast.parse((ROOT / "src" / "airfl" / "experiments.py").read_text(encoding="utf-8"))
    runners = [node.name for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_run_")]
    assert runners == []
    (dispatch,) = [node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "run_experiment"]
    assert not any(isinstance(node, (ast.Dict, ast.DictComp)) for node in ast.walk(dispatch))
    for name, schema in SCHEMAS.items():
        assert callable(getattr(schema, "run", None)), name


def load_spans():
    """bench/spans.py as it is on disk, imported without the bench harness."""
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_span_pins_resolve():
    # the tracer replaces each pinned name in its module on every traced run;
    # a missing name or a work counter that cannot take the target's
    # positional arguments fails there, so check both here without running it
    spans = load_spans()
    for mod_name, attr, *_ in spans.CALL_SITES + spans.COUNTED:
        module = importlib.import_module(f"airfl.{mod_name}")
        assert hasattr(module, attr), f"bench/spans.py pins airfl.{mod_name}.{attr}"
    for mod_name, attr, _, work in spans.CALL_SITES:
        if work is None:
            continue
        target = getattr(importlib.import_module(f"airfl.{mod_name}"), attr)
        positional = [p for p in inspect.signature(target).parameters.values()
                      if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
        try:
            inspect.signature(work).bind(*positional)
        except TypeError as exc:
            raise AssertionError(
                f"bench/spans.py counts airfl.{mod_name}.{attr} with {work.__name__}, "
                f"which cannot take its positional parameters "
                f"{[p.name for p in positional]}: {exc}"
            ) from None


def test_unused_imports_are_bench_call_sites():
    # an import kept only for bench/spans.py to wrap is marked
    # "# noqa: F401 -- ... bench/spans.py ..."; every such name must be a
    # CALL_SITES entry of its module, so dead imports cannot pile up unexplained
    call_sites = {(mod_name, attr) for mod_name, attr, *_ in load_spans().CALL_SITES}
    marked = []
    for path in sorted((ROOT / "src" / "airfl").glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        aliases = {}
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    aliases.setdefault(alias.lineno, []).append(alias.asname or alias.name)
        for lineno, line in enumerate(lines, start=1):
            if "# noqa: F401" not in line:
                continue
            where = f"{path.name}:{lineno}"
            assert "bench/spans.py" in line.split("# noqa: F401", 1)[1], where
            assert len(aliases.get(lineno, [])) == 1, f"{where} marks one imported name"
            (name,) = aliases[lineno]
            assert (path.stem, name) in call_sites, (
                f"{where}: bench/spans.py does not wrap {path.stem}.{name}")
            marked.append((path.stem, name))
    assert ("experiments", "sample_channel") in marked


def test_traced_parallel_sweep_matches_serial(monkeypatch):
    # the tracer's span stack is not thread-safe, so the sweep's worker
    # threads must call no name it wraps: a traced fig3 with two workers
    # returns the rows, the per-layer calls and the work counts of one worker
    spans = load_spans()
    config = config_from_dict({"experiment": "fig3", "samples": 3 * secrecy._BLOCK + 5})
    assert len(secrecy._tree_blocks(config.samples)) >= 2
    traced = {}
    for workers in (1, 2):
        monkeypatch.setattr(secrecy, "_cpu_count", lambda: workers)
        tracer = spans.Tracer()
        with tracer:
            output = tracer.wrap(run_experiment, "experiments")(config)
        totals = spans.layer_totals(tracer.spans)
        traced[workers] = output, dict(totals["calls"]), dict(tracer.counts)
    assert traced[2] == traced[1]
    assert traced[1][1]["secrecy"] == 1


def test_import_loads_no_process_pools():
    # concurrent.futures and multiprocessing cost milliseconds of cold start;
    # the sweep's workers are plain threading.Threads
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = ("import sys, airfl.experiments; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_config_validation_loads_no_numpy_random():
    # `import numpy` does not load numpy.random, and its bit generators pull
    # in secrets/hmac/hashlib; validating a config must not need them, so the
    # modules annotate rng as np.random.Generator instead of importing it
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = ("import sys\n"
             "from airfl.experiments import SCHEMAS, config_from_dict\n"
             "for name in SCHEMAS: config_from_dict({'experiment': name})\n"
             "print(sorted(SCHEMAS), 'numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == f"{sorted(SCHEMAS)} False"


def test_rng_annotations_resolve_to_generator():
    # annotations stay strings until asked for, so a stale name in one would
    # pass every run; resolve the hint of every def with an rng parameter,
    # found by walking the modules (a method or nested def fails getattr here)
    hints = {}
    for path in sorted((ROOT / "src" / "airfl").glob("*.py")):
        module = importlib.import_module(f"airfl.{path.stem}".removesuffix(".__init__"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.FunctionDef)
                    and "rng" in [a.arg for a in node.args.args + node.args.kwonlyargs]):
                fn = getattr(module, node.name)
                hints[f"{path.stem}.{node.name}"] = typing.get_type_hints(fn)["rng"]
    assert {"channel.sample_channel", "channel.gain_blocks", "aircomp._gaussian",
            "aircomp.draw_noise", "pcran.form_pairs", "fl_core.draw_link",
            "fl_core.train_over_air"} <= set(hints)
    assert {name: hint for name, hint in hints.items() if hint is not np.random.Generator} == {}


def test_gaussian_draws_share_one_helper_and_block():
    # training noise and the noise-check Monte Carlo draw every Gaussian
    # through aircomp._gaussian, in blocks of the one aircomp._NOISE_BLOCK;
    # training has one stride, its batch, so fl_core reads _NOISE_BLOCK once
    # (the batch size) and calls draw_noise once (each batch's noise)
    def mentions(node, name):
        return sum(getattr(n, "attr", None) == name or getattr(n, "id", None) == name
                   for n in ast.walk(node))

    def calls(node, name):
        return sum(isinstance(n, ast.Call) and mentions(n.func, name) for n in ast.walk(node))

    draws, blocks, imports, training = {}, [], [], {}
    for path in sorted((ROOT / "src" / "airfl").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if mentions(tree, "standard_normal"):
            draws[path.stem] = mentions(tree, "standard_normal")
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and mentions(node, "standard_normal"):
                draws[f"{path.stem}.{node.name}"] = mentions(node, "standard_normal")
            if isinstance(node, ast.Assign) and any(mentions(target, "_NOISE_BLOCK")
                                                    for target in node.targets):
                blocks.append(path.stem)
            if isinstance(node, ast.ImportFrom) and "_NOISE_BLOCK" in [a.name for a in node.names]:
                imports.append((path.stem, node.module))
        if path.stem == "fl_core":
            training = {"_NOISE_BLOCK": mentions(tree, "_NOISE_BLOCK"),
                        "draw_noise": calls(tree, "draw_noise")}
    assert draws == {"aircomp": 1, "aircomp._gaussian": 1}
    assert blocks == ["aircomp"]
    assert imports == [("fl_core", "aircomp")]
    assert training == {"_NOISE_BLOCK": 1, "draw_noise": 1}


def test_training_formulas_are_written_once():
    # the round loop and the public global_loss and all_local_gradients share
    # fl_core's private helpers, so the gradient einsum, the residual U @ w - V,
    # the loss's squaring of the residuals and its sum of them (a reduce whose
    # operand is a squared residual or a name bound to one, along any axis)
    # each appear once in src/airfl
    found = {"einsum": [], "residual": [], "squared residual": [], "squared sum": []}
    squared = set()  # names bound to squared residuals

    def name(node):
        return getattr(node, "id", None) or getattr(node, "attr", None) or ""

    def squares_residual(node):
        if isinstance(node, ast.Call) and name(node.func) == "multiply" and len(node.args) >= 2:
            a, b = node.args[:2]
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            a, b = node.left, node.right
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            a = b = node.left
        else:
            return False
        return "resid" in name(a) and name(a) == name(b)

    def sums_squares(node):
        if not (isinstance(node, ast.Call) and name(node.func) == "reduce" and node.args):
            return False
        return any(squares_residual(n) or (isinstance(n, ast.Name) and n.id in squared)
                   for n in ast.walk(node.args[0]))

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        if isinstance(node, ast.Constant) and node.value == "kn,knd->kd":
            found["einsum"].append(where)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Sub):
            subtrahend = node.right if isinstance(node, ast.BinOp) else node.value
            if "V" in (getattr(subtrahend, "id", None), getattr(subtrahend, "attr", None)):
                found["residual"].append(where)
        if squares_residual(node):
            found["squared residual"].append(where)
        if isinstance(node, ast.Assign) and squares_residual(node.value):
            squared.update(t.id for t in node.targets if isinstance(t, ast.Name))
        if sums_squares(node):
            found["squared sum"].append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted((ROOT / "src" / "airfl").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert found == {"einsum": ["fl_core._gradients_at"], "residual": ["fl_core._residual"],
                     "squared residual": ["fl_core._loss_at"],
                     "squared sum": ["fl_core._loss_at"]}


def test_secrecy_leaf_takes_one_log2_per_signal_factor():
    # a leaf runs log2 once over every c_s and c_ev row of one S; a loop per
    # sweep point, or a log2 per kind of capacity, would add a call
    tree = ast.parse((ROOT / "src" / "airfl" / "secrecy.py").read_text(encoding="utf-8"))
    (leaf,) = [node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "_leaf_sums"]
    log2_calls = [node for node in ast.walk(leaf) if isinstance(node, ast.Call)
                  and getattr(node.func, "attr", getattr(node.func, "id", None)) == "log2"]
    assert len(log2_calls) == 1


# overflow checks of computed values (alignment constant, received powers,
# signal factor, training loss), which no input rule covers: the only lines
# outside airfl/_checks.py that may test finiteness
OVERFLOW_CHECKS = {
    ("fl_core.py", "if not math.isfinite(loss):"),
    ("pcran.py", "if not math.isfinite(m):"),
    ("secrecy.py", "if not (math.isfinite(rx_s) and math.isfinite(rx_ev)):"),
    ("secrecy.py", "if not math.isfinite(self.signal_factor(max(self.alpha_grid),"),
    ("secrecy.py", "if not math.isfinite(top_S * top_h2 + top_noise):"),
}


def test_input_rules_are_defined_once():
    # finiteness, the dB limit and the integer-count rule are written once, in
    # airfl/_checks.py; the copies they replaced had drifted apart
    finiteness = set()
    for path in sorted((ROOT / "src" / "airfl").glob("*.py")):
        if path.name == "_checks.py":
            continue
        source = path.read_text(encoding="utf-8")
        for lineno, line in enumerate(source.splitlines(), start=1):
            if "isfinite" in line:
                assert (path.name, line.strip()) in OVERFLOW_CHECKS, f"{path.name}:{lineno}"
                finiteness.add((path.name, line.strip()))
        for node in ast.walk(ast.parse(source)):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Compare):
                names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                assert "MAX_DB" not in names, f"{where} compares with MAX_DB"
            assert not (isinstance(node, ast.Attribute) and node.attr == "integer"), (
                f"{where} tests for numpy integers")
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                types = {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
                assert not types & {"int", "bool"}, f"{where} checks for an integer"
    assert finiteness == OVERFLOW_CHECKS
