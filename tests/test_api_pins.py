"""Pins of the model layer's API and of the names the bench tracer wraps."""
import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

from airfl import secrecy
from airfl.aircomp import LinkPlan, plan_link, simulate_aggregation_rounds
from airfl.channel import ChannelConfig
from airfl.experiments import SCHEMAS, config_from_dict, run_experiment
from airfl.fl_core import BoundInputs, draw_link
from airfl.pcran import BetaAllocation, NoiseStats, PairSecret, aggregate_noise_stats
from airfl.secrecy import SecrecySweep

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "bench" / "spans.py"


def names(dataclass):
    return [f.name for f in fields(dataclass)]


def params(fn):
    return list(inspect.signature(fn).parameters)


def test_model_api_is_pinned():
    # an option no experiment sets is an untested model; adding one back must
    # change this list on purpose (TrainState is pinned with the training API)
    assert names(ChannelConfig) == ["fading_mode", "sigma_z2", "fixed_gains"]
    assert names(PairSecret) == ["mu", "sigma2_pos", "sigma2_neg"]
    assert names(NoiseStats) == ["M", "sigma_A2", "sigma_zprime2", "estimator_var"]
    assert names(BetaAllocation) == ["beta", "psi"]
    # one PCR-AN law per user: loc and scale rows, nothing held twice
    assert names(LinkPlan) == [
        "sig_amp", "noise_amp", "gains", "equalize", "loc", "scale", "m", "L_s",
        "sigma_z2", "noise_stats"]
    assert names(SecrecySweep) == [
        "alpha_grid", "power_db_grid", "delta_h_grid", "sigma_A2_db_grid",
        "sigma_a2_db", "sigma_z2", "L_s"]
    assert names(BoundInputs) == [
        "mu", "lam", "T", "L_s", "d", "m", "K", "noise_power_sum", "sigma_z2"]
    assert params(plan_link) == ["h2", "alloc", "pairing", "secrets", "sigma_z2"]
    assert params(aggregate_noise_stats) == [
        "pairing", "secrets", "h2", "P", "beta", "m", "sigma_z2"]
    assert params(simulate_aggregation_rounds) == [
        "gradients", "h2", "alloc", "pairing", "secrets", "sigma_z2",
        "n_rounds", "rng"]
    assert params(draw_link) == [
        "channel_config", "K", "power", "L_s", "alpha_cap", "beta", "rng"]


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


def test_gaussian_draws_share_one_helper_and_block():
    # training noise and the noise-check Monte Carlo draw every Gaussian
    # through aircomp._gaussian, in blocks of the one aircomp._NOISE_BLOCK
    def mentions(node, name):
        return sum(getattr(n, "attr", None) == name or getattr(n, "id", None) == name
                   for n in ast.walk(node))

    draws, blocks, imports = {}, [], []
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
    assert draws == {"aircomp": 1, "aircomp._gaussian": 1}
    assert blocks == ["aircomp"]
    assert imports == [("fl_core", "aircomp")]


def test_training_formulas_are_written_once():
    # the round loop and the public global_loss and all_local_gradients share
    # fl_core's private helpers, so the gradient einsum, the residual U @ w - V
    # and the loss's squared-residual sum each appear once in src/airfl
    found = {"einsum": [], "residual": [], "squared sum": []}

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        if isinstance(node, ast.Constant) and node.value == "kn,knd->kd":
            found["einsum"].append(where)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Sub):
            subtrahend = node.right if isinstance(node, ast.BinOp) else node.value
            if "V" in (getattr(subtrahend, "id", None), getattr(subtrahend, "attr", None)):
                found["residual"].append(where)
        if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "reduce"
                and any(k.arg == "axis" and getattr(k.value, "value", 0) is None
                        for k in node.keywords)):
            found["squared sum"].append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted((ROOT / "src" / "airfl").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert found == {"einsum": ["fl_core._gradients_at"], "residual": ["fl_core._residual"],
                     "squared sum": ["fl_core._loss_at"]}


# overflow checks of computed values (alignment constant, received powers,
# signal factor, training loss), which no input rule covers: the only lines
# outside airfl/_checks.py that may test finiteness
OVERFLOW_CHECKS = {
    ("fl_core.py", "if not math.isfinite(loss):"),
    ("pcran.py", "if not math.isfinite(m):"),
    ("secrecy.py", "if not (math.isfinite(rx_s) and math.isfinite(rx_ev)):"),
    ("secrecy.py", "if not math.isfinite(self.signal_factor(max(self.alpha_grid),"),
    ("secrecy.py", "if math.isfinite(top_S * top_h2 + top_noise):"),
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
