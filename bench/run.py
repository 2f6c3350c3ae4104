"""Benchmark harness for airfl: end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload fig5-train --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 5     # every metric
    python3 bench/run.py --workload all --smoke                  # tiny sizes

One process, one run at a time (a closed loop with one client): the harness
builds experiment configs from the workload and `--seed`, then calls
`airfl.experiments.run_experiment` (the CLI's path) again and again for
`--seconds`, checking every CSV it writes.  The library is imported from
`src/`; BLAS/OpenMP threads are pinned to 1.

With `--trace 0` the metrics are the end-to-end ones: each run of the program
is paired with a run of the same config by `baseline/airfl_seed`, a frozen
copy of the library, and times are reported relative to it, which cancels
the shared host's changing CPU speed.  With `--trace 1` untraced and traced
runs alternate and the metrics are the per-layer ones from the traced runs.
The last line of standard output is one JSON object: {"correct",
"attempted", "failed", "metrics"}.  See README.md.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import spans

THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BASELINE = BENCH_DIR / "baseline"   # holds airfl_seed, the speed reference
OUT_DIR = ROOT / ".bench_out"

SETUP_SAMPLES = 7
SMOKE_REPS = 2

# Child program for setup_s: a cold interpreter imports a library (airfl or
# airfl_seed) and validates the config, then prints the monotonic clock
# (system-wide on Linux).
SETUP_CHILD = (
    "import importlib, json, sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "experiments = importlib.import_module(sys.argv[2] + '.experiments')\n"
    "experiments.config_from_dict(json.loads(sys.argv[3]))\n"
    "print(repr(time.perf_counter()))\n"
)
# Cold-start seconds of the seed library on the reference host; setup_s
# scales it by the program's cold start relative to the seed library's.
SEED_SETUP_S = 0.2

# Child program for peak_rss_mb: a fresh interpreter runs every part once.
RSS_CHILD = (
    "import json, resource, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from airfl.experiments import config_from_dict, run_experiment\n"
    "for raw in json.loads(sys.argv[2]):\n"
    "    run_experiment(config_from_dict(raw))\n"
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
)


class CheckFailed(Exception):
    """An experiment's output broke one of the workload's invariants."""


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _floats(rows: list[list[str]]) -> list[list[float]]:
    out = [[float(v) for v in row] for row in rows]
    if not all(math.isfinite(v) for row in out for v in row):
        raise CheckFailed("non-finite value in CSV")
    return out


def check_fig5(path: Path, cfg) -> None:
    """Row count, finite values, bound positive and decreasing, loss falls."""
    _, rows = _read_csv(path)
    T = cfg.T
    expected = len(cfg.k_grid) * len(cfg.splits) * T
    if len(rows) != expected:
        raise CheckFailed(f"fig5 wrote {len(rows)} rows, expected {expected}")
    vals = _floats(rows)
    for start in range(0, expected, T):
        block = vals[start:start + T]
        if [int(r[0]) for r in block] != list(range(1, T + 1)):
            raise CheckFailed("fig5 t column is not 1..T within a sub-run")
        bound = [r[3] for r in block]
        if min(bound) <= 0:
            raise CheckFailed("fig5 bound is not positive")
        if any(b >= a for a, b in zip(bound, bound[1:])):
            raise CheckFailed("fig5 bound is not decreasing in t")
        if not block[-1][4] < block[0][4]:
            raise CheckFailed(f"fig5 final loss is not below the t=1 loss at K={block[0][1]}")


def check_fig3(path: Path, cfg) -> None:
    """mean_c nondecreasing in alpha; delta_h=1 dominates delta_h=0."""
    _, rows = _read_csv(path)
    expected = len(cfg.alpha_grid) * len(cfg.powers_db) * len(cfg.delta_h_values)
    if len(rows) != expected:
        raise CheckFailed(f"fig3 wrote {len(rows)} rows, expected {expected}")
    curves: dict = {}
    for alpha, p_db, delta_h, mean_c in _floats(rows):
        curves.setdefault((p_db, delta_h), {})[alpha] = mean_c
    for key, curve in curves.items():
        cs = [curve[a] for a in sorted(curve)]
        if any(hi < lo for lo, hi in zip(cs, cs[1:])):
            raise CheckFailed(f"fig3 mean_c decreases in alpha at {key}")
    for p_db in cfg.powers_db:
        weak, strong = curves[(p_db, 0.0)], curves[(p_db, 1.0)]
        if any(strong[a] < weak[a] for a in weak):
            raise CheckFailed(f"fig3 delta_h=1 does not dominate delta_h=0 at p={p_db}")


def check_noise(path: Path, cfg) -> None:
    """Mean within 5 stderr of 0; variance within 2% of predicted_var."""
    _, rows = _read_csv(path)
    stats = {name: float(value) for name, value in rows}
    if not all(math.isfinite(v) for v in stats.values()):
        raise CheckFailed("noise-check wrote a non-finite statistic")
    if abs(stats["empirical_mean"]) > 5 * stats["mean_stderr"]:
        raise CheckFailed("noise-check mean is more than 5 stderr from 0")
    if abs(stats["empirical_var"] / stats["predicted_var"] - 1) > 0.02:
        raise CheckFailed("noise-check variance is off predicted_var by more than 2%")


SPLITS = ([0.5, 0.5], [0.3, 0.7])


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; BENCHMARK.json and README.md say why each exists.

    A workload is a list of parts, each one `run_experiment` config; one round
    runs every part once.  Splitting a sweep into parts that together write
    the same rows keeps each timed sample short, so a part's program run and
    its paired seed-library run see nearly the same machine load.
    """

    parts: tuple       # raw configs, one per run_experiment call
    smoke: tuple       # the same at tiny sizes
    work: str          # what one work unit is
    units: object      # cfg -> work units in one run_experiment call
    check: object      # (csv path, cfg) -> None, raises CheckFailed
    seed_rate: float   # work units/s of the seed library on the reference host
    untouched: tuple = ()   # layers the traced run must never enter


WORKLOADS = {
    "fig5-train": Workload(
        parts=tuple({"experiment": "fig5", "n_seeds": 1, "k_grid": [k], "splits": [split]}
                    for k in (2, 10, 20) for split in SPLITS),
        smoke=tuple({"experiment": "fig5", "n_seeds": 1, "T": 60, "k_grid": [k]}
                    for k in (2, 4)),
        work="user-rounds",
        units=lambda c: c.n_seeds * len(c.splits) * sum(c.k_grid) * c.T,
        check=check_fig5,
        seed_rate=50_000.0,
    ),
    "fig3-secrecy": Workload(
        parts=({"experiment": "fig3", "samples": 1_000_000},),
        smoke=({"experiment": "fig3", "samples": 20_000},),
        work="sample-points",
        units=lambda c: c.samples * len(c.alpha_grid) * len(c.powers_db)
        * len(c.delta_h_values) * len(c.sigma_A2_db_grid),
        check=check_fig3,
        seed_rate=5.0e7,
        untouched=("aircomp", "pcran", "fl_core"),
    ),
    "noise-mc": Workload(
        parts=({"experiment": "noise-check", "users": 20, "samples": 3_000_000},),
        smoke=({"experiment": "noise-check", "users": 20, "samples": 200_000},),
        work="user-rounds",
        units=lambda c: c.samples * c.users,
        check=check_noise,
        seed_rate=5.0e7,
    ),
}

E2E_UNITS = {"work_per_s": "units/s", "setup_s": "s", "peak_rss_mb": "MB"}
UNITS = {
    **E2E_UNITS,
    **{f"{layer}.{kind}": unit for layer in spans.LAYERS
       for kind, unit in (("calls", "count"), ("self_s", "s"), ("self_share", "ratio"))},
    "channel.normals": "count",
    "pcran.normals": "count",
    "pcran.noise_stats_calls": "count",
    "aircomp.user_rounds": "count",
    "aircomp.us_per_user_round": "us",
    "fl_core.grad_evals": "count",
    "fl_core.loss_evals": "count",
    "secrecy.sample_points": "count",
    "secrecy.ns_per_sample_point": "ns",
    "experiments.csv_s": "s",
    "experiments.csv_rows": "count",
    "trace_overhead": "ratio",
}


def machine_block() -> dict:
    import numpy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_PINS},
    }


@dataclass
class Part:
    """One run_experiment config of a workload and the CSV it writes."""

    raw: dict
    cfg: object
    seed_cfg: object    # the same config for the seed library
    csv_path: Path
    units: int
    sha256: str | None = None


class Session:
    """Repeated rounds of one workload's parts, with output checks."""

    def __init__(self, name: str, seed: int, smoke: bool, out_dir: Path = OUT_DIR) -> None:
        from airfl.experiments import config_from_dict
        import airfl_seed.experiments

        self.name = name
        self.workload = WORKLOADS[name]
        out_dir.mkdir(exist_ok=True)
        self.parts = []
        for i, part in enumerate(self.workload.smoke if smoke else self.workload.parts):
            csv_path = out_dir / f"{name}-{i}.csv"
            raw = dict(part, seed=seed, out=str(csv_path))
            cfg = config_from_dict(raw)
            seed_cfg = airfl_seed.experiments.config_from_dict(
                dict(raw, out=str(out_dir / f"{name}-{i}-seed.csv")))
            self.parts.append(Part(raw, cfg, seed_cfg, csv_path, self.workload.units(cfg)))
        self.units = sum(part.units for part in self.parts)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run_once(self, part: Part, call) -> float | None:
        """One run_experiment call; returns its seconds, or None if it failed."""
        self.attempted += 1
        try:
            start = time.perf_counter()
            call(part.cfg)
            elapsed = time.perf_counter() - start
            self.workload.check(part.csv_path, part.cfg)
            digest = hashlib.sha256(part.csv_path.read_bytes()).hexdigest()
            if part.sha256 is None:
                part.sha256 = digest
            elif digest != part.sha256:
                raise CheckFailed("CSV bytes differ between runs of one config")
            return elapsed
        except Exception as exc:  # noqa: BLE001 -- counted as a failed run
            self.failed += 1
            if len(self.errors) < 3:
                self.errors.append("".join(traceback.format_exception_only(exc)).strip())
                traceback.print_exc(file=sys.stderr)
            return None

    def run_round(self, call) -> list[float] | None:
        """Every part once; their seconds, or None if any part failed."""
        times = [self.run_once(part, call) for part in self.parts]
        return None if None in times else times

    def run_paired_round(self, call, seed_first: bool) -> list[tuple] | None:
        """Every part once by the program and once by the seed library.

        Returns (program, seed library) seconds per part, or None if any
        program run failed.  The two runs of a part follow each other, in
        the order `seed_first` gives, so both see the same machine load.
        """
        from airfl_seed.experiments import run_experiment as seed_run

        pairs = []
        for part in self.parts:
            if seed_first:
                start = time.perf_counter()
                seed_run(part.seed_cfg)
                ref = time.perf_counter() - start
            prog = self.run_once(part, call)
            if not seed_first:
                start = time.perf_counter()
                seed_run(part.seed_cfg)
                ref = time.perf_counter() - start
            pairs.append((prog, ref))
        return None if any(prog is None for prog, _ in pairs) else pairs

    def fail(self, reason: str) -> None:
        """Count the last successful round as failed after a later check."""
        self.failed += 1
        self.errors.append(reason)


def child_float(program: str, *args: str) -> float:
    """Run `program` in a fresh interpreter; the float on its last output line."""
    proc = subprocess.run([sys.executable, "-c", program, *args],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def setup_once(raw: dict, library: str = "airfl") -> float:
    """Seconds from a cold interpreter start to a validated config."""
    path = SRC if library == "airfl" else BASELINE
    start = time.perf_counter()
    return child_float(SETUP_CHILD, str(path), library, json.dumps(raw)) - start


def setup_pair(raw: dict, seed_first: bool) -> float:
    """Cold start of the program over that of the seed library, back to back."""
    if seed_first:
        ref = setup_once(raw, "airfl_seed")
    prog = setup_once(raw)
    if not seed_first:
        ref = setup_once(raw, "airfl_seed")
    return prog / ref


def seed_ratio(rounds: list[list[tuple]]) -> float:
    """Program time over seed-library time for one round of the workload.

    Each part's ratio is the median over rounds of its paired ratio; the
    parts are weighted by their share of the seed library's median time.
    """
    ratios, weights = [], []
    for pairs in zip(*rounds):
        ratios.append(statistics.median(prog / ref for prog, ref in pairs))
        weights.append(statistics.median(ref for _, ref in pairs))
    return sum(r * w for r, w in zip(ratios, weights)) / sum(weights)


def run_untraced(session: Session, seconds: float, smoke: bool) -> dict:
    """Paired cold starts, then paired rounds of program and seed library.

    `work_per_s` is the workload's throughput at the reference host's speed:
    its `seed_rate` divided by the program's time relative to the seed
    library (a frozen copy of airfl under `baseline/`), both timed in
    alternation on the same machine.  On a shared host the CPU slows by up
    to 1.5x for minutes at a time; the paired ratio cancels that, raw times
    do not.  `setup_s` is `SEED_SETUP_S` times the median ratio of paired
    cold starts, taken before the rounds.  `peak_rss_mb` comes from one
    fresh process that runs every part once, so the seed library's memory
    does not count.
    """
    from airfl.experiments import run_experiment

    setup_raw = {k: v for k, v in session.parts[0].raw.items() if k != "out"}
    setup_pair(setup_raw, True)  # warms the bytecode caches
    setup_ratios = [setup_pair(setup_raw, i % 2 == 0)
                    for i in range(SMOKE_REPS if smoke else SETUP_SAMPLES)]
    session.run_paired_round(run_experiment, True)  # warm-up, checked but not timed
    rounds, tries = [], 0
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        pairs = session.run_paired_round(run_experiment, tries % 2 == 1)
        tries += 1
        if pairs is not None:
            rounds.append(pairs)
        if smoke and tries >= SMOKE_REPS:
            break
        # Stop when another round like this one would end past the deadline.
        now = time.perf_counter()
        if not smoke and now + (now - start) >= deadline and tries >= 3:
            break
    peak_kib = child_float(RSS_CHILD, str(SRC), json.dumps([p.raw for p in session.parts]))
    if not rounds:
        return {}
    ratio = seed_ratio(rounds)
    fastest = sum(min(prog for prog, _ in pairs) for pairs in zip(*rounds))
    print(json.dumps({"part_seconds": rounds, "seed_ratio": ratio,
                      "raw_work_per_s": session.units / fastest,
                      "setup_ratios": setup_ratios}))
    return {
        "work_per_s": session.workload.seed_rate / ratio,
        "setup_s": SEED_SETUP_S * statistics.median(setup_ratios),
        "peak_rss_mb": peak_kib / 1024,
    }


def run_traced(session: Session, seconds: float, smoke: bool) -> dict:
    """Alternate untraced and traced rounds; per-layer medians of the traced."""
    import airfl.experiments

    untraced = airfl.experiments.run_experiment
    tracer = spans.Tracer()
    traced = tracer.wrap(untraced, "experiments")
    session.run_round(untraced)  # warm-up
    plain_times, traced_times, per_round, last_spans = [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        times = session.run_round(untraced)
        if times is not None:
            plain_times.append(sum(times))
        tracer.reset()
        with tracer:
            times = session.run_round(traced)
        if times is not None:
            traced_times.append(sum(times))
            per_round.append(layer_metrics(tracer))
            last_spans = list(tracer.spans)
            entered = [layer for layer in session.workload.untouched
                       if per_round[-1][f"{layer}.calls"]]
            if entered:
                session.fail(f"traced run entered layers {entered}")
        if smoke and len(plain_times) >= SMOKE_REPS:
            break
        if not smoke and time.perf_counter() >= deadline and len(plain_times) >= 2:
            break
    if not per_round or not plain_times:
        return {}
    spans.write_spans(last_spans, session.parts[0].csv_path.with_name(
        f"spans-{session.name}.jsonl"))
    metrics = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
    metrics["trace_overhead"] = (statistics.median(traced_times)
                                 / statistics.median(plain_times))
    return metrics


def layer_metrics(tracer: spans.Tracer) -> dict:
    totals = spans.layer_totals(tracer.spans)
    counts = tracer.counts
    total = sum(totals["self_s"].values())
    out = {}
    for layer in spans.LAYERS:
        out[f"{layer}.calls"] = totals["calls"][layer]
        out[f"{layer}.self_s"] = totals["self_s"][layer]
        out[f"{layer}.self_share"] = totals["self_s"][layer] / total
    user_rounds = counts["aircomp.user_rounds"]
    sample_points = counts["secrecy.sample_points"]
    csv_s = sum(end - start for name, _, _, start, end in tracer.spans
                if name == "experiments.write_csv")
    out.update({
        "channel.normals": counts["channel.normals"],
        "pcran.normals": counts["pcran.normals"],
        "pcran.noise_stats_calls": counts["pcran.noise_stats_calls"],
        "aircomp.user_rounds": user_rounds,
        "aircomp.us_per_user_round": (
            1e6 * totals["incl_s"]["aircomp"] / user_rounds if user_rounds else 0.0),
        "fl_core.grad_evals": counts["fl_core.grad_evals"],
        "fl_core.loss_evals": counts["fl_core.loss_evals"],
        "secrecy.sample_points": sample_points,
        "secrecy.ns_per_sample_point": (
            1e9 * totals["self_s"]["secrecy"] / sample_points if sample_points else 0.0),
        "experiments.csv_s": csv_s,
        "experiments.csv_rows": counts["experiments.csv_rows"],
    })
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    load_before = os.getloadavg()
    session = Session(name, seed, smoke)
    if trace:
        metrics = run_traced(session, seconds, smoke)
    else:
        metrics = run_untraced(session, seconds, smoke)
    print(json.dumps({"workload": name, "seed": seed, "trace": int(trace),
                      "parts": [part.raw for part in session.parts],
                      "csv_sha256": [part.sha256 for part in session.parts],
                      "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
                      "errors": session.errors}))
    for key, value in metrics.items():
        note = f" ({session.workload.work}/s)" if key == "work_per_s" else ""
        print(f"{name:14s} {key:30s} {value:>16.6g} {UNITS[key]}{note}")
    print(f"{name:14s} {'fail_ratio':30s} {session.failed / session.attempted:>16.6g} "
          f"ratio ({session.failed}/{session.attempted})")
    expected = [k for k in UNITS if (k in E2E_UNITS) != trace]
    correct = session.failed == 0 and set(metrics) == set(expected)
    return {
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": metrics[k], "unit": UNITS[k]} for k in expected
                    if k in metrics},
    }


def run_all(args) -> int:
    """Every workload untraced then traced, each in a fresh process."""
    summary = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(f"{name}: harness exited with code {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            entry = summary.setdefault(name, {"correct": True, "attempted": 0,
                                              "failed": 0, "metrics": {}})
            entry["correct"] = entry["correct"] and result["correct"]
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            entry["metrics"].update(result["metrics"])
    for entry in summary.values():
        entry["fail_ratio"] = entry["failed"] / entry["attempted"]
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and two runs: a check that the harness works")
    args = parser.parse_args(argv)
    if not (SRC / "airfl" / "__init__.py").is_file():
        print(f"bench: airfl sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)  # numpy reads these when airfl imports it
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BASELINE))
    if args.workload == "all":
        return run_all(args)
    print(json.dumps({"machine": machine_block()}))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
