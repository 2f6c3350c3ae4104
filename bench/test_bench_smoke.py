"""Smoke test of the benchmark harness at tiny sizes (a few seconds).

Checks that `bench/run.py --workload all --smoke` prints every metric named
in BENCHMARK.json with its unit for every workload, that all output checks
pass on the current code, and that each check rejects a corrupted CSV.
"""
import csv
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _load_harness():
    sys.path.insert(0, str(BENCH))
    sys.path.insert(0, str(BENCH / "baseline"))
    sys.path.insert(0, str(ROOT / "src"))
    spec = importlib.util.spec_from_file_location("airfl_bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_smoke_prints_every_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    assert sorted(summary) == sorted(w["name"] for w in SPEC["workloads"])
    for name, entry in summary.items():
        assert entry["correct"], (name, proc.stderr)
        assert entry["attempted"] > 0 and entry["failed"] == 0
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            printed = entry["metrics"][metric["name"]]
            assert printed["unit"] == metric["unit"], (name, metric)
            assert any(line.split()[:2] == [name, metric["name"]]
                       and line.split()[3] == metric["unit"] for line in lines)
        assert any(line.split()[:2] == [name, "fail_ratio"] for line in lines)


@pytest.mark.parametrize("workload, corrupt", [
    ("fig5-train", lambda rows: rows[:-1]),
    ("fig3-secrecy", lambda rows: [r[:3] + [str(-1.0)] if r[0] == "0.5" else r
                                   for r in rows]),
    ("noise-mc", lambda rows: [[r[0], "10.0"] if r[0] == "empirical_mean" else r
                               for r in rows]),
])
def test_output_checks_reject_a_corrupted_csv(workload, corrupt, tmp_path):
    harness = _load_harness()
    from airfl.experiments import run_experiment

    session = harness.Session(workload, seed=3, smoke=True, out_dir=tmp_path)
    part = session.parts[0]
    assert session.run_once(part, run_experiment) is not None
    harness.WORKLOADS[workload].check(part.csv_path, part.cfg)

    with open(part.csv_path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    with open(part.csv_path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *corrupt(rows)])
    with pytest.raises(harness.CheckFailed):
        harness.WORKLOADS[workload].check(part.csv_path, part.cfg)
