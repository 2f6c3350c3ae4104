import csv
import hashlib
import importlib.util
import io
import json
import sys
import tracemalloc
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from airfl import cli
from airfl.channel import MAX_DB
from airfl.cli import main
from airfl.experiments import (
    EXPERIMENTS,
    SCHEMAS,
    ConfigError,
    config_from_dict,
    load_config,
    run_experiment,
    write_csv,
)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestLoadConfig:
    def test_minimal_fig3_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {"experiment": "fig3"}))
        assert cfg.sigma_z2 == 1.0
        assert cfg.L_s == 1.0
        assert cfg.sigma_a2_db == 25.0
        assert cfg.powers_db == (25.0, 30.0)

    def test_fig4_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {"experiment": "fig4"}))
        assert cfg.sigma_A2_db_grid == (0.0, 5.0, 10.0, 15.0, 20.0)
        assert cfg.delta_h_values == (1.0,)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "fig3", "sigma": 1})
        with pytest.raises(ConfigError, match="unknown config keys"):
            load_config(path)

    def test_odd_k_train_rejected(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "train", "users": 3})
        with pytest.raises(ConfigError, match="odd user count"):
            load_config(path)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/config.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(str(path))

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            config_from_dict({"experiment": "fig9"})

    def test_zero_n_seeds_rejected(self):
        # n_seeds=0 once averaged over no runs and wrote NaN rows
        with pytest.raises(ConfigError, match="n_seeds"):
            config_from_dict({"experiment": "fig5", "n_seeds": 0})

    @pytest.mark.parametrize("experiment", ["fig5", "train"])
    def test_zero_T_rejected(self, experiment):
        with pytest.raises(ConfigError, match="T must be at least 1"):
            config_from_dict({"experiment": experiment, "T": 0})

    @pytest.mark.parametrize("key, value", [
        ("samples", "10"), ("T", 2.5), ("n_seeds", True), ("seed", None),
    ])
    def test_mistyped_count_rejected(self, key, value):
        experiment = "fig3" if key == "samples" else "fig5"  # fig5 draws no samples
        with pytest.raises(ConfigError, match=f"{key} must be an integer"):
            config_from_dict({"experiment": experiment, key: value})

    @pytest.mark.parametrize("raw, key", [
        ({"experiment": "noise-check", "samples": 10**20}, "samples"),
        ({"experiment": "train", "d": 10**20}, "d"),
    ])
    def test_count_beyond_intp_rejected(self, raw, key):
        # samples 10**20 once raised a raw OverflowError inside numpy, and
        # d 10**20 a TypeError
        top = int(np.iinfo(np.intp).max)
        with pytest.raises(ConfigError, match=f"{key} must be at most {top}, got {10**20}"):
            config_from_dict(raw)
        assert getattr(config_from_dict(dict(raw, **{key: top})), key) == top

    @pytest.mark.parametrize("raw", [
        {"experiment": "train", "beta": -1.0},
        {"experiment": "train", "beta": 1.5},
        {"experiment": "train", "beta": float("nan")},
        {"experiment": "fig5", "splits": [[0.5, -0.1]]},
        {"experiment": "fig5", "splits": [[0.5, 0.5], [0.3, float("inf")]]},
    ])
    def test_beta_outside_unit_interval_rejected(self, raw):
        # beta=-1 once ran into sqrt warnings and "training diverged"
        with pytest.raises(ConfigError, match="beta must be a finite value in"):
            config_from_dict(dict(raw, T=5))

    @pytest.mark.parametrize("raw", [
        {"experiment": "fig3", "alpha_grid": [2.0]},
        {"experiment": "fig3", "alpha_grid": [0.0, -0.1]},
        {"experiment": "fig3", "alpha_grid": [float("nan")]},
        {"experiment": "fig4", "alpha": 1.5},
        {"experiment": "train", "alpha": float("-inf")},
    ])
    def test_alpha_outside_unit_interval_rejected(self, raw):
        # alpha_grid [2.0] once wrote secrecy rows for alpha = 2
        with pytest.raises(ConfigError, match="alpha must be a finite value in"):
            config_from_dict(raw)

    @pytest.mark.parametrize("key, value, message", [
        ("L_s", 0.0, "L_s must be a finite positive value"),
        ("L_s", float("inf"), "L_s must be a finite positive value"),
        ("sigma_z2", -1.0, "sigma_z2 must be a finite nonnegative value"),
        ("sigma_z2", float("nan"), "sigma_z2 must be a finite nonnegative value"),
        ("sigma_a2_db", float("nan"), "sigma_a2_db must be a finite value"),
        ("powers_db", [float("inf")], "powers_db must be a finite value"),
        ("powers_db", [25.0, "30"], "powers_db must be a finite value"),
        ("sigma_A2_db_grid", [float("-inf")], "sigma_A2_db_grid must be a finite value"),
        ("delta_h_values", [-1.0], "delta_h_values must be a finite nonnegative value"),
        ("delta_h_values", [float("nan")], "delta_h_values must be a finite nonnegative value"),
        ("delta_h_values", [], "sweep grids must be nonempty"),
    ])
    @pytest.mark.parametrize("experiment", ["fig3", "fig4"])
    def test_secrecy_field_out_of_range_rejected(self, experiment, key, value, message):
        # L_s=0, sigma_z2=-1, sigma_a2_db=NaN and powers_db=[inf] once wrote
        # NaN rows without an error
        with pytest.raises(ConfigError, match=message):
            config_from_dict({"experiment": experiment, "samples": 100, key: value})

    def test_dp_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            config_from_dict({"experiment": "fig5", "dp": {"epsilon": 1.0}})

    @pytest.mark.parametrize("raw, key", [
        ({"experiment": "fig3", "powers_db": [25.0, 4000.0]}, "powers_db"),
        ({"experiment": "fig3", "sigma_a2_db": 4000.0}, "sigma_a2_db"),
        ({"experiment": "fig4", "sigma_A2_db_grid": [0.0, 4000.0]}, "sigma_A2_db_grid"),
        ({"experiment": "fig4", "powers_db": [MAX_DB, float(np.nextafter(MAX_DB, np.inf))]},
         "powers_db"),
        ({"experiment": "train", "powers_db": [4000.0]}, "powers_db"),
        ({"experiment": "noise-check", "powers_db": [4000.0]}, "powers_db"),
    ])
    def test_overflowing_db_rejected(self, raw, key):
        # powers_db [4000] once wrote mean_c = nan after an overflow warning
        with pytest.raises(ConfigError, match=f"{key} must be a finite value at most"):
            config_from_dict(raw)

    @pytest.mark.parametrize("raw, message", [
        ({"experiment": "fig5", "k_grid": []}, "k_grid is empty"),
        ({"experiment": "fig5", "splits": []}, "splits is empty"),
        ({"experiment": "fig5", "k_grid": [0]}, "k_grid must be at least 2, got 0"),
        ({"experiment": "fig5", "k_grid": [2, 3]}, "k_grid: odd user count K=3"),
        ({"experiment": "fig5", "k_grid": [2.0]}, "k_grid must be an integer"),
        ({"experiment": "fig5", "splits": [[0.5, 0.5], [0.3, 0.5]]}, "repeat a beta"),
        ({"experiment": "train", "users": 0}, "users must be at least 2, got 0"),
        ({"experiment": "noise-check", "users": 0}, "users must be at least 2, got 0"),
        ({"experiment": "noise-check", "users": 5}, "users: odd user count K=5"),
        ({"experiment": "train", "reg_lambda": 0.0}, "reg_lambda must be a finite positive"),
        ({"experiment": "train", "out": 5}, "out must be a path string"),
    ])
    def test_count_split_and_path_rejected(self, raw, message):
        # an empty k_grid or splits once wrote a header-only CSV, k_grid [0]
        # died in eigvalsh, users 0 failed at run time with "empty system",
        # and repeated betas wrote rows no reader could tell apart
        with pytest.raises(ConfigError, match=message):
            config_from_dict(raw)


# keys each experiment's runner reads; every other key is rejected
ACCEPTED_KEYS = {
    "fig3": {"seed", "out", "samples", "alpha_grid", "powers_db", "delta_h_values",
             "sigma_A2_db_grid", "sigma_a2_db", "sigma_z2", "L_s"},
    "fig4": {"seed", "out", "samples", "alpha", "powers_db", "delta_h_values",
             "sigma_A2_db_grid", "sigma_a2_db", "sigma_z2", "L_s"},
    "fig5": {"seed", "out", "k_grid", "splits", "n_seeds", "powers_db", "sigma_z2",
             "L_s", "d", "T", "reg_lambda", "n_per_user"},
    "train": {"seed", "out", "users", "alpha", "beta", "powers_db", "sigma_z2", "L_s",
              "d", "T", "reg_lambda", "n_per_user"},
    "noise-check": {"seed", "out", "samples", "users", "powers_db", "alpha", "beta",
                    "sigma_z2", "L_s"},
}


class TestSchemas:
    def test_accepted_keys(self):
        assert {e: {f.name for f in fields(s)} for e, s in SCHEMAS.items()} == ACCEPTED_KEYS
        assert sum(map(len, ACCEPTED_KEYS.values())) == 53
        for experiment, keys in ACCEPTED_KEYS.items():
            defaults = config_from_dict({"experiment": experiment})
            for key in keys:
                # each default, in its JSON form, is accepted back
                value = json.loads(json.dumps(getattr(defaults, key)))
                assert config_from_dict({"experiment": experiment, key: value}) == defaults

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_keys_of_other_schemas_rejected(self, experiment):
        foreign = set().union(*ACCEPTED_KEYS.values()) - ACCEPTED_KEYS[experiment]
        assert foreign
        for key in sorted(foreign):
            with pytest.raises(ConfigError,
                               match=rf"unknown config keys for {experiment}: \['{key}'\]"):
                config_from_dict({"experiment": experiment, key: 1})

    @pytest.mark.parametrize("experiment, key", [
        ("fig3", "sigma_A2_db_grid"), ("fig4", "delta_h_values"), ("fig5", "powers_db"),
        ("train", "powers_db"), ("noise-check", "powers_db"),
    ])
    def test_one_entry_field_rejects_a_second(self, experiment, key):
        # the runner reads only entry [0]; the rest were once dropped unread
        assert len(getattr(config_from_dict({"experiment": experiment}), key)) == 1
        with pytest.raises(ConfigError, match=f"{experiment} reads one {key} entry, got 2"):
            config_from_dict({"experiment": experiment, key: [10.0, 20.0]})

    def test_noise_check_reads_25_db(self):
        assert config_from_dict({"experiment": "noise-check"}).powers_db == (25.0,)


# attributes bench/run.py reads from a config of each workload
HARNESS_READS = {
    "fig5-train": ("T", "k_grid", "splits", "n_seeds", "out"),
    "fig3-secrecy": ("samples", "alpha_grid", "powers_db", "delta_h_values",
                     "sigma_A2_db_grid", "out"),
    "noise-mc": ("samples", "users", "out"),
}


def test_bench_parts_validate(monkeypatch, tmp_path):
    # loaded as bench/test_bench_smoke.py loads it
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("airfl_bench_run", BENCH / "run.py")
    harness = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, harness)
    spec.loader.exec_module(harness)
    assert sorted(harness.WORKLOADS) == sorted(HARNESS_READS)
    for name, workload in harness.WORKLOADS.items():
        for part in workload.parts + workload.smoke:
            cfg = config_from_dict(dict(part, seed=3, out=str(tmp_path / "part.csv")))
            assert all(hasattr(cfg, attr) for attr in HARNESS_READS[name])
            assert workload.units(cfg) > 0


class TestRunExperiment:
    def test_fig3_alpha_zero_rows_are_zero(self):
        cfg = config_from_dict({"experiment": "fig3", "samples": 500, "seed": 1})
        header, rows = run_experiment(cfg)
        assert header == ["alpha", "p_db", "delta_h", "mean_c"]
        assert all(row[3] == 0.0 for row in rows if row[0] == 0.0)

    def test_fig4_schema(self):
        cfg = config_from_dict({"experiment": "fig4", "samples": 500})
        header, rows = run_experiment(cfg)
        assert header == ["p_db", "sigma_A2_db", "mean_c"]
        assert len(rows) == 7 * 5

    def test_fig5_noiseless_bound_column(self):
        cfg = config_from_dict({
            "experiment": "fig5", "T": 5, "n_seeds": 1, "k_grid": [2],
            "splits": [[1.0, 0.0]], "sigma_z2": 0.0, "d": 4, "n_per_user": 6,
            "reg_lambda": 0.1,
        })
        header, rows = run_experiment(cfg)
        assert header == ["t", "K", "beta", "bound", "simulated_loss"]
        import numpy as np

        from airfl.fl_core import make_task

        task = make_task(2, 6, 4, 0.1, np.random.default_rng([cfg.seed, 17]))
        for t, K, beta, bound, _loss in rows:
            # with beta=0 and no channel noise only the L_s^2 term remains
            assert bound == pytest.approx(2 * task.mu / (0.1**2 * t), rel=1e-12)

    def test_fig5_seed1_survives_first_step_spike(self):
        # seed 1 draws a channel whose t=1 loss spike once tripped the
        # divergence guard; the default fig5 path must complete
        cfg = config_from_dict({
            "experiment": "fig5", "seed": 1, "T": 5, "k_grid": [2],
        })
        _, rows = run_experiment(cfg)
        assert len(rows) == 5 * 2  # T rows per split, loss averaged over seeds

    def test_train_rows(self):
        cfg = config_from_dict({
            "experiment": "train", "T": 10, "users": 2, "d": 4, "n_per_user": 6,
            "reg_lambda": 0.1,
        })
        header, rows = run_experiment(cfg)
        assert header == ["t", "loss", "gap"]
        assert len(rows) == 10
        assert all(row[2] >= -1e-12 for row in rows)

    def test_noise_check_rows(self):
        cfg = config_from_dict({"experiment": "noise-check", "samples": 20000})
        header, rows = run_experiment(cfg)
        stats = dict(rows)
        assert abs(stats["empirical_mean"]) < 5 * stats["mean_stderr"]
        assert stats["empirical_var"] == pytest.approx(stats["predicted_var"], rel=0.1)

    def test_noise_check_statistics_copy_no_column(self):
        # the rounds' noise column is the run's largest array; its variance
        # must not allocate a second one (ndarray.var would, for noise - mean)
        samples = 400_000
        cfg = config_from_dict({"experiment": "noise-check", "users": 2, "samples": samples})
        tracemalloc.start()
        try:
            run_experiment(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / (samples * 8) < 1.5

    def test_csv_bytes_reproducible(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            cfg = config_from_dict({
                "experiment": "fig3", "samples": 2000, "seed": 3, "out": str(out)
            })
            run_experiment(cfg)
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_round_trip(self, tmp_path):
        out = tmp_path / "fig3.csv"
        cfg = config_from_dict({
            "experiment": "fig3", "samples": 1000, "seed": 2, "out": str(out)
        })
        _, rows = run_experiment(cfg)
        with open(out, newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            parsed = [tuple(float(v) for v in row) for row in reader]
        assert parsed == [tuple(float(v) for v in row) for row in rows]

    def test_csv_floats_written_as_repr(self, tmp_path):
        row = (3, np.int64(7), 0.5, np.float64(2 / 3), "empirical_mean",
               1e16, 1e-05, -0.0, 0.1 + 0.2, np.float64(1e-05))
        out = tmp_path / "row.csv"
        write_csv(str(out), ["h"] * len(row), [row])
        # the formatting write_csv used before it handed rows to csv as-is
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(["h"] * len(row))
        writer.writerow(
            [repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row]
        )
        assert out.read_bytes() == expected.getvalue().encode("utf-8")
        assert out.read_text().splitlines()[1] == (
            "3,7,0.5,0.6666666666666666,empirical_mean,1e+16,1e-05,-0.0,"
            "0.30000000000000004,1e-05"
        )


# sha256 of small seeded runs, recorded before the batched round kernel
# replaced the per-user aggregation loop; any change to the RNG stream order
# or to the float arithmetic of a round shows here
SEEDED_CSV_SHA256 = {
    "fig5": ({"experiment": "fig5", "n_seeds": 1, "T": 200, "k_grid": [2, 10],
              "splits": [[0.5, 0.5], [0.3, 0.7]]},
             "4aed198b1f5d70b219f3647a1f3901987dcbcd5c26df6710951ae188f0ff82ea"),
    "train": ({"experiment": "train", "users": 6, "T": 300},
              "7af5f9aba387772b004bde554b9b6f7097e84ef7ed9c16af80490a91804a6b91"),
    "noise-check": ({"experiment": "noise-check", "users": 20, "samples": 100_000},
                    "42643a81015cd3fdf5a998addb81c9c61f132d96dbbbcbd8240c2e9847b3f2d9"),
    "fig3": ({"experiment": "fig3", "samples": 20_000},
             "f3e7cc6cd3e9e345c01915c63940dcf0fe582d2badbeab6ba005df29ff1ff6d6"),
    # recorded before the cache-blocked secrecy sweep; 50 001 samples span
    # several sum-tree blocks and end on a length that is not a multiple of 8
    "fig4": ({"experiment": "fig4", "samples": 20_000},
             "b38f6af793f3b9c5a3d73f0b94d2aac18b08a04edbd8117fac328ee2b810f008"),
    "fig3-unaligned": ({"experiment": "fig3", "samples": 50_001},
                       "f378ca4140fd9318eb839f9319b8b2cdc8debf46edf46c00eb357981b93444af"),
}


@pytest.mark.parametrize("name", sorted(SEEDED_CSV_SHA256))
def test_seeded_csv_bytes_unchanged(name, tmp_path):
    raw, digest = SEEDED_CSV_SHA256[name]
    out = tmp_path / f"{name}.csv"
    run_experiment(config_from_dict(dict(raw, seed=0, out=str(out))))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestCli:
    def test_runs_with_defaults(self, capsys):
        assert main(["fig3", "--samples", "200", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("alpha,p_db,delta_h,mean_c")

    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main(["fig4", "--samples", "200", "--out", str(out)]) == 0
        assert out.exists()

    def test_config_experiment_mismatch(self, tmp_path, capsys):
        path = write_config(tmp_path, {"experiment": "fig4"})
        assert main(["fig3", "--config", path]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_config_reports_error(self, tmp_path, capsys):
        path = write_config(tmp_path, {"experiment": "train", "users": 5})
        assert main(["train", "--config", path]) == 1
        assert "odd user count" in capsys.readouterr().err

    def test_mistyped_field_is_one_error_line(self, tmp_path, capsys):
        path = write_config(tmp_path, {"experiment": "fig3", "samples": "10"})
        assert main(["fig3", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == ["airfl: error: samples must be an integer, got '10'"]

    def test_zero_path_loss_is_one_error_line(self, tmp_path, capsys):
        path = write_config(tmp_path, {"experiment": "fig3", "L_s": 0.0, "samples": 100})
        assert main(["fig3", "--config", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "airfl: error: L_s must be a finite positive value, got 0.0"
        ]

    @pytest.mark.parametrize("document, message", [
        ("5", "config must be a JSON object, got int"),
        ('{"experiment": ["fig3"]}', "unknown experiment ['fig3']"),
        ('{"experiment": "fig3", "alpha_grid": 5}', "alpha_grid must be a list, got 5"),
        ('{"experiment": "fig5", "splits": [[0.5, 0.5, 0.5]]}',
         "each splits entry must be an [alpha_cap, beta] pair"),
        ('{"experiment": "fig5", "splits": [0.5]}',
         "each splits entry must be an [alpha_cap, beta] pair"),
        ('{"experiment": "fig3", "seed": -1}', "seed must be at least 0, got -1"),
        ('{"experiment": "fig3", "sigma_a2_db": 4000}',
         "sigma_a2_db must be a finite value at most"),
        ('{"experiment": "fig5", "samples": 5}', "unknown config keys for fig5: ['samples']"),
    ])
    def test_malformed_config_is_one_error_line(self, tmp_path, capsys, document, message):
        # these once crashed with a TypeError traceback, failed on unpacking
        # a split or inside numpy at run time, wrote NaN rows, or ran fig5
        # with a samples key it never read
        path = tmp_path / "config.json"
        path.write_text(document)
        experiment = "fig5" if "fig5" in document else "fig3"
        assert main([experiment, "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("airfl: error: ") and message in line

    @pytest.mark.parametrize("argv, message", [
        (["fig3", "--seed", "-1"], "seed must be at least 0, got -1"),
        (["noise-check", "--samples", "0"], "samples must be at least 1, got 0"),
    ])
    def test_bad_override_is_one_error_line(self, capsys, argv, message):
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [f"airfl: error: {message}"]

    def test_unwritable_out_is_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "missing" / "r.csv"
        assert main(["fig3", "--samples", "10", "--out", str(out)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("airfl: error: ") and "No such file" in line

    def test_out_of_memory_is_one_error_line(self, monkeypatch, capsys):
        # an oversize --samples makes numpy raise MemoryError; fake it, never allocate
        def oversize(config):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(cli, "run_experiment", oversize)
        assert main(["fig3", "--samples", "1000000000000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "airfl: error: Unable to allocate 7.28 TiB for an array"]

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_samples_only_for_sampling_experiments(self, experiment, capsys):
        sampled = experiment in ("fig3", "fig4", "noise-check")
        with pytest.raises(SystemExit):
            main([experiment, "--help"])
        assert ("--samples" in capsys.readouterr().out) == sampled
        if not sampled:
            with pytest.raises(SystemExit) as exc:
                main([experiment, "--samples", "5"])
            assert exc.value.code == 2

    @pytest.mark.parametrize("raw, message", [
        ({"experiment": "fig3", "L_s": 1e-320, "samples": 100},
         "signal factor S = sqrt(alpha P) / L_s overflows at L_s = 1e-320"),
        ({"experiment": "fig4", "L_s": 1e-160, "powers_db": [3000.0], "samples": 100},
         "signal factor S = sqrt(alpha P) / L_s overflows at L_s = 1e-160"),
        ({"experiment": "noise-check", "L_s": 1e-320, "samples": 100},
         "alignment constant m = sqrt(alpha_cap * min |h|^2 P) / L_s overflows"),
        ({"experiment": "train", "L_s": 1e-320, "T": 5},
         "alignment constant m = sqrt(alpha_cap * min |h|^2 P) / L_s overflows"),
    ])
    def test_overflowing_signal_scale_is_one_error_line(self, tmp_path, capsys, raw,
                                                        message):
        # S and m once overflowed to inf after a numpy warning; fig3 and fig4
        # then wrote mean_c = nan rows
        path = write_config(tmp_path, raw)
        assert main([raw["experiment"], "--config", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("airfl: error: ") and message in line

    def test_overflowing_received_power_is_one_error_line(self, tmp_path, capsys):
        # S is finite here, but S |h|^2 overflows for the larger drawn gains;
        # the run once warned "invalid value encountered in subtract", wrote
        # mean_c = nan rows and exited 0
        path = write_config(tmp_path, {"experiment": "fig3", "L_s": 7e-159,
                                       "powers_db": [3000.0], "alpha_grid": [0.5],
                                       "samples": 1000})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fig3", "--config", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("airfl: error: received power S |h|^2 + noise overflows")

    @pytest.mark.parametrize("raw, message", [
        ({"experiment": "fig5", "reg_lambda": 1e300, "T": 3, "d": 1, "n_per_user": 1,
          "k_grid": [2], "n_seeds": 1}, "lam**2 must be a finite positive value, got inf"),
        ({"experiment": "noise-check", "L_s": 1e300, "samples": 1},
         "noise factor M**2 must be a finite value, got inf"),
        ({"experiment": "fig5", "L_s": 1e300, "powers_db": [0.5]},
         "noise factor M**2 must be a finite value, got inf"),
        ({"experiment": "train", "L_s": 3000.0, "alpha": 1e-300, "T": 1, "d": 1,
          "n_per_user": 1}, "training diverged at iteration 1 (loss inf)"),
        ({"experiment": "noise-check", "L_s": 1e-300, "samples": 1},
         "(m*K)**2 must be a finite positive value, got inf"),
        ({"experiment": "noise-check", "L_s": 1e300, "beta": 0.0, "samples": 1},
         "(m*K)**2 must be a finite positive value, got 0.0"),
        ({"experiment": "fig5", "reg_lambda": 1e-155, "L_s": 1e-10, "T": 1, "d": 1,
          "n_per_user": 1, "k_grid": [2], "n_seeds": 1},
         "convergence bound must be a finite value, got inf"),
        ({"experiment": "noise-check", "powers_db": [-3082.0], "samples": 1, "users": 4},
         "estimator_var must be a finite value, got inf"),
        ({"experiment": "noise-check", "L_s": 1.5e154, "samples": 1000},
         "empirical_var must be a finite value, got inf"),
        ({"experiment": "noise-check", "powers_db": [1e-155], "L_s": 1e155, "beta": 0.0},
         "estimator_var must be a finite value, got inf"),
        ({"experiment": "fig5", "powers_db": [3082.0], "T": 3, "n_per_user": 2,
          "splits": [[0.5, 1e-300]], "n_seeds": 1},
         "h2 * P must be a finite value, got array([7.37788225e+307, inf, 1.39837915e+308, "
         "2.94607130e+307, inf, 3.16248622e+307, inf, 8.41544871e+307, 5.25571298e+306, "
         "1.35286484e+308])"),
    ], ids=["fig5-lambda", "noise-M", "fig5-M", "train-overflow", "noise-mK-inf",
            "noise-mK-zero", "fig5-bound-inf", "noise-mK-subnormal", "noise-var-overflow",
            "noise-var-inf", "fig5-array"])
    def test_finite_extreme_is_one_error_line(self, tmp_path, capsys, raw, message):
        # a float power raised OverflowError (a traceback) for the first
        # three, the fourth printed two numpy overflow warnings before its
        # error, the next two raised on (m K)^2 overflowing or divided by it
        # underflowed to 0, and the seventh warned twice and wrote an inf
        # bound; the three noise-checks after it wrote inf rows (a subnormal
        # (m K)^2 divides to inf) or warned in the variance and exited 0, and
        # the last printed its array over three lines
        path = write_config(tmp_path, raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([raw["experiment"], "--config", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"airfl: error: {message}"]

    def test_alpha_above_one_is_one_error_line(self, tmp_path, capsys):
        path = write_config(tmp_path, {"experiment": "fig3", "alpha_grid": [2.0],
                                       "samples": 100})
        assert main(["fig3", "--config", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "airfl: error: alpha must be a finite value in [0, 1], got 2.0"
        ]
