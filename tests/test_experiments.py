import csv
import hashlib
import json

import pytest

from airfl.cli import main
from airfl.experiments import (
    ConfigError,
    config_from_dict,
    load_config,
    run_experiment,
)


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
        with pytest.raises(ConfigError, match=f"{key} must be an integer"):
            config_from_dict({"experiment": "fig5", key: value})

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

    def test_alpha_above_one_is_one_error_line(self, tmp_path, capsys):
        path = write_config(tmp_path, {"experiment": "fig3", "alpha_grid": [2.0],
                                       "samples": 100})
        assert main(["fig3", "--config", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "airfl: error: alpha must be a finite value in [0, 1], got 2.0"
        ]
