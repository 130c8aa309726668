import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from phasecast import experiment
from phasecast.cli import main
from phasecast.model import VARIANTS, Forecaster, ModelConfig
from phasecast.synthetic import sine_mixture, write_series_csv


@pytest.fixture
def tiny_dataset(tmp_path):
    path = tmp_path / "series.csv"
    write_series_csv(path, sine_mixture(160, num_variates=2, seed=7))
    return path


@pytest.fixture
def tiny_config(tmp_path, tiny_dataset):
    config = {
        "dataset": {"path": str(tiny_dataset), "split_ratio": "6:2:2"},
        "model": {"offsets": 2, "num_heads": 2, "rbf_grid": 3, "dropout": 0.0},
        "train": {"max_epochs": 2, "patience": 2, "batch_size": 32, "learning_rate": 0.01},
        "lookback": 8,
        "horizons": [3],
        "seed": 2024,
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path, config


def read_report(out_dir):
    return json.loads((out_dir / "report.json").read_text())


class TestTrainCommand:
    def test_train_produces_checkpoint_and_reports(self, tmp_path, tiny_config):
        config_path, config = tiny_config
        out = tmp_path / "out"
        assert main(["train", "--config", str(config_path)]) == 0
        report = read_report(out)
        assert report["mode"] == "train"
        assert report["tool"]["name"] == "phasecast"
        assert report["offset_split"]["offsets"] == 2
        assert "semantics" in report["offset_split"]
        run = report["runs"][0]
        assert run["horizon"] == 3
        assert set(run["metrics"]) >= {"mse", "mae", "rmse", "rse", "mape"}
        assert (out / run["checkpoint"]).exists()
        assert (out / "table.csv").exists()
        with open(out / "table.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:2] == ["horizon", "variant"]
        assert len(rows) == 2

    def test_identical_runs_yield_identical_metrics(self, tmp_path, tiny_config):
        config_path, _ = tiny_config
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", str(config_path), "--out", str(out_a)]) == 0
        assert main(["train", "--config", str(config_path), "--out", str(out_b)]) == 0
        runs_a = read_report(out_a)["runs"]
        runs_b = read_report(out_b)["runs"]
        assert json.dumps([r["metrics"] for r in runs_a]) == \
            json.dumps([r["metrics"] for r in runs_b])
        assert json.dumps([r["train_report"]["val_losses"] for r in runs_a]) == \
            json.dumps([r["train_report"]["val_losses"] for r in runs_b])

    def test_seed_override_changes_report_seed(self, tmp_path, tiny_config):
        config_path, _ = tiny_config
        out = tmp_path / "seeded"
        assert main(["train", "--config", str(config_path), "--out", str(out),
                     "--seed", "7"]) == 0
        assert read_report(out)["seed"] == 7

    def test_variant_override(self, tmp_path, tiny_config):
        config_path, _ = tiny_config
        out = tmp_path / "variant"
        assert main(["train", "--config", str(config_path), "--out", str(out),
                     "--variant", "mote-only"]) == 0
        assert read_report(out)["runs"][0]["variant"] == "mote-only"


class TestEvalCommand:
    def test_eval_reproduces_train_metrics(self, tmp_path, tiny_config):
        config_path, _ = tiny_config
        out = tmp_path / "out"
        assert main(["train", "--config", str(config_path)]) == 0
        train_metrics = read_report(out)["runs"][0]["metrics"]
        assert main(["eval", "--config", str(config_path)]) == 0
        report = read_report(out)
        assert report["mode"] == "eval"
        assert report["runs"][0]["metrics"] == train_metrics

    def test_eval_without_checkpoint_is_data_error(self, tmp_path, tiny_config):
        config_path, _ = tiny_config
        assert main(["eval", "--config", str(config_path),
                     "--out", str(tmp_path / "fresh")]) == 3


class TestAblateCommand:
    def test_one_row_per_variant_same_columns(self, tmp_path, tiny_config):
        config_path, _ = tiny_config
        out = tmp_path / "ablate"
        assert main(["ablate", "--config", str(config_path), "--out", str(out)]) == 0
        report = read_report(out)
        tags = [run["variant"] for run in report["runs"]]
        assert tags == list(VARIANTS)
        columns = {tuple(sorted(run["metrics"])) for run in report["runs"]}
        assert len(columns) == 1
        with open(out / "table.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + len(VARIANTS)


    def test_aliased_variants_train_once(self, tmp_path, tiny_config, monkeypatch):
        # no-kan builds the same model as moti-only, so 7 rows need 6 models.
        built = []

        class CountingForecaster(experiment.Forecaster):
            def __init__(self, config):
                built.append(config.variant)
                super().__init__(config)

        monkeypatch.setattr(experiment, "Forecaster", CountingForecaster)
        config_path, _ = tiny_config
        out = tmp_path / "ablate"
        assert main(["ablate", "--config", str(config_path), "--out", str(out)]) == 0
        runs = {run["variant"]: run for run in read_report(out)["runs"]}
        assert len(runs) == len(VARIANTS) == 7
        assert len(built) == 6 and "no-kan" not in built
        assert runs["no-kan"]["metrics"] == runs["moti-only"]["metrics"]
        with open(out / "table.csv") as fh:
            rows = {row[1]: row[2:] for row in csv.reader(fh)}
        assert rows["no-kan"] == rows["moti-only"]


class TestGradcheckCommand:
    def test_default_small_config_passes(self, tmp_path):
        out = tmp_path / "gc"
        assert main(["gradcheck", "--out", str(out)]) == 0
        summary = json.loads((out / "gradcheck.json").read_text())
        assert summary["passed"] is True
        assert set(summary["results"]) == set(VARIANTS)


class TestSynthCommand:
    def test_deterministic_generation(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--out", str(out_a), "--seed", "5", "--length", "64"]) == 0
        assert main(["synth", "--out", str(out_b), "--seed", "5", "--length", "64"]) == 0
        for name in ("sine_mixture.csv", "linear_trend.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_generated_files_are_loadable(self, tmp_path):
        out = tmp_path / "synth"
        assert main(["synth", "--out", str(out), "--length", "64"]) == 0
        from phasecast.data import DatasetSpec, load_csv
        ds = load_csv(DatasetSpec(path=str(out / "sine_mixture.csv")))
        assert ds.num_variates == 2
        assert ds.length == 64


class TestErrorExits:
    def test_unknown_config_key_rejected(self, tmp_path, tiny_dataset):
        config = {
            "dataset": {"path": str(tiny_dataset)},
            "model": {"offssets": 2},  # typo must not be ignored
            "lookback": 8,
            "horizons": [3],
        }
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(config))
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["train", "--config", str(path)]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "absent.json")]) == 2

    def test_missing_data_file(self, tmp_path):
        config = {"dataset": {"path": str(tmp_path / "absent.csv")},
                  "lookback": 8, "horizons": [3],
                  "model": {"offsets": 2, "num_heads": 2},
                  "train": {"max_epochs": 1, "patience": 1}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 3

    def test_horizon_too_long_for_split(self, tmp_path, tiny_dataset):
        config = {"dataset": {"path": str(tiny_dataset)},
                  "lookback": 8, "horizons": [500],
                  "model": {"offsets": 2, "num_heads": 2, "rbf_grid": 3},
                  "train": {"max_epochs": 1, "patience": 1}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 3

    def test_bad_variant_tag(self, tmp_path, tiny_config):
        config_path, _ = tiny_config
        assert main(["train", "--config", str(config_path),
                     "--out", str(tmp_path / "o"), "--variant", "bogus"]) == 2


class TestConfigRoundTrip:
    def test_serialization_is_lossless(self, tmp_path, tiny_config):
        from phasecast.experiment import ExperimentConfig

        config_path, _ = tiny_config
        first = ExperimentConfig.load(config_path)
        second = ExperimentConfig.from_dict(first.to_dict())
        assert first == second
        assert second.to_dict() == first.to_dict()


class TestMetricsScale:
    def test_raw_scale_metrics_differ_but_training_is_shared(self, tmp_path, tiny_config):
        config_path, config = tiny_config
        raw_config = dict(config)
        raw_config["metrics_scale"] = "raw"
        raw_path = tmp_path / "raw.json"
        raw_path.write_text(json.dumps(raw_config))

        out_std, out_raw = tmp_path / "std", tmp_path / "raw"
        assert main(["train", "--config", str(config_path), "--out", str(out_std)]) == 0
        assert main(["train", "--config", str(raw_path), "--out", str(out_raw)]) == 0
        std_run = read_report(out_std)["runs"][0]
        raw_run = read_report(out_raw)["runs"][0]
        # same training trajectory, different metric scale
        assert std_run["train_report"]["val_losses"] == raw_run["train_report"]["val_losses"]
        assert std_run["metrics"]["mse"] != raw_run["metrics"]["mse"]
        assert read_report(out_raw)["metrics_scale"] == "raw"


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "phasecast.cli", "synth",
             "--out", str(tmp_path / "s"), "--length", "32"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert (tmp_path / "s" / "sine_mixture.csv").exists()


class TestPrecisionIsRestored:
    def test_checkpoint_carries_the_run_precision(self, tmp_path, tiny_config):
        _, raw = tiny_config
        single = experiment.ExperimentConfig.from_dict(
            {**raw, "model": {**raw["model"], "precision": "float32"}})
        trained = experiment.run_train(single, tmp_path / "out")["runs"][0]

        # Loaded outside any run, the checkpoint comes back float32.
        loaded = Forecaster.load_checkpoint(tmp_path / "out" / trained["checkpoint"])
        assert {p.data.dtype for p in loaded.parameters()} == {np.dtype(np.float32)}

        # A config that names no precision evaluates at the checkpoint's.
        evaluated = experiment.run_eval(experiment.ExperimentConfig.from_dict(raw), tmp_path / "out")
        assert evaluated["runs"][0]["metrics"] == trained["metrics"]

        fresh = Forecaster(ModelConfig(num_variates=2, lookback=8, horizon=3, offsets=2, num_heads=2))
        assert {p.data.dtype for p in fresh.parameters()} == {np.dtype(np.float64)}
