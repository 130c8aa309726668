import csv
import dataclasses
import json
import os
import subprocess
import sys
import types
import typing
from pathlib import Path

import numpy as np
import pytest

import phasecast
from phasecast import data, experiment, synthetic
from phasecast.cli import main
from phasecast.data import DatasetSpec
from phasecast.errors import ConfigError
from phasecast.model import VARIANTS, Forecaster, ModelConfig
from phasecast.synthetic import sine_mixture, write_series_csv
from phasecast.training import TrainSchedule


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

    @pytest.mark.parametrize("horizon", ["0", "-3"])
    @pytest.mark.parametrize("command", ["train", "eval", "ablate"])
    def test_horizon_below_one_rejected_before_any_work(self, tmp_path, tiny_config,
                                                        monkeypatch, command, horizon):
        # 0 once ran every configured horizon (train, eval) or the first (ablate).
        def fail(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(experiment, "prepare_windows", fail)
        config_path, _ = tiny_config
        assert main([command, "--config", str(config_path), "--out", str(tmp_path / "o"),
                     "--horizon", horizon]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("length", ["0", "-5"])
    def test_synth_length_below_one_rejected_before_any_work(self, tmp_path, monkeypatch,
                                                             length):
        # -5 once died in numpy with a traceback; 0 wrote header-only CSVs.
        def fail(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(synthetic, "write_series_csv", fail)
        assert main(["synth", "--out", str(tmp_path / "o"), "--length", length]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("tolerance", ["0", "-1", "nan", "inf"])
    def test_gradcheck_tolerance_not_positive_and_finite_rejected(self, tmp_path, monkeypatch,
                                                                  tolerance):
        # These once ran every check and reported each one FAIL, exit 5.
        def fail(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(experiment, "grad_check_model", fail)
        assert main(["gradcheck", "--out", str(tmp_path / "o"),
                     "--tolerance", tolerance]) == 2
        assert not (tmp_path / "o").exists()

    def test_synth_negative_seed_rejected_before_any_work(self, tmp_path, monkeypatch):
        # This once created the output directory, then died in numpy, exit 1.
        def fail(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(synthetic, "write_series_csv", fail)
        assert main(["synth", "--out", str(tmp_path / "o"), "--seed", "-1",
                     "--length", "10"]) == 2
        assert not (tmp_path / "o").exists()

    def test_gradcheck_negative_seed_rejected_before_any_work(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(experiment, "grad_check_model", fail)
        assert main(["gradcheck", "--out", str(tmp_path / "o"), "--seed", "-1"]) == 2
        assert not (tmp_path / "o").exists()

    def test_negative_config_seed_rejected(self, tmp_path, tiny_config):
        _, config = tiny_config
        config["seed"] = -1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        for command in ("train", "ablate"):
            assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value", [
        ("seed", "x"), ("seed", None), ("seed", 1.5), ("seed", True), ("seed", 2024.0),
        ("lookback", "8"), ("lookback", None), ("lookback", 8.5), ("lookback", True),
        ("lookback", 8.0),
        ("horizons", [True]), ("horizons", [3, False]), ("horizons", [3.0]), ("horizons", 3),
    ])
    def test_non_integer_top_level_value_rejected(self, tmp_path, tiny_config, key, value):
        # seed and lookback were read with int(): "x" and null died with a
        # traceback (exit 1), 1.5 and true ran as 1; horizons took true as 1.
        _, config = tiny_config
        config[key] = value
        with pytest.raises(ConfigError, match=key):
            experiment.ExperimentConfig.from_dict(config)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        for command in ("train", "eval", "ablate"):
            assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value", [
        ("clip_norm", -1.0), ("clip_norm", 0.0), ("clip_norm", float("inf")),
        ("clip_norm", float("nan")), ("lr_decay", 0.0), ("lr_decay", -0.5),
        ("lr_decay", float("inf")), ("lr_decay", float("nan")),
    ])
    def test_schedule_value_not_positive_and_finite(self, tmp_path, tiny_config, key, value):
        # A clip norm <= 0 flips or zeroes the gradients; a decay <= 0 zeroes
        # or flips the learning rate after the first epoch.
        _, config = tiny_config
        config["train"][key] = value
        with pytest.raises(ConfigError, match=key):
            experiment.ExperimentConfig.from_dict(config).schedule()
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))  # inf and nan as JSON's Infinity and NaN
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()


class TestConfigRoundTrip:
    def test_serialization_is_lossless(self, tmp_path, tiny_config):
        from phasecast.experiment import ExperimentConfig

        config_path, _ = tiny_config
        first = ExperimentConfig.load(config_path)
        second = ExperimentConfig.from_dict(first.to_dict())
        assert first == second
        assert second.to_dict() == first.to_dict()


class TestConfigKeys:
    @staticmethod
    def every_settable_key(dataset_path):
        # Non-default values, so a key the runner dropped would show.
        spec = DatasetSpec(path=str(dataset_path), split_ratio="7:1:2", columns=["v0", "v1"],
                           forward_fill=True, sort_on_disorder=True)
        model = ModelConfig(num_variates=2, lookback=8, horizon=3, offsets=2, num_heads=2,
                            rbf_grid=3, rbf_span=(-1.0, 1.0), kan_prenorm=False, mlp_hidden=5,
                            conv_kernel=5, dropout=0.0, depth=2, variant="mlp-swap",
                            revin_affine=False, precision="float32")
        schedule = TrainSchedule(max_epochs=3, patience=2, batch_size=8, learning_rate=0.01,
                                 clip_norm=1.0, lr_decay=0.9)
        run_filled = {"num_variates", "lookback", "horizon", "seed"}

        def section(obj):
            return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)
                    if f.name not in run_filled}

        config = {"dataset": section(spec), "model": section(model),
                  "train": section(schedule), "lookback": 8, "horizons": [3]}
        config["model"]["per_offset_kan"] = False  # retired, but its old default loads
        return config, spec, model, schedule

    def test_every_dataclass_field_is_accepted(self, tiny_dataset):
        config, spec, model, schedule = self.every_settable_key(tiny_dataset)
        loaded = experiment.ExperimentConfig.from_dict(json.loads(json.dumps(config)))
        assert loaded.dataset_spec(3) == dataclasses.replace(spec, lookback=8, horizon=3)
        assert loaded.model_config(2, 3) == model
        assert loaded.schedule() == schedule

    @pytest.mark.parametrize("section", ["dataset", "model", "train"])
    def test_unknown_key_rejected(self, tiny_dataset, section):
        config, *_ = self.every_settable_key(tiny_dataset)
        config[section]["bogus"] = 1
        with pytest.raises(ConfigError, match="bogus"):
            experiment.ExperimentConfig.from_dict(config)


class TestReportFormat:
    def test_retired_default_still_loads(self, tmp_path, tiny_config):
        # report_format is retired: every run writes both files, and the old
        # default "json" still loads so configs that carry it keep working.
        _, config = tiny_config
        config["report_format"] = "json"
        path = tmp_path / "json.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out-json"
        assert main(["train", "--config", str(path), "--out", str(out)]) == 0
        assert {"report.json", "table.csv"} <= {p.name for p in out.iterdir()}
        assert "report_format" not in read_report(out)["config"]

    @pytest.mark.parametrize("value", ["csv-table", "JSON", "", None, 1])
    def test_any_other_value_rejected(self, tmp_path, tiny_config, value):
        _, config = tiny_config
        config["report_format"] = value
        with pytest.raises(ConfigError, match="report_format"):
            experiment.ExperimentConfig.from_dict(config)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        for command in ("train", "eval", "ablate"):
            assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()


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
        src = str(Path(phasecast.__file__).parents[1])
        result = subprocess.run(
            [sys.executable, "-m", "phasecast.cli", "synth",
             "--out", str(tmp_path / "s"), "--length", "32"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
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


class TestParseOncePerRun:
    @pytest.fixture
    def two_horizons(self, tmp_path, tiny_config, monkeypatch):
        loads = []
        real = data.load_csv

        def counting(spec):
            loads.append(spec.horizon)
            return real(spec)

        monkeypatch.setattr(data, "load_csv", counting)
        _, raw = tiny_config
        return experiment.ExperimentConfig.from_dict({**raw, "horizons": [3, 4]}), loads

    @staticmethod
    def without_wall_time(report):
        for run in report["runs"]:
            run.pop("wall_time_s", None)
            run.get("train_report", {}).pop("wall_time_s", None)
        return report

    def test_train_and_eval_parse_the_file_once(self, tmp_path, two_horizons):
        config, loads = two_horizons
        trained = experiment.run_train(config, tmp_path / "out")
        assert loads == [3]
        evaluated = experiment.run_eval(config, tmp_path / "out")
        assert loads == [3, 3]
        assert [r["horizon"] for r in evaluated["runs"]] == [3, 4]
        assert [r["metrics"] for r in evaluated["runs"]] == [r["metrics"] for r in trained["runs"]]

    def test_two_horizon_run_matches_one_run_per_horizon(self, tmp_path, two_horizons):
        config, _ = two_horizons
        both = self.without_wall_time(experiment.run_train(config, tmp_path / "both"))
        singles = [self.without_wall_time(experiment.run_train(config, tmp_path / f"h{h}", horizons=[h]))
                   for h in (3, 4)]
        assert json.dumps(both["runs"]) == json.dumps([s["runs"][0] for s in singles])
        for horizon in (3, 4):
            name = experiment._checkpoint_name(horizon, "full")
            assert (tmp_path / "both" / name).read_bytes() == \
                (tmp_path / f"h{horizon}" / name).read_bytes()


class TestRangeRules:
    @pytest.mark.parametrize("section, overrides", [
        ("model", {"num_heads": 0}),
        ("model", {"num_heads": -2}),
        ("model", {"rbf_span": [2.0, -2.0]}),
        ("model", {"rbf_span": [0.0, float("inf")]}),
        ("model", {"mlp_hidden": 0, "variant": "mlp-swap"}),
        ("model", {"mlp_hidden": -3, "variant": "mlp-swap"}),
        ("model", {"conv_kernel": 0, "variant": "conv1d-swap"}),
        ("train", {"learning_rate": float("nan")}),
        ("train", {"learning_rate": float("inf")}),
        ("model", {"rbf_span": [-1e308, 1e308]}),
        ("model", {"rbf_span": [0.0, 1e-160]}),
        (None, {"horizons": [3, 3]}),
    ])
    def test_out_of_range_value_rejected_before_any_work(self, tmp_path, tiny_config,
                                                         section, overrides):
        # Each passed the config checks and then failed inside a layer or a
        # step: a ZeroDivisionError, a ShapeError or a ValueError (exit 1),
        # non-finite values (exit 4), or mlp_hidden 0 ran silently as dim.
        # The two spans made the KAN's features NaN (exit 4); a repeated
        # horizon trained, wrote and reported that horizon twice.
        _, config = tiny_config
        (config if section is None else config[section]).update(overrides)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))  # inf and nan as JSON's Infinity and NaN
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()


def rewrite_checkpoint(change):
    def rewrite(path):
        payload = json.loads(path.read_text())
        change(payload)
        path.write_text(json.dumps(payload))
    return rewrite


class TestMalformedCheckpoint:
    @pytest.mark.parametrize("corrupt", [
        lambda path: path.write_text(path.read_text()[:200]),
        lambda path: path.write_text("not a checkpoint"),
        lambda path: path.write_text("[1, 2]"),
        rewrite_checkpoint(lambda p: p["params"]["head.weight"].pop("shape")),
        rewrite_checkpoint(lambda p: p["params"]["head.weight"].pop("data")),
        rewrite_checkpoint(lambda p: p["config"].update(bogus=1)),
        rewrite_checkpoint(lambda p: p["config"].update(offsets="2")),
    ], ids=["truncated", "not-json", "json-list", "no-shape", "no-data",
            "unknown-config-key", "mistyped-config-key"])
    def test_is_a_config_error_that_names_the_file(self, tmp_path, tiny_config, corrupt):
        config_path, config = tiny_config
        out = Path(config["output_dir"])
        assert main(["train", "--config", str(config_path)]) == 0
        checkpoint = next(out.glob("checkpoint_*.json"))
        corrupt(checkpoint)
        with pytest.raises(ConfigError, match=checkpoint.name):
            Forecaster.load_checkpoint(checkpoint)
        assert main(["eval", "--config", str(config_path)]) == 2


def wrong_typed_values(hint):
    """Values of the wrong JSON type for a field annotated ``hint``."""
    union = typing.get_origin(hint) in (typing.Union, types.UnionType)
    wrong = {int: ["1", True, 1.5], float: ["1", True], bool: ["true"], str: [1],
             list: ["x"], tuple: ["x"], dict: ["x"]}
    return [value for kind in (typing.get_args(hint) if union else (hint,))
            if kind is not type(None) for value in wrong[typing.get_origin(kind) or kind]]


# Every key a config file may set, by section; the run fills in the rest.
_SETTABLE = {
    "dataset": (DatasetSpec, {"lookback", "horizon"}),
    "model": (ModelConfig, {"num_variates", "lookback", "horizon", "seed"}),
    "train": (TrainSchedule, {"seed"}),
    None: (experiment.ExperimentConfig, set()),
}
_WRONG_TYPED = [
    pytest.param(section, f.name, value, id=f"{section or 'top'}.{f.name}={value!r}")
    for section, (cls, filled) in _SETTABLE.items()
    for f in dataclasses.fields(cls) if f.name not in filled
    for value in wrong_typed_values(typing.get_type_hints(cls)[f.name])
]


class TestWrongTypedValues:
    @pytest.mark.parametrize("section, key, value", _WRONG_TYPED)
    def test_is_a_config_error_that_names_the_key(self, tmp_path, tiny_config, section, key, value):
        _, config = tiny_config
        (config if section is None else config[section])[key] = value
        with pytest.raises(ConfigError, match=f"'{key}'"):
            experiment.ExperimentConfig.from_dict(config)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()
