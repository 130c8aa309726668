"""The test metrics of a run (``experiment._evaluate``), summed batch by batch."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import phasecast
from phasecast import experiment
from phasecast.data import StandardScaler, prepare_windows
from phasecast.metrics import forecast_metrics, repeat_last, window_mean
from phasecast.model import Forecaster, ModelConfig
from phasecast.synthetic import sine_mixture, write_series_csv
from phasecast.training import evaluate_mse, predict

METRICS = ("mse", "mae", "rmse", "rse", "mape",
           "baseline_repeat_last_mse", "baseline_window_mean_mse")


def windows(count=45, variates=3, lookback=8, horizon=3, seed=0):
    """Strided [M, N, L] inputs and [M, N, F] targets, as a prepared split holds them.

    A stretch of variate 0 is exactly zero, so some targets fall below the
    MAPE threshold on both scales (the raw scaler below keeps its mean at 0).
    """
    series = np.random.default_rng(seed).standard_normal((variates, count + lookback + horizon - 1))
    series[0, 20:26] = 0.0
    win = sliding_window_view(series, lookback + horizon, axis=1).transpose(1, 0, 2)
    return win[:, :, :lookback], win[:, :, lookback:]


def raw_scaler(variates=3):
    return StandardScaler(mean=np.array([0.0, 1.5, -2.0])[:variates],
                          std=np.array([2.0, 0.5, 3.0])[:variates])


def to_scale(arr, scaler):
    return arr if scaler is None else arr * scaler.std[None, :, None] + scaler.mean[None, :, None]


def array_formulas(pred, x, y, scaler):
    """The metrics as whole-array formulas over the flattened set."""
    horizon = y.shape[-1]
    naive_last = np.repeat(x[..., -1:], horizon, axis=-1)
    naive_mean = np.repeat(x.mean(axis=-1, keepdims=True), horizon, axis=-1)
    pred, y, naive_last, naive_mean = (to_scale(a, scaler) for a in (pred, y, naive_last, naive_mean))
    p, t = pred.reshape(-1).astype(np.float64), y.reshape(-1)
    err = t - p
    usable = np.abs(t) >= 1e-8
    return {
        "mse": np.mean(err ** 2),
        "mae": np.mean(np.abs(err)),
        "rmse": np.sqrt(np.mean(err ** 2)),
        "rse": np.sqrt(np.sum(err ** 2)) / np.sqrt(np.sum((t - t.mean()) ** 2)),
        "mape": np.mean(np.abs(err[usable] / t[usable])),
        "mape_excluded": int(np.sum(~usable)),
        "baseline_repeat_last_mse": np.mean((t - naive_last.reshape(-1)) ** 2),
        "baseline_window_mean_mse": np.mean((t - naive_mean.reshape(-1)) ** 2),
    }


class TestStreamedMetrics:
    @pytest.mark.parametrize("precision", ["float64", "float32"])
    @pytest.mark.parametrize("scale", ["standardized", "raw"])
    def test_agree_with_whole_array_metrics(self, scale, precision):
        model = Forecaster(ModelConfig(num_variates=3, lookback=8, horizon=3, offsets=2,
                                       num_heads=2, rbf_grid=3, precision=precision, seed=5))
        x, y = windows()
        scaler = raw_scaler() if scale == "raw" else None
        batch_size = 7  # 45 windows: six full batches and a ragged one of 3
        got = experiment._evaluate(model, (x, y), scaler, batch_size)

        pred = predict(model, x, batch_size)
        formulas = array_formulas(pred, x, y, scaler)
        assert formulas["mape_excluded"] > 0
        target = to_scale(y, scaler)
        whole = forecast_metrics(to_scale(pred, scaler), target)
        for key, naive in (("baseline_repeat_last_mse", repeat_last(x, 3)),
                           ("baseline_window_mean_mse", window_mean(x, 3))):
            whole[key] = forecast_metrics(to_scale(naive, scaler), target)["mse"]
        for key in METRICS:
            assert abs(got[key] - formulas[key]) <= 1e-12 * abs(formulas[key]), key
            assert abs(got[key] - whole[key]) <= 1e-12 * abs(whole[key]), key
        assert got["mape_excluded"] == formulas["mape_excluded"] == whole["mape_excluded"]

    def test_standardized_mse_is_evaluate_mse_bit_for_bit(self, tmp_path):
        data_path = tmp_path / "series.csv"
        write_series_csv(data_path, sine_mixture(300, num_variates=2, seed=7))
        raw = {
            "dataset": {"path": str(data_path), "split_ratio": "6:2:2"},
            "model": {"offsets": 2, "num_heads": 2, "rbf_grid": 3, "dropout": 0.0},
            "train": {"max_epochs": 2, "patience": 2, "batch_size": 32},
            "lookback": 8,
            "horizons": [3, 5],
        }
        config = experiment.ExperimentConfig.from_dict(raw)
        report = experiment.run_train(config, tmp_path / "out")
        for run in report["runs"]:
            model = Forecaster.load_checkpoint(tmp_path / "out" / run["checkpoint"])
            test_x, test_y = prepare_windows(config.dataset_spec(run["horizon"])).test
            assert run["metrics"]["mse"] == evaluate_mse(model, test_x, test_y, 256)

    def test_a_mismatched_horizon_is_a_data_error(self):
        model = Forecaster(ModelConfig(num_variates=3, lookback=8, horizon=3, offsets=2,
                                       num_heads=2, rbf_grid=3))
        x, y = windows(horizon=4)
        with pytest.raises(phasecast.DataError, match="metric shapes differ"):
            experiment._evaluate(model, (x, y))


def test_evaluation_memory_is_bounded_by_one_batch():
    # A fresh process, so the heap holds nothing from earlier tests. The
    # forecasts, a repeated baseline or a flattened target copy would each be
    # one [M, N, F] array (47 MiB here); holding them grew RSS by about 340 MiB.
    script = textwrap.dedent("""
        import resource
        import numpy as np
        from phasecast import experiment
        from phasecast.model import Forecaster, ModelConfig

        def rss():
            with open("/proc/self/statm") as fh:
                return int(fh.read().split()[1]) * resource.getpagesize()

        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((4000, 16, 96)), rng.standard_normal((4000, 16, 96))
        model = Forecaster(ModelConfig(num_variates=16))
        before = rss()
        experiment._evaluate(model, (x, y), batch_size=64)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        print(peak - before, y.nbytes)
    """)
    if not Path("/proc/self/statm").exists():
        pytest.skip("needs /proc/self/statm")
    src = str(Path(phasecast.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    growth, array_bytes = map(int, done.stdout.split())
    assert growth < array_bytes, (growth, array_bytes)
