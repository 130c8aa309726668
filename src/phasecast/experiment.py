"""Config-driven experiment runner behind the CLI.

A run is described by a single JSON file. Unknown keys are rejected at
every nesting level so a typo'd hyperparameter can never silently fall
back to a default. Each run writes ``report.json`` (canonical, embeds the
resolved config snapshot) plus ``table.csv`` with one flat metrics row
per horizon or variant.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .data import DatasetSpec, prepare_windows
from .errors import ConfigError, DataError
from .metrics import forecast_metrics, repeat_last, window_mean
from .model import SAME_MODEL_AS, Forecaster, ModelConfig, VARIANTS
from .training import TrainSchedule, grad_check_model, predict, train_model

OFFSET_SEMANTICS = (
    "interleaved phases: sub-sequence u holds positions u, u+O, u+2O, ... of the lookback"
)

_DATASET_KEYS = {"path", "split_ratio", "columns", "forward_fill", "sort_on_disorder"}
# per_offset_kan is retired; ModelConfig.from_dict accepts only its old default.
_MODEL_KEYS = {
    "offsets", "num_heads", "rbf_grid", "rbf_span", "kan_prenorm", "per_offset_kan",
    "mlp_hidden", "conv_kernel", "dropout", "depth", "variant", "revin_affine", "precision",
}
_TRAIN_KEYS = {"max_epochs", "patience", "batch_size", "learning_rate", "clip_norm", "lr_decay"}
_TOP_KEYS = {
    "dataset", "model", "train", "lookback", "horizons", "seed",
    "metrics_scale", "output_dir", "report_format",
}


def _reject_unknown(section: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown config key(s) {unknown} in {where}")


@dataclass
class ExperimentConfig:
    dataset_path: str
    split_ratio: str = "6:2:2"
    columns: list | None = None
    forward_fill: bool = False
    sort_on_disorder: bool = False
    lookback: int = 96
    horizons: list = field(default_factory=lambda: [96, 192, 336, 720])
    seed: int = 2024
    metrics_scale: str = "standardized"
    output_dir: str = "runs/latest"
    report_format: str = "json"
    model: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        _reject_unknown(raw, _TOP_KEYS, "the top level")
        dataset = raw.get("dataset")
        if not isinstance(dataset, dict) or "path" not in dataset:
            raise ConfigError("config needs a 'dataset' object with a 'path'")
        _reject_unknown(dataset, _DATASET_KEYS, "'dataset'")
        model = raw.get("model", {})
        _reject_unknown(model, _MODEL_KEYS, "'model'")
        train = raw.get("train", {})
        _reject_unknown(train, _TRAIN_KEYS, "'train'")

        horizons = raw.get("horizons", [96, 192, 336, 720])
        if not isinstance(horizons, list) or not horizons or \
                not all(isinstance(h, int) and h > 0 for h in horizons):
            raise ConfigError(f"'horizons' must be a non-empty list of positive ints, got {horizons}")
        metrics_scale = raw.get("metrics_scale", "standardized")
        if metrics_scale not in ("standardized", "raw"):
            raise ConfigError(f"metrics_scale must be 'standardized' or 'raw', got {metrics_scale!r}")
        report_format = raw.get("report_format", "json")
        if report_format not in ("json", "csv-table"):
            raise ConfigError(f"report_format must be 'json' or 'csv-table', got {report_format!r}")

        cfg = cls(
            dataset_path=dataset["path"],
            split_ratio=dataset.get("split_ratio", "6:2:2"),
            columns=dataset.get("columns"),
            forward_fill=bool(dataset.get("forward_fill", False)),
            sort_on_disorder=bool(dataset.get("sort_on_disorder", False)),
            lookback=int(raw.get("lookback", 96)),
            horizons=list(horizons),
            seed=int(raw.get("seed", 2024)),
            metrics_scale=metrics_scale,
            output_dir=raw.get("output_dir", "runs/latest"),
            report_format=report_format,
            model=dict(model),
            train=dict(train),
        )
        return cfg

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as err:
            raise ConfigError(f"config file {path} is not valid JSON: {err}") from None
        return cls.from_dict(raw)

    def to_dict(self) -> dict:
        return {
            "dataset": {
                "path": str(self.dataset_path),
                "split_ratio": self.split_ratio,
                "columns": self.columns,
                "forward_fill": self.forward_fill,
                "sort_on_disorder": self.sort_on_disorder,
            },
            "model": dict(self.model),
            "train": dict(self.train),
            "lookback": self.lookback,
            "horizons": list(self.horizons),
            "seed": self.seed,
            "metrics_scale": self.metrics_scale,
            "output_dir": str(self.output_dir),
            "report_format": self.report_format,
        }

    def dataset_spec(self, horizon: int) -> DatasetSpec:
        return DatasetSpec(
            path=self.dataset_path,
            split_ratio=self.split_ratio,
            lookback=self.lookback,
            horizon=horizon,
            columns=self.columns,
            forward_fill=self.forward_fill,
            sort_on_disorder=self.sort_on_disorder,
        )

    def model_config(self, num_variates: int, horizon: int, variant: str | None = None) -> ModelConfig:
        fields = dict(self.model, num_variates=num_variates, lookback=self.lookback,
                      horizon=horizon, seed=self.seed)
        if variant is not None:
            fields["variant"] = variant
        try:
            cfg = ModelConfig.from_dict(fields)
        except TypeError as err:
            raise ConfigError(f"bad model config: {err}") from None
        cfg.validate()
        return cfg

    def schedule(self) -> TrainSchedule:
        try:
            sched = TrainSchedule(seed=self.seed, **self.train)
        except TypeError as err:
            raise ConfigError(f"bad train config: {err}") from None
        sched.validate()
        return sched


def _report_skeleton(config: ExperimentConfig, mode: str) -> dict:
    model_cfg = dict(config.model)
    return {
        "tool": {"name": "phasecast", "version": __version__},
        "mode": mode,
        "config": config.to_dict(),
        "seed": config.seed,
        "offset_split": {
            "offsets": model_cfg.get("offsets", 4),
            "semantics": OFFSET_SEMANTICS,
        },
        "metrics_scale": config.metrics_scale,
        "runs": [],
    }


def _evaluate(model: Forecaster, test, scaler=None, batch_size: int = 256) -> dict:
    """Test metrics plus naive-baseline references.

    Training always happens on the standardized scale; passing the fitted
    ``scaler`` maps predictions and targets back to raw units first.
    """
    test_x, test_y = test
    pred = predict(model, test_x, batch_size)
    horizon = test_y.shape[-1]
    naive_last = repeat_last(test_x, horizon)
    naive_mean = window_mean(test_x, horizon)
    if scaler is not None:
        def to_raw(arr):
            # windows are [M, N, steps]; scaler statistics are per variate
            return arr * scaler.std[None, :, None] + scaler.mean[None, :, None]

        pred, test_y = to_raw(pred), to_raw(test_y)
        naive_last, naive_mean = to_raw(naive_last), to_raw(naive_mean)
    result = forecast_metrics(pred, test_y)
    result["baseline_repeat_last_mse"] = forecast_metrics(naive_last, test_y)["mse"]
    result["baseline_window_mean_mse"] = forecast_metrics(naive_mean, test_y)["mse"]
    return result


def _write_report(out_dir: Path, report: dict) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "report.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    table_path = out_dir / "table.csv"
    metric_keys = ["mse", "mae", "rmse", "rse", "mape", "mape_excluded"]
    with open(table_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["horizon", "variant", *metric_keys, "parameter_count"])
        for run in report["runs"]:
            writer.writerow(
                [run["horizon"], run["variant"]]
                + [run["metrics"].get(k, "") for k in metric_keys]
                + [run.get("parameter_count", "")]
            )
    return report_path


def _checkpoint_name(horizon: int, variant: str) -> str:
    safe = variant.replace("-", "_")
    return f"checkpoint_h{horizon}_{safe}.json"


def run_train(config: ExperimentConfig, out_dir, variant: str | None = None,
              horizons: list | None = None) -> dict:
    out = Path(out_dir)
    report = _report_skeleton(config, "train")
    for horizon in (horizons or config.horizons):
        started = time.perf_counter()
        prepared = prepare_windows(config.dataset_spec(horizon))
        raw_scaler = prepared.scaler if config.metrics_scale == "raw" else None
        n = prepared.dataset.num_variates
        model_cfg = config.model_config(n, horizon, variant)
        model = Forecaster(model_cfg)
        train_report = train_model(model, prepared.train, prepared.val, config.schedule())
        metrics = _evaluate(model, prepared.test, scaler=raw_scaler)
        out.mkdir(parents=True, exist_ok=True)
        ckpt = _checkpoint_name(horizon, model_cfg.variant)
        model.save_checkpoint(out / ckpt)
        report["runs"].append({
            "horizon": horizon,
            "variant": model_cfg.variant,
            "metrics": metrics,
            "train_report": train_report.to_dict(),
            "parameter_count": model.parameter_count(),
            "checkpoint": ckpt,
            "wall_time_s": time.perf_counter() - started,
        })
    _write_report(out, report)
    return report


def run_eval(config: ExperimentConfig, out_dir, variant: str | None = None,
             horizons: list | None = None) -> dict:
    out = Path(out_dir)
    report = _report_skeleton(config, "eval")
    for horizon in (horizons or config.horizons):
        prepared = prepare_windows(config.dataset_spec(horizon))
        raw_scaler = prepared.scaler if config.metrics_scale == "raw" else None
        variant_tag = variant or config.model.get("variant", "full")
        ckpt_path = out / _checkpoint_name(horizon, variant_tag)
        if not ckpt_path.exists():
            raise DataError(f"no checkpoint at {ckpt_path}; run the train subcommand first")
        model = Forecaster.load_checkpoint(ckpt_path)
        metrics = _evaluate(model, prepared.test, scaler=raw_scaler)
        report["runs"].append({
            "horizon": horizon,
            "variant": model.config.variant,
            "metrics": metrics,
            "parameter_count": model.parameter_count(),
            "checkpoint": ckpt_path.name,
        })
    _write_report(out, report)
    return report


def run_ablate(config: ExperimentConfig, out_dir, horizon: int | None = None,
               variants: tuple = VARIANTS) -> dict:
    out = Path(out_dir)
    chosen = horizon or config.horizons[0]
    prepared = prepare_windows(config.dataset_spec(chosen))
    raw_scaler = prepared.scaler if config.metrics_scale == "raw" else None
    n = prepared.dataset.num_variates
    report = _report_skeleton(config, "ablate")
    results = {}  # one trained model per distinct build; aliased tags share its row
    for tag in variants:
        build = SAME_MODEL_AS.get(tag, tag)
        if build not in results:
            started = time.perf_counter()
            model = Forecaster(config.model_config(n, chosen, tag))
            train_report = train_model(model, prepared.train, prepared.val, config.schedule())
            results[build] = {
                "metrics": _evaluate(model, prepared.test, scaler=raw_scaler),
                "train_report": train_report.to_dict(),
                "parameter_count": model.parameter_count(),
                "wall_time_s": time.perf_counter() - started,
            }
        report["runs"].append({"horizon": chosen, "variant": tag, **results[build]})
    _write_report(out, report)
    return report


def run_gradcheck(out_dir=None, seed: int = 2024, tolerance: float = 1e-4) -> dict:
    """Finite-difference check of a small model of every variant; returns a summary."""
    rng = np.random.default_rng(seed)
    results = {}
    for tag in VARIANTS:
        cfg = ModelConfig(
            num_variates=2, lookback=8, horizon=3, offsets=2, num_heads=2,
            rbf_grid=3, dropout=0.0, variant=tag, seed=seed,
        )
        model = Forecaster(cfg)
        x = rng.standard_normal((1, 2, 8))
        y = rng.standard_normal((1, 2, 3))
        results[tag] = grad_check_model(model, x, y, tolerance=tolerance).to_dict()
    summary = {
        "tool": {"name": "phasecast", "version": __version__},
        "mode": "gradcheck",
        "tolerance": tolerance,
        "results": results,
        "passed": all(r["passed"] for r in results.values()),
    }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "gradcheck.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


def run_synth(out_dir, seed: int = 2024, length: int = 2000) -> dict:
    """Write the deterministic synthetic datasets used by the verification suite."""
    from .synthetic import linear_trend, sine_mixture, write_series_csv

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sine_path = out / "sine_mixture.csv"
    trend_path = out / "linear_trend.csv"
    write_series_csv(sine_path, sine_mixture(length, num_variates=2, seed=seed))
    write_series_csv(trend_path, linear_trend(length, num_variates=2, seed=seed))
    return {"files": [str(sine_path), str(trend_path)], "length": length, "seed": seed}
