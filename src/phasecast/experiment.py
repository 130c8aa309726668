"""Config-driven experiment runner behind the CLI.

A run is described by a single JSON file. Each section is checked against
its dataclass (``errors.check_section``): an unknown key or a value of the
wrong JSON type is a ``ConfigError``, so a typo'd hyperparameter can never
silently fall back to a default or run with a coerced value. Each run
writes ``report.json`` (canonical, embeds the resolved config snapshot)
plus ``table.csv`` with one flat metrics row per horizon or variant.
"""

from __future__ import annotations

import copy
import csv
import json
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .data import DatasetSpec, prepare_windows
from .errors import ConfigError, DataError, check_section
from .metrics import MetricSums, squared_error_sum, target_mean
from .model import SAME_MODEL_AS, Forecaster, ModelConfig, VARIANTS
from .training import TrainSchedule, _for_each_batch, grad_check_model, train_model

OFFSET_SEMANTICS = (
    "interleaved phases: sub-sequence u holds positions u, u+O, u+2O, ... of the lookback"
)


# The fields the run fills in itself: lookback, horizon and seed from the top
# level, N from the data. A config section sets every other field.
_SPEC_FILLED = ("lookback", "horizon")
_MODEL_FILLED = ("num_variates", "lookback", "horizon", "seed")


@dataclass
class ExperimentConfig:
    dataset: dict
    model: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    lookback: int = 96
    horizons: list[int] = field(default_factory=lambda: [96, 192, 336, 720])
    seed: int = 2024
    metrics_scale: str = "standardized"
    output_dir: str = "runs/latest"

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        raw = copy.deepcopy(raw)
        # report_format is retired; only its old default still loads.
        report_format = raw.pop("report_format", "json")
        if report_format != "json":
            raise ConfigError(f"report_format is no longer supported (got {report_format!r}): "
                              f"every run writes report.json and table.csv")
        check_section(cls, raw, "the top level")
        check_section(DatasetSpec, raw["dataset"], "'dataset'", _SPEC_FILLED)
        ModelConfig.check(raw.get("model", {}), "'model'", _MODEL_FILLED)
        check_section(TrainSchedule, raw.get("train", {}), "'train'", ("seed",))
        config = cls(**raw)
        if not config.horizons or min(config.horizons) < 1:
            raise ConfigError(f"'horizons' must be a non-empty list of positive ints, "
                              f"got {config.horizons}")
        if len(set(config.horizons)) != len(config.horizons):
            raise ConfigError(f"'horizons' repeats a value, got {config.horizons}: each "
                              f"horizon is trained once and has one checkpoint")
        if config.metrics_scale not in ("standardized", "raw"):
            raise ConfigError(f"metrics_scale must be 'standardized' or 'raw', "
                              f"got {config.metrics_scale!r}")
        # The snapshot lists every dataset field, as set or by default.
        config.dataset = {f.name: config.dataset.get(f.name, f.default)
                          for f in fields(DatasetSpec) if f.name not in _SPEC_FILLED}
        return config

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
        return asdict(self)

    def dataset_spec(self, horizon: int) -> DatasetSpec:
        return DatasetSpec(**self.dataset, lookback=self.lookback, horizon=horizon)

    def model_config(self, num_variates: int, horizon: int, variant: str | None = None) -> ModelConfig:
        section = dict(self.model, num_variates=num_variates, lookback=self.lookback,
                       horizon=horizon, seed=self.seed)
        if variant is not None:
            section["variant"] = variant
        return ModelConfig.from_dict(section, "'model'")  # validated when a model is built

    def schedule(self) -> TrainSchedule:
        sched = TrainSchedule(seed=self.seed, **self.train)
        sched.validate()
        return sched


def _report_skeleton(config: ExperimentConfig, mode: str) -> dict:
    return {
        "tool": {"name": "phasecast", "version": __version__},
        "mode": mode,
        "config": config.to_dict(),
        "seed": config.seed,
        "offset_split": {
            "offsets": config.model.get("offsets", ModelConfig.offsets),
            "semantics": OFFSET_SEMANTICS,
        },
        "metrics_scale": config.metrics_scale,
        "runs": [],
    }


def _evaluate(model: Forecaster, test, scaler=None, batch_size: int = 256) -> dict:
    """Test metrics plus naive-baseline references, summed batch by batch.

    Training always happens on the standardized scale; passing the fitted
    ``scaler`` maps each batch's forecasts, targets and baselines back to raw
    units first. The baselines broadcast each window's last value and its
    mean over the horizon. No ``[M, N, F]`` array is built: a first pass
    over the targets takes their mean (RSE's centre), and one pass through
    ``_for_each_batch`` adds every other sum in batch order.
    """
    test_x, test_y = test
    if scaler is None:
        def scaled(arr):
            return arr
    else:
        # windows are [M, N, steps]; scaler statistics are per variate
        std, offset = scaler.std[None, :, None], scaler.mean[None, :, None]

        def scaled(arr):
            return arr * std + offset

    sums = MetricSums(target_mean(scaled(test_y[lo:lo + batch_size])
                                  for lo in range(0, test_y.shape[0], batch_size)))
    last = mean = 0.0

    def add(lo, pred):
        nonlocal last, mean
        x, y = test_x[lo:lo + pred.shape[0]], scaled(test_y[lo:lo + pred.shape[0]])
        sums.add(scaled(pred), y)
        last += squared_error_sum(scaled(x[..., -1:]), y)
        mean += squared_error_sum(scaled(x.mean(axis=-1, keepdims=True)), y)

    _for_each_batch(model, test_x, batch_size, add)
    result = sums.result()
    result["baseline_repeat_last_mse"] = last / sums.count
    result["baseline_window_mean_mse"] = mean / sums.count
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
    prepared = None
    for horizon in (horizons or config.horizons):
        started = time.perf_counter()
        prepared = prepare_windows(config.dataset_spec(horizon), prepared)
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
    prepared = None
    for horizon in (horizons or config.horizons):
        prepared = prepare_windows(config.dataset_spec(horizon), prepared)
        raw_scaler = prepared.scaler if config.metrics_scale == "raw" else None
        variant_tag = variant or config.model.get("variant", ModelConfig.variant)
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
    if not 0 < tolerance < float("inf"):
        raise ConfigError(f"tolerance must be positive and finite, got {tolerance}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
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

    if length < 1:
        raise ConfigError(f"length must be at least 1, got {length}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sine_path = out / "sine_mixture.csv"
    trend_path = out / "linear_trend.csv"
    write_series_csv(sine_path, sine_mixture(length, num_variates=2, seed=seed))
    write_series_csv(trend_path, linear_trend(length, num_variates=2, seed=seed))
    return {"files": [str(sine_path), str(trend_path)], "length": length, "seed": seed}
