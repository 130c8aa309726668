"""Forecast accuracy metrics and the naive reference predictors.

All five metrics are computed over every element of the evaluated set, so
RMSE is exactly the square root of MSE and the relative squared error
normalizes by deviations from the set-wide target mean. MAPE excludes
elements whose target magnitude is below a threshold and reports how many
were dropped.

A set is scored batch by batch: ``MetricSums`` adds each batch's sums in
batch order, so no set-sized array is ever built, and ``forecast_metrics``
is its one-batch case. RSE's centre, the set-wide target mean, comes from a
first pass over the target batches (``target_mean``).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError


def _square_sum(a: np.ndarray) -> float:
    return float((a ** 2).sum())


def squared_error_sum(pred, target) -> float:
    """Sum of (pred - target)^2 over one batch; ``pred`` may broadcast against ``target``."""
    return _square_sum(pred - target)


def target_mean(batches) -> float:
    """The mean of every element of an iterable of target batches, summed in batch order."""
    total, count = 0.0, 0
    for batch in batches:
        total += float(batch.sum())
        count += batch.size
    if count == 0:
        raise DataError("metrics over an empty array")
    return total / count


class MetricSums:
    """The running sums behind ``forecast_metrics``, added one batch at a time.

    ``centre`` is the set-wide target mean (``target_mean``). ``add`` takes a
    batch of forecasts and targets of one shape, and ``result`` gives the
    metrics of every batch added so far.
    """

    def __init__(self, centre: float, mape_zero_threshold: float = 1e-8):
        self.centre = centre
        self.threshold = mape_zero_threshold
        self.count = self.mape_used = 0
        self.squared = self.absolute = self.centred = self.percentage = 0.0

    def add(self, pred, target) -> None:
        if pred.shape != target.shape:
            raise DataError(f"metric shapes differ: {pred.shape} vs {target.shape}")
        err = pred - target
        self.count += err.size
        self.squared += _square_sum(err)
        self.absolute += float(np.abs(err).sum())
        self.centred += _square_sum(target - self.centre)
        usable = np.abs(target) >= self.threshold
        self.percentage += float(np.abs(err[usable] / target[usable]).sum())
        self.mape_used += int(np.count_nonzero(usable))

    def result(self) -> dict:
        n = self.count
        if n == 0:
            raise DataError("metrics over an empty array")
        mse = self.squared / n
        if self.centred == 0.0:
            rse = 0.0 if self.squared == 0.0 else float("inf")
        else:
            rse = math.sqrt(self.squared) / math.sqrt(self.centred)
        return {
            "mse": mse,
            "mae": self.absolute / n,
            "rmse": math.sqrt(mse),
            "rse": rse,
            "mape": self.percentage / self.mape_used if self.mape_used else float("nan"),
            "mape_excluded": n - self.mape_used,
        }


def forecast_metrics(pred, target, mape_zero_threshold: float = 1e-8) -> dict:
    """The five metrics of one forecast set, as one batch of ``MetricSums``."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise DataError(f"metric shapes differ: {pred.shape} vs {target.shape}")
    if pred.size == 0:
        raise DataError("metrics over an empty array")
    p = pred.reshape(-1)
    y = target.reshape(-1)
    sums = MetricSums(target_mean([y]), mape_zero_threshold)
    sums.add(p, y)
    return sums.result()


def repeat_last(inputs: np.ndarray, horizon: int) -> np.ndarray:
    """Hold the final observed value flat across the horizon. [M, N, L] -> [M, N, F]."""
    last = inputs[..., -1:]
    return np.repeat(last, horizon, axis=-1)


def window_mean(inputs: np.ndarray, horizon: int) -> np.ndarray:
    """Predict the per-window per-variate mean of the lookback. [M, N, L] -> [M, N, F]."""
    mean = inputs.mean(axis=-1, keepdims=True)
    return np.repeat(mean, horizon, axis=-1)
