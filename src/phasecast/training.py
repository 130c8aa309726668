"""Optimizer, loss, epoch loop with early stopping, and the
finite-difference gradient checker used by the verification suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .tensor import NonFiniteError, Parameter, ShapeError, Tensor, as_tensor, no_grad


def mse_loss(pred, target) -> Tensor:
    pred, target = as_tensor(pred), as_tensor(target)
    if pred.shape != target.shape:
        raise ShapeError(f"loss shapes differ: {pred.shape} vs {target.shape}")
    return (pred - target).square().mean()


@dataclass
class TrainSchedule:
    max_epochs: int = 30
    patience: int = 3
    batch_size: int = 32
    learning_rate: float = 0.003
    seed: int = 2024
    clip_norm: float | None = None   # optional global-norm gradient clip
    lr_decay: float | None = None    # optional per-epoch exponential decay factor

    def validate(self) -> None:
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be positive, got {self.max_epochs}")
        if self.patience < 1 or self.patience > self.max_epochs:
            raise ConfigError(
                f"patience must be in [1, max_epochs], got {self.patience} with "
                f"max_epochs {self.max_epochs}"
            )
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be positive, got {self.batch_size}")
        if self.learning_rate < 0:
            raise ConfigError(f"learning_rate must be non-negative, got {self.learning_rate}")


class Adam:
    """Standard Adam with bias correction; gradients are zeroed after each step."""

    def __init__(self, params, lr: float = 0.003, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {id(p): np.zeros_like(p.data) for p in self.params}
        self.v = {id(p): np.zeros_like(p.data) for p in self.params}

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for p in self.params:
            if not p.trainable:
                continue
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if not np.all(np.isfinite(g)):
                raise NonFiniteError(f"non-finite gradient for {p.name}")
            m = self.m[id(p)]
            v = self.v[id(p)]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.data = p.data - self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
        self.zero_grad()


def clip_gradients(params, max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm


@dataclass
class TrainReport:
    train_losses: list = field(default_factory=list)
    val_losses: list = field(default_factory=list)
    best_epoch: int = 0
    stopped_epoch: int = 0
    wall_time_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "train_losses": self.train_losses,
            "val_losses": self.val_losses,
            "best_epoch": self.best_epoch,
            "stopped_epoch": self.stopped_epoch,
            "wall_time_s": self.wall_time_s,
        }


def predict(model, inputs: np.ndarray, batch_size: int = 256) -> np.ndarray:
    """Forecasts [M, N, F] for a window set, in batches, in eval mode and without a tape.

    This is the one inference path: validation and test both go through it.
    The model's training flag is restored afterwards, also when a batch raises.
    """
    if inputs.shape[0] == 0:
        raise DataError("evaluation over an empty window set")
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            preds = [model.forward(inputs[lo:lo + batch_size]).data
                     for lo in range(0, inputs.shape[0], batch_size)]
    finally:
        if was_training:
            model.train()
    return np.concatenate(preds, axis=0)


def evaluate_mse(model, inputs: np.ndarray, targets: np.ndarray, batch_size: int = 256) -> float:
    """Mean squared error of the model over a window set (see ``predict``)."""
    pred = predict(model, inputs, batch_size)
    # Summed batch by batch: a fixed summation order keeps the value, and the
    # early stopping that reads it, the same bit for bit across batch layouts.
    total = 0.0
    for lo in range(0, pred.shape[0], batch_size):
        total += float(((pred[lo:lo + batch_size] - targets[lo:lo + batch_size]) ** 2).sum())
    return total / targets.size


def train_model(model, train_windows, val_windows, schedule: TrainSchedule,
                val_loss_fn=None) -> TrainReport:
    """Run the epoch loop with early stopping and best-checkpoint restoration.

    ``train_windows`` and ``val_windows`` are (inputs, targets) array pairs
    shaped [M, N, L] and [M, N, F]. ``val_loss_fn(model)`` may replace the
    default validation MSE (used by tests to inject curves).

    Stops once validation fails to improve for ``patience`` consecutive
    epochs and restores the best-validation weights before returning.
    """
    schedule.validate()
    train_x, train_y = train_windows
    val_x, val_y = val_windows
    if train_x.shape[0] == 0:
        raise DataError("training split produced no windows")
    if val_loss_fn is None and val_x.shape[0] == 0:
        raise DataError("validation split produced no windows")

    rng = np.random.default_rng(schedule.seed)
    opt = Adam(model.parameters(), lr=schedule.learning_rate)
    report = TrainReport()
    best_val = np.inf
    best_state = model.state_dict()
    bad_epochs = 0
    started = time.perf_counter()

    for epoch in range(1, schedule.max_epochs + 1):
        model.train()
        order = rng.permutation(train_x.shape[0])
        epoch_loss = 0.0
        batches = 0
        for lo in range(0, len(order), schedule.batch_size):
            idx = order[lo:lo + schedule.batch_size]
            pred = model.forward(train_x[idx])
            loss = mse_loss(pred, Tensor(train_y[idx].astype(pred.data.dtype, copy=False)))
            opt.zero_grad()
            loss.backward()
            if schedule.clip_norm is not None:
                clip_gradients(opt.params, schedule.clip_norm)
            opt.step()
            epoch_loss += loss.item()
            batches += 1
            del pred, loss  # frees this step's graph before the next forward builds one
        model.eval()
        report.train_losses.append(epoch_loss / batches)

        if val_loss_fn is not None:
            val = float(val_loss_fn(model))
        else:
            val = evaluate_mse(model, val_x, val_y)
        report.val_losses.append(val)

        if val < best_val:
            best_val = val
            best_state = model.state_dict()
            report.best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
        report.stopped_epoch = epoch
        if bad_epochs >= schedule.patience:
            break
        if schedule.lr_decay is not None:
            opt.lr *= schedule.lr_decay

    model.load_state_dict(best_state)
    model.eval()
    report.wall_time_s = time.perf_counter() - started
    return report


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_name: str
    coords_checked: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance

    def to_dict(self) -> dict:
        return {
            "max_rel_error": self.max_rel_error,
            "worst_name": self.worst_name,
            "coords_checked": self.coords_checked,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def grad_check(loss_fn, params, step: float = 1e-5, tolerance: float = 1e-4,
               denom_floor: float = 1e-4) -> GradCheckReport:
    """Compare analytic gradients with central finite differences.

    Walks every coordinate of every parameter: perturbs it by +/-step,
    re-evaluates ``loss_fn()`` and forms (f+ - f-) / (2 step). The relative
    error divides by max(|analytic|, |numeric|, denom_floor) so that
    coordinates with near-zero gradients are judged on the absolute scale
    where finite-difference round-off dominates.
    """
    params = [p for p in params if isinstance(p, Parameter) and p.trainable]
    for p in params:
        p.zero_grad()
    loss = loss_fn()
    loss.backward()
    analytic = {p.name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for p in params}

    worst = 0.0
    worst_name = ""
    checked = 0
    for p in params:
        flat = p.data.reshape(-1)
        grads = analytic[p.name].reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            plus = loss_fn().item()
            flat[i] = original - step
            minus = loss_fn().item()
            flat[i] = original
            numeric = (plus - minus) / (2.0 * step)
            a = float(grads[i])
            if a == numeric:
                rel = 0.0
            else:
                rel = abs(a - numeric) / max(abs(a), abs(numeric), denom_floor)
            checked += 1
            if rel > worst:
                worst = rel
                worst_name = f"{p.name}[{i}]"
    return GradCheckReport(max_rel_error=worst, worst_name=worst_name,
                           coords_checked=checked, tolerance=tolerance)


def grad_check_model(model, x: np.ndarray, y: np.ndarray,
                     tolerance: float = 1e-4, step: float = 1e-5) -> GradCheckReport:
    """Finite-difference check of a model end to end against an MSE loss."""
    model.eval()
    target = Tensor(y)

    def loss_fn():
        return mse_loss(model.forward(x), target)

    return grad_check(loss_fn, model.parameters(), step=step, tolerance=tolerance)
