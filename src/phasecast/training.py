"""Optimizer, loss, epoch loop with early stopping, and the
finite-difference gradient checkers used by the verification suite.
"""

from __future__ import annotations

import ctypes
import functools
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .metrics import squared_error_sum
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
        if not 0 <= self.learning_rate < math.inf:
            raise ConfigError(
                f"learning_rate must be non-negative and finite, got {self.learning_rate}")
        # A clip norm <= 0 flips or zeroes every gradient; a decay <= 0 zeroes
        # or flips the learning rate after the first epoch.
        for name in ("clip_norm", "lr_decay"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


class Adam:
    """Standard Adam with bias correction over flat ``data``, ``grad``, ``m`` and ``v`` arrays.

    The parameters are packed into them in list order, and each parameter's
    ``data`` and ``grad`` become views: write ``p.grad[...] = x``, not ``p.grad = x``.
    A step works in two preallocated flat buffers with ``out=`` arithmetic,
    in the order of the textbook formula, so it allocates nothing buffer-sized.
    """

    def __init__(self, params, lr: float = 0.003, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.data = np.concatenate([p.data.reshape(-1) for p in self.params])
        self.grad = np.concatenate([p.grad.reshape(-1) for p in self.params], dtype=self.data.dtype)
        lo = 0
        for p in self.params:
            p.data, p.grad = (flat[lo:lo + p.size].reshape(p.shape) for flat in (self.data, self.grad))
            lo += p.size
        self.m = np.zeros_like(self.data)
        self.v = np.zeros_like(self.data)
        self._work = np.empty((2,) + self.data.shape, self.data.dtype)

    def step(self) -> None:
        # The whole gradient is scanned before any update, so a non-finite one
        # leaves the parameters, the moments and t as they were.
        g = self.grad
        finite = np.isfinite(g)
        if not finite.all():
            owner = np.searchsorted(np.cumsum([p.size for p in self.params]),
                                    np.argmin(finite), side="right")
            raise NonFiniteError(f"non-finite gradient for {self.params[owner].name}")
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        a, b = self._work
        # m = beta1 * m + (1 - beta1) * g
        self.m *= self.beta1
        self.m += np.multiply(g, 1.0 - self.beta1, out=a)
        # v = beta2 * v + (1 - beta2) * g^2
        self.v *= self.beta2
        np.multiply(g, g, out=a)
        a *= 1.0 - self.beta2
        self.v += a
        # data -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
        np.divide(self.m, bc1, out=a)
        a *= self.lr
        np.divide(self.v, bc2, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        a /= b
        self.data -= a
        g.fill(0)


def clip_gradients(grad: np.ndarray, max_norm: float) -> float:
    """Scale a flat gradient in place to L2 norm at most ``max_norm``; return the norm before."""
    norm = float(np.sqrt(np.dot(grad, grad)))
    if norm > max_norm and norm > 0:
        grad *= max_norm / norm
    return norm


@dataclass
class TrainReport:
    train_losses: list = field(default_factory=list)
    val_losses: list = field(default_factory=list)
    best_epoch: int = 0
    stopped_epoch: int = 0
    wall_time_s: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


def _for_each_batch(model, inputs: np.ndarray, batch_size: int, consume) -> None:
    """Run the model over a window set in batches, in eval mode and without a tape.

    This is the one inference path: ``predict``, ``evaluate_mse`` (so
    validation) and the test metrics of ``experiment._evaluate`` all go
    through it. ``consume(lo, pred)`` gets each batch's forecast, whose first
    window is ``inputs[lo]``, and the loop keeps no reference to it, so a
    batch's forecast is freed before the next forward unless ``consume``
    keeps it. The model's training flag is restored afterwards, also when a
    forward or ``consume`` raises.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be positive, got {batch_size}")
    if inputs.shape[0] == 0:
        raise DataError("evaluation over an empty window set")
    _hold_heap()
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            for lo in range(0, inputs.shape[0], batch_size):
                consume(lo, model.forward(inputs[lo:lo + batch_size]).data)
    finally:
        if was_training:
            model.train()


def predict(model, inputs: np.ndarray, batch_size: int = 256) -> np.ndarray:
    """Forecasts [M, N, F] for a window set (see ``_for_each_batch``).

    Each batch is written into one array, allocated at the first batch in the
    forecast's dtype.
    """
    out = None

    def write(lo, pred):
        nonlocal out
        if out is None:
            out = np.empty((inputs.shape[0],) + pred.shape[1:], pred.dtype)
        out[lo:lo + pred.shape[0]] = pred

    _for_each_batch(model, inputs, batch_size, write)
    return out


def evaluate_mse(model, inputs: np.ndarray, targets: np.ndarray, batch_size: int = 256) -> float:
    """Mean squared error of the model over a window set; keeps no forecast.

    ``targets`` must be [M, N, F] for the model's N and F and the M windows of
    ``inputs``; any other shape is a ``DataError`` before any forward.
    """
    cfg = model.config
    expected = (inputs.shape[0], cfg.num_variates, cfg.horizon)
    if targets.shape != expected:
        raise DataError(f"targets are {targets.shape}; {inputs.shape[0]} windows of a model "
                        f"with N = {cfg.num_variates}, F = {cfg.horizon} forecast {expected}")
    total = 0.0

    # Summed batch by batch: a fixed summation order keeps the value, and the
    # early stopping that reads it, the same bit for bit across batch layouts.
    def add(lo, pred):
        nonlocal total
        total += squared_error_sum(pred, targets[lo:lo + pred.shape[0]])

    _for_each_batch(model, inputs, batch_size, add)
    return total / targets.size


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8  # glibc's mallopt parameters


@functools.cache
def _hold_heap() -> None:
    """Keep freed step memory mapped in glibc's heap, in one arena, once per process.

    Each train step frees its graph and each inference batch its forward's
    arrays, and by default glibc trims the free heap top and unmaps large
    blocks, so the next step or batch faults the same pages back in. Raising
    the trim threshold keeps them. The mmap threshold is set with it: the
    trim threshold alone turns off glibc's dynamic mmap threshold, which then
    stays at 128 KiB. The forward's worker threads (``model.worker_count``)
    share the one arena: each thread would otherwise allocate from an arena
    of its own and keep that arena's high-water mark. This runs before the
    first worker starts. Where libc has no ``mallopt`` this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_ARENA_MAX, 1)
    mallopt(_M_MMAP_THRESHOLD, 32 * 2**20)
    mallopt(_M_TRIM_THRESHOLD, 512 * 2**20)


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
    _hold_heap()
    train_x, train_y = train_windows
    val_x, val_y = val_windows
    if train_x.shape[0] == 0:
        raise DataError("training split produced no windows")
    if val_loss_fn is None and val_x.shape[0] == 0:
        raise DataError("validation split produced no windows")

    rng = np.random.default_rng(schedule.seed)
    opt = Adam(model.parameters(), lr=schedule.learning_rate)
    opt.grad.fill(0)  # a gradient left from before training must not enter the first step
    report = TrainReport()
    best_val = np.inf
    best_state = opt.data.copy()
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
            loss.backward()
            if schedule.clip_norm is not None:
                clip_gradients(opt.grad, schedule.clip_norm)
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
            best_state = opt.data.copy()
            report.best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
        report.stopped_epoch = epoch
        if bad_epochs >= schedule.patience:
            break
        if schedule.lr_decay is not None:
            opt.lr *= schedule.lr_decay

    opt.data[...] = best_state
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
        return {**asdict(self), "passed": self.passed}


def grad_check(loss_fn, params, step: float = 1e-5, tolerance: float = 1e-4,
               denom_floor: float = 1e-4) -> GradCheckReport:
    """Compare analytic gradients with central finite differences.

    Walks every coordinate of every parameter: perturbs it by +/-step,
    re-evaluates ``loss_fn()`` and forms (f+ - f-) / (2 step). The relative
    error divides by max(|analytic|, |numeric|, denom_floor) so that
    coordinates with near-zero gradients are judged on the absolute scale
    where finite-difference round-off dominates. Only the analytic pass
    records a tape; the perturbed probes run under ``no_grad``.
    """
    params = [p for p in params if isinstance(p, Parameter) and p.trainable]
    for p in params:
        p.zero_grad()
    loss = loss_fn()
    loss.backward()
    analytic = {p.name: p.grad.copy() for p in params}

    worst = 0.0
    worst_name = ""
    checked = 0
    with no_grad():
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


def directional_grad_check(loss_fn, params, directions: int = 4, step: float = 1e-4,
                           tolerance: float = 1e-6, seed: int = 0) -> GradCheckReport:
    """Compare the tape's gradient with central differences along random directions.

    The parameters are packed into one flat vector (an ``Adam``'s ``data``,
    whose views they become), and for each random unit vector u the
    directional derivative ``g . u`` is compared with
    ``(L(theta + step u) - L(theta - step u)) / (2 step)``. Two probes check
    every coordinate at once, so this runs at shapes where ``grad_check``'s
    walk over each coordinate would take hundreds of thousands of forwards.
    The relative error divides by the larger magnitude of the two. Only the
    analytic pass records a tape; ``loss_fn`` must repeat its value for the
    same parameters (restore any dropout generator inside it).
    """
    params = [p for p in params if isinstance(p, Parameter) and p.trainable]
    flat = Adam(params)
    flat.grad.fill(0)
    loss_fn().backward()
    grad = flat.grad.copy()
    centre = flat.data.copy()
    rng = np.random.default_rng(seed)
    worst, worst_name = 0.0, ""
    with no_grad():
        for k in range(directions):
            u = rng.standard_normal(centre.size)
            u /= np.sqrt(np.dot(u, u))
            flat.data[...] = centre + step * u
            plus = loss_fn().item()
            flat.data[...] = centre - step * u
            minus = loss_fn().item()
            flat.data[...] = centre
            analytic, numeric = float(np.dot(grad, u)), (plus - minus) / (2.0 * step)
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), np.finfo(float).tiny)
            if rel > worst:
                worst, worst_name = rel, f"direction {k}"
    return GradCheckReport(max_rel_error=worst, worst_name=worst_name,
                           coords_checked=centre.size, tolerance=tolerance)


def grad_check_model(model, x: np.ndarray, y: np.ndarray,
                     tolerance: float = 1e-4, step: float = 1e-5) -> GradCheckReport:
    """Finite-difference check of a model end to end against an MSE loss."""
    model.eval()
    target = Tensor(y)

    def loss_fn():
        return mse_loss(model.forward(x), target)

    return grad_check(loss_fn, model.parameters(), step=step, tolerance=tolerance)
