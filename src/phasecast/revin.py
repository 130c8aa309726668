"""Reversible per-instance normalization for [B, N, L] series batches.

Each window of each variate is standardized against its own mean and
population standard deviation over the lookback axis; the recorded
statistics invert the transform after the prediction head. The optional
learnable affine (one gamma/beta pair per variate) can be disabled for
ablation parity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import Module
from .tensor import (
    Parameter,
    ShapeError,
    Tensor,
    as_tensor,
    revin_denormalize,
    revin_normalize,
)


@dataclass
class RevinState:
    """Per-forward statistics captured by normalize(), consumed by denormalize()."""

    mean: np.ndarray  # [B, N, 1]
    std: np.ndarray   # [B, N, 1], clamped to >= eps


class RevIN(Module):
    def __init__(self, num_variates: int, affine: bool = True, eps: float = 1e-5,
                 name: str = "revin"):
        self.num_variates = num_variates
        self.eps = eps
        self.affine = affine
        if affine:
            self.gamma = Parameter(np.ones(num_variates), f"{name}.gamma")
            self.beta = Parameter(np.zeros(num_variates), f"{name}.beta")
        else:
            self.gamma = None
            self.beta = None

    def normalize(self, x) -> tuple[Tensor, RevinState]:
        x = as_tensor(x)
        if x.ndim != 3 or x.shape[1] != self.num_variates:
            raise ShapeError(f"expected [B, {self.num_variates}, L], got {x.shape}")
        if x.shape[2] < 2:
            raise ShapeError(f"lookback must be at least 2 steps, got {x.shape[2]}")
        # Window statistics come straight from the input data, which is a
        # gradient-free leaf, so they are computed outside the tape.
        mean = x.data.mean(axis=2, keepdims=True)
        var = x.data.var(axis=2, keepdims=True)  # population variance
        std = np.maximum(np.sqrt(var), self.eps)
        state = RevinState(mean=mean, std=std)
        return revin_normalize(x, mean, std, self.gamma, self.beta), state

    def denormalize(self, y, state: RevinState) -> Tensor:
        y = as_tensor(y)
        if y.ndim != 3 or y.shape[0] != state.mean.shape[0] or y.shape[1] != state.mean.shape[1]:
            raise ShapeError(
                f"denormalize shape {y.shape} does not match state batch {state.mean.shape[:2]}"
            )
        # The eps^2 floor (as in reference RevIN) keeps gamma = 0 finite.
        return revin_denormalize(y, state.mean, state.std, self.gamma, self.beta, self.eps)
