"""Interleaved offset splitting of a lookback window and its exact inverse.

A series of length L is divided into O sub-sequences by phase: sub u
holds positions u, u+O, u+2O, ... so each sub-sequence is the original
series downsampled by factor O starting at offset u. The O sub-sequences
of a [B, N, L] batch are stacked offset-major into one [O*B, N, L // O]
tensor (rows u*B .. u*B + B - 1 hold sub u), so every later stage treats
the offsets as part of the batch. Merging puts element t of sub u back at
position u + t*O; the round trip is bit-exact.
"""

from __future__ import annotations

from .errors import ConfigError
from .tensor import ShapeError, Tensor, as_tensor, reshape, transpose


class OffsetConfigError(ConfigError):
    """Raised when the offset count does not divide the window length."""


def split_offsets(x, offsets: int) -> Tensor:
    """Stack the ``offsets`` phase sub-sequences of [B, N, L] into [O*B, N, L // O]."""
    x = as_tensor(x)
    if x.ndim != 3:
        raise ShapeError(f"offset split expects [B, N, L], got {x.shape}")
    batch, variates, length = x.shape
    if offsets < 1 or offsets > length:
        raise OffsetConfigError(f"offset count {offsets} invalid for length {length}")
    if length % offsets != 0:
        raise OffsetConfigError(
            f"length {length} is not divisible by offset count {offsets}; adjust the lookback"
        )
    sub_len = length // offsets
    # Position u + t*O is element [t, u] of the [T, O] view of the time axis.
    phases = transpose(reshape(x, (batch, variates, sub_len, offsets)), (3, 0, 1, 2))
    return reshape(phases, (offsets * batch, variates, sub_len))


def merge_offsets(stacked, offsets: int) -> Tensor:
    """Inverse of ``split_offsets``: [O*B, N, T] back to [B, N, T*O]."""
    stacked = as_tensor(stacked)
    if stacked.ndim != 3 or offsets < 1 or stacked.shape[0] % offsets != 0:
        raise ShapeError(f"cannot merge {stacked.shape} as {offsets} stacked offsets")
    rows, variates, sub_len = stacked.shape
    batch = rows // offsets
    phases = transpose(reshape(stacked, (offsets, batch, variates, sub_len)), (1, 2, 3, 0))
    return reshape(phases, (batch, variates, sub_len * offsets))
