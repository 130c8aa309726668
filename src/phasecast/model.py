"""The forecasting model: RevIN, interleaved offset embedding, a shared
RBF-KAN stage, self-attention over variate tokens within each offset,
cross-attention fusion against the normalized input, and a linear head per
variate.

Data flow for a [B, N, L] batch with O offsets and T = L // O:

    xn          = revin.normalize(x)                      [B, N, L]
    m           = phase split of xn, offset-major         [O*B, N, T]
    r           = kan(m)                                  [O*B, N, T]
    a           = r + attn_local(r, r, r)                 [O*B, N, T]
    a'          = inverse interleave of a                 [B, N, L]
    h           = xn + attn_fusion(q=a', k=xn, v=xn)      [B, N, L]
    y           = head(h)                                 [B, N, F]
    out         = revin.denormalize(y)                    [B, N, F]

The offsets ride in the batch axis, so the KAN and the local attention each
run once over all O phases, and the KAN weights are shared by every offset.

Attention runs over the N variate tokens in both stages (feature dim T
locally, L in the fusion), so the model is equivariant to variate order.

Variants swap or drop stages:
  full         the pipeline above
  moti-only    KAN slot replaced by identity (attention kept)
  no-kan       same switch as moti-only
  mote-only    both attention sublayers dropped: a = r, h = xn + a'
  no-trans     attention sublayers replaced by identity passthroughs with
               residuals kept: a = r + r, h = xn + a'
  mlp-swap     KAN slot replaced by a linear-GELU-linear block
  conv1d-swap  KAN slot replaced by a same-padded 1-D convolution
"""

from __future__ import annotations

import itertools
import json
import math
import os
import threading
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, check_section
from .layers import Conv1dBlock, GaussianKanLayer, Linear, MlpBlock, Module, MultiHeadAttention
from .offsets import merge_offsets, split_offsets
from .revin import RevIN
from .tensor import ATTENTION_BLOCK_BYTES, Tensor, grad_enabled, keep_threshold, no_grad
from .training import _hold_heap

VARIANTS = ("full", "moti-only", "mote-only", "no-trans", "no-kan", "mlp-swap", "conv1d-swap")
# Tags that build the same model, bit for bit, as another tag.
SAME_MODEL_AS = {"no-kan": "moti-only"}

_KAN_VARIANTS = ("full", "mote-only", "no-trans")
_ATTENTION_VARIANTS = ("full", "moti-only", "no-kan", "mlp-swap", "conv1d-swap")

CHECKPOINT_MAGIC = "PHASECAST-CKPT"
CHECKPOINT_VERSION = 1


@dataclass
class ModelConfig:
    num_variates: int
    lookback: int = 96
    horizon: int = 96
    offsets: int = 4
    num_heads: int = 8
    rbf_grid: int = 8
    rbf_span: tuple[float, float] = (-2.0, 2.0)
    kan_prenorm: bool = True
    mlp_hidden: int | None = None
    conv_kernel: int = 3
    dropout: float = 0.1
    depth: int = 1
    variant: str = "full"
    revin_affine: bool = True
    seed: int = 2024
    precision: str = "float64"

    @property
    def sub_length(self) -> int:
        return self.lookback // self.offsets

    def validate(self) -> None:
        if self.num_variates < 1:
            raise ConfigError(f"num_variates must be positive, got {self.num_variates}")
        if self.lookback < 2:
            raise ConfigError(f"lookback must be at least 2, got {self.lookback}")
        if self.horizon < 1:
            raise ConfigError(f"horizon must be positive, got {self.horizon}")
        if self.offsets < 1 or self.lookback % self.offsets != 0:
            raise ConfigError(
                f"offset count {self.offsets} must divide lookback {self.lookback}"
            )
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; choose from {VARIANTS}")
        if self.num_heads < 1:
            raise ConfigError(f"num_heads must be at least 1, got {self.num_heads}")
        if self.variant in _ATTENTION_VARIANTS:
            if self.sub_length % self.num_heads != 0:
                raise ConfigError(
                    f"sub-sequence length {self.sub_length} (lookback {self.lookback} / "
                    f"offsets {self.offsets}) must be divisible by num_heads {self.num_heads}"
                )
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if keep_threshold(1.0 - self.dropout) == 0:
            raise ConfigError(f"dropout {self.dropout} leaves a keep probability that "
                              f"rounds to zero in steps of 2**-16")
        if self.rbf_grid < 1:
            raise ConfigError(f"rbf_grid must be positive, got {self.rbf_grid}")
        lo, hi = self.rbf_span
        if not np.isfinite(self.rbf_span).all() or (self.rbf_grid > 1 and not hi > lo):
            raise ConfigError(f"rbf_span must be finite, and increasing when rbf_grid > 1, "
                              f"got {list(self.rbf_span)}")
        # The KAN computes (x - c)^2 / (2 h^2) for bandwidth h and centres c in
        # [lo, hi]; an inf or 0 in it turns a feature into inf * 0 = NaN.
        h = (hi - lo) / (self.rbf_grid - 1) if self.rbf_grid > 1 else 1.0
        width = 2.0 * h * h
        if not (0.0 < width < math.inf and 1.0 / width < math.inf
                and max(lo * lo, hi * hi) < math.inf):
            raise ConfigError(f"rbf_span {list(self.rbf_span)} with rbf_grid {self.rbf_grid} "
                              f"gives bandwidth h = {h}: 2 h^2 and 1 / (2 h^2) must be "
                              f"positive and finite, and every centre's square finite")
        if self.mlp_hidden is not None and self.mlp_hidden < 1:
            raise ConfigError(f"mlp_hidden must be null or at least 1, got {self.mlp_hidden}")
        if self.conv_kernel < 1:
            raise ConfigError(f"conv_kernel must be at least 1, got {self.conv_kernel}")
        if self.depth < 1:
            raise ConfigError(f"depth must be at least 1, got {self.depth}")
        if self.precision not in ("float64", "float32"):
            raise ConfigError(
                f"precision must be 'float64' or 'float32', got {self.precision!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["rbf_span"] = list(self.rbf_span)
        return d

    @classmethod
    def from_dict(cls, d: dict, where: str = "the model config") -> "ModelConfig":
        """Build from a config or checkpoint dict (see ``check``)."""
        d = cls.check(d, where)
        if "rbf_span" in d:
            d["rbf_span"] = tuple(d["rbf_span"])
        return cls(**d)

    @classmethod
    def check(cls, section, where: str, filled=()) -> dict:
        """A copy of ``section`` without the retired per_offset_kan key, checked by ``check_section``."""
        if isinstance(section, dict):
            section = dict(section)
            # Version 1 configs and checkpoints may carry per_offset_kan. One KAN
            # is now shared by all offsets, so only the value false still loads.
            if section.pop("per_offset_kan", False) is not False:
                raise ConfigError(f"per_offset_kan in {where} is no longer supported: "
                                  f"one KAN is shared by all offsets")
        check_section(cls, section, where, filled)
        return section


class InteractionBlock(Module):
    """One shape-preserving offset-interaction stage: split, KAN slot,
    local attention with residual, inverse interleave, fusion attention
    with residual against the block input."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator, prefix: str = ""):
        self.config = config
        sub_len = config.sub_length
        self.mixers = self._build_mixers(rng, sub_len, prefix)
        if config.variant in _ATTENTION_VARIANTS:
            self.attn_local = MultiHeadAttention(
                sub_len, config.num_heads, rng, dropout=config.dropout,
                name=f"{prefix}attn_local")
            self.attn_fusion = MultiHeadAttention(
                config.lookback, config.num_heads, rng, dropout=config.dropout,
                name=f"{prefix}attn_fusion")
        else:
            self.attn_local = None
            self.attn_fusion = None

    def _build_mixers(self, rng, sub_len, prefix) -> list:
        """The KAN slot: one module, or none where the variant makes it the identity."""
        cfg = self.config
        if cfg.variant in _KAN_VARIANTS:
            return [GaussianKanLayer(
                sub_len, sub_len, rng, num_centers=cfg.rbf_grid, span=cfg.rbf_span,
                prenorm=cfg.kan_prenorm, name=f"{prefix}kan")]
        if cfg.variant == "mlp-swap":
            return [MlpBlock(sub_len, rng, hidden=cfg.mlp_hidden, name=f"{prefix}mlp")]
        if cfg.variant == "conv1d-swap":
            return [Conv1dBlock(cfg.conv_kernel, rng, name=f"{prefix}conv")]
        return []

    def forward(self, h: Tensor) -> Tensor:
        cfg = self.config
        # Each stage rebinds `a`, so without a tape a stage's input is freed
        # once its output exists: the fusion attention then runs beside h and
        # the merged phases only.
        a = split_offsets(h, cfg.offsets)  # [O*B, N, T]
        if self.mixers:
            a = self.mixers[0](a)
        if cfg.variant == "no-trans":
            a = a + a
        elif cfg.variant != "mote-only":
            a = a + self.attn_local(a, a, a)
        a = merge_offsets(a, cfg.offsets)

        if cfg.variant in ("mote-only", "no-trans"):
            return h + a
        return h + self.attn_fusion(a, h, h)


class Forecaster(Module):
    def __init__(self, config: ModelConfig):
        config.validate()
        self.config = config
        rng = np.random.default_rng(config.seed)
        n, length, horizon = config.num_variates, config.lookback, config.horizon

        self.revin = RevIN(n, affine=config.revin_affine, name="revin")
        self.blocks = [
            InteractionBlock(config, rng,
                             prefix=f"block{i}." if config.depth > 1 else "")
            for i in range(config.depth)
        ]
        self.head = Linear(length, horizon, rng, name="head")

        self.dtype = np.dtype(config.precision)
        names = []
        for p in self.parameters():
            p.data = p.data.astype(self.dtype, copy=False)
            p.grad = np.zeros_like(p.data)
            names.append(p.name)
        if len(names) != len(set(names)):
            raise ConfigError(f"duplicate parameter names in model: {sorted(names)}")

    # ---- parameters ------------------------------------------------------

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters() if p.trainable)

    # ---- forward -----------------------------------------------------------

    def forward(self, x) -> Tensor:
        """Map [B, N, L] history to a [B, N, F] forecast.

        An array input is first copied into C order and the model's dtype if
        it is not already (window views are strided), so the forecast does not
        depend on how the caller's batch is laid out in memory. A ``Tensor``
        input must already have the model's dtype: casting it would cut its
        gradient.

        An untaped forward in eval mode (inside ``no_grad``, or with nothing
        that requires a gradient) of more windows than one chunk holds runs
        its chunks on the calling thread and the process's worker pool (see
        ``worker_count``), each chunk copied on its own and its forecast
        written into one output. A chunk holds as many windows as one
        ``ATTENTION_BLOCK_BYTES`` block holds N x N matrices of the model's
        dtype, so the chunks depend on the shape only, and the forecast is the
        same bit for bit for any worker count.
        """
        if isinstance(x, Tensor):
            if x.data.dtype != self.dtype:
                raise ConfigError(f"input tensor is {x.data.dtype}, the model is {self.dtype}")
            windows = x.data
        else:
            x = windows = np.asarray(x)
        cfg = self.config
        n = cfg.num_variates
        if windows.ndim != 3 or windows.shape[1] != n or windows.shape[2] != cfg.lookback:
            raise ConfigError(f"expected input [B, {n}, {cfg.lookback}], got {windows.shape}")
        per = max(1, ATTENTION_BLOCK_BYTES // (n * n * self.dtype.itemsize))
        count = windows.shape[0]
        if self.training or count <= per or grad_enabled() and (
                getattr(x, "requires_grad", False)
                or any(p.requires_grad for p in self.parameters())):
            # The copy is passed, not kept here, so _forecast can free it.
            return self._forecast(x if isinstance(x, Tensor) else
                                  Tensor(np.ascontiguousarray(x, self.dtype)))
        out = np.empty((count, n, cfg.horizon), self.dtype)

        def run(i):
            chunk = slice(i * per, (i + 1) * per)
            out[chunk] = self._forecast(
                Tensor(np.ascontiguousarray(windows[chunk], self.dtype))).data

        _run_chunks(run, -(-count // per))
        return Tensor(out)

    def _forecast(self, x: Tensor) -> Tensor:
        h, state = self.revin.normalize(x)
        del x  # the statistics are taken: without a tape the input copy is freed here
        for block in self.blocks:
            h = block(h)
        return self.revin.denormalize(self.head(h), state)

    # ---- checkpointing ------------------------------------------------------

    def state_dict(self) -> dict:
        return {p.name: p.data.copy() for p in self.parameters()}

    def load_state_dict(self, state: dict) -> None:
        params = {p.name: p for p in self.parameters()}
        missing = sorted(set(params) - set(state))
        unexpected = sorted(set(state) - set(params))
        if missing or unexpected:
            raise ConfigError(
                f"checkpoint does not match model: missing={missing}, unexpected={unexpected}"
            )
        for name, param in params.items():
            arr = np.asarray(state[name], dtype=param.data.dtype)
            if arr.shape != param.data.shape:
                raise ConfigError(
                    f"checkpoint entry {name} has shape {arr.shape}, expected {param.data.shape}"
                )
            if not np.all(np.isfinite(arr)):
                raise ConfigError(f"checkpoint entry {name} holds NaN or Inf")
            param.data[...] = arr

    def save_checkpoint(self, path) -> None:
        # json.dump's text for {magic, version, config, params}, encoded by
        # json.dumps: its C encoder is about 2x faster than json.dump's Python
        # one. Encoding one parameter at a time keeps the encoder's buffers to
        # one parameter's text; the whole payload at once peaked 5 MB higher.
        header = json.dumps({"magic": CHECKPOINT_MAGIC, "version": CHECKPOINT_VERSION,
                             "config": self.config.to_dict()})
        with open(path, "w") as fh:
            fh.write(header[:-1] + ', "params": {')
            for i, p in enumerate(self.parameters()):
                entry = {"shape": list(p.shape), "data": p.data.reshape(-1).tolist()}
                fh.write(f'{", " if i else ""}{json.dumps(p.name)}: {json.dumps(entry)}')
            fh.write("}}")

    @classmethod
    def load_checkpoint(cls, path) -> "Forecaster":
        """Read a checkpoint; one that is malformed is a ``ConfigError`` that names the file."""
        with open(path) as fh:
            try:
                payload = json.load(fh)
            except ValueError as err:  # not JSON, truncated, or not text
                raise ConfigError(f"{path} is not a model checkpoint ({err})") from None
        if not isinstance(payload, dict) or payload.get("magic") != CHECKPOINT_MAGIC:
            raise ConfigError(f"{path} is not a model checkpoint (bad magic header)")
        if payload.get("version") != CHECKPOINT_VERSION:
            raise ConfigError(
                f"{path}: checkpoint version {payload.get('version')} unsupported "
                f"(expected {CHECKPOINT_VERSION})"
            )
        model = cls(ModelConfig.from_dict(payload.get("config"), f"the config of {path}"))
        try:
            state = {
                name: np.array(entry["data"], dtype=float).reshape(entry["shape"])
                for name, entry in payload["params"].items()
            }
        except (AttributeError, KeyError, TypeError, ValueError) as err:
            raise ConfigError(f"{path} holds a malformed params entry "
                              f"({type(err).__name__}: {err})") from None
        model.load_state_dict(state)
        return model


# ---- the worker pool of untaped forwards --------------------------------------


def worker_count() -> int:
    """Threads an untaped forward runs its chunks on: CPUs over BLAS threads.

    The CPUs are the process's affinity set; the BLAS threads are what
    ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or ``MKL_NUM_THREADS``
    declares, the first set to a positive integer in that order. With none
    set, BLAS already takes every CPU, so the count is 1.
    """
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(name, "")
        if value.isdigit() and int(value) > 0:
            cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                    else os.cpu_count() or 1)
            return max(1, cpus // int(value))
    return 1


_pool_lock = threading.Lock()
_pool = None  # (worker count, executor of the workers beside the caller, or None)


def _forward_pool():
    """The process's pool, made at its first chunked forward."""
    global _pool
    with _pool_lock:
        if _pool is None:
            workers = worker_count()
            executor = None
            if workers > 1:
                from concurrent.futures import ThreadPoolExecutor  # 11 ms to import

                _hold_heap()  # one malloc arena, before any worker allocates
                executor = ThreadPoolExecutor(workers - 1, "phasecast-forward")
            _pool = workers, executor
        return _pool


def _forget_pool() -> None:
    """Drop the pool: a forked child has none of its threads, so it makes its own."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _run_chunks(run, count: int) -> None:
    """Call ``run(i)`` for each chunk i < count on the calling thread and the pool's workers.

    Each thread takes the next chunk not yet taken until none is left, inside
    its own ``no_grad`` (grad mode is per thread). Every chunk runs, also when
    one raises; then the first failing chunk's error, in chunk order, is
    raised here. With one worker no thread starts, and the chunks run in
    order on the caller.
    """
    workers, executor = _forward_pool()
    claim = itertools.count()
    errors = [None] * count

    def drain():
        with no_grad():
            while (i := next(claim)) < count:
                try:
                    run(i)
                except BaseException as err:
                    errors[i] = err

    helpers = [executor.submit(drain) for _ in range(min(workers, count) - 1)]
    drain()
    for helper in helpers:
        helper.result()
    for err in errors:
        if err is not None:
            raise err
