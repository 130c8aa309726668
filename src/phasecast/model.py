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

import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError
from .layers import Conv1dBlock, GaussianKanLayer, Linear, MlpBlock, Module, MultiHeadAttention
from .offsets import merge_offsets, split_offsets
from .revin import RevIN
from .tensor import Tensor, as_tensor

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
    rbf_span: tuple = (-2.0, 2.0)
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
        if self.variant in _ATTENTION_VARIANTS:
            if self.sub_length % self.num_heads != 0:
                raise ConfigError(
                    f"sub-sequence length {self.sub_length} (lookback {self.lookback} / "
                    f"offsets {self.offsets}) must be divisible by num_heads {self.num_heads}"
                )
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.rbf_grid < 1:
            raise ConfigError(f"rbf_grid must be positive, got {self.rbf_grid}")
        if self.depth < 1:
            raise ConfigError(f"depth must be at least 1, got {self.depth}")
        if self.precision not in ("float64", "float32"):
            raise ConfigError(
                f"precision must be 'float64' or 'float32', got {self.precision!r}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["rbf_span"] = list(self.rbf_span)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Build from a config or checkpoint dict; unknown keys raise TypeError."""
        d = dict(d)
        # Version 1 configs and checkpoints may carry per_offset_kan. One KAN
        # is now shared by all offsets, so only the value false still loads.
        if d.pop("per_offset_kan", False):
            raise ConfigError("per_offset_kan is no longer supported: "
                              "one KAN is shared by all offsets")
        if "rbf_span" in d:
            d["rbf_span"] = tuple(d["rbf_span"])
        if "mlp_hidden" in d and d["mlp_hidden"] is not None:
            d["mlp_hidden"] = int(d["mlp_hidden"])
        return cls(**d)


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

    def modules(self) -> list[Module]:
        mods = list(self.mixers)
        if self.attn_local is not None:
            mods.extend([self.attn_local, self.attn_fusion])
        return mods

    def forward(self, h: Tensor) -> Tensor:
        cfg = self.config
        stacked = split_offsets(h, cfg.offsets)  # [O*B, N, T]
        mixed = self.mixers[0](stacked) if self.mixers else stacked

        if cfg.variant == "mote-only":
            attended = mixed
        elif cfg.variant == "no-trans":
            attended = mixed + mixed
        else:
            attended = mixed + self.attn_local(mixed, mixed, mixed)
        merged = merge_offsets(attended, cfg.offsets)

        if cfg.variant in ("mote-only", "no-trans"):
            return h + merged
        return h + self.attn_fusion(merged, h, h)


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
            p.zero_grad()
            names.append(p.name)
        if len(names) != len(set(names)):
            raise ConfigError(f"duplicate parameter names in model: {sorted(names)}")

    # ---- parameters ------------------------------------------------------

    def modules(self) -> list[Module]:
        return [self.revin, *self.blocks, self.head]

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters() if p.trainable)

    # ---- forward -----------------------------------------------------------

    def forward(self, x) -> Tensor:
        """Map [B, N, L] history to a [B, N, F] forecast.

        An array input is first copied into C order and the model's dtype if
        it is not already (window views are strided), so the forecast does not
        depend on how the caller's batch is laid out in memory.
        """
        x = as_tensor(x if isinstance(x, Tensor) else np.ascontiguousarray(x, self.dtype))
        cfg = self.config
        if x.ndim != 3 or x.shape[1] != cfg.num_variates or x.shape[2] != cfg.lookback:
            raise ConfigError(
                f"expected input [B, {cfg.num_variates}, {cfg.lookback}], got {x.shape}"
            )
        h, state = self.revin.normalize(x)
        for block in self.blocks:
            h = block.forward(h)
        return self.revin.denormalize(self.head(h), state)

    def __call__(self, x) -> Tensor:
        return self.forward(x)

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
            param.data = arr.copy()

    def save_checkpoint(self, path) -> None:
        payload = {
            "magic": CHECKPOINT_MAGIC,
            "version": CHECKPOINT_VERSION,
            "config": self.config.to_dict(),
            "params": {
                p.name: {"shape": list(p.shape), "data": p.data.reshape(-1).tolist()}
                for p in self.parameters()
            },
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)

    @classmethod
    def load_checkpoint(cls, path) -> "Forecaster":
        with open(path) as fh:
            payload = json.load(fh)
        if payload.get("magic") != CHECKPOINT_MAGIC:
            raise ConfigError(f"{path} is not a model checkpoint (bad magic header)")
        if payload.get("version") != CHECKPOINT_VERSION:
            raise ConfigError(
                f"checkpoint version {payload.get('version')} unsupported "
                f"(expected {CHECKPOINT_VERSION})"
            )
        model = cls(ModelConfig.from_dict(payload["config"]))
        state = {
            name: np.array(entry["data"], dtype=float).reshape(entry["shape"])
            for name, entry in payload["params"].items()
        }
        model.load_state_dict(state)
        return model
