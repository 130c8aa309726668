"""Trainable layers: linear, layer norm, multi-head attention, Gaussian-RBF
KAN, and the MLP / Conv1d drop-in replacements for the KAN slot.

All layers operate on the last axis of their input and broadcast over any
leading axes, so the same layer code serves [B, N, D] activations and
plain [B, D] matrices. Weight matrices are initialized uniformly in
plus/minus 1/sqrt(fan_in) from a caller-supplied seeded generator; biases
start at zero.
"""

from __future__ import annotations

import numpy as np

from .tensor import (
    Parameter,
    ShapeError,
    Tensor,
    as_tensor,
    attention,
    conv1d_same,
    gaussian_rbf,
    matmul,
    reshape,
    softmax,
    sqrt,
    square,
    tanh,
    transpose,
)

_ROOT_HALF_2_OVER_PI = 0.7978845608028654  # sqrt(2/pi), for the tanh GELU


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(float(fan_in))
    return rng.uniform(-bound, bound, size=shape)


class Module:
    """Minimal layer base: parameter listing plus a training-mode flag.

    A module lists its submodules in ``modules()``; the base ``parameters()``,
    ``train()`` and ``eval()`` walk them in that order. Leaf layers override
    ``parameters()`` instead.
    """

    training = False

    def modules(self) -> list["Module"]:
        return []

    def parameters(self) -> list[Parameter]:
        return [p for mod in self.modules() for p in mod.parameters()]

    def train(self):
        for mod in self.modules():
            mod.train()
        self.training = True
        return self

    def eval(self):
        for mod in self.modules():
            mod.eval()
        self.training = False
        return self

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()


class Linear(Module):
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 bias: bool = True, name: str = "linear"):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.weight = Parameter(uniform_init(rng, (in_dim, out_dim), in_dim), f"{name}.weight")
        self.bias = Parameter(np.zeros(out_dim), f"{name}.bias") if bias else None

    def parameters(self):
        return [self.weight] + ([self.bias] if self.bias is not None else [])

    def __call__(self, x) -> Tensor:
        x = as_tensor(x)
        if x.shape[-1] != self.in_dim:
            raise ShapeError(f"linear expects last dim {self.in_dim}, got {x.shape}")
        out = matmul(x, self.weight)
        if self.bias is not None:
            out = out + self.bias
        return out


class LayerNorm(Module):
    """Normalization over the last axis with learnable scale and shift."""

    def __init__(self, dim: int, eps: float = 1e-5, name: str = "norm"):
        self.dim = dim
        self.eps = eps
        self.gamma = Parameter(np.ones(dim), f"{name}.gamma")
        self.beta = Parameter(np.zeros(dim), f"{name}.beta")

    def parameters(self):
        return [self.gamma, self.beta]

    def __call__(self, x) -> Tensor:
        x = as_tensor(x)
        if x.shape[-1] != self.dim:
            raise ShapeError(f"layer norm expects last dim {self.dim}, got {x.shape}")
        mu = x.mean(axis=-1, keepdims=True)
        centered = x - mu
        var = square(centered).mean(axis=-1, keepdims=True)
        normed = centered / sqrt(var + self.eps)
        return normed * self.gamma + self.beta


def gelu(x) -> Tensor:
    x = as_tensor(x)
    inner = _ROOT_HALF_2_OVER_PI * (x + 0.044715 * (x * x * x))
    return 0.5 * x * (1.0 + tanh(inner))


class MultiHeadAttention(Module):
    """Scaled dot-product attention over a token axis, multi-head, no mask.

    Queries may have a different token count than keys/values, which are
    required to share theirs (cross-attention). Projection matrices are
    square [model_dim, model_dim] without biases; attention weights get
    dropout in training mode only.
    """

    def __init__(self, model_dim: int, num_heads: int, rng: np.random.Generator,
                 dropout: float = 0.1, name: str = "attn"):
        if model_dim % num_heads != 0:
            raise ShapeError(f"model_dim {model_dim} not divisible by num_heads {num_heads}")
        self.model_dim = model_dim
        self.num_heads = num_heads
        self.head_dim = model_dim // num_heads
        self.dropout_rate = dropout
        self.wq = Parameter(uniform_init(rng, (model_dim, model_dim), model_dim), f"{name}.wq")
        self.wk = Parameter(uniform_init(rng, (model_dim, model_dim), model_dim), f"{name}.wk")
        self.wv = Parameter(uniform_init(rng, (model_dim, model_dim), model_dim), f"{name}.wv")
        self.wo = Parameter(uniform_init(rng, (model_dim, model_dim), model_dim), f"{name}.wo")
        self._dropout_rng = np.random.default_rng(rng.integers(0, 2**63 - 1))

    def parameters(self):
        return [self.wq, self.wk, self.wv, self.wo]

    def _split_heads(self, x: Tensor) -> Tensor:
        # [B, S, D] -> [B, H, S, hd]
        b, s, _ = x.shape
        return transpose(reshape(x, (b, s, self.num_heads, self.head_dim)), (0, 2, 1, 3))

    def __call__(self, q, k, v, return_weights: bool = False):
        q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
        for t in (q, k, v):
            if t.ndim != 3 or t.shape[-1] != self.model_dim:
                raise ShapeError(f"attention expects [B, S, {self.model_dim}], got {t.shape}")
        if k.shape[1] != v.shape[1] or k.shape[0] != v.shape[0] or q.shape[0] != k.shape[0]:
            raise ShapeError(f"attention batch/token mismatch: q {q.shape}, k {k.shape}, v {v.shape}")

        b, sq, _ = q.shape
        qh = self._split_heads(matmul(q, self.wq))  # [B, H, Sq, hd]
        kh = self._split_heads(matmul(k, self.wk))  # [B, H, Skv, hd]
        vh = self._split_heads(matmul(v, self.wv))  # [B, H, Skv, hd]

        scale = 1.0 / np.sqrt(float(self.head_dim))
        rng = self._dropout_rng if self.training and self.dropout_rate > 0.0 else None
        ctx = attention(qh, kh, vh, scale, rng, 1.0 - self.dropout_rate)  # [B, H, Sq, hd]
        merged = reshape(transpose(ctx, (0, 2, 1, 3)), (b, sq, self.model_dim))
        out = matmul(merged, self.wo)
        if return_weights:
            # The fused op keeps no whole weight array; the reference softmax
            # rebuilds the undropped weights.
            return out, softmax(matmul(qh, transpose(kh, (0, 1, 3, 2))) * scale).data
        return out


class GaussianKanLayer(Module):
    """Kolmogorov-Arnold layer: fixed Gaussian RBF grid, learnable mixing weights.

    Each scalar input coordinate is expanded over a shared grid of K
    centers via exp(-(x - c)^2 / (2 h^2)), and the [in_dim * K] feature
    vector is mapped linearly to out_dim. An optional layer norm runs in
    front of the expansion so activations stay inside the grid span.
    """

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 num_centers: int = 8, span: tuple = (-2.0, 2.0),
                 prenorm: bool = True, name: str = "kan"):
        if num_centers < 1:
            raise ShapeError(f"need at least one RBF center, got {num_centers}")
        lo, hi = float(span[0]), float(span[1])
        if num_centers > 1 and not hi > lo:
            raise ShapeError(f"RBF span must be increasing, got {span}")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.num_centers = num_centers
        centers = np.linspace(lo, hi, num_centers) if num_centers > 1 else np.array([0.5 * (lo + hi)])
        self.centers = centers  # fixed, non-trainable
        self.bandwidth = (hi - lo) / (num_centers - 1) if num_centers > 1 else 1.0
        self.weights = Parameter(
            uniform_init(rng, (in_dim * num_centers, out_dim), in_dim * num_centers),
            f"{name}.weights",
        )
        self.prenorm = LayerNorm(in_dim, name=f"{name}.norm") if prenorm else None

    def parameters(self):
        params = [self.weights]
        if self.prenorm is not None:
            params = self.prenorm.parameters() + params
        return params

    def rbf_features(self, x) -> Tensor:
        """Expand [..., in_dim] to [..., in_dim * K] Gaussian basis activations."""
        x = as_tensor(x)
        if x.shape[-1] != self.in_dim:
            raise ShapeError(f"rbf expects last dim {self.in_dim}, got {x.shape}")
        return gaussian_rbf(x, self.centers, self.bandwidth)

    def __call__(self, x) -> Tensor:
        x = as_tensor(x)
        if x.shape[-1] != self.in_dim:
            raise ShapeError(f"kan expects last dim {self.in_dim}, got {x.shape}")
        if self.prenorm is not None:
            x = self.prenorm(x)
        return matmul(self.rbf_features(x), self.weights)


class MlpBlock(Module):
    """linear -> GELU -> linear, shape preserving; swap-in for the KAN slot."""

    def __init__(self, dim: int, rng: np.random.Generator, hidden: int | None = None,
                 name: str = "mlp"):
        self.dim = dim
        self.hidden = hidden or dim
        self.fc1 = Linear(dim, self.hidden, rng, name=f"{name}.fc1")
        self.fc2 = Linear(self.hidden, dim, rng, name=f"{name}.fc2")

    def modules(self):
        return [self.fc1, self.fc2]

    def __call__(self, x) -> Tensor:
        return self.fc2(gelu(self.fc1(x)))


class Conv1dBlock(Module):
    """Single shared kernel convolved over the feature axis, same padding."""

    def __init__(self, kernel_size: int, rng: np.random.Generator, name: str = "conv"):
        if kernel_size < 1:
            raise ShapeError(f"kernel_size must be positive, got {kernel_size}")
        self.kernel_size = kernel_size
        self.weight = Parameter(uniform_init(rng, (kernel_size,), kernel_size), f"{name}.weight")
        self.bias = Parameter(np.zeros(1), f"{name}.bias")

    def parameters(self):
        return [self.weight, self.bias]

    def __call__(self, x) -> Tensor:
        return conv1d_same(x, self.weight, self.bias)
