"""Trainable layers: linear, layer norm, multi-head attention, Gaussian-RBF
KAN, and the MLP / Conv1d drop-in replacements for the KAN slot.

All layers operate on the last axis of their input and broadcast over any
leading axes, so the same layer code serves [B, N, D] activations and
plain [B, D] matrices. Weight matrices are initialized uniformly in
plus/minus 1/sqrt(fan_in) from a caller-supplied seeded generator; biases
start at zero.

A layer subclasses ``Module``, defines ``forward`` and assigns its
Parameters and submodules (or lists of them) as attributes; calling the
layer runs ``forward``. Assignment order is the parameter order: it fixes
the ``params`` order of a checkpoint file, the Adam parameter list and the
gradient check's walk.
"""

from __future__ import annotations

import numpy as np

from .tensor import (
    Parameter,
    ShapeError,
    Tensor,
    as_tensor,
    conv1d_same,
    gaussian_rbf,
    kan,
    layer_norm,
    matmul,
    multihead_attention,
    softmax,
    tanh,
)

_ROOT_HALF_2_OVER_PI = 0.7978845608028654  # sqrt(2/pi), for the tanh GELU


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(float(fan_in))
    return rng.uniform(-bound, bound, size=shape)


class Module:
    """Layer base: ``__call__`` runs ``forward``; one attribute walk finds
    every Parameter and submodule, in assignment order."""

    training = False

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def _children(self):
        """Parameters and Modules held in attributes, directly or in lists."""
        for value in vars(self).values():
            for item in value if isinstance(value, list) else (value,):
                if isinstance(item, (Parameter, Module)):
                    yield item

    def parameters(self) -> list[Parameter]:
        return [p for item in self._children()
                for p in (item.parameters() if isinstance(item, Module) else (item,))]

    def train(self):
        return self._set_training(True)

    def eval(self):
        return self._set_training(False)

    def _set_training(self, training: bool):
        for item in self._children():
            if isinstance(item, Module):
                item._set_training(training)
        self.training = training
        return self


class Linear(Module):
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 name: str = "linear"):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.weight = Parameter(uniform_init(rng, (in_dim, out_dim), in_dim), f"{name}.weight")
        self.bias = Parameter(np.zeros(out_dim), f"{name}.bias")

    def forward(self, x) -> Tensor:
        x = as_tensor(x)
        if x.shape[-1] != self.in_dim:
            raise ShapeError(f"linear expects last dim {self.in_dim}, got {x.shape}")
        return matmul(x, self.weight) + self.bias


class LayerNorm(Module):
    """Normalization over the last axis with learnable scale and shift."""

    def __init__(self, dim: int, eps: float = 1e-5, name: str = "norm"):
        self.dim = dim
        self.eps = eps
        self.gamma = Parameter(np.ones(dim), f"{name}.gamma")
        self.beta = Parameter(np.zeros(dim), f"{name}.beta")

    def forward(self, x) -> Tensor:
        x = as_tensor(x)
        if x.shape[-1] != self.dim:
            raise ShapeError(f"layer norm expects last dim {self.dim}, got {x.shape}")
        return layer_norm(x, self.gamma, self.beta, self.eps)


def gelu(x) -> Tensor:
    x = as_tensor(x)
    inner = _ROOT_HALF_2_OVER_PI * (x + 0.044715 * (x * x * x))
    return 0.5 * x * (1.0 + tanh(inner))


class MultiHeadAttention(Module):
    """Scaled dot-product attention over a token axis, multi-head, no mask.

    Queries may have a different token count than keys/values, which are
    required to share theirs (cross-attention). Projection matrices are
    square [model_dim, model_dim] without biases, four separate Parameters;
    attention weights get dropout in training mode only. A call is one
    ``tensor.multihead_attention`` op: it projects, attends and applies
    ``wo`` one block of leading indices at a time, so no whole projection or
    context exists without a tape, and it records one tape node. Passing
    the same tensor as q, k and v (or as k and v) lets the op project it
    with one GEMM against the weights side by side.
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

    def forward(self, q, k, v, return_weights: bool = False):
        q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
        for t in (q, k, v):
            if t.ndim != 3 or t.shape[-1] != self.model_dim:
                raise ShapeError(f"attention expects [B, S, {self.model_dim}], got {t.shape}")
        if k.shape[1] != v.shape[1] or k.shape[0] != v.shape[0] or q.shape[0] != k.shape[0]:
            raise ShapeError(f"attention batch/token mismatch: q {q.shape}, k {k.shape}, v {v.shape}")

        scale = 1.0 / np.sqrt(float(self.head_dim))
        rng = self._dropout_rng if self.training and self.dropout_rate > 0.0 else None
        out = multihead_attention(q, k, v, (self.wq, self.wk, self.wv, self.wo), scale, rng,
                                  1.0 - self.dropout_rate, self.num_heads)
        if not return_weights:
            return out
        # The fused op keeps no projection and no weight array; the reference
        # softmax rebuilds the undropped weights from projections made off the tape.
        qh, kh = ((t.data.reshape(-1, self.model_dim) @ w.data)
                  .reshape(*t.shape[:2], self.num_heads, -1).transpose(0, 2, 1, 3)
                  for t, w in ((q, self.wq), (k, self.wk)))
        return out, softmax(Tensor(np.matmul(qh, kh.swapaxes(-1, -2))) * scale).data


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
        self.prenorm = LayerNorm(in_dim, name=f"{name}.norm") if prenorm else None
        self.weights = Parameter(
            uniform_init(rng, (in_dim * num_centers, out_dim), in_dim * num_centers),
            f"{name}.weights",
        )

    def rbf_features(self, x) -> Tensor:
        """Expand [..., in_dim] to [..., in_dim * K] Gaussian basis activations."""
        x = as_tensor(x)
        if x.shape[-1] != self.in_dim:
            raise ShapeError(f"rbf expects last dim {self.in_dim}, got {x.shape}")
        return gaussian_rbf(x, self.centers, self.bandwidth)

    def forward(self, x) -> Tensor:
        x = as_tensor(x)
        if x.shape[-1] != self.in_dim:
            raise ShapeError(f"kan expects last dim {self.in_dim}, got {x.shape}")
        if self.prenorm is not None:
            x = self.prenorm(x)
        return kan(x, self.centers, self.bandwidth, self.weights)


class MlpBlock(Module):
    """linear -> GELU -> linear, shape preserving; swap-in for the KAN slot."""

    def __init__(self, dim: int, rng: np.random.Generator, hidden: int | None = None,
                 name: str = "mlp"):
        self.dim = dim
        self.hidden = hidden or dim
        self.fc1 = Linear(dim, self.hidden, rng, name=f"{name}.fc1")
        self.fc2 = Linear(self.hidden, dim, rng, name=f"{name}.fc2")

    def forward(self, x) -> Tensor:
        return self.fc2(gelu(self.fc1(x)))


class Conv1dBlock(Module):
    """Single shared kernel convolved over the feature axis, same padding."""

    def __init__(self, kernel_size: int, rng: np.random.Generator, name: str = "conv"):
        if kernel_size < 1:
            raise ShapeError(f"kernel_size must be positive, got {kernel_size}")
        self.kernel_size = kernel_size
        self.weight = Parameter(uniform_init(rng, (kernel_size,), kernel_size), f"{name}.weight")
        self.bias = Parameter(np.zeros(1), f"{name}.bias")

    def forward(self, x) -> Tensor:
        return conv1d_same(x, self.weight, self.bias)
