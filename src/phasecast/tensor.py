"""Dense tensors with tape-based reverse-mode automatic differentiation.

Every op computes its value eagerly with numpy and records a backward
closure on the output node. Calling ``backward()`` on a scalar walks the
recorded graph once in reverse topological order and accumulates
gradients into every reachable node.

Data keeps its own dtype: float32 arrays stay float32 and everything else
becomes float64. A plain Python number meeting a tensor in ``add``, ``sub``,
``mul`` or ``div`` takes the tensor's dtype (NumPy's NEP 50 rule for weak
scalars), so a float32 model stays float32 through its constants.
Any op that produces a non-finite value raises ``NonFiniteError``
immediately instead of letting NaNs propagate into training.

Inside ``no_grad()`` ops compute their values but record nothing, so an
inference forward keeps no intermediate arrays alive.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np


class _GradMode(threading.local):
    enabled = True


_GRAD_MODE = _GradMode()


class ShapeError(ValueError):
    """Raised when operand shapes violate an op's contract."""


class NonFiniteError(FloatingPointError):
    """Raised when an op produces NaN or Inf."""


def _ensure_finite(arr: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{op} produced non-finite values")


class Tensor:
    """N-dimensional array plus an optional gradient tape node."""

    __slots__ = ("data", "grad", "requires_grad", "_backward_fn", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype != np.float32:
            arr = arr.astype(np.float64, copy=False)
        _ensure_finite(arr, "tensor construction")
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._backward_fn = None
        self._parents = ()

    # ---- introspection -------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() requires a single element, got shape {self.shape}")
        return float(self.data.reshape(()))

    def numpy(self) -> np.ndarray:
        return self.data

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # ---- graph handling ------------------------------------------------

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype, copy=True)
        else:
            self.grad = self.grad + g

    def backward(self) -> None:
        """Populate ``grad`` on every reachable node, starting from this scalar."""
        if self.data.size != 1:
            raise ShapeError(f"backward() requires a scalar loss, got shape {self.shape}")
        if not self.requires_grad:
            return  # constant graph: all gradients stay zero
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)

    # ---- operator sugar --------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    # ---- method forms ----------------------------------------------------

    def exp(self):
        return exp(self)

    def tanh(self):
        return tanh(self)

    def sqrt(self):
        return sqrt(self)

    def square(self):
        return square(self)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, *shape)

    def transpose(self, *axes):
        return transpose(self, *axes)


class Parameter(Tensor):
    """Trainable leaf tensor identified by a unique name path."""

    __slots__ = ("name", "trainable")

    def __init__(self, data, name: str, trainable: bool = True):
        super().__init__(data, requires_grad=True)
        self.name = name
        self.trainable = trainable
        self.grad = np.zeros_like(self.data)

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.data)

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _binary_operands(a, b) -> tuple:
    """Both operands as tensors; a plain number takes the other tensor's dtype."""
    if isinstance(a, Tensor) and isinstance(b, (int, float)):
        return a, Tensor(np.asarray(b, a.data.dtype))
    if isinstance(b, Tensor) and isinstance(a, (int, float)):
        return Tensor(np.asarray(a, b.data.dtype)), b
    return as_tensor(a), as_tensor(b)


@contextlib.contextmanager
def no_grad():
    """Record no tape in this thread inside the block.

    Outputs made inside have no parents and no backward closure, so the
    arrays an op would keep for backward are freed as soon as the op returns.
    The previous mode comes back on exit, also when the block raises.
    """
    previous = _GRAD_MODE.enabled
    _GRAD_MODE.enabled = False
    try:
        yield
    finally:
        _GRAD_MODE.enabled = previous


def _make_output(data: np.ndarray, parents, backward_fn, op: str) -> Tensor:
    _ensure_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    grad_parents = tuple(p for p in parents if p.requires_grad) if _GRAD_MODE.enabled else ()
    out.requires_grad = bool(grad_parents)
    out._parents = grad_parents
    out._backward_fn = backward_fn if grad_parents else None
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back down to ``shape``."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---- elementwise binary ops ---------------------------------------------


def add(a, b) -> Tensor:
    a, b = _binary_operands(a, b)
    data = a.data + b.data

    def backward_fn(g):
        a._accumulate(_unbroadcast(g, a.shape))
        b._accumulate(_unbroadcast(g, b.shape))

    return _make_output(data, (a, b), backward_fn, "add")


def sub(a, b) -> Tensor:
    a, b = _binary_operands(a, b)
    data = a.data - b.data

    def backward_fn(g):
        a._accumulate(_unbroadcast(g, a.shape))
        b._accumulate(_unbroadcast(-g, b.shape))

    return _make_output(data, (a, b), backward_fn, "sub")


def mul(a, b) -> Tensor:
    a, b = _binary_operands(a, b)
    data = a.data * b.data

    def backward_fn(g):
        a._accumulate(_unbroadcast(g * b.data, a.shape))
        b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _make_output(data, (a, b), backward_fn, "mul")


def div(a, b) -> Tensor:
    a, b = _binary_operands(a, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        data = a.data / b.data

    def backward_fn(g):
        a._accumulate(_unbroadcast(g / b.data, a.shape))
        b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _make_output(data, (a, b), backward_fn, "div")


def neg(a) -> Tensor:
    a = as_tensor(a)

    def backward_fn(g):
        a._accumulate(-g)

    return _make_output(-a.data, (a,), backward_fn, "neg")


# ---- elementwise unary ops ------------------------------------------------


def exp(a) -> Tensor:
    a = as_tensor(a)
    with np.errstate(over="ignore"):
        data = np.exp(a.data)

    def backward_fn(g):
        a._accumulate(g * data)

    return _make_output(data, (a,), backward_fn, "exp")


def tanh(a) -> Tensor:
    a = as_tensor(a)
    data = np.tanh(a.data)

    def backward_fn(g):
        a._accumulate(g * (1.0 - data * data))

    return _make_output(data, (a,), backward_fn, "tanh")


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    data = np.sqrt(a.data)

    def backward_fn(g):
        a._accumulate(g * 0.5 / data)

    return _make_output(data, (a,), backward_fn, "sqrt")


def square(a) -> Tensor:
    a = as_tensor(a)

    def backward_fn(g):
        a._accumulate(g * 2.0 * a.data)

    return _make_output(a.data * a.data, (a,), backward_fn, "square")


# ---- reductions -----------------------------------------------------------


def _normalize_axes(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    axes = tuple(ax % ndim for ax in axis)
    if len(set(axes)) != len(axes):
        raise ShapeError(f"duplicate axes {axis}")
    for ax in axes:
        if not 0 <= ax < ndim:
            raise ShapeError(f"axis {ax} out of range for ndim {ndim}")
    return axes


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    axes = _normalize_axes(axis, a.ndim)
    data = a.data.sum(axis=axes, keepdims=keepdims)

    def backward_fn(g):
        if not keepdims:
            g = np.expand_dims(g, axes) if axes else g
        a._accumulate(np.broadcast_to(g, a.shape))

    return _make_output(data, (a,), backward_fn, "sum")


def tmean(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    axes = _normalize_axes(axis, a.ndim)
    count = 1
    for ax in axes:
        count *= a.shape[ax]
    if count == 0:
        raise ShapeError("mean over empty axes")
    data = a.data.mean(axis=axes, keepdims=keepdims)

    def backward_fn(g):
        if not keepdims:
            g = np.expand_dims(g, axes) if axes else g
        a._accumulate(np.broadcast_to(g, a.shape) / count)

    return _make_output(data, (a,), backward_fn, "mean")


# ---- shape ops --------------------------------------------------------------


def reshape(a, *shape) -> Tensor:
    a = as_tensor(a)
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    try:
        data = a.data.reshape(shape)
    except ValueError as err:
        raise ShapeError(f"cannot reshape {a.shape} to {shape}: {err}") from None

    def backward_fn(g):
        a._accumulate(g.reshape(a.shape))

    return _make_output(data, (a,), backward_fn, "reshape")


def transpose(a, *axes) -> Tensor:
    a = as_tensor(a)
    if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
        axes = tuple(axes[0])
    if not axes:
        axes = tuple(range(a.ndim))[::-1]
    if sorted(ax % a.ndim for ax in axes) != list(range(a.ndim)):
        raise ShapeError(f"invalid permutation {axes} for ndim {a.ndim}")
    axes = tuple(ax % a.ndim for ax in axes)
    data = np.transpose(a.data, axes)
    inverse = tuple(np.argsort(axes))

    def backward_fn(g):
        a._accumulate(np.transpose(g, inverse))

    return _make_output(data, (a,), backward_fn, "transpose")


# ---- linear algebra -------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul requires 2-D or higher operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} vs {b.shape}")
    try:
        data = np.matmul(a.data, b.data)
    except ValueError as err:
        raise ShapeError(f"matmul batch dimensions incompatible: {a.shape} vs {b.shape}: {err}") from None

    def backward_fn(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        a._accumulate(_unbroadcast(ga, a.shape))
        b._accumulate(_unbroadcast(gb, b.shape))

    return _make_output(data, (a, b), backward_fn, "matmul")


def softmax(a, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` (max subtraction before exp)."""
    a = as_tensor(a)
    ax = axis % a.ndim
    shifted = a.data - a.data.max(axis=ax, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=ax, keepdims=True)

    def backward_fn(g):
        inner = (g * data).sum(axis=ax, keepdims=True)
        a._accumulate(data * (g - inner))

    return _make_output(data, (a,), backward_fn, "softmax")


# Bytes of exp weights in one attention block. ``attention`` works through
# its flattened leading axes in blocks of about this size, so its working set
# stays bounded however large the batch is.
ATTENTION_BLOCK_BYTES = 8 * 2**20


def _abs_max(a: np.ndarray) -> float:
    return max(float(a.max(initial=0.0)), -float(a.min(initial=0.0)))


def attention(q, k, v, scale: float, rng=None, keep_prob: float = 1.0) -> Tensor:
    """Fused scaled dot-product attention over the last two axes.

    Computes ``softmax(q @ k^T * scale) @ v`` for q ``[..., Sq, d]`` and
    k, v ``[..., Skv, d]`` with the same leading axes. With a generator
    ``rng`` the weights get dropout: each is kept where a draw
    ``rng.random() < keep_prob`` and then scaled by ``1 / keep_prob``. The
    draws are made block by block in order, so they read the generator's
    stream as one ``rng.random(weights_shape) < keep_prob`` would. Without
    ``rng``, ``keep_prob`` is ignored.

    The flattened leading axes are taken in blocks whose weights fill about
    ``ATTENTION_BLOCK_BYTES``. No ``[Sq, Skv]`` array is scaled or normalized:
    a block keeps its exp weights ``E = exp(s - rowmax(s))`` unnormalized, and
    the per-row factor ``coef = (1 / keep_prob) / rowsum(E)`` multiplies the
    ``[Sq, d]`` output instead (Rabe & Staats 2021). Every matrix is computed
    on its own, so the block size changes no value, and taped and untaped
    calls run the same arithmetic. Under ``no_grad`` each block's arrays are
    reused by the next; otherwise backward keeps E, coef and the boolean
    masks, and uses ``D = rowsum(dO * O)`` for the softmax term (Dao et al.
    2022), so the normalized weights are never built.

    The scores are scanned for non-finite values only when the
    Cauchy-Schwarz bound ``d * max|q * scale| * max|k|`` on them reaches the
    square root of the dtype's largest value; below it no score can
    overflow. The error names ``attention``.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.ndim < 2 or q.shape[-1] != k.shape[-1] or k.shape != v.shape:
        raise ShapeError(f"attention needs q [..., Sq, d] and k, v [..., Skv, d]; "
                         f"got {q.shape}, {k.shape}, {v.shape}")
    if q.shape[:-2] != k.shape[:-2]:
        raise ShapeError(f"attention batch dimensions differ: {q.shape} vs {k.shape}")
    lead, (sq, d), skv = q.shape[:-2], q.shape[-2:], k.shape[-2]
    count = int(np.prod(lead))
    dtype = q.data.dtype
    if rng is None:
        keep_prob = 1.0
    scale, inv_keep = dtype.type(scale), dtype.type(1.0 / keep_prob)

    def flat(a):
        return a.reshape((count,) + a.shape[-2:])

    with np.errstate(over="ignore"):
        qs = flat(q.data) * scale
    ks, vs = flat(k.data), flat(v.data)
    # Cauchy-Schwarz with |row| <= sqrt(d) * max|entry| bounds every score.
    bound = d * _abs_max(qs) * _abs_max(ks)
    scan = not bound < float(np.finfo(dtype).max) ** 0.5
    rows = max(1, ATTENTION_BLOCK_BYTES // max(1, sq * skv * dtype.itemsize))
    starts = range(0, count, rows)
    taped = _GRAD_MODE.enabled and any(t.requires_grad for t in (q, k, v))
    shape = (min(rows, count), sq, skv)
    reused = None if taped else np.empty(shape, dtype)  # E, when no block is kept
    if rng is not None:
        draws = np.empty(shape, np.float64)  # the generator's stream is float64
        dropped = draws if dtype == np.float64 else np.empty(shape, dtype)  # E * mask
        reused_mask = None if taped else np.empty(shape, bool)

    out = np.empty((count, sq, d), dtype)
    exps, coefs, masks = [], [], []  # kept per block for backward
    for lo in starts:
        block, n = slice(lo, lo + rows), min(rows, count - lo)
        with np.errstate(over="ignore", invalid="ignore"):
            e = np.matmul(qs[block], np.swapaxes(ks[block], -1, -2),
                          out=None if taped else reused[:n])
        if scan:
            _ensure_finite(e, "attention")
        e -= e.max(axis=-1, keepdims=True)
        np.exp(e, out=e)
        coef = inv_keep / e.sum(axis=-1, keepdims=True)
        mask, e_kept = None, e
        if rng is not None:
            rng.random(out=draws[:n])
            mask = np.less(draws[:n], keep_prob, out=None if taped else reused_mask[:n])
            e_kept = np.multiply(e, mask, out=dropped[:n])
        np.matmul(e_kept, vs[block], out=out[block])
        out[block] *= coef
        if taped:
            exps.append(e)
            coefs.append(coef)
            masks.append(mask)

    def backward_fn(g):
        qs, ks, vs, gs = flat(q.data), flat(k.data), flat(v.data), flat(g)
        gq, gk, gv = np.empty_like(qs), np.empty_like(ks), np.empty_like(vs)
        buf = np.empty(shape, dtype)  # E * mask, then the score gradient
        for lo, e, coef, mask in zip(starts, exps, coefs, masks):
            block, n = slice(lo, lo + rows), len(e)
            g_b = gs[block]
            e_kept = e if mask is None else np.multiply(e, mask, out=buf[:n])
            np.matmul(np.swapaxes(e_kept, -1, -2), g_b * coef, out=gv[block])
            x = np.matmul(g_b, np.swapaxes(vs[block], -1, -2), out=buf[:n])
            if mask is not None:
                x *= mask
            dsum = (g_b * out[block]).sum(axis=-1, keepdims=True)
            dsum *= keep_prob
            x -= dsum
            x *= e
            coef_scale = coef * scale
            np.matmul(x, ks[block], out=gq[block])
            gq[block] *= coef_scale
            np.matmul(np.swapaxes(x, -1, -2), qs[block] * coef_scale, out=gk[block])
        q._accumulate(gq.reshape(q.shape))
        k._accumulate(gk.reshape(k.shape))
        v._accumulate(gv.reshape(v.shape))

    return _make_output(out.reshape(q.shape), (q, k, v), backward_fn, "attention")


def gaussian_rbf(x, centers: np.ndarray, bandwidth: float) -> Tensor:
    """Expand ``[..., D]`` to ``[..., D * K]`` Gaussian basis activations.

    Feature ``d * K + c`` is ``exp(-(x_d - centers_c)^2 / (2 h^2))`` for the
    K fixed ``centers`` and bandwidth h. The features are built in place in
    one array; backward keeps x and the features, and uses
    ``d phi / dx = phi * (x - c) * (-1 / h^2)``, multiplied out in the order
    of the sub/square/mul/exp composition it replaces, so both give the same
    gradient bit for bit.
    """
    x = as_tensor(x)
    centers = centers.astype(x.data.dtype, copy=False)
    scale = -1.0 / (2.0 * bandwidth * bandwidth)
    feats = x.data[..., None] - centers  # [..., D, K]
    feats *= feats
    feats *= scale
    np.exp(feats, out=feats)

    def backward_fn(g):
        gx = g.reshape(feats.shape) * feats
        gx *= scale
        gx *= 2.0
        gx *= x.data[..., None] - centers
        x._accumulate(gx.sum(axis=-1))

    return _make_output(feats.reshape(x.shape[:-1] + (-1,)), (x,), backward_fn, "rbf")


def conv1d_same(x, w, b) -> Tensor:
    """Single-kernel convolution over the last axis with same-length zero padding.

    ``w`` has shape [k]; ``b`` has shape [1]. The kernel is shared across
    all leading axes, so the op is shape preserving.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if w.ndim != 1 or w.shape[0] < 1:
        raise ShapeError(f"conv1d kernel must be 1-D and non-empty, got shape {w.shape}")
    if b.shape != (1,):
        raise ShapeError(f"conv1d bias must have shape (1,), got {b.shape}")
    k = w.shape[0]
    length = x.shape[-1]
    left = (k - 1) // 2
    right = k - 1 - left
    pad = [(0, 0)] * (x.ndim - 1) + [(left, right)]
    xp = np.pad(x.data, pad)
    windows = np.stack([xp[..., j:j + length] for j in range(k)], axis=-1)  # [..., length, k]
    data = windows @ w.data + b.data

    def backward_fn(g):
        gw = np.tensordot(g.reshape(-1), windows.reshape(-1, k), axes=1)
        gb = np.array([g.sum()])
        gxp = np.zeros_like(xp)
        for j in range(k):
            gxp[..., j:j + length] += w.data[j] * g
        gx = gxp[..., left:left + length]
        x._accumulate(gx)
        w._accumulate(gw)
        b._accumulate(gb)

    return _make_output(data, (x, w, b), backward_fn, "conv1d")
