"""Dense tensors with tape-based reverse-mode automatic differentiation.

Every op computes its value eagerly with numpy and records a backward
closure on the output node. Calling ``backward()`` on a scalar walks the
recorded graph once in reverse topological order, accumulates gradients
into every reachable leaf and consumes the graph as it goes.

Data keeps its own dtype: float32 arrays stay float32 and everything else
becomes float64. A plain Python number meeting a tensor in ``add``, ``sub``,
``mul`` or ``div`` takes the tensor's dtype (NumPy's NEP 50 rule for weak
scalars), so a float32 model stays float32 through its constants.
Any op that produces a non-finite value raises ``NonFiniteError``
immediately instead of letting NaNs propagate into training.

Inside ``no_grad()`` ops compute their values but record nothing, so an
inference forward keeps no intermediate arrays alive.

Gradient ownership: a backward closure never writes into the gradient it
receives, nor into an array after passing it to a parent. An interior node
therefore holds the first gradient it receives by reference, without a copy,
when its dtype and shape already match; a second one is added out of place
(``grad + g``). Leaves own their grads: a plain tensor copies its first
gradient and a ``Parameter`` adds into its zeroed one in place. Once
``training.Adam`` has made a ``Parameter``'s ``data`` and ``grad`` views into
its flat buffers, nothing rebinds them: code outside the tape writes into
them (``p.grad[...] = x``), never ``p.grad = x``.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import math
import os
import threading
from types import SimpleNamespace

import numpy as np


class _GradMode(threading.local):
    enabled = True


_GRAD_MODE = _GradMode()


class ShapeError(ValueError):
    """Raised when operand shapes violate an op's contract."""


class NonFiniteError(FloatingPointError):
    """Raised when an op produces NaN or Inf."""


def _ensure_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
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

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # ---- graph handling ------------------------------------------------

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def _accumulate(self, g: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            if self._backward_fn is not None and g.dtype == self.data.dtype \
                    and g.shape == self.data.shape:
                self.grad = g  # borrowed: see "Gradient ownership" above
            else:
                self.grad = np.array(g, dtype=self.data.dtype, copy=True)
        else:
            self.grad = self.grad + g

    def backward(self) -> None:
        """Accumulate ``grad`` into every reachable leaf, starting from this scalar.

        Backward consumes the graph: once a recorded node has passed its
        gradient on (or received none), its ``grad``, closure and parents are
        dropped, so the arrays it kept for backward are freed while the walk
        goes on. Leaves (parameters and inputs) keep their grads; a second
        call adds nothing to them.
        """
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
        while topo:
            node = topo.pop()
            if node._backward_fn is not None:
                if node.grad is not None:
                    node._backward_fn(node.grad)
                node.grad, node._backward_fn, node._parents = None, None, ()

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
        self.grad.fill(0)

    def _accumulate(self, g: np.ndarray) -> None:
        self.grad += g

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


def grad_enabled() -> bool:
    """Whether this thread records a tape (false inside ``no_grad``)."""
    return _GRAD_MODE.enabled


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
        # C order always: the one-window offset split is otherwise a view that
        # strides its last axis over the phases, and the reductions along that
        # axis after it run slower and sum in another order than a batch's.
        data = np.ascontiguousarray(a.data.reshape(shape))
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
    shared = b.ndim == 2 and a.ndim > 2  # a shared weight: one 2-D GEMM over all rows
    try:
        if shared:
            data = (a.data.reshape(-1, a.shape[-1]) @ b.data).reshape(a.shape[:-1] + b.shape[1:])
        else:
            data = np.matmul(a.data, b.data)
    except ValueError as err:
        raise ShapeError(f"matmul batch dimensions incompatible: {a.shape} vs {b.shape}: {err}") from None

    def backward_fn(g):
        if shared:
            rows = g.reshape(-1, g.shape[-1])
            ga = (rows @ b.data.T).reshape(a.shape)
            gb = a.data.reshape(-1, a.shape[-1]).T @ rows
        else:
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


# ---- the worker pool -----------------------------------------------------------

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8  # glibc's mallopt parameters


@functools.cache
def _hold_heap() -> None:
    """Keep freed step memory mapped in glibc's heap, in one arena, once per process.

    Each train step frees its graph and each inference batch its forward's
    arrays, and by default glibc trims the free heap top and unmaps large
    blocks, so the next step or batch faults the same pages back in. Raising
    the trim threshold keeps them. The mmap threshold is set with it: the
    trim threshold alone turns off glibc's dynamic mmap threshold, which then
    stays at 128 KiB. The pool's worker threads (``worker_count``) share the
    one arena: each thread would otherwise allocate from an arena of its own
    and keep that arena's high-water mark. The pool makes this call before
    its first worker starts. Where libc has no ``mallopt`` this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_ARENA_MAX, 1)
    mallopt(_M_MMAP_THRESHOLD, 32 * 2**20)
    mallopt(_M_TRIM_THRESHOLD, 512 * 2**20)


def worker_count() -> int:
    """Threads ``_run_chunks`` runs its units on, the caller included: CPUs over BLAS threads.

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


def _worker_pool():
    """The process's pool, made at its first parallel ``_run_chunks`` call."""
    global _pool
    with _pool_lock:
        if _pool is None:
            workers = worker_count()
            executor = None
            if workers > 1:
                from concurrent.futures import ThreadPoolExecutor  # 11 ms to import

                _hold_heap()  # one malloc arena, before any worker allocates
                executor = ThreadPoolExecutor(workers - 1, "phasecast-worker")
            _pool = workers, executor
        return _pool


def _forget_pool() -> None:
    """Drop the pool: a forked child has none of its threads, so it makes its own."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


class _UnitMode(threading.local):
    running = False  # this thread runs a unit of a call with more than one


_UNIT_MODE = _UnitMode()


def _run_chunks(run, count: int, claim=None, inline: bool = False) -> None:
    """Call ``run(i)`` for each unit i < count on the calling thread and the pool's workers.

    Each thread takes the next unit not yet taken until none is left, inside
    its own ``no_grad`` (grad mode is per thread) and under the caller's
    numpy error state (``np.errstate`` is per thread too, and a worker would
    otherwise run with numpy's defaults). ``claim(i)``, when given, runs
    under the lock that hands out unit i, just before ``run(i)``, so what it
    reads in order (attention's dropout stream) it reads in unit order.
    Every unit runs, also when one raises; then the first failing unit's
    error, in unit order, is raised here.

    A thread that is already running a unit of a call with more than one
    runs any nested call's units itself, in order, so a nested call neither
    waits on a busy pool nor deadlocks. A call with one unit runs it on the
    caller and leaves its nested calls free to use the pool. ``inline``
    runs the units in order on the caller too, as a nested call does. With
    one worker no thread starts.
    """
    helpers = ()
    if count > 1 and not inline and not _UNIT_MODE.running:
        workers, executor = _worker_pool()
        helpers = range(min(workers, count) - 1)
    claims, lock = itertools.count(), threading.Lock()
    errors = [None] * count

    def drain():
        running = _UNIT_MODE.running
        _UNIT_MODE.running = running or count > 1
        try:
            with no_grad():
                while True:
                    try:
                        with lock:
                            if (i := next(claims)) >= count:
                                break
                            if claim is not None:
                                claim(i)
                        run(i)
                    except BaseException as err:
                        errors[i] = err
        finally:
            _UNIT_MODE.running = running

    def helper(state):
        with np.errstate(**state):
            drain()

    futures = [executor.submit(helper, np.geterr()) for _ in helpers]
    drain()
    for future in futures:
        if not future.cancel():  # a helper that has not started finds nothing left
            future.result()
    for err in errors:
        if err is not None:
            raise err


def _per_thread(local: threading.local, name: str, make):
    """``local``'s ``name`` on this thread, made by ``make()`` at its first use there."""
    found = getattr(local, name, None)
    if found is None:
        found = make()
        setattr(local, name, found)
    return found


# Bytes of exp weights in one attention block, and of features in one
# ``kan`` block. Both ops work through their matrices or rows in blocks
# of about this size, so their working set stays bounded however large the
# batch is. 1 MiB keeps a block within a core's L2 cache: attention makes
# three passes over each block's [Sq, Skv] arrays in forward (six with
# dropout) and about eight in backward, and each pass should re-read L2
# rather than stream from L3 or DRAM. At N = 321 that is one 321 x 321
# float64 matrix per block; small N fit many matrices.
ATTENTION_BLOCK_BYTES = 2**20


def keep_threshold(keep_prob: float) -> int:
    """The 16-bit dropout threshold ``round(keep_prob * 2**16)`` of ``attention``."""
    return round(keep_prob * 2**16)


def attention(q, k, v, scale: float, rng=None, keep_prob: float = 1.0, heads: int = 1) -> Tensor:
    """Fused multi-head scaled dot-product attention over the last two axes.

    q is ``[..., Sq, heads * d]`` and k, v are ``[..., Skv, heads * d]`` with
    the same leading axes. Head h is columns ``h*d:(h+1)*d`` of each, and its
    ``softmax(q_h @ k_h^T * scale) @ v_h`` fills the same columns of the
    output; ``heads=1`` is attention over the last two axes. With a
    generator ``rng`` the weights get dropout.

    This is ``multihead_attention`` with an identity matrix, in the inputs'
    dtype, as all four weights: multiplying by it is exact, and it needs no
    gradient, so it costs no weight-gradient GEMM.
    """
    q, k, v = (as_tensor(t) for t in (q, k, v))
    # The op checks the shapes: a 0-D q gets a 0 x 0 identity for it to reject.
    eye = Tensor(np.eye(sum(q.shape[-1:]), dtype=np.result_type(q.data, k.data, v.data)))
    return multihead_attention(q, k, v, (eye,) * 4, scale, rng, keep_prob, heads)


def multihead_attention(x_q, x_k, x_v, weights, scale: float, rng=None,
                        keep_prob: float = 1.0, heads: int = 1) -> Tensor:
    """Multi-head attention over projections of its inputs, then ``wo``, as one op.

    ``weights`` is ``(wq, wk, wv, wo)``, 2-D: wq, wk and wv ``[D_in, heads *
    d]``, wo ``[heads * d, D_out]``. x_k and x_v share their shape, and all
    three inputs their leading axes and last axis. Head h is columns
    ``h*d:(h+1)*d`` of ``x_q @ wq``, ``x_k @ wk`` and ``x_v @ wv``; the heads'
    ``softmax(q_h @ k_h^T * scale) @ v_h`` fill the same columns of the
    context, and the op returns the context ``@ wo``. A weight that needs no
    gradient gets none and costs no weight-gradient GEMM.

    The ``[Sq, Skv]`` matrices are numbered by leading index (the leading
    axes flattened), then head. With a generator ``rng`` the weights get
    dropout at ``keep_prob`` quantized to ``threshold / 2**16``, where
    ``threshold = keep_threshold(keep_prob)``. Each matrix reads ``words =
    ceil(Sq * Skv / 4)`` 64-bit words of the stream as 16-bit integers,
    keeps a weight where its integer is below ``threshold`` and scales it
    by ``2**16 / threshold``, so the stream is read in matrix order, as one
    ``rng.bit_generator.random_raw((count * heads, words))`` would read it.
    Without ``rng``, ``keep_prob`` is ignored.

    The op works per block of leading indices: whole indices with all their
    heads when one index's heads fit, else some heads of one index. A
    block's weights fill about ``ATTENTION_BLOCK_BYTES`` (at least one
    matrix; untaped, one matrix's augmented operands take at most a quarter
    of it), so its passes re-read the core's L2 cache. An index's first
    block projects its rows, one GEMM per distinct input against the weights
    it feeds side by side (``[wq | wk | wv]`` for self-attention, ``[wk |
    wv]`` when ``x_k is x_v``), into staged ``[q * scale, -m]``, ``[k, 1]^T``
    and (without dropout) ``[v, 1]`` buffers for all its heads. Once its last
    head is written, its context rows are scaled and go through wo into the
    output, so an untaped call holds the output, the inputs and one block's
    buffers per thread.

    No ``[Sq, Skv]`` array is normalized: a block leaves ``E = exp(s - m)``
    unnormalized, and the per-row factor ``coef = (1 / keep_prob) /
    rowsum(E)`` scales the context (Rabe & Staats 2021), so any shift ``m``
    at or above a row's largest score gives the same softmax. ``m`` is the
    Cauchy-Schwarz bound ``|q_i * scale| * max_j |k_j|``; the staged ``-m``
    and ones columns make the score GEMM return ``s - m``, and ``exp`` runs
    on it in place. Without dropout the value GEMM ``E @ [v, 1]`` returns
    ``rowsum(E)`` as its last column; with dropout one pass sums E before
    the mask multiplies it in place. numpy loops once per row over a tiny d
    (3 at L = 96 with four offsets and 8 heads), so per-row work runs on the
    ``[..., Sq, heads * d]`` layout: coef is one ``[count, Sq, heads]``
    array, and an index's factors are repeated d times for flat multiplies.

    A matrix takes the exact path (score GEMM, a scan for non-finite scores
    whose error names ``attention``, the row max as the shift) when a shift
    is non-finite or at least half the dtype's largest value, or a shifted
    row sum is below the square root of the dtype's smallest normal (the
    bound overshot and E underflowed: a gap of about 354 in float64, 44 in
    float32). It is redone before its block's dropout draw, so the stream is
    read the same; one ``any`` and one ``min`` per block decide whether
    ``argwhere`` must look. Every matrix is computed on its own, so neither
    the block size nor the head layout changes an attention value, and taped
    and untaped calls run the same arithmetic. The projection and wo GEMMs
    span a block's indices, so the block size may move their last digits.

    A taped call keeps no ``[Sq, Skv]`` float array and no projection: it
    keeps the whole context, coef, the shifts and, per block, the boolean
    mask and the matrices the guard redid. Backward projects each index
    again (Chen et al. 2016), rebuilds its E bit for bit without touching
    ``rng``, and takes the softmax term from ``D = rowsum(dO * O)`` (Dao et
    al. 2022), one flat product and one GEMV over d per index. The input
    gradients are then 2-D GEMMs over the index's rows, one per distinct
    input, and so are the weight gradients of a distinct input one of whose
    weights needs a gradient, and of a wo that needs one.

    Both passes run their index rows as the units of ``_run_chunks``, on the
    caller and the worker pool (FlashAttention-2, Dao 2023, splits over batch
    and heads the same way); a call with one index row hands out its head
    blocks instead, and a call inside another call's unit runs inline. Heads
    write disjoint column views, an index's masks are drawn under the lock
    that hands the index out, and backward adds each index's weight-gradient
    terms in index order, so every bit is the same for any worker count.
    """
    xq, xk, xv = (as_tensor(t) for t in (x_q, x_k, x_v))
    if xq.ndim < 2 or xq.shape[-1] != xk.shape[-1] or xk.shape != xv.shape or heads < 1:
        raise ShapeError(f"attention with {heads} heads needs q [..., Sq, heads * d] and "
                         f"k, v [..., Skv, heads * d]; got {xq.shape}, {xk.shape}, {xv.shape}")
    if xq.shape[:-2] != xk.shape[:-2]:
        raise ShapeError(f"attention batch dimensions differ: {xq.shape} vs {xk.shape}")
    ws = tuple(as_tensor(w) for w in weights)
    wq, wo = ws[0], ws[3]
    if any(w.ndim != 2 for w in ws) or wq.shape[0] != xq.shape[-1] \
            or not ws[1].shape == ws[2].shape == wq.shape or wo.shape[0] != wq.shape[1]:
        raise ShapeError(f"attention weights {[w.shape for w in ws]} do not fit "
                         f"inputs of width {xq.shape[-1]}")
    width, width_out = wo.shape  # heads * d, then D_out
    if width % heads:
        raise ShapeError(f"attention with {heads} heads needs a width divisible by it, "
                         f"got {width}")
    sq, skv, d = xq.shape[-2], xk.shape[-2], width // heads
    count = math.prod(xq.shape[:-2])
    # The sources: each distinct input, its data as [count, S, D_in], the
    # weights it feeds side by side and the roles it plays (0 = q, 1 = k,
    # 2 = v).
    by_input = {}
    for r, t in enumerate((xq, xk, xv)):
        by_input.setdefault(id(t), (t, []))[1].append(r)
    sources = [(t, t.data.reshape(count, t.shape[-2], t.shape[-1]),
                np.concatenate([ws[r].data for r in roles], axis=1), roles)
               for t, roles in by_input.values()]
    # Per source, then for wo: the weights that take the columns of its
    # weight gradient, and whether one of them needs it. Only those that do
    # get a weight-gradient GEMM.
    owners = [[(ws[r], slice(j * width, (j + 1) * width)) for j, r in enumerate(roles)]
              for _, _, _, roles in sources] + [[(wo, slice(None))]]
    learns = [any(w.requires_grad for w, _ in slot) for slot in owners]
    parents = tuple(t for t, _, _, _ in sources) + ws
    # A float32 input with float64 weights runs in float64, as matmul would.
    dtype = np.result_type(*(t.data.dtype for t in parents))
    if rng is None:
        keep_prob, inv_keep = 1.0, 1.0
    else:
        threshold = keep_threshold(keep_prob)
        if not 0 < threshold <= 2**16:
            raise ValueError(f"keep_prob {keep_prob} is not in (0, 1] in steps of 2**-16")
        keep_prob, inv_keep = threshold / 2**16, 2**16 / threshold
        words = -(-sq * skv // 4)  # 64-bit words per matrix, four weights each
    scale, inv_keep = dtype.type(scale), dtype.type(inv_keep)
    finfo = np.finfo(dtype)
    max_shift, min_sum = finfo.max / 2, np.sqrt(finfo.tiny)

    def split(a):  # [n, S, nh * d] -> [n, nh, S, d], a view
        return a.reshape(a.shape[0], a.shape[1], a.shape[2] // d, d).swapaxes(1, 2)

    def flat_factors(i):
        """The ``[n, S, heads]`` factors of index rows i repeated d times: ``[n, S, heads * d]``."""
        return np.repeat(coef[i], d, axis=-1)

    taped = _GRAD_MODE.enabled and any(t.requires_grad for t in parents)
    # E fills the block. Untaped, at small N the thin augmented operands
    # below would outweigh it, so one matrix's take at most a quarter of its
    # share; taped, the masks and per-row factors kept from every block, the
    # output and the gradients that backward makes outweigh them anyway.
    # Staged for all heads of an index, they outgrow that share only where a
    # block holds some heads of one index (about 1 MB at N = 321, d = 12).
    matrix_bytes = sq * skv * dtype.itemsize
    if not taped:
        aug_bytes = (2 if rng is None else 1) * (sq + skv) * (d + 1) * dtype.itemsize
        matrix_bytes = max(matrix_bytes, 4 * aug_bytes)
    per_block = max(1, ATTENTION_BLOCK_BYTES // max(1, matrix_bytes))
    # A block is whole leading indices with all their heads, or some heads of
    # one index: the index rows (slice, count) times the head blocks (slice,
    # count). Slicing clamps h + cols to heads, so the last head block may
    # hold fewer heads. Block b = u * len(head_blocks) + j is rows u, heads j.
    rows, cols = max(1, min(count, per_block // heads)), min(heads, per_block)
    indices = [(slice(i, i + rows), min(rows, count - i)) for i in range(0, count, rows)]
    head_blocks = [(slice(h, h + cols), min(cols, heads - h)) for h in range(0, heads, cols)]
    shape = (rows, cols, sq, skv)
    staged = (rows, heads)  # an index's operands are staged for all its heads
    # Indices that share a block hold small matrices, and their units are
    # mostly Python work that the GIL serializes: on two workers they ran
    # 1.1-1.4x slower at N = 7. So only indices that fill a block each go to
    # the pool.
    inline = rows > 1

    def row_buffers():
        """Per source, a buffer for an index block's rows of its projections."""
        return [np.empty((rows * x3.shape[1], w.shape[1]), dtype) for _, x3, w, _ in sources]

    def role_views(i, nb, per_source):
        """q, k and v of index rows i as ``[nb, S, width]`` views of each source's 2-D rows."""
        views = [None] * 3
        for (_, _, _, roles), flat in zip(sources, per_source):
            for j, r in enumerate(roles):
                views[r] = flat[:, j * width:(j + 1) * width].reshape(nb, -1, width)
        return views

    # Forward and backward stage an index and build a block's E with these,
    # so backward's projections and E have the forward's bits. Each pass
    # makes its own buffers, one set per thread that takes part (see
    # `_per_thread`), so a taped call keeps none of them.
    def staged_buffers(**more):
        """An index's projection rows, ``[q * scale, -m]`` and ``[k, 1]^T``, and ``more``."""
        # k is stored transposed because a GEMM against a transposed view is
        # up to 3x slower at small N. The ones are written once.
        return SimpleNamespace(proj=row_buffers(), qa=np.empty(staged + (sq, d + 1), dtype),
                               kt=np.ones(staged + (d + 1, skv), dtype), **more)

    def stage(i, nb, st, neg_shift=None):
        """Project index rows i and stage their heads' ``[q * scale, -m]`` and ``[k, 1]^T`` in st.

        Returns q, k and v (``[nb, S, width]``) and the ``[nb, heads, Sq]``
        negated shifts. Backward passes forward's shifts in.
        """
        projected = [np.matmul(x3[i].reshape(-1, x3.shape[-1]), w, out=buf[:nb * x3.shape[1]])
                     for (_, x3, w, _), buf in zip(sources, st.proj)]
        q_i, k_i, v_i = role_views(i, nb, projected)
        ks = split(k_i)
        if neg_shift is None:
            # Overflow and 0 * inf land in a shift that the guard rejects.
            # The shift is built negated and C-ordered and copied into the q
            # buffers: numpy 2.4's AVX-512 `negative` miswrites a
            # 64-byte-strided input into a strided `out`, which shifted rows
            # by other rows' bounds.
            qs = split(q_i)
            with np.errstate(over="ignore", invalid="ignore"):
                k_norm = np.sqrt(np.einsum("...i,...i->...", ks, ks).max(axis=-1, keepdims=True))
                neg_shift = np.multiply(np.sqrt(np.einsum("...i,...i->...", qs, qs)),
                                        -(k_norm * abs(scale)), order="C")
        st.qa[:nb, ..., :d] = split(q_i * scale)  # flat multiply, then a copy
        st.qa[:nb, ..., d] = neg_shift
        st.kt[:nb, :, :d] = np.swapaxes(ks, -1, -2)
        return q_i, k_i, v_i, neg_shift

    def block_exp(nb, h, nh, st, scores):
        """The block's ``E = exp(s - m)``, in place in ``scores``, from its index's staged heads."""
        # The score GEMM writes a reused, cache-warm buffer, and exp runs
        # there in place: into fresh memory the GEMM runs about twice as slow
        # at N = 321.
        e = scores[:nb, :nh]
        return np.exp(np.matmul(st.qa[:nb, h], st.kt[:nb, h], out=e), out=e)

    def exact_exp(e, pairs, h0, st):
        """Redo the ``(index, head)`` matrices of ``block_exp``'s E on the exact path.

        The pairs count heads from the block's first head h0, the staged
        operands from head 0.
        """
        for i, j in pairs:
            e_i = np.matmul(st.qa[i, h0 + j, :, :d], st.kt[i, h0 + j, :d], out=e[i, j])
            _ensure_finite(e_i, "attention")
            e_i -= e_i.max(axis=-1, keepdims=True)
            np.exp(e_i, out=e_i)

    out = np.empty(xq.shape[:-1] + (width_out,), dtype)
    out3 = out.reshape(count, sq, width_out)
    # The whole context when taped (backward reads it), else one block's
    # rows per thread.
    ctx3 = np.empty((count, sq, width), dtype) if taped else None
    # (1 / keep_prob) / rowsum(E) per row and head, for the dropout path and
    # backward; taped, also every index's shifts.
    coef = np.empty((count, sq, heads), dtype) if taped or rng is not None else None
    shifts = np.empty((count, heads, sq), dtype) if taped else None
    kept = [None] * (len(indices) * len(head_blocks))  # (mask, exact-path pairs), for backward
    masks = [None] * len(indices)
    forward_local = threading.local()

    def draw(u):
        """The dropout masks of index rows u, all heads: run under the lock that hands out u."""
        nb = indices[u][1]
        draws = rng.bit_generator.random_raw((nb * heads, words)).view(np.uint16)
        draws = draws[:, :sq * skv].reshape(nb, heads, sq, skv)
        # `<= threshold - 1`: a threshold of 2**16 does not fit in uint16.
        masks[u] = np.less_equal(draws, threshold - 1)

    def forward_index(u):
        """Stage index rows u, run their head blocks, then scale their context and apply wo."""
        i, nb = indices[u]
        st = _per_thread(forward_local, "staged", lambda: staged_buffers(
            # Without dropout also an index's [v, 1] and [E @ v, rowsum(E)].
            va=np.ones(staged + (skv, d + 1), dtype) if rng is None else None,
            oa=np.empty(staged + (sq, d + 1), dtype) if rng is None else None,
            ctx=None if taped else np.empty((rows, sq, width), dtype)))
        q_i, k_i, v_i, neg_shift = stage(i, nb, st)
        unsafe = ~(neg_shift > -max_shift).all(axis=-1)
        if taped:
            shifts[i] = neg_shift
        ctx_i = ctx3[i] if taped else st.ctx[:nb]
        if rng is None:
            st.va[:nb, ..., :d] = split(v_i)
        mask_i, masks[u] = masks[u], None

        def forward_heads(j):
            h, nh = head_blocks[j]
            scores = _per_thread(forward_local, "scores", lambda: np.empty(shape, dtype))
            e = block_exp(nb, h, nh, st, scores)
            if rng is None:
                va_b, oa_b = st.va[:nb, h], st.oa[:nb, h]
                sums = np.matmul(e, va_b, out=oa_b)[..., d:]
            else:
                sums = e.sum(axis=-1, keepdims=True)
            # The guard: redo these matrices on the exact path, shifted by
            # their row maxima after a scan of the scores. One reduction per
            # block checks first; a NaN sum compares false in both forms, so
            # they find the same matrices.
            pairs = ()
            if unsafe[:, h].any() or sums.min() < min_sum:
                pairs = np.argwhere(unsafe[:, h] | (sums < min_sum).any(axis=(-2, -1)))
                exact_exp(e, pairs, h.start, st)
            for a, jj in pairs:
                if rng is None:
                    np.matmul(e[a, jj], va_b[a, jj], out=oa_b[a, jj])
                else:
                    sums[a, jj] = e[a, jj].sum(axis=-1, keepdims=True)
            mask = None
            if rng is not None:
                coef[i, :, h] = (inv_keep / sums)[..., 0].swapaxes(1, 2)
                # The sum above was forward's last read of the unmasked E, so
                # the mask goes on in place. v, not [v, 1]: at head size 12 an
                # unused sum column would cost a quarter of this GEMM.
                mask = mask_i[:, h]
                e *= mask
                np.matmul(e, split(v_i)[:, h], out=split(ctx_i)[:, h])
            if taped:
                kept[u * len(head_blocks) + j] = mask, pairs

        _run_chunks(forward_heads, len(head_blocks))
        # Every head is written: the index's rows, in the context's order.
        if rng is None:
            oa_i = st.oa[:nb].swapaxes(1, 2)
            coef_i = inv_keep / oa_i[..., d:]
            np.multiply(oa_i[..., :d], coef_i, out=ctx_i.reshape(nb, sq, heads, d))
            if coef is not None:
                coef[i] = coef_i[..., 0]
        else:  # one flat pass over the index's rows
            ctx_i *= flat_factors(i)
        np.matmul(ctx_i.reshape(-1, width), wo.data, out=out3[i].reshape(-1, width_out))

    # Only matrices the guard sends down the exact path can overflow here;
    # every unit runs under this state, on whichever thread takes it.
    with np.errstate(over="ignore", invalid="ignore"):
        _run_chunks(forward_index, len(indices), None if rng is None else draw, inline)
    del forward_local  # each thread's buffers go with it

    def backward_fn(g):
        g3 = g.reshape(count, sq, width_out)
        grads = [np.empty(x3.shape, dtype) for _, x3, _, _ in sources]
        terms = [None] * len(indices)  # each index's weight-gradient terms
        ones = np.ones(d, dtype)
        local = threading.local()

        def backward_index(u):
            """Stage index rows u again, run their head blocks, then project their gradients back."""
            i, nb = indices[u]
            # v^T per index: a GEMM against a transposed view is slower.
            st = _per_thread(local, "staged", lambda: staged_buffers(
                grad_rows=row_buffers(), vt=np.empty(staged + (d, skv), dtype)))
            q_i, k_i, v_i, _ = stage(i, nb, st, shifts[i])
            proj_grads = [buf[:nb * x3.shape[1]]
                          for (_, x3, _, _), buf in zip(sources, st.grad_rows)]
            gq_i, gk_i, gv_i = role_views(i, nb, proj_grads)
            ctx_i, g_rows = ctx3[i], g3[i].reshape(-1, width_out)
            dctx = (g_rows @ wo.data.T).reshape(nb, sq, width)
            # D = rowsum(dO * O) for the index's rows and heads: one flat
            # product and one GEMV over d.
            dsum = np.matmul((dctx * ctx_i).reshape(-1, d), ones).reshape(nb, sq, heads)
            dsum *= keep_prob
            factor = flat_factors(i)
            g_coef = split(dctx * factor)
            factor *= scale
            q_coef = split(q_i * factor)
            st.vt[:nb] = np.swapaxes(split(v_i), -1, -2)
            gs, ks = split(dctx), split(k_i)

            def backward_heads(j):
                h, nh = head_blocks[j]
                mask, pairs = kept[u * len(head_blocks) + j]
                # buf holds E * mask, then the score gradient.
                scores, buf = _per_thread(local, "block",
                                          lambda: (np.empty(shape, dtype), np.empty(shape, dtype)))
                with np.errstate(over="ignore", invalid="ignore"):
                    e = block_exp(nb, h, nh, st, scores)
                    exact_exp(e, pairs, h.start, st)
                e_kept = e if mask is None else np.multiply(e, mask, out=buf[:nb, :nh])
                np.matmul(np.swapaxes(e_kept, -1, -2), g_coef[:, h], out=split(gv_i)[:, h])
                x = np.matmul(gs[:, h], st.vt[:nb, h], out=buf[:nb, :nh])
                if mask is not None:
                    x *= mask
                x -= dsum[:, :, h].swapaxes(1, 2)[..., None]
                x *= e
                np.matmul(x, ks[:, h], out=split(gq_i)[:, h])
                np.matmul(np.swapaxes(x, -1, -2), q_coef[:, h], out=split(gk_i)[:, h])

            _run_chunks(backward_heads, len(head_blocks))
            # Every head is written: scale dq, then project back per source.
            gq_i *= factor
            w_terms = []  # of the sources, then wo, that learn
            for (_, x3, w, _), gx, g_proj, learn in zip(sources, grads, proj_grads, learns):
                np.matmul(g_proj, w.T, out=gx[i].reshape(-1, x3.shape[-1]))
                if learn:
                    w_terms.append(x3[i].reshape(-1, x3.shape[-1]).T @ g_proj)
            if learns[-1]:
                w_terms.append(ctx_i.reshape(-1, width).T @ g_rows)
            terms[u] = w_terms

        _run_chunks(backward_index, len(indices), inline=inline)
        del local
        for (t, _, _, _), gx in zip(sources, grads):
            t._accumulate(gx.reshape(t.shape))
        # Each index's terms go in in index order, as one thread would add them.
        w_grads = [np.zeros(w.shape, dtype) for w, learn in
                   zip([w for _, _, w, _ in sources] + [wo.data], learns) if learn]
        for w_terms in terms:
            for gw, term in zip(w_grads, w_terms):
                gw += term
        for gw, slot in zip(w_grads, itertools.compress(owners, learns)):
            for w, cols in slot:
                w._accumulate(gw[:, cols])

    return _make_output(out, parents, backward_fn, "attention")


def _expand(x: np.ndarray, centers: np.ndarray, scale: float, out: np.ndarray) -> np.ndarray:
    """Write the ``[..., D, K]`` features ``exp(scale * (x - c)^2)`` into ``out``.

    ``x - c`` is the GEMM ``[x, 1] @ [1; -c]``: each entry is
    ``x * 1 + 1 * (-c)``, both products exact, so it rounds once, as the
    subtraction does, and the features are those of ``x[..., None] - c``
    bit for bit. Square, scale and ``exp`` are flat passes in place. A
    far-off x squares to inf and its feature to ``exp(-inf) = 0``, which is
    no error, so overflow is not reported.
    """
    xa = np.ones((2, x.size), out.dtype)  # [x, 1], stored transposed
    xa[0] = x.reshape(-1)
    with np.errstate(over="ignore"):
        np.matmul(xa.T, np.stack([np.ones_like(centers), -centers]),
                  out=out.reshape(-1, centers.size))
        out *= out
        out *= scale
        return np.exp(out, out=out)


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
    feats = _expand(x.data, centers, scale, np.empty(x.shape + centers.shape, x.data.dtype))

    def backward_fn(g):
        gx = g.reshape(feats.shape) * feats
        gx *= scale
        gx *= 2.0
        gx *= x.data[..., None] - centers
        x._accumulate(gx.sum(axis=-1))

    return _make_output(feats.reshape(x.shape[:-1] + (-1,)), (x,), backward_fn, "rbf")


def layer_norm(x, gamma, beta, eps: float) -> Tensor:
    """Normalize the last axis of x, then scale by gamma and shift by beta.

    Computes ``(x - mean) / s * gamma + beta`` with ``s = sqrt(var + eps)``
    (population variance), through the numpy calls of the mean / sub /
    square / mean / add / sqrt / div / mul / add composition it replaces, so
    both give the same output bit for bit. Backward keeps the normalized
    input ``n`` and ``s``, and with ``gn = g * gamma`` uses
    ``gx = (t - mean(t)) / s`` with ``t = gn - n * mean(gn * n)``. That is
    ``(gn - mean(gn) - n * mean(gn * n)) / s`` when ``mean(n) = 0``; taking
    the mean last keeps the gradient as accurate as the composition's on rows
    whose centering cancelled most digits, where the rounded n has a mean
    about ``u * |x| / s`` (u the unit roundoff) away from 0.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    dim = x.shape[-1]
    if gamma.shape != (dim,) or beta.shape != (dim,):
        raise ShapeError(f"layer norm over {x.shape} needs gamma and beta of shape ({dim},), "
                         f"got {gamma.shape} and {beta.shape}")
    # Overflow lands in s or the output, and both are checked.
    with np.errstate(over="ignore", invalid="ignore"):
        normed = x.data - x.data.mean(axis=-1, keepdims=True)
        var = (normed * normed).mean(axis=-1, keepdims=True)
        s = np.sqrt(var + np.asarray(eps, x.data.dtype))
        _ensure_finite(s, "layer_norm")
        np.divide(normed, s, out=normed)
        taped = _GRAD_MODE.enabled and any(t.requires_grad for t in (x, gamma, beta))
        data = np.multiply(normed, gamma.data, out=None if taped else normed)
        data += beta.data

    def backward_fn(g):
        g_normed = g * normed
        gamma._accumulate(g_normed.reshape(-1, dim).sum(axis=0))
        beta._accumulate(g.reshape(-1, dim).sum(axis=0))
        # The row means as matrix-vector products. mean(t) comes off last, as
        # in the composition: where centering lost digits, mean(n) is not 0.
        gx = g * gamma.data
        gx -= normed * (np.matmul(g_normed, gamma.data) / dim)[..., None]
        gx -= (np.matmul(gx, np.ones(dim, gx.dtype)) / dim)[..., None]
        gx /= s
        x._accumulate(gx)

    return _make_output(data, (x, gamma, beta), backward_fn, "layer_norm")


def kan(x, centers: np.ndarray, bandwidth: float, w) -> Tensor:
    """Gaussian-RBF KAN layer: ``gaussian_rbf(x, centers, bandwidth) @ w`` as one op.

    x is ``[..., D]`` and w ``[D * K, out]`` for the K ``centers``. The
    flattened rows of x are taken in blocks whose features fill about
    ``ATTENTION_BLOCK_BYTES``; each block's features are built in place as
    ``gaussian_rbf`` builds them and multiplied by w while they are in
    cache. Untaped, every block reuses one buffer, so the ``[..., D * K]``
    features are never whole; taped, the blocks fill one kept feature array
    F. Backward works through the same blocks: ``gF = (g @ w^T) * F``,
    ``gw`` is the sum of the blocks' ``F^T @ g``, and
    ``gx = 2 * scale * (x * sum_k gF - gF @ centers)`` with
    ``scale = -1 / (2 h^2)``, three passes over the features; ``[sum_k gF,
    gF @ centers]`` is one GEMM against ``[1 | c]``, so no reduction runs
    along the K-wide centre axis. Summing ``gw`` per block and the K terms
    in BLAS's order reorders sums, so the op matches the composition within
    about 1e-12 relative rather than bit for bit.
    """
    x, w = as_tensor(x), as_tensor(w)
    dim, num_centers = x.shape[-1], centers.size
    if w.ndim != 2 or w.shape[0] != dim * num_centers:
        raise ShapeError(f"kan over {x.shape} with {num_centers} centers needs weights "
                         f"[{dim * num_centers}, out], got {w.shape}")
    dtype = x.data.dtype
    centers = centers.astype(dtype, copy=False)
    scale = -1.0 / (2.0 * bandwidth * bandwidth)
    xs = x.data.reshape(-1, dim)
    count, width = xs.shape[0], dim * num_centers
    rows = max(1, ATTENTION_BLOCK_BYTES // (width * dtype.itemsize))
    starts = range(0, count, rows)
    taped = _GRAD_MODE.enabled and (x.requires_grad or w.requires_grad)
    feats = np.empty((count if taped else min(rows, count), dim, num_centers), dtype)
    out = np.empty((count, w.shape[1]), np.result_type(dtype, w.data.dtype))
    with np.errstate(over="ignore"):  # an overflowing output fails the output check
        for lo in starts:
            block, n = slice(lo, lo + rows), min(rows, count - lo)
            f = _expand(xs[block], centers, scale, feats[block] if taped else feats[:n])
            np.matmul(f.reshape(n, width), w.data, out=out[block])

    def backward_fn(g):
        gs = g.reshape(-1, g.shape[-1])
        gx, gw = np.empty_like(xs), np.zeros_like(w.data)
        buf = np.empty((min(rows, count), width), dtype)  # the feature gradient gF
        sbuf = np.empty((min(rows, count) * dim, 2), dtype)
        ones_centers = np.stack([np.ones_like(centers), centers], axis=1)
        for lo in starts:
            block, n = slice(lo, lo + rows), min(rows, count - lo)
            f, g_b = feats[block].reshape(n, width), gs[block]
            gw += f.T @ g_b
            gf = np.matmul(g_b, w.data.T, out=buf[:n])
            gf *= f
            # [sum_k gF, gF @ centers] as one GEMM against [1 | c].
            sums = np.matmul(gf.reshape(n * dim, num_centers), ones_centers, out=sbuf[:n * dim])
            gx_b = np.multiply(sums[:, 0].reshape(n, dim), xs[block], out=gx[block])
            gx_b -= sums[:, 1].reshape(n, dim)
            gx_b *= 2.0 * scale
        x._accumulate(gx.reshape(x.shape))
        w._accumulate(gw)

    return _make_output(out.reshape(x.shape[:-1] + (w.shape[1],)), (x, w), backward_fn, "kan")


def revin_normalize(x, mean: np.ndarray, std: np.ndarray, gamma=None, beta=None) -> Tensor:
    """RevIN's forward transform ``(x - mean) / std * gamma + beta`` for x ``[B, N, L]``.

    ``mean`` and ``std`` are ``[B, N, 1]`` arrays taken from x's data and
    are constants of the tape. ``gamma`` and ``beta`` are ``[N]`` tensors
    applied per variate, or both None for no affine. The numpy calls are
    those of the sub / div / mul / add composition it replaces, so the
    output is the same bit for bit. Backward keeps ``z = (x - mean) / std``
    when there is an affine.
    """
    x = as_tensor(x)
    z = x.data - mean
    z /= std
    if gamma is None:
        data, parents = z, (x,)
    else:
        gamma, beta = as_tensor(gamma), as_tensor(beta)
        with np.errstate(over="ignore"):  # caught by the output check
            data = z * gamma.data.reshape(-1, 1)
            data += beta.data.reshape(-1, 1)
        parents = (x, gamma, beta)

    def backward_fn(g):
        if gamma is None:
            x._accumulate(g / std)
            return
        gamma._accumulate((g * z).sum(axis=(0, 2)))
        beta._accumulate(g.sum(axis=(0, 2)))
        gx = g * gamma.data.reshape(-1, 1)
        gx /= std
        x._accumulate(gx)

    return _make_output(data, parents, backward_fn, "revin_normalize")


def revin_denormalize(y, mean: np.ndarray, std: np.ndarray, gamma=None, beta=None,
                      eps: float = 0.0) -> Tensor:
    """RevIN's inverse transform ``(y - beta) / (gamma + eps^2) * std + mean``.

    Shapes and constants are those of ``revin_normalize``; without an
    affine it is ``y * std + mean``. The ``eps^2`` floor keeps a gamma of 0
    finite. The numpy calls are those of the composition it replaces, so
    the output is the same bit for bit. Backward keeps
    ``u = (y - beta) / (gamma + eps^2)`` when there is an affine.
    """
    y = as_tensor(y)
    # A gamma of exactly -eps^2 divides by zero; the output check catches it.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if gamma is None:
            u, parents = y.data, (y,)
        else:
            gamma, beta = as_tensor(gamma), as_tensor(beta)
            denom = gamma.data.reshape(-1, 1) + np.asarray(eps ** 2, gamma.data.dtype)
            u = y.data - beta.data.reshape(-1, 1)
            u /= denom
            parents = (y, gamma, beta)
        data = u * std
        data += mean

    def backward_fn(g):
        gu = g * std
        if gamma is not None:
            gu /= denom
            beta._accumulate(-gu.sum(axis=(0, 2)))
            gamma._accumulate(-(gu * u).sum(axis=(0, 2)))
        y._accumulate(gu)

    return _make_output(data, parents, backward_fn, "revin_denormalize")


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
