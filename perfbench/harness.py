"""Step timing, layer spans, retained-memory probes and the tape census.

Everything here measures phasecast from outside: it replaces the module
attributes that phasecast's own code looks up (for example
``phasecast.model.split_offsets`` or ``MultiHeadAttention.__call__``) with
thin wrappers, and it reads the autodiff graph the program already built.
Nothing under ``src/`` is edited.

Two kinds of wrapper are installed:

* step hooks on ``Forecaster.forward`` and ``Adam.step``. They are always on,
  because the end-to-end step times come from them. Their cost is two clock
  reads per step.
* span wrappers on every layer entry point. They record nothing unless
  ``Tracer.tracing`` is set, so the untraced run pays one attribute test per
  call. In a traced run every other step is left untraced, to measure the
  tracing overhead.

A target that no longer exists (a later refactor removed or renamed it) is
listed in ``Tracer.absent`` and its metrics read 0; that is not an error.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass

import numpy as np

# (module, attribute path, span name). The module is the one whose globals the
# caller reads, so a name imported into several modules is patched in each.
SPAN_TARGETS = (
    ("phasecast.experiment", "run_train", "experiment.run_train"),
    ("phasecast.experiment", "prepare_windows", "data.prepare_windows"),
    ("phasecast.experiment", "train_model", "training.train_model"),
    ("phasecast.experiment", "_evaluate", "training.evaluate"),
    ("phasecast.data", "prepare_windows", "data.prepare_windows"),
    ("phasecast.data", "load_csv", "data.load_csv"),
    ("phasecast.data", "make_windows", "data.make_windows"),
    ("phasecast.training", "train_model", "training.train_model"),
    ("phasecast.training", "evaluate_mse", "training.evaluate"),
    ("phasecast.training", "mse_loss", "training.mse_loss"),
    ("phasecast.training", "Adam.step", "training.adam_step"),
    ("phasecast.tensor", "Tensor.backward", "tensor.backward"),
    ("phasecast.model", "Forecaster.__init__", "model.build"),
    ("phasecast.model", "Forecaster.forward", "model.forward"),
    ("phasecast.model", "Forecaster.save_checkpoint", "model.save_checkpoint"),
    ("phasecast.model", "Forecaster.load_checkpoint", "model.load_checkpoint"),
    ("phasecast.model", "split_offsets", "offsets.split"),
    ("phasecast.model", "merge_offsets", "offsets.merge"),
    ("phasecast.revin", "RevIN.normalize", "revin.normalize"),
    ("phasecast.revin", "RevIN.denormalize", "revin.denormalize"),
    ("phasecast.layers", "GaussianKanLayer.__call__", "layers.kan"),
    ("phasecast.layers", "MultiHeadAttention.__call__", "layers.attn"),
    ("phasecast.layers", "Linear.__call__", "layers.linear"),
)

def _param_prefix(layer) -> str:
    """Name path of a layer, read off its first parameter ("block0.attn_local")."""
    for attr in ("wq", "weight", "weights"):
        param = getattr(layer, attr, None)
        name = getattr(param, "name", None)
        if isinstance(name, str):
            return name.rsplit(".", 1)[0]
    return ""


def _attention_name(layer):
    leaf = _param_prefix(layer).rsplit(".", 1)[-1]
    return f"layers.{leaf}" if leaf in ("attn_local", "attn_fusion") else "layers.attn"


def _linear_name(layer):
    # Only the prediction head is a layer of its own; other Linear calls
    # (the mlp-swap variant) stay inside their parent span.
    return "layers.head" if _param_prefix(layer).rsplit(".", 1)[-1] == "head" else None


NAMERS = {"layers.attn": _attention_name, "layers.linear": _linear_name}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int      # index into Tracer.spans, -1 at top level
    step: int        # step id open when the span started, -1 outside steps
    phase: str       # "setup" or "call"
    grown: int | None  # tracemalloc growth surviving the span, in memory steps

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Step:
    step: int
    start: float
    seconds: float
    windows: int
    traced: bool
    memory: bool


class Tracer:
    """Holds every hook's state for one benchmark process."""

    def __init__(self, step_kind: str):
        if step_kind not in ("train", "eval"):
            raise ValueError(f"unknown step kind {step_kind!r}")
        self.step_kind = step_kind  # a step ends at Adam.step ("train") or forward ("eval")
        self.measuring = False      # steps are only counted inside measured calls
        self.tracing = False        # span wrappers record only while set
        self.traced_run = False     # trace every other step of the measured calls
        self.phase = "setup"
        self.spans: list = []
        self.steps: list = []
        self.absent: list = []
        self.windows_mb = 0.0       # size of the last prepared window set
        self.census: dict | None = None
        self.memory_steps_left = 0
        self.last_model = None
        self.step_attempts = 0
        self._stack: list = []
        self._open: set = set()
        self._step_id = -1
        self._step_start = None
        self._step_windows = 0
        self._step_memory = False
        self._next_id = 0

    # ---- steps ---------------------------------------------------------

    @property
    def in_step(self) -> bool:
        return self._step_start is not None

    def begin_step(self, windows: int) -> None:
        self.step_attempts += 1
        self._step_id = self._next_id
        self._next_id += 1
        self._step_windows = windows
        # Odd steps are traced and even ones are not, so the tracing overhead
        # is measured against steps interleaved with the traced ones.
        self.tracing = self.traced_run and self._step_id % 2 == 1
        self._step_memory = self.tracing and self.memory_steps_left > 0
        if self._step_memory:
            self.memory_steps_left -= 1
            tracemalloc.start()
        self._step_start = time.perf_counter()

    def end_step(self) -> None:
        seconds = time.perf_counter() - self._step_start
        self.steps.append(Step(self._step_id, self._step_start, seconds, self._step_windows,
                               self.tracing, self._step_memory))
        self.abort_step()

    def abort_step(self) -> None:
        """Close the open step without recording it (the step raised)."""
        if self._step_memory and tracemalloc.is_tracing():
            tracemalloc.stop()
        self._step_start = None
        self._step_memory = False
        self._step_id = -1
        self.tracing = self.traced_run

    # ---- spans ---------------------------------------------------------

    def run_span(self, name, fn, args, kwargs, on_result=None):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        self._open.add(name)
        step, phase = self._step_id, self.phase
        mem0 = tracemalloc.get_traced_memory()[0] if self._step_memory else None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            grown = None if mem0 is None else tracemalloc.get_traced_memory()[0] - mem0
            self._stack.pop()
            self._open.discard(name)
            self.spans[index] = Span(name, start, end, parent, step, phase, grown)
        if on_result is not None:
            on_result(result)
        return result

    def call(self, name, fn, args, kwargs, on_result=None):
        """Run ``fn``, inside a span named ``name`` while tracing.

        A span never nests inside one of the same name, so a function that
        later delegates to another traced one is not counted twice.
        """
        if not self.tracing or name is None or name in self._open:
            return fn(*args, **kwargs)
        return self.run_span(name, fn, args, kwargs, on_result)

    def take_census(self, root) -> None:
        if self.census is None and self._step_memory:
            self.census = tape_census(root)


# ---- installing wrappers ----------------------------------------------------


def _resolve(modname, path):
    """(owner, attribute name, raw attribute) or None when the target is gone."""
    try:
        owner = importlib.import_module(modname)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    # Look in the owner and its bases only: getattr would also find
    # metaclass attributes such as type.__call__ once a method is gone.
    for scope in owner.__mro__ if isinstance(owner, type) else (owner,):
        if parts[-1] in vars(scope):
            return owner, parts[-1], vars(scope)[parts[-1]]
    return None


def _replace(owner, attr, raw, make):
    """Install make(fn) in place of ``raw``, keeping classmethod/staticmethod."""
    if isinstance(raw, (classmethod, staticmethod)):
        setattr(owner, attr, type(raw)(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))


def _windows_mb(prepared) -> float:
    total = 0
    for split in ("train", "val", "test"):
        for arr in getattr(prepared, split, ()) or ():
            total += getattr(arr, "nbytes", 0)
    return total / 2**20


def install(tracer: Tracer) -> None:
    """Wrap every target in SPAN_TARGETS; record the missing ones as absent."""
    # Targets that also delimit steps or hold the graph the census reads.
    hooks = {"Forecaster.forward": _forward_hook, "Adam.step": _adam_hook,
             "mse_loss": _loss_hook}
    for modname, path, name in SPAN_TARGETS:
        found = _resolve(modname, path)
        if found is None:
            tracer.absent.append(f"{modname}.{path}")
            continue
        owner, attr, raw = found
        hook = hooks.get(path)
        if hook is not None:
            _replace(owner, attr, raw, lambda fn, h=hook: h(fn, tracer))
        else:
            on_result = None
            if name == "data.prepare_windows":
                def on_result(prepared):
                    tracer.windows_mb = _windows_mb(prepared)
            _replace(owner, attr, raw,
                     lambda fn, n=name, cb=on_result: _span_wrapper(fn, n, tracer, cb))


def _span_wrapper(fn, name, tracer, on_result=None):
    namer = NAMERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.tracing:
            return fn(*args, **kwargs)
        span = namer(args[0]) if namer else name
        return tracer.call(span, fn, args, kwargs, on_result)

    return wrapper


def _forward_hook(fn, tracer):
    @functools.wraps(fn)
    def forward(model, x, *args, **kwargs):
        training = bool(getattr(model, "training", False))
        starts = (tracer.measuring and not tracer.in_step
                  and training == (tracer.step_kind == "train"))
        if starts:
            tracer.last_model = model
            tracer.begin_step(int(np.shape(getattr(x, "data", x))[0]))
        out = tracer.call("model.forward", fn, (model, x) + args, kwargs)
        if starts and tracer.step_kind == "eval":
            tracer.take_census(out)
            tracer.end_step()
        return out

    return forward


def _loss_hook(fn, tracer):
    @functools.wraps(fn)
    def mse_loss(*args, **kwargs):
        loss = tracer.call("training.mse_loss", fn, args, kwargs)
        if tracer.in_step:
            tracer.take_census(loss)
        return loss

    return mse_loss


def _adam_hook(fn, tracer):
    @functools.wraps(fn)
    def step(*args, **kwargs):
        result = tracer.call("training.adam_step", fn, args, kwargs)
        if tracer.in_step and tracer.step_kind == "train":
            tracer.end_step()
        return result

    return step


# ---- tape census -----------------------------------------------------------


# Ops whose function name differs from the op ("tmean" records a mean).
_OP_ALIASES = {"tmean": "mean", "tsum": "sum"}


def _op_type(backward_fn) -> str:
    # Every op's closure is "<op function>.<locals>.backward_fn".
    name = getattr(backward_fn, "__qualname__", "other").split(".", 1)[0]
    return _OP_ALIASES.get(name, name)


def _closure_arrays(backward_fn):
    for cell in getattr(backward_fn, "__closure__", None) or ():
        try:
            value = cell.cell_contents
        except ValueError:  # empty cell
            continue
        items = value if isinstance(value, (list, tuple)) else (value,)
        for item in items:
            if isinstance(item, np.ndarray):
                yield item
            elif isinstance(getattr(item, "data", None), np.ndarray) and \
                    not hasattr(item, "trainable"):  # skip Parameters: the model owns them
                yield item.data


def _owner(arr: np.ndarray) -> np.ndarray:
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def tape_census(root) -> dict:
    """Nodes and unique retained ndarray bytes of the graph reachable from ``root``.

    Nodes are grouped by the op that recorded their backward closure. An
    array's bytes go to the first node found holding it (node data or a
    closure variable); views count once, through the array owning the memory.
    """
    nodes, nbytes = Counter(), Counter()
    seen_nodes, seen_arrays = set(), set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen_nodes:
            continue
        seen_nodes.add(id(node))
        stack.extend(getattr(node, "_parents", ()))
        backward_fn = getattr(node, "_backward_fn", None)
        if backward_fn is None:
            continue
        op = _op_type(backward_fn)
        nodes[op] += 1
        data = getattr(node, "data", None)
        arrays = [data] if isinstance(data, np.ndarray) else []
        for arr in arrays + list(_closure_arrays(backward_fn)):
            owner = _owner(arr)
            if id(owner) not in seen_arrays:
                seen_arrays.add(id(owner))
                nbytes[op] += owner.nbytes
    return {"nodes": dict(nodes), "bytes": dict(nbytes)}
