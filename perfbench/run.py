#!/usr/bin/env python3
"""phasecast benchmark: one workload per process, end-to-end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload train-etth --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer split instead (see perfbench/README.md). Either way the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``, and the full record (environment,
shapes, counts, checks, baseline) is written to
``perfbench-out/BENCH_<workload>_trace<t>_seed<n>.json``.

The exit code is 0 when every correctness check passes, 1 when one fails
and 2 when the program to measure is not found.
"""

import os
import sys
import time

# BLAS threads are pinned before numpy loads: single-threaded runs are the
# ones the README promises to be reproducible byte for byte.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import harness  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / "perfbench-out"

MEMORY_STEPS = 2  # traced steps run under tracemalloc; they are left out of span times
MIN_STEPS = 100   # so that 10 samples lie above step_ms.p90
SETUP_TIMEOUT_S = 120
COVERAGE_TARGET = 85.0

END_TO_END = {
    "setup_s": "s",
    "step_ms.p50": "ms",
    "step_ms.p90": "ms",
    "windows_per_s": "1/s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "mse": "1",
}

# Spans inside a step, reported in ms per step.
STEP_SPANS = (
    "model.forward", "revin.normalize", "offsets.split", "layers.kan", "layers.attn_local",
    "offsets.merge", "layers.attn_fusion", "layers.head", "revin.denormalize",
    "tensor.backward", "training.mse_loss", "training.adam_step",
)
# Spans around steps, reported in ms per workload call (set-up spans: ms in the run).
CALL_SPANS = (
    "training.evaluate", "data.load_csv", "data.make_windows",
    "model.save_checkpoint", "model.load_checkpoint",
)
OP_TYPES = (
    "matmul", "softmax", "mul", "add", "sub", "div", "exp", "square", "sqrt", "mean",
    "reshape", "transpose", "concat", "strided_slice", "other",
)


def per_layer_units() -> dict:
    units = {f"{name}.ms": "ms" for name in STEP_SPANS + CALL_SPANS}
    units.update({
        "model.forward.self_ms": "ms",
        "experiment.self.ms": "ms",
        "layers.kan.calls": "count",
        "layers.attn_local.calls": "count",
        "layers.kan.retained_mb": "MB",
        "layers.attn_local.retained_mb": "MB",
        "layers.attn_fusion.retained_mb": "MB",
        "model.forward.retained_mb": "MB",
        "data.windows.mb": "MB",
        "tensor.nodes": "count",
        "tensor.retained_mb": "MB",
    })
    for op in OP_TYPES:
        units[f"tensor.op.{op}.nodes"] = "count"
        units[f"tensor.op.{op}.mb"] = "MB"
    units["trace.overhead_pct"] = "%"
    units["trace.coverage_pct"] = "%"
    return units


@dataclass
class Measured:
    results: list = field(default_factory=list)
    walls: list = field(default_factory=list)          # seconds per completed call
    setups: list = field(default_factory=list)         # setup_s samples, one per process
    failures: list = field(default_factory=list)
    failed_steps: int = 0
    failed_calls: int = 0
    calls: int = 0
    started: float = 0.0
    ended: float = 0.0
    paused: float = 0.0  # spent in set-up processes, between calls

    @property
    def seconds(self) -> float:
        return self.ended - self.started - self.paused


# ---- environment --------------------------------------------------------------


def git_commit():
    """HEAD of the checkout, read from .git without running git; None outside a clone."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_info() -> dict:
    info = {"requested_threads": {v: os.environ.get(v) for v in
                                  ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except Exception:  # the layout of show_config differs between numpy releases
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                return info
    info["threads"] = None
    return info


def environment(workload, seed) -> dict:
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "workload": workload.name,
        "seed": seed,
        "shapes": workload.shapes(),
    }


# ---- measuring ----------------------------------------------------------------


def sample_setup(workload, workdir, m) -> None:
    """Time one fresh process from its start to its first step (see first_step.py)."""
    cmd = [sys.executable, str(HERE / "first_step.py"), workload.name,
           str(workload.seed), str(workdir)]
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                          check=False)
    ended = time.clock_gettime(time.CLOCK_MONOTONIC)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process exited with {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    m.setups.append(float(proc.stdout.split()[-1]) - started)
    m.paused += ended - started


def measure(workload, state, tracer, seconds, traced_run, workdir) -> Measured:
    """Repeat workload calls until ``seconds`` have passed and MIN_STEPS steps
    were timed, or until twice ``seconds`` have passed.

    An untraced run also takes a ``setup_s`` sample before the first call and
    after every call. The samples spread over the run because set-up time
    drifts over seconds with the load on the machine; the time they take is
    not counted as measured time.

    In a traced run spans are recorded everywhere except on even steps
    (see Tracer.begin_step), which give the untraced reference for the
    tracing overhead.
    """
    m = Measured()
    tracer.phase = "call"
    tracer.measuring = True
    tracer.traced_run = traced_run
    tracer.memory_steps_left = MEMORY_STEPS if traced_run else 0
    m.started = time.perf_counter()
    if not traced_run:
        sample_setup(workload, workdir, m)
    while True:
        gc.collect()
        tracer.tracing = traced_run
        started = time.perf_counter()
        try:
            m.results.append(workload.call(state))
            m.walls.append(time.perf_counter() - started)
        except Exception as err:  # count the failure and keep measuring
            if tracer.in_step:
                m.failed_steps += 1
                tracer.abort_step()
            else:
                m.failed_calls += 1
            m.failures.append(f"call {m.calls}: {type(err).__name__}: {err}")
            traceback.print_exc(file=sys.stderr)
        tracer.tracing = False
        m.calls += 1
        if not traced_run:
            sample_setup(workload, workdir, m)
        m.ended = time.perf_counter()
        enough = len(tracer.steps) >= MIN_STEPS or m.seconds >= 2 * seconds
        if m.seconds >= seconds and enough:
            break
    tracer.measuring = False
    tracer.traced_run = False
    return m


# ---- metrics ------------------------------------------------------------------


def end_to_end(tracer, m) -> dict:
    step_ms = [s.seconds * 1e3 for s in tracer.steps]
    windows = sum(s.windows for s in tracer.steps)
    return {
        "setup_s": statistics.median(m.setups),
        "step_ms.p50": statistics.median(step_ms),
        "step_ms.p90": statistics.quantiles(step_ms, n=10)[8],
        "windows_per_s": windows / m.seconds,
        "run_s": statistics.median(m.walls),
        "peak_rss_mb": peak_rss_mb(),
        "mse": m.results[0].mse,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer(tracer, m) -> dict:
    timed = {s.step for s in tracer.steps if s.traced and not s.memory}
    memory = {s.step for s in tracer.steps if s.memory}
    child_seconds = defaultdict(float)
    for span in tracer.spans:
        if span.parent >= 0:
            child_seconds[span.parent] += span.seconds

    step_total, step_calls, step_self = defaultdict(float), defaultdict(int), defaultdict(float)
    grown = defaultdict(int)
    call_total, call_self = defaultdict(float), defaultdict(float)
    setup_total = defaultdict(float)
    for i, span in enumerate(tracer.spans):
        if span.step in timed:
            step_total[span.name] += span.seconds
            step_calls[span.name] += 1
            step_self[span.name] += span.seconds - child_seconds[i]
        elif span.step in memory and span.grown is not None:
            grown[span.name] += span.grown
        elif span.step == -1:
            total = setup_total if span.phase == "setup" else call_total
            total[span.name] += span.seconds
            call_self[span.name] += span.seconds - child_seconds[i]

    n_timed = max(len(timed), 1)
    n_memory = max(len(memory), 1)
    n_calls = max(m.calls, 1)
    mb = 2.0 ** 20

    out = {f"{name}.ms": step_total[name] * 1e3 / n_timed for name in STEP_SPANS}
    for name in CALL_SPANS:
        out[f"{name}.ms"] = (call_total[name] / n_calls + setup_total[name]) * 1e3
    out["model.forward.self_ms"] = step_self["model.forward"] * 1e3 / n_timed
    out["experiment.self.ms"] = call_self["experiment.run_train"] * 1e3 / n_calls
    out["layers.kan.calls"] = step_calls["layers.kan"] / n_timed
    out["layers.attn_local.calls"] = step_calls["layers.attn_local"] / n_timed
    for name in ("layers.kan", "layers.attn_local", "layers.attn_fusion", "model.forward"):
        out[f"{name}.retained_mb"] = grown[name] / n_memory / mb
    out["data.windows.mb"] = tracer.windows_mb

    census = tracer.census or {"nodes": {}, "bytes": {}}
    out["tensor.nodes"] = sum(census["nodes"].values())
    out["tensor.retained_mb"] = sum(census["bytes"].values()) / mb
    for op in OP_TYPES:
        out[f"tensor.op.{op}.nodes"] = 0
        out[f"tensor.op.{op}.mb"] = 0.0
    for op, count in census["nodes"].items():
        key = op if op in OP_TYPES else "other"
        out[f"tensor.op.{key}.nodes"] += count
        out[f"tensor.op.{key}.mb"] += census["bytes"].get(op, 0) / mb

    forward = step_total["model.forward"]
    covered = forward - step_self["model.forward"]
    out["trace.coverage_pct"] = 100.0 * covered / forward if forward else 0.0
    traced_ms = [s.seconds for s in tracer.steps if s.traced and not s.memory]
    plain_ms = [s.seconds for s in tracer.steps if not s.traced]
    if traced_ms and plain_ms:
        ratio = statistics.median(traced_ms) / statistics.median(plain_ms)
        out["trace.overhead_pct"] = 100.0 * (ratio - 1.0)
    else:
        out["trace.overhead_pct"] = 0.0
    return out


# ---- main ---------------------------------------------------------------------


def run_checks(workload, state, tracer, m, reference_forward) -> list:
    """Every correctness problem found, as text; empty when all checks pass."""
    problems = workloads.check_calls(workload, m.results)
    model = tracer.last_model if workload.step_kind == "train" else state.loaded
    if model is None:
        return problems + ["no model was run"]
    try:
        x = workload.check_inputs(state)
        found = [workloads.check_reference(model, x, reference_forward)]
        if getattr(state, "loaded", None) is not None:
            found.append(workloads.check_round_trip(state, x))
    except Exception as err:  # a check that cannot run is a failed check
        traceback.print_exc(file=sys.stderr)
        found = [f"check raised {type(err).__name__}: {err}"]
    return problems + [p for p in found if p]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program():
    """Import phasecast and the reference oracle from this checkout, or return None."""
    package = ROOT / "src" / "phasecast" / "__init__.py"
    oracle = ROOT / "tests" / "reference_pipeline.py"
    if not package.is_file() or not oracle.is_file():
        return None
    sys.path.insert(0, str(ROOT / "src"))
    import phasecast

    if Path(phasecast.__file__).resolve() != package.resolve():
        return None
    pc = {name: importlib.import_module(f"phasecast.{name}")
          for name in ("data", "experiment", "layers", "model", "revin", "tensor", "training")}
    spec = importlib.util.spec_from_file_location("perfbench_reference_pipeline", oracle)
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    return type("Phasecast", (), pc), reference.reference_forward


def main(argv=None) -> int:
    args = parse_args(argv)
    loaded = load_program()
    if loaded is None:
        print(f"perfbench: phasecast sources not found under {ROOT}", file=sys.stderr)
        return 2
    pc, reference_forward = loaded
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = workloads.WORKLOADS[args.workload](pc, workdir, args.seed)
        tracer = harness.Tracer(workload.step_kind)
        harness.install(tracer)
        traced = bool(args.trace)

        tracer.tracing = traced
        workload.prepare()
        state = workload.setup()
        tracer.tracing = False
        m = measure(workload, state, tracer, args.seconds, traced, workdir)

        problems = run_checks(workload, state, tracer, m, reference_forward)

        attempted = tracer.step_attempts + m.failed_calls
        failed = m.failed_steps + m.failed_calls
        counts = {
            "steps": len(tracer.steps), "calls": m.calls,
            "setup_seconds": m.setups, "attempted": attempted, "failed": failed,
            "failed_frac": failed / attempted if attempted else 0.0,
        }
        correct = not problems and bool(m.results)
        if traced:
            metrics = per_layer(tracer, m)
            units = per_layer_units()
        else:
            metrics = end_to_end(tracer, m) if m.results and \
                tracer.steps else {}
            units = END_TO_END
        report = {name: {"value": metrics.get(name, 0.0), "unit": unit}
                  for name, unit in units.items()}

        print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
              f"steps {counts['steps']}  calls {m.calls}  failed_frac {counts['failed_frac']:.4f}")
        for name, entry in report.items():
            print(f"  {name:34s} {entry['value']:14.4f} {entry['unit']}")
        if tracer.absent:
            print(f"  absent targets (metrics read 0): {', '.join(tracer.absent)}")
        if traced and report["trace.coverage_pct"]["value"] < COVERAGE_TARGET:
            print(f"  note: module spans cover less than {COVERAGE_TARGET:.0f}% of model.forward")
        for problem in problems:
            print(f"CHECK FAILED [{workload.name}]: {problem}")
            print(f"CHECK FAILED [{workload.name}]: {problem}", file=sys.stderr)

        baseline_path = HERE / "baseline.json"
        baseline = json.loads(baseline_path.read_text()) if baseline_path.exists() else {}
        record = {
            "environment": environment(workload, args.seed),
            "trace": args.trace,
            "seconds": args.seconds,
            "counts": counts,
            "failures": m.failures,
            "checks": problems or ["all passed"],
            "absent": tracer.absent,
            "metrics": report,
            "baseline": baseline.get("workloads", {}).get(workload.name),
            "baseline_commit": baseline.get("commit"),
        }
        out_path = OUT / f"BENCH_{workload.name}_trace{args.trace}_seed{args.seed}.json"
        out_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"record: {out_path.relative_to(ROOT)}")
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": report}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
