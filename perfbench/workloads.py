"""The three benchmark workloads and their correctness checks.

Every workload uses the default model (L = 96, F = 96, O = 4, 8 heads,
8 RBF centres, dropout 0.1, float64, variant ``full``) on a seeded synthetic
sine mixture that is written to CSV first, so the program parses it like any
user file.

A workload has a ``prepare`` (the inputs the benchmark itself makes: the CSV
and, for ``eval-wide``, the checkpoint to load; untimed, once per run), a
``setup`` (parse, window, build or load) and a ``call`` (the unit of work that
is repeated until the measuring time is used up). ``setup_s`` times fresh
processes from their start to the first step of their first call, so it
covers import, ``setup`` and whatever set-up the call does before its first
step. Calls are deterministic: at one seed every call must return the same
MSE, bit for bit.

All phasecast functions are reached through their module attributes
(``pc.training.train_model``, not an imported name) so the span wrappers see
the benchmark's own calls too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

LOOKBACK = 96
HORIZON = 96
REFERENCE_TOLERANCE = 1e-9  # max |model - reference| relative to max(1, max |reference|)
# Noise holds the MSE floor steady across seeds: with less, a short training
# run ends on the steep part of its loss curve, where the final MSE moves
# with the seed by more than the benchmark's bound.
NOISE = 0.3


@dataclass
class CallResult:
    mse: float
    train_losses: list = field(default_factory=list)
    val_losses: list = field(default_factory=list)


def write_sine_csv(path: Path, rows: int, variates: int, seed: int) -> None:
    """Hourly-looking series: daily and weekly sinusoids at seeded phases plus noise."""
    rng = np.random.default_rng(seed)
    t = np.arange(rows, dtype=np.float64)[:, None]
    values = np.zeros((rows, variates))
    for period, amplitude in ((24.0, 1.0), (168.0, 0.5)):
        phase = rng.uniform(0.0, 2.0 * np.pi, size=variates)
        values += amplitude * np.sin(2.0 * np.pi * t / period + phase)
    values += NOISE * rng.standard_normal((rows, variates))
    header = "timestamp," + ",".join(f"v{i}" for i in range(variates))
    table = np.column_stack([np.arange(rows), values])
    np.savetxt(path, table, delimiter=",", fmt="%.17g", header=header, comments="")


class Workload:
    name = ""
    step_kind = "train"   # a step is an optimizer step ("train") or a forward batch ("eval")
    variates = 0
    rows = 0

    def __init__(self, pc, workdir: Path, seed: int):
        self.pc = pc
        self.workdir = workdir
        self.seed = seed
        self.csv = workdir / f"{self.name}.csv"

    def prepare(self) -> None:
        write_sine_csv(self.csv, self.rows, self.variates, self.seed)

    def spec(self):
        return self.pc.data.DatasetSpec(path=str(self.csv), lookback=LOOKBACK, horizon=HORIZON)

    def model_config(self):
        return self.pc.model.ModelConfig(num_variates=self.variates)

    def shapes(self) -> dict:
        return {"rows": self.rows, "variates": self.variates, "lookback": LOOKBACK,
                "horizon": HORIZON}

    def setup(self):
        raise NotImplementedError

    def call(self, state) -> CallResult:
        raise NotImplementedError

    def check_inputs(self, state):
        """A fixed batch of test windows for the reference forward check."""
        prepared = state.prepared if state is not None else \
            self.pc.data.prepare_windows(self.spec())
        return prepared.test[0][:2]


class TrainEtth(Workload):
    """``run_train`` on an ETTh-shaped file: N = 7, one horizon, B = 32."""

    name = "train-etth"
    variates = 7
    rows = 3000
    epochs = 2
    batch_size = 32

    def setup(self):
        return None

    def call(self, state) -> CallResult:
        raw = {
            "dataset": {"path": str(self.csv)},
            "lookback": LOOKBACK,
            "horizons": [HORIZON],
            "train": {"max_epochs": self.epochs, "patience": self.epochs,
                      "batch_size": self.batch_size},
            "output_dir": str(self.workdir / "run"),
        }
        config = self.pc.experiment.ExperimentConfig.from_dict(raw)
        report = self.pc.experiment.run_train(config, self.workdir / "run")
        run = report["runs"][0]
        return CallResult(mse=float(run["metrics"]["mse"]),
                          train_losses=list(run["train_report"]["train_losses"]),
                          val_losses=list(run["train_report"]["val_losses"]))

    def shapes(self) -> dict:
        return {**super().shapes(), "batch_size": self.batch_size, "epochs": self.epochs}


@dataclass
class WideState:
    prepared: object
    inputs: np.ndarray
    targets: np.ndarray
    val_inputs: np.ndarray | None = None
    val_targets: np.ndarray | None = None
    model: object = None     # the model that was saved
    loaded: object = None    # the same model read back from its checkpoint


def _spread(count: int, total: int) -> np.ndarray:
    """``count`` window indices spread evenly over ``total`` windows."""
    return np.linspace(0, total - 1, count).round().astype(int)


class TrainWide(Workload):
    """``train_model`` on a fixed subset of Electricity-shaped windows, N = 321."""

    name = "train-wide"
    variates = 321
    rows = 2000
    epochs = 3
    batch_size = 1
    train_windows = 12
    val_windows = 4
    eval_batch = 2

    def setup(self):
        prepared = self.pc.data.prepare_windows(self.spec())
        train_x, train_y = prepared.train
        val_x, val_y = prepared.val
        pick = _spread(self.train_windows, train_x.shape[0])
        vpick = _spread(self.val_windows, val_x.shape[0])
        return WideState(prepared, train_x[pick], train_y[pick], val_x[vpick], val_y[vpick])

    def call(self, state) -> CallResult:
        pc = self.pc
        model = pc.model.Forecaster(self.model_config())
        schedule = pc.training.TrainSchedule(
            max_epochs=self.epochs, patience=self.epochs, batch_size=self.batch_size)

        def val_loss(m):
            return pc.training.evaluate_mse(m, state.val_inputs, state.val_targets,
                                            batch_size=self.eval_batch)

        report = pc.training.train_model(model, (state.inputs, state.targets),
                                         (state.val_inputs, state.val_targets), schedule,
                                         val_loss_fn=val_loss)
        return CallResult(mse=float(report.val_losses[-1]),
                          train_losses=list(report.train_losses),
                          val_losses=list(report.val_losses))

    def shapes(self) -> dict:
        return {**super().shapes(), "batch_size": self.batch_size, "epochs": self.epochs,
                "train_windows": self.train_windows, "val_windows": self.val_windows,
                "val_batch_size": self.eval_batch}


class EvalWide(Workload):
    """Checkpoint round trip of a seeded N = 321 model, then ``evaluate_mse``."""

    name = "eval-wide"
    step_kind = "eval"
    variates = 321
    rows = 2000
    test_windows = 64
    batch_size = 2

    def __init__(self, pc, workdir: Path, seed: int):
        super().__init__(pc, workdir, seed)
        self.checkpoint = workdir / "eval-wide-checkpoint.json"
        self.saved = None  # the model prepare() saved; only the process that prepared has it

    def prepare(self) -> None:
        super().prepare()
        self.saved = self.pc.model.Forecaster(self.model_config())
        self.saved.save_checkpoint(self.checkpoint)

    def setup(self):
        pc = self.pc
        prepared = pc.data.prepare_windows(self.spec())
        loaded = pc.model.Forecaster.load_checkpoint(self.checkpoint)
        test_x, test_y = prepared.test
        pick = _spread(self.test_windows, test_x.shape[0])
        return WideState(prepared, test_x[pick], test_y[pick], model=self.saved, loaded=loaded)

    def call(self, state) -> CallResult:
        mse = self.pc.training.evaluate_mse(state.loaded, state.inputs, state.targets,
                                            batch_size=self.batch_size)
        return CallResult(mse=float(mse))

    def shapes(self) -> dict:
        return {**super().shapes(), "batch_size": self.batch_size,
                "test_windows": self.test_windows}


WORKLOADS = {cls.name: cls for cls in (TrainEtth, TrainWide, EvalWide)}


# ---- correctness ------------------------------------------------------------


def check_reference(model, x, reference_forward) -> str | None:
    """Eval-mode, dropout-off forward against the straight-line numpy oracle."""
    was_training = model.training
    model.eval()
    try:
        got = np.asarray(model.forward(x).data)
    finally:
        if was_training:
            model.train()
    want = reference_forward(model, np.asarray(x))
    if got.shape != want.shape:
        return f"forward shape {got.shape} differs from reference {want.shape}"
    err = float(np.max(np.abs(got - want)))
    limit = REFERENCE_TOLERANCE * max(1.0, float(np.max(np.abs(want))))
    if not err <= limit:
        return f"forward differs from reference by {err:.3e} (limit {limit:.3e})"
    return None


def check_calls(workload: Workload, results: list) -> list:
    """Finite losses, learning progress and bitwise-repeatable MSE over calls."""
    problems = []
    if not results:
        return ["no call completed"]
    for i, res in enumerate(results):
        losses = res.train_losses + res.val_losses + [res.mse]
        if not all(math.isfinite(v) for v in losses):
            problems.append(f"call {i}: non-finite loss or mse {losses}")
        if workload.step_kind == "train":
            if len(res.train_losses) < 2 or not res.train_losses[-1] < res.train_losses[0]:
                problems.append(f"call {i}: train loss did not fall: {res.train_losses}")
    if len({res.mse for res in results}) != 1:
        problems.append(f"mse differs between identical calls: {[r.mse for r in results]}")
    return problems


def check_round_trip(state: WideState, x) -> str | None:
    """A checkpoint round trip must reproduce the saved model's forecast exactly."""
    state.model.eval()
    state.loaded.eval()
    before = state.model.forward(x).data
    after = state.loaded.forward(x).data
    if not np.array_equal(before, after):
        return f"checkpoint round trip changed the forecast by {np.max(np.abs(before - after)):.3e}"
    return None
