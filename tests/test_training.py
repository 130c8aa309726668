import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import phasecast
from phasecast.data import StandardScaler, make_windows, stack_windows
from phasecast.errors import ConfigError, DataError
from phasecast.model import Forecaster, ModelConfig
from phasecast.revin import RevinState
from phasecast.synthetic import linear_trend
from phasecast.tensor import (
    NonFiniteError,
    Parameter,
    ShapeError,
    Tensor,
    _make_output,
    matmul,
    no_grad,
    revin_normalize,
)
from phasecast.training import (
    Adam,
    TrainSchedule,
    _for_each_batch,
    clip_gradients,
    directional_grad_check,
    evaluate_mse,
    grad_check,
    mse_loss,
    predict,
    train_model,
)


def tiny_model(seed=2024):
    return Forecaster(ModelConfig(
        num_variates=2, lookback=8, horizon=3, offsets=2, num_heads=2,
        rbf_grid=3, dropout=0.0, seed=seed))


def tiny_windows(seed=0, length=260):
    values = linear_trend(length, num_variates=2, seed=seed)
    scaler = StandardScaler.fit(values[:180])
    values = scaler.transform(values)
    train = stack_windows(make_windows(values, 0, 180, 8, 3))
    val = stack_windows(make_windows(values, 180, 220, 8, 3))
    test = stack_windows(make_windows(values, 220, length, 8, 3))
    return train, val, test


class TestMseLoss:
    def test_zero_when_equal(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert mse_loss(x, x.detach()).item() == 0.0

    def test_unit_difference(self):
        assert mse_loss(Tensor([0.0, 0.0]), Tensor([1.0, 1.0])).item() == 1.0

    @pytest.mark.parametrize("seed", range(5))
    def test_against_scalar_loop(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(40)
        b = rng.standard_normal(40)
        expected = sum((x - y) ** 2 for x, y in zip(a, b)) / 40
        assert abs(mse_loss(Tensor(a), Tensor(b)).item() - expected) <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mse_loss(Tensor(np.zeros(3)), Tensor(np.zeros(4)))


class TestAdam:
    def test_hand_computed_first_step(self):
        theta = Parameter(np.array([1.0]), "theta")
        opt = Adam([theta], lr=0.1)
        theta.square().sum().backward()
        opt.step()
        # g=2: m_hat=g, v_hat=g^2, update = lr * g / (|g| + eps) ~= lr
        np.testing.assert_allclose(theta.data, [0.9], atol=1e-8)

    def test_zero_gradient_is_fixed_point(self):
        theta = Parameter(np.array([1.5]), "theta")
        opt = Adam([theta], lr=0.1)
        opt.step()  # grad is zero-initialized
        np.testing.assert_array_equal(theta.data, [1.5])

    def test_lr_zero_is_identity(self):
        theta = Parameter(np.array([1.0, -2.0]), "theta")
        opt = Adam([theta], lr=0.0)
        theta.square().sum().backward()
        opt.step()
        np.testing.assert_array_equal(theta.data, [1.0, -2.0])

    def test_quadratic_converges(self):
        theta = Parameter(np.array([1.0]), "theta")
        opt = Adam([theta], lr=0.1)
        for _ in range(200):
            theta.square().sum().backward()
            opt.step()
        assert abs(theta.data[0]) < 1e-2

    def test_matches_scalar_reference_trajectory(self):
        theta = Parameter(np.array([0.7]), "theta")
        opt = Adam([theta], lr=0.05)

        ref_theta, m, v = 0.7, 0.0, 0.0
        for t in range(1, 31):
            theta.square().sum().backward()
            opt.step()
            g = 2.0 * ref_theta
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            m_hat = m / (1 - 0.9 ** t)
            v_hat = v / (1 - 0.999 ** t)
            ref_theta = ref_theta - 0.05 * m_hat / (np.sqrt(v_hat) + 1e-8)
            np.testing.assert_allclose(theta.data[0], ref_theta, atol=1e-12)

    def test_least_squares_reaches_floor(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.standard_normal((10, 3)))
        target = Tensor(rng.standard_normal((10, 1)))
        theta = Parameter(np.zeros((3, 1)), "theta")
        opt = Adam([theta], lr=0.05)
        exact, *_ = np.linalg.lstsq(a.data, target.data, rcond=None)
        floor = float(((a.data @ exact - target.data) ** 2).mean())
        for _ in range(800):
            mse_loss(matmul(a, theta), target).backward()
            opt.step()
        final = mse_loss(matmul(a, theta), target).item()
        assert final - floor < 1e-6

    def test_non_finite_gradient_raises(self):
        theta = Parameter(np.array([1.0]), "theta")
        theta.grad = np.array([np.inf])
        with pytest.raises(NonFiniteError):
            Adam([theta], lr=0.1).step()


    def test_non_finite_gradient_changes_nothing(self):
        a = Parameter(np.array([1.0]), "a")
        b = Parameter(np.array([2.0]), "b")
        opt = Adam([a, b])
        a.grad[...] = 1.0
        b.grad[...] = np.nan
        with pytest.raises(NonFiniteError, match="for b"):
            opt.step()
        assert (a.data[0], b.data[0], opt.t) == (1.0, 2.0, 0)
        assert not (opt.m.any() or opt.v.any())

        b.grad[...] = -1.0  # the retried step is a whole first step
        opt.step()
        np.testing.assert_allclose([a.data[0], b.data[0]], [0.997, 2.003], rtol=1e-9)
        assert opt.t == 1

    def test_parameters_become_views_of_the_flat_buffers(self):
        a = Parameter(np.array([[1.0, 2.0], [3.0, 4.0]]), "a")
        b = Parameter(np.array([5.0]), "b")
        b.grad[...] = 7.0
        opt = Adam([a, b])
        np.testing.assert_array_equal(opt.data, [1.0, 2.0, 3.0, 4.0, 5.0])
        np.testing.assert_array_equal(opt.grad, [0.0, 0.0, 0.0, 0.0, 7.0])
        assert a.shape == (2, 2) and np.shares_memory(a.data, opt.data)
        a.square().sum().backward()  # the tape adds into the views
        np.testing.assert_array_equal(opt.grad, [2.0, 4.0, 6.0, 8.0, 7.0])
        opt.step()
        assert not opt.grad.any()
        assert np.shares_memory(a.grad, opt.grad) and np.shares_memory(b.data, opt.data)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_steps_match_the_straight_line_formula_bit_for_bit(self, dtype):
        rng = np.random.default_rng(21)
        theta = Parameter(rng.standard_normal(50).astype(dtype), "theta")
        opt = Adam([theta], lr=0.01)
        data, m, v = theta.data.copy(), np.zeros_like(theta.data), np.zeros_like(theta.data)
        for t in range(1, 4):
            g = rng.standard_normal(50).astype(dtype)
            opt.grad[...] = g
            opt.step()
            bc1, bc2 = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
            m = m * 0.9 + (1.0 - 0.9) * g
            v = v * 0.999 + (1.0 - 0.999) * (g * g)
            data = data - 0.01 * (m / bc1) / (np.sqrt(v / bc2) + 1e-8)
            for got, want in ((theta.data, data), (opt.m, m), (opt.v, v)):
                assert got.dtype == dtype and np.array_equal(got, want)

    def test_step_allocates_no_buffer_sized_temporary(self):
        theta = Parameter(np.random.default_rng(22).standard_normal(100_000), "theta")
        opt = Adam([theta])
        opt.grad[...] = 1.0
        opt.step()  # a first step outside the trace, so nothing is first-use
        opt.grad[...] = -0.5
        tracemalloc.start()
        try:
            opt.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < opt.data.nbytes / 2, peak


class TestClipGradients:
    def test_gradient_above_the_norm_is_scaled_to_it(self):
        grad = np.array([3.0, -4.0, 12.0])  # norm 13
        direction = grad / 13.0
        assert clip_gradients(grad, 6.5) == 13.0
        assert abs(np.linalg.norm(grad) - 6.5) <= 1e-15 * 6.5
        np.testing.assert_allclose(grad / 6.5, direction, rtol=1e-15)

    @pytest.mark.parametrize("max_norm", [5.0, 5.5, 1e9])
    def test_gradient_at_or_below_the_norm_is_untouched(self, max_norm):
        grad = np.array([3.0, 4.0])  # norm exactly 5
        before = grad.copy()
        assert clip_gradients(grad, max_norm) == 5.0
        assert grad.tobytes() == before.tobytes()

    def test_clipped_training_finishes_with_finite_losses(self):
        model = tiny_model()
        train, val, _ = tiny_windows()
        report = train_model(model, train, val, TrainSchedule(
            max_epochs=3, patience=3, batch_size=16, learning_rate=0.01, seed=1,
            clip_norm=0.05))
        assert np.all(np.isfinite(report.train_losses + report.val_losses))
        assert all(np.all(np.isfinite(p.data)) for p in model.parameters())


class TestPackedParameters:
    def test_load_state_dict_writes_what_the_next_step_updates(self):
        train, _, _ = tiny_windows()
        x, y = train[0][:8], train[1][:8]
        source = tiny_model(seed=9)
        state = source.state_dict()
        stepped = []
        for load_first in (True, False):
            model = tiny_model()
            if load_first:
                model.load_state_dict(state)
            opt = Adam(model.parameters(), lr=0.01)
            if not load_first:
                model.load_state_dict(state)  # after packing: writes into the views
            mse_loss(model.forward(x), Tensor(y)).backward()
            opt.step()
            stepped.append(model.state_dict())
        for name in state:
            assert stepped[0][name].tobytes() == stepped[1][name].tobytes()
        assert not np.array_equal(stepped[1]["head.weight"], state["head.weight"])

    def test_float32_model_keeps_float32_buffers_through_training(self, monkeypatch):
        made = []

        class RecordingAdam(Adam):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(phasecast.training, "Adam", RecordingAdam)
        model = Forecaster(ModelConfig(
            num_variates=2, lookback=8, horizon=3, offsets=2, num_heads=2,
            rbf_grid=3, dropout=0.1, seed=3, precision="float32"))
        assert all(p.grad.dtype == np.float32 for p in model.parameters())
        train, val, _ = tiny_windows()
        train_model(model, train, val, TrainSchedule(
            max_epochs=2, patience=2, batch_size=16, learning_rate=0.01, seed=1, clip_norm=0.5))
        (opt,) = made
        arrays = [opt.data, opt.grad, opt.m, opt.v]
        arrays += [a for p in model.parameters() for a in (p.data, p.grad)]
        assert all(a.dtype == np.float32 for a in arrays)

    def test_gradient_left_before_training_is_dropped(self):
        train, val, _ = tiny_windows()
        schedule = TrainSchedule(max_epochs=2, patience=2, batch_size=16,
                                 learning_rate=0.01, seed=1)
        stale = tiny_model()
        for p in stale.parameters():
            p.grad[...] = 1.0
        fresh = tiny_model()
        assert train_model(stale, train, val, schedule).train_losses == \
            train_model(fresh, train, val, schedule).train_losses
        for a, b in zip(stale.parameters(), fresh.parameters()):
            assert a.data.tobytes() == b.data.tobytes()

class TestEarlyStopping:
    def test_injected_monotone_worsening_patience_three(self):
        model = tiny_model()
        train, val, _ = tiny_windows()
        states = []
        counter = {"epoch": 0}

        def val_fn(m):
            counter["epoch"] += 1
            states.append(m.state_dict())
            return float(counter["epoch"])  # 1.0, 2.0, 3.0, ... strictly worse

        schedule = TrainSchedule(max_epochs=30, patience=3, batch_size=16,
                                 learning_rate=0.01, seed=1)
        report = train_model(model, train, val, schedule, val_loss_fn=val_fn)
        assert report.stopped_epoch == 4
        assert report.best_epoch == 1
        assert report.val_losses == [1.0, 2.0, 3.0, 4.0]
        restored = model.state_dict()
        for name, value in states[0].items():
            np.testing.assert_array_equal(restored[name], value)

    def test_patience_one_stops_after_second_epoch(self):
        model = tiny_model()
        train, val, _ = tiny_windows()
        states = []

        def val_fn(m):
            states.append(m.state_dict())
            return float(len(states))

        schedule = TrainSchedule(max_epochs=30, patience=1, batch_size=16,
                                 learning_rate=0.01, seed=1)
        report = train_model(model, train, val, schedule, val_loss_fn=val_fn)
        assert report.stopped_epoch == 2
        assert report.best_epoch == 1
        restored = model.state_dict()
        for name, value in states[0].items():
            np.testing.assert_array_equal(restored[name], value)

    def test_restored_weights_match_best_observed_epoch(self):
        model = tiny_model()
        train, val, _ = tiny_windows()
        schedule = TrainSchedule(max_epochs=5, patience=5, batch_size=16,
                                 learning_rate=0.01, seed=3)
        report = train_model(model, train, val, schedule)
        assert min(report.val_losses) == report.val_losses[report.best_epoch - 1]

    def test_patience_must_not_exceed_epochs(self):
        with pytest.raises(ConfigError):
            TrainSchedule(max_epochs=2, patience=5).validate()

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            TrainSchedule(seed=-1).validate()

    def test_empty_training_split_rejected(self):
        model = tiny_model()
        empty = (np.zeros((0, 2, 8)), np.zeros((0, 2, 3)))
        _, val, _ = tiny_windows()
        with pytest.raises(DataError):
            train_model(model, empty, val, TrainSchedule(max_epochs=1, patience=1))


class TestTrainingRuns:
    def test_learnable_task_improves_validation(self):
        model = tiny_model()
        train, val, _ = tiny_windows(seed=5)
        schedule = TrainSchedule(max_epochs=4, patience=4, batch_size=16,
                                 learning_rate=0.01, seed=2)
        report = train_model(model, train, val, schedule)
        assert report.val_losses[-1] < report.val_losses[0] or \
            min(report.val_losses) < report.val_losses[0]

    def test_identical_seeds_reproduce_losses_exactly(self):
        train, val, _ = tiny_windows(seed=7)
        schedule = TrainSchedule(max_epochs=3, patience=3, batch_size=16,
                                 learning_rate=0.01, seed=4)
        r1 = train_model(tiny_model(seed=9), train, val, schedule)
        r2 = train_model(tiny_model(seed=9), train, val, schedule)
        assert r1.train_losses == r2.train_losses
        assert r1.val_losses == r2.val_losses


    def test_previous_step_graph_is_freed_before_the_next_forward(self, monkeypatch):
        model = Forecaster(ModelConfig(num_variates=7, seed=3))
        rng = np.random.default_rng(0)
        inputs, targets = rng.standard_normal((64, 7, 96)), rng.standard_normal((64, 7, 96))
        live = []  # bytes traced at the start of each training forward
        forward = model.forward

        def recording_forward(x):
            if model.training:
                live.append(tracemalloc.get_traced_memory()[0])
            return forward(x)

        monkeypatch.setattr(model, "forward", recording_forward)
        tracemalloc.start()
        try:
            train_model(model, (inputs, targets), (inputs[:8], targets[:8]),
                        TrainSchedule(max_epochs=1, patience=1, batch_size=32))
        finally:
            tracemalloc.stop()
        assert len(live) == 2
        assert live[1] - live[0] < 2 * 2**20, live

    def test_freed_steps_stay_mapped(self):
        # A fresh process: a long-lived one may already have raised glibc's
        # dynamic thresholds. Without a held heap each of the two measured
        # steps faults about 2,400 pages back in after the last graph is freed.
        script = textwrap.dedent("""
            import resource
            import numpy as np
            from phasecast.model import Forecaster, ModelConfig
            from phasecast.training import TrainSchedule, train_model

            rng = np.random.default_rng(0)
            x, y = rng.standard_normal((64, 7, 96)), rng.standard_normal((64, 7, 96))

            def run():
                train_model(Forecaster(ModelConfig(num_variates=7)), (x, y), (x[:8], y[:8]),
                            TrainSchedule(max_epochs=1, patience=1, batch_size=32))

            run()
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            run()
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """)
        src = str(Path(phasecast.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        faults = int(done.stdout)
        assert faults < 500, faults

    def test_freed_inference_batches_stay_mapped(self):
        # The same for the inference loop, in a fresh process: without a held
        # heap the second pass faults about 15,700 pages back in.
        script = textwrap.dedent("""
            import resource
            import numpy as np
            from phasecast.model import Forecaster, ModelConfig
            from phasecast.training import evaluate_mse

            rng = np.random.default_rng(0)
            x, y = rng.standard_normal((16, 321, 96)), rng.standard_normal((16, 321, 96))
            model = Forecaster(ModelConfig(num_variates=321))
            evaluate_mse(model, x, y, batch_size=2)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            evaluate_mse(model, x, y, batch_size=2)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """)
        src = str(Path(phasecast.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        faults = int(done.stdout)
        assert faults < 500, faults


class TestGradCheckHarness:
    def test_linear_model_is_nearly_exact(self):
        rng = np.random.default_rng(1)
        w = Parameter(rng.standard_normal((4, 2)), "w")
        x = Tensor(rng.standard_normal((6, 4)))
        y = Tensor(rng.standard_normal((6, 2)))
        report = grad_check(lambda: mse_loss(matmul(x, w), y), [w])
        assert report.max_rel_error < 1e-7

    def test_corrupted_backward_is_detected(self):
        rng = np.random.default_rng(2)
        w = Parameter(rng.standard_normal((3, 3)), "w")
        x = Tensor(rng.standard_normal((4, 3)))
        y = Tensor(rng.standard_normal((4, 3)))

        def buggy_identity(t):
            def backward_fn(g):
                t._accumulate(g * 1.01)  # deliberately wrong by 1 percent
            return _make_output(t.data.copy(), (t,), backward_fn, "buggy")

        report = grad_check(lambda: mse_loss(buggy_identity(matmul(x, w)), y), [w])
        assert not report.passed
        assert report.max_rel_error > 1e-3

    def test_probes_run_without_a_tape(self):
        rng = np.random.default_rng(3)
        w = Parameter(rng.standard_normal((2, 2)), "w")
        x = Tensor(rng.standard_normal((3, 2)))
        modes = []

        def loss_fn():
            out = mse_loss(matmul(x, w), x)
            modes.append(out.requires_grad)
            return out

        report = grad_check(loss_fn, [w])
        assert modes == [True] + [False] * 8
        assert report.coords_checked == 4



class TestDirectionalGradCheck:
    """Directional checks of the whole model at N = 321, B = 2, float64.

    There an attention block is one matrix, the head layout and the
    per-index projections run as in the wide benchmarks, and the KAN spans
    several feature blocks: paths the small-shape checks never reach.
    """

    @staticmethod
    def wide_case(depth, dropout):
        rng = np.random.default_rng(31)
        model = Forecaster(ModelConfig(num_variates=321, depth=depth, dropout=dropout, seed=32))
        x, y = rng.standard_normal((2, 321, 96)), rng.standard_normal((2, 321, 96))
        return model.train() if dropout else model.eval(), x, Tensor(y)

    @pytest.mark.parametrize("dropout", [0.0, 0.1])
    @pytest.mark.parametrize("depth", [1, 2])
    def test_full_model_parameters(self, depth, dropout):
        model, x, y = self.wide_case(depth, dropout)
        # Every forward draws the same masks: each generator is restored first.
        generators = [attn._dropout_rng for block in model.blocks
                      for attn in (block.attn_local, block.attn_fusion)]
        states = [g.bit_generator.state for g in generators]

        def loss_fn():
            for g, state in zip(generators, states):
                g.bit_generator.state = state
            return mse_loss(model.forward(x), y)

        report = directional_grad_check(loss_fn, model.parameters(), directions=2)
        assert report.passed, report

    @pytest.mark.parametrize("tag", ["moti-only", "mote-only", "no-trans", "mlp-swap",
                                     "conv1d-swap"])
    def test_variant_parameters(self, tag):
        # no-kan builds moti-only's model (SAME_MODEL_AS). The probes run the
        # untaped forward in one-window chunks; the analytic pass is taped whole.
        rng = np.random.default_rng(34)
        model = Forecaster(ModelConfig(num_variates=321, variant=tag, seed=35)).eval()
        x, y = rng.standard_normal((2, 321, 96)), Tensor(rng.standard_normal((2, 321, 96)))
        report = directional_grad_check(lambda: mse_loss(model.forward(x), y),
                                        model.parameters(), directions=2)
        assert report.passed, report

    def test_direction_over_the_input(self, monkeypatch):
        # RevIN's window statistics are constants of the tape, so the probes
        # hold them at the unperturbed input's values. The derivative along a
        # unit direction over 61,632 inputs is small, so the step is larger.
        model, x, y = self.wide_case(1, 0.0)
        revin = model.revin
        mean, std = x.mean(axis=2, keepdims=True), x.std(axis=2, keepdims=True)
        x = Parameter(x, "x")

        def held_normalize(t):
            # An untaped probe normalizes one chunk of x's windows at a time,
            # a view into x: it holds the statistics of the windows it gets.
            lo = (t.data.ctypes.data - x.data.ctypes.data) // t.data[0].nbytes
            state = RevinState(mean[lo:lo + t.shape[0]], std[lo:lo + t.shape[0]])
            return revin_normalize(t, state.mean, state.std, revin.gamma, revin.beta), state

        monkeypatch.setattr(revin, "normalize", held_normalize)
        report = directional_grad_check(lambda: mse_loss(model.forward(x), y), [x],
                                        directions=2, step=1e-2)
        assert report.passed, report

    def test_corrupted_backward_is_detected(self):
        rng = np.random.default_rng(33)
        w = Parameter(rng.standard_normal((3, 3)), "w")
        x, y = Tensor(rng.standard_normal((4, 3))), Tensor(rng.standard_normal((4, 3)))

        def scaled_gradient(t):
            def backward_fn(g):
                t._accumulate(g * 1.01)  # deliberately wrong by 1 percent
            return _make_output(t.data.copy(), (t,), backward_fn, "scaled")

        report = directional_grad_check(lambda: mse_loss(scaled_gradient(matmul(x, w)), y), [w])
        assert not report.passed
        assert report.max_rel_error > 1e-3

class TestPredict:
    def test_matches_taped_forward_bit_for_bit(self):
        model = tiny_model()
        _, _, (test_x, test_y) = tiny_windows()
        model.eval()
        for batch_size in (1, 7, 256):
            taped = np.concatenate([model.forward(test_x[lo:lo + batch_size]).data
                                    for lo in range(0, len(test_x), batch_size)])
            np.testing.assert_array_equal(predict(model, test_x, batch_size), taped)
        expected = float(np.mean((taped - test_y) ** 2))
        assert abs(evaluate_mse(model, test_x, test_y, batch_size=7) - expected) <= 1e-12

    @pytest.mark.parametrize("wide", [False, True], ids=["tiny", "wide"])
    def test_untaped_forward_leaves_gradients_untouched(self, two_workers, wide):
        # The wide case runs its two one-window chunks on the worker pool,
        # where each thread must enter no_grad; the taped forward is compared
        # over the same chunks.
        if wide:
            model = Forecaster(ModelConfig(num_variates=321, dropout=0.3, seed=1))
            test_x = np.random.default_rng(1).standard_normal((2, 321, 96))
            per = 1
        else:
            model = Forecaster(ModelConfig(
                num_variates=2, lookback=8, horizon=3, offsets=2, num_heads=2,
                rbf_grid=3, dropout=0.3, seed=1))
            _, _, (test_x, _) = tiny_windows()
            per = len(test_x)
        rng = np.random.default_rng(0)
        for p in model.parameters():
            p.grad = rng.standard_normal(p.shape)
        before = [p.grad.copy() for p in model.parameters()]
        model.eval()
        taped = np.concatenate([model.forward(test_x[lo:lo + per]).data
                                for lo in range(0, len(test_x), per)])
        with no_grad():
            untaped = model.forward(test_x)
        np.testing.assert_array_equal(untaped.data, taped)
        assert untaped._parents == () and untaped._backward_fn is None
        untaped.sum().backward()
        for p, grad in zip(model.parameters(), before):
            np.testing.assert_array_equal(p.grad, grad)

    def test_restores_training_flag_also_on_error(self):
        model = tiny_model()
        _, _, (test_x, _) = tiny_windows()
        model.train()
        predict(model, test_x, 16)
        assert model.training
        with pytest.raises(ConfigError):
            predict(model, test_x[:, :, :5], 16)
        assert model.training
        assert (model.head.weight * 1.0)._backward_fn is not None

    @pytest.mark.parametrize("batch_size", [0, -2])
    def test_batch_size_below_one_rejected_before_any_forward(self, monkeypatch, batch_size):
        model = tiny_model()
        _, _, (test_x, test_y) = tiny_windows()
        forwards = []
        monkeypatch.setattr(model, "forward", forwards.append)
        with pytest.raises(ConfigError, match=f"batch_size must be positive, got {batch_size}"):
            predict(model, test_x, batch_size)
        with pytest.raises(ConfigError, match=f"got {batch_size}"):
            evaluate_mse(model, test_x, test_y, batch_size)
        assert forwards == []

    def test_empty_window_set_rejected(self):
        with pytest.raises(DataError):
            predict(tiny_model(), np.zeros((0, 2, 8)))

    def test_evaluate_mse_keeps_no_forecast(self):
        # Eight batches of a long horizon: the forecast set (1 MiB) outweighs
        # one batch's forward. Holding every batch's forecast and then their
        # concatenation peaked at twice its bytes.
        model = Forecaster(ModelConfig(
            num_variates=2, lookback=8, horizon=512, offsets=2, num_heads=2,
            rbf_grid=3, dropout=0.0, seed=3))
        rng = np.random.default_rng(4)
        inputs = rng.standard_normal((128, 2, 8))
        targets = rng.standard_normal((128, 2, 512))
        forecast_bytes = targets.nbytes
        expected = evaluate_mse(model, inputs, targets, batch_size=16)
        tracemalloc.start()
        try:
            got = evaluate_mse(model, inputs, targets, batch_size=16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == expected
        assert peak < forecast_bytes, (peak, forecast_bytes)

    def test_training_flag_restored_when_consume_raises(self):
        model = tiny_model()
        _, _, (test_x, _) = tiny_windows()
        model.train()
        seen = []

        def consume(lo, pred):
            seen.append((lo, model.training))
            raise RuntimeError("consumer failed")

        with pytest.raises(RuntimeError, match="consumer failed"):
            _for_each_batch(model, test_x, 4, consume)
        assert seen == [(0, False)]
        assert model.training

    def test_float32_model_predicts_float32(self):
        model = Forecaster(ModelConfig(
            num_variates=2, lookback=8, horizon=3, offsets=2, num_heads=2,
            rbf_grid=3, dropout=0.0, precision="float32"))
        _, _, (test_x, _) = tiny_windows()
        pred = predict(model, test_x, 7)
        assert pred.dtype == np.float32 and pred.shape == (len(test_x), 2, 3)

    @pytest.mark.parametrize("case", ["one window short", "one window over",
                                      "horizon 1 for a horizon-3 model", "three variates"])
    def test_mismatched_targets_rejected_before_any_forward(self, monkeypatch, case):
        # The first two once broadcast in the last batch and returned a number,
        # as did a horizon-1 target against a horizon-3 model.
        model = tiny_model()
        _, _, (test_x, test_y) = tiny_windows()
        targets = {
            "one window short": test_y[:-1],
            "one window over": np.concatenate([test_y, test_y[:1]]),
            "horizon 1 for a horizon-3 model": test_y[..., :1],
            "three variates": np.concatenate([test_y, test_y[:, :1]], axis=1),
        }[case]
        forwards = []
        monkeypatch.setattr(model, "forward", forwards.append)
        expected = (len(test_x), 2, 3)
        with pytest.raises(DataError) as err:
            evaluate_mse(model, test_x, targets, 7)
        assert str(targets.shape) in str(err.value) and str(expected) in str(err.value)
        assert forwards == []
