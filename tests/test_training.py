import tracemalloc

import numpy as np
import pytest

from phasecast.data import StandardScaler, make_windows, stack_windows
from phasecast.errors import ConfigError, DataError
from phasecast.model import Forecaster, ModelConfig
from phasecast.synthetic import linear_trend
from phasecast.tensor import (
    NonFiniteError,
    Parameter,
    ShapeError,
    Tensor,
    _make_output,
    matmul,
    no_grad,
)
from phasecast.training import (
    Adam,
    TrainSchedule,
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

    def test_untaped_forward_leaves_gradients_untouched(self):
        model = Forecaster(ModelConfig(
            num_variates=2, lookback=8, horizon=3, offsets=2, num_heads=2,
            rbf_grid=3, dropout=0.3, seed=1))
        _, _, (test_x, _) = tiny_windows()
        rng = np.random.default_rng(0)
        for p in model.parameters():
            p.grad = rng.standard_normal(p.shape)
        before = [p.grad.copy() for p in model.parameters()]
        model.eval()
        taped = model.forward(test_x)
        with no_grad():
            untaped = model.forward(test_x)
        np.testing.assert_array_equal(untaped.data, taped.data)
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

    def test_empty_window_set_rejected(self):
        with pytest.raises(DataError):
            predict(tiny_model(), np.zeros((0, 2, 8)))
