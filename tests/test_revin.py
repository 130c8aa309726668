import numpy as np
import pytest

from phasecast.revin import RevIN
from phasecast.tensor import ShapeError, Tensor
from phasecast.training import grad_check, mse_loss


class TestNormalize:
    def test_constant_series_maps_to_zero(self):
        revin = RevIN(2, affine=False)
        x = Tensor(np.full((1, 2, 8), 3.5))
        out, state = revin.normalize(x)
        np.testing.assert_array_equal(out.data, np.zeros((1, 2, 8)))
        assert np.all(state.std == revin.eps)

    def test_already_standardized_pair(self):
        revin = RevIN(1, affine=False)
        out, _ = revin.normalize(Tensor([[[-1.0, 1.0]]]))
        np.testing.assert_allclose(out.data, [[[-1.0, 1.0]]])

    @pytest.mark.parametrize("seed", range(5))
    def test_output_statistics(self, seed):
        rng = np.random.default_rng(seed)
        revin = RevIN(3, affine=False)
        x = Tensor(rng.standard_normal((4, 3, 24)) * 5 + 2)
        out, _ = revin.normalize(x)
        np.testing.assert_allclose(out.data.mean(axis=2), np.zeros((4, 3)), atol=1e-9)
        np.testing.assert_allclose(out.data.std(axis=2), np.ones((4, 3)), atol=1e-6)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        revin = RevIN(2, affine=False)
        x = rng.standard_normal((2, 2, 16))
        shift = rng.standard_normal((1, 2, 1))
        base, _ = revin.normalize(Tensor(x))
        shifted, _ = revin.normalize(Tensor(x + shift))
        np.testing.assert_allclose(shifted.data, base.data, atol=1e-9)

    def test_rejects_short_lookback(self):
        revin = RevIN(2)
        with pytest.raises(ShapeError):
            revin.normalize(Tensor(np.zeros((1, 2, 1))))


class TestDenormalize:
    @pytest.mark.parametrize("seed", range(5))
    def test_roundtrip_without_affine(self, seed):
        rng = np.random.default_rng(seed)
        revin = RevIN(3, affine=False)
        x = rng.standard_normal((2, 3, 12)) * 4 + 1
        out, state = revin.normalize(Tensor(x))
        back = revin.denormalize(out, state)
        assert np.max(np.abs(back.data - x)) < 1e-6

    def test_known_state_inversion(self):
        revin = RevIN(1, affine=True)
        x = Tensor(np.array([[[3.0, 5.0, 7.0]]]))
        _, state = revin.normalize(x)
        np.testing.assert_allclose(state.mean, [[[5.0]]])
        zero = Tensor(np.zeros((1, 1, 3)))
        back = revin.denormalize(zero, state)
        np.testing.assert_allclose(back.data, np.full((1, 1, 3), 5.0))

    @pytest.mark.parametrize("seed", range(5))
    def test_roundtrip_with_random_affine(self, seed):
        rng = np.random.default_rng(100 + seed)
        revin = RevIN(2, affine=True)
        revin.gamma.data[:] = rng.uniform(0.5, 2.0, size=2)
        revin.beta.data[:] = rng.standard_normal(2)
        x = rng.standard_normal((3, 2, 10)) * 2 - 1
        out, state = revin.normalize(Tensor(x))
        back = revin.denormalize(out, state)
        assert np.max(np.abs(back.data - x)) < 1e-6

    def test_roundtrip_with_constant_variate(self):
        revin = RevIN(2, affine=True)
        x = np.stack([np.full((2, 8), 7.0), np.arange(16.0).reshape(2, 8)], axis=1)
        out, state = revin.normalize(Tensor(x))
        back = revin.denormalize(out, state)
        assert np.max(np.abs(back.data - x)) < 1e-6

    def test_shape_mismatch_rejected(self):
        revin = RevIN(2, affine=False)
        _, state = revin.normalize(Tensor(np.zeros((1, 2, 8))))
        with pytest.raises(ShapeError):
            revin.denormalize(Tensor(np.zeros((2, 2, 4))), state)

    def test_zero_gamma_stays_finite(self):
        # denormalize divides by gamma + eps^2, so a zero gamma is not a division by zero.
        rng = np.random.default_rng(9)
        revin = RevIN(2, affine=True)
        revin.gamma.data[:] = 0.0
        x = rng.standard_normal((2, 2, 8))
        _, state = revin.normalize(Tensor(x))
        y = Tensor(rng.standard_normal((2, 2, 4)))
        out = revin.denormalize(y, state)
        assert np.all(np.isfinite(out.data))
        mse_loss(out, Tensor(rng.standard_normal((2, 2, 4)))).backward()
        for p in revin.parameters():
            assert np.all(np.isfinite(p.grad)), p.name


class TestAffineGradients:
    @pytest.mark.parametrize("seed", range(5))
    def test_gamma_beta_pass_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        revin = RevIN(2, affine=True)
        revin.gamma.data[:] = rng.uniform(0.5, 1.5, size=2)
        revin.beta.data[:] = rng.standard_normal(2) * 0.1
        x = rng.standard_normal((2, 2, 8))
        y = rng.standard_normal((2, 2, 8))

        def loss_fn():
            out, state = revin.normalize(Tensor(x))
            return mse_loss(revin.denormalize(out, state), Tensor(y))

        report = grad_check(loss_fn, revin.parameters())
        assert report.passed, report
