import json

import numpy as np
import pytest

from phasecast.errors import ConfigError
from phasecast.experiment import ExperimentConfig
from phasecast.model import Forecaster, ModelConfig, VARIANTS
from phasecast.training import grad_check_model
from reference_pipeline import reference_forward


def small_config(**overrides):
    base = dict(num_variates=2, lookback=8, horizon=3, offsets=2, num_heads=2,
                rbf_grid=3, dropout=0.0, seed=2024)
    base.update(overrides)
    return ModelConfig(**base)


def zero_kan_weights(model):
    for mixer in model.blocks[0].mixers:
        mixer.weights.data[:] = 0.0


class TestShapes:
    def test_default_shape_contract(self):
        cfg = ModelConfig(num_variates=7, lookback=96, horizon=96, offsets=4,
                          num_heads=8, rbf_grid=8, dropout=0.0)
        model = Forecaster(cfg).eval()
        x = np.random.default_rng(0).standard_normal((2, 7, 96))
        out = model.forward(x)
        assert out.shape == (2, 7, 96)

    def test_variants_share_output_shape(self):
        x = np.random.default_rng(2).standard_normal((2, 2, 8))
        shapes = set()
        for tag in VARIANTS:
            model = Forecaster(small_config(variant=tag)).eval()
            shapes.add(model.forward(x).shape)
        assert shapes == {(2, 2, 3)}

    def test_bad_input_shape_rejected(self):
        model = Forecaster(small_config()).eval()
        with pytest.raises(ConfigError):
            model.forward(np.zeros((2, 3, 8)))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ModelConfig(num_variates=2, lookback=10, offsets=3).validate()
        with pytest.raises(ConfigError):
            ModelConfig(num_variates=2, lookback=8, offsets=2, num_heads=3).validate()
        with pytest.raises(ConfigError):
            ModelConfig(num_variates=2, variant="bogus").validate()


class TestForwardSemantics:
    def test_zeroed_single_offset_collapses_to_linear_head(self):
        cfg = small_config(offsets=1, revin_affine=False)
        model = Forecaster(cfg).eval()
        zero_kan_weights(model)
        for attn in (model.blocks[0].attn_local, model.blocks[0].attn_fusion):
            for p in attn.parameters():
                p.data[:] = 0.0
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 2, 8))
        out = model.forward(x).data

        mean = x.mean(axis=2, keepdims=True)
        std = np.maximum(np.sqrt(x.var(axis=2)), model.revin.eps)[..., None]
        xn = (x - mean) / std
        expected = (xn @ model.head.weight.data + model.head.bias.data) * std + mean
        np.testing.assert_allclose(out, expected, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_full_forward_matches_straight_line_reference(self, seed):
        rng = np.random.default_rng(seed)
        cfg = ModelConfig(num_variates=3, lookback=12, horizon=5, offsets=3,
                          num_heads=2, rbf_grid=4, dropout=0.0, seed=seed)
        model = Forecaster(cfg).eval()
        x = rng.standard_normal((2, 3, 12))
        out = model.forward(x).data
        expected = reference_forward(model, x)
        assert np.max(np.abs(out - expected)) <= 1e-9

    def test_no_trans_equals_mote_only_with_zero_kan(self):
        x = np.random.default_rng(4).standard_normal((2, 2, 8))
        outputs = []
        for tag in ("no-trans", "mote-only"):
            model = Forecaster(small_config(variant=tag)).eval()
            zero_kan_weights(model)
            outputs.append(model.forward(x).data)
        np.testing.assert_array_equal(outputs[0], outputs[1])

    def test_moti_only_matches_no_kan(self):
        x = np.random.default_rng(5).standard_normal((2, 2, 8))
        a = Forecaster(small_config(variant="moti-only")).eval().forward(x).data
        b = Forecaster(small_config(variant="no-kan")).eval().forward(x).data
        np.testing.assert_array_equal(a, b)

    def test_variate_permutation_equivariance(self):
        cfg = ModelConfig(num_variates=4, lookback=8, horizon=3, offsets=2,
                          num_heads=2, rbf_grid=3, dropout=0.0, revin_affine=False)
        model = Forecaster(cfg).eval()
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 4, 8))
        perm = [2, 0, 3, 1]
        out = model.forward(x).data
        out_perm = model.forward(x[:, perm, :]).data
        np.testing.assert_allclose(out_perm, out[:, perm, :], atol=1e-10)

    def test_determinism_same_seed_bit_identical(self):
        x = np.random.default_rng(7).standard_normal((2, 2, 8))
        a = Forecaster(small_config()).eval().forward(x).data
        b = Forecaster(small_config()).eval().forward(x).data
        assert np.array_equal(a, b)

    def test_stacked_blocks(self):
        model = Forecaster(small_config(depth=2)).eval()
        assert len(model.blocks) == 2
        names = [p.name for p in model.parameters()]
        assert len(names) == len(set(names))
        x = np.random.default_rng(10).standard_normal((2, 2, 8))
        assert model.forward(x).shape == (2, 2, 3)
        y = np.random.default_rng(11).standard_normal((1, 2, 3))
        report = grad_check_model(model, x[:1], y)
        assert report.passed, report


class TestVariantGradients:
    @pytest.mark.parametrize("tag", VARIANTS)
    @pytest.mark.parametrize("seed", range(2))
    def test_end_to_end_finite_differences(self, tag, seed):
        rng = np.random.default_rng(seed)
        model = Forecaster(small_config(variant=tag, seed=seed)).eval()
        x = rng.standard_normal((1, 2, 8))
        y = rng.standard_normal((1, 2, 3))
        report = grad_check_model(model, x, y)
        assert report.passed, (tag, report)


class TestParameterCount:
    def test_head_size_is_variate_independent(self):
        model = Forecaster(small_config())
        head_params = model.head.weight.size + model.head.bias.size
        assert head_params == 8 * 3 + 3

    def test_doubling_grid_doubles_kan_weights(self):
        a = Forecaster(small_config(rbf_grid=3)).blocks[0].mixers[0].weights.size
        b = Forecaster(small_config(rbf_grid=6)).blocks[0].mixers[0].weights.size
        assert b == 2 * a

    def test_count_matches_checkpoint_tally(self, tmp_path):
        model = Forecaster(small_config())
        path = tmp_path / "ckpt.json"
        model.save_checkpoint(path)
        payload = json.loads(path.read_text())
        total = sum(len(entry["data"]) for entry in payload["params"].values())
        assert total == model.parameter_count()


class TestCheckpoint:
    def test_save_load_roundtrip_preserves_outputs(self, tmp_path):
        model = Forecaster(small_config(seed=11))
        x = np.random.default_rng(8).standard_normal((2, 2, 8))
        expected = model.eval().forward(x).data
        path = tmp_path / "model.json"
        model.save_checkpoint(path)
        restored = Forecaster.load_checkpoint(path).eval()
        np.testing.assert_array_equal(restored.forward(x).data, expected)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"magic": "nope", "version": 1, "params": {}}))
        with pytest.raises(ConfigError, match="magic"):
            Forecaster.load_checkpoint(path)

    def test_float32_model_keeps_its_precision_through_a_checkpoint(self, tmp_path):
        model = Forecaster(small_config(seed=11, precision="float32")).eval()
        x = np.random.default_rng(8).standard_normal((2, 2, 8))  # float64 windows
        expected = model.forward(x).data
        assert expected.dtype == np.float32
        path = tmp_path / "model.json"
        model.save_checkpoint(path)
        restored = Forecaster.load_checkpoint(path).eval()
        assert {p.data.dtype for p in restored.parameters()} == {np.dtype(np.float32)}
        np.testing.assert_array_equal(restored.forward(x).data, expected)

    def test_checkpoint_without_precision_loads_as_float64(self, tmp_path):
        path = tmp_path / "model.json"
        Forecaster(small_config(precision="float32")).save_checkpoint(path)
        payload = json.loads(path.read_text())
        del payload["config"]["precision"]
        path.write_text(json.dumps(payload))
        restored = Forecaster.load_checkpoint(path)
        assert {p.data.dtype for p in restored.parameters()} == {np.dtype(np.float64)}

    def test_mismatched_state_rejected(self):
        model = Forecaster(small_config())
        state = model.state_dict()
        state.pop(sorted(state)[0])
        with pytest.raises(ConfigError, match="missing"):
            model.load_state_dict(state)


class TestRetiredPerOffsetKan:
    """Version 1 configs and checkpoints may carry per_offset_kan; only false loads."""

    def model_config(self, value):
        config = ExperimentConfig.from_dict({
            "dataset": {"path": "series.csv"}, "lookback": 8, "horizons": [3],
            "model": {"offsets": 2, "num_heads": 2, "rbf_grid": 3, "dropout": 0.0,
                      "per_offset_kan": value},
        })
        return config.model_config(num_variates=2, horizon=3)

    def checkpoint(self, tmp_path, value):
        path = tmp_path / "v1.json"
        model = Forecaster(small_config())
        model.save_checkpoint(path)
        payload = json.loads(path.read_text())
        payload["config"]["per_offset_kan"] = value
        path.write_text(json.dumps(payload))
        return model, path

    def test_false_loads(self, tmp_path):
        assert self.model_config(False) == small_config()
        model, path = self.checkpoint(tmp_path, False)
        x = np.random.default_rng(12).standard_normal((2, 2, 8))
        restored = Forecaster.load_checkpoint(path).eval()
        np.testing.assert_array_equal(restored.forward(x).data, model.eval().forward(x).data)

    def test_true_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="per_offset_kan"):
            self.model_config(True)
        _, path = self.checkpoint(tmp_path, True)
        with pytest.raises(ConfigError, match="per_offset_kan"):
            Forecaster.load_checkpoint(path)
