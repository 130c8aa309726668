import tracemalloc

import numpy as np
import pytest

from phasecast.layers import (
    Conv1dBlock,
    GaussianKanLayer,
    LayerNorm,
    Linear,
    MlpBlock,
    Module,
    MultiHeadAttention,
    gelu,
)
from phasecast.model import Forecaster, ModelConfig
from phasecast.tensor import ShapeError, Tensor, no_grad
from phasecast.training import grad_check, mse_loss
from reference_pipeline import naive_multihead_attention


def rng_for(seed):
    return np.random.default_rng(seed)


class TestRbfFeatures:
    def test_center_hit_gives_one(self):
        layer = GaussianKanLayer(1, 1, rng_for(0), num_centers=5, span=(-2, 2), prenorm=False)
        x = Tensor([[layer.centers[2]]])
        feats = layer.rbf_features(x)
        assert feats.data[0, 2] == 1.0

    def test_one_bandwidth_away(self):
        layer = GaussianKanLayer(1, 1, rng_for(0), num_centers=5, span=(-2, 2), prenorm=False)
        x = Tensor([[layer.centers[1] + layer.bandwidth]])
        np.testing.assert_allclose(feats := layer.rbf_features(x).data[0, 1],
                                   0.6065306597126334, atol=1e-12)
        assert 0 < feats <= 1

    @pytest.mark.parametrize("seed", range(5))
    def test_against_scalar_loop(self, seed):
        rng = rng_for(seed)
        layer = GaussianKanLayer(4, 3, rng, num_centers=6, span=(-2, 2), prenorm=False)
        x = rng.standard_normal((2, 4))
        feats = layer.rbf_features(Tensor(x)).data
        h = layer.bandwidth
        for r in range(2):
            for d in range(4):
                for kk in range(6):
                    expected = np.exp(-((x[r, d] - layer.centers[kk]) ** 2) / (2 * h * h))
                    assert abs(feats[r, d * 6 + kk] - expected) <= 1e-12

    def test_outputs_in_unit_interval(self):
        rng = rng_for(3)
        layer = GaussianKanLayer(8, 2, rng, num_centers=8, prenorm=False)
        feats = layer.rbf_features(Tensor(rng.standard_normal((5, 8)) * 3)).data
        assert np.all(feats > 0) and np.all(feats <= 1)


class TestKanForward:
    def test_single_center_all_ones(self):
        layer = GaussianKanLayer(1, 1, rng_for(0), num_centers=1, span=(0.0, 0.0), prenorm=False)
        layer.weights.data[:] = 1.0
        out = layer(Tensor([[0.0]]))
        np.testing.assert_allclose(out.data, [[1.0]])

    def test_zero_weights_zero_output(self):
        rng = rng_for(1)
        layer = GaussianKanLayer(5, 3, rng, num_centers=4)
        layer.weights.data[:] = 0.0
        out = layer(Tensor(rng.standard_normal((2, 5))))
        np.testing.assert_array_equal(out.data, np.zeros((2, 3)))

    @pytest.mark.parametrize("seed", range(5))
    def test_against_direct_summation(self, seed):
        rng = rng_for(seed)
        layer = GaussianKanLayer(3, 2, rng, num_centers=4, prenorm=False)
        x = rng.standard_normal((2, 3))
        out = layer(Tensor(x)).data
        h = layer.bandwidth
        w = layer.weights.data
        expected = np.zeros((2, 2))
        for r in range(2):
            for o in range(2):
                for d in range(3):
                    for kk in range(4):
                        phi = np.exp(-((x[r, d] - layer.centers[kk]) ** 2) / (2 * h * h))
                        expected[r, o] += w[d * 4 + kk, o] * phi
        assert np.max(np.abs(out - expected)) <= 1e-10

    def test_linear_in_weights(self):
        rng = rng_for(2)
        layer = GaussianKanLayer(4, 4, rng, num_centers=5)
        x = Tensor(rng.standard_normal((3, 4)))
        base = layer(x).data.copy()
        layer.weights.data *= 2.5
        np.testing.assert_allclose(layer(x).data, 2.5 * base, rtol=1e-12)

    def test_rejects_wrong_last_dim(self):
        layer = GaussianKanLayer(4, 4, rng_for(0))
        with pytest.raises(ShapeError):
            layer(Tensor(np.zeros((2, 5))))

    def test_strictly_increasing_centers(self):
        layer = GaussianKanLayer(2, 2, rng_for(0), num_centers=8)
        assert np.all(np.diff(layer.centers) > 0)
        assert layer.bandwidth > 0


class TestAttention:
    def test_single_key_value_token_ignores_query(self):
        rng = rng_for(4)
        mha = MultiHeadAttention(8, 2, rng, dropout=0.0)
        kv = Tensor(rng.standard_normal((2, 1, 8)))
        q1 = Tensor(rng.standard_normal((2, 3, 8)))
        q2 = Tensor(rng.standard_normal((2, 3, 8)))
        out1 = mha(q1, kv, kv).data
        out2 = mha(q2, kv, kv).data
        np.testing.assert_allclose(out1, out2, atol=1e-12)
        expected = (kv.data @ mha.wv.data) @ mha.wo.data
        np.testing.assert_allclose(out1, np.repeat(expected, 3, axis=1), atol=1e-12)

    def test_identical_keys_average_values(self):
        rng = rng_for(5)
        mha = MultiHeadAttention(8, 2, rng, dropout=0.0)
        k = Tensor(np.repeat(rng.standard_normal((1, 1, 8)), 4, axis=1))
        q = Tensor(rng.standard_normal((1, 4, 8)))
        v = Tensor(rng.standard_normal((1, 4, 8)))
        out = mha(q, k, v).data
        expected = np.repeat((v.data @ mha.wv.data).mean(axis=1, keepdims=True), 4, axis=1)
        expected = expected @ mha.wo.data
        np.testing.assert_allclose(out, expected, atol=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_against_per_head_loop(self, seed):
        rng = rng_for(seed)
        mha = MultiHeadAttention(8, 2, rng, dropout=0.0)
        q = rng.standard_normal((2, 3, 8))
        out = mha(Tensor(q), Tensor(q), Tensor(q)).data
        expected = naive_multihead_attention(
            q, q, q, mha.wq.data, mha.wk.data, mha.wv.data, mha.wo.data, 2)
        assert np.max(np.abs(out - expected)) <= 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_cross_attention_against_per_head_loop(self, seed):
        rng = rng_for(100 + seed)
        mha = MultiHeadAttention(6, 3, rng, dropout=0.0)
        q = rng.standard_normal((2, 5, 6))
        kv = rng.standard_normal((2, 3, 6))
        out = mha(Tensor(q), Tensor(kv), Tensor(kv)).data
        expected = naive_multihead_attention(
            q, kv, kv, mha.wq.data, mha.wk.data, mha.wv.data, mha.wo.data, 3)
        assert np.max(np.abs(out - expected)) <= 1e-10

    def test_weight_rows_stochastic(self):
        rng = rng_for(6)
        mha = MultiHeadAttention(8, 4, rng, dropout=0.0)
        x = Tensor(rng.standard_normal((2, 5, 8)))
        _, weights = mha(x, x, x, return_weights=True)
        assert np.all(weights >= 0)
        np.testing.assert_allclose(weights.sum(axis=-1), np.ones((2, 4, 5)), atol=1e-9)

    def test_heads_must_divide_dim(self):
        with pytest.raises(ShapeError):
            MultiHeadAttention(7, 2, rng_for(0))

    def test_batch_permutation_equivariance(self):
        rng = rng_for(8)
        mha = MultiHeadAttention(4, 2, rng, dropout=0.0)
        x = rng.standard_normal((3, 2, 4))
        out = mha(Tensor(x), Tensor(x), Tensor(x)).data
        perm = [2, 0, 1]
        out_perm = mha(Tensor(x[perm]), Tensor(x[perm]), Tensor(x[perm])).data
        np.testing.assert_allclose(out_perm, out[perm], atol=1e-12)

    @pytest.mark.parametrize("batch", [1, 2])
    def test_each_row_keeps_its_own_softmax_shift(self, batch):
        # Row 300 of head 0 scores 3600 / sqrt(3) against key 5 and 0 against
        # the rest; only its own shift keeps exp finite. Each batch element
        # holds the same inputs.
        rng = rng_for(12)
        mha = MultiHeadAttention(24, 8, rng, dropout=0.0)
        for w in mha.parameters():
            w.data[:] = np.eye(24)
        q, k = np.zeros((batch, 321, 24)), np.zeros((batch, 321, 24))
        q[:, 300, 0] = k[:, 5, 0] = 60.0
        v = np.repeat(rng.standard_normal((1, 321, 24)), batch, axis=0)
        out = mha(Tensor(q), Tensor(k), Tensor(v)).data
        expected = naive_multihead_attention(q, k, v, *(w.data for w in mha.parameters()), 8)
        assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_dropout_only_in_training_mode(self):
        rng = rng_for(9)
        mha = MultiHeadAttention(4, 2, rng, dropout=0.5)
        x = Tensor(rng.standard_normal((1, 3, 4)))
        mha.eval()
        np.testing.assert_array_equal(mha(x, x, x).data, mha(x, x, x).data)
        mha.train()
        a = mha(x, x, x).data
        b = mha(x, x, x).data
        assert np.max(np.abs(a - b)) > 0

    def test_untaped_call_frees_projections_before_output(self):
        # The q, k and v projections, the context and the output are each
        # one [B, S, D] array, and at most four may be live at once.
        rng = rng_for(10)
        mha = MultiHeadAttention(96, 8, rng).eval()
        x = Tensor(rng.standard_normal((128, 50, 96)))
        tracemalloc.start()
        try:
            with no_grad():
                out = mha(x, x, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * out.data.nbytes, peak

    @pytest.mark.parametrize("cross", [False, True])
    def test_untaped_call_holds_no_projection_at_n321(self, cross):
        # The fusion layer's shape at N = 321: one [B, S, D] projection or
        # context is as large as the output (7.9 MB). The op projects and
        # attends one leading index at a time, so besides the output it holds
        # that index's buffers (about 4 MB) and no projection-sized array.
        rng = rng_for(15)
        mha = MultiHeadAttention(96, 8, rng).eval()
        q = Tensor(rng.standard_normal((32, 321, 96)))
        kv = Tensor(rng.standard_normal((32, 321, 96))) if cross else q
        tracemalloc.start()
        try:
            with no_grad():
                out = mha(q, kv, kv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * out.data.nbytes, peak


def tape_nodes(root) -> int:
    """The number of recorded ops in the graph reachable from ``root``."""
    seen, stack, count = set(), [root], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
        count += node._backward_fn is not None
    return count


class TestTapeNodes:
    def test_attention_call_records_one_node(self):
        # The projections, the attention and the output projection are one op.
        rng = rng_for(13)
        mha = MultiHeadAttention(24, 8, rng).train()
        q = Tensor(rng.standard_normal((2, 5, 24)), requires_grad=True)
        kv = Tensor(rng.standard_normal((2, 6, 24)), requires_grad=True)
        assert tape_nodes(mha(q, kv, kv)) == 1

    def test_train_etth_step(self):
        # The default full model at N = 7, B = 32, as one training step records it.
        model = Forecaster(ModelConfig(num_variates=7)).train()
        rng = rng_for(14)
        x, y = rng.standard_normal((32, 7, 96)), rng.standard_normal((32, 7, 96))
        assert tape_nodes(mse_loss(model.forward(x), Tensor(y))) == 19


class TestSwapBlocks:
    def test_mlp_zero_second_layer(self):
        rng = rng_for(10)
        block = MlpBlock(5, rng)
        block.fc2.weight.data[:] = 0.0
        out = block(Tensor(rng.standard_normal((3, 5))))
        np.testing.assert_array_equal(out.data, np.zeros((3, 5)))

    def test_conv_identity_kernel(self):
        rng = rng_for(11)
        block = Conv1dBlock(3, rng)
        block.weight.data[:] = [0.0, 1.0, 0.0]
        block.bias.data[:] = 0.0
        x = rng.standard_normal((2, 3, 6))
        np.testing.assert_array_equal(block(Tensor(x)).data, x)

    def test_blocks_preserve_shape(self):
        rng = rng_for(12)
        x = Tensor(rng.standard_normal((2, 3, 6)))
        assert MlpBlock(6, rng)(x).shape == (2, 3, 6)
        assert Conv1dBlock(5, rng)(x).shape == (2, 3, 6)

    def test_gelu_fixed_points(self):
        assert gelu(Tensor([0.0])).item() == 0.0
        assert abs(gelu(Tensor([10.0])).item() - 10.0) < 1e-6


class TestLayerGradients:
    """Finite-difference checks for each layer's trainable parameters."""

    @pytest.mark.parametrize("seed", range(5))
    def test_linear(self, seed):
        rng = rng_for(seed)
        layer = Linear(4, 3, rng)
        x = Tensor(rng.standard_normal((5, 4)))
        y = Tensor(rng.standard_normal((5, 3)))
        report = grad_check(lambda: mse_loss(layer(x), y), layer.parameters())
        assert report.passed, report

    @pytest.mark.parametrize("seed", range(5))
    def test_layer_norm(self, seed):
        rng = rng_for(seed)
        layer = LayerNorm(6)
        x = Tensor(rng.standard_normal((4, 6)))
        y = Tensor(rng.standard_normal((4, 6)))
        report = grad_check(lambda: mse_loss(layer(x), y), layer.parameters())
        assert report.passed, report

    @pytest.mark.parametrize("seed", range(5))
    def test_kan(self, seed):
        rng = rng_for(seed)
        layer = GaussianKanLayer(4, 4, rng, num_centers=4)
        x = Tensor(rng.standard_normal((3, 4)))
        y = Tensor(rng.standard_normal((3, 4)))
        report = grad_check(lambda: mse_loss(layer(x), y), layer.parameters())
        assert report.passed, report

    @pytest.mark.parametrize("seed", range(5))
    def test_self_attention(self, seed):
        rng = rng_for(seed)
        layer = MultiHeadAttention(4, 2, rng, dropout=0.0)
        x = Tensor(rng.standard_normal((2, 3, 4)))
        y = Tensor(rng.standard_normal((2, 3, 4)))
        report = grad_check(lambda: mse_loss(layer(x, x, x), y), layer.parameters())
        assert report.passed, report

    @pytest.mark.parametrize("seed", range(5))
    def test_cross_attention(self, seed):
        rng = rng_for(seed)
        layer = MultiHeadAttention(4, 2, rng, dropout=0.0)
        q = Tensor(rng.standard_normal((2, 5, 4)))
        kv = Tensor(rng.standard_normal((2, 3, 4)))
        y = Tensor(rng.standard_normal((2, 5, 4)))
        report = grad_check(lambda: mse_loss(layer(q, kv, kv), y), layer.parameters())
        assert report.passed, report

    @pytest.mark.parametrize("seed", range(5))
    def test_mlp_block(self, seed):
        rng = rng_for(seed)
        layer = MlpBlock(4, rng)
        x = Tensor(rng.standard_normal((3, 4)))
        y = Tensor(rng.standard_normal((3, 4)))
        report = grad_check(lambda: mse_loss(layer(x), y), layer.parameters())
        assert report.passed, report

    @pytest.mark.parametrize("seed", range(5))
    def test_conv_block(self, seed):
        rng = rng_for(seed)
        layer = Conv1dBlock(3, rng)
        x = Tensor(rng.standard_normal((2, 6)))
        y = Tensor(rng.standard_normal((2, 6)))
        report = grad_check(lambda: mse_loss(layer(x), y), layer.parameters())
        assert report.passed, report


def all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from all_subclasses(sub)


class TestModuleProtocol:
    def test_no_layer_overrides_call_or_the_walk(self):
        # Model and RevIN are imported above or by phasecast.model, so every
        # Module subclass in the package is loaded here.
        subclasses = [cls for cls in all_subclasses(Module)
                      if cls.__module__.startswith("phasecast.")]
        assert {cls.__name__ for cls in subclasses} >= {
            "Linear", "LayerNorm", "MultiHeadAttention", "GaussianKanLayer", "MlpBlock",
            "Conv1dBlock", "RevIN", "InteractionBlock", "Forecaster"}
        for cls in subclasses:
            assert not {"__call__", "parameters", "modules"} & set(vars(cls)), cls
            assert "forward" in vars(cls) or cls.__name__ == "RevIN", cls

    def test_call_runs_forward(self):
        layer = Linear(3, 2, rng_for(20))
        x = Tensor(rng_for(21).standard_normal((4, 3)))
        np.testing.assert_array_equal(layer(x).data, layer.forward(x).data)

    def test_walk_follows_assignment_order_and_skips_non_members(self):
        rng = rng_for(22)
        kan = GaussianKanLayer(4, 4, rng, num_centers=3, name="k")
        assert [p.name for p in kan.parameters()] == ["k.norm.gamma", "k.norm.beta",
                                                      "k.weights"]
        mlp = MlpBlock(4, rng, name="m")
        assert [p.name for p in mlp.parameters()] == ["m.fc1.weight", "m.fc1.bias",
                                                      "m.fc2.weight", "m.fc2.bias"]
        # The dropout generator and the RBF centres are attributes, not members.
        assert [p.name for p in MultiHeadAttention(4, 2, rng, name="a").parameters()] == \
            ["a.wq", "a.wk", "a.wv", "a.wo"]
