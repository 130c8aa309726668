import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasecast import tensor
from phasecast.tensor import (
    NonFiniteError,
    Parameter,
    ShapeError,
    Tensor,
    attention,
    conv1d_same,
    matmul,
    no_grad,
    softmax,
    transpose,
)


def finite_difference(loss_fn, param, step=1e-5):
    """Central differences over every coordinate of ``param.data``."""
    flat = param.data.reshape(-1)
    grads = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        plus = loss_fn().item()
        flat[i] = orig - step
        minus = loss_fn().item()
        flat[i] = orig
        grads[i] = (plus - minus) / (2 * step)
    return grads.reshape(param.data.shape)


class TestMatmul:
    def test_identity_left(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = matmul(a, np.eye(2))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_identity_times_column(self):
        out = matmul(Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([[5.0], [7.0]]))
        np.testing.assert_array_equal(out.data, [[5.0], [7.0]])

    def test_against_triple_loop(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        expected = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    expected[i, j] += a[i, k] * b[k, j]
        out = matmul(Tensor(a), Tensor(b))
        assert np.max(np.abs(out.data - expected)) <= 1e-12

    def test_shape_mismatch_mentions_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_batched_broadcast_weight_grad(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((4, 5, 3)))
        w = Parameter(rng.standard_normal((3, 2)), "w")
        loss = matmul(x, w).sum()
        loss.backward()
        fd = finite_difference(lambda: matmul(x, w).sum(), w)
        assert np.max(np.abs(w.grad - fd)) < 1e-7


class TestSoftmax:
    def test_symmetry(self):
        out = softmax(Tensor([0.0, 0.0]), axis=-1)
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_large_inputs_do_not_overflow(self):
        out = softmax(Tensor([1000.0, 1000.0, 1000.0]), axis=-1)
        np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3])

    def test_hand_computed(self):
        out = softmax(Tensor([0.0, np.log(3.0)]), axis=-1)
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_rows_sum_to_one_and_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        out = softmax(Tensor(rng.standard_normal((4, 6)) * 10), axis=-1)
        assert np.all(out.data >= 0)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4), atol=1e-9)

    def test_gradient(self):
        rng = np.random.default_rng(11)
        p = Parameter(rng.standard_normal((3, 4)), "p")
        c = Tensor(rng.standard_normal((3, 4)))

        def loss_fn():
            return (softmax(p, axis=-1) * c).sum()

        loss_fn().backward()
        fd = finite_difference(loss_fn, p)
        assert np.max(np.abs(p.grad - fd)) < 1e-7


def composed_attention(q, k, v, scale, keep=None, keep_prob=1.0):
    """The unfused tape composition the fused op must reproduce."""
    weights = softmax(matmul(q, transpose(k, (0, 1, 3, 2))) * scale, axis=-1)
    if keep is not None:
        weights = weights * Tensor(keep.astype(np.float64) / keep_prob)
    return matmul(weights, v)


def attention_inputs(seed, batch, heads, sq, skv, hd, masked):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((batch, heads, sq, hd))
    k = rng.standard_normal((batch, heads, skv, hd))
    v = rng.standard_normal((batch, heads, skv, hd))
    upstream = rng.standard_normal((batch, heads, sq, hd))
    keep = rng.random((batch, heads, sq, skv)) < 0.7 if masked else None
    return q, k, v, upstream, keep


class TestFusedAttention:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 2), heads=st.integers(1, 3),
           sq=st.integers(1, 6), skv=st.integers(1, 6), hd=st.integers(1, 4),
           masked=st.booleans())
    def test_matches_unfused_composition(self, seed, batch, heads, sq, skv, hd, masked):
        q, k, v, upstream, keep = attention_inputs(seed, batch, heads, sq, skv, hd, masked)
        keep_prob = 0.7 if masked else 1.0
        scale = 1.0 / np.sqrt(hd)
        results = []
        for op in (attention, composed_attention):
            params = [Parameter(a, name) for a, name in ((q, "q"), (k, "k"), (v, "v"))]
            out = op(*params, scale, keep, keep_prob)
            out = out[0] if isinstance(out, tuple) else out
            (out * Tensor(upstream)).sum().backward()
            results.append([out.data] + [p.grad for p in params])
        for fused, composed in zip(*results):
            assert np.max(np.abs(fused - composed)) <= 1e-12

    @pytest.mark.parametrize("masked", [False, True])
    def test_gradients_match_finite_differences(self, masked):
        q, k, v, upstream, keep = attention_inputs(5, 2, 2, 3, 4, 2, masked)
        params = [Parameter(a, name) for a, name in ((q, "q"), (k, "k"), (v, "v"))]

        def loss_fn():
            out = attention(*params, 0.7, keep, 0.7 if masked else 1.0)
            return (out * Tensor(upstream)).sum()

        loss_fn().backward()
        for p in params:
            fd = finite_difference(loss_fn, p)
            assert np.max(np.abs(p.grad - fd)) < 1e-7

    @pytest.mark.parametrize("masked", [False, True])
    def test_block_size_changes_no_bit(self, monkeypatch, masked):
        q, k, v, upstream, keep = attention_inputs(6, 3, 2, 5, 4, 3, masked)
        results = []
        for block_bytes in (tensor.ATTENTION_BLOCK_BYTES, 1):  # one block, one row per block
            monkeypatch.setattr(tensor, "ATTENTION_BLOCK_BYTES", block_bytes)
            params = [Parameter(a, name) for a, name in ((q, "q"), (k, "k"), (v, "v"))]
            out = attention(*params, 0.6, keep, 0.7 if masked else 1.0)
            (out * Tensor(upstream)).sum().backward()
            results.append([out.data] + [p.grad for p in params])
        for whole, rowwise in zip(*results):
            assert np.array_equal(whole, rowwise)

    def test_inference_memory_bounded_by_block(self):
        # Whole weights for these inputs would take 16*8*321*321*8 bytes, ~105 MB.
        rng = np.random.default_rng(7)
        q, k, v = (Tensor(rng.standard_normal((16, 8, 321, 3))) for _ in range(3))
        tracemalloc.start()
        try:
            with no_grad():
                out = attention(q, k, v, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (16, 8, 321, 3)
        assert peak < 2 * tensor.ATTENTION_BLOCK_BYTES, peak

    def test_non_finite_score_names_attention(self):
        # One score overflows to -inf; the softmax and the output stay finite.
        q = np.full((1, 1, 1, 1), 1e200)
        k = np.array([-1e200, 0.0]).reshape(1, 1, 2, 1)
        with pytest.raises(NonFiniteError, match="attention"):
            attention(Tensor(q), Tensor(k), Tensor(k), 1.0)

    def test_mask_shape_must_match_weights(self):
        q, k, v, _, _ = attention_inputs(2, 1, 1, 2, 3, 2, False)
        with pytest.raises(ShapeError):
            attention(Tensor(q), Tensor(k), Tensor(v), 1.0, np.ones((1, 1, 3, 2), bool), 0.5)


class TestNoGrad:
    def test_outputs_record_no_tape(self):
        x = Parameter(np.array([1.0, 2.0]), "x")
        with no_grad():
            out = (x * 3.0).exp().sum()
        assert out._parents == () and out._backward_fn is None
        assert not out.requires_grad

    def test_mode_restored_after_nesting(self):
        x = Parameter(np.array([1.0]), "x")
        with no_grad():
            with no_grad():
                pass
            assert (x * 2.0)._backward_fn is None
        assert (x * 2.0)._parents == (x,)

    def test_mode_restored_after_exception(self):
        x = Parameter(np.array([1.0]), "x")
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        out = (x * 2.0).sum()
        out.backward()
        np.testing.assert_array_equal(x.grad, [2.0])


class TestBackward:
    def test_sum_of_squares(self):
        x = Parameter(np.array([1.0, 2.0]), "x")
        loss = x.square().sum()
        loss.backward()
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_constant_loss_leaves_grads_zero(self):
        x = Parameter(np.array([1.0, 2.0]), "x")
        loss = Tensor(5.0)
        loss.backward()
        np.testing.assert_array_equal(x.grad, [0.0, 0.0])

    def test_backward_rejects_non_scalar(self):
        x = Parameter(np.array([1.0, 2.0]), "x")
        with pytest.raises(ShapeError):
            (x * 2).backward()

    def test_reused_node_accumulates(self):
        x = Parameter(np.array([3.0]), "x")
        loss = (x * x + x).sum()
        loss.backward()
        np.testing.assert_allclose(x.grad, [7.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_composite_mlp_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        w1 = Parameter(rng.standard_normal((4, 6)) * 0.5, "w1")
        b1 = Parameter(rng.standard_normal(6) * 0.1, "b1")
        w2 = Parameter(rng.standard_normal((6, 2)) * 0.5, "w2")
        x = Tensor(rng.standard_normal((3, 4)))
        y = Tensor(rng.standard_normal((3, 2)))

        def loss_fn():
            hidden = matmul(x, w1) + b1
            act = hidden.tanh()
            pred = matmul(act, w2)
            return (pred - y).square().mean()

        for p in (w1, b1, w2):
            p.zero_grad()
        loss_fn().backward()
        for p in (w1, b1, w2):
            fd = finite_difference(loss_fn, p)
            denom = np.maximum(np.maximum(np.abs(fd), np.abs(p.grad)), 1e-4)
            assert np.max(np.abs(p.grad - fd) / denom) < 1e-4


class TestElementwise:
    def test_exp_zero(self):
        assert Tensor(0.0).exp().item() == 1.0

    def test_reshape_roundtrip_is_bit_exact(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((4, 6)))
        back = x.reshape(2, 12).reshape(4, 6)
        assert np.array_equal(back.data, x.data)

    def test_transpose_involution_is_bit_exact(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((4, 6, 2)))
        back = x.transpose(2, 0, 1).transpose(1, 2, 0)
        assert np.array_equal(back.data, x.data)

    def test_mean_gradient(self):
        x = Parameter(np.arange(6.0).reshape(2, 3), "x")
        x.mean().backward()
        np.testing.assert_allclose(x.grad, np.full((2, 3), 1 / 6))

    def test_broadcast_add_gradient(self):
        b = Parameter(np.zeros(3), "b")
        x = Tensor(np.ones((4, 3)))
        (x + b).sum().backward()
        np.testing.assert_allclose(b.grad, [4.0, 4.0, 4.0])

    def test_division_gradient(self):
        a = Parameter(np.array([2.0]), "a")
        b = Parameter(np.array([4.0]), "b")
        (a / b).sum().backward()
        np.testing.assert_allclose(a.grad, [0.25])
        np.testing.assert_allclose(b.grad, [-2.0 / 16.0])


class TestConv1d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((2, 3, 5)))
        out = conv1d_same(x, Tensor([0.0, 1.0, 0.0]), Tensor([0.0]))
        np.testing.assert_array_equal(out.data, x.data)

    @pytest.mark.parametrize("seed", range(5))
    def test_against_sliding_window_oracle(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 6))
        x = rng.standard_normal((2, 7))
        w = rng.standard_normal(k)
        b = rng.standard_normal(1)
        left = (k - 1) // 2
        xp = np.pad(x, [(0, 0), (left, k - 1 - left)])
        expected = np.zeros_like(x)
        for r in range(2):
            for t in range(7):
                for j in range(k):
                    expected[r, t] += w[j] * xp[r, t + j]
        expected += b[0]
        out = conv1d_same(Tensor(x), Tensor(w), Tensor(b))
        assert np.max(np.abs(out.data - expected)) <= 1e-12

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((2, 6)))
        w = Parameter(rng.standard_normal(3), "w")
        b = Parameter(np.zeros(1), "b")
        c = Tensor(rng.standard_normal((2, 6)))

        def loss_fn():
            return (conv1d_same(x, w, b) * c).sum()

        loss_fn().backward()
        for p in (w, b):
            fd = finite_difference(loss_fn, p)
            assert np.max(np.abs(p.grad - fd)) < 1e-7


class TestFinitePolicy:
    def test_division_by_zero_raises(self):
        with pytest.raises(NonFiniteError):
            Tensor([1.0]) / Tensor([0.0])

    def test_exp_overflow_raises(self):
        with pytest.raises(NonFiniteError):
            Tensor([1000.0]).exp()

    def test_nan_construction_raises(self):
        with pytest.raises(NonFiniteError):
            Tensor([np.nan])


class TestGraphTraversal:
    def test_backward_visits_each_node_once(self):
        from phasecast.tensor import _make_output

        calls = {"count": 0}
        x = Parameter(np.array([2.0]), "x")

        def counted_identity(t):
            def backward_fn(g):
                calls["count"] += 1
                t._accumulate(g)
            return _make_output(t.data.copy(), (t,), backward_fn, "counted")

        shared = counted_identity(x)
        # diamond: shared feeds two consumers that rejoin
        loss = (shared * 3.0 + shared * 5.0).sum()
        loss.backward()
        assert calls["count"] == 1
        np.testing.assert_allclose(x.grad, [8.0])


class TestPrecisionConfig:
    def test_float32_mode(self):
        from phasecast.tensor import default_dtype, set_default_dtype

        assert default_dtype() is np.float64
        set_default_dtype("float32")
        try:
            t = Tensor([1.0, 2.0])
            assert t.data.dtype == np.float32
            out = (t * 2.0).exp()
            assert out.data.dtype == np.float32
        finally:
            set_default_dtype("float64")
        assert Tensor([1.0]).data.dtype == np.float64

    def test_rejects_unknown_dtype(self):
        from phasecast.tensor import set_default_dtype

        with pytest.raises(ValueError):
            set_default_dtype("float16")
