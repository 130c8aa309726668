import contextlib
import operator
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phasecast import tensor
from phasecast.errors import ConfigError
from phasecast.model import Forecaster, ModelConfig
from phasecast.tensor import (
    NonFiniteError,
    Parameter,
    ShapeError,
    Tensor,
    _make_output,
    attention,
    conv1d_same,
    exp,
    gaussian_rbf,
    kan,
    layer_norm,
    matmul,
    multihead_attention,
    no_grad,
    reshape,
    revin_denormalize,
    revin_normalize,
    softmax,
    sqrt,
    square,
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

    def test_shared_weight_grad_matches_batched_sum(self):
        rng = np.random.default_rng(4)
        x = Parameter(rng.standard_normal((3, 4, 5, 6)), "x")
        w = Parameter(rng.standard_normal((6, 2)), "w")
        g = rng.standard_normal((3, 4, 5, 2))
        (matmul(x, w) * Tensor(g)).sum().backward()
        expected = np.matmul(np.swapaxes(x.data, -1, -2), g).sum(axis=(0, 1))
        np.testing.assert_allclose(w.grad, expected, rtol=1e-12)
        np.testing.assert_allclose(x.grad, np.matmul(g, w.data.T), rtol=1e-12)


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


def whole_keep_mask(rng, shape, threshold):
    """One whole draw of 16-bit thresholds, each matrix padded to whole 64-bit words."""
    count, cells = int(np.prod(shape[:-2])), shape[-2] * shape[-1]
    draws = rng.bit_generator.random_raw((count, -(-cells // 4))).view(np.uint16)
    return draws[:, :cells].reshape(shape) < threshold


def composed_attention(q, k, v, scale, rng=None, keep_prob=1.0):
    """The unfused tape composition the fused op must reproduce.

    Its dropout mask is one whole draw from ``rng``.
    """
    weights = softmax(matmul(q, transpose(k, (0, 1, 3, 2))) * scale, axis=-1)
    if rng is not None:
        threshold = round(keep_prob * 2**16)
        keep = whole_keep_mask(rng, weights.shape, threshold)
        weights = weights * Tensor(keep * (2**16 / threshold))
    return matmul(weights, v)


def attention_inputs(seed, batch, heads, sq, skv, hd):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((batch, heads, sq, hd))
    k = rng.standard_normal((batch, heads, skv, hd))
    v = rng.standard_normal((batch, heads, skv, hd))
    upstream = rng.standard_normal((batch, heads, sq, hd))
    return q, k, v, upstream


def dropout_rng(seed, masked):
    """A fresh dropout generator for ``seed``, or None without dropout."""
    return np.random.default_rng((seed, 1)) if masked else None


class TestFusedAttention:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 2), heads=st.integers(1, 3),
           sq=st.integers(1, 6), skv=st.integers(1, 6), hd=st.integers(1, 4),
           masked=st.booleans())
    def test_matches_unfused_composition(self, seed, batch, heads, sq, skv, hd, masked):
        q, k, v, upstream = attention_inputs(seed, batch, heads, sq, skv, hd)
        keep_prob = 0.7 if masked else 1.0
        scale = 1.0 / np.sqrt(hd)
        results = []
        for op in (attention, composed_attention):
            params = [Parameter(a, name) for a, name in ((q, "q"), (k, "k"), (v, "v"))]
            out = op(*params, scale, dropout_rng(seed, masked), keep_prob)
            out = out[0] if isinstance(out, tuple) else out
            (out * Tensor(upstream)).sum().backward()
            results.append([out.data] + [p.grad for p in params])
        for fused, composed in zip(*results):
            assert np.max(np.abs(fused - composed)) <= 1e-12

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("shape", [(1, 8, 321, 3), (1, 2, 321, 12)])
    def test_matches_unfused_composition_at_benchmark_shapes(self, shape, masked):
        rng = np.random.default_rng(11)
        q, k, v, upstream = (rng.standard_normal(shape) for _ in range(4))
        keep_prob = 0.9 if masked else 1.0
        results = []
        for op in (attention, composed_attention):
            params = [Parameter(a, name) for a, name in ((q, "q"), (k, "k"), (v, "v"))]
            out = op(*params, 1.0 / np.sqrt(shape[-1]), dropout_rng(11, masked), keep_prob)
            (out * Tensor(upstream)).sum().backward()
            results.append([out.data] + [p.grad for p in params])
        for fused, composed in zip(*results):
            assert np.max(np.abs(fused - composed)) <= 1e-12 * np.max(np.abs(composed))
        if not masked:
            with no_grad():
                untaped = attention(Tensor(q), Tensor(k), Tensor(v), 1.0 / np.sqrt(shape[-1]))
            assert np.array_equal(untaped.data, results[0][0])

    @staticmethod
    def gap_inputs(dtype, long):
        """Inputs where the Cauchy-Schwarz shift overshoots the largest score.

        In the first matrix q's rows are ``[a, 0]`` for a = 1, 0.55 and 0.01,
        key 0 is ``[0, long]``, orthogonal to them, and the other keys are
        ``[b, 0]`` with b at most 1. Row a's shift is ``a * long`` and its
        largest score ``a``, a gap of ``a * (long - 1)``. The second matrix is
        random and shares the block.
        """
        rng = np.random.default_rng(12)
        q, k, v = (rng.standard_normal((2, 1, n, 2)) for n in (3, 4, 4))
        q[0, 0] = [[1.0, 0.0], [0.55, 0.0], [0.01, 0.0]]
        k[0, 0] = [[0.0, long], [1.0, 0.0], [0.5, 0.0], [-1.0, 0.0]]
        upstream = rng.standard_normal(q.shape)
        return [a.astype(dtype) for a in (q, k, v, upstream)]

    @pytest.mark.parametrize("masked", [False, True])
    def test_rows_the_shift_overshoots_match_unfused_composition(self, masked):
        # Gaps of 800 (E underflows to 0), 440 (E near 1e-191) and 8.
        q, k, v, upstream = self.gap_inputs(np.float64, 801.0)
        results, draws = [], []  # draws: the next word of each generator
        for op in (attention, composed_attention):
            params = [Parameter(a, name) for a, name in ((q, "q"), (k, "k"), (v, "v"))]
            drop_rng = dropout_rng(12, masked)
            out = op(*params, 1.0, drop_rng, 0.7 if masked else 1.0)
            (out * Tensor(upstream)).sum().backward()
            results.append([out.data] + [p.grad for p in params])
            if masked:
                draws.append(drop_rng.bit_generator.random_raw())
        for fused, composed in zip(*results):
            assert np.max(np.abs(fused - composed)) <= 1e-12
        # The redone matrix read the stream as one whole draw does.
        if masked:
            assert draws[0] == draws[1]

    def test_float32_rows_the_shift_overshoots_track_float64(self):
        # Gaps of 120 (float32 E underflows to 0), 66 and 1.2.
        results = []
        for dtype in (np.float32, np.float64):
            q, k, v, upstream = self.gap_inputs(dtype, 121.0)
            params = [Parameter(a, n) for a, n in ((q, "q"), (k, "k"), (v, "v"))]
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                out = attention(*params, 1.0)
                (out * Tensor(upstream)).sum().backward()
            results.append([out.data] + [p.grad for p in params])
        for single, double in zip(*results):
            assert single.dtype == np.float32
            assert np.all(np.isfinite(single))
            np.testing.assert_allclose(single, double, rtol=1e-4, atol=1e-4 * np.abs(double).max())

    @pytest.mark.parametrize("masked", [False, True])
    def test_gradients_match_finite_differences(self, masked):
        q, k, v, upstream = attention_inputs(5, 2, 2, 3, 4, 2)
        params = [Parameter(a, name) for a, name in ((q, "q"), (k, "k"), (v, "v"))]

        def loss_fn():
            out = attention(*params, 0.7, dropout_rng(5, masked), 0.7 if masked else 1.0)
            return (out * Tensor(upstream)).sum()

        loss_fn().backward()
        for p in params:
            fd = finite_difference(loss_fn, p)
            assert np.max(np.abs(p.grad - fd)) < 1e-7

    @pytest.mark.parametrize("masked", [False, True])
    def test_block_size_changes_no_bit(self, monkeypatch, masked):
        q, k, v, upstream = attention_inputs(6, 3, 2, 5, 4, 3)
        results = []
        for block_bytes in (tensor.ATTENTION_BLOCK_BYTES, 1):  # one block, one row per block
            monkeypatch.setattr(tensor, "ATTENTION_BLOCK_BYTES", block_bytes)
            params = [Parameter(a, name) for a, name in ((q, "q"), (k, "k"), (v, "v"))]
            out = attention(*params, 0.6, dropout_rng(6, masked), 0.7 if masked else 1.0)
            (out * Tensor(upstream)).sum().backward()
            results.append([out.data] + [p.grad for p in params])
        for whole, rowwise in zip(*results):
            assert np.array_equal(whole, rowwise)

    @pytest.mark.parametrize("shape", [(4, 8, 321, 3), (1, 8, 321, 12)])
    def test_block_size_changes_no_bit_at_benchmark_shapes(self, monkeypatch, shape):
        # The N = 321 local and fusion attention shapes, with 8 MiB blocks
        # (many matrices each) against the default (one matrix each).
        rng = np.random.default_rng(9)
        q, k, v, upstream = (rng.standard_normal(shape) for _ in range(4))
        results = []
        for block_bytes in (8 * 2**20, tensor.ATTENTION_BLOCK_BYTES):
            monkeypatch.setattr(tensor, "ATTENTION_BLOCK_BYTES", block_bytes)
            params = [Parameter(a, name) for a, name in ((q, "q"), (k, "k"), (v, "v"))]
            drop_rng = np.random.default_rng(10)
            out = attention(*params, 1.0 / np.sqrt(shape[-1]), drop_rng, 0.9)
            (out * Tensor(upstream)).sum().backward()
            results.append([out.data] + [p.grad for p in params]
                           + [drop_rng.bit_generator.random_raw()])
        for large, small in zip(*results):
            assert np.array_equal(large, small)

    @pytest.mark.parametrize("shape", [(128, 7, 24), (32, 7, 96)])
    def test_block_size_changes_no_bit_at_train_etth_shapes(self, monkeypatch, shape):
        # The local and fusion attention of a train-etth step, heads merged
        # in the last axis: one block of every matrix against one matrix per
        # block, where the per-row factors are repeated over d one head at a time.
        rng = np.random.default_rng(11)
        q, k, v, upstream = (rng.standard_normal(shape) for _ in range(4))
        results = []
        for block_bytes in (tensor.ATTENTION_BLOCK_BYTES, 1):
            monkeypatch.setattr(tensor, "ATTENTION_BLOCK_BYTES", block_bytes)
            params = [Parameter(a, name) for a, name in ((q, "q"), (k, "k"), (v, "v"))]
            out = attention(*params, 1.0 / np.sqrt(shape[-1] // 8), np.random.default_rng(12),
                            0.9, heads=8)
            (out * Tensor(upstream)).sum().backward()
            results.append([out.data] + [p.grad for p in params])
        for whole, single in zip(*results):
            assert np.array_equal(whole, single)

    @pytest.mark.parametrize("block_bytes", [tensor.ATTENTION_BLOCK_BYTES, 1])
    def test_blockwise_draws_match_one_whole_draw(self, monkeypatch, block_bytes):
        # Zero scores give equal weights, and v = I makes the output the kept
        # weights themselves, so the mask can be read off the output.
        monkeypatch.setattr(tensor, "ATTENTION_BLOCK_BYTES", block_bytes)
        batch, heads, sq, skv = 3, 2, 4, 5
        zeros = Tensor(np.zeros((batch, heads, sq, skv)))
        eye = Tensor(np.broadcast_to(np.eye(skv), (batch, heads, skv, skv)))
        op_rng, whole_rng = np.random.default_rng(3), np.random.default_rng(3)
        out = attention(zeros, Tensor(np.zeros((batch, heads, skv, skv))), eye, 1.0, op_rng, 0.6)
        expected = whole_keep_mask(whole_rng, (batch, heads, sq, skv), round(0.6 * 2**16))
        np.testing.assert_array_equal(out.data != 0, expected)
        assert op_rng.bit_generator.random_raw() == whole_rng.bit_generator.random_raw()

    def test_keep_prob_is_quantized_to_sixteen_bits(self):
        # Equal weights 1/4 and v = I: a kept weight reads 1/4 * 2**16 / threshold.
        zeros = Tensor(np.zeros((2, 3, 4, 4)))
        out = attention(zeros, zeros, Tensor(np.broadcast_to(np.eye(4), (2, 3, 4, 4))), 1.0,
                        np.random.default_rng(0), 0.9)
        kept = out.data[out.data != 0]
        assert kept.size > 0
        np.testing.assert_allclose(kept * 4, 65536 / 58982, rtol=1e-15)

    @pytest.mark.parametrize("keep_prob", [2**-18, 0.0, 1.0 + 2**-15])
    def test_keep_prob_outside_sixteen_bit_steps_rejected(self, keep_prob):
        x = Tensor(np.zeros((1, 1, 2, 2)))
        with pytest.raises(ValueError, match="keep_prob"):
            attention(x, x, x, 1.0, np.random.default_rng(0), keep_prob)

    @pytest.mark.parametrize("bad", ["0-D q", "1-D q", "q and k widths", "k and v shapes",
                                     "leading axes", "heads"])
    def test_shapes_that_do_not_fit_are_rejected_before_any_gemm(self, monkeypatch, bad):
        q, k, v, heads = {
            "0-D q": ((), (2, 4), (2, 4), 1),
            "1-D q": ((4,), (2, 4), (2, 4), 1),
            "q and k widths": ((1, 3, 4), (1, 2, 6), (1, 2, 6), 1),
            "k and v shapes": ((1, 3, 4), (1, 2, 4), (1, 5, 4), 1),
            "leading axes": ((2, 3, 4), (3, 2, 4), (3, 2, 4), 1),
            "heads": ((1, 3, 4), (1, 2, 4), (1, 2, 4), 3),  # 4 columns do not split into 3
        }[bad]
        gemms = []
        matmul_ = np.matmul

        def recording_matmul(*args, **kwargs):
            gemms.append(args)
            return matmul_(*args, **kwargs)

        monkeypatch.setattr(tensor.np, "matmul", recording_matmul)
        with pytest.raises(ShapeError):
            attention(*(Tensor(np.ones(s)) for s in (q, k, v)), 1.0, heads=heads)
        assert gemms == []

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("shape, heads", [((1, 8, 321, 3), 1), ((1, 2, 321, 12), 1),
                                              ((2, 3, 5, 4), 1), ((3, 50, 8), 4)])
    def test_one_input_in_every_role_sums_the_three_gradients(self, shape, heads, masked):
        # x as q, k and v is one source projected once; its gradient must be
        # what three distinct copies of x get, summed.
        rng = np.random.default_rng(28)
        x, upstream = rng.standard_normal(shape), rng.standard_normal(shape)
        keep_prob = 0.8 if masked else 1.0
        one = Parameter(x, "x")
        out = attention(one, one, one, 0.5, dropout_rng(28, masked), keep_prob, heads)
        (out * Tensor(upstream)).sum().backward()
        copies = [Parameter(x, name) for name in "qkv"]
        out_copies = attention(*copies, 0.5, dropout_rng(28, masked), keep_prob, heads)
        (out_copies * Tensor(upstream)).sum().backward()
        assert np.array_equal(out.data, out_copies.data)
        summed = copies[0].grad + copies[1].grad + copies[2].grad
        assert np.all(np.abs(one.grad - summed) <= 1e-15 * np.abs(summed).max())

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
        # Besides the block: the scaled copy of q and the output, each q-sized.
        assert peak < 2 * tensor.ATTENTION_BLOCK_BYTES + 2 * q.data.nbytes, peak

    def test_dropout_draws_bounded_by_block(self):
        # One whole mask for these weights would take ~13 MB, its draw ~26 MB.
        rng = np.random.default_rng(8)
        q, k, v = (Tensor(rng.standard_normal((16, 8, 321, 3))) for _ in range(3))
        tracemalloc.start()
        try:
            with no_grad():
                out = attention(q, k, v, 0.5, rng, 0.9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (16, 8, 321, 3)
        assert peak < 3 * tensor.ATTENTION_BLOCK_BYTES + 2 * q.data.nbytes, peak

    def test_taped_call_keeps_masks_not_exp_weights(self):
        # The exp weights of these 32 matrices would take ~26 MB; backward
        # rebuilds them, so a taped call keeps the one-byte masks, the output
        # and per-row vectors.
        rng = np.random.default_rng(16)
        q, k, v = (Parameter(rng.standard_normal((4, 8, 321, 3)), n) for n in "qkv")
        tracemalloc.start()
        try:
            out = attention(q, k, v, 0.5, np.random.default_rng(17), 0.9)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        masks = 4 * 8 * 321 * 321
        assert retained < masks + 2 * tensor.ATTENTION_BLOCK_BYTES + 2 * q.data.nbytes, retained
        out.sum().backward()
        assert all(np.all(np.isfinite(p.grad)) for p in (q, k, v))

    def test_backward_leaves_dropout_stream_alone(self):
        # Backward rebuilds the weights beside the kept masks and draws nothing.
        q, k, v, upstream = attention_inputs(18, 2, 3, 7, 6, 4)
        params = [Parameter(a, name) for a, name in ((q, "q"), (k, "k"), (v, "v"))]
        drop_rng = np.random.default_rng(18)
        out = attention(*params, 0.5, drop_rng, 0.8)
        before = drop_rng.bit_generator.state
        (out * Tensor(upstream)).sum().backward()
        assert drop_rng.bit_generator.state == before

    @pytest.mark.parametrize("score", ["-inf", "+inf", "nan"])
    def test_non_finite_score_names_attention(self, score):
        # Finite inputs whose one score overflows: to -inf (the softmax and the
        # output stay finite), to +inf, or to inf - inf = NaN.
        q, k = {
            "-inf": ([1e200], [[-1e200], [0.0]]),
            "+inf": ([1e200], [[1e200], [0.0]]),
            "nan": ([1e200, 1e200], [[1e200, -1e200], [0.0, 0.0]]),
        }[score]
        q = np.array(q).reshape(1, 1, 1, -1)
        k = np.array(k).reshape(1, 1, 2, -1)
        with pytest.raises(NonFiniteError, match="attention"):
            attention(Tensor(q), Tensor(k), Tensor(k), 1.0)

    def test_float32_overflow_names_attention(self):
        # finite in float32, 1e40 scores are not
        big = Tensor(np.full((1, 1, 2, 1), 1e20, np.float32))
        with pytest.raises(NonFiniteError, match="attention"):
            attention(big, big, big, 1.0)

    @pytest.mark.parametrize("masked", [False, True])
    def test_head_split_views_match_contiguous_copies(self, masked):
        # MultiHeadAttention hands the op [B, S, H, hd] arrays seen as [B, H, S, hd].
        rng = np.random.default_rng(14)
        arrays = [rng.standard_normal((3, 5, 2, 4)) for _ in range(3)]
        upstream = rng.standard_normal((3, 2, 5, 4))
        results = []
        for split in (lambda p: transpose(p, (0, 2, 1, 3)), None):
            if split is None:  # contiguous copies, gradients read back in [B, S, H, hd]
                params = [Parameter(np.ascontiguousarray(a.transpose(0, 2, 1, 3)), "p")
                          for a in arrays]
                inputs = params
            else:
                params = [Parameter(a, "p") for a in arrays]
                inputs = [split(p) for p in params]
                assert not inputs[0].data.flags.c_contiguous
            out = attention(*inputs, 0.5, dropout_rng(14, masked), 0.8 if masked else 1.0)
            (out * Tensor(upstream)).sum().backward()
            grads = [p.grad if split else p.grad.transpose(0, 2, 1, 3) for p in params]
            results.append([out.data] + grads)
        for views, copies in zip(*results):
            assert np.array_equal(views, copies)

    @pytest.mark.parametrize("taped", [True, False])
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("block_bytes", [4 * 24000 - 1, 4 * 24000, 2**20])
    def test_heads_match_contiguous_head_split_copies(self, monkeypatch, block_bytes, batch,
                                                      masked, taped):
        # Four heads of size 2 in [B, S, 8]: a q row is 64 bytes. One
        # [50, 60] matrix takes 24000 bytes, more than its augmented operands,
        # so the budgets give blocks of three heads of one index, of one
        # whole index, and of every index.
        monkeypatch.setattr(tensor, "ATTENTION_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(15)
        heads, d = 4, 2
        arrays = [rng.standard_normal((batch, s, heads * d)) for s in (50, 60, 60)]
        upstream = rng.standard_normal((batch, 50, heads * d))

        def split(a):  # [B, S, H * d] -> contiguous [B, H, S, d]
            return np.ascontiguousarray(a.reshape(batch, -1, heads, d).transpose(0, 2, 1, 3))

        def same(a):
            return a

        results = []
        for op_heads, to_input, to_split in ((heads, same, split), (1, split, same)):
            params = [Parameter(to_input(a), "p") for a in arrays]
            with contextlib.nullcontext() if taped else no_grad():
                out = attention(*params, 0.5, dropout_rng(15, masked), 0.8 if masked else 1.0,
                                op_heads)
            if taped:
                (out * Tensor(to_input(upstream))).sum().backward()
            results.append([to_split(out.data)] + [to_split(p.grad) for p in params if taped])
        for merged, split_copies in zip(*results):
            assert np.array_equal(merged, split_copies)

    @staticmethod
    def offset_exact_inputs(case):
        """Three indices of four heads in which only index 1, head 2 takes the exact path.

        In that matrix q's rows are ``[a, 0]`` and most keys ``[b, 0]``, with
        a in [0.5, 1) and |b| < 1. ``"gap"``: key 0 is ``[0, 801]``, orthogonal
        to every query, so each shift overshoots its row's largest score by
        400 to 800 and E underflows, as in ``gap_inputs``. ``"overflow"``: q's
        rows are scaled by 1e200, the other keys by 1e-200 and every second
        key is ``[0, 1e200]``, so the scores stay finite and the shift
        overflows. One ``[50, 120]`` matrix takes 48000 bytes, so the budgets
        of ``test_heads_match_contiguous_head_split_copies`` give blocks of one
        head, of two heads and of every matrix. Arrays are ``[B, H, S, d]``.
        """
        rng = np.random.default_rng(19)
        sq, skv = 50, 120
        q, k, v = (rng.standard_normal((3, 4, n, 2)) for n in (sq, skv, skv))
        upstream = rng.standard_normal(q.shape)
        a, b = rng.uniform(0.5, 1.0, sq), rng.uniform(-1.0, 1.0, skv)
        big = 1e200 if case == "overflow" else 1.0
        q[1, 2] = np.stack([a * big, np.zeros(sq)], axis=-1)
        k[1, 2] = np.stack([b / big, np.zeros(skv)], axis=-1)
        if case == "gap":
            k[1, 2, 0] = [0.0, 801.0]
        else:
            k[1, 2, ::2] = [0.0, big]
        return q, k, v, upstream

    @pytest.mark.parametrize("mode", ["taped", "dropout", "untaped"])
    @pytest.mark.parametrize("case", ["gap", "overflow"])
    def test_exact_path_reads_its_own_head_at_any_block_size(self, monkeypatch, case, mode):
        # A block of one or two heads starts at head 2 or at head 2's pair,
        # so the exact path must read the staged operands at the block's
        # head offset.
        q, k, v, upstream = self.offset_exact_inputs(case)
        batch, heads, _, d = q.shape
        keep_prob = 0.8 if mode == "dropout" else 1.0

        def merge(a):  # [B, H, S, d] -> [B, S, H * d]
            return np.ascontiguousarray(a.transpose(0, 2, 1, 3).reshape(batch, -1, heads * d))

        def split(a):  # [B, S, H * d] -> [B, H, S, d]
            return a.reshape(batch, -1, heads, d).transpose(0, 2, 1, 3)

        def run(op, arrays, up, *op_heads):
            drop_rng = dropout_rng(19, mode == "dropout")
            params = [Parameter(a, n) for a, n in zip(arrays, "qkv")]
            with no_grad() if mode == "untaped" else contextlib.nullcontext():
                out = op(*params, 1.0, drop_rng, keep_prob, *op_heads)
            if mode != "untaped":
                (out * Tensor(up)).sum().backward()
            grads = [p.grad for p in params] if mode != "untaped" else []
            next_word = drop_rng.bit_generator.random_raw() if drop_rng is not None else None
            return [out.data] + grads, next_word

        composed, composed_word = run(composed_attention, (q, k, v), upstream)
        exact_checks = []

        def counting_ensure_finite(arr, op):
            exact_checks.append(op)
            return ensure_finite(arr, op)

        ensure_finite = tensor._ensure_finite
        monkeypatch.setattr(tensor, "_ensure_finite", counting_ensure_finite)
        results = []
        for block_bytes in (4 * 24000 - 1, 4 * 24000, 2**20):
            monkeypatch.setattr(tensor, "ATTENTION_BLOCK_BYTES", block_bytes)
            exact_checks.clear()
            fused, word = run(attention, [merge(a) for a in (q, k, v)], merge(upstream), heads)
            # One exact-path score scan in forward (and one in backward's
            # rebuild), besides the scan of the output.
            assert exact_checks.count("attention") == (2 if mode == "untaped" else 3)
            assert word == composed_word
            fused = [split(a) for a in fused]
            for got, want in zip(fused, composed):
                col_scale = np.maximum(1.0, np.abs(want).max(axis=-2, keepdims=True))
                assert np.all(np.abs(got - want) <= 1e-12 * col_scale)
            results.append(fused)
        for other in results[1:]:
            for a, b in zip(results[0], other):
                assert np.array_equal(a, b)

    def test_float32_with_dropout_tracks_float64(self):
        q, k, v, upstream = attention_inputs(4, 2, 3, 6, 5, 4)
        results = []
        for dtype in (np.float32, np.float64):
            params = [Parameter(a.astype(dtype), n) for a, n in ((q, "q"), (k, "k"), (v, "v"))]
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                # numpy float64 scalars, as MultiHeadAttention passes them
                out = attention(*params, np.float64(0.5), dropout_rng(4, True), np.float64(0.8))
                (out * Tensor(upstream.astype(dtype))).sum().backward()
            results.append([out.data] + [p.grad for p in params])
        for single, double in zip(*results):
            assert single.dtype == np.float32
            np.testing.assert_allclose(single, double, rtol=1e-4, atol=1e-4 * np.abs(double).max())


def composed_multihead(x_q, x_kv, wq, wk, wv, wo, scale, rng, keep_prob, heads):
    """The projections, ``attention`` and the output projection as separate tape ops."""
    ctx = attention(matmul(x_q, wq), matmul(x_kv, wk), matmul(x_kv, wv), scale, rng, keep_prob,
                    heads)
    return matmul(ctx, wo)


class TestFusedProjections:
    """``multihead_attention`` against the composition of its projections and ``attention``.

    Per-block GEMMs may round differently from one GEMM over all rows, so
    the two agree within 1e-12 of the largest value, not bit for bit.
    """

    @staticmethod
    def inputs(q_shape, kv_rows, cross):
        """x_q, x_kv when cross, the four [D, D] weights and an upstream gradient."""
        rng = np.random.default_rng(20)
        batch, _, dim = q_shape
        xs = [rng.standard_normal(q_shape)]
        if cross:
            xs.append(rng.standard_normal((batch, kv_rows, dim)))
        ws = [rng.uniform(-1.0, 1.0, (dim, dim)) / np.sqrt(dim) for _ in range(4)]
        return xs + ws, rng.standard_normal(q_shape)

    @staticmethod
    def run(op, arrays, upstream, masked, heads):
        """The output, every input's gradient and the dropout generator's next word."""
        params = [Parameter(a, f"p{i}") for i, a in enumerate(arrays)]
        x_q, x_kv, ws = params[0], params[-5], params[-4:]
        drop_rng = dropout_rng(21, masked)
        scale = 1.0 / np.sqrt(ws[0].shape[1] // heads)
        if op == "fused":
            out = multihead_attention(x_q, x_kv, x_kv, ws, scale, drop_rng,
                                      0.9 if masked else 1.0, heads)
        else:
            out = composed_multihead(x_q, x_kv, *ws, scale, drop_rng, 0.9 if masked else 1.0,
                                     heads)
        (out * Tensor(upstream)).sum().backward()
        word = drop_rng.bit_generator.random_raw() if masked else None
        return [out.data] + [p.grad for p in params], word

    def check(self, arrays, upstream, masked, heads):
        fused, fused_word = self.run("fused", arrays, upstream, masked, heads)
        composed, composed_word = self.run("composed", arrays, upstream, masked, heads)
        assert len(fused) == len(arrays) + 1
        for got, want in zip(fused, composed):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert fused_word == composed_word

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("cross", [False, True])
    @pytest.mark.parametrize("shape", [(128, 7, 24), (2, 321, 96)])
    def test_matches_composition_at_benchmark_shapes(self, shape, cross, masked):
        # The local layer of a train-etth step (many indices per block) and
        # the fusion layer at N = 321 (one matrix per block), 8 heads.
        arrays, upstream = self.inputs(shape, shape[1], cross)
        self.check(arrays, upstream, masked, 8)

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("cross", [False, True])
    @pytest.mark.parametrize("block_bytes", [4 * 24000 - 1, 4 * 24000, 2**20])
    def test_matches_composition_at_any_block_size(self, monkeypatch, block_bytes, cross,
                                                   masked):
        # The budgets of test_heads_match_contiguous_head_split_copies: blocks
        # of some heads of one index, of one whole index, and of every index.
        monkeypatch.setattr(tensor, "ATTENTION_BLOCK_BYTES", block_bytes)
        arrays, upstream = self.inputs((3, 50, 8), 60, cross)
        self.check(arrays, upstream, masked, 4)

    @pytest.mark.parametrize("bad", ["wq rows", "wv shape", "wo rows", "width"])
    def test_weights_that_do_not_fit_are_rejected(self, bad):
        x = Tensor(np.zeros((2, 3, 8)))
        ws = {"wq": np.zeros((8, 8)), "wk": np.zeros((8, 8)), "wv": np.zeros((8, 8)),
              "wo": np.zeros((8, 8))}
        if bad == "wq rows":
            ws["wq"] = ws["wk"] = ws["wv"] = np.zeros((6, 8))
        elif bad == "wv shape":
            ws["wv"] = np.zeros((8, 4))
        elif bad == "wo rows":
            ws["wo"] = np.zeros((4, 8))
        else:  # 6 columns do not split into 4 heads
            ws = {name: np.zeros((8, 6) if name != "wo" else (6, 8)) for name in ws}
        with pytest.raises(ShapeError):
            multihead_attention(x, x, x, [Tensor(w) for w in ws.values()], 0.5, heads=4)

    def test_one_gemm_per_distinct_input(self, monkeypatch):
        # Self-attention projects q, k and v with one GEMM per index block,
        # cross-attention with x_k is x_v one for q and one for k and v.
        rng = np.random.default_rng(23)
        x, y = (Tensor(rng.standard_normal((2, 5, 8))) for _ in range(2))
        ws = [Tensor(rng.standard_normal((8, 8))) for _ in range(4)]
        widths = []
        matmul_ = np.matmul

        def recording_matmul(a, b, *args, **kwargs):
            if b.ndim == 2 and b.shape[0] == 8 and a.shape[-1] == 8:
                widths.append(b.shape[1])
            return matmul_(a, b, *args, **kwargs)

        monkeypatch.setattr(tensor.np, "matmul", recording_matmul)
        for x_kv, expected in ((x, [24, 8]), (y, [8, 16, 8])):
            widths.clear()
            with no_grad():
                multihead_attention(x, x_kv, x_kv, ws, 0.5, heads=2)
            assert widths == expected

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("frozen", ["arrays", "tensors"])
    def test_frozen_weights_give_the_inputs_the_same_gradients(self, frozen, masked):
        # Weights that need no gradient, as plain arrays or as tensors that do
        # not require one: the output and the inputs' gradients keep the bits
        # they have with Parameter weights, and the weights get no gradient.
        arrays, upstream = self.inputs((3, 50, 8), 60, cross=True)
        learned, _ = self.run("fused", arrays, upstream, masked, 4)
        xs = [Parameter(a, f"x{i}") for i, a in enumerate(arrays[:2])]
        ws = [w if frozen == "arrays" else Tensor(w) for w in arrays[2:]]
        out = multihead_attention(xs[0], xs[1], xs[1], ws, 1.0 / np.sqrt(2),
                                  dropout_rng(21, masked), 0.9 if masked else 1.0, 4)
        (out * Tensor(upstream)).sum().backward()
        for got, want in zip([out.data] + [x.grad for x in xs], learned):
            assert np.array_equal(got, want)
        assert all(not isinstance(w, Tensor) or w.grad is None for w in ws)

    def test_frozen_weights_take_no_weight_gradient_gemm(self):
        # Inputs at 1e306 through weights at 1e-306 project to about 1, and
        # an upstream gradient of 1e307 through wo at 1e-300 comes back at
        # about 1e7, so the inputs' gradients are finite, while every
        # weight-gradient term (x^T @ dq and the like, ctx^T @ dO) overflows.
        rng = np.random.default_rng(29)
        xs = [rng.uniform(0.5, 1.0, (2, 6, 8)) * 1e306 for _ in range(2)]
        ws = [rng.uniform(0.5, 1.0, (8, 8)) * scale for scale in (1e-306,) * 3 + (1e-300,)]
        upstream = np.full((2, 6, 8), 1e307)
        results = []
        for frozen in (False, True):
            inputs = [Parameter(x, f"x{i}") for i, x in enumerate(xs)]
            weights = [Tensor(w) if frozen else Parameter(w, f"w{i}") for i, w in enumerate(ws)]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                out = multihead_attention(inputs[0], inputs[1], inputs[1], weights, 0.5, heads=2)
                (out * Tensor(upstream)).sum().backward()
            if frozen:
                assert caught == []
            else:  # the terms a frozen weight skips overflow
                assert any("overflow" in str(w.message) for w in caught)
                assert all(np.isinf(w.grad).any() for w in weights)
            assert all(np.all(np.isfinite(x.grad)) for x in inputs)
            results.append([out.data] + [x.grad for x in inputs])
        for learned, frozen in zip(*results):
            assert np.array_equal(learned, frozen)


@pytest.mark.parametrize("workers", [1, 2])
class TestAttentionOnWorkers:
    """The op-level bit and oracle checks above with the op's units on 1 and 2 threads.

    Each test runs its original in ``TestFusedAttention`` or
    ``TestFusedProjections``, bounds unchanged, after ``forward_workers``.
    """

    @pytest.fixture(autouse=True)
    def _workers(self, forward_workers, workers):
        forward_workers(workers)

    @pytest.mark.parametrize("masked", [False, True])
    def test_block_size_changes_no_bit(self, monkeypatch, masked):
        TestFusedAttention().test_block_size_changes_no_bit(monkeypatch, masked)

    @pytest.mark.parametrize("shape", [(4, 8, 321, 3), (1, 8, 321, 12)])
    def test_block_size_changes_no_bit_at_benchmark_shapes(self, monkeypatch, shape):
        TestFusedAttention().test_block_size_changes_no_bit_at_benchmark_shapes(monkeypatch, shape)

    @pytest.mark.parametrize("mode", ["taped", "dropout", "untaped"])
    @pytest.mark.parametrize("case", ["gap", "overflow"])
    def test_exact_path_reads_its_own_head_at_any_block_size(self, monkeypatch, case, mode):
        TestFusedAttention().test_exact_path_reads_its_own_head_at_any_block_size(
            monkeypatch, case, mode)

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("cross", [False, True])
    @pytest.mark.parametrize("shape", [(128, 7, 24), (2, 321, 96)])
    def test_matches_composition_at_benchmark_shapes(self, shape, cross, masked):
        TestFusedProjections().test_matches_composition_at_benchmark_shapes(shape, cross, masked)

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("cross", [False, True])
    @pytest.mark.parametrize("block_bytes", [4 * 24000 - 1, 4 * 24000, 2**20])
    def test_matches_composition_at_any_block_size(self, monkeypatch, block_bytes, cross,
                                                   masked):
        TestFusedProjections().test_matches_composition_at_any_block_size(
            monkeypatch, block_bytes, cross, masked)

    def test_one_gemm_per_distinct_input(self, monkeypatch):
        TestFusedProjections().test_one_gemm_per_distinct_input(monkeypatch)


class TestAttentionThreads:
    def test_six_switching_workers_nest_and_keep_every_bit(self, forward_workers):
        # Six threads switching every microsecond run a taped call whose four
        # indices go to the pool (their heads inline) and a chunked eval
        # forward whose attention runs inline in each window's unit. A wait on
        # the busy pool would deadlock; a unit taken twice, lost or drawn out
        # of order would change a bit.
        rng = np.random.default_rng(24)
        x, upstream = rng.standard_normal((4, 321, 24)), rng.standard_normal((4, 321, 24))
        ws = [rng.uniform(-0.3, 0.3, (24, 24)) for _ in range(4)]
        windows = rng.standard_normal((4, 321, 96))
        model = Forecaster(ModelConfig(num_variates=321)).eval()

        def run():
            params = [Parameter(a, f"p{i}") for i, a in enumerate([x] + ws)]
            drop_rng = np.random.default_rng(25)
            out = multihead_attention(params[0], params[0], params[0], params[1:], 0.5, drop_rng,
                                      0.9, 8)
            (out * Tensor(upstream)).sum().backward()
            with no_grad():
                forecast = model.forward(windows).data
            return [out.data, forecast, drop_rng.bit_generator.random_raw()] + [
                p.grad for p in params]

        forward_workers(1)
        expected = run()
        forward_workers(6)
        result = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            thread = threading.Thread(target=lambda: result.append(run()), daemon=True)
            thread.start()
            thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not thread.is_alive() and result, "the calls did not finish in 120 s"
        assert tensor._pool[0] == 6
        for got, want in zip(result[0], expected):
            assert np.array_equal(got, want)

    def test_six_switching_workers_draw_and_sum_in_index_order(self, forward_workers,
                                                               monkeypatch):
        # 256 one-matrix units on six threads switching every microsecond.
        # Masks drawn after a unit is handed out, not under the lock that
        # hands it out, or weight-gradient terms summed as units finish, not
        # in index order, change bits here in every run.
        monkeypatch.setattr(tensor, "ATTENTION_BLOCK_BYTES", 1)
        rng = np.random.default_rng(26)
        x, upstream = rng.standard_normal((256, 6, 8)), rng.standard_normal((256, 6, 8))
        ws = [rng.uniform(-0.5, 0.5, (8, 8)) for _ in range(4)]
        results = []
        for workers in (1, 6):
            forward_workers(workers)
            params = [Parameter(a, f"p{i}") for i, a in enumerate([x] + ws)]
            drop_rng = np.random.default_rng(27)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                out = multihead_attention(params[0], params[0], params[0], params[1:], 0.5,
                                          drop_rng, 0.9, 2)
                (out * Tensor(upstream)).sum().backward()
            finally:
                sys.setswitchinterval(interval)
            results.append([out.data, drop_rng.bit_generator.random_raw()]
                           + [p.grad for p in params])
        for one, six in zip(*results):
            assert np.array_equal(one, six)

    def test_non_finite_score_on_a_worker_raises_from_the_caller(self, two_workers, monkeypatch):
        # One index of eight heads, each with a score of inf - inf: its head
        # blocks go to the pool, and every one takes the exact path and fails
        # its scan. The caller stalls in its first scan, so the worker fails
        # the others.
        q, k = np.zeros((1, 321, 16)), np.zeros((1, 321, 16))
        q[0, 0] = 1e200
        k[0, 0, 0::2], k[0, 0, 1::2] = 1e200, -1e200
        ensure_finite, scans = tensor._ensure_finite, []

        def slow_scan(arr, op):
            if op == "attention":
                scans.append(threading.current_thread().name)
                if threading.current_thread() is threading.main_thread():
                    time.sleep(0.05)
            return ensure_finite(arr, op)

        monkeypatch.setattr(tensor, "_ensure_finite", slow_scan)
        with no_grad(), pytest.raises(NonFiniteError, match="attention"):
            attention(Tensor(q), Tensor(k), Tensor(k), 1.0, heads=8)
        assert len(scans) == 8  # every head block ran, then the error was raised
        assert any(name.startswith("phasecast-worker") for name in scans), scans


def run_with_grads(build, arrays, upstream):
    """The output of ``build`` over Parameters holding ``arrays``, then each Parameter's grad."""
    params = [Parameter(a, f"p{i}") for i, a in enumerate(arrays)]
    out = build(*params)
    (out * Tensor(upstream)).sum().backward()
    return [out.data] + [p.grad for p in params]


def assert_fused_matches(fused, composed, scales, bitwise_forward):
    """Each fused array equals the composed one within 1e-12 of its term scale (1e-5 in float32).

    ``scales`` holds, per array, the same sums taken over the magnitudes of
    their terms, so a value that cancels to near zero is judged on the size
    of what cancelled. Below the smallest normal number relative precision
    ends, so that is the absolute floor. The forward may be required to
    match bit for bit.
    """
    dtype = composed[0].dtype
    tolerance = 1e-12 if dtype == np.float64 else 1e-5
    for i, (got, want, scale) in enumerate(zip(fused, composed, scales)):
        assert got.dtype == want.dtype == dtype
        if i == 0 and bitwise_forward:
            assert np.array_equal(got, want)
        assert np.all(np.abs(got - want) <= tolerance * scale + np.finfo(dtype).tiny)


def composed_layer_norm(x, gamma, beta, eps):
    """The mean / sub / square / div / mul / add composition ``layer_norm`` replaces."""
    centered = x - x.mean(axis=-1, keepdims=True)
    var = square(centered).mean(axis=-1, keepdims=True)
    return centered / sqrt(var + eps) * gamma + beta


def revin_statistics(x, eps):
    """RevIN's window mean and floored population std of ``x`` [B, N, L]."""
    std = np.maximum(np.sqrt(x.var(axis=2, keepdims=True)), eps)
    return x.mean(axis=2, keepdims=True), std


dtypes = st.sampled_from([np.float32, np.float64])


class TestFusedLayers:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), lead=st.lists(st.integers(1, 4), max_size=3),
           dim=st.integers(1, 6), eps=st.floats(1e-6, 0.1), dtype=dtypes)
    # Two float32 draws with rows whose spread is about 1e-4 of their mean,
    # where the centering itself loses about four digits.
    @example(seed=100000001, lead=[3, 3, 3], dim=3, eps=1e-06, dtype=np.float32)
    @example(seed=24030359, lead=[2, 3, 4], dim=2, eps=1e-06, dtype=np.float32)
    def test_layer_norm_matches_composition(self, seed, lead, dim, eps, dtype):
        rng = np.random.default_rng(seed)
        shape = tuple(lead) + (dim,)
        x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-2, 2) + rng.uniform(-3, 3)
        arrays = [x.astype(dtype), rng.uniform(-2, 2, dim).astype(dtype),
                  rng.uniform(-1, 1, dim).astype(dtype)]
        upstream = rng.standard_normal(shape).astype(dtype)
        fused = run_with_grads(lambda *p: layer_norm(*p, eps), arrays, upstream)
        composed = run_with_grads(lambda *p: composed_layer_norm(*p, eps), arrays, upstream)
        # Term scales in float64: gx sums g * gamma, its mean and n times the
        # mean of g * gamma * n, each over s; gamma and beta sum g * n and g.
        x, gamma, beta = (a.astype(np.float64) for a in arrays)
        g = np.abs(upstream.astype(np.float64))
        s = np.sqrt(x.var(axis=-1, keepdims=True) + eps)
        n = np.abs(x - x.mean(axis=-1, keepdims=True)) / s
        rows = (-1, dim)
        x_terms = (g * np.abs(gamma)).max(axis=-1, keepdims=True) \
            * (2 + (n * n).max(axis=-1, keepdims=True)) / s
        scales = [np.abs(n * gamma) + np.abs(beta), x_terms,
                  (g * n).reshape(rows).sum(axis=0), g.reshape(rows).sum(axis=0)]
        assert_fused_matches(fused, composed, scales, bitwise_forward=True)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), lead=st.lists(st.integers(1, 5), min_size=1, max_size=3),
           dim=st.integers(1, 5), num_centers=st.integers(1, 5), out_dim=st.integers(1, 4),
           bandwidth=st.floats(0.3, 2.0), block_rows=st.integers(1, 4), dtype=dtypes)
    def test_kan_matches_composition(self, seed, lead, dim, num_centers, out_dim, bandwidth,
                                     block_rows, dtype):
        rng = np.random.default_rng(seed)
        shape = tuple(lead) + (dim,)
        centers = np.linspace(-2.0, 2.0, num_centers)
        arrays = [(rng.standard_normal(shape) * 1.5).astype(dtype),
                  rng.standard_normal((dim * num_centers, out_dim)).astype(dtype)]
        upstream = rng.standard_normal(shape[:-1] + (out_dim,)).astype(dtype)
        # Blocks of block_rows rows, so most draws span several blocks.
        block_bytes = block_rows * dim * num_centers * np.dtype(dtype).itemsize
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tensor, "ATTENTION_BLOCK_BYTES", block_bytes)
            fused = run_with_grads(lambda x, w: kan(x, centers, bandwidth, w), arrays, upstream)
            with no_grad():
                untaped = kan(Tensor(arrays[0]), centers, bandwidth, Tensor(arrays[1]))
        composed = run_with_grads(lambda x, w: matmul(gaussian_rbf(x, centers, bandwidth), w),
                                  arrays, upstream)
        # Term scales in float64: out sums F * w; gx sums g w^T F (x - c) / h^2;
        # gw sums F g over the rows.
        x, w = (a.astype(np.float64) for a in arrays)
        g = np.abs(upstream.astype(np.float64))
        feats = np.exp(-(x[..., None] - centers) ** 2 / (2 * bandwidth ** 2))
        rows = feats.reshape(-1, dim * num_centers)
        terms = (g @ np.abs(w).T).reshape(feats.shape) * feats
        terms *= (np.abs(x)[..., None] + np.abs(centers)) / bandwidth ** 2
        scales = [(rows @ np.abs(w)).reshape(upstream.shape), terms.sum(axis=-1),
                  rows.T @ g.reshape(-1, out_dim)]
        assert_fused_matches(fused, composed, scales, bitwise_forward=False)
        assert np.array_equal(untaped.data, fused[0])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 3), variates=st.integers(1, 4),
           length=st.integers(2, 6), affine=st.booleans(), dtype=dtypes)
    def test_revin_ops_match_composition(self, seed, batch, variates, length, affine, dtype):
        rng = np.random.default_rng(seed)
        eps = 1e-5
        shape = (batch, variates, length)
        x = (rng.standard_normal(shape) * 4 + 1).astype(dtype)
        mean, std = revin_statistics(x, eps)
        affine_arrays = [rng.uniform(0.5, 2.0, variates).astype(dtype),
                         rng.uniform(-1, 1, variates).astype(dtype)] if affine else []
        upstream = rng.standard_normal(shape).astype(dtype)

        def composed_normalize(x, *affine_params):
            normed = (x - Tensor(mean)) / Tensor(std)
            if affine_params:
                gamma, beta = (reshape(p, (1, variates, 1)) for p in affine_params)
                normed = normed * gamma + beta
            return normed

        def composed_denormalize(y, *affine_params):
            if affine_params:
                gamma, beta = (reshape(p, (1, variates, 1)) for p in affine_params)
                y = (y - beta) / (gamma + eps ** 2)
            return y * Tensor(std) + Tensor(mean)

        # Term scales in float64: the x and y gradients are products; the
        # gamma and beta gradients sum products over batch and time.
        g = np.abs(upstream.astype(np.float64))
        gamma, beta = ((np.abs(a.astype(np.float64)).reshape(-1, 1) for a in affine_arrays)
                       if affine else (1.0, 0.0))
        z = np.abs(x - mean) / std
        gz = g * z
        u = (np.abs(x) + beta) / gamma  # y is x below
        gy = g * std / gamma
        norm_scales = [z * gamma + beta, g * gamma / std]
        denorm_scales = [u * std + np.abs(mean), gy]
        if affine:
            norm_scales += [gz.sum(axis=(0, 2)), g.sum(axis=(0, 2))]
            denorm_scales += [(gy * u).sum(axis=(0, 2)), gy.sum(axis=(0, 2))]
        for fused_op, composed_op, scales in (
                (lambda *p: revin_normalize(p[0], mean, std, *p[1:]), composed_normalize,
                 norm_scales),
                (lambda *p: revin_denormalize(p[0], mean, std, *p[1:], eps=eps),
                 composed_denormalize, denorm_scales)):
            fused = run_with_grads(fused_op, [x] + affine_arrays, upstream)
            composed = run_with_grads(composed_op, [x] + affine_arrays, upstream)
            assert_fused_matches(fused, composed, scales, bitwise_forward=True)

    @pytest.mark.parametrize("op", ["layer_norm", "kan", "revin_normalize", "revin_denormalize"])
    def test_non_finite_output_names_the_op(self, op):
        x = Tensor(np.array([[[0.0] * 15 + [1.0]]]))
        one, mean, std = Tensor(np.ones(1)), np.zeros((1, 1, 1)), np.ones((1, 1, 1))
        with pytest.raises(NonFiniteError, match=op):
            if op == "layer_norm":  # the variance overflows
                layer_norm(Tensor([[1e200, -1e200]]), Tensor(np.ones(2)), Tensor(np.zeros(2)), 1e-5)
            elif op == "kan":  # two features near 1 times 1e308
                kan(Tensor([[0.0]]), np.array([-1.0, 1.0]), 10.0, Tensor(np.full((2, 1), 1e308)))
            elif op == "revin_normalize":  # a standardized value near 3.9 times 1e308
                revin_normalize(x, *revin_statistics(x.data, 1e-5), Tensor([1e308]), one)
            else:  # gamma + eps^2 = 0
                revin_denormalize(x, mean, std, Tensor([-(1e-5 ** 2)]), one, eps=1e-5)

    def test_untaped_kan_holds_one_block_of_features(self):
        # The whole [64, 321, 24 * 8] features would take 31.6 MB.
        rng = np.random.default_rng(13)
        x = Tensor(rng.standard_normal((64, 321, 24)))
        w = Tensor(rng.standard_normal((24 * 8, 24)))
        tracemalloc.start()
        try:
            with no_grad():
                out = kan(x, np.linspace(-2.0, 2.0, 8), 4.0 / 7.0, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (64, 321, 24)
        # One block of features and the output, which is x-sized here.
        assert peak < 2 * tensor.ATTENTION_BLOCK_BYTES + x.data.nbytes, peak


def subtracted_features(x, centers, scale):
    """``exp(scale * (x - c)^2)`` through ``np.subtract``, the form ``_expand``'s GEMM replaces."""
    with np.errstate(over="ignore"):
        out = np.subtract(x[..., None], centers)
        out *= out
        out *= scale
        return np.exp(out, out=out)


class TestRbfExpansion:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_gemm_features_match_the_subtraction(self, dtype):
        # A centre of 0, a signed zero, x on a centre, and values whose
        # (x - c)^2 overflows to inf, so their features are exp(-inf) = 0.
        rng = np.random.default_rng(14)
        centers = np.array([-2.0, -0.5, 0.0, 1.0 / 3.0, 2.0], dtype)
        huge = np.finfo(dtype).max / 4
        x = np.concatenate([rng.standard_normal(38) * 3.0, [0.0, -0.0, 1.0 / 3.0, -2.0],
                            [huge, -huge, 1e200 if dtype == np.float64 else 1e30]])
        x = x.astype(dtype).reshape(3, 3, 5)
        scale = dtype(-1.0 / (2.0 * 0.7 ** 2))
        want = subtracted_features(x, centers, scale)
        with np.errstate(over="raise", invalid="raise"):  # overflow happens, but is not reported
            got = tensor._expand(x, centers, scale, np.empty(x.shape + centers.shape, dtype))
        assert got.dtype == dtype and np.array_equal(got, want)
        assert not got[-1, -1, -3:].any() and got[-1, -1, :2].all()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_kan_features_match_over_several_blocks(self, monkeypatch, dtype):
        # An identity W makes the kan output the features themselves; blocks
        # of 3 rows spread the 35 rows over 12 of them.
        rng = np.random.default_rng(15)
        x = (rng.standard_normal((5, 7, 4)) * 2.0).astype(dtype)
        centers = np.linspace(-2.0, 2.0, 8)
        eye = np.eye(4 * 8, dtype=dtype)
        monkeypatch.setattr(tensor, "ATTENTION_BLOCK_BYTES", 3 * eye.nbytes // 32)
        want = subtracted_features(x, centers.astype(dtype), dtype(-1.0 / (2.0 * 0.5 ** 2)))
        taped = kan(Parameter(x, "x"), centers, 0.5, Parameter(eye, "w"))
        with no_grad():
            untaped = kan(Tensor(x), centers, 0.5, Tensor(eye))
        for out in (taped, untaped):
            assert out.data.dtype == dtype
            assert np.array_equal(out.data, want.reshape(5, 7, 32))


def copying_accumulate(self, g):
    """The copying rule, the reference for ``Tensor._accumulate``: every first gradient copied."""
    if not self.requires_grad:
        return
    if self.grad is None:
        self.grad = np.array(g, dtype=self.data.dtype, copy=True)
    else:
        self.grad = self.grad + g


def sink(t, upstream):
    """A scalar node whose backward hands ``t`` the array ``upstream`` itself."""
    def backward_fn(_):
        t._accumulate(upstream)

    return _make_output(np.zeros(()), (t,), backward_fn, "sink")


_REVIN_MEAN, _REVIN_STD = np.full((2, 3, 1), 0.3), np.full((2, 3, 1), 1.7)
_CENTERS = np.linspace(-1.0, 1.0, 3)

# Every op of the tape: a builder over tensors, and the shapes of its inputs.
OWNERSHIP_CASES = {
    "add": (lambda a, b: a + b, [(2, 3), (3,)]),
    "sub": (lambda a, b: a - b, [(2, 3), (3,)]),
    "mul": (lambda a, b: a * b, [(2, 3), (3,)]),
    "div": (lambda a, b: a / b, [(2, 3), (3,)]),
    "neg": (lambda a: -a, [(2, 3)]),
    "exp": (exp, [(2, 3)]),
    "tanh": (lambda a: a.tanh(), [(2, 3)]),
    "sqrt": (sqrt, [(2, 3)]),
    "square": (square, [(2, 3)]),
    "sum": (lambda a: a.sum(axis=1), [(2, 3)]),
    "mean": (lambda a: a.mean(axis=0, keepdims=True), [(2, 3)]),
    "reshape": (lambda a: reshape(a, (3, 2)), [(2, 3)]),
    "transpose": (lambda a: transpose(a, (1, 0)), [(2, 3)]),
    "matmul": (matmul, [(2, 2, 3), (3, 4)]),
    "matmul_batched": (matmul, [(2, 2, 3), (2, 3, 4)]),
    "softmax": (softmax, [(2, 3)]),
    "attention": (lambda q, k, v: attention(q, k, v, 0.5),
                  [(2, 2, 4, 3), (2, 2, 5, 3), (2, 2, 5, 3)]),
    "attention_dropout": (lambda q, k, v: attention(q, k, v, 0.5, np.random.default_rng(3), 0.7),
                          [(2, 2, 4, 3), (2, 2, 5, 3), (2, 2, 5, 3)]),
    "gaussian_rbf": (lambda x: gaussian_rbf(x, _CENTERS, 0.7), [(2, 3)]),
    "conv1d": (conv1d_same, [(2, 5), (3,), (1,)]),
    "layer_norm": (lambda x, g, b: layer_norm(x, g, b, 1e-5), [(2, 3, 4), (4,), (4,)]),
    "kan": (lambda x, w: kan(x, _CENTERS, 0.7, w), [(2, 3, 4), (12, 2)]),
    "revin_normalize": (lambda x, g, b: revin_normalize(x, _REVIN_MEAN, _REVIN_STD, g, b),
                        [(2, 3, 4), (3,), (3,)]),
    "revin_normalize_plain": (lambda x: revin_normalize(x, _REVIN_MEAN, _REVIN_STD), [(2, 3, 4)]),
    "revin_denormalize": (lambda y, g, b: revin_denormalize(y, _REVIN_MEAN, _REVIN_STD, g, b, 1e-5),
                          [(2, 3, 4), (3,), (3,)]),
    "revin_denormalize_plain": (lambda y: revin_denormalize(y, _REVIN_MEAN, _REVIN_STD),
                                [(2, 3, 4)]),
}


class TestGradientOwnership:
    @pytest.mark.parametrize("case", sorted(OWNERSHIP_CASES))
    def test_read_only_upstream_gradient(self, monkeypatch, case):
        build, shapes = OWNERSHIP_CASES[case]
        # Blocks of one matrix or row, so the blocked ops loop.
        monkeypatch.setattr(tensor, "ATTENTION_BLOCK_BYTES", 64)
        rng = np.random.default_rng(15)
        arrays = [rng.uniform(0.5, 2.0, shape) for shape in shapes]

        def leaf_grads(writeable):
            params = [Parameter(a.copy(), f"p{i}") for i, a in enumerate(arrays)]
            # Interior nodes between the op and the leaves hold its input
            # gradients by reference, so a later write into one would show.
            out = build(*(reshape(p, p.shape) for p in params))
            upstream = np.random.default_rng(16).standard_normal(out.shape)
            upstream.flags.writeable = writeable
            sink(out, upstream).backward()
            assert np.array_equal(upstream, np.random.default_rng(16).standard_normal(out.shape))
            return [p.grad for p in params]

        borrowed = leaf_grads(writeable=False)
        monkeypatch.setattr(Tensor, "_accumulate", copying_accumulate)
        copied = leaf_grads(writeable=True)
        assert len(borrowed) == len(copied)
        for got, want in zip(borrowed, copied):
            assert np.array_equal(got, want)

    def test_interior_nodes_borrow_and_leaves_own(self):
        param = Parameter(np.ones(3), "p")
        leaf = Tensor(np.ones(3), requires_grad=True)
        interior = param * 2.0
        g = np.arange(3.0)
        interior._accumulate(g)
        assert interior.grad is g
        leaf._accumulate(g)
        assert leaf.grad is not g and leaf.grad.flags.writeable
        param._accumulate(g)
        assert param.grad is not g
        interior._accumulate(g)  # a second gradient is added out of place
        np.testing.assert_array_equal(interior.grad, 2 * g)
        np.testing.assert_array_equal(g, np.arange(3.0))
        # A gradient of another dtype is cast into a copy.
        other = param * 2.0
        other._accumulate(np.arange(3, dtype=np.float32))
        assert other.grad.dtype == np.float64


@st.composite
def broadcast_shapes(draw):
    """A shape and a larger shape it broadcasts to."""
    shape = tuple(draw(st.lists(st.integers(1, 3), max_size=3)))
    grown = tuple(draw(st.integers(1, 3)) if size == 1 else size for size in shape)
    return shape, tuple(draw(st.lists(st.integers(1, 3), max_size=2))) + grown


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(shapes=broadcast_shapes(), seed=st.integers(0, 2**32 - 1))
    def test_unbroadcast_matches_explicit_sum(self, shapes, seed):
        shape, grad_shape = shapes
        grad = np.random.default_rng(seed).standard_normal(grad_shape)
        extra = len(grad_shape) - len(shape)
        expected = np.zeros(shape)
        for index in np.ndindex(grad_shape):
            expected[tuple(0 if size == 1 else i
                           for i, size in zip(index[extra:], shape))] += grad[index]
        reduced = tensor._unbroadcast(grad, shape)
        assert reduced.shape == shape
        np.testing.assert_allclose(reduced, expected, rtol=1e-12, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(shape=st.lists(st.integers(1, 4), min_size=1, max_size=4),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_reshape_transpose_round_trip_gradient(self, shape, seed, data):
        perm = tuple(data.draw(st.permutations(range(len(shape)))))
        inverse = tuple(int(i) for i in np.argsort(perm))
        moved = tuple(shape[i] for i in perm)
        regrouped = tuple(data.draw(st.permutations(moved))) + (1,)
        rng = np.random.default_rng(seed)
        x = Parameter(rng.standard_normal(shape), "x")
        upstream = rng.standard_normal(shape)
        back = transpose(reshape(reshape(transpose(x, perm), regrouped), moved), inverse)
        assert np.array_equal(back.data, x.data)
        (back * Tensor(upstream)).sum().backward()
        assert np.array_equal(x.grad, upstream)

        x.zero_grad()
        (transpose(x, perm) * Tensor(upstream.transpose(perm))).sum().backward()
        assert np.array_equal(x.grad, upstream)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 3), dim=st.integers(1, 4),
           num_centers=st.integers(1, 5), bandwidth=st.floats(0.3, 2.0))
    def test_gaussian_rbf_matches_composition(self, seed, rows, dim, num_centers, bandwidth):
        rng = np.random.default_rng(seed)
        x_data = rng.standard_normal((rows, dim)) * 2.0
        centers = np.linspace(-2.0, 2.0, num_centers)
        upstream = rng.standard_normal((rows, dim * num_centers))

        def composed(x):
            diff = reshape(x, (rows, dim, 1)) - Tensor(centers)
            feats = exp(square(diff) * (-1.0 / (2.0 * bandwidth * bandwidth)))
            return reshape(feats, (rows, dim * num_centers))

        results = []
        for build in (lambda x: gaussian_rbf(x, centers, bandwidth), composed):
            x = Parameter(x_data, "x")
            out = build(x)
            (out * Tensor(upstream)).sum().backward()
            results.append((out.data, x.grad))
        for fused, reference in zip(*results):
            assert np.array_equal(fused, reference)


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

    def test_backward_consumes_the_graph(self):
        rng = np.random.default_rng(12)
        w = Parameter(rng.standard_normal((3, 2)), "w")
        x = Tensor(rng.standard_normal((4, 5, 3)), requires_grad=True)
        hidden = matmul(x, w)
        squared = hidden.square()
        loss = squared.mean()
        loss.backward()
        grads = [w.grad.copy(), x.grad.copy()]
        for node in (hidden, squared, loss):
            assert node.grad is None and node._backward_fn is None and node._parents == ()
        loss.backward()
        np.testing.assert_array_equal(w.grad, grads[0])
        np.testing.assert_array_equal(x.grad, grads[1])

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
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dtype=st.sampled_from([np.float32, np.float64]),
           op=st.sampled_from([operator.add, operator.sub, operator.mul, operator.truediv]),
           number=st.one_of(st.integers(-5, 5).filter(bool),
                            st.floats(0.25, 4.0), st.floats(-4.0, -0.25),
                            st.floats(0.25, 4.0).map(np.float64)),
           number_first=st.booleans())
    def test_plain_numbers_take_the_tensor_dtype(self, seed, dtype, op, number, number_first):
        rng = np.random.default_rng(seed)
        arr = (rng.uniform(0.5, 2.0, (2, 3)) * rng.choice([-1.0, 1.0], (2, 3))).astype(dtype)
        t = Tensor(arr, requires_grad=True)
        weak = np.asarray(number, dtype)
        out = op(number, t) if number_first else op(t, number)
        expected = op(weak, arr) if number_first else op(arr, weak)
        assert out.data.dtype == dtype
        np.testing.assert_array_equal(out.data, expected)
        out.sum().backward()
        assert t.grad.dtype == dtype

    def test_float32_mode(self):
        t = Tensor(np.array([1.0, 2.0], np.float32))
        assert t.data.dtype == np.float32
        out = (1.0 - (t * 2.0 + 1) / np.float64(3.0)).exp()
        assert out.data.dtype == np.float32
        assert Tensor([1.0]).data.dtype == np.float64

    def test_rejects_unknown_dtype(self):
        with pytest.raises(ConfigError, match="precision"):
            ModelConfig(num_variates=1, precision="float16").validate()
