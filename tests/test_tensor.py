import operator
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasecast import tensor
from phasecast.errors import ConfigError
from phasecast.model import ModelConfig
from phasecast.tensor import (
    NonFiniteError,
    Parameter,
    ShapeError,
    Tensor,
    attention,
    conv1d_same,
    exp,
    gaussian_rbf,
    matmul,
    no_grad,
    reshape,
    softmax,
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
