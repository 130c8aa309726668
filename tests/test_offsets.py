import numpy as np
import pytest

from phasecast.offsets import OffsetConfigError, merge_offsets, split_offsets
from phasecast.tensor import Parameter, Tensor


def subs_of(stacked, offsets):
    """The O sub-sequences of an offset-major [O*B, N, T] split, as [O, B, N, T]."""
    rows, n, t = stacked.shape
    return stacked.data.reshape(offsets, rows // offsets, n, t)


class TestSplit:
    def test_stride_two_enumeration(self):
        x = Tensor(np.arange(8.0).reshape(1, 1, 8))
        subs = subs_of(split_offsets(x, 2), 2)
        np.testing.assert_array_equal(subs[0], [[[0, 2, 4, 6]]])
        np.testing.assert_array_equal(subs[1], [[[1, 3, 5, 7]]])

    def test_single_offset_is_identity(self):
        x = Tensor(np.arange(6.0).reshape(1, 1, 6))
        subs = subs_of(split_offsets(x, 1), 1)
        assert len(subs) == 1
        np.testing.assert_array_equal(subs[0], x.data)

    def test_phase_u_is_downsample_with_phase(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 12))
        subs = subs_of(split_offsets(Tensor(x), 3), 3)
        for u in range(3):
            np.testing.assert_array_equal(subs[u], x[..., u::3])

    def test_indivisible_without_padding_is_config_error(self):
        x = Tensor(np.zeros((1, 1, 10)))
        with pytest.raises(OffsetConfigError, match="10.*3"):
            split_offsets(x, 3)

    def test_multiset_of_values_preserved(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 2, 12))
        combined = np.sort(split_offsets(Tensor(x), 4).data.reshape(-1))
        np.testing.assert_array_equal(combined, np.sort(x.reshape(-1)))


class TestMerge:
    def test_inverse_of_stride_two_example(self):
        x = Tensor(np.arange(8.0).reshape(1, 1, 8))
        merged = merge_offsets(split_offsets(x, 2), 2)
        np.testing.assert_array_equal(merged.data, x.data)

    def test_single_sub_passthrough(self):
        x = Tensor(np.arange(5.0).reshape(1, 1, 5))
        merged = merge_offsets(split_offsets(x, 1), 1)
        np.testing.assert_array_equal(merged.data, x.data)

    def test_position_formula(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 1, 12))
        stacked = split_offsets(Tensor(x), 3)
        subs = subs_of(stacked, 3)
        merged = merge_offsets(stacked, 3).data
        for u in range(3):
            for t in range(4):
                assert merged[0, 0, u + t * 3] == subs[u][0, 0, t]

    @pytest.mark.parametrize("seed", range(100))
    def test_roundtrip_bit_exact_random_pairs(self, seed):
        rng = np.random.default_rng(seed)
        offsets = int(rng.integers(1, 13))
        length = offsets * int(rng.integers(1, 13))
        x = rng.standard_normal((2, 2, length))
        merged = merge_offsets(split_offsets(Tensor(x), offsets), offsets)
        assert np.array_equal(merged.data, x)

    def test_gradient_flows_through_roundtrip(self):
        x = Parameter(np.arange(8.0).reshape(1, 1, 8), "x")
        merged = merge_offsets(split_offsets(x, 4), 4)
        (merged * Tensor(np.arange(8.0).reshape(1, 1, 8))).sum().backward()
        np.testing.assert_array_equal(x.grad, np.arange(8.0).reshape(1, 1, 8))
