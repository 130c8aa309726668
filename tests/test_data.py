import numpy as np
import pytest

from phasecast.data import (
    DatasetSpec,
    StandardScaler,
    load_csv,
    make_windows,
    prepare_windows,
    split_bounds,
    stack_windows,
)
from phasecast.errors import ConfigError, DataError
from phasecast.metrics import forecast_metrics, repeat_last, window_mean
from phasecast.synthetic import sine_mixture, write_series_csv


def write_csv(path, rows, header="timestamp,a,b"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


class TestLoadCsv:
    def test_toy_parse(self, tmp_path):
        path = write_csv(tmp_path / "toy.csv", ["0,1.0,2.0", "1,3.0,4.0", "2,5.0,6.0"])
        ds = load_csv(DatasetSpec(path=str(path)))
        assert ds.num_variates == 2
        assert ds.length == 3
        np.testing.assert_array_equal(ds.values, [[1, 2], [3, 4], [5, 6]])

    def test_ett_shaped_file_detects_seven_variates(self, tmp_path):
        header = "date,HUFL,HULL,MUFL,MULL,LUFL,LULL,OT"
        rows = [f"2016-07-01 0{i}:00:00," + ",".join(str(float(i + j)) for j in range(7))
                for i in range(5)]
        path = write_csv(tmp_path / "ett.csv", rows, header=header)
        ds = load_csv(DatasetSpec(path=str(path)))
        assert ds.num_variates == 7
        assert ds.names == ["HUFL", "HULL", "MUFL", "MULL", "LUFL", "LULL", "OT"]

    def test_shuffled_rows_with_sort_flag_match_sorted_file(self, tmp_path):
        ordered = [f"{i},{float(i)},{float(2 * i)}" for i in range(6)]
        shuffled = [ordered[i] for i in (3, 0, 5, 1, 4, 2)]
        sorted_path = write_csv(tmp_path / "sorted.csv", ordered)
        shuffled_path = write_csv(tmp_path / "shuffled.csv", shuffled)
        baseline = load_csv(DatasetSpec(path=str(sorted_path)))
        with pytest.warns(UserWarning, match="monotonically"):
            recovered = load_csv(DatasetSpec(path=str(shuffled_path), sort_on_disorder=True))
        np.testing.assert_array_equal(recovered.values, baseline.values)
        assert recovered.timestamps == baseline.timestamps

    def test_parse_failure_names_location(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", ["0,1.0,2.0", "1,oops,4.0"])
        with pytest.raises(DataError, match="bad.csv:3.*'b'|bad.csv:3.*'a'"):
            load_csv(DatasetSpec(path=str(path)))

    def test_missing_value_rejected_without_fill(self, tmp_path):
        path = write_csv(tmp_path / "gap.csv", ["0,1.0,2.0", "1,,4.0"])
        with pytest.raises(DataError, match="missing"):
            load_csv(DatasetSpec(path=str(path)))

    def test_missing_value_forward_filled(self, tmp_path):
        path = write_csv(tmp_path / "gap.csv", ["0,1.0,2.0", "1,,4.0"])
        ds = load_csv(DatasetSpec(path=str(path), forward_fill=True))
        np.testing.assert_array_equal(ds.values, [[1, 2], [1, 4]])

    def test_absent_file(self):
        with pytest.raises(DataError, match="not found"):
            load_csv(DatasetSpec(path="/nonexistent/file.csv"))

    def test_column_subset(self, tmp_path):
        path = write_csv(tmp_path / "toy.csv", ["0,1.0,2.0", "1,3.0,4.0"])
        ds = load_csv(DatasetSpec(path=str(path), columns=["b"]))
        assert ds.names == ["b"]
        np.testing.assert_array_equal(ds.values, [[2], [4]])

    def test_unknown_column_rejected(self, tmp_path):
        path = write_csv(tmp_path / "toy.csv", ["0,1.0,2.0"])
        with pytest.raises(DataError, match="'c'"):
            load_csv(DatasetSpec(path=str(path), columns=["c"]))


class TestSplitsAndWindows:
    def test_split_ratios(self):
        (t0, t1), (v0, v1), (s0, s1) = split_bounds(100, "6:2:2")
        assert (t0, t1, v0, v1, s0, s1) == (0, 60, 60, 80, 80, 100)
        (t0, t1), (v0, v1), (s0, s1) = split_bounds(100, "7:1:2")
        assert (t0, t1, v0, v1, s0, s1) == (0, 70, 70, 80, 80, 100)

    def test_invalid_ratio(self):
        with pytest.raises(ConfigError):
            split_bounds(100, "5:3:2")

    def test_window_count_formula(self):
        values = np.arange(20.0).reshape(10, 2)
        samples = make_windows(values, 0, 10, 4, 2)
        assert len(samples) == 10 - 4 - 2 + 1

    def test_single_window_boundary(self):
        values = np.arange(12.0).reshape(6, 2)
        samples = make_windows(values, 0, 6, 4, 2)
        assert len(samples) == 1
        np.testing.assert_array_equal(samples[0].inputs, values[:4].T)
        np.testing.assert_array_equal(samples[0].target, values[4:].T)

    def test_too_short_split_names_requirement(self):
        values = np.zeros((5, 2))
        with pytest.raises(DataError, match="lookback 4.*horizon 2"):
            make_windows(values, 0, 5, 4, 2)

    @pytest.mark.parametrize("seed", range(10))
    def test_counts_match_closed_form(self, seed):
        rng = np.random.default_rng(seed)
        length = int(rng.integers(10, 60))
        lookback = int(rng.integers(2, 6))
        horizon = int(rng.integers(1, 5))
        if length < lookback + horizon:
            length = lookback + horizon
        values = rng.standard_normal((length, 3))
        samples = make_windows(values, 0, length, lookback, horizon)
        assert len(samples) == length - lookback - horizon + 1
        for s in samples:
            np.testing.assert_array_equal(
                s.target, values[s.origin + lookback:s.origin + lookback + horizon].T)

    def test_target_follows_input(self):
        values = np.arange(16.0).reshape(8, 2)
        samples = make_windows(values, 0, 8, 3, 2)
        s = samples[2]
        assert s.origin == 2
        np.testing.assert_array_equal(s.inputs[:, -1], values[4])
        np.testing.assert_array_equal(s.target[:, 0], values[5])

    @pytest.mark.parametrize("ratio", ["6:2:2", "7:1:2"])
    def test_prepared_splits_are_read_only_views_equal_to_stacked_windows(self, tmp_path, ratio):
        values = sine_mixture(120, num_variates=3, seed=4)
        path = tmp_path / "series.csv"
        write_series_csv(path, values)
        prepared = prepare_windows(DatasetSpec(path=str(path), split_ratio=ratio,
                                               lookback=8, horizon=4))
        scaled = prepared.scaler.transform(prepared.dataset.values)
        bounds = split_bounds(120, ratio)
        for split, (start, end) in zip((prepared.train, prepared.val, prepared.test), bounds):
            expected = stack_windows(make_windows(scaled, start, end, 8, 4))
            for got, want in zip(split, expected):
                assert got.shape == want.shape
                assert np.array_equal(got, want)
                with pytest.raises(ValueError):
                    got[0, 0, 0] = 1.0

    def test_stack_windows_shapes(self):
        values = np.arange(20.0).reshape(10, 2)
        x, y = stack_windows(make_windows(values, 0, 10, 4, 2))
        assert x.shape == (5, 2, 4)
        assert y.shape == (5, 2, 2)


class TestScaler:
    def test_fit_statistics(self):
        values = np.array([[1.0, 10.0], [3.0, 10.0]])
        scaler = StandardScaler.fit(values)
        np.testing.assert_allclose(scaler.mean, [2.0, 10.0])
        np.testing.assert_allclose(scaler.std, [1.0, 1.0])  # constant col clamps to 1

    def test_transform_inverse_roundtrip(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((50, 3)) * 4 + 7
        scaler = StandardScaler.fit(values)
        np.testing.assert_allclose(scaler.inverse(scaler.transform(values)), values, atol=1e-12)

    def test_leak_freedom(self, tmp_path):
        values = sine_mixture(200, num_variates=2, seed=3)
        shifted = values.copy()
        bounds = split_bounds(200, "6:2:2")
        shifted[bounds[0][1]:] += 1000.0
        base = tmp_path / "base.csv"
        shifted_path = tmp_path / "shifted.csv"
        write_series_csv(base, values)
        write_series_csv(shifted_path, shifted)
        spec = dict(split_ratio="6:2:2", lookback=8, horizon=4)
        a = prepare_windows(DatasetSpec(path=str(base), **spec))
        b = prepare_windows(DatasetSpec(path=str(shifted_path), **spec))
        np.testing.assert_array_equal(a.train[0], b.train[0])
        np.testing.assert_array_equal(a.train[1], b.train[1])


class TestMetrics:
    def test_zero_error(self):
        values = np.random.default_rng(0).standard_normal(20)
        m = forecast_metrics(values, values)
        assert m["mse"] == m["mae"] == m["rmse"] == m["mape"] == 0.0
        assert m["rse"] == 0.0

    def test_mean_prediction_gives_unit_rse(self):
        target = np.array([1.0, 2.0, 3.0, 6.0])
        pred = np.full(4, target.mean())
        m = forecast_metrics(pred, target)
        np.testing.assert_allclose(m["rse"], 1.0)

    def test_single_element_arithmetic(self):
        m = forecast_metrics(np.array([1.0]), np.array([2.0]))
        assert m["mape"] == 0.5
        assert m["mae"] == 1.0
        assert m["mse"] == 1.0
        assert m["rmse"] == 1.0

    @pytest.mark.parametrize("seed", range(5))
    def test_against_scalar_loops(self, seed):
        rng = np.random.default_rng(seed)
        pred = rng.standard_normal(100)
        target = rng.standard_normal(100) + 0.5
        m = forecast_metrics(pred, target)

        n = 100
        se = [(target[i] - pred[i]) ** 2 for i in range(n)]
        ae = [abs(target[i] - pred[i]) for i in range(n)]
        mse = sum(se) / n
        mae = sum(ae) / n
        rmse = np.sqrt(mse)
        ybar = sum(target) / n
        rse = np.sqrt(sum(se)) / np.sqrt(sum((target[i] - ybar) ** 2 for i in range(n)))
        usable = [i for i in range(n) if abs(target[i]) >= 1e-8]
        mape = sum(abs((target[i] - pred[i]) / target[i]) for i in usable) / len(usable)

        assert abs(m["mse"] - mse) <= 1e-12
        assert abs(m["mae"] - mae) <= 1e-12
        assert abs(m["rmse"] - rmse) <= 1e-12
        assert abs(m["rse"] - rse) <= 1e-12
        assert abs(m["mape"] - mape) <= 1e-12

    def test_rmse_is_sqrt_of_mse_exactly(self):
        rng = np.random.default_rng(9)
        m = forecast_metrics(rng.standard_normal(64), rng.standard_normal(64))
        assert m["rmse"] == np.sqrt(m["mse"])

    @pytest.mark.parametrize("seed", range(5))
    def test_mae_bounded_by_rmse(self, seed):
        rng = np.random.default_rng(seed)
        m = forecast_metrics(rng.standard_normal(200), rng.standard_normal(200))
        assert m["mae"] <= m["rmse"]

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        pred = rng.standard_normal(30)
        target = rng.standard_normal(30)
        perm = rng.permutation(30)
        base = forecast_metrics(pred, target)
        permuted = forecast_metrics(pred[perm], target[perm])
        for key in ("mse", "mae", "rmse", "rse", "mape"):
            assert abs(base[key] - permuted[key]) <= 1e-12
        assert base["mape_excluded"] == permuted["mape_excluded"]

    def test_mape_exclusion_reported(self):
        pred = np.array([1.0, 1.0, 1.0])
        target = np.array([2.0, 0.0, 4.0])
        m = forecast_metrics(pred, target)
        assert m["mape_excluded"] == 1
        np.testing.assert_allclose(m["mape"], (0.5 + 0.75) / 2)

    def test_empty_input_rejected(self):
        with pytest.raises(DataError):
            forecast_metrics(np.zeros(0), np.zeros(0))


class TestBaselines:
    def test_repeat_last(self):
        x = np.arange(12.0).reshape(1, 2, 6)
        out = repeat_last(x, 3)
        np.testing.assert_array_equal(out, np.repeat(x[..., -1:], 3, axis=-1))

    def test_window_mean(self):
        x = np.arange(12.0).reshape(1, 2, 6)
        out = window_mean(x, 2)
        np.testing.assert_allclose(out[..., 0], x.mean(axis=-1))
        np.testing.assert_allclose(out[..., 1], x.mean(axis=-1))
