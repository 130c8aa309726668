"""Verification suite: one test per acceptance criterion, each printing a
PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from phasecast.cli import main as cli_main
from phasecast.data import StandardScaler, make_windows, split_bounds, stack_windows
from phasecast.layers import (
    Conv1dBlock,
    GaussianKanLayer,
    LayerNorm,
    Linear,
    MlpBlock,
    MultiHeadAttention,
)
from phasecast.metrics import forecast_metrics, repeat_last, window_mean
from phasecast.model import SAME_MODEL_AS, Forecaster, ModelConfig, VARIANTS
from phasecast.offsets import merge_offsets, split_offsets
from phasecast.revin import RevIN
from phasecast.synthetic import sine_mixture, write_series_csv
from phasecast.tensor import Tensor
from phasecast.training import (
    TrainSchedule,
    grad_check,
    grad_check_model,
    mse_loss,
    train_model,
)
from reference_pipeline import naive_multihead_attention

SEEDS_PER_CHECK = 20


def report_line(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number}] {name}: {status} {detail}".rstrip())


def synthetic_task(horizon=24, length=2000, seed=2024):
    """The shared sine-mixture task: 2 variates, periods 24/96, noise 0.1."""
    values = sine_mixture(length, num_variates=2, periods=(24, 96), noise=0.1, seed=seed)
    (t0, t1), (v0, v1), (s0, s1) = split_bounds(length, "6:2:2")
    scaler = StandardScaler.fit(values[t0:t1])
    vals = scaler.transform(values)
    train = stack_windows(make_windows(vals, t0, t1, 96, horizon))
    val = stack_windows(make_windows(vals, v0, v1, 96, horizon))
    test = stack_windows(make_windows(vals, s0, s1, 96, horizon))
    return train, val, test


def small_task_config(variant="full", seed=2024):
    return ModelConfig(num_variates=2, lookback=96, horizon=24, offsets=4, num_heads=4,
                       rbf_grid=8, dropout=0.0, seed=seed, variant=variant)


@pytest.mark.slow
class TestCriterion1GradientSuite:
    def _layer_checks(self, seed):
        rng = np.random.default_rng(seed)
        checks = []

        layer = Linear(4, 3, rng)
        x, y = Tensor(rng.standard_normal((5, 4))), Tensor(rng.standard_normal((5, 3)))
        checks.append(("linear", lambda: mse_loss(layer(x), y), layer.parameters()))

        norm = LayerNorm(6)
        xn, yn = Tensor(rng.standard_normal((4, 6))), Tensor(rng.standard_normal((4, 6)))
        checks.append(("layer_norm", lambda: mse_loss(norm(xn), yn), norm.parameters()))

        self_attn = MultiHeadAttention(4, 2, rng, dropout=0.0)
        xa = Tensor(rng.standard_normal((2, 3, 4)))
        ya = Tensor(rng.standard_normal((2, 3, 4)))
        checks.append(("attention_self", lambda: mse_loss(self_attn(xa, xa, xa), ya),
                       self_attn.parameters()))

        cross_attn = MultiHeadAttention(4, 2, rng, dropout=0.0)
        qc = Tensor(rng.standard_normal((2, 5, 4)))
        kvc = Tensor(rng.standard_normal((2, 3, 4)))
        yc = Tensor(rng.standard_normal((2, 5, 4)))
        checks.append(("attention_cross", lambda: mse_loss(cross_attn(qc, kvc, kvc), yc),
                       cross_attn.parameters()))

        kan = GaussianKanLayer(4, 4, rng, num_centers=4)
        xk, yk = Tensor(rng.standard_normal((3, 4))), Tensor(rng.standard_normal((3, 4)))
        checks.append(("rbf_kan", lambda: mse_loss(kan(xk), yk), kan.parameters()))

        mlp = MlpBlock(4, rng)
        xm, ym = Tensor(rng.standard_normal((3, 4))), Tensor(rng.standard_normal((3, 4)))
        checks.append(("mlp", lambda: mse_loss(mlp(xm), ym), mlp.parameters()))

        conv = Conv1dBlock(3, rng)
        xc2, yc2 = Tensor(rng.standard_normal((2, 6))), Tensor(rng.standard_normal((2, 6)))
        checks.append(("conv1d", lambda: mse_loss(conv(xc2), yc2), conv.parameters()))

        revin = RevIN(2, affine=True)
        revin.gamma.data[:] = rng.uniform(0.5, 1.5, size=2)
        revin.beta.data[:] = rng.standard_normal(2) * 0.1
        xr = rng.standard_normal((2, 2, 8))
        yr = Tensor(rng.standard_normal((2, 2, 8)))

        def revin_loss():
            out, state = revin.normalize(Tensor(xr))
            return mse_loss(revin.denormalize(out, state), yr)

        checks.append(("revin_affine", revin_loss, revin.parameters()))
        return checks

    def test_every_layer_and_variant(self):
        started = time.perf_counter()
        worst = 0.0
        worst_at = ""
        for seed in range(SEEDS_PER_CHECK):
            for name, loss_fn, params in self._layer_checks(seed):
                report = grad_check(loss_fn, params, tolerance=1e-4)
                if report.max_rel_error > worst:
                    worst, worst_at = report.max_rel_error, f"{name} seed={seed}"
                assert report.passed, (name, seed, report)
        for tag in VARIANTS:
            for seed in range(SEEDS_PER_CHECK):
                rng = np.random.default_rng(seed)
                model = Forecaster(ModelConfig(
                    num_variates=2, lookback=8, horizon=3, offsets=2, num_heads=2,
                    rbf_grid=3, dropout=0.0, seed=seed, variant=tag))
                report = grad_check_model(
                    model, rng.standard_normal((1, 2, 8)), rng.standard_normal((1, 2, 3)),
                    tolerance=1e-4)
                if report.max_rel_error > worst:
                    worst, worst_at = report.max_rel_error, f"{tag} seed={seed}"
                assert report.passed, (tag, seed, report)
        elapsed = time.perf_counter() - started
        ok = elapsed < 300.0
        report_line(1, "gradient suite", ok,
                    f"(worst rel err {worst:.2e} at {worst_at}, {elapsed:.0f}s)")
        assert ok, f"gradient suite took {elapsed:.0f}s, budget is 300s"


class TestCriterion2OffsetLosslessness:
    def test_roundtrip_and_index_map(self):
        rng = np.random.default_rng(2024)
        for trial in range(200):
            offsets = int(rng.integers(1, 13))
            length = offsets * int(rng.integers(1, 13))
            x = rng.standard_normal((2, 3, length))
            stacked = split_offsets(Tensor(x), offsets)
            sub_len = length // offsets
            subs = stacked.data.reshape(offsets, 2, 3, sub_len)  # offset-major
            for u in range(offsets):
                for t in range(sub_len):
                    assert subs[u][0, 0, t] == x[0, 0, u + t * offsets]
                np.testing.assert_array_equal(subs[u], x[..., u::offsets])
            merged = merge_offsets(stacked, offsets)
            assert np.array_equal(merged.data, x), (offsets, length)
        report_line(2, "offset split/merge losslessness", True, "(200 random (L, O) pairs)")


class TestCriterion3RbfCorrectness:
    def test_features_and_forward_against_oracles(self):
        rng = np.random.default_rng(3)
        worst_feat, worst_fwd = 0.0, 0.0
        for _ in range(20):
            in_dim = int(rng.integers(1, 6))
            out_dim = int(rng.integers(1, 5))
            k = int(rng.integers(1, 9))
            layer = GaussianKanLayer(in_dim, out_dim, rng, num_centers=k, prenorm=False)
            x = rng.standard_normal((3, in_dim)) * 2
            feats = layer.rbf_features(Tensor(x)).data
            h = layer.bandwidth
            for r in range(3):
                for d in range(in_dim):
                    for c in range(k):
                        direct = np.exp(-((x[r, d] - layer.centers[c]) ** 2) / (2 * h * h))
                        worst_feat = max(worst_feat, abs(feats[r, d * k + c] - direct))
            out = layer(Tensor(x)).data
            w = layer.weights.data
            for r in range(3):
                for o in range(out_dim):
                    total = 0.0
                    for d in range(in_dim):
                        for c in range(k):
                            phi = np.exp(-((x[r, d] - layer.centers[c]) ** 2) / (2 * h * h))
                            total += w[d * k + c, o] * phi
                    worst_fwd = max(worst_fwd, abs(out[r, o] - total))
        ok = worst_feat <= 1e-12 and worst_fwd <= 1e-10
        report_line(3, "RBF feature and KAN forward oracles", ok,
                    f"(features {worst_feat:.1e} <= 1e-12, forward {worst_fwd:.1e} <= 1e-10)")
        assert ok


class TestCriterion4AttentionCorrectness:
    def test_against_per_head_loop_and_row_sums(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(20):
            heads = int(rng.choice([1, 2, 4]))
            dim = heads * int(rng.integers(1, 5))
            mha = MultiHeadAttention(dim, heads, rng, dropout=0.0)
            q = rng.standard_normal((2, int(rng.integers(1, 6)), dim))
            kv = rng.standard_normal((2, int(rng.integers(1, 6)), dim))
            out, weights = mha(Tensor(q), Tensor(kv), Tensor(kv), return_weights=True)
            expected = naive_multihead_attention(
                q, kv, kv, mha.wq.data, mha.wk.data, mha.wv.data, mha.wo.data, heads)
            worst = max(worst, float(np.max(np.abs(out.data - expected))))
            assert np.all(weights >= 0)
            assert np.max(np.abs(weights.sum(axis=-1) - 1.0)) <= 1e-9
        ok = worst <= 1e-10
        report_line(4, "multi-head attention oracle", ok, f"(max dev {worst:.1e} <= 1e-10)")
        assert ok


class TestCriterion5RevinRoundtrip:
    def test_roundtrip_including_constant_variate(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for seed in range(20):
            revin = RevIN(3, affine=True)
            revin.gamma.data[:] = rng.uniform(0.5, 2.0, size=3)
            revin.beta.data[:] = rng.standard_normal(3)
            x = rng.standard_normal((2, 3, 16)) * 5 + 1
            x[:, 1, :] = 4.2  # constant variate
            out, state = revin.normalize(Tensor(x))
            back = revin.denormalize(out, state)
            worst = max(worst, float(np.max(np.abs(back.data - x))))
        ok = worst <= 1e-6
        report_line(5, "instance-normalization roundtrip", ok, f"(max dev {worst:.1e} <= 1e-6)")
        assert ok


class TestCriterion6MetricOracle:
    def test_brute_force_and_identities(self):
        rng = np.random.default_rng(6)
        n = 10_000
        pred = rng.standard_normal(n)
        target = rng.standard_normal(n) * 2 + 0.3
        m = forecast_metrics(pred, target)

        se = ae = 0.0
        for i in range(n):
            d = target[i] - pred[i]
            se += d * d
            ae += abs(d)
        mse, mae = se / n, ae / n
        rmse = np.sqrt(mse)
        ybar = sum(target) / n
        denom = 0.0
        for i in range(n):
            denom += (target[i] - ybar) ** 2
        rse = np.sqrt(se) / np.sqrt(denom)
        mape_total, used = 0.0, 0
        for i in range(n):
            if abs(target[i]) >= 1e-8:
                mape_total += abs((target[i] - pred[i]) / target[i])
                used += 1
        mape = mape_total / used

        devs = {
            "mse": abs(m["mse"] - mse), "mae": abs(m["mae"] - mae),
            "rmse": abs(m["rmse"] - rmse), "rse": abs(m["rse"] - rse),
            "mape": abs(m["mape"] - mape),
        }
        worst = max(devs.values())

        mean_pred = np.full(50, 0.0)
        varied = rng.standard_normal(50)
        mean_pred[:] = varied.mean()
        rse_one = forecast_metrics(mean_pred, varied)["rse"]

        mae_le_rmse = all(
            (mm := forecast_metrics(rng.standard_normal(100), rng.standard_normal(100)))["mae"]
            <= mm["rmse"]
            for _ in range(50)
        )
        ok = worst <= 1e-12 and abs(rse_one - 1.0) <= 1e-12 and mae_le_rmse
        report_line(6, "metric formulas vs brute force", ok,
                    f"(max dev {worst:.1e} <= 1e-12, RSE at mean {rse_one:.12f})")
        assert ok


class TestCriterion7EndToEndLearning:
    def test_trained_model_beats_naive_baselines(self):
        started = time.perf_counter()
        train, val, test = synthetic_task(horizon=24)
        model = Forecaster(small_task_config())
        schedule = TrainSchedule(max_epochs=30, patience=3, batch_size=32,
                                 learning_rate=0.002, seed=2024)
        train_model(model, train, val, schedule)
        test_x, test_y = test
        model_mse = forecast_metrics(model.forward(test_x).data, test_y)["mse"]
        naive_last = forecast_metrics(repeat_last(test_x, 24), test_y)["mse"]
        naive_mean = forecast_metrics(window_mean(test_x, 24), test_y)["mse"]
        elapsed = time.perf_counter() - started
        beats_last = model_mse <= 0.8 * naive_last
        beats_mean = model_mse <= 0.8 * naive_mean
        ok = beats_last and beats_mean and elapsed < 600.0
        report_line(
            7, "synthetic end-to-end learning", ok,
            f"(model {model_mse:.4f} vs repeat-last {naive_last:.4f} / "
            f"window-mean {naive_mean:.4f}, {elapsed:.0f}s)")
        assert beats_last, (model_mse, naive_last)
        assert beats_mean, (model_mse, naive_mean)
        assert elapsed < 600.0


@pytest.mark.slow
class TestCriterion8AblationOrdering:
    def test_full_variant_is_best_or_tied(self):
        train, val, test = synthetic_task(horizon=24)
        test_x, test_y = test
        schedule_seeds = (2024, 2025, 2026)
        means = {}
        runs = {}  # the test MSEs of each distinct build; aliased tags share them
        for tag in ("full", "no-trans", "no-kan", "mote-only", "moti-only"):
            build = SAME_MODEL_AS.get(tag, tag)
            if build not in runs:
                runs[build] = mses = []
                for seed in schedule_seeds:
                    model = Forecaster(small_task_config(variant=tag, seed=seed))
                    schedule = TrainSchedule(max_epochs=60, patience=6, batch_size=32,
                                             learning_rate=0.002, seed=seed)
                    train_model(model, train, val, schedule)
                    mses.append(forecast_metrics(model.forward(test_x).data, test_y)["mse"])
            means[tag] = float(np.mean(runs[build]))
        full = means["full"]
        failures = {tag: mse for tag, mse in means.items()
                    if tag != "full" and full > 1.02 * mse}
        ok = not failures
        detail = " ".join(f"{tag}={mse:.5f}" for tag, mse in means.items())
        report_line(8, "ablation ordering (2% tie window)", ok, f"({detail})")
        assert ok, f"full={full:.5f} worse than {failures}"


class TestCriterion9ProtocolFidelity:
    def test_early_stopping_and_report_reproducibility(self, tmp_path):
        # patience 3, monotone-worsening validation: stop at epoch 4, keep epoch 1
        train, val, _ = synthetic_task(horizon=24, length=600)
        model = Forecaster(small_task_config())
        states = []

        def worsening(m):
            states.append(m.state_dict())
            return float(len(states))

        schedule = TrainSchedule(max_epochs=30, patience=3, batch_size=64,
                                 learning_rate=0.002, seed=2024)
        report = train_model(model, train, val, schedule, val_loss_fn=worsening)
        stops_right = report.stopped_epoch == 4 and report.best_epoch == 1
        restored = model.state_dict()
        weights_right = all(
            np.array_equal(restored[name], value) for name, value in states[0].items())

        # identical seeds must reproduce the report byte for byte
        data_path = tmp_path / "series.csv"
        write_series_csv(data_path, sine_mixture(260, num_variates=2, seed=11))
        config = {
            "dataset": {"path": str(data_path), "split_ratio": "6:2:2"},
            "model": {"offsets": 2, "num_heads": 2, "rbf_grid": 3, "dropout": 0.0},
            "train": {"max_epochs": 30, "patience": 3, "batch_size": 32,
                      "learning_rate": 0.01},
            "lookback": 8,
            "horizons": [3],
            "seed": 2024,
            "output_dir": str(tmp_path / "out"),
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        assert cli_main(["train", "--config", str(config_path),
                         "--out", str(tmp_path / "a")]) == 0
        assert cli_main(["train", "--config", str(config_path),
                         "--out", str(tmp_path / "b")]) == 0

        def canonical(path):
            payload = json.loads((path / "report.json").read_text())

            def strip(node):
                if isinstance(node, dict):
                    return {k: strip(v) for k, v in sorted(node.items())
                            if k != "wall_time_s"}
                if isinstance(node, list):
                    return [strip(v) for v in node]
                return node

            return json.dumps(strip(payload)).encode()

        reproducible = canonical(tmp_path / "a") == canonical(tmp_path / "b")
        ok = stops_right and weights_right and reproducible
        report_line(9, "training protocol fidelity", ok,
                    f"(stopped={report.stopped_epoch}, best={report.best_epoch}, "
                    f"reproducible={reproducible})")
        assert stops_right
        assert weights_right
        assert reproducible


class TestCriterion10RealDataSmoke:
    def _find_real_csv(self):
        candidates = []
        env = os.environ.get("PHASECAST_ETT_CSV")
        if env:
            candidates.append(Path(env))
        candidates.extend(Path(".").glob("data/ETT*.csv"))
        candidates.extend(Path(".").glob("data/*.csv"))
        for path in candidates:
            if path.exists():
                return path
        return None

    def test_reduced_run_on_real_csv_if_present(self, tmp_path):
        source = self._find_real_csv()
        if source is None:
            report_line(10, "real-data smoke", True,
                        "(skipped: no ETT-format CSV present; set PHASECAST_ETT_CSV)")
            pytest.skip("no real-data CSV available")
        # subset the rows so the reduced run stays cheap
        lines = source.read_text().strip().splitlines()
        subset = tmp_path / "subset.csv"
        subset.write_text("\n".join(lines[:1200]) + "\n")
        config = {
            "dataset": {"path": str(subset), "split_ratio": "6:2:2"},
            "model": {"offsets": 4, "num_heads": 8, "rbf_grid": 8, "dropout": 0.0},
            "train": {"max_epochs": 2, "patience": 2, "batch_size": 32,
                      "learning_rate": 0.002},
            "lookback": 96,
            "horizons": [96],
            "seed": 2024,
            "output_dir": str(tmp_path / "out"),
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        ok = cli_main(["train", "--config", str(config_path)]) == 0
        ok = ok and cli_main(["eval", "--config", str(config_path)]) == 0
        ok = ok and cli_main(["gradcheck", "--out", str(tmp_path / "gc")]) == 0
        ok = ok and cli_main(["synth", "--out", str(tmp_path / "synth"),
                              "--length", "128"]) == 0
        report = json.loads((out / "report.json").read_text())
        schema_ok = {"tool", "config", "seed", "offset_split", "runs"} <= set(report)
        run = report["runs"][0]
        schema_ok = schema_ok and {"horizon", "variant", "metrics",
                                   "parameter_count"} <= set(run)
        ok = ok and schema_ok
        report_line(10, "real-data smoke", ok, f"(source {source})")
        assert ok
