import io
import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import phasecast
from phasecast import tensor
from phasecast.errors import ConfigError
from phasecast.experiment import ExperimentConfig
from phasecast.model import Forecaster, ModelConfig, VARIANTS
from phasecast.tensor import NonFiniteError, Tensor, grad_enabled, no_grad
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

    def test_negative_seed_rejected_before_the_generator(self):
        # -5 once reached np.random.default_rng and died with a ValueError.
        with pytest.raises(ConfigError, match="seed"):
            Forecaster(small_config(seed=-5))
        small_config(seed=0).validate()

    def test_dropout_whose_keep_probability_rounds_to_zero_rejected(self):
        ModelConfig(num_variates=2, dropout=1 - 2**-16).validate()  # keeps 1 in 2**16
        with pytest.raises(ConfigError, match="dropout"):
            ModelConfig(num_variates=2, dropout=1 - 2**-18).validate()

    def test_tensor_input_of_another_dtype_rejected(self):
        model = Forecaster(small_config(precision="float32")).eval()
        x = np.zeros((2, 2, 8))
        assert model.forward(Tensor(x.astype(np.float32))).data.dtype == np.float32
        with pytest.raises(ConfigError, match="float64"):
            model.forward(Tensor(x))


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

    def test_untaped_forward_frees_its_input_copy(self):
        # A strided batch is copied into C order; the copy is dropped once
        # RevIN has its statistics, so the peak matches a contiguous batch's.
        # Held through both blocks it added one input's bytes to the peak.
        model = Forecaster(ModelConfig(num_variates=32, dropout=0.0, depth=2)).eval()
        series = np.random.default_rng(3).standard_normal((32, 16 + 95))
        strided = np.lib.stride_tricks.sliding_window_view(series, 96, axis=1).transpose(1, 0, 2)
        contiguous = np.ascontiguousarray(strided)
        peaks = []
        with no_grad():
            for x in (contiguous, strided):
                tracemalloc.start()
                try:
                    out = model.forward(x).data
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
                np.testing.assert_array_equal(out, model.forward(contiguous).data)
        assert peaks[1] - peaks[0] < contiguous.nbytes / 2, (peaks, contiguous.nbytes)

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


def wide_batch(windows, seed=0):
    return np.random.default_rng(seed).standard_normal((windows, 321, 96))


class TestChunkedForward:
    """An untaped eval forward at N = 321 runs in chunks of whole windows on a
    worker pool: one window per chunk in float64, two in float32."""

    @pytest.mark.parametrize("precision, per", [("float64", 1), ("float32", 2)])
    def test_equals_its_chunks_and_the_taped_batch(self, two_workers, precision, per):
        model = Forecaster(ModelConfig(num_variates=321, precision=precision)).eval()
        x = wide_batch(4)
        with no_grad():
            chunked = model.forward(x).data
            loop = np.concatenate([model.forward(x[lo:lo + per]).data for lo in range(0, 4, per)])
        assert tensor._pool[1] is not None  # a worker thread beside the caller
        np.testing.assert_array_equal(chunked, loop)
        taped = model.forward(x)
        assert taped.requires_grad
        # Equal bit for bit with this BLAS; bounded, since the KAN's GEMMs block
        # the rows of a chunk and of the batch differently, which another BLAS
        # may round differently.
        bound = {"float64": 1e-15, "float32": 1e-6}[precision]
        assert np.max(np.abs(chunked - taped.data)) <= bound * np.max(np.abs(taped.data))

    def test_a_failing_chunk_raises_from_the_caller(self, two_workers):
        model = Forecaster(ModelConfig(num_variates=321)).eval()
        x = wide_batch(4)
        x[2, 5, 7] = np.nan
        with no_grad(), pytest.raises(NonFiniteError, match="tensor construction"):
            model.forward(x)

    def test_the_first_failing_chunk_raises_after_every_chunk_ran(self, two_workers, monkeypatch):
        model = Forecaster(ModelConfig(num_variates=321)).eval()
        x = wide_batch(4)
        x[:, 0, 0] = np.arange(4)  # chunk i starts with i
        forecast, ran = model._forecast, []

        def chunk(t):
            i = int(t.data[0, 0, 0])
            if i == 1:
                time.sleep(0.05)  # chunk 3 fails first in time
            ran.append(i)
            if i in (1, 3):
                raise NonFiniteError(f"chunk {i}")
            return forecast(t)

        monkeypatch.setattr(model, "_forecast", chunk)
        with no_grad(), pytest.raises(NonFiniteError, match="chunk 1"):
            model.forward(x)
        assert sorted(ran) == [0, 1, 2, 3]

    def test_more_workers_than_cores_run_each_chunk_once(self, forward_workers):
        # Six threads switching every microsecond over 24 one-window chunks: a
        # chunk taken twice, or one lost, would show in the calls or the output,
        # and a worker outside no_grad would record a tape.
        forward_workers(6)
        model = Forecaster(ModelConfig(num_variates=321, lookback=8, horizon=3, offsets=2,
                                       num_heads=2, rbf_grid=3)).eval()
        x = np.random.default_rng(1).standard_normal((24, 321, 8))
        with no_grad():
            loop = np.concatenate([model.forward(x[i:i + 1]).data for i in range(24)])
        forecast, calls, result = model._forecast, [], []

        def chunk(t):
            calls.append((t.data[0, 0, 0], grad_enabled()))
            return forecast(t)

        model._forecast = chunk

        def run():
            with no_grad():
                result.append(model.forward(x).data)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            thread = threading.Thread(target=run, daemon=True)
            thread.start()
            thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not thread.is_alive() and result, "the forward did not finish in 60 s"
        assert sorted(calls) == [(first, False) for first in sorted(x[:, 0, 0])]
        np.testing.assert_array_equal(result[0], loop)

    def test_forked_child_forward_completes(self, two_workers):
        model = Forecaster(ModelConfig(num_variates=321)).eval()
        x = wide_batch(2)
        with no_grad():
            expected = model.forward(x).data  # the parent's pool now has a thread

        def child():
            with no_grad():
                os._exit(0 if np.array_equal(model.forward(x).data, expected) else 1)

        process = multiprocessing.get_context("fork").Process(target=child)
        process.start()
        process.join(60)
        if process.is_alive():
            process.kill()
            process.join()
            pytest.fail("the forked child's forward did not complete in 60 s")
        assert process.exitcode == 0

    def test_same_bits_for_one_worker_or_many(self):
        # Fresh processes: one pinned to one CPU, so one worker; one on every
        # CPU the machine gives it. BLAS is pinned to 1 thread in both.
        script = textwrap.dedent("""
            import hashlib, os, sys
            if sys.argv[1] == "pinned":
                os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            import numpy as np
            from phasecast.model import Forecaster, ModelConfig
            from phasecast.tensor import no_grad, worker_count
            from phasecast.training import evaluate_mse

            rng = np.random.default_rng(0)
            x, y = rng.standard_normal((4, 321, 96)), rng.standard_normal((4, 321, 96))
            model = Forecaster(ModelConfig(num_variates=321)).eval()
            with no_grad():
                out = model.forward(x).data
            print(worker_count(), hashlib.sha256(out.tobytes()).hexdigest(),
                  evaluate_mse(model, x, y, batch_size=4).hex())
        """)
        src = str(Path(phasecast.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
        runs = [subprocess.run([sys.executable, "-c", script, where], env=env, timeout=300,
                               capture_output=True, text=True, check=True).stdout.split()
                for where in ("pinned", "all")]
        assert runs[0][0] == "1"
        assert int(runs[1][0]) == len(os.sched_getaffinity(0))
        assert runs[0][1:] == runs[1][1:], runs


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


class TestParameterOrder:
    def test_full_variant_depth_one(self):
        # Assignment order in each layer; it is the order of a checkpoint's params.
        names = [p.name for p in Forecaster(small_config()).parameters()]
        assert names == [
            "revin.gamma", "revin.beta", "kan.norm.gamma", "kan.norm.beta", "kan.weights",
            "attn_local.wq", "attn_local.wk", "attn_local.wv", "attn_local.wo",
            "attn_fusion.wq", "attn_fusion.wk", "attn_fusion.wv", "attn_fusion.wo",
            "head.weight", "head.bias",
        ]

    def test_optional_parameters_are_left_out(self):
        model = Forecaster(small_config(revin_affine=False, kan_prenorm=False,
                                        variant="mote-only"))
        assert [p.name for p in model.parameters()] == ["kan.weights", "head.weight",
                                                        "head.bias"]

    def test_train_and_eval_reach_modules_in_lists(self):
        model = Forecaster(small_config(depth=2))
        kans = [block.mixers[0] for block in model.blocks]
        assert not any(kan.training or kan.prenorm.training for kan in kans)
        model.train()
        assert all(kan.training and kan.prenorm.training for kan in kans)
        model.eval()
        assert not any(kan.training or kan.prenorm.training for kan in kans)


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

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_entry_rejected(self, tmp_path, value):
        path = tmp_path / "model.json"
        Forecaster(small_config()).save_checkpoint(path)
        payload = json.loads(path.read_text())
        payload["params"]["head.weight"]["data"][3] = value
        path.write_text(json.dumps(payload))  # json writes NaN and Infinity
        with pytest.raises(ConfigError, match="head.weight"):
            Forecaster.load_checkpoint(path)

    def test_file_text_is_what_json_dump_writes(self, tmp_path):
        model = Forecaster(small_config(seed=11))
        path = tmp_path / "model.json"
        model.save_checkpoint(path)
        payload = {
            "magic": "PHASECAST-CKPT",
            "version": 1,
            "config": model.config.to_dict(),
            "params": {p.name: {"shape": list(p.shape), "data": p.data.reshape(-1).tolist()}
                       for p in model.parameters()},
        }
        expected = io.StringIO()
        json.dump(payload, expected)
        assert path.read_text() == expected.getvalue()

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
