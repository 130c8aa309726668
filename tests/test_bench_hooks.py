"""The benchmark wraps phasecast entry points by name; each must still exist.

A renamed or removed target makes the benchmark record it as absent and read
its per-layer metrics as 0, with no error. This test turns that into a failure.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from phasecast.layers import Module

HARNESS = Path(__file__).resolve().parents[1] / "perfbench" / "harness.py"


@pytest.fixture(scope="module")
def harness():
    spec = importlib.util.spec_from_file_location("perfbench_harness", HARNESS)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules while they are built.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)  # defines the harness; installs no wrapper
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_span_target_resolves(harness):
    missing = [f"{mod}.{path}" for mod, path, _ in harness.SPAN_TARGETS
               if harness._resolve(mod, path) is None]
    assert missing == []


@pytest.mark.parametrize("path", ["GaussianKanLayer.__call__",
                                  "MultiHeadAttention.__call__", "Linear.__call__"])
def test_layer_call_targets_resolve_to_module_call(harness, path):
    owner, attr, raw = harness._resolve("phasecast.layers", path)
    assert owner.__name__ == path.split(".")[0]
    assert (attr, raw) == ("__call__", Module.__call__)
