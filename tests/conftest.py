import pytest

from phasecast import model


def _drop_pool():
    if model._pool is not None and model._pool[1] is not None:
        model._pool[1].shutdown()
    model._forget_pool()


@pytest.fixture
def forward_workers(monkeypatch):
    """``forward_workers(n)``: untaped forwards run their chunks on n threads,
    whatever the machine declares."""

    def use(count):
        monkeypatch.setattr(model, "worker_count", lambda: count)
        _drop_pool()

    yield use
    _drop_pool()


@pytest.fixture
def two_workers(forward_workers):
    forward_workers(2)
