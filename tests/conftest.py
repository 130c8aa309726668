import pytest

from phasecast import tensor


def _drop_pool():
    if tensor._pool is not None and tensor._pool[1] is not None:
        tensor._pool[1].shutdown()
    tensor._forget_pool()


@pytest.fixture
def forward_workers(monkeypatch):
    """``forward_workers(n)``: chunked forwards and attention run their units
    on n threads, whatever the machine declares."""

    def use(count):
        monkeypatch.setattr(tensor, "worker_count", lambda: count)
        _drop_pool()

    yield use
    _drop_pool()


@pytest.fixture
def two_workers(forward_workers):
    forward_workers(2)
