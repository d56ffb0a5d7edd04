import pytest

from weavenet import bench


@pytest.fixture
def bench_passes(monkeypatch) -> list:
    """The (pyramid, config, params, mode) of every weave pass `weavenet.bench` runs in the test."""
    calls = []
    real = bench.weave_forward
    monkeypatch.setattr(bench, "weave_forward", lambda *a: calls.append(a) or real(*a))
    return calls
