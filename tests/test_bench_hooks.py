"""The benchmark's tracing hooks name attributes of shlab; every one must
still resolve, or ``bench/run.py --trace 1`` breaks."""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize(
    "owner,attr",
    sorted({(point[0], point[1]) for point in tracing.TRACE_POINTS + tracing.PEAK_POINTS}),
)
def test_hook_resolves(owner, attr):
    assert callable(getattr(tracing._owner(owner), attr))
