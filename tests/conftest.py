import numpy as np
import pytest
from hypothesis import settings

from shlab.fields import TorusGrid

# `pytest --hypothesis-profile=fuzz-random` runs the byte-level fuzz test of
# tests/test_io_cli.py from a fresh random seed instead of its fixed one
settings.register_profile("fuzz-random")


@pytest.fixture
def grid32():
    return TorusGrid(32, 32)


@pytest.fixture
def grid64():
    return TorusGrid(64, 64)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One visible pass/fail line per acceptance criterion."""
    results = {}
    for key in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(key, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py" not in nodeid:
                continue
            name = nodeid.split("::")[-1]
            status = "PASS" if key == "passed" else "FAIL"
            if results.get(name) != "FAIL":
                results[name] = status
    if results:
        terminalreporter.section("acceptance criteria")
        for name in sorted(results):
            terminalreporter.write_line(f"{name}: {results[name]}")
