import numpy as np
import pytest
from hypothesis import settings

from shlab.fields import TorusGrid

# `pytest --hypothesis-profile=fuzz-random` runs the byte-level fuzz test of
# tests/test_io_cli.py from a fresh random seed instead of its fixed one
settings.register_profile("fuzz-random")


def sample(grid, *fns):
    """Cell-center samples on grid of one function of (x1, x2), an (nx, ny)
    array, or the (2, nx, ny) stack of two; a number stands for a constant."""
    x1, x2 = grid.cell_centers()
    out = np.stack(
        [np.asarray(fn(x1, x2) if callable(fn) else fn, dtype=float) + np.zeros(grid.shape)
         for fn in fns]
    )
    return out[0] if len(fns) == 1 else out


def band_limited(rng, grid, kmax=3, amplitude=1.0):
    """Random real trig polynomial with modes |k| <= kmax per direction,
    scaled so its sup norm is at most ``amplitude``."""
    x1, x2 = grid.cell_centers()
    out = np.zeros(grid.shape)
    for k1 in range(-kmax, kmax + 1):
        for k2 in range(kmax + 1):
            c, phi = rng.normal(), rng.uniform(0.0, 2.0 * np.pi)
            out += c * np.cos(2.0 * np.pi * (k1 * x1 + k2 * x2) + phi)
    return amplitude * out / np.max(np.abs(out))


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
