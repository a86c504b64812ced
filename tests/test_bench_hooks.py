"""The benchmark harness must keep working: its tracing hooks name
attributes of shlab, every one of which must still resolve (or
``bench/run.py --trace 1`` breaks), and a smoke-size job must run and pass
its correctness gate."""

import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


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


def run_job(tmp_path, workload: str, mode: str) -> dict:
    """Run one smoke-size bench/job.py job in a subprocess; return its record."""
    result = tmp_path / f"{mode}.json"
    proc = subprocess.run(
        [
            sys.executable, str(BENCH / "job.py"),
            "--workload", workload, "--mode", mode, "--smoke", "--seed", "0",
            "--dir", str(tmp_path / f"work-{mode}"), "--result", str(result),
            "--spawned-at", repr(time.monotonic()),
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(result.read_text())
    assert record["exit_code"] == 0
    bad = [c for c in record["gate"] if c["status"] not in ("ok", "skipped")]
    assert not bad, bad
    return record


def test_analysis_job_smoke(tmp_path):
    record = run_job(tmp_path, "analysis-128", "plain")
    names = {check["name"] for check in record["gate"]}
    assert {"continuity", "momentum", "mass_mode"} <= names


@pytest.mark.parametrize("mode", ["plain", "trace"])
def test_workbench_job_smoke(tmp_path, mode):
    record = run_job(tmp_path, "workbench-32", mode)
    assert {"offset", "certificate", "gap_rows"} <= {check["name"] for check in record["gate"]}
    if mode == "trace":
        layers = record["layers"]
        for name in (
            "workbench.find_energy_offset.s",
            "workbench.build.calls",
            "workbench.solve_mean_momentum.self_s",
            "workbench.solve_stress.self_s",
            "workbench.improvement_step.calls",
            "spectral.korn_solve_values.calls",
        ):
            assert layers[name] > 0, name
        # one gap for the built state, then at most two per step: the state
        # it starts from and the candidate it certified
        steps = layers["workbench.improvement_step.calls"]
        assert layers["workbench.energy_gap.calls"] <= 1 + 2 * steps
        # Korn solves run on node chunks: at smoke size one chunk per candidate
        assert layers["spectral.korn_solve_values.calls"] <= (
            layers["workbench.build.calls"] + steps
        )


@pytest.mark.parametrize("mode", ["plain", "trace"])
def test_simulate_job_smoke(tmp_path, mode):
    record = run_job(tmp_path, "simulate-256", mode)
    assert {"mass_drift", "e2_residual_max"} <= {check["name"] for check in record["gate"]}
    if mode == "trace":
        layers = record["layers"]
        for name in (
            "solver.step.calls",
            "solver.rusanov_flux.calls",
            "friction.friction_shrink.calls",
        ):
            assert layers[name] > 0, name
        # two flux sweeps and one friction resolvent per step
        assert layers["solver.rusanov_flux.calls"] == 2 * layers["solver.step.calls"]
        assert layers["friction.friction_shrink.calls"] == layers["solver.step.calls"]


def test_wsu_job_smoke(tmp_path):
    record = run_job(tmp_path, "wsu-32x128", "plain")
    names = {check["name"] for check in record["gate"]}
    assert {"E0_increases_with_eps", "E_rel_eps1e-3"} <= names
