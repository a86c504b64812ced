"""Snapshot format, scenario parsing, and the command-line entry points."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, seed, settings
from hypothesis import strategies as st

from shlab import cli, diagnostics, errors, fields, solver, workbench
from shlab.errors import FormatError, InvalidValueError, NumericalAbort, ParseError, ValidationError
from shlab.fields import TorusGrid
from shlab.scenario import eval_expression, load_config
from shlab.snapshots import read_snapshot, write_snapshot

MINIMAL = """
grid.nx = 16
grid.ny = 16
physics.T = 0.05
initial.h0 = 1 + 0.1*cos(2*pi*x1)
output.times = 3
"""


def write_scenario(tmp_path, text=MINIMAL, name="run.scn"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestSnapshotRoundTrip:
    def test_scalar_bit_exact(self, rng, tmp_path):
        values = rng.standard_normal((32, 32))
        p = tmp_path / "f.shlab"
        write_snapshot("scalar", values, p)
        out = read_snapshot(p)
        assert out.shape == (32, 32)
        np.testing.assert_array_equal(out, values)
        write_snapshot("scalar", out, tmp_path / "g.shlab")
        assert p.read_bytes() == (tmp_path / "g.shlab").read_bytes()

    def test_vector_bit_exact(self, rng, tmp_path):
        values = rng.standard_normal((2, 32, 32))
        p = tmp_path / "v.shlab"
        write_snapshot("vector", values, p)
        assert p.read_bytes().startswith(b"SHLAB1 vector 32 32 2\n")
        np.testing.assert_array_equal(read_snapshot(p), values)

    def test_symtraceless_bit_exact(self, rng, tmp_path):
        values = rng.standard_normal((2, 8, 4))
        p = tmp_path / "m.shlab"
        write_snapshot("symtraceless", values, p)
        assert p.read_bytes().startswith(b"SHLAB1 symtraceless 8 4 2\n")
        np.testing.assert_array_equal(read_snapshot(p), values)

    def test_header_records_shape(self, tmp_path):
        p = tmp_path / "f.shlab"
        write_snapshot("scalar", np.ones((32, 16)), p)
        assert p.read_bytes().startswith(b"SHLAB1 scalar 32 16 1\n")

    @pytest.mark.parametrize(
        "kind,shape,what",
        [
            ("scalar", (8, 8), "scalar field"),
            ("vector", (2, 8, 8), "vector field"),
            ("symtraceless", (2, 8, 8), "tensor field"),
        ],
    )
    def test_non_finite_payload_is_rejected(self, tmp_path, kind, shape, what):
        values = np.ones(shape)
        values[(0,) * len(shape)] = np.nan
        p = tmp_path / "f.shlab"
        write_snapshot(kind, values, p)
        with pytest.raises(InvalidValueError, match=f"^{what} contains non-finite values$"):
            read_snapshot(p)


class TestSnapshotErrors:
    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.shlab"
        p.write_bytes(b"NOPE scalar 4 4 1\n" + b"\x00" * (4 * 4 * 8))
        with pytest.raises(FormatError):
            read_snapshot(p)

    def test_unknown_kind(self, tmp_path):
        p = tmp_path / "bad.shlab"
        p.write_bytes(b"SHLAB1 matrix 4 4 1\n" + b"\x00" * (4 * 4 * 8))
        with pytest.raises(FormatError):
            read_snapshot(p)

    def test_ncomp_mismatch(self, tmp_path):
        p = tmp_path / "bad.shlab"
        p.write_bytes(b"SHLAB1 vector 4 4 1\n" + b"\x00" * (4 * 4 * 8))
        with pytest.raises(FormatError):
            read_snapshot(p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "f.shlab"
        write_snapshot("scalar", np.ones((32, 32)), p)
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(FormatError):
            read_snapshot(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.shlab"
        p.write_bytes(b"")
        with pytest.raises(FormatError):
            read_snapshot(p)

    def test_non_ascii_header(self, tmp_path):
        p = tmp_path / "bad.shlab"
        p.write_bytes(b"\xff\xfe garbage\n")
        with pytest.raises(FormatError):
            read_snapshot(p)


class TestExpressions:
    def test_trig_expression(self, grid32):
        out = eval_expression("sin(2*pi*x1)", grid32)
        x1, _ = grid32.cell_centers()
        np.testing.assert_allclose(out, np.sin(2 * np.pi * x1))

    def test_constant_broadcast(self, grid32):
        np.testing.assert_array_equal(eval_expression("2", grid32), 2.0)

    def test_rejects_unknown_name(self, grid32):
        with pytest.raises(ParseError):
            eval_expression("__import__", grid32)

    def test_rejects_attribute_access(self, grid32):
        with pytest.raises(ParseError):
            eval_expression("x1.dtype", grid32)

    def test_rejects_unknown_function(self, grid32):
        with pytest.raises(ParseError):
            eval_expression("open(x1)", grid32)

    def test_rejects_bad_syntax(self, grid32):
        with pytest.raises(ParseError):
            eval_expression("1 +", grid32)


class TestScenarioParsing:
    def test_minimal_file_with_defaults(self, tmp_path):
        scn = load_config(write_scenario(tmp_path)).to_scenario()
        assert scn.grid.nx == 16
        assert scn.a == 0.5
        assert scn.friction.gamma == 0.0
        assert scn.n_output == 3
        np.testing.assert_allclose(float(scn.h0.mean()), 1.0, atol=1e-12)

    def test_unknown_key_named_in_error(self, tmp_path):
        p = write_scenario(tmp_path, MINIMAL + "phyiscs.a = 0.5\n")
        with pytest.raises(ParseError, match="phyiscs.a"):
            load_config(p)

    def test_friction_law_key_is_unknown(self, tmp_path, capsys):
        # friction.gamma2 > 0 selects the extended law; there is no law key
        p = write_scenario(tmp_path, MINIMAL + "friction.law = extended\n")
        assert cli.main(["simulate", str(p), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"shlab: validation error: {p}:7: unknown key 'friction.law'\n"
        )
        assert not (tmp_path / "out").exists()

    def test_duplicate_key(self, tmp_path):
        p = write_scenario(tmp_path, MINIMAL + "grid.nx = 32\n")
        with pytest.raises(ParseError, match="duplicate"):
            load_config(p)

    def test_missing_required_key(self, tmp_path):
        p = write_scenario(tmp_path, "grid.nx = 16\ngrid.ny = 16\nphysics.T = 1\n")
        with pytest.raises(ParseError, match="initial.h0"):
            load_config(p)

    def test_type_error_names_key(self, tmp_path):
        p = write_scenario(tmp_path, MINIMAL.replace("physics.T = 0.05", "physics.T = soon"))
        with pytest.raises(ParseError, match="physics.T"):
            load_config(p)

    def test_negative_height_rejected(self, tmp_path):
        p = write_scenario(tmp_path, MINIMAL.replace("1 + 0.1*cos", "-1 + 0.1*cos"))
        with pytest.raises(ValidationError):
            load_config(p).to_scenario()

    def test_negative_gamma_rejected(self, tmp_path):
        p = write_scenario(tmp_path, MINIMAL + "friction.gamma = -1\n")
        with pytest.raises(ValidationError):
            load_config(p).to_scenario()

    def test_force_components_must_pair(self, tmp_path):
        p = write_scenario(tmp_path, MINIMAL + "force.fx = 0.1\n")
        with pytest.raises(ValidationError):
            load_config(p).to_scenario()

    def test_snapshot_reference_for_initial_height(self, tmp_path):
        grid = TorusGrid(16, 16)
        h = 1.0 + 0.2 * np.sin(2 * np.pi * grid.cell_centers()[1])
        write_snapshot("scalar", h, tmp_path / "h0.shlab")
        p = write_scenario(
            tmp_path, MINIMAL.replace("1 + 0.1*cos(2*pi*x1)", "@h0.shlab")
        )
        scn = load_config(p).to_scenario()
        np.testing.assert_array_equal(scn.h0, h)

    def test_snapshot_reference_grid_mismatch(self, tmp_path):
        write_snapshot("scalar", np.ones((8, 8)), tmp_path / "h0.shlab")
        p = write_scenario(
            tmp_path, MINIMAL.replace("1 + 0.1*cos(2*pi*x1)", "@h0.shlab")
        )
        with pytest.raises(ValidationError):
            load_config(p).to_scenario()

    @pytest.mark.parametrize("kind", ["vector", "symtraceless"])
    def test_snapshot_reference_of_another_kind(self, tmp_path, kind):
        # a (2, nx, ny) snapshot on the scenario's grid is not a scalar field
        write_snapshot(kind, np.ones((2, 16, 16)), tmp_path / "h0.shlab")
        p = write_scenario(
            tmp_path, MINIMAL.replace("1 + 0.1*cos(2*pi*x1)", "@h0.shlab")
        )
        with pytest.raises(ValidationError, match="snapshot must be a scalar field"):
            load_config(p).to_scenario()

    def test_spatially_varying_gamma(self, tmp_path):
        p = write_scenario(tmp_path, MINIMAL + "friction.gamma = 0.2 + 0.1*cos(2*pi*x1)\n")
        scn = load_config(p).to_scenario()
        assert isinstance(scn.friction.gamma, np.ndarray) and scn.friction.gamma.shape == (16, 16)

    def test_workbench_problem_from_config(self, tmp_path):
        cfg = load_config(write_scenario(tmp_path, MINIMAL + "workbench.time_nodes = 8\n"))
        prob = cfg.to_workbench_problem()
        assert prob.num_steps == 8
        assert prob.delta == 0.1


class TestCliSimulate:
    def test_successful_run_writes_artifacts(self, tmp_path):
        scn = write_scenario(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["simulate", str(scn), "--out", str(out)]) == 0
        assert (out / "ledger.csv").exists()
        assert (out / "summary.txt").exists()
        assert (out / "run_manifest.json").exists()
        assert (out / "run.scn").exists()
        assert (out / "snapshot_0000_h.shlab").exists()
        assert (out / "snapshot_0002_B.shlab").exists()

    def test_importing_the_cli_loads_no_openssl(self):
        """hashlib loads OpenSSL's libcrypto, a few MiB that a run would carry
        through its peak; only run_manifest.json needs it, and imports it then."""
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        probe = "import sys, shlab.cli; print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))"
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_determinism_bytewise(self, tmp_path):
        scn = write_scenario(tmp_path)
        cli.main(["simulate", str(scn), "--out", str(tmp_path / "a")])
        cli.main(["simulate", str(scn), "--out", str(tmp_path / "b")])
        assert (tmp_path / "a/ledger.csv").read_bytes() == (tmp_path / "b/ledger.csv").read_bytes()
        assert (
            (tmp_path / "a/snapshot_0002_h.shlab").read_bytes()
            == (tmp_path / "b/snapshot_0002_h.shlab").read_bytes()
        )

    def test_validation_error_exits_2(self, tmp_path, capsys):
        scn = write_scenario(tmp_path, MINIMAL + "friction.gamma = -1\n")
        assert cli.main(["simulate", str(scn), "--out", str(tmp_path / "out")]) == 2
        assert "validation" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line",
        [
            "physics.T = nan",
            "physics.T = inf",
            "physics.a = nan",
            "friction.gamma2 = nan",
            "friction.gamma2 = inf",
        ],
    )
    def test_non_finite_scenario_float_exits_2(self, tmp_path, capsys, line):
        key = line.split(" = ")[0]
        text = "\n".join(x for x in MINIMAL.splitlines() if not x.startswith(key))
        scn = write_scenario(tmp_path, text + "\n" + line + "\n")
        out = tmp_path / "out"
        assert cli.main(["simulate", str(scn), "--out", str(out)]) == 2
        assert "validation" in capsys.readouterr().err
        assert not (out / "ledger.csv").exists()

    @pytest.mark.parametrize("damage", ["missing", "truncated"])
    def test_bad_gamma_snapshot_exits_4(self, tmp_path, capsys, damage):
        # read like every other @snapshot value: an unreadable file is an IO failure
        if damage == "truncated":
            p = tmp_path / "gamma.shlab"
            write_snapshot("scalar", np.full((16, 16), 0.2), p)
            p.write_bytes(p.read_bytes()[:-8])
        scn = write_scenario(tmp_path, MINIMAL + "friction.gamma = @gamma.shlab\n")
        assert cli.main(["simulate", str(scn), "--out", str(tmp_path / "out")]) == 4
        assert "io error" in capsys.readouterr().err

    def test_parse_error_exits_2(self, tmp_path):
        scn = write_scenario(tmp_path, MINIMAL + "not a key value line\n")
        assert cli.main(["simulate", str(scn), "--out", str(tmp_path / "out")]) == 2

    def test_non_utf8_scenario_exits_2(self, tmp_path, capsys):
        scn = tmp_path / "run.scn"
        scn.write_bytes(MINIMAL.replace("grid.nx = 16", "grid.nx = 8\xff").encode("latin-1"))
        with pytest.raises(ParseError, match="UTF-8"):
            load_config(scn)
        assert cli.main(["simulate", str(scn), "--out", str(tmp_path / "out")]) == 2
        assert "validation error" in capsys.readouterr().err

    def test_missing_file_exits_4(self, tmp_path, capsys):
        missing = tmp_path / "nope.scn"
        assert cli.main(["simulate", str(missing), "--out", str(tmp_path / "out")]) == 4
        assert "io error" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("physics.a", "1e200"), ("physics.T", "1e300")])
    def test_step_budget_exits_3_at_once(self, tmp_path, capsys, key, value):
        # each ran for more than 20 s on 8x8 before the step budget existed
        scn = scenario8(tmp_path, {"physics.T": "1.0", key: value}, base=SIMULATE8)
        out = tmp_path / "out"
        t0 = time.perf_counter()
        assert cli.main(["simulate", scn, "--out", str(out)]) == 3
        assert time.perf_counter() - t0 < 1.0
        assert f"more than {solver.MAX_STEPS} steps" in capsys.readouterr().err
        assert not out.exists()


def expected_snapshots(j_max: int) -> list[str]:
    return [f"snapshot_{j:04d}_{n}.shlab" for j in range(j_max + 1) for n in ("B", "h", "q")]


class TestCliSimulateStreaming:
    """Snapshots are written as the outputs land; a run that fails partway
    removes the ones it wrote and writes no ledger or summary."""

    @pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
    @pytest.mark.parametrize("fail_at", [1, 75])
    def test_aborted_run_leaves_no_partial_output(
        self, tmp_path, monkeypatch, capsys, fail_at, existing
    ):
        out = tmp_path / "out"
        if existing:
            out.mkdir()
            (out / "notes.txt").write_text("kept")
        real = solver.step
        calls, on_disk = [], []

        def failing(state, scenario, dt, *work):
            calls.append(dt)
            if len(calls) == fail_at:
                on_disk.extend(sorted(p.name for p in out.glob("snapshot_*")))
                raise NumericalAbort("injected")
            return real(state, scenario, dt, *work)

        monkeypatch.setattr(solver, "step", failing)
        # 100 steps of T/100; the second of the three outputs lands after step 50
        scn = write_scenario(tmp_path)
        assert cli.main(["simulate", str(scn), "--out", str(out)]) == 3
        assert "injected" in capsys.readouterr().err
        assert on_disk == expected_snapshots(0 if fail_at <= 50 else 1)
        if existing:
            assert [p.name for p in out.iterdir()] == ["notes.txt"]
            assert (out / "notes.txt").read_text() == "kept"
        else:
            assert not out.exists()

    def test_failed_write_leaves_no_partial_output(self, tmp_path, monkeypatch, capsys):
        real = cli.write_snapshot
        calls = []

        def failing(kind, values, path):
            calls.append(path)
            if len(calls) == 5:
                raise OSError("disk full")
            real(kind, values, path)

        monkeypatch.setattr(cli, "write_snapshot", failing)
        out = tmp_path / "out"
        assert cli.main(["simulate", str(write_scenario(tmp_path)), "--out", str(out)]) == 4
        assert "disk full" in capsys.readouterr().err
        assert not out.exists()

    def test_rerun_with_fewer_outputs_removes_only_its_stale_snapshots(self, tmp_path):
        out = tmp_path / "out"
        text = "grid.nx = 8\ngrid.ny = 8\nphysics.T = 0.05\ninitial.h0 = 1 + 0.1*cos(2*pi*x1)\n"
        first = write_scenario(tmp_path, text + "output.times = 5\n", name="five.scn")
        assert cli.main(["simulate", str(first), "--out", str(out)]) == 0
        others = [
            "notes.txt",
            "snapshot_0009_x.shlab",
            "snapshot_00004_h.shlab",
            "snapshot_0004_h.shlab.bak",
            "Snapshot_0004_h.shlab",
        ]
        for name in others:
            (out / name).write_text("kept")
        second = write_scenario(tmp_path, text + "output.times = 3\n", name="three.scn")
        assert cli.main(["simulate", str(second), "--out", str(out)]) == 0
        snapshots = sorted(p.name for p in out.glob("snapshot_*") if p.name not in others)
        assert snapshots == expected_snapshots(2)
        for name in others:
            assert (out / name).read_text() == "kept"

    def test_memory_holds_one_state_not_the_trajectory(self, tmp_path):
        """A 64^2 run with 101 outputs peaks below 100 fields of 64^2
        float64; keeping every output would take 505 fields."""
        text = (
            "grid.nx = 64\ngrid.ny = 64\nphysics.T = 0.02\noutput.times = 101\n"
            "initial.h0 = 1 + 0.2*sin(2*pi*x1)*cos(2*pi*x2)\ninitial.u0x = 0.3*cos(2*pi*x2)\n"
            "friction.gamma = 0.2 + 0.1*cos(2*pi*x1)\nforce.fx = 0.1\nforce.fy = 0\n"
        )
        scn = write_scenario(tmp_path, text)
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            assert cli.main(["simulate", str(scn), "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sorted(p.name for p in out.glob("snapshot_*")) == expected_snapshots(100)
        field = 64 * 64 * 8
        assert peak < 100 * field, f"traced peak {peak / field:.1f} fields"

    def test_peak_is_one_step_and_its_inputs(self, tmp_path):
        """A 128^2 run with a gamma field, a constant force and 11 outputs
        holds 20 fields of 128^2 float64 at its peak: h0 and u0 (3), gamma
        (1), the step workspace (8), the step's input state (3) and its new
        h, q and B (5).  The bound allows 21.5, so 1.5 fields (192 KiB) for
        everything else.  Holding the last output through the next steps
        adds 5 fields, the last step's B through the next step 2, and the
        force as two full fields 2.  128^2 keeps the other allocations
        (about 0.5 field) well inside the slack."""
        text = (
            "grid.nx = 128\ngrid.ny = 128\nphysics.T = 0.02\noutput.times = 11\n"
            "initial.h0 = 1 + 0.2*sin(2*pi*x1)*cos(2*pi*x2)\ninitial.u0x = 0.3*cos(2*pi*x2)\n"
            "friction.gamma = 0.2 + 0.1*cos(2*pi*x1)\nforce.fx = 0.1\nforce.fy = 0\n"
        )
        scn = write_scenario(tmp_path, text)
        tracemalloc.start()
        try:
            assert cli.main(["simulate", str(scn), "--out", str(tmp_path / "out")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        field = 128 * 128 * 8
        assert peak < 21.5 * field, f"traced peak {peak / field:.2f} fields"

    def test_a_constant_force_is_a_read_only_view(self, tmp_path):
        """force.fx = 0.1 gives the read-only view of a constant; 0.1 + 0*x1
        gives a full field.  Both runs write the same bytes."""
        files = {}
        for name, fx in (("view", "0.1"), ("field", "0.1 + 0*x1")):
            scn = write_scenario(
                tmp_path, MINIMAL + f"force.fx = {fx}\nforce.fy = 0\n", name=f"{name}.scn"
            )
            f = load_config(scn).to_scenario().f
            assert f.shape == (2, 16, 16) and np.all(f[0] == 0.1) and np.all(f[1] == 0.0)
            assert (f.strides[1:] == (0, 0)) == (name == "view")
            if name == "view":
                with pytest.raises(ValueError, match="read-only"):
                    f[0, 0, 0] = 1.0
            out = tmp_path / name
            assert cli.main(["simulate", str(scn), "--out", str(out)]) == 0
            files[name] = {
                p.name: p.read_bytes()
                for p in sorted(out.iterdir())
                if p.name.startswith("snapshot_") or p.name == "ledger.csv"
            }
        assert len(files["view"]) == 10 and files["view"] == files["field"]


WORKBENCH = MINIMAL + """
initial.u0x = 0
workbench.time_nodes = 8
workbench.osc_n = 4
"""


class TestCliWorkbench:
    def test_run_writes_gap_and_certificate(self, tmp_path):
        scn = write_scenario(tmp_path, WORKBENCH)
        out = tmp_path / "wb"
        assert cli.main(["workbench", str(scn), "--steps", "3", "--out", str(out)]) == 0
        gap = (out / "gap.csv").read_text().strip().splitlines()
        assert gap[0] == "step,I,delta,accepted"
        assert len(gap) == 5  # initial row + 3 steps... plus header
        cert = (out / "certificate.csv").read_text().splitlines()
        assert cert[0] == "t,min_margin"
        assert len(cert) == 1 + 9  # time_nodes=8 -> 9 nodes
        for name in ("v_t0", "E_tmid", "M_tend"):
            assert (out / f"{name}.shlab").exists()

    def test_summary_reports_the_final_energy_jump_and_transport_residual(
        self, tmp_path, monkeypatch
    ):
        finals = []  # the command certifies the state it ends with, once
        real = cli.subsolution_certificate
        monkeypatch.setattr(
            cli, "subsolution_certificate", lambda sub: finals.append(sub) or real(sub)
        )
        scn, out = scenario8(tmp_path, {}), tmp_path / "wb"
        assert cli.main(["workbench", scn, "--steps", "2", "--out", str(out)]) == 0
        [sub] = finals
        assert sub.delta < sub.problem.delta  # an accepted step: the residual is not 0
        lines = (out / "summary.txt").read_text().splitlines()
        assert lines[-2:] == [
            f"initial energy jump: {diagnostics.energy_jump(sub):.9g}",
            f"transport residual: {workbench.transport_residual(sub):.6g}",
        ]
        assert workbench.transport_residual(sub) > 0.0

    def test_memory_holds_no_whole_stack_temporaries(self, tmp_path):
        """The workbench-32 physics on 32^2 x 65 nodes.  At the peak (the
        stress solve of an improvement step's candidate) 18 scalar stacks are
        live: the problem's h, psi and grad psi (4), the state's E, v, flux
        and M (7), the candidate's v + w, flux + G and M (6) and the drag (1).
        One node chunk's temporaries bring the traced peak to about 23 stacks.
        Whole-stack temporaries in the certificate, the gap or the pair's
        backtracking took it to 32."""
        overrides = {
            "grid.nx": "32", "grid.ny": "32", "workbench.time_nodes": "64",
            "workbench.delta": "0.05",
        }
        argv = ["workbench", scenario8(tmp_path, overrides), "--steps", "2"]
        tracemalloc.start()
        try:
            assert cli.main(argv + ["--out", str(tmp_path / "wb")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stack = 65 * 32 * 32 * 8
        assert peak < 26 * stack, f"traced peak {peak / stack:.1f} stacks"

    def test_infeasible_offset_exits_3(self, tmp_path, capsys):
        text = WORKBENCH + "friction.gamma = 0.5\nworkbench.lambda = 1e-12\n"
        scn = write_scenario(tmp_path, text)
        assert cli.main(["workbench", str(scn), "--steps", "0", "--out", str(tmp_path / "wb")]) == 3
        assert "numerical" in capsys.readouterr().err


WORKBENCH8 = {
    "grid.nx": "8",
    "grid.ny": "8",
    "physics.T": "1.0",
    "initial.h0": "1 + 0.05*cos(2*pi*x1)",
    "initial.u0x": "0.1*sin(2*pi*x2)",
    "friction.gamma": "0.2",
    "workbench.time_nodes": "8",
    "workbench.osc_n": "4",
}


def scenario8(tmp_path, overrides: dict, base: dict = WORKBENCH8) -> str:
    """An 8x8 scenario file (by default the workbench one) with some keys
    replaced (or, when the value is None, dropped)."""
    keys = {k: v for k, v in {**base, **overrides}.items() if v is not None}
    return str(write_scenario(tmp_path, "".join(f"{k} = {v}\n" for k, v in keys.items())))


def test_searched_offset_does_not_depend_on_a_small_final_time(tmp_path):
    # the offset certifies E = offset - a h^2 - d(psi)/dt, where d(psi)/dt is
    # the profile s differenced twice over dt = T/8: with s = tau (1 - exp(-t/tau))
    # its cancellation read 307.4 at T = 1e-9 and 3.1e8 at T = 1e-12
    offsets = {}
    for T in ("1e-3", "1e-6", "1e-9", "1e-12"):
        (tmp_path / T).mkdir()
        problem = load_config(scenario8(tmp_path / T, {"physics.T": T})).to_workbench_problem()
        offsets[T] = workbench.find_energy_offset(problem)
    for T in ("1e-6", "1e-9", "1e-12"):
        assert offsets[T] == pytest.approx(offsets["1e-3"], rel=1e-8)


def test_searched_offset_of_the_8x8_workbench_scenario(tmp_path):
    # bit for bit the float of the plain doubling and bisection, which built
    # every offset it asked about
    problem = load_config(scenario8(tmp_path, {})).to_workbench_problem()
    assert workbench.find_energy_offset(problem) == 0.7349319040835912


class TestCliWorkbenchExitCodes:
    @pytest.mark.parametrize(
        "overrides,args",
        [
            ({"workbench.time_nodes": "-5"}, []),
            ({"workbench.osc_n": "0"}, []),
            ({"workbench.osc_n": "-3"}, []),
            ({"seed": "-1"}, []),
            ({}, ["--seed", "-1"]),
            ({"workbench.amplitude_cap": "1.5"}, []),
            ({"workbench.delta": "-0.1", "workbench.lambda": "2.0"}, []),
            ({}, ["--steps", "-2"]),
            ({"workbench.lambda": "nan"}, []),
            ({"workbench.lambda": "inf"}, []),
            ({"workbench.lambda": "-inf"}, []),
            ({"physics.T": "0"}, []),
            # checked with the problem, so also when no improvement step runs
            ({"workbench.osc_n": "0"}, ["--steps", "0"]),
        ],
    )
    def test_bad_workbench_input_exits_2(self, tmp_path, capsys, overrides, args):
        scn = scenario8(tmp_path, overrides)
        out = tmp_path / "wb"
        assert cli.main(["workbench", scn, "--steps", "2", "--out", str(out), *args]) == 2
        assert "validation" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "T,message",
        [
            # the RK4 over dt = 1.25e299 overflows the mean momentum
            ("1e300", "mean momentum V is not finite (dt = 1.250e+299)"),
            # over dt = 1.25e-301 the rounding of the height profile s, divided
            # by dt twice in d(psi)/dt = (DDs) psi0, fails the certificate of
            # every offset of the doubling search
            ("1e-300", "energy offset search hit its cap without certifying"),
        ],
    )
    def test_extreme_final_time_exits_3(self, tmp_path, capsys, T, message):
        scn = scenario8(tmp_path, {"physics.T": T})
        out = tmp_path / "wb"
        assert cli.main(["workbench", scn, "--steps", "2", "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"shlab: numerical abort: {message}\n"
        assert not out.exists()

    def test_negative_seed_rejected_by_simulate(self, tmp_path):
        scn = write_scenario(tmp_path, MINIMAL + "seed = -1\n")
        assert cli.main(["simulate", str(scn), "--out", str(tmp_path / "o")]) == 2


def _maybe(values):
    return st.one_of(st.none(), values)


SPECIAL = st.sampled_from([0.0, -1.0, 1e-12, 1e6, float("nan"), float("inf"), float("-inf")])


# log-uniform from the smallest subnormal to 1e308 (and 0.0, where 10**e underflows)
MAGNITUDE = st.floats(np.log10(5e-324), 308.0).map(lambda e: 10.0**e)
SIGNED_MAGNITUDE = st.tuples(st.sampled_from([1.0, -1.0]), MAGNITUDE).map(lambda t: t[0] * t[1])


# one workbench key or argument set to an invalid or degenerate value
WORKBENCH_BROKEN = st.one_of(
    st.tuples(
        st.sampled_from(["workbench.time_nodes", "workbench.osc_n"]),
        st.sampled_from(["-3", "0", "1", "2.5", "nan"]),
    ),
    st.tuples(
        st.sampled_from(
            [
                "workbench.delta",
                "workbench.lambda",
                "workbench.amplitude_cap",
                "physics.T",
                "force.fx",
                "seed",
            ]
        ),
        st.one_of(SPECIAL.map(repr), st.sampled_from(["1e-300", "1e300", "1e200", "1.5", "-3"])),
    ),
    st.tuples(st.sampled_from(["--steps", "--seed"]), st.sampled_from(["-1", "-2"])),
)


@settings(max_examples=40, deadline=None)
@given(
    time_nodes=st.integers(2, 10),
    osc_n=st.integers(1, 16),
    delta=st.floats(0.01, 0.5),
    amplitude_cap=_maybe(st.floats(0.05, 0.95)),
    seed=_maybe(st.integers(0, 2**40)),
    steps=st.integers(1, 3),
    T=st.floats(0.25, 2.0),
    force=_maybe(
        st.tuples(
            st.one_of(st.floats(-0.5, 0.5), SIGNED_MAGNITUDE),
            st.one_of(st.floats(-0.5, 0.5), SIGNED_MAGNITUDE),
        )
    ),
    gamma=_maybe(st.one_of(st.just(0.0), MAGNITUDE)),
    gamma2=_maybe(st.one_of(st.just(0.0), MAGNITUDE)),
    lam=_maybe(MAGNITUDE),
    h0=_maybe(MAGNITUDE),
    u0=_maybe(SIGNED_MAGNITUDE),
    chunk_nodes=st.integers(1, 4),
    broken=st.one_of(st.none(), st.none(), st.none(), WORKBENCH_BROKEN),  # most run the loop
)
def test_workbench_exit_codes_are_documented(
    time_nodes, osc_n, delta, amplitude_cap, seed, steps, T, force, gamma, gamma2, lam,
    h0, u0, chunk_nodes, broken,
):
    """Whatever the workbench keys and arguments, main returns 0, 2, 3 or 4,
    and nothing escapes it: no traceback and no RuntimeWarning, which
    pyproject.toml raises as an error.  Each example is a valid 8^2
    workbench run with at most one key or argument broken, so valid runs,
    which run the improvement loop, are frequent.  gamma and gamma2 are 0,
    the base's 0.2 and 0, or log-uniform up to 1e308, and workbench.lambda
    is searched or log-uniform up to 1e308.  Each force component is
    constant, so the force is a read-only view, and small or log-uniform up
    to 1e308.  The amplitudes of h0 and u0 are the base's (1 and 0.1) or
    log-uniform from the smallest subnormal to 1e308.  At 8^2 a node chunk would
    hold 128 nodes, so the chunk size is lowered to 1 to 4 nodes, and the
    per-node passes cross chunk boundaries."""
    keys = {
        "workbench.time_nodes": str(time_nodes),
        "workbench.osc_n": str(osc_n),
        "workbench.delta": repr(delta),
        "workbench.amplitude_cap": None if amplitude_cap is None else repr(amplitude_cap),
        "workbench.lambda": None if lam is None else repr(lam),
        "physics.T": repr(T),
        "force.fx": None if force is None else repr(force[0]),
        "force.fy": None if force is None else repr(force[1]),
        "friction.gamma2": None if gamma2 is None else repr(gamma2),
    }
    if gamma is not None:  # else the base's 0.2
        keys["friction.gamma"] = repr(gamma)
    if h0 is not None:
        keys["initial.h0"] = f"{h0!r}*(1 + 0.05*cos(2*pi*x1))"
    if u0 is not None:
        keys["initial.u0x"] = f"{u0!r}*sin(2*pi*x2)"
    args = {"--steps": str(steps), "--seed": None if seed is None else str(seed)}
    if broken is not None:
        (args if broken[0].startswith("--") else keys)[broken[0]] = broken[1]
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(workbench, "NODE_CHUNK_BYTES", chunk_nodes * 32 * 8 * 8)
        argv = ["workbench", scenario8(Path(tmp), keys), "--out", str(Path(tmp) / "wb")]
        for flag, value in args.items():
            if value is not None:
                argv += [flag, value]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
    event(f"exit code {code}")
    assert code in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()


@settings(max_examples=25, deadline=None)
@given(
    time_nodes=st.integers(2, 12),
    osc_n=st.integers(1, 16),
    delta=st.floats(0.01, 0.5),
    gamma=st.sampled_from(["0", "0.2", "0.3 + 0.1*cos(2*pi*x2)"]),
    gamma2=st.sampled_from(["0", "0.1"]),
    force=st.one_of(st.none(), st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))),
    seed=st.integers(0, 2**31),
    chunk_nodes=st.integers(1, 4),
)
def test_workbench_artifacts_do_not_depend_on_the_node_chunks(
    time_nodes, osc_n, delta, gamma, gamma2, force, seed, chunk_nodes
):
    """Every artifact but run_manifest.json is byte-identical whether each
    per-node pass runs on chunks of 1 to 4 nodes or on one chunk (at 8^2 a
    chunk holds 128 nodes), and so are the exit code and stderr."""
    overrides = {
        "workbench.time_nodes": str(time_nodes),
        "workbench.osc_n": str(osc_n),
        "workbench.delta": repr(delta),
        "friction.gamma": gamma,
        "friction.gamma2": gamma2,
        "force.fx": None if force is None else repr(force[0]),
        "force.fy": None if force is None else repr(force[1]),
    }
    runs = []
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        scn = scenario8(Path(tmp), overrides)
        for chunk_bytes in (chunk_nodes * 32 * 8 * 8, workbench.NODE_CHUNK_BYTES):
            mp.setattr(workbench, "NODE_CHUNK_BYTES", chunk_bytes)
            out = Path(tmp) / f"wb{chunk_bytes}"
            argv = ["workbench", scn, "--steps", "3", "--seed", str(seed), "--out", str(out)]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(argv)
            files = sorted(out.glob("*")) if out.exists() else []
            artifacts = {f.name: f.read_bytes() for f in files if f.name != "run_manifest.json"}
            runs.append((code, err.getvalue(), artifacts))
    event(f"exit code {runs[0][0]}")
    assert runs[0] == runs[1]


SIMULATE8 = {
    "grid.nx": "8",
    "grid.ny": "8",
    "initial.h0": "1 + 0.2*sin(2*pi*x1)*cos(2*pi*x2)",
    "initial.u0y": "0.1*sin(2*pi*x1)",
}

# one key set to an invalid or degenerate value
BROKEN = st.tuples(
    st.sampled_from(
        [
            "physics.T",
            "physics.a",
            "physics.cfl",
            "friction.gamma",
            "friction.gamma2",
            "output.times",
            "seed",
        ]
    ),
    st.sampled_from(["0", "-1", "nan", "inf", "-inf", "1/0", "x1 - 0.5", "sticky"]),
)


@settings(max_examples=40, deadline=None)
@given(
    T=st.one_of(st.floats(0.0, 0.1), MAGNITUDE),
    a=_maybe(st.one_of(st.floats(1e-3, 10.0), MAGNITUDE)),
    cfl=_maybe(st.floats(0.02, 0.5)),
    u0=st.one_of(st.floats(-10.0, 10.0), SIGNED_MAGNITUDE),
    gamma=_maybe(
        st.one_of(
            MAGNITUDE.map(repr),
            MAGNITUDE.map(lambda g: f"{g!r}*(2 + cos(2*pi*x1))"),
            st.just("0.2 + 0.1*cos(2*pi*x1)"),
        )
    ),
    gamma2=_maybe(MAGNITUDE),
    h0=_maybe(MAGNITUDE),
    force=_maybe(st.tuples(SIGNED_MAGNITUDE, SIGNED_MAGNITUDE)),
    times=_maybe(st.integers(2, 6)),
    seed=_maybe(st.integers(0, 2**40)),
    broken=_maybe(BROKEN),
)
def test_simulate_exit_codes_are_documented(
    T, a, cfl, u0, gamma, gamma2, h0, force, times, seed, broken
):
    """Whatever the physics, friction, force, output and seed keys, the
    command exits 0, 2, 3 or 4, and no traceback or RuntimeWarning escapes it.
    gamma, gamma2, the amplitude of h0 and the force are drawn log-uniformly
    from the smallest subnormal to 1e308, and T, a and the amplitude of u0
    from their small ranges or the same way.

    The step count grows with T (|u| + sqrt(2 a h)) / (cfl dx) without limit:
    a large T, a, h0, u0 or force drives it up.  So the run's budget is cut
    from MAX_STEPS to 2,000 steps, past which the run aborts (exit 3) as it
    would at MAX_STEPS.  Without those draws, T <= 0.1, a <= 10, |u0| <= 10
    and cfl >= 0.02 keep a run below about 600 steps."""
    keys = {
        "physics.T": T,
        "physics.a": a,
        "physics.cfl": cfl,
        "initial.u0x": f"{u0!r}*cos(2*pi*x2)",
        "friction.gamma": gamma,
        "friction.gamma2": gamma2,
        "force.fx": None if force is None else force[0],
        "force.fy": None if force is None else force[1],
        "output.times": times,
        "seed": seed,
    }
    if h0 is not None:  # else the base's h0, of amplitude 1
        keys["initial.h0"] = f"{h0!r}*(1 + 0.2*sin(2*pi*x1)*cos(2*pi*x2))"
    if broken is not None:
        keys[broken[0]] = broken[1]
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "MAX_STEPS", 2000)
        scn = scenario8(
            Path(tmp),
            {k: v if v is None or isinstance(v, str) else repr(v) for k, v in keys.items()},
            base=SIMULATE8,
        )
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["simulate", scn, "--out", str(Path(tmp) / "sim")])
    event(f"exit code {code}")
    assert code in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()


EXPERIMENT8 = {
    "grid.nx": "8",
    "grid.ny": "8",
    "physics.T": "0.02",
    "initial.h0": "1 + 0.1*cos(2*pi*x1)",
    "output.times": "3",
}

# an --eps entry: a number, or a special, empty or malformed one
EPS_ENTRY = st.one_of(
    st.floats(-1e3, 1e3).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "", "-1", "-0", "1e300", "1e-320", "abc"]),
)


@settings(max_examples=40, deadline=None)
@given(
    command=st.sampled_from(["wsu", "convergence"]),
    eps=_maybe(st.lists(EPS_ENTRY, max_size=4).map(",".join)),
    refine=_maybe(st.one_of(st.integers(-3, 8), st.sampled_from(["100000", "10**18", "2.5"]))),
    amplitude=st.sampled_from(["0", "0.1", "0.5"]),
    T=st.one_of(st.sampled_from([0.0, 0.02, 1e-300]), MAGNITUDE),
    h0=_maybe(MAGNITUDE),
    u0=_maybe(SIGNED_MAGNITUDE),
    force=_maybe(st.tuples(SIGNED_MAGNITUDE, SIGNED_MAGNITUDE)),
)
def test_wsu_and_convergence_exit_codes_are_documented(
    command, eps, refine, amplitude, T, h0, u0, force
):
    """Whatever the --eps list and --refine factor of wsu, and whether the
    8x8 scenario is flat or still, both experiment commands exit 0, 2, 3 or
    4, and no traceback or RuntimeWarning escapes them.  T, the amplitudes
    of h0 and u0 and each component of a constant force are drawn
    log-uniformly from the smallest subnormal to 1e308 (T also from 0, 0.02
    and 1e-300).  As in the simulate test, each run's step budget is cut
    from MAX_STEPS to 2,000 steps, past which it aborts (exit 3)."""
    overrides = {
        "physics.T": repr(T),
        "initial.h0": f"{1.0 if h0 is None else h0!r}*(1 + {amplitude}*cos(2*pi*x1))",
        "initial.u0x": None if u0 is None else f"{u0!r}*sin(2*pi*x2)",
        "force.fx": None if force is None else repr(force[0]),
        "force.fy": None if force is None else repr(force[1]),
    }
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "MAX_STEPS", 2000)
        scn = scenario8(Path(tmp), overrides, base=EXPERIMENT8)
        argv = [command, scn, "--out", str(Path(tmp) / "out")]
        if command == "wsu":
            argv += [] if eps is None else [f"--eps={eps}"]
            argv += [] if refine is None else [f"--refine={refine}"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                # argparse rejects a --refine that is not an integer with its usage code, 2
                code = exc.code
    event(f"{command} exit code {code}")
    assert code in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()


class TestRunDirectory:
    """Every command writes --out through one writer: run_manifest.json lists
    exactly the files the command wrote, and every table reads back to the
    numbers it was given (.17g round-trips a float64)."""

    def test_manifest_hashes_the_scenario_bytes(self, tmp_path):
        scn, out = write_scenario(tmp_path), tmp_path / "out"
        assert cli.main(["simulate", str(scn), "--out", str(out)]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["scenario_sha256"] == hashlib.sha256(scn.read_bytes()).hexdigest()

    @pytest.mark.parametrize(
        "command,args,tables",
        [
            ("simulate", [], {"ledger.csv"}),
            ("workbench", ["--steps", "2"], {"certificate.csv", "gap.csv"}),
            ("wsu", ["--eps", "0,1e-2"], {"wsu_eps0.csv", "wsu_eps0.01.csv"}),
            ("convergence", [], {"convergence.csv"}),
        ],
    )
    def test_manifest_lists_the_written_files_and_tables_round_trip(
        self, tmp_path, monkeypatch, capsys, command, args, tables
    ):
        written = {}
        real = cli._RunDir.table

        def recording(run, name, columns, rows):
            rows = [tuple(row) for row in rows]
            written[name] = (",".join(columns), rows)
            real(run, name, columns, rows)

        monkeypatch.setattr(cli._RunDir, "table", recording)
        base = WORKBENCH8 if command == "workbench" else EXPERIMENT8
        scn, out = scenario8(tmp_path, {"friction.gamma": "0.2"}, base=base), tmp_path / "out"
        assert cli.main([command, scn, "--out", str(out), *args]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        files = {p.name for p in out.iterdir()} - {"run_manifest.json", Path(scn).name}
        assert manifest["outputs"] == sorted(files)
        assert "summary.txt" in files
        assert set(written) == tables
        for name, (header, rows) in written.items():
            lines = (out / name).read_text().splitlines()
            assert lines[0] == header
            read = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
            assert read == [tuple(float(x) for x in row) for row in rows]
            assert rows and all(np.isfinite(row).all() for row in read)


class TestCliDiagnose:
    def test_reports_on_finished_run(self, tmp_path, capsys):
        scn = write_scenario(tmp_path)
        out = tmp_path / "out"
        cli.main(["simulate", str(scn), "--out", str(out)])
        capsys.readouterr()
        assert cli.main(["diagnose", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "mass drift" in captured
        assert (out / "diagnose.txt").exists()

    def test_missing_ledger_exits_4(self, tmp_path):
        (tmp_path / "empty").mkdir()
        assert cli.main(["diagnose", str(tmp_path / "empty")]) == 4

    def test_one_row_ledger(self, tmp_path, capsys):
        # T = 0 stores only the initial state, so the ledger has a single row
        scn = write_scenario(tmp_path, MINIMAL.replace("physics.T = 0.05", "physics.T = 0"))
        out = tmp_path / "out"
        assert cli.main(["simulate", str(scn), "--out", str(out)]) == 0
        assert len((out / "ledger.csv").read_text().splitlines()) == 2
        assert cli.main(["diagnose", str(out)]) == 0
        assert "rows: 1\n" in capsys.readouterr().out

    def test_ledger_without_expected_columns_exits_4(self, tmp_path, capsys):
        (tmp_path / "run").mkdir()
        (tmp_path / "run/ledger.csv").write_text("a,b\n1,2\n3,4\n")
        assert cli.main(["diagnose", str(tmp_path / "run")]) == 4
        err = capsys.readouterr().err
        assert "mass, e2_residual, dissipation_cum" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "body,named",
        [
            (b"0,1\xff,0,0\n", "not a readable CSV"),  # not UTF-8
            (b"0,1,0,0\n1,1,0\n", "not a readable CSV"),  # ragged row
            (b"0,nan,0,0\n1,1,0,0\n", "column mass"),
            (b"0,1,0,0\n1,inf,0,0\n", "column mass"),
            (b"0,0,0,0\n1,0,0,0\n", "column mass"),
        ],
    )
    def test_unusable_ledger_exits_4(self, tmp_path, capsys, body, named):
        (tmp_path / "run").mkdir()
        (tmp_path / "run/ledger.csv").write_bytes(b"t,mass,e2_residual,dissipation_cum\n" + body)
        assert cli.main(["diagnose", str(tmp_path / "run")]) == 4
        err = capsys.readouterr().err
        assert named in err
        assert not (tmp_path / "run/diagnose.txt").exists()

    def test_blank_lines_in_ledger_are_skipped(self, tmp_path, capsys):
        (tmp_path / "run").mkdir()
        (tmp_path / "run/ledger.csv").write_bytes(FUZZ_LEDGER.replace(b"\n", b"\n\n", 2))
        assert cli.main(["diagnose", str(tmp_path / "run")]) == 0
        assert "rows: 3\n" in capsys.readouterr().out

    def test_header_only_ledger_exits_4(self, tmp_path):
        (tmp_path / "run").mkdir()
        (tmp_path / "run/ledger.csv").write_text(
            "t,mass,kinetic,potential,total,dissipation_cum,work_cum,e2_residual\n"
        )
        assert cli.main(["diagnose", str(tmp_path / "run")]) == 4


WSU_SMALL = (
    "grid.nx = 8\ngrid.ny = 8\nphysics.T = 0.05\n"
    "initial.h0 = 1 + 0.1*cos(2*pi*x1)\noutput.times = 3\n"
)


# a 16^2 run whose 4x reference steepens into a shock by t = 0.06 (output 3 of 26)
WSU_SHOCK = (
    "grid.nx = 16\ngrid.ny = 16\nphysics.T = 0.5\ninitial.h0 = 1 + 0.01*sin(2*pi*x1)\n"
    "initial.u0x = 2*sin(2*pi*x1)\noutput.times = {n}\n"
)


def count_stream_runs(monkeypatch, fail_at=None) -> tuple[list, list]:
    """Wrap diagnostics.stream.  Record the nx of each run in calls and the
    number of outputs it yielded in yields; raise NumericalAbort when run
    number fail_at starts."""
    calls, yields = [], []
    real = diagnostics.stream

    def counted(scenario, ledger):
        calls.append(scenario.grid.nx)
        yields.append(0)
        if len(calls) == fail_at:
            raise NumericalAbort("injected")
        for out in real(scenario, ledger):
            yields[-1] += 1
            yield out

    monkeypatch.setattr(diagnostics, "stream", counted)
    return calls, yields


class TestCliExperiments:
    def test_wsu_smoke(self, tmp_path):
        scn = write_scenario(tmp_path, WSU_SMALL)
        out = tmp_path / "wsu"
        assert cli.main(["wsu", str(scn), "--eps", "0.01", "--refine", "4", "--out", str(out)]) == 0
        lines = (out / "wsu_eps0.01.csv").read_text().splitlines()
        assert lines[0] == "t,E_rel,fitted_c"
        assert len(lines) > 1

    def test_wsu_simulates_the_reference_once(self, tmp_path, monkeypatch):
        calls, yields = count_stream_runs(monkeypatch)
        scn = write_scenario(tmp_path, WSU_SMALL)
        argv = ["wsu", str(scn), "--eps", "1e-3,1e-2,1e-1", "--out", str(tmp_path / "wsu")]
        assert cli.main(argv) == 0
        assert calls == [32, 8, 8, 8]  # one 4x reference, then one coarse run per eps
        assert yields == [3, 3, 3, 3]  # no shock: every run reaches T

    @pytest.mark.parametrize(
        "n_output,rows,yields,truncated",
        [
            # the reference shocks at output 3: it stops there, and the eps
            # runs stop at output 2, the last one they are compared at
            (26, 3, [4, 3, 3], True),
            # a shock at output 1 still leaves a window of two outputs
            (3, 2, [2, 2, 2], True),
            (2, 2, [2, 2, 2], False),
        ],
    )
    def test_wsu_runs_stop_at_the_shock_cutoff(
        self, tmp_path, monkeypatch, n_output, rows, yields, truncated
    ):
        calls, counted = count_stream_runs(monkeypatch)
        scn = write_scenario(tmp_path, WSU_SHOCK.format(n=n_output))
        out = tmp_path / "wsu"
        assert cli.main(["wsu", str(scn), "--eps", "1e-3,1e-1", "--out", str(out)]) == 0
        assert calls == [64, 16, 16]
        assert counted == yields
        for eps in ("0.001", "0.1"):
            assert len((out / f"wsu_eps{eps}.csv").read_text().splitlines()) == 1 + rows
        summary = (out / "summary.txt").read_text()
        assert summary.count("[truncated at shock]") == (2 if truncated else 0)

    def test_wsu_abort_leaves_no_partial_csv(self, tmp_path, monkeypatch, capsys):
        count_stream_runs(monkeypatch, fail_at=3)
        scn = write_scenario(tmp_path, WSU_SMALL)
        out = tmp_path / "wsu"
        assert cli.main(["wsu", str(scn), "--eps", "1e-3,1e-2,1e-1", "--out", str(out)]) == 3
        assert "injected" in capsys.readouterr().err
        assert not out.exists()  # the outputs are written only after every run succeeded

    @pytest.mark.parametrize("command", ["wsu", "convergence"])
    def test_memory_holds_no_fine_trajectory(self, tmp_path, command):
        """A 16^2 base with a 64^2 reference and 101 outputs.  One 64^2 run
        with its workspace and step temporaries takes about 35 fields of
        64^2 float64, and wsu's 101 restricted references of three 16^2
        fields about 19 more.  Keeping the reference's outputs (h, q and B)
        would take 5 * 101 = 505 fields."""
        text = (
            "grid.nx = 16\ngrid.ny = 16\nphysics.T = 0.02\noutput.times = 101\n"
            "initial.h0 = 1 + 0.2*sin(2*pi*x1)*cos(2*pi*x2)\ninitial.u0x = 0.3*cos(2*pi*x2)\n"
            "friction.gamma = 0.2 + 0.1*cos(2*pi*x1)\nforce.fx = 0.1\nforce.fy = 0\n"
        )
        argv = [command, str(write_scenario(tmp_path, text)), "--out", str(tmp_path / "out")]
        tracemalloc.start()
        try:
            assert cli.main(argv + (["--eps", "1e-3"] if command == "wsu" else [])) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        field = 64 * 64 * 8
        assert peak < 100 * field, f"traced peak {peak / field:.1f} fields"

    @pytest.mark.parametrize(
        "eps,message",
        [
            pytest.param("abc", "--eps entry 'abc' is not a number", id="abc-'abc'"),
            pytest.param("1e-3,", "--eps entry '' is not a number", id="1e-3,-''"),
            # both would write wsu_eps0.001.csv
            pytest.param(
                "1e-3,0.001",
                "--eps entries '1e-3' and '0.001' both name wsu_eps0.001.csv",
                id="1e-3,0.001-duplicate",
            ),
            # two names, but the same run twice
            pytest.param("0,-0", "--eps entry '-0' equals an earlier entry", id="0,-0-equal"),
        ],
    )
    def test_wsu_bad_eps_exits_2(self, tmp_path, capsys, monkeypatch, eps, message):
        calls, _ = count_stream_runs(monkeypatch)
        scn = write_scenario(tmp_path)
        argv = ["wsu", str(scn), "--eps", eps, "--out", str(tmp_path / "wsu")]
        assert cli.main(argv) == 2
        assert message in capsys.readouterr().err
        assert calls == []  # rejected before any simulation

    def test_convergence_flat_state_exits_3(self, tmp_path, capsys):
        # a flat state at rest stays exact on every grid: both L1 errors are 0
        scn = write_scenario(
            tmp_path,
            "grid.nx = 8\ngrid.ny = 8\nphysics.T = 0.05\ninitial.h0 = 1\noutput.times = 2\n",
        )
        assert cli.main(["convergence", str(scn), "--out", str(tmp_path / "conv")]) == 3
        assert "order is undefined" in capsys.readouterr().err

    def test_convergence_smoke(self, tmp_path, capsys):
        scn = write_scenario(
            tmp_path,
            "grid.nx = 8\ngrid.ny = 8\nphysics.T = 0.05\n"
            "initial.h0 = 1 + 0.1*cos(2*pi*x1)\noutput.times = 2\n",
        )
        out = tmp_path / "conv"
        assert cli.main(["convergence", str(scn), "--out", str(out)]) == 0
        assert "observed L1 order" in capsys.readouterr().out
        lines = (out / "convergence.csv").read_text().splitlines()
        assert lines[0] == "nx,l1_error"
        assert len(lines) == 3


# ---------------------------------------------------------------------------
# byte-level fuzzing of every file the commands read

FUZZ_SCENARIO = (
    "grid.nx = 8\ngrid.ny = 8\nphysics.T = 0.05\noutput.times = 3\n"
    "initial.h0 = 1 + 0.2*sin(2*pi*x1)*cos(2*pi*x2)\ninitial.u0x = 0.3*cos(2*pi*x2)\n"
    "force.fx = 0.1\nforce.fy = 0\nfriction.gamma = @gamma.shlab\n"
).encode()
FUZZ_GAMMA = b"SHLAB1 scalar 8 8 1\n" + (
    0.2 + 0.1 * np.cos(2 * np.pi * (np.arange(8) + 0.5) / 8)[:, None] * np.ones((1, 8))
).astype("<f8").tobytes()
FUZZ_H0_SCENARIO = (
    b"grid.nx = 8\ngrid.ny = 8\nphysics.T = 0.05\noutput.times = 3\n"
    b"initial.h0 = @h0.shlab\ninitial.u0x = 0.3*cos(2*pi*x2)\n"
)
FUZZ_H0 = b"SHLAB1 scalar 8 8 1\n" + (
    1 + 0.2 * np.sin(2 * np.pi * (np.arange(8) + 0.5) / 8)[:, None] * np.ones((1, 8))
).astype("<f8").tobytes()
FUZZ_FX_SCENARIO = (
    b"grid.nx = 8\ngrid.ny = 8\nphysics.T = 0.05\noutput.times = 3\n"
    b"initial.h0 = 1 + 0.2*sin(2*pi*x1)*cos(2*pi*x2)\ninitial.u0x = 0.3*cos(2*pi*x2)\n"
    b"force.fx = @fx.shlab\nforce.fy = 0\n"
)
FUZZ_FX = b"SHLAB1 scalar 8 8 1\n" + (
    0.1 * np.cos(2 * np.pi * (np.arange(8) + 0.5) / 8)[:, None] * np.ones((1, 8))
).astype("<f8").tobytes()
FUZZ_CELLS = 2 * np.pi * (np.arange(8) + 0.5) / 8


def fuzz_snapshot(values: np.ndarray) -> bytes:
    """An 8x8 scalar SHLAB1 snapshot of the values, broadcast to the grid."""
    return b"SHLAB1 scalar 8 8 1\n" + (values * np.ones((8, 8))).astype("<f8").tobytes()


FUZZ_U0X_SCENARIO = (
    b"grid.nx = 8\ngrid.ny = 8\nphysics.T = 0.05\noutput.times = 3\n"
    b"initial.h0 = 1 + 0.2*sin(2*pi*x1)*cos(2*pi*x2)\ninitial.u0x = @u0x.shlab\n"
)
FUZZ_U0X = fuzz_snapshot(0.3 * np.cos(FUZZ_CELLS)[None, :])
FUZZ_U0Y_SCENARIO = (
    b"grid.nx = 8\ngrid.ny = 8\nphysics.T = 0.05\noutput.times = 3\n"
    b"initial.h0 = 1 + 0.2*sin(2*pi*x1)*cos(2*pi*x2)\ninitial.u0y = @u0y.shlab\n"
)
FUZZ_U0Y = fuzz_snapshot(0.1 * np.sin(FUZZ_CELLS)[:, None])
FUZZ_FY_SCENARIO = (
    b"grid.nx = 8\ngrid.ny = 8\nphysics.T = 0.05\noutput.times = 3\n"
    b"initial.h0 = 1 + 0.2*sin(2*pi*x1)*cos(2*pi*x2)\ninitial.u0x = 0.3*cos(2*pi*x2)\n"
    b"force.fx = 0.1\nforce.fy = @fy.shlab\n"
)
FUZZ_FY = fuzz_snapshot(0.1 * np.sin(FUZZ_CELLS)[None, :])
FUZZ_LEDGER = (
    b"t,mass,kinetic,potential,total,dissipation_cum,work_cum,e2_residual\n"
    b"0,1,0.0250,0.51,0.5350,0,0,0\n"
    b"0.025,1,0.0241,0.51,0.5341,0.0009,0.0001,-1e-17\n"
    b"0.05,1,0.0233,0.51,0.5333,0.0018,0.0002,-2e-17\n"
)


@st.composite
def mutated(draw, base: bytes):
    """base with a few byte runs replaced, inserted or deleted."""
    data = bytearray(base)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data)))
        chunk = draw(st.binary(min_size=1, max_size=8))
        kind = draw(st.sampled_from(["replace", "insert", "delete"]))
        if kind == "replace":
            data[pos : pos + len(chunk)] = chunk
        elif kind == "insert":
            data[pos:pos] = chunk
        else:
            del data[pos : pos + len(chunk)]
    return bytes(data)


def fuzzed(base: bytes):
    return st.one_of(st.binary(max_size=200), mutated(base))


def run_fuzzed(target: str, data: bytes) -> int:
    """Write data as the fuzzed file, the others intact, and run the command
    that reads it in-process.  The grid and step budgets are lowered so every
    example stays small; inputs beyond them take the same rejecting path as
    inputs beyond the real budgets."""
    names = {"scenario": "run.scn", "ledger": "run/ledger.csv"}  # the others: <target>.shlab
    files = {names.get(key, f"{key}.shlab"): base for key, base in FUZZ_BASES.items()}
    # each @snapshot target but gamma has its own scenario
    files.update({f"{key}.scn": text for key, text in FUZZ_OWN_SCENARIOS.items()})
    files[names.get(target, f"{target}.shlab")] = data
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "MAX_STEPS", 200)
        mp.setattr(fields, "MAX_CELLS", 64 * 64)
        base = Path(tmp)
        (base / "run").mkdir()
        for name, content in files.items():
            (base / name).write_bytes(content)
        if target == "ledger":
            argv = ["diagnose", str(base / "run")]
        else:
            scn = f"{target}.scn" if target in FUZZ_OWN_SCENARIOS else "run.scn"
            argv = ["simulate", str(base / scn), "--out", str(base / "sim")]
        err, out = io.StringIO(), io.StringIO()
        # a RuntimeWarning is raised as an error (pyproject.toml) and fails the example
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
            code = cli.main(argv)
    assert code in (0, 2, 3, 4), err.getvalue()
    return code


FUZZ_BASES = {
    "scenario": FUZZ_SCENARIO, "gamma": FUZZ_GAMMA, "h0": FUZZ_H0, "fx": FUZZ_FX,
    "fy": FUZZ_FY, "u0x": FUZZ_U0X, "u0y": FUZZ_U0Y, "ledger": FUZZ_LEDGER,
}
FUZZ_OWN_SCENARIOS = {
    "h0": FUZZ_H0_SCENARIO, "fx": FUZZ_FX_SCENARIO, "fy": FUZZ_FY_SCENARIO,
    "u0x": FUZZ_U0X_SCENARIO, "u0y": FUZZ_U0Y_SCENARIO,
}
# the fuzz draws the same bytes on every run, except under the opt-in
# Hypothesis profile fuzz-random (tests/conftest.py)
FUZZ_SEED = 20260611


@pytest.mark.parametrize("target", sorted(FUZZ_BASES))
def test_fuzzed_input_files_exit_with_documented_codes(target):
    """Arbitrary bytes, and mutations of a valid file, in the scenario file
    (simulate), a friction.gamma @snapshot (simulate), an initial.h0,
    initial.u0x, initial.u0y, force.fx and force.fy @snapshot (simulate, each
    from its own scenario) and ledger.csv (diagnose): main returns 0, 2, 3 or
    4 and nothing escapes it."""

    @settings(max_examples=150, deadline=None)
    @given(data=fuzzed(FUZZ_BASES[target]))
    def check(data):
        event(f"exit code {run_fuzzed(target, data)}")

    if settings.get_current_profile_name() != "fuzz-random":
        check = seed(FUZZ_SEED)(check)
    check()


class TestFuzzFindings:
    """Inputs that escaped main with a traceback (exit 1), or exited with the
    wrong code, pinned one by one."""

    @pytest.mark.parametrize(
        "key,value,code",
        [
            # ValueError: integer constants to a negative integer power
            ("initial.u0x", "10**-1", 0),
            # RecursionError in the expression evaluator
            ("initial.u0x", "-" * 2000 + "1", 2),
            # OverflowError: an integer literal beyond the float range
            ("initial.u0x", "1" + "0" * 400, 2),
            # MemoryError: a 60 GiB coordinate array
            ("grid.nx", "8000000000", 2),
            # a RuntimeWarning from the expression evaluator ahead of the exit-2 line
            ("initial.u0x", "exp(1000)", 2),
            ("initial.u0x", "1/0", 2),
            ("initial.u0x", "log(0)", 2),
            ("initial.u0x", "sqrt(-1)", 2),
            # a RuntimeWarning from np.ptp of a constant infinite gamma
            ("friction.gamma", "exp(1000)", 2),
        ],
        ids=[
            "negative-power", "deep-nesting", "huge-literal", "huge-grid",
            "exp-overflow", "divide-by-zero", "log-zero", "sqrt-negative", "infinite-gamma",
        ],
    )
    def test_scenario_value(self, tmp_path, capsys, key, value, code):
        scn = scenario8(tmp_path, {"physics.T": "0.05", key: value}, base=SIMULATE8)
        assert cli.main(["simulate", scn, "--out", str(tmp_path / "out")]) == code
        err = capsys.readouterr().err
        if code == 0:
            assert err == ""
        else:  # one "shlab: <label>: <message>" line, nothing else
            assert err.startswith("shlab: ") and err.count("\n") == 1

    STOPPING = {"friction.gamma": "1e308", "initial.u0x": "0.3", "initial.u0y": None}

    @pytest.mark.parametrize(
        "overrides,e2_final",
        [
            # two RuntimeWarnings, then the exit-3 line "ledger dissipation_cum
            # is not finite (dissipation_cum = nan)": gamma h overflowed in the
            # dissipation's weight, and inf * 0 made it NaN, although every
            # cell just stops in the first step
            ({**STOPPING, "initial.h0": "1e3 + 0.1*sin(2*pi*x1)"}, -45.0025),
            # here dt gamma h itself overflowed, with a third warning
            ({**STOPPING, "initial.h0": "1e6 + 0.1*sin(2*pi*x1)"}, -45000.0026),
            # the extended law at tiny heights exited 0, after a RuntimeWarning:
            # c = dt gamma2 / h overflowed in friction_shrink (in the first
            # case inf * 0 in a still cell then gave a second)
            (
                {
                    "friction.gamma": "3.083", "friction.gamma2": "0.8616",
                    "initial.h0": "5.81033966e-316*(1 + 0.1*cos(2*pi*x1))",
                    "initial.u0x": "7.09*cos(2*pi*x2)", "force.fx": "0.1", "force.fy": "0",
                },
                0.0,
            ),
            (
                {
                    "friction.gamma": "0", "friction.gamma2": "1.25e224",
                    "initial.h0": "6.13e-136*(1 + 0.1*cos(2*pi*x1))",
                },
                -1.5325e-138,
            ),
        ],
        ids=["gamma-h", "dt-gamma-h", "extended-tiny-h", "extended-huge-gamma2"],
    )
    def test_an_infinite_friction_stops_every_cell(
        self, tmp_path, capsys, overrides, e2_final
    ):
        # exit 0 and no warning: a stop adds exactly 0 to the dissipation
        scn = scenario8(tmp_path, {"physics.T": "0.05", **overrides}, base=SIMULATE8)
        out = tmp_path / "out"
        assert cli.main(["simulate", scn, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        ledger = np.genfromtxt(out / "ledger.csv", delimiter=",", names=True)
        assert np.all(ledger["dissipation_cum"] == 0.0)
        assert np.all(ledger["e2_residual"] <= 0.0)
        assert ledger["e2_residual"][-1] == pytest.approx(e2_final, rel=1e-6)

    @pytest.mark.parametrize("body", [b"", b"\n\n"], ids=["empty", "blank-lines"])
    def test_empty_ledger_exits_4(self, body):
        # IndexError inside np.genfromtxt
        assert run_fuzzed("ledger", body) == 4

    def test_nul_byte_in_a_snapshot_reference_exits_4(self):
        # ValueError: embedded null byte, raised by open()
        scn = FUZZ_SCENARIO.replace(b"@gamma.shlab", b"@\x00amma.shlab")
        assert run_fuzzed("scenario", scn) == 4

    def test_snapshot_header_with_an_invalid_grid_exits_4(self):
        # a 2 x 2 grid with a matching payload read as a validation error (2)
        assert run_fuzzed("gamma", b"SHLAB1 scalar 2 2 1\n" + bytes(32)) == 4

    def test_huge_workbench_time_nodes_exits_2(self, tmp_path, capsys):
        # MemoryError: a (10**15 + 1, 8, 8) height stack from np.linspace
        scn = scenario8(tmp_path, {"workbench.time_nodes": str(10**15)})
        out = tmp_path / "wb"
        assert cli.main(["workbench", scn, "--steps", "0", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("shlab: validation error: ") and "space-time cells" in err
        assert not out.exists()

    def test_non_finite_energy_budget_exits_3(self, tmp_path, capsys, monkeypatch):
        # exit 3 after 60 doublings with "energy offset search hit its cap
        # without certifying": no offset gives a finite E.  Over dt = 1.25e-301
        # the rounding of the height profile s, divided by dt twice in
        # d(psi)/dt = (DDs) psi0, overflows against psi0 of about 1e99
        builds = []
        real = workbench.WorkbenchProblem.build
        spy = lambda self, lam: builds.append(lam) or real(self, lam)  # noqa: E731
        monkeypatch.setattr(workbench.WorkbenchProblem, "build", spy)
        overrides = {"initial.h0": "1e100*(1 + 0.05*cos(2*pi*x1))", "physics.T": "1e-300"}
        scn = scenario8(tmp_path, overrides)
        out = tmp_path / "wb"
        assert cli.main(["workbench", scn, "--steps", "2", "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "shlab: numerical abort: kinetic energy budget E = offset - a h^2 - d(psi)/dt "
            "is not finite (offset = 5.473e+199, dt = 1.250e-301)\n"
        )
        assert len(builds) == 1  # the first probe aborts the search
        assert not out.exists()

    def test_huge_workbench_lambda_exits_3(self, tmp_path, capsys):
        # coulomb: exit 0 with "energy gap I: initial -inf": the mean in
        # energy_gap overflowed; later an empty --out and overflow warnings on
        # stderr.  extended: the term gamma2 sqrt(2E/h) overflowed, with
        # RuntimeWarnings ahead of the exit-3 line "I = nan"
        for law, gamma2, message in (
            ("coulomb", "0", "energy gap I is not finite (I = -inf)"),
            ("extended", "0.1", "friction drag is not finite (max E = 1.000e+308)"),
        ):
            overrides = {"workbench.lambda": "1e308", "friction.gamma2": gamma2}
            (tmp_path / law).mkdir()
            scn = scenario8(tmp_path / law, overrides)
            out = tmp_path / law / "wb"
            assert cli.main(["workbench", scn, "--steps", "2", "--out", str(out)]) == 3
            assert capsys.readouterr().err == f"shlab: numerical abort: {message}\n"
            assert not out.exists()

    @pytest.mark.parametrize(
        "overrides,code,message",
        [
            # exit 3 with "|mean| = 8.513e-10 > 1e-10": the absolute solvability
            # tolerance rejected the roundoff of the demeaned stress right-hand side
            ({"force.fx": "1e7", "force.fy": "0"}, 0, ""),
            # exit 3 with "|mean| = 5.112e+183 > 1e-10"; the relative tolerance
            # passes it, and the certificate's overflow aborts without a warning
            (
                {"force.fx": "1e200", "force.fy": "0"},
                3,
                "numerical abort: certificate margin is not finite everywhere",
            ),
            # an invalid-value warning from the stress right-hand side ahead of
            # the exit-3 line "energy gap I is not finite (I = inf)": the RK4 of
            # the mean momentum overflowed under a drag of about 1e149
            (
                {"workbench.lambda": "1e300", "friction.gamma2": "0.1"},
                3,
                "numerical abort: mean momentum V is not finite (dt = 1.250e-01)",
            ),
            # found by the property test once the relative tolerance let this
            # right-hand side pass: at a fixed offset the first certificate
            # runs after the energy gap, whose g^2 overflowed with a warning
            (
                {"workbench.lambda": "1.0", "force.fx": "0.1", "force.fy": "1e200"},
                3,
                "numerical abort: energy gap I is not finite (I = inf)",
            ),
            # found by the widened property test: the same exit-3 line, after a
            # RuntimeWarning from the mean of a finite drag of about 1e307
            (
                {"friction.gamma2": "1e307"},
                3,
                "numerical abort: mean momentum V is not finite (dt = 1.250e-01)",
            ),
            # "overflow encountered in reduce": V is finite (about 1e270) on
            # two nodes, but the mean of drag (v + V + grad psi) in
            # solve_stress overflowed, and the Korn solve rejected it.  With
            # psi = (Ds) psi0 its sum stays finite, and the margin overflows
            (
                {
                    "friction.gamma2": "1e37",
                    "workbench.time_nodes": "2",
                    "workbench.osc_n": "1",
                    "workbench.delta": "0.5",
                },
                3,
                "numerical abort: certificate margin is not finite everywhere",
            ),
        ],
        ids=[
            "force-1e7", "force-1e200", "extended-lambda-1e300", "fixed-lambda-force-1e200",
            "extended-gamma2-1e307", "extended-gamma2-1e37-two-nodes",
        ],
    )
    def test_workbench_overflow(self, tmp_path, capsys, overrides, code, message):
        scn = scenario8(tmp_path, overrides)
        out = tmp_path / "wb"
        assert cli.main(["workbench", scn, "--steps", "2", "--out", str(out)]) == code
        assert capsys.readouterr().err == (f"shlab: {message}\n" if message else "")
        assert out.exists() == (code == 0)

    POISSON_NAN = "numerical abort: Poisson right-hand side is not finite"
    CAP = "numerical abort: energy offset search hit its cap without certifying"

    @pytest.mark.parametrize(
        "overrides,code,message",
        [
            # "invalid value encountered in multiply": design_height's tau =
            # cap min h0 / max|g| overflowed, and s(t) = tau (1 - exp(-t/tau))
            # formed inf * 0
            ({"initial.u0x": "1e-309*sin(2*pi*x2)"}, 0, ""),
            # "overflow encountered in reduce": the mean of h0 u0 in
            # spectral.helmholtz_decompose
            ({"initial.u0x": "1e307*sin(2*pi*x2)"}, 3, POISSON_NAN),
            # "invalid value encountered in multiply": oscillatory_pair's
            # amplitude 0.5 sqrt(gap min r) overflowed, and
            # _WavePotential.evaluate formed inf * 0
            ({"initial.h0": "1e104*(1 + 0.05*cos(2*pi*x1))"}, 0, ""),
            # "overflow encountered in square": |u0|^2 in
            # diagnostics.energy_jump, although h0 |u0|^2 is about 1e-13
            (
                {
                    "initial.h0": "1e-323*(1 + 0.05*cos(2*pi*x1))",
                    "initial.u0x": "1e155*sin(2*pi*x2)",
                },
                3,
                "numerical abort: initial energy jump is not finite "
                "(after = 1.101e-01, data = inf)",
            ),
            # "overflow encountered in reduce": the mass of each height slice
            # in the Poisson solve of dh/dt that the potential no longer
            # needs (a fixed lambda skips the offset search, whose bracket
            # a max(h0)^2 aborts first); now a h^2 overflows in E
            (
                {"initial.h0": "1e307*(1 + 0.05*cos(2*pi*x1))", "workbench.lambda": "1.0"},
                3,
                "numerical abort: kinetic energy budget E = offset - a h^2 - d(psi)/dt "
                "is not finite (offset = 1.000e+00, dt = 1.250e-01)",
            ),
            # "overflow encountered in divide" and, on two time nodes,
            # "overflow encountered in reduce": dh/dt over dt = 1.25e-301,
            # and the mean of its slice, in that Poisson solve.  Now the
            # rounding of the profile, divided by dt twice, makes E infinite
            # at the first probe, or fails the certificate at every probe
            (
                {"initial.h0": "1e100*(1 + 0.05*cos(2*pi*x1))", "physics.T": "1e-300"},
                3,
                "numerical abort: kinetic energy budget E = offset - a h^2 - d(psi)/dt "
                "is not finite (offset = 5.473e+199, dt = 1.250e-301)",
            ),
            (
                {
                    "initial.h0": "1.0000000000000001e+23*(1 + 0.05*cos(2*pi*x1))",
                    "physics.T": "1e-300",
                    "workbench.time_nodes": "2",
                    "workbench.osc_n": "1",
                    "workbench.delta": "0.5",
                },
                3,
                CAP,
            ),
            # "overflow encountered in divide": d(velocity)/dt at an end node
            # in workbench.transport_residual, which reads interior nodes only;
            # that run exited 0 with psi = 0, since s g fell below the rounding
            # of h0.  Now psi = (Ds) psi0, whose d(psi)/dt overflows as above
            (
                {"initial.h0": "1e30*(1 + 0.05*cos(2*pi*x1))", "physics.T": "1e-300"},
                3,
                "numerical abort: kinetic energy budget E = offset - a h^2 - d(psi)/dt "
                "is not finite (offset = 5.473e+59, dt = 1.250e-301)",
            ),
        ],
        ids=[
            "tiny-u0", "huge-u0", "huge-h0", "subnormal-h0-huge-u0", "huge-h0-fixed-lambda",
            "huge-dh-dt", "huge-dh-dt-mean", "huge-dv-dt-end-node",
        ],
    )
    def test_workbench_extreme_amplitude(self, tmp_path, capsys, overrides, code, message):
        # found by the property test with the h0 and u0 amplitudes drawn
        # log-uniformly: each RuntimeWarning escaped main
        scn = scenario8(tmp_path, overrides)
        out = tmp_path / "wb"
        assert cli.main(["workbench", scn, "--steps", "2", "--out", str(out)]) == code
        assert capsys.readouterr().err == (f"shlab: {message}\n" if message else "")
        assert out.exists() == (code == 0)

    # found by the experiment commands' property test with T, the h0 and u0
    # amplitudes and the force drawn log-uniformly
    @pytest.mark.parametrize(
        "command,overrides,message",
        [
            # "overflow encountered in multiply": qa qa in solver.rusanov_flux,
            # once the pressure gradient of h0 ~ 1e120 has driven q past 1e154
            # (with the T/100 step cap, dt ~ 1e-66), in every command's solver
            *(
                (
                    command,
                    {"physics.T": "1e-64", "initial.h0": "1e120*(1 + 0.1*cos(2*pi*x1))"},
                    "momentum became non-finite",
                )
                for command in (["simulate"], ["convergence"], ["wsu", "--eps", "0.01"])
            ),
            # "overflow encountered in multiply": q1 q2 in Workspace.fill, once
            # the force has driven both components of q past 1e154; the cross
            # flux q1 q2 / h is about 1e170
            *(
                (
                    command,
                    {
                        "physics.T": "1e-115",
                        "initial.h0": "1e147*(1 + 0.5*cos(2*pi*x1))",
                        "force.fx": "1e163",
                        "force.fy": "1e162",
                    },
                    "momentum became non-finite",
                )
                for command in (["simulate"], ["convergence"])
            ),
            # "overflow encountered in square": |u - U|^2 in
            # diagnostics.relative_energy, although h |u - U|^2 is about 1e85
            (
                ["wsu", "--eps", "0.01"],
                {
                    "physics.T": "0",
                    "initial.h0": "1e-319*(1 + 0.5*cos(2*pi*x1))",
                    "initial.u0x": "1e202*sin(2*pi*x2)",
                },
                "relative energy is not finite (E_rel = inf)",
            ),
        ],
        ids=[
            "flux-simulate", "flux-convergence", "flux-wsu", "cross-flux-simulate",
            "cross-flux-convergence", "relative-energy",
        ],
    )
    def test_experiment_overflow(self, tmp_path, capsys, command, overrides, message):
        scn = scenario8(tmp_path, overrides, base=EXPERIMENT8)
        out = tmp_path / "out"
        assert cli.main([command[0], scn, *command[1:], "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"shlab: numerical abort: {message}\n"
        assert not out.exists()

    INFINITE_ENERGY = "ledger kinetic is not finite at t = 0 (kinetic = inf)"

    @pytest.mark.parametrize(
        "overrides,code,message",
        [
            # overflow warnings from EnergyLedger.append and Workspace.fill, then
            # the step budget's exit-3 line
            ({"initial.h0": "1e200"}, 3, f"numerical abort: {INFINITE_ENERGY}"),
            ({"initial.h0": "@h0.shlab"}, 3, f"numerical abort: {INFINITE_ENERGY}"),
            # an overflow warning from Scenario.initial_state ahead of the exit-2 line
            (
                {"initial.h0": "1e200", "initial.u0x": "1e200"},
                2,
                "validation error: initial momentum h0 u0 is not finite",
            ),
            # an overflow warning from the force work in solver.step, then the
            # exit-3 line "the CFL step 1e-198 no longer advances the clock"
            *(
                (
                    {"force.fx": fx, "force.fy": "0"},
                    3,
                    "numerical abort: work of the force is not finite (work increment = inf)",
                )
                for fx in ("1e200", "1e307")
            ),
        ],
        ids=["height", "height-snapshot", "momentum", "force-work", "force-work-1e307"],
    )
    def test_overflowing_initial_state(self, tmp_path, capsys, overrides, code, message):
        h0 = np.ones((8, 8))
        h0[3, 5] = 1e200
        write_snapshot("scalar", h0, tmp_path / "h0.shlab")
        scn = scenario8(tmp_path, {"physics.T": "0.05", **overrides}, base=SIMULATE8)
        out = tmp_path / "out"
        assert cli.main(["simulate", scn, "--out", str(out)]) == code
        assert capsys.readouterr().err == f"shlab: {message}\n"
        assert not out.exists()


class TestCheckOwners:
    """Checks that the field wrappers ran on computed values, now each made
    by the code that owns the value."""

    def test_non_finite_snapshot_payload_exits_2(self, tmp_path, capsys):
        # read_snapshot checks the values it returns
        h0 = np.ones((8, 8))
        h0[2, 3] = np.nan
        write_snapshot("scalar", h0, tmp_path / "h0.shlab")
        scn = scenario8(tmp_path, {"physics.T": "0.05", "initial.h0": "@h0.shlab"}, base=SIMULATE8)
        assert cli.main(["simulate", scn, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "shlab: validation error: scalar field contains non-finite values\n"
        )

    def test_overflowing_initial_momentum_exits_2_in_the_workbench(self, tmp_path, capsys):
        # Scenario.initial_state checks h0 u0, for the solver and the workbench alike
        # at a fixed offset: the offset search's a max(h0)^2 would overflow first, with a warning
        overrides = {"initial.h0": "1e200", "initial.u0x": "1e200", "workbench.lambda": "1.0"}
        scn = scenario8(tmp_path, overrides)
        out = tmp_path / "wb"
        assert cli.main(["workbench", scn, "--steps", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "shlab: validation error: initial momentum h0 u0 is not finite\n"
        )
        assert not out.exists()

    # 16 heights of 1.5e307 sum past the float range: the mean of a 4x4 grid
    # overflows, and so does a cell average of the 4x-refined run
    OVERFLOWING_MASS = {
        "grid.nx": "4", "grid.ny": "4", "physics.T": "0.01", "physics.a": "1e-310",
        "initial.h0": "1.5e307", "initial.u0y": None, "output.times": "3",
    }
    LEDGER_MASS = "numerical abort: ledger mass is not finite at t = 0 (mass = inf)"

    def test_overflowing_ledger_exits_3(self, tmp_path, capsys):
        # EnergyLedger.append checks each row; simulate wrote mass = inf in
        # every row, with an overflow warning, and exited 0
        scn = scenario8(tmp_path, self.OVERFLOWING_MASS, base=SIMULATE8)
        out = tmp_path / "out"
        assert cli.main(["simulate", scn, "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"shlab: {self.LEDGER_MASS}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [["convergence"], ["wsu", "--eps", "0,0.01"]])
    def test_overflowing_refined_ledger_exits_3(self, tmp_path, capsys, command):
        # the refined run's ledger aborts before restrict_state sees a state;
        # restrict_state's own check is tested in tests/test_diagnostics.py
        scn = scenario8(tmp_path, self.OVERFLOWING_MASS, base=SIMULATE8)
        out = tmp_path / "out"
        assert cli.main([command[0], scn, *command[1:], "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"shlab: {self.LEDGER_MASS}\n"
        assert not out.exists()

    def test_overflowing_offset_bracket_exits_3(self, tmp_path, capsys):
        # find_energy_offset forms its first bracket a max(h0)^2 + delta under
        # errstate; an overflow warning preceded the exit-3 line "offset = inf"
        scn = scenario8(tmp_path, {"initial.h0": "1e200"})
        out = tmp_path / "wb"
        assert cli.main(["workbench", scn, "--steps", "1", "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "shlab: numerical abort: energy offset bracket a max(h0)^2 + delta is not finite "
            "(inf)\n"
        )
        assert not out.exists()


# the documented contract: each shlab error derives from one of these bases
EXIT_POLICY = {
    ValidationError: (2, "validation error"),
    NumericalAbort: (3, "numerical abort"),
    FormatError: (4, "io error"),
}
ERROR_CLASSES = sorted(
    (
        c for c in vars(errors).values()
        if isinstance(c, type) and issubclass(c, errors.ShlabError) and c is not errors.ShlabError
    ),
    key=lambda c: c.__name__,
)


class TestExitCodePolicy:
    """Every error class that escapes a command maps to its documented exit
    code and stderr label; a new class in shlab.errors joins this test."""

    def raise_from_a_command(self, monkeypatch, exc) -> int:
        def stub(args):
            raise exc

        monkeypatch.setattr(cli, "_cmd_diagnose", stub)
        return cli.main(["diagnose", "run"])

    @pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
    def test_error_class_exits_with_the_code_of_its_base(self, monkeypatch, capsys, cls):
        bases = [base for base in EXIT_POLICY if issubclass(cls, base)]
        assert len(bases) == 1, f"{cls.__name__} derives from {bases}"
        code, label = EXIT_POLICY[bases[0]]
        assert self.raise_from_a_command(monkeypatch, cls("injected")) == code
        assert capsys.readouterr().err == f"shlab: {label}: injected\n"

    def test_os_error_exits_4(self, monkeypatch, capsys):
        assert self.raise_from_a_command(monkeypatch, OSError("disk full")) == 4
        assert capsys.readouterr().err == "shlab: io error: disk full\n"
