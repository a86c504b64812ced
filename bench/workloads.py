"""The four pinned benchmark workloads: seeded inputs, the timed job, and the
correctness gate of each.

Every workload runs in a fresh interpreter (see ``job.py``).  ``setup`` writes
the generated inputs and anything the job needs beforehand; ``run`` is the
timed job; ``check`` reads the job's outputs afterwards and returns the gate
checks.  Inputs depend only on the workload seed: the default seed reproduces
the pinned physics exactly, other seeds vary phases and amplitudes by at most
15%, which keeps the step count and certificate feasibility about the same.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0

# Relative mass drift and energy-balance roundoff allowed at every seed.
MASS_DRIFT_TOL = 1e-12
E2_ROUNDOFF = 1e-12
MASS_MODE_TOL = 1e-12

F64 = 8  # bytes per float64 sample


@dataclass(frozen=True)
class Size:
    """Grid and output sizes of one workload (full or smoke)."""

    nx: int
    T: float = 0.2
    outputs: int = 101  # stored output times of the solver workloads
    time_nodes: int = 64  # workbench time steps
    steps: int = 5  # workbench improvement steps


FULL = {
    "simulate-256": Size(nx=256),
    "workbench-32": Size(nx=32, T=1.0),
    "analysis-128": Size(nx=128, outputs=41),
    "wsu-32x128": Size(nx=32, outputs=21),
}
SMOKE = {
    "simulate-256": Size(nx=16, T=0.05, outputs=6),
    "workbench-32": Size(nx=8, T=1.0, time_nodes=8, steps=2),
    "analysis-128": Size(nx=16, T=0.05, outputs=6),
    "wsu-32x128": Size(nx=8, T=0.05, outputs=6),
}
WSU_EPS = "1e-3,1e-2,1e-1"
WSU_REFINE = 4

WHY = {
    "simulate-256": (
        "Solver and friction resolvent do about 90% of the work at a size where each step's "
        "temporaries (about 12.6 MiB) exceed the L2 cache; snapshot writes do the rest."
    ),
    "workbench-32": (
        "Spectral FFTs and the workbench orchestration do all of the work and the solver none; "
        "the data is not flat, so the stress right-hand side is nonzero and every Korn solve runs."
    ),
    "analysis-128": (
        "The weak residual and the snapshot reads (the read side of the simulate-256 format) do "
        "the work; the stored run is made in set-up, so work moved there shows in setup_s."
    ),
    "wsu-32x128": (
        "The only workload that runs the relative-energy code; six small solver runs without I/O, "
        "three of them the eps-independent 128^2 reference recomputed once per eps."
    ),
}


# ---------------------------------------------------------------------------
# seeded inputs


def _jitter(rng: random.Random | None, nominal: float) -> float:
    return nominal if rng is None else round(nominal * rng.uniform(0.85, 1.15), 6)


def _phase(rng: random.Random | None) -> float:
    return 0.0 if rng is None else round(rng.uniform(0.0, 2.0 * math.pi), 6)


def _arg(var: str, phase: float) -> str:
    return f"2*pi*{var}" + (f" + {phase!r}" if phase else "")


def _rng(seed: int) -> random.Random | None:
    return None if seed == DEFAULT_SEED else random.Random(seed)


def flow_physics(seed: int) -> dict[str, str]:
    """Coulomb friction field, static force and smooth initial data.

    Default seed: gamma = 0.2 + 0.1 cos 2pi x1, f = (0.1, 0),
    h0 = 1 + 0.2 sin 2pi x1 cos 2pi x2, u0 = (0.3 cos 2pi x2, 0.1 sin 2pi x1).
    """
    rng = _rng(seed)
    return {
        "friction.gamma": f"0.2 + {_jitter(rng, 0.1)!r}*cos({_arg('x1', _phase(rng))})",
        "force.fx": "0.1",
        "force.fy": "0",
        "initial.h0": f"1 + {_jitter(rng, 0.2)!r}*sin({_arg('x1', _phase(rng))})"
        f"*cos({_arg('x2', _phase(rng))})",
        "initial.u0x": f"{_jitter(rng, 0.3)!r}*cos({_arg('x2', _phase(rng))})",
        "initial.u0y": f"{_jitter(rng, 0.1)!r}*sin({_arg('x1', _phase(rng))})",
    }


def workbench_physics(seed: int) -> dict[str, str]:
    """Default seed: h0 = 1 + 0.05 cos 2pi x1, u0 = (0.1 sin 2pi x2, 0),
    gamma = 0.2, delta = 0.05."""
    rng = _rng(seed)
    return {
        "friction.gamma": "0.2",
        "initial.h0": f"1 + {_jitter(rng, 0.05)!r}*cos({_arg('x1', _phase(rng))})",
        "initial.u0x": f"{_jitter(rng, 0.1)!r}*sin({_arg('x2', _phase(rng))})",
        "initial.u0y": "0",
        "workbench.delta": "0.05",
    }


def scenario_text(workload: str, seed: int, size: Size) -> str:
    """Scenario file of a workload, headed by comments that say why it was chosen."""
    lines = [f"# benchmark workload {workload}, seed {seed}"]
    lines += [f"# {WHY[workload]}"]
    keys = {"grid.nx": str(size.nx), "grid.ny": str(size.nx), "physics.T": repr(size.T)}
    if workload == "workbench-32":
        keys.update(workbench_physics(seed))
        keys["workbench.time_nodes"] = str(size.time_nodes)
    else:
        keys.update(flow_physics(seed))
        keys["output.times"] = str(size.outputs)
    keys["seed"] = str(seed)
    lines += [f"{k} = {v}" for k, v in keys.items()]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# jobs


def setup(workload: str, seed: int, workdir: Path, size: Size) -> dict:
    """Write the generated inputs; for analysis-128 also produce the stored run."""
    from shlab import cli

    workdir.mkdir(parents=True, exist_ok=True)
    scn = workdir / f"{workload}.scn"
    scn.write_text(scenario_text(workload, seed, size))
    ctx = {"workload": workload, "seed": seed, "size": size, "scn": scn, "out": workdir / "out"}
    if workload == "analysis-128":
        stored = workdir / "stored"
        rc = cli.main(["simulate", str(scn), "--out", str(stored)])
        if rc != 0:
            raise RuntimeError(f"producing the stored run failed with exit code {rc}")
        ctx["stored"] = stored
    return ctx


def run(ctx: dict) -> int:
    """The timed job.  Returns the CLI exit code (0 on success)."""
    from shlab import cli

    w, size, scn, out = ctx["workload"], ctx["size"], str(ctx["scn"]), str(ctx["out"])
    if w == "simulate-256":
        return cli.main(["simulate", scn, "--out", out])
    if w == "workbench-32":
        return cli.main(
            ["workbench", scn, "--steps", str(size.steps), "--out", out, "--seed", str(ctx["seed"])]
        )
    if w == "wsu-32x128":
        return cli.main(
            ["wsu", scn, "--eps", WSU_EPS, "--refine", str(WSU_REFINE), "--out", out]
        )
    ctx["weak"] = analyse(ctx["stored"])
    return cli.main(["diagnose", str(ctx["stored"])])


def analyse(run_dir: Path):
    """Read a stored simulate run back and compute its weak residuals.

    The module attributes are looked up at call time so that the traced run
    sees these calls.
    """
    from shlab import diagnostics, scenario, snapshots, solver

    scn_file = next(run_dir.glob("*.scn"))
    scn = scenario.load_config(scn_file).to_scenario()
    ledger = solver.EnergyLedger(rows=_read_ledger(run_dir / "ledger.csv"))
    states, selections = [], []
    for j in range(len(ledger.rows)):
        h = snapshots.read_snapshot(run_dir / f"snapshot_{j:04d}_h.shlab")
        q = snapshots.read_snapshot(run_dir / f"snapshot_{j:04d}_q.shlab")
        selections.append(snapshots.read_snapshot(run_dir / f"snapshot_{j:04d}_B.shlab"))
        states.append(solver.State(h, q))
    traj = solver.Trajectory(scn, ledger.column("t"), states, selections, ledger)
    report = diagnostics.weak_residual(traj, basis_size=4)
    return {k: float(v) for k, v in vars(report).items()}


def _read_ledger(path: Path) -> list[tuple]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return [tuple(float(x) for x in row) for row in rows[1:]]


# ---------------------------------------------------------------------------
# correctness gate


def _summary(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines()[1:]:
        key, sep, value = line.partition(":")
        if sep:
            out[key.strip()] = value.strip()
    return out


class Gate:
    """Collects named checks; reference checks apply only where a reference
    value exists (the default seed at full size)."""

    def __init__(self, refs: dict | None):
        self.refs = refs
        self.checks: list[dict] = []

    def ref(self, name: str, value: float) -> None:
        if self.refs is None:
            self.checks.append({"name": name, "value": value, "status": "skipped"})
            return
        ref = self.refs[name]
        expected, tol = ref["value"], ref["rel_tol"]
        ok = abs(value - expected) <= tol * abs(expected)
        self.checks.append(
            {"name": name, "value": value, "expected": expected, "rel_tol": tol,
             "status": "ok" if ok else "FAIL"}
        )

    def invariant(self, name: str, value, ok: bool, rule: str) -> None:
        self.checks.append(
            {"name": name, "value": value, "rule": rule, "status": "ok" if ok else "FAIL"}
        )


def _ledger_invariants(gate: Gate, rows: list[tuple]) -> None:
    mass0 = rows[0][1]
    drift = max(abs(r[1] - mass0) for r in rows) / abs(mass0)
    gate.invariant("mass_drift", drift, drift <= MASS_DRIFT_TOL, f"<= {MASS_DRIFT_TOL:g}")
    worst = max(r[7] for r in rows)
    tol = E2_ROUNDOFF * max(1.0, abs(rows[0][4]))
    gate.invariant("e2_residual_max", worst, worst <= tol, f"<= {tol:g}")


def check(ctx: dict, refs: dict | None) -> list[dict]:
    """Gate checks of a finished job: reference values and invariants."""
    w, out = ctx["workload"], ctx["out"]
    gate = Gate(refs)
    if w == "simulate-256":
        s = _summary(out / "summary.txt")
        rows = _read_ledger(out / "ledger.csv")
        gate.ref("steps", float(s["grid"].split("steps =")[1]))
        gate.ref("final_mass", rows[-1][1])
        gate.ref("final_total_energy", rows[-1][4])
        gate.invariant(
            "summary_matches_ledger", rows[-1][4],
            abs(rows[-1][4] - float(s["final total energy"])) <= 1e-11 * abs(rows[-1][4]),
            "summary final energy equals the last ledger row",
        )
        _ledger_invariants(gate, rows)
    elif w == "workbench-32":
        s = _summary(out / "summary.txt")
        with open(out / "gap.csv", newline="") as fh:
            gap = [float(r["I"]) for r in csv.DictReader(fh)]
        gate.ref("offset", float(s["energy offset"].split()[0]))
        for k, value in enumerate(gap):
            gate.ref(f"gap_I_{k}", value)
        with open(out / "certificate.csv", newline="") as fh:
            margin = min(float(r["min_margin"]) for r in csv.DictReader(fh))
        gate.ref("min_margin", margin)
        accepted = s["accepted steps"]
        gate.ref("accepted_steps", float(accepted.split("/")[0]))
        gate.invariant("certificate", s["certificate"].split()[0],
                       s["certificate"].startswith("PASS") and margin > 0.0, "PASS, min margin > 0")
        gate.invariant("gap_nondecreasing", min(b - a for a, b in zip(gap, gap[1:])),
                       all(b >= a for a, b in zip(gap, gap[1:])), "I never decreases")
        gate.invariant("gap_rows", len(gap), len(gap) == ctx["size"].steps + 1, "steps + 1 rows")
    elif w == "analysis-128":
        weak = ctx["weak"]
        gate.ref("continuity", weak["continuity"])
        gate.ref("momentum", weak["momentum"])
        gate.invariant("mass_mode", weak["mass_mode"], weak["mass_mode"] <= MASS_MODE_TOL,
                       f"<= {MASS_MODE_TOL:g}")
        diag = _summary(ctx["stored"] / "diagnose.txt")
        drift = float(diag["relative mass drift"])
        gate.invariant("diagnose_mass_drift", drift, drift <= MASS_DRIFT_TOL,
                       f"<= {MASS_DRIFT_TOL:g}")
        gate.invariant("diagnose_dissipation", diag["dissipation nondecreasing"],
                       diag["dissipation nondecreasing"] == "True", "True")
        _ledger_invariants(gate, _read_ledger(ctx["stored"] / "ledger.csv"))
    else:
        e0s = []
        for eps in WSU_EPS.split(","):
            with open(out / f"wsu_eps{float(eps):g}.csv", newline="") as fh:
                rows = [(float(r["E_rel"]), float(r["fitted_c"])) for r in csv.DictReader(fh)]
            gate.ref(f"E0_eps{eps}", rows[0][0])
            gate.ref(f"ET_eps{eps}", rows[-1][0])
            gate.ref(f"c_eps{eps}", rows[0][1])
            values = [r[0] for r in rows]
            gate.invariant(f"E_rel_eps{eps}", min(values),
                           all(math.isfinite(v) and v >= 0.0 for v in values),
                           "finite and >= 0")
            e0s.append(rows[0][0])
        gate.invariant("E0_increases_with_eps", e0s, e0s == sorted(e0s), "E(0) grows with eps")
    return gate.checks


# ---------------------------------------------------------------------------
# computed bytes


def computed_bytes(workload: str, size: Size) -> dict[str, int]:
    """Working-set sizes computed from the array shapes (not measured)."""
    field = size.nx * size.nx * F64
    if workload == "simulate-256":
        return {
            "field": field,
            "state_h_q": 3 * field,
            "step_temporaries_25_fields": 25 * field,
            "snapshots_written": size.outputs * 5 * field,
        }
    if workload == "workbench-32":
        nodes = size.time_nodes + 1
        return {
            "field": field,
            "scalar_stack": nodes * field,
            "vector_stack": 2 * nodes * field,
            # height, potential, energy; velocity, flux, stress (two components each)
            "subsolution_stacks": (3 + 3 * 2) * nodes * field,
        }
    if workload == "analysis-128":
        return {
            "field": field,
            "snapshots_read": size.outputs * 5 * field,
            "h_q_B_stacks": size.outputs * 5 * field,
        }
    fine = (WSU_REFINE * size.nx) ** 2 * F64
    return {
        "coarse_field": field,
        "fine_field": fine,
        "fine_trajectory": size.outputs * 5 * fine,
        "coarse_trajectory": size.outputs * 5 * field,
    }
