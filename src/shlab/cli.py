"""Command-line entry points: simulate, workbench, diagnose, wsu, convergence.

Exit codes: 0 ok, 2 validation/parse, 3 numerical abort, 4 IO.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import re
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import energy_jump, restrict_state, weak_strong_experiment
from .errors import FormatError, InvalidValueError, NumericalAbort, ShlabError, ValidationError
from .fields import ScalarField, SymTracelessField, TorusGrid, VectorField
from .scenario import load_config
from .snapshots import write_snapshot
from .solver import EnergyLedger, simulate, stream  # noqa: F401 (bench/ wraps simulate)
from .workbench import (  # noqa: F401 (bench/ wraps energy_gap)
    energy_gap,
    find_energy_offset,
    improvement_step,
    subsolution_certificate,
    transport_residual,
)


class _RunDir:
    """The --out directory of one command, made when the object is.

    Every file goes through it, so it knows what the run wrote.  A table is
    one header line of comma-separated column names, then one line per row
    with every number as .17g.  finish() lists the written files in
    run_manifest.json and copies the scenario file; discard() deletes them,
    and the directory too if this run made it.
    """

    def __init__(self, out):
        self.path = Path(out)
        self.created = not self.path.exists()
        self.path.mkdir(parents=True, exist_ok=True)
        self.written: list[Path] = []

    def _new(self, name: str) -> Path:
        p = self.path / name
        self.written.append(p)  # before the write, so discard() removes a partial file
        return p

    def table(self, name: str, columns, rows) -> None:
        with open(self._new(name), "w") as fh:
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(f"{x:.17g}" for x in row) + "\n")

    def text(self, name: str, text: str) -> None:
        with open(self._new(name), "w") as fh:
            fh.write(text)

    def snapshot(self, name: str, fld) -> None:
        write_snapshot(fld, self._new(name))

    def discard(self) -> None:
        for p in self.written:
            p.unlink(missing_ok=True)
        if self.created:
            with contextlib.suppress(OSError):
                self.path.rmdir()

    def finish(self, scenario: str, seed: int, grid, t0: float) -> None:
        """Write run_manifest.json, timing the run from t0, and copy the scenario file."""
        scenario_path = Path(scenario)
        manifest = {
            "scenario_sha256": hashlib.sha256(scenario_path.read_bytes()).hexdigest(),
            "scenario_file": scenario_path.name,
            "seed": seed,
            "grid": {"nx": grid.nx, "ny": grid.ny},
            "shlab_version": __version__,
            "outputs": sorted(p.name for p in self.written),
            "timings_s": {"total": time.perf_counter() - t0},
        }
        with open(self.path / "run_manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
        shutil.copyfile(scenario_path, self.path / scenario_path.name)


_SNAPSHOT_NAME = re.compile(r"snapshot_(\d{4,})_[hqB]\.shlab")


def _remove_stale_snapshots(out: Path, n_outputs: int) -> None:
    """Delete the snapshots that an earlier run with more outputs left in
    out: the files named exactly as this command names the snapshot of an
    output index >= n_outputs.  Every other file stays."""
    for p in out.glob("snapshot_*.shlab"):
        m = _SNAPSHOT_NAME.fullmatch(p.name)
        if m and f"{int(m[1]):04d}" == m[1] and int(m[1]) >= n_outputs and p.is_file():
            p.unlink()


def _cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    scn = load_config(args.scenario).to_scenario()
    run = _RunDir(args.out)
    ledger = EnergyLedger()
    try:
        # each output is written as it lands, so only the current state is held
        for j, (_, state, selection, n_steps) in enumerate(stream(scn, ledger)):
            for name, fld in (("h", state.h), ("q", state.q), ("B", selection)):
                run.snapshot(f"snapshot_{j:04d}_{name}.shlab", fld)
    except BaseException:
        run.discard()  # a failed run leaves no partial output
        raise
    run.table("ledger.csv", ledger.columns, ledger.rows)
    run.text(
        "summary.txt",
        "shlab simulate\n"
        f"grid: {scn.grid.nx}x{scn.grid.ny}  T = {scn.T}  steps = {n_steps}\n"
        f"final mass: {ledger.rows[-1][1]:.12g}\n"
        f"final total energy: {ledger.rows[-1][4]:.12g}\n"
        f"worst energy-balance residual: {np.max(ledger.column('e2_residual')):.6g}\n",
    )
    run.finish(args.scenario, scn.seed, scn.grid, t0)
    _remove_stale_snapshots(run.path, j + 1)
    return 0


def _cmd_workbench(args) -> int:
    t0 = time.perf_counter()
    if args.steps < 0:
        raise ValidationError(f"--steps must be nonnegative, got {args.steps}")
    cfg = load_config(args.scenario)
    if args.seed is not None:
        cfg.values["seed"] = args.seed
    problem = cfg.to_workbench_problem()
    fixed = cfg.values["workbench.lambda"]
    if fixed is not None and not math.isfinite(fixed):
        raise InvalidValueError(f"workbench.lambda must be finite, got {fixed}")
    offset = fixed if fixed is not None else find_energy_offset(problem)
    sub = problem.build(offset)

    gap_rows = [(0, sub.gap, sub.delta, 1)]
    for k in range(args.steps):
        sub, step_report = improvement_step(sub, seed=problem.seed + k)
        gap_rows.append((k + 1, sub.gap, sub.delta, int(step_report.accepted)))

    cert = subsolution_certificate(sub)
    run = _RunDir(args.out)
    per_t = cert.margin.min(axis=(1, 2))
    run.table("certificate.csv", ("t", "min_margin"), zip(problem.times, per_t))
    run.table("gap.csv", ("step", "I", "delta", "accepted"), gap_rows)
    for label, k in (("t0", 0), ("tmid", problem.times.size // 2), ("tend", problem.num_steps)):
        for name, kind, stack in (
            ("v", VectorField, sub.velocity),
            ("E", ScalarField, sub.kinetic_energy),
            ("M", SymTracelessField, sub.stress),
        ):
            run.snapshot(f"{name}_{label}.shlab", kind(problem.grid, stack[k]))
    run.text(
        "summary.txt",
        "shlab workbench\n"
        f"energy offset: {offset:.9g} ({'fixed' if fixed is not None else 'searched'})\n"
        f"certificate: {'PASS' if cert.passed else 'FAIL'}  min margin = {cert.min_margin:.6g}\n"
        f"energy gap I: initial {gap_rows[0][1]:.9g} -> final {gap_rows[-1][1]:.9g}\n"
        f"accepted steps: {sum(r[3] for r in gap_rows[1:])}/{args.steps}\n"
        f"initial energy jump: {energy_jump(sub):.9g}\n"
        f"transport residual: {transport_residual(sub):.6g}\n",
    )
    run.finish(args.scenario, problem.seed, problem.grid, t0)
    return 0


def _read_ledger(path: Path) -> dict[str, np.ndarray]:
    """The columns of a ledger.csv by header name.  The file must be UTF-8
    comma-separated numbers under one header line, every row as long as the
    header; blank lines are skipped."""
    try:
        lines = [line for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
        names = [name.strip() for name in lines[0].split(",")] if lines else []
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    except ValueError as exc:  # includes UnicodeDecodeError
        raise FormatError(f"{path} is not a readable CSV ledger: {exc}") from None
    if any(len(row) != len(names) for row in rows):
        raise FormatError(f"{path} is not a readable CSV ledger: rows and header differ in length")
    if not rows:
        raise FormatError(f"{path} has no rows")
    return dict(zip(names, np.array(rows).T))


def _cmd_diagnose(args) -> int:
    run_dir = Path(args.run_dir)
    ledger_path = run_dir / "ledger.csv"
    if not ledger_path.exists():
        raise FormatError(f"no ledger.csv in {run_dir}")
    columns = _read_ledger(ledger_path)
    missing = [c for c in ("mass", "e2_residual", "dissipation_cum") if c not in columns]
    if missing:
        raise FormatError(f"{ledger_path} lacks column(s): {', '.join(missing)}")
    mass = columns["mass"]
    if not np.all(np.isfinite(mass)) or mass[0] == 0.0:
        raise FormatError(f"{ledger_path}: column mass must be finite with a nonzero first row")
    residual = float(np.max(columns["e2_residual"]))
    drift = float(np.max(np.abs(mass - mass[0])) / abs(mass[0]))
    diss = columns["dissipation_cum"]
    monotone = bool(np.all(np.diff(diss) >= -1e-14))
    text = (
        "shlab diagnose\n"
        f"rows: {mass.size}\n"
        f"relative mass drift: {drift:.6g}\n"
        f"worst energy-balance residual: {residual:.6g}\n"
        f"dissipation nondecreasing: {monotone}\n"
    )
    sys.stdout.write(text)
    _RunDir(run_dir).text("diagnose.txt", text)
    return 0


def _parse_eps(text: str) -> list[float]:
    """The --eps entries as floats.  Each names its output file by f"{eps:g}",
    so two entries with one name, or with one value (0 and -0), are rejected
    before anything runs."""
    if not text:
        return [0.0]
    eps_list, seen = [], {}
    for entry in text.split(","):
        try:
            eps = float(entry)
        except ValueError:
            raise ValidationError(f"--eps entry {entry!r} is not a number") from None
        name = f"wsu_eps{eps:g}.csv"
        if name in seen:
            raise ValidationError(f"--eps entries {seen[name]!r} and {entry!r} both name {name}")
        if eps in eps_list:
            raise ValidationError(f"--eps entry {entry!r} equals an earlier entry")
        seen[name] = entry
        eps_list.append(eps)
    return eps_list


def _cmd_wsu(args) -> int:
    t0 = time.perf_counter()
    cfg = load_config(args.scenario)
    coarse = TorusGrid(cfg.values["grid.nx"], cfg.values["grid.ny"])
    fine = TorusGrid(args.refine * coarse.nx, args.refine * coarse.ny)
    eps_list = _parse_eps(args.eps)
    reports = weak_strong_experiment(cfg.to_scenario, eps_list, coarse, fine)
    run = _RunDir(args.out)
    summary = "shlab wsu\n"
    for eps, report in zip(eps_list, reports):
        rows = ((t, v, report.rate) for t, v in zip(report.times, report.values))
        run.table(f"wsu_eps{eps:g}.csv", ("t", "E_rel", "fitted_c"), rows)
        e0, eT = report.values[0], report.values[-1]
        summary += (
            f"eps = {eps:g}: E(0) = {e0:.6g}, E(T) = {eT:.6g}, fitted c = {report.rate:.6g}"
            + ("  [truncated at shock]" if report.truncated else "")
            + "\n"
        )
    run.text("summary.txt", summary)
    run.finish(args.scenario, cfg.values["seed"], coarse, t0)
    return 0


def _cmd_convergence(args) -> int:
    t0 = time.perf_counter()
    cfg = load_config(args.scenario)
    base = TorusGrid(cfg.values["grid.nx"], cfg.values["grid.ny"])
    grids = [base, TorusGrid(2 * base.nx, 2 * base.ny)]
    finals = []
    for g in (TorusGrid(4 * base.nx, 4 * base.ny), *grids):
        for last in stream(cfg.to_scenario(g), EnergyLedger()):
            pass  # only the last output of each run is kept
        finals.append(last.state)
    ref, *runs = finals
    errors = [
        float(np.mean(np.abs(r.h.values - restrict_state(ref, r.grid).h.values))) for r in runs
    ]
    if min(errors) == 0.0:
        raise NumericalAbort(f"observed L1 order is undefined: an L1 error is zero {errors}")
    order = float(np.log2(errors[0] / errors[1]))
    run = _RunDir(args.out)
    run.table("convergence.csv", ("nx", "l1_error"), zip((g.nx for g in grids), errors))
    run.text("summary.txt", f"shlab convergence\nobserved L1 order: {order:.4g}\n")
    run.finish(args.scenario, cfg.values["seed"], base, t0)
    sys.stdout.write(f"observed L1 order: {order:.4g}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="shlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the finite-volume solver")
    p.add_argument("scenario")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("workbench", help="build and improve a subsolution")
    p.add_argument("scenario")
    p.add_argument("--steps", type=int, default=3)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=_cmd_workbench)

    p = sub.add_parser("diagnose", help="re-check ledger invariants of a run directory")
    p.add_argument("run_dir")
    p.set_defaults(fn=_cmd_diagnose)

    p = sub.add_parser("wsu", help="weak-strong uniqueness experiment")
    p.add_argument("scenario")
    p.add_argument("--eps", default="0.01")
    p.add_argument("--refine", type=int, default=4)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_wsu)

    p = sub.add_parser("convergence", help="grid-refinement study against a 4x reference")
    p.add_argument("scenario")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_convergence)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ShlabError as exc:  # errors.py maps each class to its code and label
        sys.stderr.write(f"shlab: {exc.label}: {exc}\n")
        return exc.exit_code
    except OSError as exc:  # a file that cannot be read or written counts as a FormatError
        sys.stderr.write(f"shlab: {FormatError.label}: {exc}\n")
        return FormatError.exit_code


if __name__ == "__main__":
    sys.exit(main())
