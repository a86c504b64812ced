"""Spans and counts around the calls into shlab's modules, recorded from the
benchmark's own files.

``Tracer.install`` replaces the module and class attributes that shlab resolves
at call time (``shlab.solver.rusanov_flux``, ``numpy.fft.fft2``,
``EnergyLedger.append``, ...) with wrappers that record one span per call: its
name, start, end, parent span and, for a few calls, an outcome such as whether
a certificate passed.  Spans stay in memory until the job ends.
``layer_metrics`` turns them into the per-layer metrics.

``PeakTracker`` is the separate ``tracemalloc`` pass: it records the peak of
memory allocated inside a few calls, above what was allocated at their entry.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time
import tracemalloc


def _cells(args, kwargs, result):
    return args[0].grid.nx * args[0].grid.ny


def _passed(args, kwargs, result):
    return bool(result.passed)


def _accepted(args, kwargs, result):
    return bool(result[1].accepted)


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[-1])


# (owner, attribute, span name, outcome).  An owner "module:Class" names a class.
# Functions that shlab imports by name are wrapped in every namespace it calls
# them from.
TRACE_POINTS = [
    ("shlab.cli", "main", "cli.main", None),
    ("shlab.cli", "load_config", "scenario.load_config", None),
    ("shlab.scenario", "load_config", "scenario.load_config", None),
    ("shlab.cli", "simulate", "solver.simulate", None),
    ("shlab.solver", "step", "solver.step", _cells),
    ("shlab.solver", "rusanov_flux", "solver.rusanov_flux", None),
    ("shlab.solver", "cfl_dt", "solver.cfl_dt", None),
    ("shlab.solver:EnergyLedger", "append", "solver.ledger_append", None),
    ("shlab.solver", "friction_shrink", "friction.friction_shrink", None),
    ("shlab.fields:ScalarField", "__post_init__", "fields.validate", None),
    ("shlab.fields:VectorField", "__post_init__", "fields.validate", None),
    ("shlab.fields:SymTracelessField", "__post_init__", "fields.validate", None),
    ("shlab.fields:SpaceTimeField", "__post_init__", "fields.validate", None),
    ("shlab.solver:State", "__post_init__", "fields.validate", None),
    ("shlab.cli", "write_snapshot", "snapshots.write", _file_bytes),
    ("shlab.snapshots", "read_snapshot", "snapshots.read", _file_bytes),
    ("numpy.fft", "fft2", "spectral.fft", None),
    ("numpy.fft", "ifft2", "spectral.fft", None),
    ("shlab.spectral", "grad_values", "spectral.grad_values", None),
    ("shlab.spectral", "poisson_solve_values", "spectral.poisson_solve_values", None),
    ("shlab.spectral", "korn_solve_values", "spectral.korn_solve_values", None),
    ("shlab.cli", "find_energy_offset", "workbench.find_energy_offset", None),
    ("shlab.workbench:WorkbenchProblem", "build", "workbench.build", None),
    ("shlab.workbench", "solve_stress", "workbench.solve_stress", None),
    ("shlab.workbench", "solve_mean_momentum", "workbench.solve_mean_momentum", None),
    ("shlab.cli", "subsolution_certificate", "workbench.subsolution_certificate", _passed),
    ("shlab.workbench", "subsolution_certificate", "workbench.subsolution_certificate", _passed),
    ("shlab.cli", "energy_gap", "workbench.energy_gap", None),
    ("shlab.workbench", "energy_gap", "workbench.energy_gap", None),
    ("shlab.cli", "improvement_step", "workbench.improvement_step", _accepted),
    ("shlab.workbench", "oscillatory_pair", "workbench.oscillatory_pair", None),
    ("shlab.workbench:_WavePotential", "evaluate", "workbench.wave_evaluate", None),
    ("shlab.diagnostics", "weak_residual", "diagnostics.weak_residual", None),
    ("shlab.cli", "weak_strong_experiment", "diagnostics.weak_strong_experiment", None),
    ("shlab.diagnostics", "simulate", "diagnostics.simulate", None),
    ("shlab.diagnostics", "restrict_state", "diagnostics.restrict_state", None),
    ("shlab.diagnostics", "relative_energy", "diagnostics.relative_energy", None),
]

# Calls whose allocation peak the tracemalloc pass records.
PEAK_POINTS = [
    ("shlab.solver", "step", "solver.step"),
    ("shlab.workbench:WorkbenchProblem", "build", "workbench.build"),
    ("shlab.diagnostics", "weak_residual", "diagnostics.weak_residual"),
]


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _patch(points, make):
    for owner_path, attr, name, *rest in points:
        owner = _owner(owner_path)
        setattr(owner, attr, make(getattr(owner, attr), name, *rest))


class Tracer:
    """In-memory span recorder.  Span i has name, start, end, parent index
    (-1 for a root) and outcome."""

    def __init__(self):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.outcome: list = []
        self._open = [-1]

    def install(self, points=TRACE_POINTS) -> None:
        _patch(points, self.wrap)

    def wrap(self, fn, name: str, outcome=None):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(name)
            self.parent.append(self._open[-1])
            self.end.append(0.0)
            self.outcome.append(None)
            self._open.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._open.pop()
            if outcome is not None:
                self.outcome[idx] = outcome(args, kwargs, result)
            return result

        return traced

    def spans(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "outcome": o}
            for n, s, e, p, o in zip(self.name, self.start, self.end, self.parent, self.outcome)
        ]


class PeakTracker:
    """Largest tracemalloc peak inside each tracked call, in bytes above the
    memory traced at the call's entry.  The tracked calls do not nest."""

    def __init__(self):
        self.peak: dict[str, int] = {}

    def install(self, points=PEAK_POINTS) -> None:
        _patch(points, self.wrap)
        tracemalloc.start()

    def stop(self) -> None:
        tracemalloc.stop()

    def wrap(self, fn, name: str):
        self.peak[name] = 0

        @functools.wraps(fn)
        def tracked(*args, **kwargs):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                self.peak[name] = max(self.peak[name], tracemalloc.get_traced_memory()[1] - base)

        return tracked


MIB = 1024.0 * 1024.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile_ms(durations: list[float], q: int) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return 1e3 * durations[0]
    return 1e3 * statistics.quantiles(durations, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts, total and self times and ratios from the spans."""
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    child = [0.0] * len(dur)
    for i, p in enumerate(tracer.parent):
        if p >= 0:
            child[p] += dur[i]
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    for i, name in enumerate(tracer.name):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur[i]
        own[name] = own.get(name, 0.0) + dur[i] - child[i]

    def n(name):
        return calls.get(name, 0)

    def s(name):
        return total.get(name, 0.0)

    def self_s(name):
        return own.get(name, 0.0)

    def spans_of(name):
        return [i for i, x in enumerate(tracer.name) if x == name]

    steps = spans_of("solver.step")
    cell_steps = sum(tracer.outcome[i] for i in steps)
    offsets = set(spans_of("workbench.find_energy_offset"))
    probes = [i for i in spans_of("workbench.build") if tracer.parent[i] in offsets]
    passes = [
        i for i in spans_of("workbench.subsolution_certificate")
        if tracer.parent[i] in offsets and tracer.outcome[i]
    ]
    improvements = spans_of("workbench.improvement_step")
    written = sum(tracer.outcome[i] for i in spans_of("snapshots.write"))
    read = sum(tracer.outcome[i] for i in spans_of("snapshots.read"))
    return {
        "solver.step.calls": n("solver.step"),
        "solver.step.self_s": self_s("solver.step"),
        "solver.step.p50_ms": _percentile_ms([dur[i] for i in steps], 50),
        "solver.step.p95_ms": _percentile_ms([dur[i] for i in steps], 95),
        "solver.rusanov_flux.calls": n("solver.rusanov_flux"),
        "solver.rusanov_flux.s": s("solver.rusanov_flux"),
        "solver.cfl_dt.s": s("solver.cfl_dt"),
        "solver.ledger_append.calls": n("solver.ledger_append"),
        "solver.ledger_append.s": s("solver.ledger_append"),
        "solver.cell_steps_per_s": _ratio(cell_steps, s("solver.step")),
        "friction.friction_shrink.calls": n("friction.friction_shrink"),
        "friction.friction_shrink.s": s("friction.friction_shrink"),
        "fields.validate.calls": n("fields.validate"),
        "fields.validate.s": s("fields.validate"),
        "snapshots.write.calls": n("snapshots.write"),
        "snapshots.write.s": s("snapshots.write"),
        "snapshots.write.mb_per_s": _ratio(written / MIB, s("snapshots.write")),
        "snapshots.read.calls": n("snapshots.read"),
        "snapshots.read.s": s("snapshots.read"),
        "snapshots.read.mb_per_s": _ratio(read / MIB, s("snapshots.read")),
        "scenario.load_config.s": s("scenario.load_config"),
        "spectral.fft.calls": n("spectral.fft"),
        "spectral.fft.s": s("spectral.fft"),
        "spectral.grad_values.calls": n("spectral.grad_values"),
        "spectral.grad_values.self_s": self_s("spectral.grad_values"),
        "spectral.poisson_solve_values.calls": n("spectral.poisson_solve_values"),
        "spectral.poisson_solve_values.self_s": self_s("spectral.poisson_solve_values"),
        "spectral.korn_solve_values.calls": n("spectral.korn_solve_values"),
        "spectral.korn_solve_values.self_s": self_s("spectral.korn_solve_values"),
        "workbench.find_energy_offset.s": s("workbench.find_energy_offset"),
        "workbench.build.calls": n("workbench.build"),
        "workbench.build.s": s("workbench.build"),
        "workbench.probe.pass_ratio": _ratio(len(passes), len(probes)),
        "workbench.solve_stress.self_s": self_s("workbench.solve_stress"),
        "workbench.solve_mean_momentum.self_s": self_s("workbench.solve_mean_momentum"),
        "workbench.subsolution_certificate.calls": n("workbench.subsolution_certificate"),
        "workbench.subsolution_certificate.s": s("workbench.subsolution_certificate"),
        "workbench.energy_gap.calls": n("workbench.energy_gap"),
        "workbench.improvement_step.calls": len(improvements),
        "workbench.improvement_step.s": s("workbench.improvement_step"),
        "workbench.improvement.accept_ratio": _ratio(
            sum(bool(tracer.outcome[i]) for i in improvements), len(improvements)
        ),
        "workbench.oscillatory_pair.s": s("workbench.oscillatory_pair"),
        "workbench.wave_evaluate.calls": n("workbench.wave_evaluate"),
        "diagnostics.weak_residual.s": s("diagnostics.weak_residual"),
        "diagnostics.weak_strong_experiment.s": s("diagnostics.weak_strong_experiment"),
        "diagnostics.simulate.calls": n("diagnostics.simulate"),
        "diagnostics.restrict_state.s": s("diagnostics.restrict_state"),
        "diagnostics.relative_energy.s": s("diagnostics.relative_energy"),
        "cli.self_s": self_s("cli.main"),
    }


def peak_metrics(tracker: PeakTracker) -> dict[str, float]:
    return {f"{name}.peak_temp_mb": peak / MIB for name, peak in tracker.peak.items()}
