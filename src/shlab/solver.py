"""First-order finite-volume integrator for the avalanche balance laws.

Conservative variables are the height h and momentum q = h u, with pressure
a h^2.  Each step is an operator split: Rusanov flux update, exact friction
resolvent, explicit force.  The flux update conserves mass exactly; the
friction resolvent and the Rusanov viscosity are both dissipative, which is
what the energy ledger checks.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InvalidValueError, NumericalAbort, PositivityError
from .fields import ScalarField, TorusGrid, VectorField
from .friction import FrictionParams, coulomb_selection, friction_shrink

#: a run that takes, or at its current CFL step would take, more steps than
#: this aborts (exit code 3) instead of running without bound
MAX_STEPS = 10**6


@dataclass(frozen=True)
class State:
    """Conservative pair (h, q) at one time."""

    h: ScalarField
    q: VectorField

    def __post_init__(self):
        if np.any(self.h.values <= 0.0):
            raise PositivityError("state height must be positive everywhere")
        if self.h.grid != self.q.grid:
            raise InvalidValueError("h and q live on different grids")

    @property
    def grid(self) -> TorusGrid:
        return self.h.grid

    def velocity(self) -> VectorField:
        return VectorField(self.grid, self.q.values / self.h.values)


@dataclass(frozen=True)
class Scenario:
    grid: TorusGrid
    T: float
    a: float
    friction: FrictionParams
    h0: ScalarField
    u0: VectorField
    f: VectorField | None = None
    cfl: float = 0.4
    n_output: int = 101
    seed: int = 0

    def __post_init__(self):
        # written so that NaN fails every range check
        if not 0.0 <= self.T < np.inf:
            raise InvalidValueError(f"final time T must be finite and nonnegative, got {self.T}")
        if not 0.0 < self.a < np.inf:
            raise InvalidValueError(
                f"pressure coefficient a must be finite and positive, got {self.a}"
            )
        if not 0.0 < self.cfl <= 0.5:
            raise InvalidValueError(f"Courant number cfl must lie in (0, 1/2], got {self.cfl}")
        if np.any(self.h0.values <= 0.0):
            raise PositivityError("initial height must satisfy h0 > 0 everywhere")
        gamma = self.friction.gamma
        if isinstance(gamma, ScalarField) and gamma.grid != self.grid:
            raise InvalidValueError("friction gamma field lives on a different grid")
        if self.n_output < 2:
            raise InvalidValueError("need at least 2 output times")
        if self.T > 0.0 and not self.default_dt_max() > 0.0:
            # a zero step cap would never advance the clock
            raise InvalidValueError(f"final time T = {self.T} underflows the step cap T/100")
        if self.seed < 0:
            raise InvalidValueError(f"seed must be nonnegative, got {self.seed}")

    def initial_state(self) -> State:
        return State(self.h0, VectorField(self.grid, self.h0.values * self.u0.values))

    def default_dt_max(self) -> float:
        return self.T / 100.0


def cfl_dt(state: State, a: float, cfl: float, dx: float, dt_max: float) -> float:
    """cfl dx / (largest wave speed), capped at dt_max.  The wave speed is
    the largest |u_axis| + sqrt(2 a h) over cells and both axis directions.

    With dx the smaller cell width, dt (s_x/dx + s_y/dy) <= 2 cfl, and the
    unsplit Rusanov update keeps h > 0 while that is <= 1 (Bouchut 2004); so
    cfl is limited to (0, 1/2].
    """
    if not 0.0 < cfl <= 0.5:
        raise InvalidValueError(f"Courant number cfl must lie in (0, 1/2], got {cfl}")
    h = state.h.values
    speed = float(np.max(np.abs(state.q.values) / h + np.sqrt(2.0 * a * h)))
    if speed <= 0.0:
        return dt_max
    return min(cfl * dx / speed, dt_max)


def rusanov_flux(h: np.ndarray, q1: np.ndarray, q2: np.ndarray, a: float, axis: int):
    """Rusanov flux (mass, x-momentum, y-momentum) through the face between
    each cell U and its +1 neighbour U+ along the axis, on the torus:
    (F(U) + F(U+)) / 2 - s (U+ - U) / 2 with s the larger of the two cells'
    |u_axis| + sqrt(2 a h).  Each cell's F and speed are computed once.
    """
    qa = q1 if axis == 0 else q2
    speed = np.abs(qa / h) + np.sqrt(2.0 * a * h)
    half_s = 0.5 * np.maximum(speed, np.roll(speed, -1, axis=axis))
    del speed  # freed before the fluxes are built, so fewer temporaries are alive at once
    pressure = a * h * h
    out = []
    for c, w in enumerate((h, q1, q2)):
        f = qa if c == 0 else qa * w / h
        if c == axis + 1:
            f += pressure
        out.append(
            0.5 * (f + np.roll(f, -1, axis=axis)) - half_s * (np.roll(w, -1, axis=axis) - w)
        )
    return tuple(out)


@dataclass(frozen=True)
class StepInfo:
    """Per-step bookkeeping: the (2, nx, ny) effective friction selection B
    actually applied and the energy-ledger increments."""

    B: np.ndarray
    dissipation_inc: float
    work_inc: float


def step(state: State, scenario: Scenario, dt: float) -> tuple[State, StepInfo]:
    """One split step: Rusanov fluxes, friction resolvent, explicit force."""
    grid = state.grid
    h = state.h.values
    q1, q2 = state.q.values

    hn, q_pre = h.copy(), state.q.values.copy()
    q1n, q2n = q_pre
    for axis, dxi in ((0, grid.dx), (1, grid.dy)):
        flux = rusanov_flux(h, q1, q2, scenario.a, axis)
        coef = dt / dxi
        for w, fl in zip((hn, q1n, q2n), flux):
            w -= coef * (fl - np.roll(fl, 1, axis=axis))

    # unreachable for a dt from cfl_dt (see there); a larger dt must not pass
    if not (np.all(hn > 0.0) and np.all(np.isfinite(hn))):
        raise NumericalAbort("height lost positivity or finiteness: dt exceeds the CFL bound")
    if not np.all(np.isfinite(q_pre)):
        raise NumericalAbort("momentum became non-finite")

    friction = scenario.friction
    q_post = friction_shrink(q_pre, hn, friction, dt) if friction.active else q_pre

    gamma = friction.gamma_array
    denom = dt * gamma * hn
    with np.errstate(divide="ignore", invalid="ignore"):
        B = np.where(denom > 0.0, (q_pre - q_post) / np.where(denom > 0, denom, 1.0), 0.0)
    Bnorm = np.hypot(B[0], B[1])
    over = Bnorm > 1.0
    if np.any(over):
        B = B / np.where(over, Bnorm, 1.0)

    u_post = q_post / hn
    diss_inc = dt * float(np.mean(gamma * hn * (B[0] * u_post[0] + B[1] * u_post[1])))

    if scenario.f is not None:
        f = scenario.f.values
        q_final = q_post + dt * hn * f
        u_final = q_final / hn
        work_inc = dt * float(np.mean(hn * (f[0] * u_final[0] + f[1] * u_final[1])))
    else:
        q_final = q_post
        work_inc = 0.0

    return State(ScalarField(grid, hn), VectorField(grid, q_final)), StepInfo(B, diss_inc, work_inc)


@dataclass
class EnergyLedger:
    """Time series of the discrete energy balance.

    e2_residual = total + dissipation_cum - total(0) - work_cum; for a
    dissipative run it stays <= 0 up to roundoff.
    """

    columns = (
        "t",
        "mass",
        "kinetic",
        "potential",
        "total",
        "dissipation_cum",
        "work_cum",
        "e2_residual",
    )
    rows: list[tuple] = field(default_factory=list)

    def append(self, t, state: State, a: float, diss_cum: float, work_cum: float):
        h = state.h.values
        q = state.q.values
        kinetic = float(np.mean(0.5 * (q[0] ** 2 + q[1] ** 2) / h))
        potential = float(np.mean(a * h * h))
        total = kinetic + potential
        mass = float(np.mean(h))
        if self.rows:
            total0 = self.rows[0][4]
        else:
            total0 = total
        residual = total + diss_cum - total0 - work_cum
        self.rows.append((t, mass, kinetic, potential, total, diss_cum, work_cum, residual))

    def column(self, name: str) -> np.ndarray:
        idx = self.columns.index(name)
        return np.array([row[idx] for row in self.rows])

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(",".join(self.columns) + "\n")
            for row in self.rows:
                fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


@dataclass
class Trajectory:
    """States and effective friction selections at the output times."""

    scenario: Scenario
    times: np.ndarray
    states: list[State]
    selections: list[VectorField]
    ledger: EnergyLedger
    n_steps: int = 0


class Output(NamedTuple):
    """One output of a run: its time, state, effective friction selection
    and the number of steps taken so far."""

    t: float
    state: State
    selection: VectorField
    n_steps: int


def stream(scenario: Scenario, ledger: EnergyLedger) -> Iterator[Output]:
    """Advance the scenario with adaptive CFL steps, landing exactly on the
    equispaced output times, and yield each output as it lands; the ledger
    gets one row per output.  Only the current state is kept.

    The run aborts (NumericalAbort) before it starts if it has more outputs
    than MAX_STEPS steps can reach, and during it once it has taken
    MAX_STEPS steps, once the steps still needed at the current CFL step
    would pass that budget, or once a step no longer advances the clock
    (t + dt == t).
    """
    if scenario.T > 0.0 and scenario.n_output - 1 > MAX_STEPS:
        raise NumericalAbort(
            f"{scenario.n_output} output times need more than {MAX_STEPS} steps"
        )
    state = scenario.initial_state()
    ledger.append(0.0, state, scenario.a, 0.0, 0.0)
    selection0 = coulomb_selection(scenario.u0)
    yield Output(0.0, state, selection0, 0)

    if scenario.T == 0.0:
        return

    out_times = np.linspace(0.0, scenario.T, scenario.n_output)
    dx = min(scenario.grid.dx, scenario.grid.dy)
    dt_max = scenario.default_dt_max()
    diss_cum = 0.0
    work_cum = 0.0
    t = 0.0
    n_steps = 0
    last_info = None
    for target in out_times[1:]:
        while t < target - 1e-14 * scenario.T:
            dt = cfl_dt(state, scenario.a, scenario.cfl, dx, dt_max)
            _check_budget(n_steps, t, dt, scenario.T)
            dt = min(dt, target - t)
            state, info = step(state, scenario, dt)
            diss_cum += info.dissipation_inc
            work_cum += info.work_inc
            t += dt
            n_steps += 1
            last_info = info
        t = target
        selection = VectorField(scenario.grid, last_info.B) if last_info is not None else selection0
        ledger.append(t, state, scenario.a, diss_cum, work_cum)
        yield Output(t, state, selection, n_steps)


def _check_budget(n_steps: int, t: float, dt: float, T: float) -> None:
    """Abort a run whose clock no longer moves, or that has taken, or at the
    CFL step dt would take, more than MAX_STEPS steps."""
    if t + dt == t:  # also a zero dt, from an overflowing wave speed
        raise NumericalAbort(f"the CFL step {dt:.3g} no longer advances the clock at t = {t:.6g}")
    if n_steps >= MAX_STEPS or n_steps + (T - t) / dt > MAX_STEPS:
        raise NumericalAbort(
            f"the run needs more than {MAX_STEPS} steps: {n_steps} taken by t = {t:.6g}, "
            f"and at the CFL step {dt:.3g} another {T - t:.6g} of time remains"
        )


def simulate(scenario: Scenario) -> Trajectory:
    """Run the scenario and collect every output into a Trajectory."""
    ledger = EnergyLedger()
    times, states, selections = [], [], []
    n_steps = 0
    for t, state, selection, n_steps in stream(scenario, ledger):
        times.append(t)
        states.append(state)
        selections.append(selection)
    return Trajectory(scenario, np.array(times), states, selections, ledger, n_steps)
