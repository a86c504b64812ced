"""First-order finite-volume integrator for the avalanche balance laws.

Conservative variables are the height h and momentum q = h u, with pressure
a h^2.  Each step is an operator split: Rusanov flux update, exact friction
resolvent, explicit force.  The flux update conserves mass exactly; the
friction resolvent and the Rusanov viscosity are both dissipative, which is
what the energy ledger checks.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InvalidValueError, NumericalAbort, PositivityError
from .fields import TorusGrid
from .friction import FrictionParams, coulomb_selection, friction_shrink

#: a run that takes, or at its current CFL step would take, more steps than
#: this aborts (exit code 3) instead of running without bound
MAX_STEPS = 10**6


@dataclass(frozen=True)
class State:
    """Conservative pair at one time: an (nx, ny) height array h and a
    (2, nx, ny) momentum array q.  The grid is that of h's shape."""

    h: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        if self.q.shape != (2, *self.h.shape):
            raise InvalidValueError(
                f"momentum shape {self.q.shape} does not match height shape {self.h.shape}"
            )
        if np.any(self.h <= 0.0):
            raise PositivityError("state height must be positive everywhere")

    @property
    def grid(self) -> TorusGrid:
        return TorusGrid(*self.h.shape)

    def velocity(self) -> np.ndarray:
        return self.q / self.h


@dataclass(frozen=True)
class Scenario:
    """The Cauchy problem on `grid` up to time T, with the solver's Courant
    number cfl and n_output equispaced output times.

    The inputs are float64 arrays: h0 (nx, ny), u0 (2, nx, ny) and f
    (2, nx, ny) or None.  A constant force, such as gravity along a uniform
    slope, may be a read-only broadcast view of its two components, which is
    what `load_config` makes of two constant expressions.  This type owns
    their checks: each lives on the grid and is finite, and h0 > 0.  It also
    checks that an array friction gamma lives on the grid; `FrictionParams`
    checks its values.
    """

    grid: TorusGrid
    T: float
    a: float
    friction: FrictionParams
    h0: np.ndarray
    u0: np.ndarray
    f: np.ndarray | None = None
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
        scalar, vector = self.grid.shape, (2, *self.grid.shape)
        for attr, name, shape in (
            ("h0", "initial height h0", scalar),
            ("u0", "initial velocity u0", vector),
            ("f", "force f", vector),
        ):
            values = getattr(self, attr)
            if values is None:
                continue
            values = np.asarray(values, dtype=float)
            if values.shape != shape:
                raise InvalidValueError(f"{name} field lives on a different grid")
            if not np.all(np.isfinite(values)):
                raise InvalidValueError(f"{name} contains non-finite values")
            object.__setattr__(self, attr, values)
        if np.ndim(self.friction.gamma) and np.shape(self.friction.gamma) != scalar:
            raise InvalidValueError("friction gamma field lives on a different grid")
        # after the finiteness check: NaN fails no comparison
        if np.any(self.h0 <= 0.0):
            raise PositivityError("initial height must satisfy h0 > 0 everywhere")
        if self.n_output < 2:
            raise InvalidValueError("need at least 2 output times")
        if self.T > 0.0 and not self.default_dt_max() > 0.0:
            # a zero step cap would never advance the clock
            raise InvalidValueError(f"final time T = {self.T} underflows the step cap T/100")
        if self.seed < 0:
            raise InvalidValueError(f"seed must be nonnegative, got {self.seed}")

    def initial_state(self) -> State:
        with np.errstate(over="ignore"):  # a momentum that overflows is rejected just below
            q = self.h0 * self.u0
        if not np.all(np.isfinite(q)):
            raise InvalidValueError("initial momentum h0 u0 is not finite")
        return State(self.h0, q)

    def default_dt_max(self) -> float:
        return self.T / 100.0


class Workspace:
    """Eight (nx, ny) float64 fields that the steps of one run reuse, so that
    a step allocates only the arrays that outlive it: the new h and q and
    the selection B.

    `speeds`, `pressure` and `cross` hold terms of one state that `cfl_dt`
    and both flux sweeps read: each axis's wave speed |q_axis / h| +
    sqrt(2 a h), a h h and the cross flux q1 q2 / h (one array for both
    axes, since IEEE multiplication commutes).  The caller fills them once
    per step, before `cfl_dt` and `step`, which never write them.  `free`
    is four rows of scratch.
    """

    def __init__(self, shape: tuple[int, int]):
        self.fields = np.empty((8, *shape))
        self.speeds = self.fields[:2]
        self.pressure, self.cross = self.fields[2:4]
        self.free = self.fields[4:]

    def fill(self, h: np.ndarray, q1: np.ndarray, q2: np.ndarray, a: float) -> None:
        """Compute the terms from the arrays of a state.  A term past the float
        range stays infinite: the CFL step is then 0, or the step aborts."""
        root = self.free[0]
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(2.0 * a, h, out=root)
            np.sqrt(root, out=root)
            for speed, qa in zip(self.speeds, (q1, q2)):
                np.divide(qa, h, out=speed)
                np.abs(speed, out=speed)
                speed += root
            np.multiply(a, h, out=self.pressure)
            self.pressure *= h
            np.multiply(q1, q2, out=self.cross)
            self.cross /= h


def _pairwise(ufunc, x: np.ndarray, out: np.ndarray, axis: int, at_face: bool) -> None:
    """ufunc(x[i + 1], x[i]) for each pair of neighbours along the axis, on
    the torus, stored at the face index i (at_face) or at the cell index
    i + 1: two ufunc calls on slices, and no shifted copy.  Along axis 1
    the first runs on the contiguous flattened rows and the second rewrites
    the wrap column, so `out` must be C-contiguous (a workspace row)."""
    if axis == 0:
        ufunc(x[1:], x[:-1], out=out[:-1] if at_face else out[1:])
        ufunc(x[:1], x[-1:], out=out[-1:] if at_face else out[:1])
    else:
        if not out.flags.c_contiguous:  # its flattened copy would take the results
            raise ValueError("pairs along axis 1 need a C-contiguous out")
        flat, flat_out = x.reshape(-1), out.reshape(-1)
        ufunc(flat[1:], flat[:-1], out=flat_out[:-1] if at_face else flat_out[1:])
        ufunc(x[:, :1], x[:, -1:], out=out[:, -1:] if at_face else out[:, :1])


def cfl_dt(cfl: float, dx: float, dt_max: float, work: Workspace) -> float:
    """cfl dx / (largest wave speed), capped at dt_max.  The wave speed is
    the largest |u_axis| + sqrt(2 a h) over cells and both axis directions.

    With dx the smaller cell width, dt (s_x/dx + s_y/dy) <= 2 cfl, and the
    unsplit Rusanov update keeps h > 0 while that is <= 1 (Bouchut 2004); so
    cfl is limited to (0, 1/2], which `Scenario` checks.  `work` must hold
    the terms of the state (`Workspace.fill`), whose wave speeds it reads.
    """
    speed = float(np.max(work.speeds))
    if speed <= 0.0:
        return dt_max
    return min(cfl * dx / speed, dt_max)


def rusanov_flux(h: np.ndarray, q1: np.ndarray, q2: np.ndarray, axis: int, work: Workspace):
    """Rusanov flux (mass, x-momentum, y-momentum) through the face between
    each cell U and its +1 neighbour U+ along the axis, on the torus:
    (F(U) + F(U+)) / 2 - s (U+ - U) / 2 with s the larger of the two cells'
    |u_axis| + sqrt(2 a h).  Each cell's F and speed are computed once.

    `work` must hold the terms of (h, q1, q2) (`Workspace.fill`).  The
    three face fluxes are its first three scratch rows, and the fourth is
    free again on return.
    """
    half_s, mass, normal, spare = work.free
    qa, qt = (q1, q2) if axis == 0 else (q2, q1)
    _pairwise(np.maximum, work.speeds[axis], half_s, axis, at_face=True)
    half_s *= 0.5
    # the normal momentum's cell flux qa qa / h + a h h, in spare until averaged
    np.multiply(qa, qa, out=spare)
    spare /= h
    spare += work.pressure
    _pairwise(np.add, spare, normal, axis, at_face=True)
    normal *= 0.5
    # less each viscous term s (U+ - U) / 2; the last face reuses half_s's row
    tangential = half_s
    for w, f, face in ((qa, None, normal), (h, qa, mass), (qt, work.cross, tangential)):
        _pairwise(np.subtract, w, spare, axis, at_face=True)
        spare *= half_s
        if f is not None:
            _pairwise(np.add, f, face, axis, at_face=True)
            face *= 0.5
        face -= spare
    return (mass, normal, tangential) if axis == 0 else (mass, tangential, normal)


@dataclass(frozen=True)
class StepInfo:
    """Per-step bookkeeping: the (2, nx, ny) effective friction selection B
    actually applied and the energy-ledger increments (see step)."""

    B: np.ndarray
    dissipation_inc: float
    work_inc: float


def step(state: State, scenario: Scenario, dt: float, work: Workspace) -> tuple[State, StepInfo]:
    """One split step: Rusanov fluxes, friction resolvent, explicit force.

    Every intermediate lives in `work`, which must hold the terms of this
    state (`Workspace.fill`), or in B's array, which holds the momentum
    q_pre after the fluxes until B overwrites it.  h, q and B are fresh.

    B is the Coulomb selection that the resolvent applied, q_pre / s for its
    scale s = max(|q_pre|, dt gamma h), and 0 wherever dt gamma h = 0; so
    |B| <= 1 up to roundoff and B . u >= 0 in each cell.  Without friction
    (gamma = gamma2 = 0) the resolvent returns q_pre bit for bit and B = +0.

    The increments are the means of dq . u_new for the momentum changes dq
    = q_pre - q_post (friction, the extended drag included) and dt hn f
    (force), at the velocity each leaves.  With h fixed, |b|^2/2 - |a|^2/2
    = b . (b - a) - |b - a|^2/2 makes both split steps dissipative, and a
    cell that stops adds exactly 0, also where dt gamma h is infinite.

    The new h is checked finite and positive, and the momentum q_pre after
    the fluxes finite.  The new momentum needs no check of its own:
    - The friction resolvent scales q_pre by a factor in [0, 1].  The
      extended law's factor is finite while |q_pre| is, and at a dt from
      cfl_dt it is: a component of q above 1.4e154 overflows its own flux,
      and so q_pre, and the fluxes move a smaller one by at most about
      sqrt(a h^2 * h / 2) / 2 < 6.4e307, as a h^2 and h are finite.
    - The force adds dq = dt hn f.  If that makes a component of the new q
      non-finite in a cell, then that component of dq is nonzero and of
      u = q / hn infinite there, or dq itself is not finite: the force's
      work is not finite, and the step aborts.
    """
    grid = state.grid
    h = state.h
    q1, q2 = state.q
    hn, q_pre = h.copy(), state.q.copy()  # q_pre's array becomes B
    diff = work.free[-1]  # the scratch row that rusanov_flux leaves free
    # a flux past the float range leaves hn or q_pre not finite: aborts below
    with np.errstate(over="ignore", invalid="ignore"):
        for axis, dxi in ((0, grid.dx), (1, grid.dy)):
            flux = rusanov_flux(h, q1, q2, axis, work)
            coef = dt / dxi
            for w, fl in zip((hn, *q_pre), flux):
                _pairwise(np.subtract, fl, diff, axis, at_face=False)
                diff *= coef
                w -= diff

    # for a dt from cfl_dt only an overflowing flux fails these (see there)
    if not (hn.min() > 0.0 and hn.max() < np.inf):
        raise NumericalAbort("height lost positivity or finiteness: dt exceeds the CFL bound")
    if not (q_pre.min() > -np.inf and q_pre.max() < np.inf):
        raise NumericalAbort("momentum became non-finite")

    # the scratch rows are free again: dt gamma h, the resolvent's s, dq and u
    thresh, scale, power, spare = work.free
    with np.errstate(over="ignore"):  # an infinite threshold stops the cell
        np.multiply(dt, scenario.friction.gamma, out=thresh)
        thresh *= hn
    q_post = friction_shrink(q_pre, hn, scenario.friction, dt, thresh, work.free[1:3])
    rows = ((power, spare), (spare, scale))  # (dq, u); the last u once B is done with s
    B = q_pre  # overwritten one component at a time, after that component's dq
    for a, (dq, u) in enumerate(rows):
        np.subtract(q_pre[a], q_post[a], out=dq)
        with np.errstate(invalid="ignore"):  # 0 / 0 where dt gamma h = 0 = |q_pre|
            np.divide(q_pre[a], scale, out=B[a])
        np.divide(q_post[a], hn, out=u)
        dq *= u
    power += spare
    diss_inc = float(np.mean(power))
    if not thresh.min() > 0.0:  # B = 0 where dt gamma h = 0, over any such 0 / 0
        B[:, thresh == 0.0] = 0.0

    q_final = q_post
    if scenario.f is not None:  # q_final += dt hn f, in place
        dthn = thresh  # free, as B's mask is taken
        with np.errstate(over="ignore", invalid="ignore"):  # such a work aborts just below
            np.multiply(dt, hn, out=dthn)
            for a, (dq, u) in enumerate(rows):
                np.multiply(dthn, scenario.f[a], out=dq)
                q_final[a] += dq
                np.divide(q_final[a], hn, out=u)
                dq *= u
            power += spare
            work_inc = float(np.mean(power))
        if not np.isfinite(work_inc):
            raise NumericalAbort(f"work of the force is not finite (work increment = {work_inc})")
    else:
        work_inc = 0.0

    return State(hn, q_final), StepInfo(B, diss_inc, work_inc)


@dataclass
class EnergyLedger:
    """Time series of the discrete energy balance.

    e2_residual = total + dissipation_cum - total(0) - work_cum, the sums of
    the step increments (see step); it stays <= 0 up to roundoff, as the
    flux update satisfies the Rusanov scheme's discrete entropy inequality
    under a CFL bound (Bouchut 2004).  A row with a column that is not
    finite (a mean that overflows) aborts the run instead.
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
        h, q = state.h, state.q
        with np.errstate(over="ignore", invalid="ignore"):  # such a row aborts just below
            kinetic = float(np.mean(0.5 * (q[0] ** 2 + q[1] ** 2) / h))
            potential = float(np.mean(a * h * h))
            total = kinetic + potential
            mass = float(np.mean(h))
            total0 = self.rows[0][4] if self.rows else total
            residual = total + diss_cum - total0 - work_cum
        row = (t, mass, kinetic, potential, total, diss_cum, work_cum, residual)
        for name, value in zip(self.columns, row):
            if not math.isfinite(value):
                raise NumericalAbort(
                    f"ledger {name} is not finite at t = {t:.6g} ({name} = {value})"
                )
        self.rows.append(row)

    def column(self, name: str) -> np.ndarray:
        idx = self.columns.index(name)
        return np.array([row[idx] for row in self.rows])


@dataclass
class Trajectory:
    """States and effective friction selections at the output times."""

    scenario: Scenario
    times: np.ndarray
    states: list[State]
    selections: list[np.ndarray]
    ledger: EnergyLedger
    n_steps: int = 0


class Output(NamedTuple):
    """One output of a run: its time, state, (2, nx, ny) effective friction
    selection and the number of steps taken so far."""

    t: float
    state: State
    selection: np.ndarray
    n_steps: int


def stream(scenario: Scenario, ledger: EnergyLedger) -> Iterator[Output]:
    """Advance the scenario with adaptive CFL steps, landing exactly on the
    equispaced output times, and yield each output as it lands; the ledger
    gets one row per output.  It keeps no output it yielded: only the
    current state (the next step's input), the last selection until a step
    makes the next, and one Workspace.  So a consumer that drops each output
    before it asks for the next runs in constant memory.

    The run aborts (NumericalAbort) before it starts if it has more outputs
    than MAX_STEPS steps can reach, at any output whose ledger row is not
    finite (EnergyLedger.append), and during it once it has taken
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
    selection = coulomb_selection(scenario.u0)
    yield Output(0.0, state, selection, 0)

    if scenario.T == 0.0:
        return

    work = Workspace(scenario.grid.shape)  # freed with the generator, when the run ends
    out_times = np.linspace(0.0, scenario.T, scenario.n_output)
    dx = min(scenario.grid.dx, scenario.grid.dy)
    dt_max = scenario.default_dt_max()
    diss_cum = 0.0
    work_cum = 0.0
    t = 0.0
    n_steps = 0
    for target in out_times[1:]:
        while t < target - 1e-14 * scenario.T:
            work.fill(state.h, *state.q, scenario.a)
            dt = cfl_dt(scenario.cfl, dx, dt_max, work)
            _check_budget(n_steps, t, dt, scenario.T)
            dt = min(dt, target - t)
            selection = info = None  # the last selection is freed before the step makes one
            state, info = step(state, scenario, dt, work)
            selection = info.B
            diss_cum += info.dissipation_inc
            work_cum += info.work_inc
            t += dt
            n_steps += 1
        t = target
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
    """Collect every output of ``stream`` into a Trajectory; no command calls it."""
    ledger = EnergyLedger()
    times, states, selections, steps = zip(*stream(scenario, ledger))
    return Trajectory(scenario, np.array(times), list(states), list(selections), ledger, steps[-1])
