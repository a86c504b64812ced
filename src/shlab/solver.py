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
    (2, nx, ny) or None.  This type owns their checks: each lives on the grid
    and is finite, and h0 > 0.  It also checks that an array friction gamma
    lives on the grid; `FrictionParams` checks its values.
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
    """Ten (nx, ny) float64 fields that the steps of one run reuse, so that
    a step allocates only the arrays that outlive it: the new h and q and
    the selection B.

    `root`, `pressure` and `cross` hold terms of one state that `cfl_dt` and
    both flux sweeps read: sqrt(2 a h), a h h and the cross flux q1 q2 / h
    (one array for both axes, since IEEE multiplication commutes).  The
    caller fills them once per step, before `cfl_dt` and `step`.  `q` is
    the momentum that a step updates, and `free` five rows of scratch.
    """

    def __init__(self, shape: tuple[int, int]):
        self.fields = np.empty((10, *shape))
        self.root, self.pressure, self.cross = self.fields[:3]
        self.q = self.fields[3:5]
        self.free = self.fields[5:]

    def fill(self, h: np.ndarray, q1: np.ndarray, q2: np.ndarray, a: float) -> None:
        """Compute the terms from the arrays of a state."""
        np.multiply(2.0 * a, h, out=self.root)
        np.sqrt(self.root, out=self.root)
        np.multiply(a, h, out=self.pressure)
        self.pressure *= h
        np.multiply(q1, q2, out=self.cross)
        self.cross /= h


# the slices x[1:], x[:-1], x[:1] and x[-1:], along axis 0 and along axis 1
_CUTS = [
    tuple(lead + (s,) for s in (slice(1, None), slice(None, -1), slice(None, 1), slice(-1, None)))
    for lead in ((), (slice(None),))
]


def _pairwise(ufunc, x: np.ndarray, out: np.ndarray, axis: int, at_face: bool) -> None:
    """ufunc(x[i + 1], x[i]) for each pair of neighbours along the axis, on
    the torus, stored at the face index i (at_face) or at the cell index
    i + 1: two ufunc calls on slices, and no shifted copy."""
    hi, lo, first, last = _CUTS[axis]
    ufunc(x[hi], x[lo], out=out[lo if at_face else hi])
    ufunc(x[first], x[last], out=out[last if at_face else first])


def cfl_dt(state: State, cfl: float, dx: float, dt_max: float, work: Workspace) -> float:
    """cfl dx / (largest wave speed), capped at dt_max.  The wave speed is
    the largest |u_axis| + sqrt(2 a h) over cells and both axis directions.

    With dx the smaller cell width, dt (s_x/dx + s_y/dy) <= 2 cfl, and the
    unsplit Rusanov update keeps h > 0 while that is <= 1 (Bouchut 2004); so
    cfl is limited to (0, 1/2], which `Scenario` checks.  `work` must hold
    the terms of this state (`Workspace.fill`).
    """
    speeds = work.free[:2]
    np.abs(state.q, out=speeds)
    speeds /= state.h
    speeds += work.root
    speed = float(np.max(speeds))
    if speed <= 0.0:
        return dt_max
    return min(cfl * dx / speed, dt_max)


def rusanov_flux(h: np.ndarray, q1: np.ndarray, q2: np.ndarray, axis: int, work: Workspace):
    """Rusanov flux (mass, x-momentum, y-momentum) through the face between
    each cell U and its +1 neighbour U+ along the axis, on the torus:
    (F(U) + F(U+)) / 2 - s (U+ - U) / 2 with s the larger of the two cells'
    |u_axis| + sqrt(2 a h).  Each cell's F and speed are computed once.

    The three face fluxes are scratch rows of `work`, whose terms must be
    those of (h, q1, q2) (`Workspace.fill`).
    """
    half_s, *faces, diff = work.free
    qa = q1 if axis == 0 else q2
    np.divide(qa, h, out=diff)
    np.abs(diff, out=diff)
    diff += work.root
    _pairwise(np.maximum, diff, half_s, axis, at_face=True)
    half_s *= 0.5
    for c, (w, face) in enumerate(zip((h, q1, q2), faces)):
        if c == 0:
            f = qa
        elif c == axis + 1:
            f = np.multiply(qa, w, out=diff)
            f /= h
            f += work.pressure
        else:
            f = work.cross
        _pairwise(np.add, f, face, axis, at_face=True)
        face *= 0.5
        _pairwise(np.subtract, w, diff, axis, at_face=True)
        diff *= half_s
        face -= diff
    return tuple(faces)


@dataclass(frozen=True)
class StepInfo:
    """Per-step bookkeeping: the (2, nx, ny) effective friction selection B
    actually applied and the energy-ledger increments."""

    B: np.ndarray
    dissipation_inc: float
    work_inc: float


def _mean_power(v: np.ndarray, u: np.ndarray, weight) -> float:
    """The grid mean of weight (v . u) for (2, nx, ny) stacks v and u,
    computed in u."""
    np.multiply(v[0], u[0], out=u[0])
    np.multiply(v[1], u[1], out=u[1])
    u[0] += u[1]
    u[0] *= weight
    return float(np.mean(u[0]))


def step(state: State, scenario: Scenario, dt: float, work: Workspace) -> tuple[State, StepInfo]:
    """One split step: Rusanov fluxes, friction resolvent, explicit force.

    Every intermediate lives in `work`, which must hold the terms of this
    state (`Workspace.fill`).  The new h and q and B are fresh arrays.

    The new h is checked finite and positive, and the momentum q_pre after
    the fluxes finite.  The new momentum needs no check of its own:
    - The friction resolvent scales q_pre by a factor in [0, 1].  The
      extended law's factor is finite while |q_pre| is, and at a dt from
      cfl_dt it is: a component of q above 1.4e154 overflows its own flux,
      and so q_pre, and the fluxes move a smaller one by at most about
      sqrt(a h^2 * h / 2) / 2 < 6.4e307, as a h^2 and h are finite.
    - The force adds dt hn f.  If that makes a component of the new q
      non-finite in a cell, then u = q / hn there is +-inf or NaN, and so is
      f . u, also where f is 0 (0 * inf is NaN): the force's work is not
      finite, and the step aborts.
    """
    grid = state.grid
    h = state.h
    q1, q2 = state.q
    hn, q_pre = h.copy(), work.q
    np.copyto(q_pre, state.q)
    diff = work.free[-1]
    for axis, dxi in ((0, grid.dx), (1, grid.dy)):
        flux = rusanov_flux(h, q1, q2, axis, work)
        coef = dt / dxi
        for w, fl in zip((hn, *q_pre), flux):
            _pairwise(np.subtract, fl, diff, axis, at_face=False)
            diff *= coef
            w -= diff

    # unreachable for a dt from cfl_dt (see there); a larger dt must not pass
    if not (np.all(hn > 0.0) and np.all(np.isfinite(hn))):
        raise NumericalAbort("height lost positivity or finiteness: dt exceeds the CFL bound")
    if not np.all(np.isfinite(q_pre)):
        raise NumericalAbort("momentum became non-finite")

    # the scratch rows are free again: the threshold dt gamma h, which is
    # also the denominator of B, then the friction scratch, then the ledger terms
    friction = scenario.friction
    gamma = friction.gamma
    thresh = work.free[0]
    np.multiply(dt, gamma, out=thresh)
    thresh *= hn
    # either way the new momentum is a fresh array, not the workspace's
    if friction.active:
        q_post = friction_shrink(q_pre, hn, friction, dt, thresh, work.free[1:3])
    else:
        q_post = q_pre.copy()

    B = np.zeros_like(q_pre)
    positive = thresh > 0.0
    np.subtract(q_pre, q_post, out=B, where=positive)
    Bnorm, u, g = work.free[1], work.free[2:4], work.free[4]
    with np.errstate(over="ignore"):  # from a subnormal dt gamma h; mended below
        np.divide(B, thresh, out=B, where=positive)
        np.hypot(B[0], B[1], out=Bnorm)
    top = Bnorm.max()
    if top > 1.0:
        if top == np.inf:  # |B| > 1 there too: B is the direction of q_pre - q_post
            huge = np.isinf(Bnorm)
            d = q_pre[:, huge] - q_post[:, huge]
            B[:, huge] = d / np.hypot(d[0], d[1])
            Bnorm[huge] = 1.0
        np.maximum(Bnorm, 1.0, out=Bnorm)  # B / 1.0 is exact, so no masked divide
        B /= Bnorm

    np.divide(q_post, hn, out=u)
    np.multiply(gamma, hn, out=g)
    diss_inc = dt * _mean_power(B, u, g)

    q_final = q_post
    if scenario.f is not None:  # q_final += dt hn f, in place
        f = scenario.f
        np.multiply(dt, hn, out=g)
        np.multiply(g, f, out=u)
        q_final += u
        np.divide(q_final, hn, out=u)
        with np.errstate(over="ignore"):  # a work that overflows aborts just below
            work_inc = dt * _mean_power(f, u, hn)
        if not np.isfinite(work_inc):
            raise NumericalAbort(f"work of the force is not finite (work increment = {work_inc})")
    else:
        work_inc = 0.0

    return State(hn, q_final), StepInfo(B, diss_inc, work_inc)


@dataclass
class EnergyLedger:
    """Time series of the discrete energy balance.

    e2_residual = total + dissipation_cum - total(0) - work_cum; for a
    dissipative run it stays <= 0 up to roundoff.  A row with a column that
    is not finite (a mean that overflows) aborts the run instead.
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
    gets one row per output.  Only the current state and one Workspace are
    kept.

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
    selection0 = coulomb_selection(scenario.u0)
    yield Output(0.0, state, selection0, 0)

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
    last_info = None
    for target in out_times[1:]:
        while t < target - 1e-14 * scenario.T:
            work.fill(state.h, *state.q, scenario.a)
            dt = cfl_dt(state, scenario.cfl, dx, dt_max, work)
            _check_budget(n_steps, t, dt, scenario.T)
            dt = min(dt, target - t)
            state, info = step(state, scenario, dt, work)
            diss_cum += info.dissipation_inc
            work_cum += info.work_inc
            t += dt
            n_steps += 1
            last_info = info
        t = target
        selection = last_info.B if last_info is not None else selection0
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
