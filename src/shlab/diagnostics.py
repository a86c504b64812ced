"""Energy ledger checks, initial-energy-jump detection, relative energy, and
the weak-formulation residual tester."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import spectral
from .errors import InvalidValueError, NumericalAbort
from .fields import TorusGrid
# simulate is unused here, but bench/job.py and bench/tracing.py wrap diagnostics.simulate
from .solver import EnergyLedger, State, Trajectory, simulate, stream  # noqa: F401
from .workbench import SubsolutionState


def energy_jump(sub: SubsolutionState) -> float:
    """Initial-time energy jump of a constructed solution.

    The construction equates half h |u|^2 with the kinetic-energy budget E,
    so the total energy just after t = 0 is the integral of E + a h^2 at the
    first interior node; the jump is its excess over the problem's data energy.
    A jump that is not finite (a term past the float range) aborts.
    """
    prob = sub.problem
    a, h0, u0 = prob.a, prob.h0, prob.u0
    with np.errstate(over="ignore", invalid="ignore"):  # rejected just below
        e_after = float(np.mean(sub.kinetic_energy[1] + a * prob.height[1] ** 2))
        e_data = float(np.mean(0.5 * h0 * (u0[0] ** 2 + u0[1] ** 2) + a * h0**2))
        jump = e_after - e_data
    if not np.isfinite(jump):
        raise NumericalAbort(
            f"initial energy jump is not finite (after = {e_after:.3e}, data = {e_data:.3e})"
        )
    return jump


def relative_energy(state: State, ref: State, a: float) -> float:
    """Distance-like functional: integral of half h |u - U|^2 + a (h - H)^2.
    A value that is not finite (a term past the float range) aborts."""
    with np.errstate(over="ignore", invalid="ignore"):  # rejected just below
        du, dh = state.velocity() - ref.velocity(), state.h - ref.h
        value = float(np.mean(0.5 * state.h * (du[0] ** 2 + du[1] ** 2) + a * dh * dh))
    if not np.isfinite(value):
        raise NumericalAbort(f"relative energy is not finite (E_rel = {value})")
    return value


def restrict_state(state: State, coarse: TorusGrid) -> State:
    """Cell-average restriction of a fine-grid state onto a coarser grid.
    A cell average that overflows is rejected."""
    fx = state.grid.nx // coarse.nx
    fy = state.grid.ny // coarse.ny
    if fx * coarse.nx != state.grid.nx or fy * coarse.ny != state.grid.ny:
        raise InvalidValueError("fine grid must be an integer multiple of the coarse grid")

    def block(v):
        return v.reshape(coarse.nx, fx, coarse.ny, fy).mean(axis=(1, 3))

    with np.errstate(over="ignore"):  # an average that overflows is rejected just below
        h = block(state.h)
        q = np.stack([block(state.q[0]), block(state.q[1])])
    if not (np.all(np.isfinite(h)) and np.all(np.isfinite(q))):
        raise InvalidValueError("restricted state is not finite: a cell average overflows")
    return State(h, q)


def _max_height_gradient(state: State) -> float:
    h = state.h
    gx = (np.roll(h, -1, axis=0) - np.roll(h, 1, axis=0)) / (2.0 * state.grid.dx)
    gy = (np.roll(h, -1, axis=1) - np.roll(h, 1, axis=1)) / (2.0 * state.grid.dy)
    return float(np.max(np.hypot(gx, gy)))


@dataclass
class RelativeEnergyReport:
    """Relative energy between a coarse run and a restricted fine reference,
    plus the fitted exponential growth rate."""

    times: np.ndarray
    values: np.ndarray
    rate: float
    truncated: bool


def _restricted_reference(ref, coarse: TorusGrid) -> tuple[np.ndarray, list[State], bool]:
    """The output times and restricted states of the fine run `ref` on its
    smooth window (see weak_strong_experiment), and whether a shock cut it.
    Each fine output is dropped once it is restricted."""
    times, refs = [], []
    for out in stream(ref, EnergyLedger()):
        grad = _max_height_gradient(out.state)
        if not refs:
            limit = 10.0 * (grad + 1.0)
        shocked = grad > limit
        # output 1 stays in the window, which keeps at least two outputs
        if not (shocked and len(refs) >= 2):
            times.append(out.t)
            refs.append(restrict_state(out.state, coarse))
        del out
        if shocked:
            break
    return np.array(times), refs, shocked and len(refs) < ref.n_output


def weak_strong_experiment(
    make_scenario, eps_list, coarse: TorusGrid, fine: TorusGrid
) -> list[RelativeEnergyReport]:
    """Weak-strong uniqueness proxy experiment, one report per eps.

    ``make_scenario(grid)`` must return the same physical scenario sampled on
    the given grid.  The fine run plays the strong reference on its smooth
    window, which ends at the first output whose largest height gradient
    exceeds 10 (|grad h0| + 1) but keeps at least two outputs.  It does not
    depend on eps, so it runs once, up to that cutoff.  Each eps then gives
    one weak candidate, run up to the same cutoff: the coarse run with
    eps sin(2 pi x2) added to the initial x-velocity.  A report carries the
    relative energy series and a least-squares exponential rate fit.
    """
    if fine.nx < 4 * coarse.nx or fine.ny < 4 * coarse.ny:
        raise InvalidValueError("fine grid must be at least 4x the coarse grid")
    times, refs, truncated = _restricted_reference(make_scenario(fine), coarse)

    base = make_scenario(coarse)
    mode = np.sin(2.0 * np.pi * coarse.cell_centers()[1])
    reports = []
    for eps in eps_list:
        pert = np.zeros((2, *coarse.shape))
        pert[0] = eps * mode
        run = stream(replace(base, u0=base.u0 + pert), EnergyLedger())
        # one output per reference, each dropped once compared: a loop over
        # zip(refs, run) would hold the last one through the next steps
        values = np.array([relative_energy(next(run).state, r, base.a) for r in refs])
        run.close()
        floor = max(values[0] * 1e-12, 1e-18)
        usable = values > 10.0 * floor
        rate = 0.0
        if np.count_nonzero(usable) >= 3:
            ts = times[usable]
            A = np.vstack([np.ones_like(ts), ts]).T
            coefs = np.linalg.lstsq(A, np.log(values[usable]), rcond=None)[0]
            rate = float(coefs[1])
        reports.append(RelativeEnergyReport(times, values, rate, truncated))
    return reports


# ---------------------------------------------------------------------------
# weak-formulation residual tester


def _gauss3(lo: np.ndarray, hi: np.ndarray):
    """3-point Gauss-Legendre nodes/weights on [lo, hi] (vectorized)."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    r = np.sqrt(3.0 / 5.0)
    nodes = np.stack([mid - r * half, mid, mid + r * half])
    weights = np.stack([5.0 / 9.0 * half, 8.0 / 9.0 * half, 5.0 / 9.0 * half])
    return nodes, weights


def _time_weights(times: np.ndarray, weight_fn) -> np.ndarray:
    """Node weights w such that w @ y is the integral of (piecewise-linear
    interpolant of the node series y) * weight_fn(t).

    Exact per interval for polynomial weights of degree <= 4, so the only
    quadrature error left is the linear interpolation of the node series.
    """
    t0, t1 = times[:-1], times[1:]
    nodes, weights = _gauss3(t0, t1)
    frac = (nodes - t0) / (t1 - t0)
    wf = weight_fn(nodes) * weights
    w = np.zeros(times.size)
    w[:-1] += np.sum(wf * (1.0 - frac), axis=0)
    w[1:] += np.sum(wf * frac, axis=0)
    return w


def _cos_sin_moments(coef: np.ndarray) -> np.ndarray:
    """Means against the tensor-product cos/sin basis from the coefficients
    of ``spectral.mode_coefficients`` (of a real field, or a real-linear
    image of one such as its pairing with a gradient).

    The result has shape (..., 4, m+1, m+1), indexed [product, k1, k2] with
    the products cos cos, sin sin, sin cos and cos sin of the x1 and x2
    factors cos/sin(2 pi k x).  They are half sums and differences of
    C(k1, k2) and C(k1, -k2) = conj C(-k1, k2).  Entries with a sine factor at
    k = 0 stand for the zero function and hold zero up to roundoff.
    """
    m = coef.shape[-1] - 1
    plus = coef[..., m:, :]
    minus = np.conj(coef[..., m::-1, :])
    parts = [(plus + minus).real, (minus - plus).real, -(plus + minus).imag, (minus - plus).imag]
    return 0.5 * np.stack(parts, axis=-3)


@dataclass
class WeakResidualReport:
    continuity: float
    momentum: float
    mass_mode: float


def weak_residual(traj: Trajectory, basis_size: int = 4) -> WeakResidualReport:
    """Residuals of the mass and momentum integral identities over a basis of
    separable test functions (trig modes up to ``basis_size`` per direction in
    space, cubic decay-to-zero bump in time, vanishing at the final time).

    The recorded friction selections are used as data, honoring the
    multi-valued formulation; the time quadrature integrates the piecewise
    linear interpolant of the stored snapshots exactly against the polynomial
    time weight.  Both identities are linear in the snapshots, so each is
    first summed over time into a handful of weighted fields, whose moments
    against every test mode are then read from one DFT.
    """
    if traj.selections is None or len(traj.selections) != len(traj.states):
        raise InvalidValueError("trajectory lacks friction-selection records")
    scn = traj.scenario
    grid = scn.grid
    if not 0 <= basis_size <= min(grid.nx, grid.ny) // 2:
        raise InvalidValueError(
            f"basis_size must lie in [0, {min(grid.nx, grid.ny) // 2}] on a "
            f"{grid.nx}x{grid.ny} grid, got {basis_size}"
        )
    times = traj.times
    T = float(times[-1])
    if T <= 0.0:
        raise InvalidValueError("trajectory must span positive time")

    def rho(t):
        return (1.0 - t / T) ** 3

    def drho(t):
        return -3.0 / T * (1.0 - t / T) ** 2

    w = _time_weights(times, rho)
    dw = _time_weights(times, drho)
    dw[0] += rho(0.0)  # initial-data term
    gamma = scn.friction.gamma
    f = scn.f if scn.f is not None else 0.0

    # time-weighted fields: mass, mass flux q, momentum (with the friction and
    # force source), momentum flux q (x) q / h + a h^2 I as (11, 12, 22)
    acc = np.zeros((8, *grid.shape))
    mass, flux, mom, mflux = acc[0], acc[1:3], acc[3:5], acc[5:8]
    for wj, dwj, st, sel in zip(w, dw, traj.states, traj.selections):
        h, q = st.h, st.q
        mass += dwj * h
        flux += wj * q
        mom += dwj * q
        mom -= wj * (h * (gamma * sel - f))
        pres = scn.a * h * h
        mflux[0] += wj * (q[0] * q[0] / h + pres)
        mflux[1] += wj * (q[0] * q[1] / h)
        mflux[2] += wj * (q[1] * q[1] / h + pres)

    # the mean of F times a derivative d/dx_j of exp(-2 pi i k.x) is
    # -2 pi i k_j C(k), so each identity is one combination of coefficients
    c = spectral.mode_coefficients(acc, basis_size)
    d1 = -2j * np.pi * np.arange(-basis_size, basis_size + 1)[:, None]
    d2 = -2j * np.pi * np.arange(basis_size + 1)
    r_cont = _cos_sin_moments(c[0] + d1 * c[1] + d2 * c[2])
    # momentum flux rows (11, 12) and (21, 22)
    r_mom = _cos_sin_moments(c[3:5] + d1 * c[[5, 6]] + d2 * c[[6, 7]])
    return WeakResidualReport(
        continuity=float(np.max(np.abs(r_cont))),
        momentum=float(np.max(np.abs(r_mom))),
        mass_mode=float(abs(r_cont[0, 0, 0])),  # the constant test mode
    )
