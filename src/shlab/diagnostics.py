"""Energy ledger checks, initial-energy-jump detection, relative energy, and
the weak-formulation residual tester."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidValueError, PositivityError
from .fields import ScalarField, TorusGrid, VectorField
from .solver import EnergyLedger, State, Trajectory, simulate
from .workbench import SubsolutionState


def total_energy(state: State, a: float) -> float:
    """Integral of half |q|^2 / h + a h^2 over the torus."""
    h = state.h.values
    q = state.q.values
    return float(np.mean(0.5 * (q[0] ** 2 + q[1] ** 2) / h + a * h * h))


def energy_inequality_residual(ledger: EnergyLedger) -> float:
    """Worst-case energy-balance residual over the ledger rows; nonpositive
    for a dissipative run."""
    if not ledger.rows:
        raise InvalidValueError("empty ledger")
    return float(np.max(ledger.column("e2_residual")))


def energy_jump(sub: SubsolutionState, h0: ScalarField, u0: VectorField, a: float) -> float:
    """Initial-time energy jump of a constructed solution.

    The construction equates half h |u|^2 with the kinetic-energy budget E,
    so the total energy just after t = 0 is the integral of E + a h^2 at the
    first interior node; the jump is its excess over the data energy.
    """
    e_after = float(np.mean(sub.kinetic_energy.values[1] + a * sub.height.values[1] ** 2))
    u2 = u0.values[0] ** 2 + u0.values[1] ** 2
    e_data = float(np.mean(0.5 * h0.values * u2 + a * h0.values**2))
    return e_after - e_data


def relative_energy(state: State, ref: State, a: float) -> float:
    """Distance-like functional: integral of half h |u - U|^2 + a (h - H)^2."""
    if np.any(ref.h.values <= 0.0):
        raise PositivityError("reference height must be positive")
    du = state.velocity().values - ref.velocity().values
    dh = state.h.values - ref.h.values
    return float(np.mean(0.5 * state.h.values * (du[0] ** 2 + du[1] ** 2) + a * dh * dh))


def restrict_state(state: State, coarse: TorusGrid) -> State:
    """Cell-average restriction of a fine-grid state onto a coarser grid."""
    fx = state.grid.nx // coarse.nx
    fy = state.grid.ny // coarse.ny
    if fx * coarse.nx != state.grid.nx or fy * coarse.ny != state.grid.ny:
        raise InvalidValueError("fine grid must be an integer multiple of the coarse grid")

    def block(v):
        return v.reshape(coarse.nx, fx, coarse.ny, fy).mean(axis=(1, 3))

    h = block(state.h.values)
    q = np.stack([block(state.q.values[0]), block(state.q.values[1])])
    return State(ScalarField(coarse, h), VectorField(coarse, q))


def _max_height_gradient(state: State) -> float:
    h = state.h.values
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
    fit_residual: float
    truncated: bool
    floor: float


def default_perturbation(grid: TorusGrid, eps: float) -> VectorField:
    x1, x2 = grid.cell_centers()
    out = np.zeros((2, *grid.shape))
    out[0] = eps * np.sin(2.0 * np.pi * x2)
    return VectorField(grid, out)


def weak_strong_experiment(
    make_scenario,
    perturbation_size: float,
    coarse: TorusGrid,
    fine: TorusGrid,
    perturbation=default_perturbation,
    shock_factor: float = 10.0,
) -> RelativeEnergyReport:
    """Weak-strong uniqueness proxy experiment.

    ``make_scenario(grid)`` must return the same physical scenario sampled on
    the given grid.  The fine run plays the strong reference on its smooth
    (pre-shock) window, the coarse run with perturbed initial velocity the
    weak candidate; the report carries the relative energy series and a
    least-squares exponential rate fit.
    """
    if fine.nx < 4 * coarse.nx or fine.ny < 4 * coarse.ny:
        raise InvalidValueError("fine grid must be at least 4x the coarse grid")
    ref_traj = simulate(make_scenario(fine))

    grad0 = _max_height_gradient(ref_traj.states[0])
    cutoff = ref_traj.times.size
    for j, st in enumerate(ref_traj.states):
        if _max_height_gradient(st) > shock_factor * (grad0 + 1.0):
            cutoff = max(j, 2)
            break
    truncated = cutoff < ref_traj.times.size

    base = make_scenario(coarse)
    pert = perturbation(coarse, perturbation_size)
    weak_traj = simulate(replace(base, u0=VectorField(coarse, base.u0.values + pert.values)))

    times = ref_traj.times[:cutoff]
    values = np.array(
        [
            relative_energy(weak_traj.states[j], restrict_state(ref_traj.states[j], coarse), base.a)
            for j in range(cutoff)
        ]
    )
    floor = max(values[0] * 1e-12, 1e-18)
    usable = values > 10.0 * floor
    if np.count_nonzero(usable) >= 3:
        logs = np.log(values[usable])
        ts = times[usable]
        A = np.vstack([np.ones_like(ts), ts]).T
        coefs, res, _, _ = np.linalg.lstsq(A, logs, rcond=None)
        rate = float(coefs[1])
        fit_residual = float(np.sqrt(res[0] / ts.size)) if res.size else 0.0
    else:
        rate = 0.0
        fit_residual = 0.0
    return RelativeEnergyReport(times, values, rate, fit_residual, truncated, floor)


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


def _time_integral(times: np.ndarray, series: np.ndarray, weight_fn) -> float:
    """Integral of (piecewise-linear interpolant of series) * weight_fn(t).

    Exact per interval for polynomial weights of degree <= 4, so the only
    quadrature error left is the linear interpolation of the node series.
    """
    t0, t1 = times[:-1], times[1:]
    y0, y1 = series[:-1], series[1:]
    nodes, weights = _gauss3(t0, t1)
    frac = (nodes - t0) / (t1 - t0)
    vals = (y0 + frac * (y1 - y0)) * weight_fn(nodes)
    return float(np.sum(vals * weights))


def _spatial_basis(grid: TorusGrid, max_mode: int):
    """Tensor-product trig basis with modes <= max_mode per direction.

    Yields (values, grad) pairs with both arrays sampled at cell centers.
    """
    x1, x2 = grid.cell_centers()
    two_pi = 2.0 * np.pi

    def factors(k, x):
        out = [(np.cos(two_pi * k * x), -two_pi * k * np.sin(two_pi * k * x))]
        if k > 0:
            out.append((np.sin(two_pi * k * x), two_pi * k * np.cos(two_pi * k * x)))
        return out

    basis = []
    for kx in range(max_mode + 1):
        for ky in range(max_mode + 1):
            for fx, dfx in factors(kx, x1):
                for fy, dfy in factors(ky, x2):
                    vals = fx * fy
                    grad = np.stack([dfx * fy, fx * dfy])
                    basis.append((vals, grad))
    return basis


@dataclass
class WeakResidualReport:
    continuity: float
    momentum: float
    mass_mode: float


def weak_residual(traj: Trajectory, basis_size: int = 4) -> WeakResidualReport:
    """Residuals of the mass and momentum integral identities over a basis of
    separable test functions (trig modes in space, cubic decay-to-zero bump
    in time, vanishing at the final time).

    The recorded friction selections are used as data, honoring the
    multi-valued formulation; the time quadrature integrates the piecewise
    linear interpolant of the stored snapshots exactly against the polynomial
    time weight.
    """
    if traj.selections is None or len(traj.selections) != len(traj.states):
        raise InvalidValueError("trajectory lacks friction-selection records")
    scn = traj.scenario
    times = traj.times
    T = float(times[-1])
    if T <= 0.0:
        raise InvalidValueError("trajectory must span positive time")

    def rho(t):
        return (1.0 - t / T) ** 3

    def drho(t):
        return -3.0 / T * (1.0 - t / T) ** 2

    gamma = scn.friction.gamma_values(scn.grid)
    fvals = scn.f.values if scn.f is not None else np.zeros((2, *scn.grid.shape))
    h = np.array([st.h.values for st in traj.states])
    q = np.array([st.q.values for st in traj.states])
    B = np.array([b.values for b in traj.selections])

    worst_cont = 0.0
    worst_mom = 0.0
    mass_mode = None
    for idx, (X, gX) in enumerate(_spatial_basis(scn.grid, basis_size)):
        a_series = (h * X).mean(axis=(1, 2))
        b_series = (q[:, 0] * gX[0] + q[:, 1] * gX[1]).mean(axis=(1, 2))
        r_cont = (
            _time_integral(times, a_series, drho)
            + _time_integral(times, b_series, rho)
            + a_series[0] * rho(0.0)
        )
        worst_cont = max(worst_cont, abs(r_cont))
        if idx == 0:
            mass_mode = abs(r_cont)  # basis starts with the constant mode

        qdotg = q[:, 0] * gX[0] + q[:, 1] * gX[1]
        for d in range(2):
            c_series = (q[:, d] * X).mean(axis=(1, 2))
            conv = (q[:, d] * qdotg / h).mean(axis=(1, 2))
            pres = (scn.a * h * h * gX[d]).mean(axis=(1, 2))
            src = (h * (gamma * B[:, d] - fvals[d]) * X).mean(axis=(1, 2))
            r_mom = (
                _time_integral(times, c_series, drho)
                + _time_integral(times, conv + pres, rho)
                - _time_integral(times, src, rho)
                + c_series[0] * rho(0.0)
            )
            worst_mom = max(worst_mom, abs(r_mom))
    return WeakResidualReport(worst_cont, worst_mom, mass_mode)
