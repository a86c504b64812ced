"""Subsolution workbench.

Mechanizes the construction behind the non-uniqueness result: pick a height
history compatible with the initial data, recover the potential and kinetic
energy budget, close the mean-momentum ODE and the deviatoric stress solve,
certify membership in the subsolution set (pointwise eigenvalue constraint
with margin delta), and push the energy-gap functional towards zero with
compactly supported oscillatory perturbations.

Every space-time quantity is a bare (K+1, ...) numpy stack whose axis 0 runs
over the uniform time nodes t_0 = 0, ..., t_K = T of the problem's `times`.
Every per-node pass runs on the node chunks of `_node_chunks`, so its
temporaries hold one chunk, not the whole stack, and each node's values are
bitwise those of the whole-stack arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import fields, spectral
from .errors import (
    ConstraintError,
    DesignError,
    EnergyPositivityError,
    InvalidValueError,
    NumericalAbort,
    SolvabilityError,
)
from .fields import TorusGrid, deviatoric_outer, time_derivative
from .friction import FrictionParams, friction_coefficient_values
from .solver import Scenario

E_MIN_FACTOR = 1e-6
MASS_DRIFT_TOL = 1e-10
#: bytes per node chunk at 32 a cell: 8 nodes at 32^2, 2 at 64^2, 1 from 128^2 on
NODE_CHUNK_BYTES = 256 * 1024


def _node_chunks(start: int, stop: int, cells: int):
    """Consecutive slices of the time nodes start, ..., stop - 1, each of at
    most NODE_CHUNK_BYTES at 32 bytes a cell for `cells` cells: the largest
    per-node pair, a (2, nx, ny // 2 + 1) complex half-plane spectrum of the
    Korn or gradient transforms and the (2, nx, ny) float64 array of its irfft2."""
    step = max(1, NODE_CHUNK_BYTES // (32 * cells))
    return [slice(k, min(k + step, stop)) for k in range(start, stop, step)]


class _NodeSum:
    """Sum of stacks on the same nodes, formed one node chunk at a time:
    s[k] adds the terms' slices k left to right, bitwise the slice k of the
    whole-stack sum, and s[:] is that sum.  Terms may be broadcast views
    (a zero flux, V[:, :, None, None], a constant) as long as the first two
    add up to the full shape."""

    def __init__(self, *terms: np.ndarray):
        self.terms = terms

    def __getitem__(self, k: slice) -> np.ndarray:
        out = self.terms[0][k] + self.terms[1][k]
        for term in self.terms[2:]:
            out += term[k]
        return out


# ---------------------------------------------------------------------------
# height design and derived fields


def design_height(
    h0: np.ndarray, psi0: np.ndarray, times: np.ndarray, amplitude_cap: float
) -> np.ndarray:
    """Choose a positive height history h(t) = h0 + s(t) g on the nodes, for
    (nx, ny) samples of h0 and of the initial potential psi0.

    g = -Lap(psi0) is mean-zero, so total mass is constant; s(0) = 0 and
    s'(0) = 1 match the initial data and its first time derivative.  The
    profile s(t) = tau (1 - exp(-t/tau)) is bounded by tau, which is sized so
    the excursion never exceeds amplitude_cap * min h0.
    """
    g = -spectral.laplacian_values(psi0)
    gmax = float(np.max(np.abs(g)))
    if gmax == 0.0:
        return np.broadcast_to(h0, (times.size, *h0.shape)).copy()
    tau = amplitude_cap * float(np.min(h0)) / gmax
    if tau < 1e-8:
        raise DesignError(
            f"height excursion budget too small (tau = {tau:.3e}); "
            "increase amplitude_cap or smooth psi0"
        )
    # an infinite tau (g negligible beside h0) gives the profile's limit s(t) = t
    s = times if math.isinf(tau) else tau * (1.0 - np.exp(-times / tau))
    values = h0[None] + s[:, None, None] * g[None]
    if np.any(values <= 0.0):
        raise DesignError("designed height lost positivity")
    return values


def stream_potential(h: np.ndarray, dt: float) -> np.ndarray:
    """Mean-zero potential with -Lap(psi(t)) = dh/dt per time slice, one
    stacked Poisson solve per node chunk.  A mass that is not finite aborts,
    and so does a dh/dt past the float range (the solve rejects its mean)."""
    with np.errstate(over="ignore", invalid="ignore"):  # rejected below
        mass = h.mean(axis=(1, 2))
        psi = time_derivative(h, dt)  # each chunk's solve overwrites its dh/dt
    if not np.all(np.isfinite(mass)):
        raise NumericalAbort(f"height mass is not finite (max |h| = {np.max(np.abs(h)):.3e})")
    if float(np.max(np.abs(mass - mass[0]))) > MASS_DRIFT_TOL:
        raise SolvabilityError("height mass drifts in time; potential undefined")
    for k in _node_chunks(0, h.shape[0], h[0].size):
        with np.errstate(over="ignore", invalid="ignore"):
            rhs = psi[k] - psi[k].mean(axis=(1, 2), keepdims=True)
        psi[k] = spectral.poisson_solve_values(rhs)
    return psi


def kinetic_energy_field(
    offset: float, a: float, h: np.ndarray, psi: np.ndarray, dt: float
) -> np.ndarray:
    """Kinetic-energy budget E(t, x) = offset - a h^2 - d(psi)/dt, formed per
    node chunk.  Aborts if E is not finite: no offset can certify it."""
    with np.errstate(over="ignore", invalid="ignore"):
        E = time_derivative(psi, dt)  # each chunk of E overwrites its d(psi)/dt
        for k in _node_chunks(0, h.shape[0], h[0].size):
            E[k] = offset - a * h[k] ** 2 - E[k]
    if not np.all(np.isfinite(E)):
        raise NumericalAbort(
            "kinetic energy budget E = offset - a h^2 - d(psi)/dt is not finite "
            f"(offset = {offset:.3e}, dt = {dt:.3e})"
        )
    return E


def drag_coefficient(
    E: np.ndarray, h: np.ndarray, friction: FrictionParams, offset: float
) -> np.ndarray:
    """(K+1, nx, ny) stack of the linear friction coefficient gamma sqrt(h/2E)
    (+ extended term), +0 without friction.  With friction, raises if E, the
    budget built from the energy offset, dips below the floor E_MIN_FACTOR
    |offset|, and aborts if the coefficient is not finite."""
    if not friction.active:
        return np.broadcast_to(0.0, E.shape)
    e_min = E_MIN_FACTOR * abs(offset)
    e_low = float(np.min(E))
    if e_low < e_min:
        raise EnergyPositivityError(
            f"kinetic energy floor violated: min E = {e_low:.3e} < {e_min:.3e}"
        )
    drag = np.empty(E.shape)
    with np.errstate(over="ignore"):  # a drag that overflows aborts just below
        for k in _node_chunks(0, E.shape[0], E[0].size):
            drag[k] = friction_coefficient_values(h[k], E[k], friction)
    if not np.all(np.isfinite(drag)):
        raise NumericalAbort(f"friction drag is not finite (max E = {float(np.max(E)):.3e})")
    return drag


def solve_mean_momentum(
    v: np.ndarray,
    drag: np.ndarray,
    grad_psi: np.ndarray,
    h: np.ndarray,
    f: np.ndarray | None,
    V0,
    dt: float,
) -> np.ndarray:
    """Spatial-mean momentum component V(t) from its linear ODE.

    dV/dt = mean(drag) V + mean(drag (v + grad psi) + h f), V(0) = V0, with
    v and grad psi (K+1, 2, nx, ny) stacks on the nodes of h, dt apart, the
    (2, nx, ny) force f or None, and drag the linear friction coefficient
    stack (zero without friction).
    Classical 4th-order one-step integration on the uniform nodes; the half
    steps read the linear interpolant of the node data, the mean of the two
    neighbours.  The node means of the right-hand side are taken per chunk.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow here makes V abort below
        cbar = drag.mean(axis=(1, 2))
        bbar = np.empty((h.shape[0], 2))
        for k in _node_chunks(0, h.shape[0], h[0].size):
            rhs = drag[k][:, None] * (v[k] + grad_psi[k])
            if f is not None:
                rhs += h[k][:, None] * f
            bbar[k] = rhs.mean(axis=(2, 3))
        cmid = 0.5 * (cbar[:-1] + cbar[1:])
        bmid = 0.5 * (bbar[:-1] + bbar[1:])

    # on Python floats: the IEEE operations of (2,) arrays, in their order
    c, cm = cbar.tolist(), cmid.tolist()
    V = np.empty((h.shape[0], 2))
    V[0] = np.asarray(V0, dtype=float)
    for j in range(2):
        b, bm, x = bbar[:, j].tolist(), bmid[:, j].tolist(), [float(V[0, j])]
        for k in range(h.shape[0] - 1):
            k1 = c[k] * x[k] + b[k]
            k2 = cm[k] * (x[k] + dt / 2 * k1) + bm[k]
            k3 = cm[k] * (x[k] + dt / 2 * k2) + bm[k]
            k4 = c[k + 1] * (x[k] + dt * k3) + b[k + 1]
            x.append(x[k] + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4))
        V[:, j] = x
    if not np.all(np.isfinite(V)):
        raise NumericalAbort(f"mean momentum V is not finite (dt = {dt:.3e})")
    return V


def solve_stress(
    v: np.ndarray,
    V: np.ndarray,
    drag: np.ndarray,
    grad_psi: np.ndarray,
    h: np.ndarray,
    f: np.ndarray | None,
) -> np.ndarray:
    """Deviatoric stress corrector M(t) with div M equal to the mean-free part
    of the friction-plus-force right-hand side, mean-zero per slice.  The
    arguments are those of solve_mean_momentum plus its solution V.  Node
    chunks are solved together; nodes with a zero right-hand side keep M = +0.
    The solve rejects a right-hand side past the float range."""
    out = np.zeros((h.shape[0], 2, *h.shape[1:]))
    for k in _node_chunks(0, h.shape[0], h[0].size):
        with np.errstate(over="ignore", invalid="ignore"):
            term = drag[k][:, None] * (v[k] + V[k][:, :, None, None] + grad_psi[k])
            rhs = term.mean(axis=(2, 3), keepdims=True) - term
            if f is not None:
                force = h[k][:, None] * f
                rhs += force - force.mean(axis=(2, 3), keepdims=True)
        live = np.flatnonzero(np.any(rhs != 0.0, axis=(1, 2, 3)))
        if live.size:
            out[k.start + live] = spectral.korn_solve_values(rhs[live])
    return out


# ---------------------------------------------------------------------------
# subsolution state and certificate


@dataclass(frozen=True)
class SubsolutionState:
    """Full record of one candidate subsolution of `problem`, whose grid,
    time nodes, physics, height h and grad(psi) it shares.

    Each stack samples the problem's uniform nodes `times`: kinetic_energy E
    is (K+1, nx, ny); velocity the divergence-free mean-zero part, flux its
    space-time companion and stress the corrector M are (K+1, 2, nx, ny),
    the last two as traceless (p, s) pairs.  mean_momentum is the (K+1, 2)
    V(t) series and delta the certified margin.
    """

    problem: WorkbenchProblem
    energy_offset: float
    kinetic_energy: np.ndarray
    velocity: np.ndarray
    flux: np.ndarray
    mean_momentum: np.ndarray
    stress: np.ndarray
    delta: float

    @property
    def momentum(self) -> _NodeSum:
        """g = v + V + grad(psi), formed per node chunk: momentum[k] is its
        (2, nx, ny) samples at the nodes k, momentum[:] the whole stack."""
        return _NodeSum(
            self.velocity, self.mean_momentum[:, :, None, None], self.problem.grad_potential
        )

    @cached_property
    def gap(self) -> float:
        """The energy gap I of this state (energy_gap), computed once, on first use."""
        return energy_gap(self)


def _constraint_lambda(g: np.ndarray, r: np.ndarray, *W: np.ndarray) -> np.ndarray:
    """Top eigenvalue of g (x) g / r - W for traceless W given as (p, s) terms,
    subtracted in turn: half |g|^2 / r + hypot of the traceless remainder."""
    dev = deviatoric_outer(g, r)
    for term in W:
        dev -= term
    return 0.5 * (g[:, 0] ** 2 + g[:, 1] ** 2) / r + np.hypot(dev[:, 0], dev[:, 1])


@dataclass(frozen=True)
class CertificateReport:
    passed: bool
    margin: np.ndarray  # (K+1, nx, ny)
    min_margin: float


def subsolution_certificate(sub: SubsolutionState) -> CertificateReport:
    """Pointwise margin E - delta - lambda_max[g (x) g / h - F - M], where the
    top eigenvalue of g (x) g / h - dev is half |g|^2 / h + hypot(p, s) for the
    traceless dev = (p, s).

    Passes iff the margin is strictly positive everywhere.  A margin that is
    not finite everywhere aborts rather than certify.  g is formed per node
    chunk; the margin is returned whole.
    """
    E, g, h = sub.kinetic_energy, sub.momentum, sub.problem.height
    margin = np.empty(E.shape)
    # an overflow or inf - inf gives a margin that is not finite: aborts below
    with np.errstate(over="ignore", invalid="ignore"):
        for k in _node_chunks(0, E.shape[0], E[0].size):
            lam = _constraint_lambda(g[k], h[k], sub.flux[k], sub.stress[k])
            np.subtract(E[k] - sub.delta, lam, out=margin[k])
    if not np.all(np.isfinite(margin)):
        raise NumericalAbort("certificate margin is not finite everywhere")
    return CertificateReport(
        passed=bool(np.all(margin > 0.0)), margin=margin, min_margin=float(np.min(margin))
    )


def energy_gap(sub: SubsolutionState) -> float:
    """Space-time integral of half |g|^2 / h - E (trapezoid in time).

    Nonpositive for every certified subsolution; zero exactly on solutions.
    A gap that overflows (an energy offset or a momentum near the float range)
    aborts.  The node means of the integrand are taken per node chunk.
    """
    E, g, h = sub.kinetic_energy, sub.momentum, sub.problem.height
    means = np.empty(E.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):  # such a gap aborts just below
        for k in _node_chunks(0, E.shape[0], E[0].size):
            gk = g[k]
            means[k] = (0.5 * (gk[:, 0] ** 2 + gk[:, 1] ** 2) / h[k] - E[k]).mean(axis=(1, 2))
        gap = float(np.trapezoid(means, sub.problem.times))
    if not math.isfinite(gap):
        raise NumericalAbort(f"energy gap I is not finite (I = {gap})")
    return gap


def transport_residual(sub: SubsolutionState) -> float:
    """Max residual of the linear constraint d(velocity)/dt + div(flux) = 0,
    with the discrete time stencil; interior nodes only, in the node chunks
    of solve_stress.  A residual that is not finite aborts."""
    with np.errstate(over="ignore", invalid="ignore"):  # rejected just below
        dv = time_derivative(sub.velocity, sub.problem.dt)
        chunks = _node_chunks(1, dv.shape[0] - 1, dv[0, 0].size)
        worst = [
            np.max(np.abs(dv[k] + spectral.div_traceless_values(sub.flux[k]))) for k in chunks
        ]
        residual = float(np.max(worst))
    if not math.isfinite(residual):
        raise NumericalAbort(f"transport residual is not finite (dt = {sub.problem.dt:.3e})")
    return residual


# ---------------------------------------------------------------------------
# problem container and the energy-offset search


@dataclass(frozen=True)
class WorkbenchProblem(Scenario):
    """A scenario plus the inputs of the subsolution pipeline: num_steps
    time steps on [0, T], the certificate margin delta, the height-excursion
    budget amplitude_cap and the oscillation frequency osc_n of improvement
    steps.  The scenario's cfl and n_output are the solver's and unused here.

    The time nodes, the height design, the potential psi and grad(psi) do not
    depend on the energy offset, so they are derived once per problem (cached
    properties, psi and grad(psi) per node chunk) and shared, unmodified, by
    every candidate, which holds the problem itself.
    """

    num_steps: int = 64
    delta: float = 0.1
    amplitude_cap: float = 0.25
    osc_n: int = 8

    def __post_init__(self):
        super().__post_init__()
        # written so that NaN fails the range checks
        if not self.T > 0.0:
            raise InvalidValueError(f"workbench T must be finite and positive, got {self.T}")
        if self.num_steps < 2:
            raise InvalidValueError(
                f"workbench needs at least 2 time steps, got {self.num_steps}"
            )
        # checked before the (num_steps + 1, nx, ny) stacks are allocated
        cells = (self.num_steps + 1) * self.grid.nx * self.grid.ny
        if cells > fields.MAX_CELLS:
            raise InvalidValueError(
                f"workbench {self.num_steps} time steps on a {self.grid.nx}x{self.grid.ny} grid "
                f"need {cells} space-time cells, more than {fields.MAX_CELLS}"
            )
        if not 0.0 < self.delta < np.inf:
            raise InvalidValueError(f"margin delta must be finite and positive, got {self.delta}")
        if not 0.0 < self.amplitude_cap < 1.0:
            raise InvalidValueError(
                f"amplitude_cap must lie in (0, 1), got {self.amplitude_cap}"
            )
        if self.osc_n < 1:  # the message of oscillatory_pair, which also checks it
            raise InvalidValueError(
                f"oscillation frequency n must be a positive integer, got {self.osc_n}"
            )

    @cached_property
    def initial_split(self) -> spectral.HelmholtzParts:
        """q0 = v0 + V0 + grad(psi0) for the initial momentum q0 = h0 u0."""
        return spectral.helmholtz_decompose(self.initial_state().q)

    @cached_property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.num_steps + 1)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @cached_property
    def height(self) -> np.ndarray:
        psi0 = self.initial_split.psi
        return design_height(self.h0, psi0, self.times, self.amplitude_cap)

    @cached_property
    def potential(self) -> np.ndarray:
        return stream_potential(self.height, self.dt)

    @cached_property
    def grad_potential(self) -> np.ndarray:
        psi = self.potential
        out = np.empty((psi.shape[0], 2, *psi.shape[1:]))
        for k in _node_chunks(0, psi.shape[0], psi[0].size):
            out[k] = spectral.grad_values(psi[k])
        return out

    def build(self, offset: float) -> SubsolutionState:
        """Assemble the candidate with velocity frozen at v0 and zero flux.

        Only E, the drag coefficient, V and M depend on the offset.
        """
        offset = float(offset)
        E = kinetic_energy_field(offset, self.a, self.height, self.potential, self.dt)
        # read-only views of the one v0 slice at every node and of a zero flux
        v = np.broadcast_to(self.initial_split.v, (self.times.size, 2, *self.grid.shape))
        return self.candidate(offset, E, v, np.broadcast_to(0.0, v.shape), self.delta)

    def candidate(
        self, offset: float, E: np.ndarray, v: np.ndarray, flux: np.ndarray, delta: float
    ) -> SubsolutionState:
        """The candidate with energy level E (built from `offset`), velocity v,
        flux and margin delta, closed by the drag of E, the mean momentum V
        from V(0) = Vmean and the stress M for that velocity."""
        drag = drag_coefficient(E, self.height, self.friction, offset)
        V = solve_mean_momentum(
            v, drag, self.grad_potential, self.height, self.f,
            self.initial_split.Vmean, self.dt,
        )
        M = solve_stress(v, V, drag, self.grad_potential, self.height, self.f)
        return SubsolutionState(self, offset, E, v, flux, V, M, delta)


def find_energy_offset(problem: WorkbenchProblem) -> float:
    """Smallest constant energy offset whose candidate certifies, bisected to
    a relative width of 1e-3 and multiplied by a safety factor of 1.1.  The
    search starts from the bracket a max(h0)^2 + delta, doubled until it
    certifies; a bracket that is not finite aborts."""

    def passes(lam: float) -> bool:
        try:
            return subsolution_certificate(problem.build(lam)).passed
        except EnergyPositivityError:
            return False

    lo = 0.0
    with np.errstate(over="ignore"):  # such a bracket aborts just below
        hi = float(problem.a * np.max(problem.h0) ** 2 + problem.delta)
    if not math.isfinite(hi):
        raise NumericalAbort(f"energy offset bracket a max(h0)^2 + delta is not finite ({hi})")
    for _ in range(60):
        if passes(hi):
            break
        lo = hi
        hi *= 2.0
    else:
        raise NumericalAbort("energy offset search hit its cap without certifying")
    while hi - lo > 1e-3 * hi:
        mid = 0.5 * (lo + hi)
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return 1.1 * hi


# ---------------------------------------------------------------------------
# oscillatory perturbations


def _bump_derivs(xi: np.ndarray, order: int) -> np.ndarray:
    """exp(1 - 1/(1 - xi^2)) (order 0) or its derivative (order 1), zero outside."""
    inside = np.abs(xi) < 1.0
    x = np.where(inside, xi, 0.0)
    gsafe = 1.0 - x * x
    with np.errstate(over="ignore"):
        b = np.where(inside, np.exp(1.0 - 1.0 / gsafe), 0.0)
    return b if order == 0 else np.where(inside, b * (-2.0 * x / gsafe**2), 0.0)


@dataclass(frozen=True)
class SpaceTimeBox:
    """Open box (t_lo, t_hi) x (x_lo, x_hi) x (y_lo, y_hi) inside (0,T) x Omega."""

    t_lo: float
    t_hi: float
    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float

    def __post_init__(self):
        for lo, hi in ((self.t_lo, self.t_hi), (self.x_lo, self.x_hi), (self.y_lo, self.y_hi)):
            if not lo < hi:
                raise InvalidValueError("box bounds must satisfy lo < hi")


@dataclass(frozen=True)
class OscillatoryPair:
    """Compactly supported perturbation (w, G) of a subsolution."""

    w: np.ndarray
    G: np.ndarray
    amplitude: float
    degenerate: bool = False


@dataclass(frozen=True)
class _WavePotential:
    """Scalar potential phi = A chi_t(t) chi_x(x) chi_y(y) sin(omega t + theta(x)).

    The pair is derived through one scalar potential,
        w = perp-grad(Lap(phi)),   G = (-2 d1 d2, d1^2 - d2^2) applied to dphi/dt,
    for which div w = 0 and dw/dt + div G = 0 are operator identities.  The
    spatial derivatives are taken with the discrete spectral operators, so the
    discrete divergence vanishes to roundoff and the transport identity holds
    exactly in continuous time (the only residual a centered time stencil sees
    is its own O(dt^2) truncation).  Time factors are analytic, so slices
    outside the box are exactly zero; spatial support is exact up to the
    spectral tail of the C-infinity bump.
    """

    box: SpaceTimeBox
    eta_x: tuple[float, float]
    n: int
    omega: float

    def _bump(self, u: np.ndarray, lo: float, hi: float, order: int) -> np.ndarray:
        xi = (2.0 * u - lo - hi) / (hi - lo)
        return _bump_derivs(xi, order) * (2.0 / (hi - lo)) ** order

    def evaluate(self, times: np.ndarray, grid: TorusGrid, amplitude: float):
        """Sampled (w, G) arrays, shapes (K+1, 2, nx, ny) each.

        sin(theta + omega t) = sin(theta) cos(omega t) + cos(theta) sin(omega t),
        so phi and dphi/dt are scalar-time combinations of the two fixed fields
        S = chi_xy sin(theta) and C = chi_xy cos(theta), differentiated once.
        """
        b = self.box
        e1, e2 = self.eta_x
        kmag = 2.0 * np.pi * self.n * math.hypot(e1, e2)
        A = amplitude / kmag**3

        x1, x2 = grid.cell_coordinates()
        chi_xy = np.outer(self._bump(x1, b.x_lo, b.x_hi, 0), self._bump(x2, b.y_lo, b.y_hi, 0))
        theta = 2.0 * np.pi * self.n * (e1 * x1[:, None] + e2 * x2[None, :])
        gX = spectral.grad_values(chi_xy * np.stack([np.sin(theta), np.cos(theta)]))
        H = spectral.grad_values(gX)  # H[j, i, l] = d_l d_i of field j
        glap = spectral.grad_values(H[:, 0, 0] + H[:, 1, 1])
        # per field: w-part (d2 Lap, -d1 Lap) and G-part (-2 d1 d2, d1^2 - d2^2)
        w_part = np.stack([glap[:, 1], -glap[:, 0]], axis=1)
        G_part = np.stack([-2.0 * H[:, 0, 1], H[:, 0, 0] - H[:, 1, 1]], axis=1)

        # phi = A chi_t (cos S + sin C), so dphi/dt = A (dchi_t cos - omega chi_t sin) S
        # + A (dchi_t sin + omega chi_t cos) C, with cos, sin of omega t
        chi_t = self._bump(times, b.t_lo, b.t_hi, 0)
        dchi_t = self._bump(times, b.t_lo, b.t_hi, 1)
        c, s = np.cos(self.omega * times), np.sin(self.omega * times)
        a = A * chi_t[:, None] * np.stack([c, s], axis=1)
        d = A * np.stack(
            [dchi_t * c - self.omega * chi_t * s, dchi_t * s + self.omega * chi_t * c], axis=1
        )
        return np.einsum("kj,j...->k...", a, w_part), np.einsum("kj,j...->k...", d, G_part)


_DIRECTIONS = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -1.0))


def _box_mask(times: np.ndarray, grid: TorusGrid, box: SpaceTimeBox) -> np.ndarray:
    x1, x2 = grid.cell_coordinates()
    mt = (times > box.t_lo) & (times < box.t_hi)
    m1 = (x1 > box.x_lo) & (x1 < box.x_hi)
    m2 = (x2 > box.y_lo) & (x2 < box.y_hi)
    return mt[:, None, None] & m1[None, :, None] & m2[None, None, :]


def oscillatory_pair(
    times: np.ndarray,
    grid: TorusGrid,
    g: np.ndarray,
    W: np.ndarray,
    r: np.ndarray,
    e: np.ndarray,
    n: int,
    box: SpaceTimeBox,
    seed: int = 0,
) -> OscillatoryPair:
    """Compactly supported oscillation preserving the pointwise constraint.

    g (momentum) and W (traceless) are (K+1, 2, nx, ny) stacks and r (height)
    and e (energy level) (K+1, nx, ny) stacks on the nodes `times`; g, W and
    e may also be `_NodeSum`s, which form each node chunk on demand.  The pair
    comes from a single plane-wave potential with a smooth cutoff:
    the wave direction lies in the cone b . eta_x = 0, the amplitude is
    halved, at most 60 times, until lambda_max[(g+w)(x)(g+w)/r - (W+G)] < e
    survives on the whole box.  A vanishing constraint gap yields the zero
    perturbation with the degenerate flag set instead of an error.

    Every check runs per node chunk; only the box mask, the padded level
    e_pad and the pair itself are whole stacks.  A backtracking test stops
    at the first chunk that fails.
    """
    if n < 1:
        raise InvalidValueError(f"oscillation frequency n must be a positive integer, got {n}")
    if np.any(r <= 0.0):
        raise ConstraintError("oscillatory pair requires r > 0")
    chunks = _node_chunks(0, times.size, grid.nx * grid.ny)
    mask = _box_mask(times, grid, box)
    e_pad = np.empty(r.shape)  # e on the box, lambda0 (padded below) off it
    gaps, e_max = [], []
    for k in chunks:
        e_k, in_box = e[k], mask[k]
        lam0 = _constraint_lambda(g[k], r[k], W[k])
        if np.any((lam0 >= e_k) & in_box):
            raise ConstraintError("constraint lambda_max[...] < e fails on the support box")
        gaps.append(np.min(np.where(in_box, e_k - lam0, np.inf)))
        e_max.append(np.max(np.abs(e_k)))
        e_pad[k] = np.where(in_box, e_k, lam0)

    gap = float(np.min(gaps))  # NaN-propagating, as the whole-stack minimum
    shape = (times.size, 2, *grid.shape)
    zero = lambda: OscillatoryPair(  # noqa: E731
        w=np.zeros(shape), G=np.zeros(shape), amplitude=0.0, degenerate=True
    )
    if not np.isfinite(gap) or gap <= 1e-12 * float(np.max(e_max) + 1.0):
        return zero()

    rng = np.random.default_rng(seed)
    e1, e2 = _DIRECTIONS[rng.integers(len(_DIRECTIONS))]
    # temporal frequency independent of n: the spatial oscillation sharpens as
    # n grows while the time sampling burden stays fixed
    omega = float(rng.uniform(2.0, 6.0))
    wave = _WavePotential(box, (e1, e2), n, omega)

    amp = 0.5 * math.sqrt(gap * float(np.min(r)))
    if amp == math.inf:  # gap min(r) overflows: no pair is sized, as for a vanishing gap
        return zero()
    # outside the box only the spectral tail of the cutoff remains, so the
    # padded level (half the box gap above lambda0) is a strict check there
    np.add(e_pad, 0.5 * gap, out=e_pad, where=~mask)
    w, G = wave.evaluate(times, grid, amp)
    for _ in range(60):
        if all(
            np.all(_constraint_lambda(g[k] + w[k], r[k], W[k] + G[k]) < e_pad[k]) for k in chunks
        ):
            return OscillatoryPair(w=w, G=G, amplitude=amp)
        # halving by a power of two is exact, so this is evaluate(amp / 2) bitwise
        amp *= 0.5
        w *= 0.5
        G *= 0.5
    return zero()


# ---------------------------------------------------------------------------
# improvement loop


@dataclass(frozen=True)
class ImprovementReport:
    """Outcome of one improvement step."""

    accepted: bool
    note: str


def improvement_step(
    sub: SubsolutionState, seed: int = 0
) -> tuple[SubsolutionState, ImprovementReport]:
    """One convex-integration improvement: perturb (velocity, flux) with an
    oscillatory pair of the problem's frequency osc_n, supported in
    (0.15 T, 0.85 T) x (0.1, 0.9)^2 and generated at energy level E - delta/2,
    recompute the mean momentum and stress for the perturbed velocity, and
    re-certify at the halved margin.
    Rejected steps leave the state unchanged.  g, W = flux + M and the level
    E - delta/2 are formed per node chunk, never as stacks."""
    if sub.gap >= -1e-14:
        return sub, ImprovementReport(False, "zero gap")
    prob = sub.problem
    box = SpaceTimeBox(0.15 * prob.T, 0.85 * prob.T, 0.1, 0.9, 0.1, 0.9)

    E = sub.kinetic_energy
    level = _NodeSum(E, np.broadcast_to(-0.5 * sub.delta, E.shape))  # E - delta/2 bitwise
    pair = oscillatory_pair(
        prob.times, prob.grid, sub.momentum, _NodeSum(sub.flux, sub.stress), prob.height,
        level, prob.osc_n, box, seed,
    )
    if pair.degenerate:
        return sub, ImprovementReport(False, "degenerate gap")

    # v + w and flux + G are written over the pair, which is not used again
    candidate = prob.candidate(
        sub.energy_offset, E, np.add(sub.velocity, pair.w, out=pair.w),
        np.add(sub.flux, pair.G, out=pair.G), 0.5 * sub.delta,
    )
    if not subsolution_certificate(candidate).passed:
        return sub, ImprovementReport(False, "re-certification failed")
    if candidate.gap <= sub.gap:
        return sub, ImprovementReport(False, "gap did not improve")
    return candidate, ImprovementReport(True, "")
