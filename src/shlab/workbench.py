"""Subsolution workbench.

Mechanizes the construction behind the non-uniqueness result: pick a height
history compatible with the initial data, recover the potential and kinetic
energy budget, close the mean-momentum ODE and the deviatoric stress solve,
certify membership in the subsolution set (pointwise eigenvalue constraint
with margin delta), and push the energy-gap functional towards zero with
compactly supported oscillatory perturbations.

Every space-time quantity is a bare (K+1, ...) numpy stack whose axis 0 runs
over the uniform time nodes t_0 = 0, ..., t_K = T of the problem's `times`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
from .fields import (
    ScalarField,
    TorusGrid,
    VectorField,
    deviatoric_outer,
    lambda_max_traceless,
    time_derivative,
)
from .friction import FrictionParams, friction_coefficient_values

E_MIN_FACTOR = 1e-6
MASS_DRIFT_TOL = 1e-10


# ---------------------------------------------------------------------------
# height design and derived fields


def design_height(
    h0: ScalarField,
    psi0: ScalarField,
    times: np.ndarray,
    amplitude_cap: float = 0.25,
) -> np.ndarray:
    """Choose a positive height history h(t) = h0 + s(t) g on the nodes.

    g = -Lap(psi0) is mean-zero, so total mass is constant; s(0) = 0 and
    s'(0) = 1 match the initial data and its first time derivative.  The
    profile s(t) = tau (1 - exp(-t/tau)) is bounded by tau, which is sized so
    the excursion never exceeds amplitude_cap * min h0.
    """
    if not 0.0 < amplitude_cap < 1.0:
        raise DesignError("amplitude_cap must lie in (0, 1)")
    if np.any(h0.values <= 0.0):
        raise DesignError("height design requires h0 > 0")
    g = -spectral.laplacian_values(psi0.values)
    gmax = float(np.max(np.abs(g)))
    if gmax == 0.0:
        return np.broadcast_to(h0.values, (times.size, *h0.grid.shape)).copy()
    tau = amplitude_cap * float(np.min(h0.values)) / gmax
    if tau < 1e-8:
        raise DesignError(
            f"height excursion budget too small (tau = {tau:.3e}); "
            "increase amplitude_cap or smooth psi0"
        )
    s = tau * (1.0 - np.exp(-times / tau))
    values = h0.values[None] + s[:, None, None] * g[None]
    if np.any(values <= 0.0):
        raise DesignError("designed height lost positivity")
    return values


def stream_potential(h: np.ndarray, dt: float) -> np.ndarray:
    """Mean-zero potential with -Lap(psi(t)) = dh/dt per time slice."""
    mass = h.mean(axis=(1, 2))
    if float(np.max(np.abs(mass - mass[0]))) > MASS_DRIFT_TOL:
        raise SolvabilityError("height mass drifts in time; potential undefined")
    dh = time_derivative(h, dt)
    return spectral.poisson_solve_values(dh - dh.mean(axis=(1, 2), keepdims=True))


def kinetic_energy_field(
    offset: float, a: float, h: np.ndarray, psi: np.ndarray, dt: float
) -> np.ndarray:
    """Kinetic-energy budget E(t, x) = offset - a h^2 - d(psi)/dt."""
    return offset - a * h**2 - time_derivative(psi, dt)


def drag_coefficient(
    E: np.ndarray, h: np.ndarray, friction: FrictionParams, offset: float
) -> np.ndarray | None:
    """(K+1, nx, ny) stack of the linear friction coefficient gamma sqrt(h/2E)
    (+ extended term), or None without friction.  Raises if E, the budget
    built from the energy offset, dips below the floor E_MIN_FACTOR |offset|."""
    if not friction.active:
        return None
    e_min = E_MIN_FACTOR * abs(offset)
    e_low = float(np.min(E))
    if e_low < e_min:
        raise EnergyPositivityError(
            f"kinetic energy floor violated: min E = {e_low:.3e} < {e_min:.3e}"
        )
    return friction_coefficient_values(h, E, friction)


def solve_mean_momentum(
    v: np.ndarray,
    drag: np.ndarray | None,
    grad_psi: np.ndarray,
    h: np.ndarray,
    f: VectorField | None,
    V0,
    dt: float,
) -> np.ndarray:
    """Spatial-mean momentum component V(t) from its linear ODE.

    dV/dt = mean(drag) V + mean(drag (v + grad psi) + h f), V(0) = V0, with
    v and grad psi (K+1, 2, nx, ny) stacks on the nodes of h, dt apart, and
    drag the linear friction coefficient stack (None without friction).
    Classical 4th-order one-step integration on the uniform nodes; the half
    steps read the linear interpolant of the node data, the mean of the two
    neighbours.
    """
    coef = np.zeros_like(h) if drag is None else drag
    cbar = coef.mean(axis=(1, 2))
    rhs = coef[:, None] * (v + grad_psi)
    if f is not None:
        rhs = rhs + h[:, None] * f.values[None]
    bbar = rhs.mean(axis=(2, 3))  # (K+1, 2)
    cmid = 0.5 * (cbar[:-1] + cbar[1:])
    bmid = 0.5 * (bbar[:-1] + bbar[1:])

    V = np.empty((h.shape[0], 2))
    V[0] = np.asarray(V0, dtype=float)
    for k in range(h.shape[0] - 1):
        k1 = cbar[k] * V[k] + bbar[k]
        k2 = cmid[k] * (V[k] + dt / 2 * k1) + bmid[k]
        k3 = cmid[k] * (V[k] + dt / 2 * k2) + bmid[k]
        k4 = cbar[k + 1] * (V[k] + dt * k3) + bbar[k + 1]
        V[k + 1] = V[k] + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return V


def solve_stress(
    v: np.ndarray,
    V: np.ndarray,
    drag: np.ndarray | None,
    grad_psi: np.ndarray,
    h: np.ndarray,
    f: VectorField | None,
) -> np.ndarray:
    """Deviatoric stress corrector M(t) with div M equal to the mean-free part
    of the friction-plus-force right-hand side, mean-zero per slice.  The
    arguments are those of solve_mean_momentum plus its solution V."""
    out = np.zeros((h.shape[0], 2, *h.shape[1:]))
    for k in range(h.shape[0]):
        rhs = np.zeros((2, *h.shape[1:]))
        if drag is not None:
            term = drag[k][None] * (v[k] + V[k][:, None, None] + grad_psi[k])
            rhs -= term - term.mean(axis=(1, 2))[:, None, None]
        if f is not None:
            force = h[k][None] * f.values
            rhs += force - force.mean(axis=(1, 2))[:, None, None]
        if np.any(rhs != 0.0):
            out[k] = spectral.korn_solve_values(rhs)
    return out


# ---------------------------------------------------------------------------
# subsolution state and certificate


@dataclass(frozen=True)
class SubsolutionState:
    """Full record of one candidate subsolution.

    Each stack samples the uniform nodes `times`: height h and
    kinetic_energy E are (K+1, nx, ny); grad_potential grad(psi), velocity
    the divergence-free mean-zero part, flux its space-time companion and
    stress the corrector M are (K+1, 2, nx, ny), the last two as traceless
    (p, s) pairs.  mean_momentum is the (K+1, 2) V(t) series and delta the
    certified margin.
    """

    grid: TorusGrid
    times: np.ndarray
    a: float
    friction: FrictionParams
    force: VectorField | None
    height: np.ndarray
    grad_potential: np.ndarray
    energy_offset: float
    kinetic_energy: np.ndarray
    velocity: np.ndarray
    flux: np.ndarray
    mean_momentum: np.ndarray
    stress: np.ndarray
    delta: float

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def total_momentum_stack(self) -> np.ndarray:
        """v + V + grad(psi) sampled at every node, shape (K+1, 2, nx, ny)."""
        return self.velocity + self.mean_momentum[:, :, None, None] + self.grad_potential


@dataclass(frozen=True)
class CertificateReport:
    passed: bool
    margin: np.ndarray  # (K+1, nx, ny)
    min_margin: float
    pointwise_bound_holds: bool


def subsolution_certificate(sub: SubsolutionState) -> CertificateReport:
    """Pointwise margin E - delta - lambda_max[g (x) g / h - F - M].

    Passes iff the margin is strictly positive everywhere.  Also re-checks the
    eigenvalue lower bound: half |g|^2 / h never exceeds the lambda_max term.
    A margin that is not finite everywhere aborts rather than certify.
    """
    g = sub.total_momentum_stack()
    h = sub.height
    dev = deviatoric_outer(g, h) - sub.flux - sub.stress
    half_speed = 0.5 * (g[:, 0] ** 2 + g[:, 1] ** 2) / h
    lam = half_speed + lambda_max_traceless(dev[:, 0], dev[:, 1])
    margin = sub.kinetic_energy - sub.delta - lam
    if not np.all(np.isfinite(margin)):
        raise NumericalAbort("certificate margin is not finite everywhere")
    bound_ok = bool(np.all(half_speed <= lam + 1e-12 * (1.0 + np.abs(lam))))
    return CertificateReport(
        passed=bool(np.all(margin > 0.0)),
        margin=margin,
        min_margin=float(np.min(margin)),
        pointwise_bound_holds=bound_ok,
    )


def energy_gap(sub: SubsolutionState) -> float:
    """Space-time integral of half |g|^2 / h - E (trapezoid in time).

    Nonpositive for every certified subsolution; zero exactly on solutions.
    A gap that overflows (an energy offset near the float range) aborts.
    """
    g = sub.total_momentum_stack()
    integrand = 0.5 * (g[:, 0] ** 2 + g[:, 1] ** 2) / sub.height - sub.kinetic_energy
    with np.errstate(over="ignore"):  # a gap that overflows aborts just below
        gap = float(np.trapezoid(integrand.mean(axis=(1, 2)), sub.times))
    if not math.isfinite(gap):
        raise NumericalAbort(f"energy gap I is not finite (I = {gap})")
    return gap


def transport_residual(sub: SubsolutionState) -> float:
    """Max residual of the linear constraint d(velocity)/dt + div(flux) = 0,
    with the discrete time stencil; interior nodes only."""
    dv = time_derivative(sub.velocity, sub.dt)[1:-1]
    return float(np.max(np.abs(dv + spectral.div_traceless_values(sub.flux[1:-1]))))


# ---------------------------------------------------------------------------
# problem container and the energy-offset search


@dataclass(frozen=True)
class WorkbenchProblem:
    """Scenario-level inputs for the subsolution pipeline.

    The time nodes, the height design, the potential psi and grad(psi) do not
    depend on the energy offset, so they are derived once per problem (cached
    properties) and shared, unmodified, by every candidate that build returns.
    """

    grid: TorusGrid
    T: float
    num_steps: int
    a: float
    friction: FrictionParams
    h0: ScalarField
    u0: VectorField
    force: VectorField | None = None
    delta: float = 0.1
    amplitude_cap: float = 0.25

    def __post_init__(self):
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
        # written so that NaN fails both range checks
        if not 0.0 < self.delta < np.inf:
            raise InvalidValueError(f"margin delta must be finite and positive, got {self.delta}")
        if not 0.0 < self.amplitude_cap < 1.0:
            raise InvalidValueError(
                f"amplitude_cap must lie in (0, 1), got {self.amplitude_cap}"
            )

    @cached_property
    def initial_split(self) -> spectral.HelmholtzParts:
        """q0 = v0 + V0 + grad(psi0) for the initial momentum q0 = h0 u0."""
        q0 = VectorField(self.grid, self.h0.values * self.u0.values)
        return spectral.helmholtz_decompose(q0)

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
        return spectral.grad_values(self.potential)

    def build(self, offset: float) -> SubsolutionState:
        """Assemble the candidate with velocity frozen at v0 and zero flux.

        Only E, the drag coefficient, V and M depend on the offset.
        """
        offset = float(offset)
        parts, height = self.initial_split, self.height
        E = kinetic_energy_field(offset, self.a, height, self.potential, self.dt)
        drag = drag_coefficient(E, height, self.friction, offset)
        # read-only view of the one v0 slice at every node
        v = np.broadcast_to(parts.v.values, (self.times.size, 2, *self.grid.shape))
        V = solve_mean_momentum(
            v, drag, self.grad_potential, height, self.force, parts.Vmean, self.dt
        )
        M = solve_stress(v, V, drag, self.grad_potential, height, self.force)
        return SubsolutionState(
            grid=self.grid,
            times=self.times,
            a=self.a,
            friction=self.friction,
            force=self.force,
            height=height,
            grad_potential=self.grad_potential,
            energy_offset=offset,
            kinetic_energy=E,
            velocity=v,
            flux=np.zeros(v.shape),
            mean_momentum=V,
            stress=M,
            delta=self.delta,
        )


def find_energy_offset(problem: WorkbenchProblem) -> float:
    """Smallest constant energy offset whose candidate certifies, bisected to
    a relative width of 1e-3 and multiplied by a safety factor of 1.1."""

    def passes(lam: float) -> bool:
        try:
            return subsolution_certificate(problem.build(lam)).passed
        except EnergyPositivityError:
            return False

    lo = 0.0
    hi = float(problem.a * np.max(problem.h0.values) ** 2 + problem.delta)
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
    n: int
    box: SpaceTimeBox
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

        x1 = (np.arange(grid.nx) + 0.5) * grid.dx
        x2 = (np.arange(grid.ny) + 0.5) * grid.dy
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
    x1 = (np.arange(grid.nx) + 0.5) * grid.dx
    x2 = (np.arange(grid.ny) + 0.5) * grid.dy
    mt = (times > box.t_lo) & (times < box.t_hi)
    m1 = (x1 > box.x_lo) & (x1 < box.x_hi)
    m2 = (x2 > box.y_lo) & (x2 < box.y_hi)
    return mt[:, None, None] & m1[None, :, None] & m2[None, None, :]


def _constraint_lambda(g: np.ndarray, r: np.ndarray, W: np.ndarray) -> np.ndarray:
    dev = deviatoric_outer(g, r) - W
    return 0.5 * (g[:, 0] ** 2 + g[:, 1] ** 2) / r + lambda_max_traceless(dev[:, 0], dev[:, 1])


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
    and e (energy level) (K+1, nx, ny) stacks on the nodes `times`.  The pair
    comes from a single plane-wave potential with a smooth cutoff:
    the wave direction lies in the cone b . eta_x = 0, the amplitude is
    halved, at most 60 times, until lambda_max[(g+w)(x)(g+w)/r - (W+G)] < e
    survives on the whole box.  A vanishing constraint gap yields the zero
    perturbation with the degenerate flag set instead of an error.
    """
    if n < 1:
        raise InvalidValueError(f"oscillation frequency n must be a positive integer, got {n}")
    if np.any(r <= 0.0):
        raise ConstraintError("oscillatory pair requires r > 0")
    lam0 = _constraint_lambda(g, r, W)
    mask = _box_mask(times, grid, box)
    if np.any((lam0 >= e) & mask):
        raise ConstraintError("constraint lambda_max[...] < e fails on the support box")

    gap = float(np.min(np.where(mask, e - lam0, np.inf)))
    zero = lambda: OscillatoryPair(  # noqa: E731
        w=np.zeros(g.shape), G=np.zeros(g.shape), n=n, box=box, amplitude=0.0, degenerate=True
    )
    if not np.isfinite(gap) or gap <= 1e-12 * float(np.max(np.abs(e)) + 1.0):
        return zero()

    rng = np.random.default_rng(seed)
    e1, e2 = _DIRECTIONS[rng.integers(len(_DIRECTIONS))]
    # temporal frequency independent of n: the spatial oscillation sharpens as
    # n grows while the time sampling burden stays fixed
    omega = float(rng.uniform(2.0, 6.0))
    wave = _WavePotential(box, (e1, e2), n, omega)

    amp = 0.5 * math.sqrt(gap * float(np.min(r)))
    e_pad = np.where(mask, e, lam0 + 0.5 * gap)
    w, G = wave.evaluate(times, grid, amp)
    for _ in range(60):
        lam = _constraint_lambda(g + w, r, W + G)
        # outside the box only the spectral tail of the cutoff remains, so the
        # padded level (half the box gap above lambda0) is a strict check there
        if np.all(lam < e_pad):
            return OscillatoryPair(w=w, G=G, n=n, box=box, amplitude=amp)
        # halving by a power of two is exact, so this is evaluate(amp / 2) bitwise
        amp *= 0.5
        w *= 0.5
        G *= 0.5
    return zero()


# ---------------------------------------------------------------------------
# improvement loop


@dataclass(frozen=True)
class ImprovementReport:
    accepted: bool
    gap_before: float
    gap_after: float
    delta_after: float
    note: str = ""


def improvement_step(
    sub: SubsolutionState, seed: int = 0, n: int = 8
) -> tuple[SubsolutionState, ImprovementReport]:
    """One convex-integration improvement: perturb (velocity, flux) with an
    oscillatory pair supported in (0.15 T, 0.85 T) x (0.1, 0.9)^2 and
    generated at energy level E - delta/2, recompute the mean momentum and
    stress for the perturbed velocity, and re-certify at the halved margin.
    Rejected steps leave the state unchanged."""
    gap_before = energy_gap(sub)
    if gap_before >= -1e-14:
        return sub, ImprovementReport(False, gap_before, gap_before, sub.delta, "zero gap")
    T = float(sub.times[-1])
    box = SpaceTimeBox(0.15 * T, 0.85 * T, 0.1, 0.9, 0.1, 0.9)

    g_stack = sub.total_momentum_stack()
    W = sub.flux + sub.stress
    e_level = sub.kinetic_energy - 0.5 * sub.delta
    pair = oscillatory_pair(sub.times, sub.grid, g_stack, W, sub.height, e_level, n, box, seed)
    # freed before the solves and the re-certification, which set the peak memory
    del g_stack, W, e_level
    if pair.degenerate:
        return sub, ImprovementReport(
            False, gap_before, gap_before, sub.delta, "degenerate gap"
        )

    v_new = sub.velocity + pair.w
    flux_new = sub.flux + pair.G
    try:
        drag = drag_coefficient(sub.kinetic_energy, sub.height, sub.friction, sub.energy_offset)
    except EnergyPositivityError as exc:
        return sub, ImprovementReport(False, gap_before, gap_before, sub.delta, str(exc))
    V_new = solve_mean_momentum(
        v_new, drag, sub.grad_potential, sub.height, sub.force, sub.mean_momentum[0], sub.dt
    )
    M_new = solve_stress(v_new, V_new, drag, sub.grad_potential, sub.height, sub.force)

    candidate = replace(
        sub,
        velocity=v_new,
        flux=flux_new,
        mean_momentum=V_new,
        stress=M_new,
        delta=0.5 * sub.delta,
    )
    report = subsolution_certificate(candidate)
    if not report.passed:
        return sub, ImprovementReport(
            False, gap_before, gap_before, sub.delta, "re-certification failed"
        )
    gap_after = energy_gap(candidate)
    if gap_after <= gap_before:
        return sub, ImprovementReport(
            False, gap_before, gap_before, sub.delta, "gap did not improve"
        )
    return candidate, ImprovementReport(True, gap_before, gap_after, candidate.delta)
