"""Subsolution workbench: height design, auxiliary solves, certificate,
oscillatory perturbations, and the improvement loop."""

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import sample
from shlab import cli, spectral, workbench
from shlab.errors import (
    ConstraintError,
    DesignError,
    EnergyPositivityError,
    InvalidValueError,
    NumericalAbort,
    PositivityError,
)
from shlab.fields import TorusGrid, deviatoric_outer, time_derivative
from shlab.friction import FrictionParams, friction_coefficient_values
from shlab.spectral import div_traceless_values, div_values, grad_values, korn_solve_values
from shlab.workbench import (
    SpaceTimeBox,
    SubsolutionState,
    WorkbenchProblem,
    energy_gap,
    find_energy_offset,
    height_profile,
    improvement_step,
    kinetic_energy_field,
    oscillatory_pair,
    solve_mean_momentum,
    solve_stress,
    subsolution_certificate,
    transport_residual,
)

TWO_PI = 2.0 * np.pi


def canonical_problem(grid, num_steps=32, gamma=0.3, delta=0.1):
    return WorkbenchProblem(
        grid=grid,
        T=1.0,
        num_steps=num_steps,
        a=0.5,
        friction=FrictionParams(gamma=gamma),
        h0=sample(grid, 1.0),
        u0=sample(grid, 0.0, 0.0),
        delta=delta,
    )


def nodes(T, num_steps):
    return np.linspace(0.0, T, num_steps + 1)


def sampled(grid, fn):
    """(nx, ny) samples of fn at the cell centers."""
    x1, x2 = grid.cell_centers()
    return fn(x1, x2) + np.zeros(grid.shape)


def cosine_psi0(grid, eps=1e-3):
    return sampled(grid, lambda x1, x2: eps * np.cos(TWO_PI * x1))


def cosine_problem(grid, eps=1e-3, T=1.0, num_steps=16):
    """A frictionless problem whose initial potential is psi0 = eps cos(2 pi x1):
    q0 = grad(psi0) = -2 pi eps sin(2 pi x1) e1 on the height h0 = 1."""
    return WorkbenchProblem(
        grid=grid,
        T=T,
        num_steps=num_steps,
        a=0.5,
        friction=FrictionParams(),
        h0=sample(grid, 1.0),
        u0=sample(grid, lambda x1, x2: -TWO_PI * eps * np.sin(TWO_PI * x1), 0.0),
    )


def excursion_time(prob):
    """tau = amplitude_cap min h0 / max|g| of the designed profile."""
    return prob.amplitude_cap * float(np.min(prob.h0)) / float(np.max(np.abs(prob.excursion)))


class TestDesignHeight:
    def test_zero_potential_keeps_h0(self, grid32):
        h0 = sampled(grid32, lambda x1, x2: 1.0 + 0.1 * np.sin(TWO_PI * x2))
        # g = 0 leaves no excursion to bound: tau = inf and the limit s(t) = t
        s = height_profile(h0, np.full(grid32.shape, 0.0), nodes(1.0, 8), 0.25)
        assert s.tobytes() == nodes(1.0, 8).tobytes()
        prob = replace(canonical_problem(grid32, num_steps=8), h0=h0)  # at rest: psi0 = 0
        for k in range(prob.times.size):
            np.testing.assert_array_equal(prob.height[k], h0)

    def test_cosine_potential_closed_form(self, grid32):
        eps = 1e-3
        prob = cosine_problem(grid32, eps)
        psi0 = prob.initial_split.psi
        np.testing.assert_allclose(psi0, cosine_psi0(grid32, eps), atol=1e-15)
        # spectral oracle for g = -Lap(psi0); the excursion budget is set from
        # its sampled maximum
        g = prob.excursion
        np.testing.assert_allclose(
            g, TWO_PI**2 * eps * np.cos(TWO_PI * grid32.cell_centers()[0]), atol=1e-12
        )
        tau = 0.25 * 1.0 / float(np.max(np.abs(g)))
        for k in (0, 8, 16):
            t = prob.times[k]
            s = tau * (1.0 - np.exp(-t / tau))
            np.testing.assert_allclose(prob.height[k], 1.0 + s * g, atol=1e-12)
        assert np.all(prob.height > 0.0)
        # the height is h0 + s g, whole-stack bitwise
        assert prob.height.tobytes() == (prob.h0 + prob.profile[:, None, None] * g).tobytes()

    def test_profile_has_no_cancellation_at_small_t(self):
        # tau (1 - exp(-t/tau)) loses every digit once t/tau is below the
        # rounding of 1; the profile is t (1 - x/2 + x^2/6 - ...), x = t/tau,
        # to the last bit
        times = np.array([0.0, 1e-20, 1e-12, 1e-6])
        g = np.array([[1.0, -1.0]])
        s = height_profile(np.ones((1, 2)), g, times, 0.25)
        assert s[0] == 0.0 and s[1] == 1e-20
        x = times[2:] / 0.25  # t / tau
        np.testing.assert_allclose(s[2:], times[2:] * (1.0 - x / 2.0 + x * x / 6.0), rtol=1e-15)

    def test_mass_is_constant(self, grid32):
        prob = cosine_problem(grid32, 0.01, T=2.0, num_steps=12)
        prob = replace(prob, h0=sampled(grid32, lambda x1, x2: 1.0 + 0.3 * np.cos(TWO_PI * x2)))
        masses = [float(np.mean(prob.height[k])) for k in range(prob.times.size)]
        np.testing.assert_allclose(masses, masses[0], atol=1e-12)

    def test_rejects_nonpositive_h0(self, grid32):
        # a nonpositive min h0 leaves no excursion budget
        g = -spectral.laplacian_values(cosine_psi0(grid32))
        with pytest.raises(DesignError):
            height_profile(np.full(grid32.shape, -1.0), g, nodes(1.0, 8), 0.25)

    def test_rejects_bad_cap(self, grid32):
        # the cap is an input of the problem, checked when the problem is built
        with pytest.raises(InvalidValueError, match="amplitude_cap"):
            replace(canonical_problem(grid32), amplitude_cap=1.5)


def _load_workloads():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def poisson_per_node(h, dt):
    """Reference potential: one Poisson solve of dh/dt - mean per time node."""
    dh = time_derivative(h, dt)
    return np.stack(
        [spectral.poisson_solve_values(d - d.mean()) for d in dh]
    )


def separable_potential(prob):
    """psi(t_k) = (Ds)_k psi0, whole stack."""
    rate = time_derivative(prob.profile, prob.dt)
    return rate[:, None, None] * prob.initial_split.psi


class TestSeparablePotential:
    """psi(t_k) = (Ds)_k psi0 solves -Lap(psi) = dh/dt for the designed height
    h0 + s g, up to rounding, with no Poisson solve of the height stack."""

    def test_flat_data_has_zero_potential(self, grid32):
        prob = canonical_problem(grid32, num_steps=8)  # at rest: psi0 = 0 and g = 0
        assert not np.any(prob.initial_split.psi) and not np.any(prob.excursion)
        assert not np.any(prob.grad_potential)
        E = prob.build(0.7).kinetic_energy
        assert E.tobytes() == (0.7 - prob.a * prob.height**2).tobytes()

    def test_designed_height_analytic_potential(self, grid32):
        eps = 1e-3
        prob = cosine_problem(grid32, eps, num_steps=64)
        tau = excursion_time(prob)
        gpsi0 = grad_values(prob.initial_split.psi)
        psi = separable_potential(prob)
        for k in (0, 32, 64):
            t = prob.times[k]
            # psi = s'(t) psi0 = exp(-t/tau) psi0 to the stencil's O(dt^2), and
            # grad(psi) 2 pi times larger
            exact = np.exp(-t / tau)
            np.testing.assert_allclose(psi[k], exact * cosine_psi0(grid32, eps), atol=1e-8)
            np.testing.assert_allclose(prob.grad_potential[k], exact * gpsi0, atol=TWO_PI * 1e-8)

    def test_initial_slice_recovers_psi0(self, grid32):
        prob = cosine_problem(grid32, 1e-3, num_steps=64)
        np.testing.assert_allclose(
            separable_potential(prob)[0], prob.initial_split.psi, atol=1e-8
        )

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_matches_the_per_node_poisson_solve(self, tmp_path, seed):
        # the benchmark's workbench-32 problem at its seed
        workloads = _load_workloads()
        scn = tmp_path / "wb.scn"
        scn.write_text(
            workloads.scenario_text("workbench-32", seed, workloads.FULL["workbench-32"])
        )
        prob = cli.load_config(scn).to_workbench_problem()
        psi = poisson_per_node(prob.height, prob.dt)
        assert np.abs(separable_potential(prob) - psi).max() <= 1e-12 * np.abs(psi).max()
        gpsi = grad_values(psi)
        assert np.abs(prob.grad_potential - gpsi).max() <= 1e-12 * np.abs(gpsi).max()

    def test_huge_height_keeps_its_constant_mass(self, tmp_path, capsys):
        # the mass of h0 + s g is constant by construction; a check of its
        # rounding against an absolute 1e-10 aborted this run with exit 3
        scn = tmp_path / "wb.scn"
        scn.write_text(
            "grid.nx = 8\ngrid.ny = 8\nphysics.T = 1.0\nfriction.gamma = 0.2\n"
            "workbench.delta = 0.05\nworkbench.time_nodes = 8\n"
            "initial.h0 = 1e6*(1 + 0.05*cos(2*pi*x1 + 3.4))\n"
            "initial.u0x = 0.1*sin(2*pi*x2 + 3.8)\n"
            "initial.u0y = 0.05*cos(2*pi*x1 + 0.3)*sin(2*pi*x2 + 1.1)\n"
        )
        assert cli.main(["workbench", str(scn), "--steps", "0", "--out", str(tmp_path / "wb")]) == 0
        assert capsys.readouterr().err == ""


class TestKineticEnergyField:
    def test_constant_budget(self, grid32):
        h, psi0 = np.ones((5, 32, 32)), np.zeros((32, 32))
        E = kinetic_energy_field(1.0, 0.5, h, psi0, np.linspace(0.0, 1.0, 5), 0.25)
        np.testing.assert_allclose(E, 0.5, atol=1e-14)

    def test_zero_budget(self, grid32):
        h, psi0 = np.ones((5, 32, 32)), np.zeros((32, 32))
        E = kinetic_energy_field(0.5, 0.5, h, psi0, np.linspace(0.0, 1.0, 5), 0.25)
        np.testing.assert_allclose(E, 0.0, atol=1e-14)

    def test_time_varying_potential_enters(self, grid32):
        eps = 1e-3
        prob = cosine_problem(grid32, eps, num_steps=64)
        E = kinetic_energy_field(
            1.0, 0.5, prob.height, prob.initial_split.psi, prob.profile, prob.dt
        )
        tau = excursion_time(prob)
        k = 32
        t = prob.times[k]
        s = tau * (1.0 - np.exp(-t / tau))
        h_k = 1.0 + s * prob.excursion
        dpsi_k = -np.exp(-t / tau) / tau * cosine_psi0(grid32, eps)
        np.testing.assert_allclose(E[k], 1.0 - 0.5 * h_k**2 - dpsi_k, atol=1e-7)


def no_drag(h):
    """The drag of a frictionless problem: a read-only stack of +0 on the nodes of h."""
    return np.broadcast_to(0.0, h.shape)


def test_frictionless_drag_is_a_zero_stack():
    # gamma = gamma2 = 0 has no energy floor to check: E < 0 passes
    E = np.full((3, 4, 4), -1.0)
    drag = workbench.drag_coefficient(E, np.ones(E.shape), FrictionParams(), offset=1.0)
    assert drag.shape == E.shape and drag.tobytes() == bytes(drag.nbytes)
    with pytest.raises(EnergyPositivityError, match="floor"):
        workbench.drag_coefficient(E, np.ones(E.shape), FrictionParams(gamma=0.1), offset=1.0)


class TestMeanMomentum:
    def setup_fields(self, grid, K=32, E0=0.5):
        times = np.linspace(0.0, 1.0, K + 1)
        h = np.ones((K + 1, *grid.shape))
        zero = np.zeros((K + 1, 2, *grid.shape))  # v and grad psi
        E = np.full((K + 1, *grid.shape), E0)
        return times, h, zero, E

    def test_frictionless_unforced_is_constant(self, grid32):
        times, h, zero, _ = self.setup_fields(grid32)
        V = solve_mean_momentum(zero, no_drag(h), zero, h, None, (0.3, -0.1), times[1])
        np.testing.assert_allclose(V, np.tile([0.3, -0.1], (V.shape[0], 1)), atol=1e-14)

    def test_pure_quadrature_of_force(self, grid32):
        times, h, zero, _ = self.setup_fields(grid32)
        f = sample(grid32, 1.0, 0.0)
        V = solve_mean_momentum(zero, no_drag(h), zero, h, f, (0.0, 0.0), times[1])
        np.testing.assert_allclose(V[:, 0], times, atol=1e-12)
        np.testing.assert_allclose(V[:, 1], 0.0, atol=1e-14)

    def test_exponential_growth_oracle(self, grid32):
        # gamma sqrt(h/2E) = 1 => dV/dt = V, so V(t) = V0 e^t
        times, h, zero, E = self.setup_fields(grid32, K=64)
        drag = friction_coefficient_values(h, E, FrictionParams(gamma=1.0))
        V = solve_mean_momentum(zero, drag, zero, h, None, (1.0, 2.0), times[1])
        np.testing.assert_allclose(V[:, 0], np.exp(times), rtol=1e-8)
        np.testing.assert_allclose(V[:, 1], 2.0 * np.exp(times), rtol=1e-8)


def rk4_with_interp(v, drag, grad_psi, h, f, V0, times):
    """Reference mean-momentum RK4 that reads the node data at every stage time
    through np.interp."""
    cbar = drag.mean(axis=(1, 2))
    rhs = drag[:, None] * (v + grad_psi)
    if f is not None:
        rhs = rhs + h[:, None] * f[None]
    bbar = rhs.mean(axis=(2, 3))

    def rate(t, V):
        b = np.array([np.interp(t, times, bbar[:, d]) for d in range(2)])
        return np.interp(t, times, cbar) * V + b

    V = np.empty((times.size, 2))
    V[0] = V0
    dt = float(times[1] - times[0])
    for k in range(times.size - 1):
        t = times[k]
        k1 = rate(t, V[k])
        k2 = rate(t + dt / 2, V[k] + dt / 2 * k1)
        k3 = rate(t + dt / 2, V[k] + dt / 2 * k2)
        k4 = rate(t + dt, V[k] + dt * k3)
        V[k + 1] = V[k] + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return V


@pytest.mark.parametrize("seed", range(6))
def test_mean_momentum_matches_interp_rk4(seed):
    rng = np.random.default_rng(seed)
    grid = TorusGrid(*rng.choice([8, 12, 16], size=2))
    K = int(rng.integers(2, 40))
    times = np.linspace(0.0, float(rng.uniform(0.1, 3.0)), K + 1)
    shape = (K + 1, *grid.shape)
    h = rng.uniform(0.5, 1.5, shape)
    drag = no_drag(h) if seed == 0 else rng.uniform(0.0, 2.0, shape)
    v, grad_psi = rng.standard_normal((2, K + 1, 2, *grid.shape))
    f = None if seed == 1 else rng.standard_normal((2, *grid.shape))
    V0 = rng.standard_normal(2)
    V = solve_mean_momentum(v, drag, grad_psi, h, f, V0, float(times[1] - times[0]))
    V_ref = rk4_with_interp(v, drag, grad_psi, h, f, V0, times)
    assert np.abs(V - V_ref).max() <= 1e-14 * np.abs(V_ref).max()


class TestStress:
    def setup_fields(self, grid, K=8):
        times = np.linspace(0.0, 1.0, K + 1)
        h = np.ones((K + 1, *grid.shape))
        zero = np.zeros((K + 1, 2, *grid.shape))  # v and grad psi
        E = np.full((K + 1, *grid.shape), 0.5)
        return times, h, zero, E

    def test_constant_force_gives_zero(self, grid32):
        _, h, zero, _ = self.setup_fields(grid32)
        V = np.zeros((h.shape[0], 2))
        M = solve_stress(zero, V, no_drag(h), zero, h, sample(grid32, 2.0, -1.0))
        assert not np.any(M)

    def test_sine_force_forward_divergence(self, grid32):
        _, h, zero, _ = self.setup_fields(grid32)
        V = np.zeros((h.shape[0], 2))
        f = sample(
            grid32, lambda x1, x2: np.sin(TWO_PI * x2), lambda x1, x2: 0.0 * x1
        )
        M = solve_stress(zero, V, no_drag(h), zero, h, f)
        for k in (0, 4, 8):
            div_M = div_traceless_values(M[k])
            np.testing.assert_allclose(div_M, f, atol=1e-9)

    def test_full_rhs_forward_oracle(self, grid32, rng):
        times, h, zero, E = self.setup_fields(grid32)
        # random smooth velocity, nonzero mean momentum, friction + force
        x1, x2 = grid32.cell_centers()
        w = np.stack([np.sin(TWO_PI * x2), np.cos(TWO_PI * x1)]) * 0.1
        v = np.broadcast_to(w, (times.size, 2, 32, 32))
        V = np.tile([0.05, -0.02], (times.size, 1))
        drag = friction_coefficient_values(h, E, FrictionParams(gamma=0.4))
        f = sample(
            grid32, lambda x1, x2: 0.2 * np.cos(TWO_PI * x1), lambda x1, x2: 0.0 * x1
        )
        M = solve_stress(v, V, drag, zero, h, f)
        coef = 0.4 * np.sqrt(1.0 / (2.0 * 0.5))  # gamma sqrt(h/2E) = 0.4
        for k in (0, 8):
            term = coef * (v[k] + V[k][:, None, None])
            rhs = -(term - term.mean(axis=(1, 2))[:, None, None])
            rhs = rhs + f - f.mean(axis=(1, 2))[:, None, None]
            np.testing.assert_allclose(div_traceless_values(M[k]), rhs, atol=1e-9)

    def test_grad_potential_enters_the_drag(self, grid32):
        times, h, zero, E = self.setup_fields(grid32)
        x1, _ = grid32.cell_centers()
        gpsi = np.zeros_like(zero)
        gpsi[:, 0] = 0.1 * np.sin(TWO_PI * x1)
        drag = friction_coefficient_values(h, E, FrictionParams(gamma=0.4))
        M = solve_stress(zero, np.zeros((times.size, 2)), drag, gpsi, h, None)
        # drag = 0.4, so div M = -0.4 grad psi
        for k in (0, 8):
            np.testing.assert_allclose(div_traceless_values(M[k]), -0.4 * gpsi[k], atol=1e-9)


def nonflat_problem(grid, num_steps=8):
    return WorkbenchProblem(
        grid=grid,
        T=1.0,
        num_steps=num_steps,
        a=0.5,
        friction=FrictionParams(gamma=0.2),
        h0=sample(grid, lambda x1, x2: 1.0 + 0.05 * np.cos(TWO_PI * x1)),
        u0=sample(
            grid, lambda x1, x2: 0.1 * np.sin(TWO_PI * x2), lambda x1, x2: 0.0 * x1
        ),
        f=sample(grid, 0.1, 0.0),
        delta=0.05,
    )


class TestBuildReuse:
    """build derives the offset-independent fields once per problem."""

    STATE_ARRAYS = ("kinetic_energy", "velocity", "flux", "stress")

    def test_rebuild_is_bitwise_equal_to_a_fresh_build(self, grid32):
        prob = nonflat_problem(grid32)
        lam = find_energy_offset(prob)
        improvement_step(prob.build(lam), seed=0)
        prob.build(2.0 * lam)
        again = prob.build(lam)
        fresh = nonflat_problem(grid32).build(lam)
        for name in self.STATE_ARRAYS:
            assert getattr(again, name).tobytes() == getattr(fresh, name).tobytes()
        assert again.problem.height.tobytes() == fresh.problem.height.tobytes()
        assert again.problem.grad_potential.tobytes() == fresh.problem.grad_potential.tobytes()
        assert again.mean_momentum.tobytes() == fresh.mean_momentum.tobytes()
        assert again.energy_offset == fresh.energy_offset == lam

    def test_second_build_reuses_the_potential(self, grid32, monkeypatch):
        calls = []
        real = workbench.height_profile
        monkeypatch.setattr(
            workbench, "height_profile", lambda *args: calls.append(args) or real(*args)
        )
        prob = nonflat_problem(grid32)
        prob.build(1.2)
        grad = prob.grad_potential
        prob.build(1.5)
        assert len(calls) == 1
        assert prob.grad_potential is grad

    def test_grad_potential_is_the_spectral_gradient(self, grid32):
        prob = nonflat_problem(grid32)
        sub = prob.build(1.2)
        rate = time_derivative(prob.profile, prob.dt)
        gpsi0 = grad_values(prob.initial_split.psi)
        for k in (0, 4, 8):
            np.testing.assert_array_equal(sub.problem.grad_potential[k], rate[k] * gpsi0)

    def test_too_few_time_steps_rejected(self, grid32):
        with pytest.raises(InvalidValueError, match="time steps"):
            nonflat_problem(grid32, num_steps=1)


GRID32 = TorusGrid(32, 32)


class TestProblemValidation:
    """A problem is a Scenario: a directly built one is checked as a scenario,
    then for the workbench's own inputs, each once."""

    @pytest.mark.parametrize(
        "changes,error,match",
        [
            ({"a": -1.0}, InvalidValueError, "pressure coefficient"),
            ({"a": 0.0}, InvalidValueError, "pressure coefficient"),
            ({"a": float("nan")}, InvalidValueError, "pressure coefficient"),
            ({"h0": sample(GRID32, 0.0)}, PositivityError, "h0 > 0"),
            (
                {"h0": np.cos(TWO_PI * GRID32.cell_centers()[0])},
                PositivityError,
                "h0 > 0",
            ),
            (
                {"friction": FrictionParams(gamma=sample(TorusGrid(16, 16), 0.2))},
                InvalidValueError,
                "friction gamma field lives on a different grid",
            ),
            ({"osc_n": 0}, InvalidValueError, "oscillation frequency"),
            ({"osc_n": -3}, InvalidValueError, "oscillation frequency"),
        ],
        ids=["a=-1", "a=0", "a=nan", "h0=0", "h0<0", "gamma-grid", "osc_n=0", "osc_n<0"],
    )
    def test_rejected_when_built(self, grid32, changes, error, match):
        with pytest.raises(error, match=match):
            replace(nonflat_problem(grid32), **changes)


def stress_per_node(v, V, drag, grad_psi, h, f):
    """Reference solve_stress: one Korn solve per time node, none where the
    right-hand side is exactly zero."""
    out = np.zeros((h.shape[0], 2, *h.shape[1:]))
    for k in range(h.shape[0]):
        rhs = np.zeros((2, *h.shape[1:]))
        term = drag[k][None] * (v[k] + V[k][:, None, None] + grad_psi[k])
        rhs -= term - term.mean(axis=(1, 2))[:, None, None]
        if f is not None:
            force = h[k][None] * f
            rhs += force - force.mean(axis=(1, 2))[:, None, None]
        if np.any(rhs != 0.0):
            out[k] = korn_solve_values(rhs)
    return out


def rk4_on_arrays(v, drag, grad_psi, h, f, V0, dt):
    """Reference solve_mean_momentum: the RK4 recurrence on (2,) arrays."""
    cbar = drag.mean(axis=(1, 2))
    rhs = drag[:, None] * (v + grad_psi)
    if f is not None:
        rhs = rhs + h[:, None] * f[None]
    bbar = rhs.mean(axis=(2, 3))
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


class TestChunkedSolves:
    """solve_stress (Korn solves on node chunks) and solve_mean_momentum (RK4
    on floats) equal their per-node and (2,)-array references bit for bit."""

    @staticmethod
    def assert_bitwise(v, drag, grad_psi, h, f, V0, dt):
        V = solve_mean_momentum(v, drag, grad_psi, h, f, V0, dt)
        assert V.tobytes() == rk4_on_arrays(v, drag, grad_psi, h, f, V0, dt).tobytes()
        M = solve_stress(v, V, drag, grad_psi, h, f)
        assert M.tobytes() == stress_per_node(v, V, drag, grad_psi, h, f).tobytes()
        return V, M

    @staticmethod
    def assert_state_bitwise(sub):
        prob = sub.problem
        drag = workbench.drag_coefficient(
            sub.kinetic_energy, prob.height, prob.friction, sub.energy_offset
        )
        V, M = TestChunkedSolves.assert_bitwise(
            sub.velocity, drag, prob.grad_potential, prob.height, prob.f,
            prob.initial_split.Vmean, prob.dt,
        )
        assert V.tobytes() == sub.mean_momentum.tobytes()
        assert M.tobytes() == sub.stress.tobytes()

    def test_workbench32_problem_built_and_improved(self, grid32):
        # the benchmark's workbench-32 physics: 65 nodes, 8 full chunks and one of 1
        prob = replace(nonflat_problem(grid32, num_steps=64), f=None)
        sub = prob.build(find_energy_offset(prob))
        self.assert_state_bitwise(sub)
        improved, report = improvement_step(sub, seed=0)
        assert report.accepted
        self.assert_state_bitwise(improved)

    @pytest.mark.parametrize(
        "gamma2,zero_nodes,forced",
        [
            (0.0, (), True),  # 13 nodes: one chunk of 8 and one of 5
            (0.0, (2, 5, 6, 11), False),  # zero right-hand sides inside chunks
            (0.1, (), True),  # the extended law
            (None, (), True),  # frictionless with force
        ],
        ids=["ragged", "zero-nodes", "extended", "frictionless-forced"],
    )
    def test_random_inputs(self, grid32, gamma2, zero_nodes, forced):
        rng = np.random.default_rng(7)
        shape = (13, *grid32.shape)
        h, E = rng.uniform(0.5, 1.5, (2, *shape))
        v, grad_psi = rng.standard_normal((2, 13, 2, *grid32.shape))
        drag = no_drag(h)
        if gamma2 is not None:
            params = FrictionParams(gamma=0.3, gamma2=gamma2)
            drag = friction_coefficient_values(h, E, params)
            drag[list(zero_nodes)] = 0.0
        f = rng.standard_normal((2, *grid32.shape)) if forced else None
        _, M = self.assert_bitwise(v, drag, grad_psi, h, f, rng.standard_normal(2), 0.05)
        if zero_nodes:
            assert not np.any(M[list(zero_nodes)])
            assert not np.any(np.signbit(M[list(zero_nodes)]))
            assert np.all(np.any(M[[1, 3, 12]] != 0.0, axis=(1, 2, 3)))

    @pytest.mark.parametrize("n,chunk", [(32, 8), (64, 2), (128, 1)])
    def test_chunk_length_follows_the_grid(self, monkeypatch, n, chunk):
        sizes = []
        real = spectral.korn_solve_values
        monkeypatch.setattr(
            spectral, "korn_solve_values", lambda rhs: sizes.append(rhs.shape[0]) or real(rhs)
        )
        grid = TorusGrid(n, n)
        rng = np.random.default_rng(n)
        h = rng.uniform(0.5, 1.5, (2 * chunk + 1, n, n))
        zero = np.zeros((h.shape[0], 2, n, n))
        f = rng.standard_normal((2, n, n))
        solve_stress(zero, np.zeros((h.shape[0], 2)), no_drag(h), zero, h, f)
        assert sizes == [chunk, chunk, 1]

    @pytest.mark.parametrize("n,num_steps", [(32, 12), (32, 64), (16, 40)])
    def test_transport_residual_equals_the_stacked_residual(self, n, num_steps):
        # 11, 63 and 39 interior nodes: never a whole number of chunks (8 at
        # 32^2, 32 at 16^2)
        grid = TorusGrid(n, n)
        sub = nonflat_problem(grid, num_steps).build(1.0)
        rng = np.random.default_rng(num_steps)
        v, flux = rng.standard_normal((2, num_steps + 1, 2, n, n))
        sub = replace(sub, velocity=v, flux=flux)
        dv = time_derivative(v, sub.problem.dt)[1:-1]
        stacked = np.max(np.abs(dv + div_traceless_values(flux[1:-1])))
        assert transport_residual(sub) == stacked
        # the worst node lies in each chunk in turn: still the stacked maximum
        for node in (1, 8, num_steps - 1):
            spiked = v.copy()
            spiked[node, 0, 3, 3] += 1e6
            sub = replace(sub, velocity=spiked)
            dv = time_derivative(spiked, sub.problem.dt)[1:-1]
            stacked = np.max(np.abs(dv + div_traceless_values(flux[1:-1])))
            assert transport_residual(sub) == stacked


class TestCertificateAndGap:
    def test_constant_margin_for_flat_data(self, grid32):
        prob = canonical_problem(grid32)
        sub = prob.build(0.7)
        rep = subsolution_certificate(sub)
        assert rep.passed
        np.testing.assert_allclose(rep.margin, 0.7 - 0.5 - 0.1, atol=1e-12)

    def test_offset_at_pressure_level_fails(self, grid32):
        # frictionless variant: the build succeeds (no friction coefficient to
        # blow up at E = 0) and the certificate rejects the zero margin
        sub = canonical_problem(grid32, gamma=0.0).build(0.5)
        assert not subsolution_certificate(sub).passed

    def test_friction_needs_positive_energy_budget(self, grid32):
        from shlab.errors import EnergyPositivityError

        with pytest.raises(EnergyPositivityError):
            canonical_problem(grid32, gamma=0.3).build(0.5)

    def test_min_margin_matches_brute_force_scan(self, grid32):
        prob = WorkbenchProblem(
            grid=grid32,
            T=1.0,
            num_steps=8,
            a=0.5,
            friction=FrictionParams(gamma=0.2),
            h0=sample(
                grid32, lambda x1, x2: 1.0 + 0.05 * np.cos(TWO_PI * x1)
            ),
            u0=sample(
                grid32, lambda x1, x2: 0.1 * np.sin(TWO_PI * x2), lambda x1, x2: 0.0 * x1
            ),
            delta=0.05,
        )
        sub = prob.build(1.2)
        rep = subsolution_certificate(sub)
        # independent scan with explicit 2x2 eigenvalues
        g = sub.momentum[:]
        worst = np.inf
        for k in range(0, prob.times.size, 2):
            for i in range(0, 32, 4):
                for j in range(0, 32, 4):
                    gv = g[k, :, i, j]
                    h = prob.height[k, i, j]
                    outer = np.outer(gv, gv) / h
                    dev = outer - 0.5 * np.trace(outer) * np.eye(2)
                    W = np.array(
                        [
                            [sub.flux[k, 0, i, j], sub.flux[k, 1, i, j]],
                            [sub.flux[k, 1, i, j], -sub.flux[k, 0, i, j]],
                        ]
                    ) + np.array(
                        [
                            [sub.stress[k, 0, i, j], sub.stress[k, 1, i, j]],
                            [sub.stress[k, 1, i, j], -sub.stress[k, 0, i, j]],
                        ]
                    )
                    lam = 0.5 * (gv @ gv) / h + np.linalg.eigvalsh(dev - W)[-1]
                    m = sub.kinetic_energy[k, i, j] - sub.delta - lam
                    worst = min(worst, m)
        sampled = rep.margin[::2, ::4, ::4]
        assert abs(float(sampled.min()) - worst) < 1e-10

    def test_non_finite_margin_aborts(self, grid32):
        sub = canonical_problem(grid32).build(0.7)
        E = sub.kinetic_energy.copy()
        E[1, 2, 3] = np.inf
        with pytest.raises(NumericalAbort, match="margin is not finite"):
            subsolution_certificate(replace(sub, kinetic_energy=E))

    def test_overflowing_gap_aborts(self, grid32):
        sub = canonical_problem(grid32).build(0.7)
        huge = np.full_like(sub.kinetic_energy, 1e308)
        with np.errstate(over="ignore"), pytest.raises(NumericalAbort, match="energy gap I"):
            energy_gap(replace(sub, kinetic_energy=huge))

    def test_gap_for_flat_data(self, grid32):
        sub = canonical_problem(grid32).build(0.7)
        # g = 0, E = offset - a h^2 = 0.2: I = -0.2
        assert energy_gap(sub) == pytest.approx(-0.2, abs=1e-12)

    def test_certified_state_has_negative_gap(self, grid32):
        prob = canonical_problem(grid32)
        lam = find_energy_offset(prob)
        sub = prob.build(lam)
        assert subsolution_certificate(sub).passed
        gap = energy_gap(sub)
        assert gap < 0.0
        # |I| dominated by the integrated margin plus delta
        min_margin = subsolution_certificate(sub).min_margin
        assert -gap >= min_margin


class TestFindEnergyOffset:
    def test_canonical_value(self, grid32):
        lam = find_energy_offset(canonical_problem(grid32))
        assert lam == pytest.approx(1.1 * 0.6, rel=0.02)

    def test_doubling_delta_raises_at_most_proportionally(self, grid32):
        lam1 = find_energy_offset(canonical_problem(grid32, delta=0.1))
        lam2 = find_energy_offset(canonical_problem(grid32, delta=0.2))
        assert lam2 > lam1
        assert lam2 - lam1 <= 1.1 * 0.1 + 0.01

    def test_nonzero_velocity_self_oracle(self, grid32):
        prob = WorkbenchProblem(
            grid=grid32,
            T=1.0,
            num_steps=16,
            a=0.5,
            friction=FrictionParams(gamma=0.2),
            h0=sample(grid32, 1.0),
            u0=sample(
                grid32, lambda x1, x2: 0.2 * np.sin(TWO_PI * x2), lambda x1, x2: 0.0 * x1
            ),
            delta=0.1,
        )
        lam = find_energy_offset(prob)
        assert subsolution_certificate(prob.build(lam)).passed
        assert not subsolution_certificate(prob.build(lam / 1.2)).passed


def lemma_inputs(grid, K=32, T=1.0):
    """Time nodes and the background g = 0, W = 0, r = 1, e = 1."""
    times = np.linspace(0.0, T, K + 1)
    Z = np.zeros((K + 1, 2, *grid.shape))
    return times, Z, Z.copy(), np.ones((K + 1, *grid.shape)), np.ones((K + 1, *grid.shape))


CENTERED_BOX = SpaceTimeBox(0.15, 0.85, 0.1, 0.9, 0.1, 0.9)


def wave_per_node(wave, times, grid, amplitude):
    """Reference (w, G) of a wave potential: six transforms of phi and dphi/dt
    at each node, with the Nyquist-zeroed wavenumbers of the spectral layer."""
    b = wave.box
    e1, e2 = wave.eta_x
    A = amplitude / (TWO_PI * wave.n * np.hypot(e1, e2)) ** 3
    x1 = (np.arange(grid.nx) + 0.5) * grid.dx
    x2 = (np.arange(grid.ny) + 0.5) * grid.dy
    chi_t = wave._bump(times, b.t_lo, b.t_hi, 0)
    dchi_t = wave._bump(times, b.t_lo, b.t_hi, 1)
    chi_xy = np.outer(wave._bump(x1, b.x_lo, b.x_hi, 0), wave._bump(x2, b.y_lo, b.y_hi, 0))
    theta = TWO_PI * wave.n * (e1 * x1[:, None] + e2 * x2[None, :])
    k1 = TWO_PI * np.fft.fftfreq(grid.nx, d=1.0 / grid.nx)[:, None]
    k2 = TWO_PI * np.fft.fftfreq(grid.ny, d=1.0 / grid.ny)[None, :]
    k1[grid.nx // 2] = 0.0
    k2[:, grid.ny // 2] = 0.0
    k2sum = k1 * k1 + k2 * k2
    w = np.zeros((times.size, 2, *grid.shape))
    G = np.zeros_like(w)
    for k in range(times.size):
        if chi_t[k] == 0.0 and dchi_t[k] == 0.0:
            continue
        sin, cos = np.sin(theta + wave.omega * times[k]), np.cos(theta + wave.omega * times[k])
        ph = np.fft.fft2(A * chi_t[k] * chi_xy * sin)
        dph = np.fft.fft2(A * chi_xy * (dchi_t[k] * sin + chi_t[k] * wave.omega * cos))
        w[k, 0] = np.fft.ifft2(-1j * k2 * k2sum * ph).real
        w[k, 1] = np.fft.ifft2(1j * k1 * k2sum * ph).real
        G[k, 0] = np.fft.ifft2(2.0 * k1 * k2 * dph).real
        G[k, 1] = np.fft.ifft2((k2 * k2 - k1 * k1) * dph).real
    return w, G


def random_wave(rng):
    box = SpaceTimeBox(
        rng.uniform(0.0, 0.4), rng.uniform(0.6, 1.0),
        rng.uniform(0.0, 0.3), rng.uniform(0.7, 1.0),
        rng.uniform(0.0, 0.3), rng.uniform(0.7, 1.0),
    )
    eta = workbench._DIRECTIONS[rng.integers(len(workbench._DIRECTIONS))]
    return workbench._WavePotential(box, eta, int(rng.integers(1, 9)), rng.uniform(2.0, 6.0))


class TestWavePotential:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_node_transforms(self, seed):
        rng = np.random.default_rng(seed)
        grid = TorusGrid(*rng.choice([16, 24, 32, 40], size=2))
        times = np.linspace(0.0, 1.0, int(rng.integers(8, 33)) + 1)
        wave = random_wave(rng)
        amp = rng.uniform(0.1, 2.0)
        w, G = wave.evaluate(times, grid, amp)
        w_ref, G_ref = wave_per_node(wave, times, grid, amp)
        assert w.shape == G.shape == (times.size, 2, *grid.shape)
        assert np.abs(w - w_ref).max() <= 1e-12 * np.abs(w_ref).max()
        assert np.abs(G - G_ref).max() <= 1e-12 * np.abs(G_ref).max()

    def test_halved_amplitude_is_half_bitwise(self):
        rng = np.random.default_rng(7)
        wave = random_wave(rng)
        times = np.linspace(0.0, 1.0, 17)
        grid = TorusGrid(32, 16)
        w, G = wave.evaluate(times, grid, 0.3)
        w2, G2 = wave.evaluate(times, grid, 0.15)
        assert np.array_equal(w2, 0.5 * w)
        assert np.array_equal(G2, 0.5 * G)


class TestOscillatoryPair:
    def test_no_gap_degenerates_to_zero(self, grid32):
        times, g, W, r, e = lemma_inputs(grid32, K=8)
        tight = np.full_like(e, 1e-15)
        pair = oscillatory_pair(times, grid32, g, W, r, tight, 8, CENTERED_BOX)
        assert pair.degenerate
        assert not np.any(pair.w)
        assert not np.any(pair.G)

    @pytest.mark.parametrize("n", [0, -3])
    def test_nonpositive_frequency_rejected(self, grid32, n):
        times, g, W, r, e = lemma_inputs(grid32, K=8)
        with pytest.raises(InvalidValueError, match="frequency"):
            oscillatory_pair(times, grid32, g, W, r, e, n, CENTERED_BOX)

    def test_violated_constraint_rejected(self, grid32):
        times, g, W, r, e = lemma_inputs(grid32, K=8)
        with pytest.raises(ConstraintError):
            oscillatory_pair(times, grid32, g, W, r, -np.ones_like(e), 8, CENTERED_BOX)

    def test_backtracked_pair_is_the_wave_at_its_amplitude(self, grid32, monkeypatch):
        waves = []
        evaluate = workbench._WavePotential.evaluate

        def spy(self, *args):
            waves.append(self)
            return evaluate(self, *args)

        monkeypatch.setattr(workbench._WavePotential, "evaluate", spy)
        times, g, W, r, e = lemma_inputs(grid32, K=16)
        pair = oscillatory_pair(times, grid32, g, W, r, e, 1, CENTERED_BOX, seed=0)
        assert len(waves) == 1 and pair.amplitude == 0.125  # halved twice from 0.5
        w, G = evaluate(waves[0], times, grid32, pair.amplitude)
        assert np.array_equal(pair.w, w)
        assert np.array_equal(pair.G, G)

    def test_centered_box_invariants(self, grid64):
        times, g, W, r, e = lemma_inputs(grid64, K=32)
        pair = oscillatory_pair(times, grid64, g, W, r, e, 8, CENTERED_BOX, seed=0)
        w, G = pair.w, pair.G
        assert not pair.degenerate
        assert float(np.mean(w[:, 0] ** 2 + w[:, 1] ** 2)) > 0.0
        # discrete divergence vanishes to roundoff
        for k in range(0, 33, 4):
            assert np.abs(div_values(w[k])).max() < 1e-9
        # the perturbed constraint survives everywhere
        lam = 0.5 * (w[:, 0] ** 2 + w[:, 1] ** 2) / r + np.hypot(
            (w[:, 0] ** 2 - w[:, 1] ** 2) / (2 * r) - G[:, 0],
            w[:, 0] * w[:, 1] / r - G[:, 1],
        )
        assert np.all(lam < e)
        # slices are mean-zero and time support is exactly compact
        assert np.abs(w.mean(axis=(2, 3))).max() < 1e-12
        outside_t = (times <= 0.15) | (times >= 0.85)
        assert not np.any(w[outside_t])
        # spatial leakage outside the box sits at the spectral-tail level
        x = (np.arange(64) + 0.5) / 64
        inside = (x > 0.1) & (x < 0.9)
        out_mask = ~(inside[:, None] & inside[None, :])
        assert np.abs(w[:, :, out_mask]).max() < 1e-2 * np.abs(w).max()

    def test_transport_residual_is_second_order_in_dt(self, grid64):
        resids = []
        for K in (64, 128):
            times, g, W, r, e = lemma_inputs(grid64, K=K)
            pair = oscillatory_pair(times, grid64, g, W, r, e, 8, CENTERED_BOX, seed=0)
            w, G = pair.w, pair.G
            dt = 1.0 / K
            dw = (w[2:] - w[:-2]) / (2 * dt)
            dG = np.array([div_traceless_values(G[k]) for k in range(K + 1)])
            resids.append(float(np.abs(dw + dG[1:-1]).max()))
        assert np.log2(resids[0] / resids[1]) > 1.5

    def test_weak_decay_doubling(self, grid64):
        times, g, W, r, e = lemma_inputs(grid64, K=32)
        x = (np.arange(64) + 0.5) / 64
        phi = np.sin(TWO_PI * x)[:, None] * np.cos(TWO_PI * x)[None, :]
        prev = None
        for n in (8, 16):
            pair = oscillatory_pair(times, grid64, g, W, r, e, n, CENTERED_BOX, seed=0)
            series = (pair.w[:, 0] * phi).mean(axis=(1, 2))
            pairing = abs(np.trapezoid(series, times))
            if prev is not None:
                assert pairing <= prev / 2.0
            prev = pairing


class TestImprovementStep:
    def test_pair_frequency_is_the_problems_osc_n(self, grid32, monkeypatch):
        seen = []
        real = workbench.oscillatory_pair
        monkeypatch.setattr(
            workbench, "oscillatory_pair", lambda *args: seen.append(args[6]) or real(*args)
        )
        prob = replace(nonflat_problem(grid32), osc_n=3)
        improvement_step(prob.build(find_energy_offset(prob)), seed=0)
        assert seen == [3]

    def test_zero_gap_state_unchanged(self, grid32):
        prob = canonical_problem(grid32, num_steps=8)
        sub = prob.build(0.7)
        # force E identically equal to the realized kinetic energy (both zero)
        flat = replace(sub, kinetic_energy=np.zeros_like(sub.kinetic_energy))
        out, report = improvement_step(flat, seed=0)
        assert not report.accepted
        assert report.note == "zero gap"
        assert out is flat
        assert out.gap == energy_gap(out)

    def test_degenerate_pair_state_unchanged(self, grid32):
        sub = canonical_problem(grid32, num_steps=8).build(0.7)
        # the level E - delta/2 sits 1e-13 above the constraint lambda = 0 of g = 0
        thin = replace(sub, kinetic_energy=np.full_like(sub.kinetic_energy, 0.05 + 1e-13))
        out, report = improvement_step(thin, seed=0)
        assert (report.accepted, report.note) == (False, "degenerate gap")
        assert out is thin
        assert out.gap == energy_gap(out)

    def test_failed_recertification_state_unchanged(self, grid32):
        prob = WorkbenchProblem(
            grid=grid32,
            T=1.0,
            num_steps=8,
            a=0.5,
            friction=FrictionParams(gamma=0.3),
            h0=sample(grid32, 1.0),
            u0=sample(grid32, 0.3, 0.0),
            delta=0.1,
        )
        sub = prob.build(0.8)
        # the pair is sized for V = 0, but the candidate's V starts at Vmean = (0.3, 0),
        # whose lambda 0.09 exceeds the level E - delta/2 = 0.05
        wrong = replace(
            sub,
            mean_momentum=np.zeros_like(sub.mean_momentum),
            kinetic_energy=np.full_like(sub.kinetic_energy, 0.1),
        )
        out, report = improvement_step(wrong, seed=0)
        assert (report.accepted, report.note) == (False, "re-certification failed")
        assert out is wrong
        assert out.gap == energy_gap(out)

    def test_one_step_strictly_increases_gap(self, grid32):
        prob = canonical_problem(grid32)
        sub = prob.build(find_energy_offset(prob))
        before = energy_gap(sub)
        new, report = improvement_step(sub, seed=0)
        assert report.accepted
        assert energy_gap(new) > before
        assert new.gap == energy_gap(new)
        assert subsolution_certificate(new).passed
        assert new.delta == pytest.approx(0.5 * sub.delta)
        # the candidate shares the problem's offset-independent arrays
        assert new.problem.height is prob.height
        assert new.problem.grad_potential is prob.grad_potential

    def test_five_steps_are_monotone(self, grid32):
        prob = canonical_problem(grid32)
        sub = prob.build(find_energy_offset(prob))
        gaps = [energy_gap(sub)]
        for k in range(5):
            sub, report = improvement_step(sub, seed=k)
            gaps.append(energy_gap(sub))
        diffs = np.diff(gaps)
        assert np.all(diffs >= 0.0)
        assert np.any(diffs > 0.0)

    def test_each_gap_is_computed_once(self, grid32, monkeypatch):
        """Reading the gap of every state of five steps, as shlab workbench
        does, computes the first state's gap once and then one gap per
        candidate that passes its certificate, and nothing else."""
        prob = canonical_problem(grid32)
        sub = prob.build(find_energy_offset(prob))
        computed, certified = [], []
        real_gap, real_certificate = workbench.energy_gap, workbench.subsolution_certificate

        def certificate(state):
            report = real_certificate(state)
            certified.append(report.passed)
            return report

        monkeypatch.setattr(workbench, "energy_gap", lambda s: computed.append(s) or real_gap(s))
        monkeypatch.setattr(workbench, "subsolution_certificate", certificate)
        states = [sub]
        for k in range(5):
            sub, _ = improvement_step(sub, seed=k)
            states.append(sub)
        gaps = [state.gap for state in states]
        assert len(certified) == 5
        assert len(computed) == 1 + sum(certified)
        assert gaps == [real_gap(state) for state in states]

    def test_transport_residual_after_perturbation(self, grid32):
        prob = canonical_problem(grid32)
        sub = prob.build(find_energy_offset(prob))
        assert transport_residual(sub) == 0.0
        new, report = improvement_step(sub, seed=0)
        assert report.accepted
        # perturbed state carries the O(dt^2) stencil truncation, nothing worse
        assert transport_residual(new) < 10.0 * np.abs(new.velocity).max()


def time_derivative_stacked(v, dt):
    """Reference time_derivative, whole-stack temporaries."""
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * dt)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * dt)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * dt)
    return out


def momentum_stacked(sub):
    return sub.velocity + sub.mean_momentum[:, :, None, None] + sub.problem.grad_potential


def margin_stacked(sub):
    """Reference certificate margin: one pass over the whole stacks."""
    g = momentum_stacked(sub)
    lam = workbench._constraint_lambda(g, sub.problem.height, sub.flux, sub.stress)
    return sub.kinetic_energy - sub.delta - lam


def gap_stacked(sub):
    """Reference energy gap: one pass over the whole stacks."""
    g = momentum_stacked(sub)
    integrand = 0.5 * (g[:, 0] ** 2 + g[:, 1] ** 2) / sub.problem.height - sub.kinetic_energy
    return float(np.trapezoid(integrand.mean(axis=(1, 2)), sub.problem.times))


def pair_stacked(times, grid, g, W, r, e, n, box, seed=0):
    """Reference oscillatory_pair on whole stacks: (w, G, amplitude), or None
    for the degenerate pair."""
    lam0 = workbench._constraint_lambda(g, r, W)
    mask = workbench._box_mask(times, grid, box)
    assert not np.any((lam0 >= e) & mask)
    gap = float(np.min(np.where(mask, e - lam0, np.inf)))
    if not np.isfinite(gap) or gap <= 1e-12 * float(np.max(np.abs(e)) + 1.0):
        return None
    rng = np.random.default_rng(seed)
    eta = workbench._DIRECTIONS[rng.integers(len(workbench._DIRECTIONS))]
    wave = workbench._WavePotential(box, eta, n, float(rng.uniform(2.0, 6.0)))
    amp = 0.5 * float(np.sqrt(gap * float(np.min(r))))
    e_pad = np.where(mask, e, lam0 + 0.5 * gap)
    w, G = wave.evaluate(times, grid, amp)
    for _ in range(60):
        if np.all(workbench._constraint_lambda(g + w, r, W + G) < e_pad):
            return w, G, amp
        amp *= 0.5
        w *= 0.5
        G *= 0.5
    return None


def improvement_box(prob):
    return SpaceTimeBox(0.15 * prob.T, 0.85 * prob.T, 0.1, 0.9, 0.1, 0.9)


def chunk_case_problem(grid, case):
    prob = nonflat_problem(grid, num_steps=12)  # 13 nodes: one chunk of 8 and one of 5
    if case == "workbench32":  # 65 nodes, 8 full chunks and one of 1
        return replace(nonflat_problem(grid, num_steps=64), f=None)
    if case == "extended":
        return replace(prob, friction=FrictionParams(gamma=0.2, gamma2=0.1))
    if case == "frictionless-forced":
        return replace(prob, friction=FrictionParams(gamma=0.0))
    return prob


class TestChunkedPasses:
    """Every per-node pass of the workbench runs on node chunks and equals
    its whole-stack reference bit for bit: the height, grad(psi), E, the
    drag, the mean momentum (whose sums rk4_on_arrays forms whole), the
    stress, the certificate margin, the energy gap and the pair.  psi and
    grad(psi) also match the per-node Poisson solve of dh/dt to rounding."""

    def assert_passes_bitwise(self, sub):
        prob = sub.problem
        TestChunkedSolves.assert_state_bitwise(sub)
        margin = margin_stacked(sub)
        report = subsolution_certificate(sub)
        assert report.margin.tobytes() == margin.tobytes()
        assert report.min_margin == float(np.min(margin))
        assert report.passed == bool(np.all(margin > 0.0))
        assert energy_gap(sub) == gap_stacked(sub)
        drag = workbench.drag_coefficient(
            sub.kinetic_energy, prob.height, prob.friction, sub.energy_offset
        )
        if prob.friction.active:
            ref = friction_coefficient_values(prob.height, sub.kinetic_energy, prob.friction)
        else:  # gamma = gamma2 = 0: a stack of +0
            ref = np.zeros(sub.kinetic_energy.shape)
        assert drag.tobytes() == ref.tobytes()

    @pytest.mark.parametrize(
        "case", ["workbench32", "ragged", "extended", "frictionless-forced"]
    )
    def test_built_and_improved_state(self, grid32, case):
        prob = chunk_case_problem(grid32, case)
        lam = find_energy_offset(prob)
        sub = prob.build(lam)
        # the derived stacks of the problem: psi and grad(psi) to rounding of
        # the per-node Poisson solve of dh/dt, the rest bitwise
        psi = poisson_per_node(prob.height, prob.dt)
        assert np.abs(separable_potential(prob) - psi).max() <= 1e-12 * np.abs(psi).max()
        gpsi = grad_values(psi)
        assert np.abs(prob.grad_potential - gpsi).max() <= 1e-12 * np.abs(gpsi).max()
        s, psi0 = prob.profile, prob.initial_split.psi
        assert prob.height.tobytes() == (prob.h0 + s[:, None, None] * prob.excursion).tobytes()
        rate = time_derivative_stacked(s, prob.dt)
        assert prob.grad_potential.tobytes() == (
            rate[:, None, None, None] * grad_values(psi0)
        ).tobytes()
        # the built budget E = lam - a h^2 - (DDs) psi0
        dpsi = time_derivative_stacked(rate, prob.dt)[:, None, None] * psi0
        E = lam - prob.a * prob.height**2 - dpsi
        assert sub.kinetic_energy.tobytes() == E.tobytes()
        # the built velocity (v0 at every node) and zero flux are broadcast views
        assert sub.velocity.strides[0] == 0 and not any(sub.flux.strides)
        self.assert_passes_bitwise(sub)

        g, W = momentum_stacked(sub), sub.flux + sub.stress
        e = sub.kinetic_energy - 0.5 * sub.delta
        args = (prob.times, prob.grid, g, W, prob.height, e, 8, improvement_box(prob), 0)
        w, G, amp = pair_stacked(*args)
        pair = oscillatory_pair(*args)
        assert pair.amplitude == amp
        assert (pair.w.tobytes(), pair.G.tobytes()) == (w.tobytes(), G.tobytes())

        improved, report = improvement_step(sub, seed=0)
        assert report.accepted
        assert improved.velocity.tobytes() == (sub.velocity + w).tobytes()
        assert improved.flux.tobytes() == (sub.flux + G).tobytes()
        assert improved.gap == gap_stacked(improved)
        self.assert_passes_bitwise(improved)

    @staticmethod
    def halving_inputs(grid, case):
        """17 nodes (8 + 8 + 1) on which the pair's first amplitude fails:
        at rest with n = 1 off the box, where the wave's spectral tail meets
        the padded level (a late box leaves the first chunk out), or moving
        at g = (1, 0) with n = 8 in the box, through the cross term g . w."""
        times, g, W, r, e = lemma_inputs(grid, K=16)
        if case == "moving":
            g[:, 0] = 1.0
            return times, g, deviatoric_outer(g, r), r, e + 0.5, 8, CENTERED_BOX
        box = CENTERED_BOX if case == "rest" else SpaceTimeBox(0.55, 0.95, 0.1, 0.9, 0.1, 0.9)
        return times, g, W, r, e, 1, box

    @pytest.mark.parametrize("lazy", [False, True], ids=["stacks", "node-sums"])
    @pytest.mark.parametrize("case", ["rest", "rest-late-box", "moving"])
    def test_halved_pair(self, grid32, case, lazy):
        times, g, W, r, e, n, box = self.halving_inputs(grid32, case)
        w, G, amp = pair_stacked(times, grid32, g, W, r, e, n, box)
        assert amp < 0.5  # halved from 0.5 sqrt(gap min r), gap = 1
        if lazy:  # as improvement_step passes g = v + V + grad psi, W = F + M and E - delta/2
            V = np.zeros((times.size, 2, 1, 1))
            g = workbench._NodeSum(g, V, np.zeros_like(g))
            W = workbench._NodeSum(W, np.broadcast_to(0.0, W.shape))
            e = workbench._NodeSum(e + 0.5, np.broadcast_to(-0.5, e.shape))
        pair = oscillatory_pair(times, grid32, g, W, r, e, n, box)
        assert pair.amplitude == amp
        assert (pair.w.tobytes(), pair.G.tobytes()) == (w.tobytes(), G.tobytes())

    def test_korn_symbol_built_in_place(self, grid32):
        rng = np.random.default_rng(3)
        for shape in ((2, 32, 32), (5, 2, 32, 32), (3, 2, 16, 24)):
            rhs = rng.standard_normal(shape)
            rhs -= rhs.mean(axis=(-2, -1), keepdims=True)  # within the solvability tolerance
            ik1, ik2, k2sum = spectral._wavenumbers(*shape[-2:])
            rh = np.fft.rfft2(spectral._demean(rhs, "stress right-hand side"))
            with np.errstate(divide="ignore", invalid="ignore"):
                mh = np.where(k2sum > 0.0, -rh / k2sum, 0.0)
            m1, m2 = mh[..., 0, :, :], mh[..., 1, :, :]
            Mh = np.stack([ik1 * m1 - ik2 * m2, ik1 * m2 + ik2 * m1], axis=-3)
            assert korn_solve_values(rhs).tobytes() == np.fft.irfft2(Mh).tobytes()
