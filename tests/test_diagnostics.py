"""Energy checks, relative energy, weak-strong experiment, weak residuals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shlab.errors import InvalidValueError, PositivityError
from shlab.fields import ScalarField, TorusGrid, VectorField
from shlab.friction import FrictionParams
from shlab.diagnostics import (
    _gauss3,
    energy_jump,
    relative_energy,
    restrict_state,
    weak_residual,
    weak_strong_experiment,
)
from shlab.solver import EnergyLedger, Scenario, State, Trajectory, simulate
from shlab.workbench import WorkbenchProblem

TWO_PI = 2.0 * np.pi


def make_state(grid, h, q1, q2):
    return State(
        ScalarField.constant(grid, h), VectorField.constant(grid, q1, q2)
    )


def uniform_scenario(grid, h=1.0, u=(0.0, 0.0), gamma=0.0, T=1.0, **kw):
    return Scenario(
        grid=grid,
        T=T,
        a=0.5,
        friction=FrictionParams(gamma=gamma),
        h0=ScalarField.constant(grid, h),
        u0=VectorField.constant(grid, *u),
        **kw,
    )


def total_energy(state, a):
    """The ledger's total column for one state: the integral of
    half |q|^2 / h + a h^2 over the torus."""
    ledger = EnergyLedger()
    ledger.append(0.0, state, a, 0.0, 0.0)
    return float(ledger.column("total")[0])


class TestTotalEnergy:
    def test_rest_state(self, grid32):
        assert total_energy(make_state(grid32, 1.0, 0.0, 0.0), 0.5) == pytest.approx(0.5)

    def test_moving_state(self, grid32):
        assert total_energy(make_state(grid32, 1.0, 1.0, 0.0), 0.5) == pytest.approx(1.0)

    def test_kinetic_homogeneity(self, grid32):
        k1 = total_energy(make_state(grid32, 1.0, 1.0, 0.0), 0.5) - 0.5
        k2 = total_energy(make_state(grid32, 1.0, 2.0, 0.0), 0.5) - 0.5
        assert k2 == pytest.approx(4.0 * k1)


class TestEnergyInequality:
    def test_still_state(self, grid32):
        traj = simulate(uniform_scenario(grid32, gamma=0.5, T=0.5, n_output=6))
        assert np.max(traj.ledger.column("e2_residual")) <= 1e-12

    def test_friction_decay_residual_order_dt(self, grid32):
        traj = simulate(uniform_scenario(grid32, u=(1.0, 0.0), gamma=0.5, T=1.0, n_output=6))
        dt = 1.0 / traj.n_steps
        res = np.max(traj.ledger.column("e2_residual"))
        assert res <= 1e-12  # one-sided by construction
        assert res >= -10.0 * dt  # and not overly dissipative in the ledger sense

    def test_inflated_final_energy_flagged(self, grid32):
        ledger = EnergyLedger()
        st = make_state(grid32, 1.0, 0.0, 0.0)
        ledger.append(0.0, st, 0.5, 0.0, 0.0)
        inflated = make_state(grid32, 1.0, 1.0, 0.0)
        ledger.append(1.0, inflated, 0.5, 0.0, 0.0)
        assert np.max(ledger.column("e2_residual")) > 0.0


class TestEnergyJump:
    def build(self, grid, offset, gamma=0.0):
        prob = WorkbenchProblem(
            grid=grid,
            T=1.0,
            num_steps=16,
            a=0.5,
            friction=FrictionParams(gamma=gamma),
            h0=ScalarField.constant(grid, 1.0),
            u0=VectorField.constant(grid, 0.0, 0.0),
            delta=0.1,
        )
        return prob.build(offset)

    def test_direct_formula(self, grid32):
        sub = self.build(grid32, 0.7)
        # flat data: jump = offset - (a h0^2 + half h0 |u0|^2) = offset - 0.5
        assert energy_jump(sub) == pytest.approx(0.2, abs=1e-12)

    def test_unit_slope_in_offset(self, grid32):
        sub_a = self.build(grid32, 0.7)
        sub_b = self.build(grid32, 1.3)
        ja = energy_jump(sub_a)
        jb = energy_jump(sub_b)
        assert (jb - ja) / (1.3 - 0.7) == pytest.approx(1.0, abs=1e-6)

    def test_degenerate_equality_gives_zero(self, grid32):
        sub = self.build(grid32, 0.5)
        assert energy_jump(sub) == pytest.approx(0.0, abs=1e-12)


class TestRelativeEnergy:
    def test_identical_states(self, grid32):
        st = make_state(grid32, 1.3, 0.4, -0.2)
        assert relative_energy(st, st, 0.5) == 0.0

    def test_height_difference(self, grid32):
        assert relative_energy(
            make_state(grid32, 2.0, 0.0, 0.0), make_state(grid32, 1.0, 0.0, 0.0), 0.5
        ) == pytest.approx(0.5)

    def test_velocity_difference(self, grid32):
        assert relative_energy(
            make_state(grid32, 1.0, 1.0, 0.0), make_state(grid32, 1.0, 0.0, 0.0), 0.5
        ) == pytest.approx(0.5)

    def test_reference_height_must_be_positive(self, grid32):
        st = make_state(grid32, 1.0, 0.0, 0.0)
        ref = State.__new__(State)  # bypass validation to supply h = 0 reference
        object.__setattr__(ref, "h", ScalarField.constant(grid32, 1.0))
        object.__setattr__(ref, "q", st.q)
        object.__setattr__(ref.h, "values", np.zeros((32, 32)))
        with pytest.raises(PositivityError):
            relative_energy(st, ref, 0.5)


class TestRestriction:
    def test_constant_preserved(self):
        st = make_state(TorusGrid(16, 16), 1.5, 0.3, 0.0)
        out = restrict_state(st, TorusGrid(8, 8))
        np.testing.assert_allclose(out.h.values, 1.5)
        np.testing.assert_allclose(out.q.values[0], 0.3)

    def test_mean_preserved(self, rng):
        grid = TorusGrid(16, 16)
        h = 1.0 + 0.2 * rng.random((16, 16))
        st = State(ScalarField(grid, h), VectorField(grid, rng.random((2, 16, 16))))
        out = restrict_state(st, TorusGrid(4, 4))
        assert float(out.h.values.mean()) == pytest.approx(float(h.mean()), rel=1e-14)

    def test_identity_at_same_resolution(self, grid32):
        st = make_state(grid32, 1.2, 0.1, 0.2)
        out = restrict_state(st, grid32)
        np.testing.assert_array_equal(out.h.values, st.h.values)
        assert relative_energy(out, st, 0.5) == 0.0

    def test_rejects_non_multiple(self):
        st = make_state(TorusGrid(12, 12), 1.0, 0.0, 0.0)
        with pytest.raises(InvalidValueError):
            restrict_state(st, TorusGrid(8, 8))


def wave_scenario(grid, T=0.1, n_output=6):
    """Smooth frictionless height wave used as weak-strong base data."""
    return Scenario(
        grid=grid,
        T=T,
        a=0.5,
        friction=FrictionParams(),
        h0=ScalarField.from_function(grid, lambda x1, x2: 1.0 + 0.2 * np.cos(TWO_PI * x1)),
        u0=VectorField.constant(grid, 0.0, 0.0),
        n_output=n_output,
    )


class TestWeakStrong:
    def test_requires_fine_grid(self):
        with pytest.raises(InvalidValueError):
            weak_strong_experiment(wave_scenario, [0.0], TorusGrid(16, 16), TorusGrid(32, 32))

    def test_refinement_shrinks_relative_energy(self):
        fine = TorusGrid(64, 64)
        [r8] = weak_strong_experiment(wave_scenario, [0.0], TorusGrid(8, 8), fine)
        [r16] = weak_strong_experiment(wave_scenario, [0.0], TorusGrid(16, 16), fine)
        assert r16.values[-1] < r8.values[-1] / 1.5

    def test_epsilon_squared_initial_scaling(self):
        flat = lambda grid: uniform_scenario(grid, T=0.1, n_output=6)  # noqa: E731
        coarse, fine = TorusGrid(8, 8), TorusGrid(32, 32)
        eps_list = (1e-2, 1e-1)
        values = [rep.values[0] for rep in weak_strong_experiment(flat, eps_list, coarse, fine)]
        slope = np.log(values[1] / values[0]) / np.log(eps_list[1] / eps_list[0])
        assert slope == pytest.approx(2.0, abs=0.05)


class TestWeakResidual:
    def test_steady_state_residuals_vanish(self, grid32):
        traj = simulate(uniform_scenario(grid32, T=0.5, n_output=6))
        rep = weak_residual(traj, basis_size=2)
        assert rep.continuity <= 1e-12
        assert rep.momentum <= 1e-12
        assert rep.mass_mode <= 1e-12

    def test_mass_mode_is_conservation(self):
        traj = simulate(wave_scenario(TorusGrid(16, 16), T=0.1, n_output=11))
        rep = weak_residual(traj, basis_size=2)
        assert rep.mass_mode <= 1e-12

    def test_residual_decreases_under_refinement(self):
        reps = []
        for nx, n_out in ((16, 11), (32, 21)):
            traj = simulate(wave_scenario(TorusGrid(nx, nx), T=0.1, n_output=n_out))
            reps.append(weak_residual(traj, basis_size=2))
        order = np.log2(reps[0].momentum / reps[1].momentum)
        assert order >= 0.8

    def test_friction_selection_used_as_data(self, grid32):
        traj = simulate(uniform_scenario(grid32, u=(1.0, 0.0), gamma=0.5, T=0.5, n_output=21))
        rep = weak_residual(traj, basis_size=1)
        # friction is the dominant physics here; honoring B keeps the
        # momentum residual at the splitting error, not O(1)
        assert rep.momentum < 0.05

    @pytest.mark.parametrize("shape", [(8, 8), (8, 12)])
    def test_basis_size_bounds(self, shape):
        traj = simulate(wave_scenario(TorusGrid(*shape), T=0.05, n_output=3))
        nyquist = min(shape) // 2
        assert weak_residual(traj, basis_size=0).mass_mode <= 1e-12
        assert weak_residual(traj, basis_size=nyquist).mass_mode <= 1e-12
        for aliased_or_negative in (-1, nyquist + 1):
            with pytest.raises(InvalidValueError):
                weak_residual(traj, basis_size=aliased_or_negative)


# ---------------------------------------------------------------------------
# loop oracle: one full-grid pass per separable test function


def _loop_time_integral(times, series, weight_fn):
    """Integral of (piecewise-linear interpolant of series) * weight_fn(t)."""
    t0, t1 = times[:-1], times[1:]
    y0, y1 = series[:-1], series[1:]
    nodes, weights = _gauss3(t0, t1)
    frac = (nodes - t0) / (t1 - t0)
    vals = (y0 + frac * (y1 - y0)) * weight_fn(nodes)
    return float(np.sum(vals * weights))


def _spatial_basis(grid, max_mode):
    """Tensor-product trig basis with modes <= max_mode per direction, as
    (values, grad) pairs sampled at cell centers; the constant mode is first."""
    x1, x2 = grid.cell_centers()

    def factors(k, x):
        out = [(np.cos(TWO_PI * k * x), -TWO_PI * k * np.sin(TWO_PI * k * x))]
        if k > 0:
            out.append((np.sin(TWO_PI * k * x), TWO_PI * k * np.cos(TWO_PI * k * x)))
        return out

    basis = []
    for kx in range(max_mode + 1):
        for ky in range(max_mode + 1):
            for fx, dfx in factors(kx, x1):
                for fy, dfy in factors(ky, x2):
                    basis.append((fx * fy, np.stack([dfx * fy, fx * dfy])))
    return basis


def loop_weak_residual(traj, basis_size):
    """Reference weak residual: each test function's space integrals are
    computed by direct passes over the (K+1, nx, ny) snapshot stacks."""
    scn = traj.scenario
    times = traj.times
    T = float(times[-1])

    def rho(t):
        return (1.0 - t / T) ** 3

    def drho(t):
        return -3.0 / T * (1.0 - t / T) ** 2

    gamma = scn.friction.gamma_array
    fvals = scn.f.values if scn.f is not None else np.zeros((2, *scn.grid.shape))
    h = np.array([s.h.values for s in traj.states])
    q = np.array([s.q.values for s in traj.states])
    B = np.array([b.values for b in traj.selections])

    worst_cont = worst_mom = 0.0
    mass_mode = None
    for X, gX in _spatial_basis(scn.grid, basis_size):
        a_series = (h * X).mean(axis=(1, 2))
        b_series = (q[:, 0] * gX[0] + q[:, 1] * gX[1]).mean(axis=(1, 2))
        r_cont = (
            _loop_time_integral(times, a_series, drho)
            + _loop_time_integral(times, b_series, rho)
            + a_series[0] * rho(0.0)
        )
        worst_cont = max(worst_cont, abs(r_cont))
        if mass_mode is None:
            mass_mode = abs(r_cont)
        qdotg = q[:, 0] * gX[0] + q[:, 1] * gX[1]
        for d in range(2):
            c_series = (q[:, d] * X).mean(axis=(1, 2))
            conv = (q[:, d] * qdotg / h).mean(axis=(1, 2))
            pres = (scn.a * h * h * gX[d]).mean(axis=(1, 2))
            src = (h * (gamma * B[:, d] - fvals[d]) * X).mean(axis=(1, 2))
            r_mom = (
                _loop_time_integral(times, c_series, drho)
                + _loop_time_integral(times, conv + pres, rho)
                - _loop_time_integral(times, src, rho)
                + c_series[0] * rho(0.0)
            )
            worst_mom = max(worst_mom, abs(r_mom))
    return worst_cont, worst_mom, mass_mode


def band_limited(rng, grid, kmax=3, amplitude=1.0):
    """Random real trig polynomial with modes |k| <= kmax per direction,
    scaled so its sup norm is at most ``amplitude``."""
    x1, x2 = grid.cell_centers()
    out = np.zeros(grid.shape)
    for k1 in range(-kmax, kmax + 1):
        for k2 in range(kmax + 1):
            c, phi = rng.normal(), rng.uniform(0.0, TWO_PI)
            out += c * np.cos(TWO_PI * (k1 * x1 + k2 * x2) + phi)
    return amplitude * out / np.max(np.abs(out))


def random_trajectory(seed, grid, n_times):
    """Arbitrary (not solver-produced) snapshots: h > 0, any q, |B| <= 1,
    a varying gamma and a nonzero force, at random increasing times."""
    rng = np.random.default_rng(seed)
    scn = Scenario(
        grid=grid,
        T=1.0,
        a=float(rng.uniform(0.2, 2.0)),
        friction=FrictionParams(gamma=ScalarField(grid, 0.3 + band_limited(rng, grid, 2, 0.25))),
        h0=ScalarField.constant(grid, 1.0),
        u0=VectorField.constant(grid, 0.0, 0.0),
        f=VectorField(grid, np.stack([band_limited(rng, grid), band_limited(rng, grid)])),
    )
    times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, n_times - 1))])
    times[-1] = 1.0
    states, selections = [], []
    for _ in times:
        h = 1.0 + band_limited(rng, grid, amplitude=0.9)
        q = np.stack([band_limited(rng, grid, amplitude=2.0) for _ in range(2)])
        B = np.stack([band_limited(rng, grid) for _ in range(2)])
        B /= max(1.0, float(np.max(np.hypot(B[0], B[1]))))
        states.append(State(ScalarField(grid, h), VectorField(grid, q)))
        selections.append(VectorField(grid, B))
    return Trajectory(scn, times, states, selections, EnergyLedger())


@pytest.mark.parametrize(
    "shape,basis_size",
    [((16, 16), 4), ((16, 16), 8), ((12, 20), 3), ((12, 20), 6)],
    ids=["16x16-m4", "16x16-nyquist", "12x20-m3", "12x20-nyquist"],
)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_times=st.integers(2, 5))
def test_dft_residual_matches_loop_oracle(shape, basis_size, seed, n_times):
    traj = random_trajectory(seed, TorusGrid(*shape), n_times)
    rep = weak_residual(traj, basis_size=basis_size)
    ref = loop_weak_residual(traj, basis_size)
    scale = max(ref)
    for got, want in zip((rep.continuity, rep.momentum, rep.mass_mode), ref):
        assert abs(got - want) <= 1e-12 * scale
