"""Finite-volume solver: fluxes, stepping, energy ledger, convergence."""

import ast
import dataclasses
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import sample
from shlab.errors import InvalidValueError, NumericalAbort, PositivityError
from shlab.fields import TorusGrid
from shlab.friction import FrictionParams, friction_shrink
from shlab import cli, solver
from shlab.solver import (
    EnergyLedger,
    Scenario,
    State,
    cfl_dt,
    rusanov_flux,
    simulate,
    step,
    stream,
)


EPS = np.finfo(float).eps


def uniform_scenario(grid, h=1.0, u=(0.0, 0.0), gamma=0.0, a=0.5, T=1.0, **kw):
    return Scenario(
        grid=grid,
        T=T,
        a=a,
        friction=FrictionParams(gamma=gamma),
        h0=sample(grid, h),
        u0=sample(grid, *u),
        **kw,
    )


def smooth_scenario(grid, T=0.2, **kw):
    return Scenario(
        grid=grid,
        T=T,
        a=0.5,
        friction=FrictionParams(),
        h0=sample(grid, lambda x1, x2: 1.0 + 0.2 * np.sin(2 * np.pi * x1)),
        u0=sample(
            grid, lambda x1, x2: 0.1 * np.cos(2 * np.pi * x2), lambda x1, x2: 0.0 * x1
        ),
        **kw,
    )


def filled(h, q1, q2, a):
    """A Workspace holding the terms of (h, q1, q2), as stream fills it
    before each step."""
    work = solver.Workspace(h.shape)
    work.fill(h, q1, q2, a)
    return work


def state_work(state, a):
    return filled(state.h, *state.q, a)


def still_state(grid, h):
    """A state of uniform height h at rest."""
    return State(np.full(grid.shape, h), np.zeros((2, *grid.shape)))


class TestStateAndScenario:
    def test_state_requires_positive_height(self, grid32):
        with pytest.raises(PositivityError):
            still_state(grid32, -1.0)

    def test_state_requires_momentum_of_its_shape(self, grid32):
        with pytest.raises(InvalidValueError, match="momentum shape"):
            State(np.ones(grid32.shape), np.zeros((2, 16, 16)))
        assert State(np.ones((8, 12)), np.zeros((2, 8, 12))).grid == TorusGrid(8, 12)

    def test_scenario_validation(self, grid32):
        with pytest.raises(InvalidValueError):
            uniform_scenario(grid32, a=-1.0)
        with pytest.raises(InvalidValueError):
            uniform_scenario(grid32, cfl=1.5)
        assert uniform_scenario(grid32, cfl=0.5).cfl == 0.5
        with pytest.raises(PositivityError):
            uniform_scenario(grid32, h=0.0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("T", float("nan")),
            ("T", float("inf")),
            ("T", 5e-324),  # its step cap T/100 underflows to zero
            ("a", float("nan")),
            ("a", float("inf")),
            ("cfl", 0.51),
            ("cfl", 0.6),
            ("cfl", float("nan")),
            ("seed", -1),
        ],
    )
    def test_scenario_rejects_nan_and_out_of_range(self, grid32, field, value):
        with pytest.raises(InvalidValueError, match=field):
            uniform_scenario(grid32, **{field: value})

    @pytest.mark.parametrize("name", ["h0", "u0", "f", "gamma"])
    def test_every_input_field_lives_on_the_scenario_grid(self, grid32, name):
        other = TorusGrid(16, 16)
        foreign = {
            "h0": sample(other, 1.0),
            "u0": sample(other, 0.0, 0.0),
            "f": sample(other, 0.1, 0.0),
            "friction": FrictionParams(gamma=sample(other, 0.2)),
        }
        key = "friction" if name == "gamma" else name
        inputs = dict(
            grid=grid32,
            T=1.0,
            a=0.5,
            friction=FrictionParams(),
            h0=sample(grid32, 1.0),
            u0=sample(grid32, 0.0, 0.0),
        )
        with pytest.raises(InvalidValueError, match=f"{name} field lives on a different grid"):
            Scenario(**{**inputs, key: foreign[key]})

    @pytest.mark.parametrize(
        "name,what", [("h0", "initial height h0"), ("u0", "initial velocity u0"), ("f", "force f")]
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_every_input_is_finite(self, grid32, name, what, bad):
        # checked before h0 > 0, which NaN would pass
        values = {
            "h0": sample(grid32, 1.0), "u0": sample(grid32, 0.0, 0.0), "f": sample(grid32, 0.1, 0.0)
        }
        values[name].flat[-1] = bad
        with pytest.raises(InvalidValueError, match=f"^{what} contains non-finite values$"):
            Scenario(grid=grid32, T=1.0, a=0.5, friction=FrictionParams(), **values)

    def test_inputs_are_stored_as_float64_arrays(self, grid32):
        scn = Scenario(
            grid=grid32, T=1.0, a=0.5, friction=FrictionParams(gamma=np.ones(grid32.shape, int)),
            h0=np.ones(grid32.shape, int).tolist(), u0=np.zeros((2, *grid32.shape), int),
        )
        for values in (scn.h0, scn.u0, scn.friction.gamma):
            assert isinstance(values, np.ndarray) and values.dtype == np.float64
        assert scn.f is None

    def test_initial_state_momentum(self, grid32):
        scn = uniform_scenario(grid32, h=2.0, u=(1.5, 0.0))
        np.testing.assert_allclose(scn.initial_state().q[0], 3.0)


class TestWaveSpeedAndCfl:
    # with cfl = 0.5, dx = 1 and no cap, cfl_dt is 0.5 / (largest wave speed)
    def test_still_state(self, grid32):
        st = uniform_scenario(grid32).initial_state()
        assert cfl_dt(0.5, 1.0, np.inf, state_work(st, 0.5)) == pytest.approx(0.5 / 1.0)

    def test_moving_state(self, grid32):
        st = uniform_scenario(grid32, u=(2.0, 0.0)).initial_state()
        assert cfl_dt(0.5, 1.0, np.inf, state_work(st, 0.5)) == pytest.approx(0.5 / 3.0)

    def test_vacuum_limit(self, grid32):
        st = still_state(grid32, 1e-14)
        assert cfl_dt(0.5, 1.0, np.inf, state_work(st, 0.5)) > 0.5 / 1e-6

    def test_cfl_values(self, grid32):
        st = uniform_scenario(grid32, u=(1.0, 0.0)).initial_state()  # speed 2
        assert cfl_dt(0.4, 0.01, 10.0, state_work(st, 0.5)) == pytest.approx(0.002)
        still = uniform_scenario(grid32).initial_state()  # speed 1
        assert cfl_dt(0.5, 0.02, 10.0, state_work(still, 0.5)) == pytest.approx(0.01)

    def test_zero_speed_returns_cap(self, grid32):
        st = still_state(grid32, 1e-30)
        # speed ~ 1e-15; the dt cap takes over
        assert cfl_dt(0.4, 0.01, 0.25, state_work(st, 0.5)) == pytest.approx(0.25)


def physical_flux(h, q1, q2, a, axis):
    """Exact flux 3-vector (mass, x-momentum, y-momentum) along an axis."""
    qa = q1 if axis == 0 else q2
    f0 = qa
    f1 = qa * q1 / h
    f2 = qa * q2 / h
    if axis == 0:
        f1 = f1 + a * h * h
    else:
        f2 = f2 + a * h * h
    return f0, f1, f2


def two_sided_flux(left, right, a, axis):
    """Oracle Rusanov flux between cell values (h, q1, q2), scalars or arrays:
    (F(L) + F(R)) / 2 - s (U_R - U_L) / 2 with s the larger of the two cells'
    |u_axis| + sqrt(2 a h), every term evaluated at the face."""
    hl, q1l, q2l = left
    hr, q1r, q2r = right
    fl = physical_flux(hl, q1l, q2l, a, axis)
    fr = physical_flux(hr, q1r, q2r, a, axis)
    ul = (q1l if axis == 0 else q2l) / hl
    ur = (q1r if axis == 0 else q2r) / hr
    s = np.maximum(np.abs(ul) + np.sqrt(2.0 * a * hl), np.abs(ur) + np.sqrt(2.0 * a * hr))
    return tuple(
        0.5 * (a_ + b_) - 0.5 * s * (wr - wl)
        for a_, b_, wl, wr in zip(fl, fr, (hl, q1l, q2l), (hr, q1r, q2r))
    )


def constant_cells(shape, h, q1, q2):
    return tuple(np.full(shape, float(v)) for v in (h, q1, q2))


class TestRusanovFlux:
    def test_identical_cells_give_exact_flux(self):
        cells = constant_cells((4, 6), 1.3, 0.4, -0.2)
        for axis in (0, 1):
            flux = rusanov_flux(*cells, axis, filled(*cells, 0.5))
            for got, exact in zip(flux, physical_flux(1.3, 0.4, -0.2, 0.5, axis)):
                np.testing.assert_allclose(got, exact, rtol=1e-15)

    def test_pure_pressure(self):
        cells = constant_cells((4, 6), 1.0, 0.0, 0.0)
        for axis, expected in ((0, (0.0, 0.5, 0.0)), (1, (0.0, 0.0, 0.5))):
            flux = rusanov_flux(*cells, axis, filled(*cells, 0.5))
            for got, value in zip(flux, expected):
                np.testing.assert_allclose(got, value, atol=1e-16)

    def test_dam_break_against_scalar_oracle(self):
        # independent plain-float implementation of the same formula, at the
        # faces 1|2 (deep to shallow) and 3|0 (shallow to deep, across the
        # periodic boundary) of a height step along axis 0
        a = 0.5
        hl, hr = 2.0, 1.0
        h = np.where(np.arange(4)[:, None] < 2, hl, hr) + np.zeros((4, 6))
        cells = (h, np.zeros_like(h), np.zeros_like(h))
        flux = rusanov_flux(*cells, 0, filled(*cells, a))
        s = max(np.sqrt(2 * a * hl), np.sqrt(2 * a * hr))
        expect_mom = 0.5 * (a * hl**2 + a * hr**2)
        for i, jump in ((1, hr - hl), (3, hl - hr)):
            np.testing.assert_allclose(flux[0][i], 0.5 * (0.0 + 0.0) - 0.5 * s * jump, rtol=1e-14)
            np.testing.assert_allclose(flux[1][i], expect_mom, rtol=1e-14)
            np.testing.assert_allclose(flux[2][i], 0.0, atol=1e-15)
        # inside each still pool the face flux is the pressure alone
        np.testing.assert_allclose(flux[1][0], a * hl**2, rtol=1e-14)
        np.testing.assert_allclose(flux[1][2], a * hr**2, rtol=1e-14)

    def test_vectorized_matches_scalar(self, rng):
        h = rng.uniform(0.5, 2.0, size=(4, 6))
        q1 = rng.normal(size=(4, 6))
        q2 = rng.normal(size=(4, 6))
        arr = rusanov_flux(h, q1, q2, 1, filled(h, q1, q2, 0.5))
        for i in range(4):
            for j in range(6):
                k = (j + 1) % 6
                one = two_sided_flux(
                    (h[i, j], q1[i, j], q2[i, j]), (h[i, k], q1[i, k], q2[i, k]), 0.5, axis=1
                )
                for c in range(3):
                    assert arr[c][i, j] == pytest.approx(one[c], rel=1e-14, abs=1e-14)


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    shape=st.sampled_from([(4, 6), (6, 4), (8, 10)]),
    a=st.floats(0.05, 10.0),
    axis=st.sampled_from([0, 1]),
)
def test_one_sided_flux_is_bitwise_the_two_sided_oracle(data, shape, a, axis):
    """Computing each cell's flux and speed once and pairing each cell with
    its +1 neighbour gives the very bits of the face-by-face formula on
    (U, roll(U, -1))."""
    h = data.draw(arrays(np.float64, shape, elements=st.floats(1e-3, 10.0)))
    q1 = data.draw(arrays(np.float64, shape, elements=st.floats(-10.0, 10.0)))
    q2 = data.draw(arrays(np.float64, shape, elements=st.floats(-10.0, 10.0)))
    cells = (h, q1, q2)
    expected = two_sided_flux(cells, tuple(np.roll(w, -1, axis=axis) for w in cells), a, axis)
    got = rusanov_flux(h, q1, q2, axis, filled(h, q1, q2, a))
    for c in range(3):
        assert got[c].tobytes() == expected[c].tobytes(), c


class TestStep:
    def test_uniform_still_state_is_steady(self, grid32):
        scn = uniform_scenario(grid32, gamma=0.7)
        st = scn.initial_state()
        new, info = step(st, scn, 1e-3, state_work(st, scn.a))
        np.testing.assert_array_equal(new.h, st.h)
        np.testing.assert_allclose(new.q, 0.0, atol=1e-16)
        assert info.dissipation_inc == 0.0

    def test_galilean_symmetry_of_x_translation(self, grid32):
        # shifting the initial data by one cell commutes with stepping
        scn = smooth_scenario(grid32)
        st = scn.initial_state()
        shifted = State(np.roll(st.h, 1, axis=0), np.roll(st.q, 1, axis=1))
        a, _ = step(st, scn, 1e-3, state_work(st, scn.a))
        b, _ = step(shifted, scn, 1e-3, state_work(shifted, scn.a))
        np.testing.assert_allclose(np.roll(a.h, 1, axis=0), b.h, atol=1e-14)

    def test_mass_is_conserved_exactly(self, grid32):
        scn = smooth_scenario(grid32)
        st = scn.initial_state()
        m0 = float(np.mean(st.h))
        for _ in range(50):
            st, _ = step(st, scn, 2e-3, state_work(st, scn.a))
        assert float(np.mean(st.h)) == pytest.approx(m0, rel=1e-13)

    def test_dt_beyond_the_cfl_bound_aborts(self, grid32):
        # 16 times the largest stable dt drives some height negative
        scn = Scenario(
            grid=grid32,
            T=1.0,
            a=0.5,
            friction=FrictionParams(),
            h0=sample(grid32, lambda x1, x2: 1.0 + 0.9 * np.sin(2 * np.pi * x1)),
            u0=sample(grid32, 2.0, 0.0),
        )
        st0 = scn.initial_state()
        work = state_work(st0, scn.a)
        dt = 16.0 * cfl_dt(0.5, grid32.dx, 1.0, work)
        with pytest.raises(NumericalAbort, match="positivity"):
            step(st0, scn, dt, work)

    @pytest.mark.parametrize(
        "component, bad, message",
        [("h", v, "positivity or finiteness") for v in (np.nan, np.inf, -np.inf, 0.0, -0.0)]
        + [(c, v, "momentum became non-finite") for c in (0, 1) for v in (np.nan, np.inf, -np.inf)],
    )
    def test_a_bad_value_after_the_fluxes_aborts(self, monkeypatch, component, bad, message):
        # with zero face fluxes, hn and q_pre are the state's h and q, into
        # which one bad value is written after the state's own checks
        grid = TorusGrid(8, 12)
        scn = uniform_scenario(grid, u=(0.3, -0.2), gamma=0.5)
        state = scn.initial_state()
        work = state_work(state, scn.a)
        monkeypatch.setattr(
            solver, "rusanov_flux", lambda h, q1, q2, axis, work: (np.zeros_like(h),) * 3
        )
        (state.h if component == "h" else state.q[component])[3, 5] = bad
        with pytest.raises(NumericalAbort, match=message):
            step(state, scn, 1e-3, work)


@pytest.mark.parametrize("shape", [(4, 4), (4, 6), (6, 4), (8, 12)])
@pytest.mark.parametrize("ufunc", [np.add, np.subtract, np.maximum])
@pytest.mark.parametrize("at_face", [True, False])
@pytest.mark.parametrize("axis", [0, 1])
def test_pairwise_is_bitwise_the_roll_oracle(rng, shape, ufunc, at_face, axis):
    x = rng.standard_normal(shape)
    x[0, ::2] = 0.0
    x[1, ::3] = -0.0
    out = np.full(shape, np.nan)  # every entry must be written
    solver._pairwise(ufunc, x, out, axis, at_face)
    pairs = ufunc(np.roll(x, -1, axis=axis), x)  # at face i
    expected = pairs if at_face else np.roll(pairs, 1, axis=axis)
    assert out.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "out", [np.zeros((6, 4)).T, np.zeros((4, 8))[:, :6]], ids=["transposed", "padded rows"]
)
def test_pairwise_rejects_a_non_contiguous_out_on_axis_1(out):
    # a flattened copy of out would take the results and drop them
    with pytest.raises(ValueError):
        solver._pairwise(np.add, np.arange(24.0).reshape(4, 6), out, 1, True)
    assert not out.any()


def band_limited(coeffs, x1, x2):
    """Sum of four low Fourier modes with the given amplitudes."""
    c = coeffs
    return (
        c[0] * np.cos(2 * np.pi * x1)
        + c[1] * np.sin(2 * np.pi * x2)
        + c[2] * np.cos(2 * np.pi * (x1 + x2))
        + c[3] * np.sin(2 * np.pi * (2 * x1 - x2))
    )


@settings(max_examples=30, deadline=None)
@given(
    shape=st.sampled_from([(8, 8), (8, 12), (16, 8)]),
    coeffs=st.lists(st.floats(-1.0, 1.0), min_size=12, max_size=12),
    h_min=st.floats(1e-3, 1.0),
    speed=st.floats(0.0, 3.0),
    a=st.floats(0.05, 2.0),
    gamma=st.floats(0.0, 1.0),
    cfl=st.one_of(st.just(0.5), st.floats(1e-3, 0.5)),
)
def test_positivity_and_mass_under_the_cfl_bound(shape, coeffs, h_min, speed, a, gamma, cfl):
    """dt from cfl_dt with cfl <= 1/2 keeps h > 0 (the Rusanov update is then
    a convex combination of neighbouring heights) and conserves mass."""
    grid = TorusGrid(*shape)
    x1, x2 = grid.cell_centers()
    bump = band_limited(coeffs[0:4], x1, x2)
    h0 = h_min + bump - bump.min()
    u0 = speed * np.stack([band_limited(coeffs[4:8], x1, x2), band_limited(coeffs[8:12], x1, x2)])
    scn = Scenario(
        grid=grid,
        T=1.0,
        a=a,
        friction=FrictionParams(gamma=gamma),
        h0=h0,
        u0=u0,
        f=sample(grid, 0.3, -0.1),
        cfl=cfl,
    )
    state = scn.initial_state()
    mass0 = float(np.mean(h0))
    for _ in range(4):
        work = state_work(state, a)
        dt = cfl_dt(cfl, min(grid.dx, grid.dy), 1.0, work)
        state, _ = step(state, scn, dt, work)
        assert np.all(state.h > 0.0)
        assert abs(float(np.mean(state.h)) - mass0) <= 1e-14 * mass0


# ---------------------------------------------------------------------------
# The step as it was before it ran in a workspace, kept as a bitwise oracle:
# np.roll neighbours and fresh temporaries, in the evaluation order that the
# workspace step keeps.


def oracle_rusanov_flux(h, q1, q2, a, axis):
    qa = q1 if axis == 0 else q2
    speed = np.abs(qa / h) + np.sqrt(2.0 * a * h)
    half_s = 0.5 * np.maximum(speed, np.roll(speed, -1, axis=axis))
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


def oracle_friction_shrink(q, h, params, dt):
    norm = np.hypot(q[0], q[1])
    thresh = dt * params.gamma * h
    # thresh / norm may overflow in a cell that stops, where it is discarded
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        factor = np.where(norm > thresh, 1.0 - thresh / np.where(norm > 0, norm, 1.0), 0.0)
    out = q * factor
    if params.gamma2 > 0.0:
        c = dt * params.gamma2 / h
        mag = np.hypot(out[0], out[1])
        new_mag = 2.0 * mag / (1.0 + np.sqrt(1.0 + 4.0 * c * mag))
        with np.errstate(divide="ignore", invalid="ignore"):
            out = out * np.where(mag > 0.0, new_mag / np.where(mag > 0, mag, 1.0), 0.0)
    return out


def oracle_fluxes(state, scenario, dt):
    """(hn, q_pre): the height and momentum after the flux update."""
    grid = state.grid
    h = state.h
    q1, q2 = state.q
    hn, q_pre = h.copy(), state.q.copy()
    q1n, q2n = q_pre
    for axis, dxi in ((0, grid.dx), (1, grid.dy)):
        flux = oracle_rusanov_flux(h, q1, q2, scenario.a, axis)
        coef = dt / dxi
        for w, fl in zip((hn, q1n, q2n), flux):
            w -= coef * (fl - np.roll(fl, 1, axis=axis))
    return hn, q_pre


def oracle_step(state, scenario, dt):
    """(h, q, B, dissipation_inc, work_inc) of one step; each increment is
    the mean of a momentum change dq . u at the velocity that it leaves."""
    hn, q_pre = oracle_fluxes(state, scenario, dt)
    friction = scenario.friction
    q_post = oracle_friction_shrink(q_pre, hn, friction, dt)
    thresh = dt * friction.gamma * hn
    # the Coulomb selection q_pre / max(|q_pre|, dt gamma h), and 0 where dt gamma h = 0
    with np.errstate(invalid="ignore"):
        B = np.where(thresh > 0.0, q_pre / np.maximum(np.hypot(*q_pre), thresh), 0.0)
    dq = q_pre - q_post
    u_post = q_post / hn
    diss_inc = float(np.mean(dq[0] * u_post[0] + dq[1] * u_post[1]))
    if scenario.f is not None:
        dq = dt * hn * scenario.f
        q_final = q_post + dq
        u_final = q_final / hn
        work_inc = float(np.mean(dq[0] * u_final[0] + dq[1] * u_final[1]))
    else:
        q_final = q_post
        work_inc = 0.0
    return hn, q_final, B, diss_inc, work_inc


def step_bits(new, info):
    """The bytes of everything a step returns, so that -0.0 and 0.0 differ."""
    return [
        np.asarray(x, dtype=np.float64).tobytes()
        for x in (new.h, new.q, info.B, info.dissipation_inc, info.work_inc)
    ]


def oracle_bits(result):
    return [np.asarray(x, dtype=np.float64).tobytes() for x in result]


@st.composite
def step_cases(draw):
    """A scenario and a state on an nx != ny grid: band-limited h > 0 and
    momentum, zero momentum in a random set of cells, the Coulomb or the
    extended law with gamma a scalar or a field (zero in places), force on
    or off, and dt a fraction of the CFL step."""
    shape = draw(st.sampled_from([(8, 12), (16, 8)]))
    grid = TorusGrid(*shape)
    x1, x2 = grid.cell_centers()
    c = draw(st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16))
    bump = band_limited(c[0:4], x1, x2)
    h = draw(st.floats(1e-3, 1.0)) + bump - bump.min()
    u = draw(st.floats(0.0, 3.0)) * np.stack(
        [band_limited(c[4:8], x1, x2), band_limited(c[8:12], x1, x2)]
    )
    u[:, draw(arrays(np.bool_, shape))] = 0.0
    gamma = draw(st.floats(0.0, 50.0))
    if draw(st.booleans()):
        gamma = np.maximum(gamma * (0.5 + band_limited(c[12:16], x1, x2)), 0.0)
    gamma2 = draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0)))  # > 0: the extended law
    force = None
    if draw(st.booleans()):
        force = np.stack([0.5 + 0.0 * x1, band_limited(c[0:4], x2, x1)])
    a = draw(st.floats(0.05, 2.0))
    scn = Scenario(
        grid=grid,
        T=1.0,
        a=a,
        friction=FrictionParams(gamma=gamma, gamma2=gamma2),
        h0=h,
        u0=u,
        f=force,
    )
    state = scn.initial_state()
    cfl_step = cfl_dt(0.5, min(grid.dx, grid.dy), 1.0, state_work(state, a))
    dt = draw(st.floats(0.05, 1.0)) * cfl_step
    return scn, state, dt


@settings(max_examples=200, deadline=None)
@given(
    shape=st.sampled_from([(8, 12), (16, 8)]),
    c=st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16),
    scales=st.tuples(*[st.integers(-3, 307)] * 3),
    a=st.floats(1e-3, 2.0),
    gamma=st.floats(0.0, 50.0),
    gamma2=st.sampled_from([0.0, 1.0]),
    fraction=st.floats(0.05, 1.0),
)
def test_a_step_returns_a_finite_state_or_aborts(shape, c, scales, a, gamma, gamma2, fraction):
    """Band-limited h, q and force of magnitudes 1e-3 to 1e307, and a dt
    from cfl_dt: the new h is finite and positive and the new q finite,
    unless the step raises NumericalAbort.  The new q has no check of its
    own (see step)."""
    grid = TorusGrid(*shape)
    x1, x2 = grid.cell_centers()
    h_scale, q_scale, f_scale = (10.0**e for e in scales)
    bump = band_limited(c[0:4], x1, x2)
    h = h_scale * (1e-3 + bump - bump.min())
    q = q_scale * np.stack([band_limited(c[4:8], x1, x2), band_limited(c[8:12], x1, x2)])
    force = f_scale * np.stack([0.5 + 0.0 * x1, band_limited(c[12:16], x2, x1)])
    friction = FrictionParams(gamma=gamma, gamma2=gamma2)
    scn = Scenario(
        grid=grid, T=1.0, a=a, friction=friction, h0=h,
        u0=sample(grid, 0.0, 0.0), f=force,
    )
    state = State(h, q)
    with np.errstate(all="ignore"):  # overflows are what this test provokes
        work = state_work(state, a)
        dt = fraction * cfl_dt(0.5, min(grid.dx, grid.dy), 1.0, work)
        if dt == 0.0:  # an overflowing wave speed: stream aborts before any step
            return
        try:
            new, _ = step(state, scn, dt, work)
        except NumericalAbort:
            event("aborted")
            return
    event("returned")
    assert np.all(np.isfinite(new.h)) and np.all(new.h > 0.0)
    assert np.all(np.isfinite(new.q))


# a run with friction and force, and one with neither
RUNS = [lambda g: forced_friction_scenario(g), lambda g: smooth_scenario(g, n_output=5)]
RUN_IDS = ["friction+force", "frictionless"]


def momentum_before_friction(state, scn, dt):
    """q_pre, the momentum after the fluxes: a step without friction and
    force returns a copy of it."""
    bare = dataclasses.replace(scn, friction=FrictionParams(), f=None)
    return step(state, bare, dt, state_work(state, scn.a))[0].q


class TestWorkspaceStep:
    """The step that runs in a Workspace against the step it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(case=step_cases())
    def test_step_is_bitwise_the_oracle(self, case):
        scn, state, dt = case
        expected = oracle_step(state, scn, dt)
        work = state_work(state, scn.a)
        assert step_bits(*step(state, scn, dt, work)) == oracle_bits(expected)
        q = state.q
        h = state.h
        thresh = dt * scn.friction.gamma * h
        event(f"a cell stops: {bool(np.any(np.hypot(*q) <= thresh))}")
        scratch = np.empty((2, *h.shape))
        got = friction_shrink(q, h, scn.friction, dt, thresh, scratch)
        assert got.tobytes() == oracle_friction_shrink(q, h, scn.friction, dt).tobytes()
        assert scratch[0].tobytes() == np.maximum(np.hypot(*q), thresh).tobytes()

    def test_extended_law_selection_and_still_cells_match_the_oracle(self):
        # the extended drag shrinks |q| past dt gamma h, but B stays the
        # Coulomb selection: a unit vector in every moving cell; the row
        # x1 = 1/16 starts with no momentum and stops
        grid = TorusGrid(8, 12)
        scn = Scenario(
            grid=grid,
            T=1.0,
            a=0.5,
            friction=FrictionParams(gamma=4.0, gamma2=2.0),
            h0=sample(grid, lambda x1, x2: 1.0 + 0.3 * np.sin(2 * np.pi * x2)),
            u0=sample(
                grid,
                lambda x1, x2: np.sin(2 * np.pi * (x1 - 1 / 16)),
                lambda x1, x2: 0.2 * np.sin(2 * np.pi * (x1 - 1 / 16)),
            ),
            f=sample(grid, 0.1, -0.2),
        )
        state = scn.initial_state()
        work = state_work(state, scn.a)
        dt = cfl_dt(scn.cfl, grid.dx, 1.0, work)
        new, info = step(state, scn, dt, work)
        assert step_bits(new, info) == oracle_bits(oracle_step(state, scn, dt))
        moving = np.hypot(*momentum_before_friction(state, scn, dt)) > dt * 4.0 * new.h
        assert 0 < moving.sum() < moving.size
        np.testing.assert_allclose(np.hypot(*info.B)[moving], 1.0, rtol=4 * EPS, atol=0)
        assert np.all(np.hypot(*info.B)[~moving] < 1.0)

    @settings(max_examples=40, deadline=None)
    @given(case=step_cases())
    def test_a_frictionless_step_returns_the_flux_update(self, case):
        """gamma = gamma2 = 0 runs the resolvent too: its factor is 1 - fmin(0 / |q|, 1)
        = 1, so q_post = q_pre bit for bit (+-0 kept in still cells), B = +0 and
        the dissipation increment is 0."""
        scn, state, dt = case
        scn = dataclasses.replace(scn, friction=FrictionParams(), f=None)
        _, q_pre = oracle_fluxes(state, scn, dt)
        new, info = step(state, scn, dt, state_work(state, scn.a))
        assert new.q.tobytes() == q_pre.tobytes()
        assert info.B.tobytes() == bytes(info.B.nbytes)
        assert info.dissipation_inc == 0.0 and info.work_inc == 0.0

    def test_subnormal_gamma_gives_a_unit_selection(self):
        # dt gamma h is subnormal, far below |q_pre|, so B = q_pre / |q_pre|;
        # (q_pre - q_post) / (dt gamma h) would overflow here
        grid = TorusGrid(8, 12)
        scn = Scenario(
            grid=grid,
            T=1.0,
            a=1.0,
            friction=FrictionParams(gamma=2.225073858507e-311, gamma2=1.0),
            h0=sample(grid, lambda x1, x2: 2.0 + np.sin(2 * np.pi * x1)),
            u0=sample(grid, 0.6, -0.8),
        )
        state = scn.initial_state()
        work = state_work(state, scn.a)
        dt = cfl_dt(scn.cfl, grid.dx, 1.0, work)
        new, info = step(state, scn, dt, work)
        assert step_bits(new, info) == oracle_bits(oracle_step(state, scn, dt))
        np.testing.assert_allclose(np.hypot(info.B[0], info.B[1]), 1.0, rtol=1e-15)
        assert np.isfinite(info.dissipation_inc) and info.dissipation_inc >= 0.0

    @settings(max_examples=60, deadline=None)
    @given(case=step_cases(), gamma_kind=st.sampled_from(["drawn", "zeros", "subnormal"]),
           data=st.data())
    def test_selection_is_in_the_friction_graph(self, case, gamma_kind, data):
        """Without force, so that the step returns q_post: |B| <= 1 + 4 eps
        and B . u_post >= 0 in each cell, B = 0 where dt gamma h = 0, and a
        cell with |q_pre| <= dt gamma h stops at q_post = +-0."""
        scn, state, dt = case
        gamma, shape = scn.friction.gamma, scn.grid.shape
        if gamma_kind == "zeros":
            gamma = np.where(data.draw(arrays(np.bool_, shape)), 0.0, np.maximum(gamma, 0.5))
        elif gamma_kind == "subnormal":
            gamma = 2.225073858507e-311
        scn = dataclasses.replace(
            scn, f=None, friction=FrictionParams(gamma=gamma, gamma2=scn.friction.gamma2)
        )
        q_pre = momentum_before_friction(state, scn, dt)
        new, info = step(state, scn, dt, state_work(state, scn.a))
        B, q_post = info.B, new.q
        thresh = dt * np.asarray(gamma) * new.h
        assert np.all(np.hypot(*B) <= 1.0 + 4 * EPS)
        u_post = q_post / new.h
        assert np.all(B[0] * u_post[0] + B[1] * u_post[1] >= 0.0)
        assert np.all(B[:, thresh == 0.0] == 0.0)
        stopped = np.hypot(*q_pre) <= thresh
        event(f"a cell stops: {bool(np.any(stopped & (thresh > 0)))}")
        assert np.all(q_post[:, stopped] == 0.0)

    @pytest.mark.parametrize("make", RUNS, ids=RUN_IDS)
    def test_steps_sharing_a_workspace_equal_steps_with_fresh_ones(self, make):
        scn = make(TorusGrid(8, 12))
        work = solver.Workspace(scn.grid.shape)
        shared = fresh = scn.initial_state()
        for _ in range(6):
            work.fill(shared.h, *shared.q, scn.a)
            dt = cfl_dt(scn.cfl, scn.grid.dx, 1.0, work)
            terms = [x.copy() for x in (work.speeds, work.pressure, work.cross)]
            # a step of the same state again, after the workspace was used
            again = step_bits(*step(shared, scn, dt, work))
            for x, before in zip((work.speeds, work.pressure, work.cross), terms):
                assert x.tobytes() == before.tobytes()  # a step never writes the terms
            shared, info = step(shared, scn, dt, work)
            assert step_bits(shared, info) == again
            fresh, fresh_info = step(fresh, scn, dt, state_work(fresh, scn.a))
            assert step_bits(shared, info) == step_bits(fresh, fresh_info)

    @pytest.mark.parametrize("make", RUNS, ids=RUN_IDS)
    def test_outputs_share_no_memory_and_the_workspace_dies_with_the_run(self, monkeypatch, make):
        made = []

        class Recorded(solver.Workspace):
            def __init__(self, shape):
                super().__init__(shape)
                made.append((weakref.ref(self), self.fields))

        monkeypatch.setattr(solver, "Workspace", Recorded)
        scn = make(TorusGrid(8, 12))
        traj = simulate(scn)
        assert len(made) == 1
        ref, fields = made[0]
        assert ref() is None  # released when the run ended
        outputs = [s.h for s in traj.states[1:]] + [s.q for s in traj.states]
        outputs += list(traj.selections)
        for i, x in enumerate(outputs):
            assert not np.shares_memory(x, fields)
            for y in outputs[i + 1 :]:
                assert not np.shares_memory(x, y)
        copied = [
            (o.t, o.state.h.copy(), o.state.q.copy(), o.selection.copy())
            for o in stream(scn, EnergyLedger())
        ]
        assert [c[0] for c in copied] == list(traj.times)
        for (_, h, q, b), state, selection in zip(copied, traj.states, traj.selections):
            assert h.tobytes() == state.h.tobytes()
            assert q.tobytes() == state.q.tobytes()
            assert b.tobytes() == selection.tobytes()

    def test_step_scratch_stays_below_12_fields(self, grid64):
        """Given its run's workspace, one 64^2 Coulomb step allocates its
        outputs (h, q, B: 5 fields) and little more; with fresh temporaries
        it took 21.3 fields."""
        x1, x2 = grid64.cell_centers()
        scn = Scenario(
            grid=grid64,
            T=0.1,
            a=0.5,
            friction=FrictionParams(gamma=0.2 + 0.1 * np.cos(2 * np.pi * x1)),
            h0=1 + 0.2 * np.sin(2 * np.pi * x1) * np.cos(2 * np.pi * x2),
            u0=np.stack([0.3 * np.cos(2 * np.pi * x2), 0 * x1]),
            f=sample(grid64, 0.1, 0.0),
        )
        state = scn.initial_state()
        work = state_work(state, scn.a)
        dt = cfl_dt(scn.cfl, grid64.dx, 1.0, work)
        step(state, scn, dt, work)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            step(state, scn, dt, work)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        field = 64 * 64 * 8
        assert peak < 12 * field, f"step allocated {peak / field:.1f} fields"


SRC = Path(__file__).resolve().parents[1] / "src" / "shlab"
# the step's hot path, which selects with plain ufuncs and takes no second norm
NO_MASK_OR_HYPOT = ("step", "rusanov_flux", "cfl_dt")


def _is_hypot(call):
    f = call.func
    return (isinstance(f, ast.Attribute) and f.attr == "hypot") or (
        isinstance(f, ast.Name) and f.id == "hypot"
    )


def _hot_path_violations(path):
    """(function, what) for each call with a where= keyword or of hypot in
    the NO_MASK_OR_HYPOT functions of one module, and for friction_shrink
    if it calls hypot more than once outside its `if ... gamma2 ...:`
    branch (the Coulomb path); and the names of those functions found."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found, seen = [], set()
    for top in tree.body:
        if not isinstance(top, ast.FunctionDef):
            continue
        if top.name in NO_MASK_OR_HYPOT:
            seen.add(top.name)
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    if any(k.arg == "where" for k in node.keywords):
                        found.append((top.name, "where="))
                    if _is_hypot(node):
                        found.append((top.name, "hypot"))
        elif top.name == "friction_shrink":
            seen.add(top.name)
            extended = {
                id(n)
                for branch in ast.walk(top)
                if isinstance(branch, ast.If) and "gamma2" in ast.unparse(branch.test)
                for n in ast.walk(branch)
            }
            coulomb = [
                n for n in ast.walk(top)
                if isinstance(n, ast.Call) and _is_hypot(n) and id(n) not in extended
            ]
            if len(coulomb) > 1:
                found.append((top.name, f"{len(coulomb)} hypot calls on the Coulomb path"))
    return found, seen


def test_the_step_takes_one_norm_and_no_masked_ufunc():
    found, seen = [], set()
    for name in ("solver.py", "friction.py"):
        f, s = _hot_path_violations(SRC / name)
        found += f
        seen |= s
    assert seen == {*NO_MASK_OR_HYPOT, "friction_shrink"}
    assert not found, found


def test_hot_path_guard_sees_each_form(tmp_path):
    p = tmp_path / "mod.py"
    p.write_text(
        "def step(x):\n"
        "    np.divide(x, 2.0, out=x, where=x > 0)\n"
        "    return np.hypot(x, x)\n"
        "def rusanov_flux(x):\n"
        "    return hypot(x, x)\n"
        "def cfl_dt(x):\n"
        "    return [np.copyto(x, 0.0, where=x < 0) for _ in x]\n"
        "def friction_shrink(q, params):\n"
        "    n = np.hypot(q[0], q[1])\n"
        "    if params.gamma2 > 0.0:\n"
        "        n = np.hypot(n, n)\n"
        "    return n, numpy.hypot(n, n)\n"
        "def elsewhere(x):\n"
        "    return np.hypot(x, x, where=x > 0)\n"
    )
    found, seen = _hot_path_violations(p)
    assert seen == {*NO_MASK_OR_HYPOT, "friction_shrink"}
    assert found == [
        ("step", "where="),
        ("step", "hypot"),
        ("rusanov_flux", "hypot"),
        ("cfl_dt", "where="),
        ("friction_shrink", "2 hypot calls on the Coulomb path"),
    ]
    # one hypot on the Coulomb path and one in the extended branch pass
    p.write_text(p.read_text().replace("    return n, numpy.hypot(n, n)\n", "    return n\n"))
    assert ("friction_shrink", "2 hypot calls on the Coulomb path") not in _hot_path_violations(p)[0]


class TestSimulate:
    def test_zero_horizon_returns_initial_state(self, grid32):
        traj = simulate(uniform_scenario(grid32, T=0.0))
        assert len(traj.states) == 1
        assert traj.n_steps == 0

    def test_steady_state_ledger_is_flat(self, grid32):
        traj = simulate(uniform_scenario(grid32, gamma=0.3, T=1.0, n_output=11))
        total = traj.ledger.column("total")
        np.testing.assert_allclose(total, total[0], atol=1e-14)

    def test_uniform_coulomb_decay_matches_ode(self, grid32):
        # spatially uniform run reduces to du/dt = -gamma u/|u|
        scn = uniform_scenario(grid32, u=(1.0, 0.0), gamma=0.5, T=1.0, n_output=11)
        traj = simulate(scn)
        dt = scn.T / traj.n_steps
        u_final = traj.states[-1].velocity()
        np.testing.assert_allclose(u_final[0], 0.5, atol=3 * dt)
        np.testing.assert_allclose(u_final[1], 0.0, atol=1e-14)

    def test_decay_dissipation_integral(self, grid32):
        scn = uniform_scenario(grid32, u=(1.0, 0.0), gamma=0.5, T=1.0, n_output=11)
        traj = simulate(scn)
        dt = scn.T / traj.n_steps
        u_T = float(traj.states[-1].velocity()[0].mean())
        expected = 0.5 * (1.0 - u_T**2) * 1.0  # mass = 1
        assert traj.ledger.column("dissipation_cum")[-1] == pytest.approx(expected, abs=5 * dt)

    def test_energy_residual_is_one_sided(self, grid32):
        traj = simulate(smooth_scenario(grid32, n_output=21))
        assert float(np.max(traj.ledger.column("e2_residual"))) <= 1e-12

    def test_forcing_work_enters_ledger(self, grid32):
        scn = Scenario(
            grid=grid32,
            T=0.5,
            a=0.5,
            friction=FrictionParams(),
            h0=sample(grid32, 1.0),
            u0=sample(grid32, 0.0, 0.0),
            f=sample(grid32, 0.2, 0.0),
            n_output=6,
        )
        traj = simulate(scn)
        work = traj.ledger.column("work_cum")
        assert work[-1] > 0.0
        assert float(np.max(traj.ledger.column("e2_residual"))) <= 1e-12

    def test_selections_recorded_per_output_time(self, grid32):
        traj = simulate(uniform_scenario(grid32, u=(1.0, 0.0), gamma=0.5, T=0.5, n_output=6))
        assert len(traj.selections) == len(traj.states)
        assert np.all(np.hypot(*traj.selections[1]) <= 1.0 + 1e-12)

    def test_determinism(self, grid32):
        a = simulate(smooth_scenario(grid32, n_output=6))
        b = simulate(smooth_scenario(grid32, n_output=6))
        assert a.ledger.rows == b.ledger.rows
        np.testing.assert_array_equal(a.states[-1].h, b.states[-1].h)


def forced_friction_scenario(grid):
    return Scenario(
        grid=grid,
        T=0.2,
        a=0.5,
        friction=FrictionParams(gamma=0.3),
        h0=sample(grid, lambda x1, x2: 1.0 + 0.2 * np.sin(2 * np.pi * x1)),
        u0=sample(
            grid, lambda x1, x2: 0.4 * np.cos(2 * np.pi * x2), lambda x1, x2: 0.0 * x1
        ),
        f=sample(grid, 0.1, 0.0),
        n_output=7,
    )


class TestStream:
    @pytest.mark.parametrize(
        "make",
        [
            lambda g: smooth_scenario(g, T=0.0),
            lambda g: smooth_scenario(g, n_output=2),
            forced_friction_scenario,
        ],
        ids=["T=0", "n_output=2", "friction+force"],
    )
    def test_collected_run_is_bitwise_the_stream(self, make):
        scn = make(TorusGrid(16, 16))
        ledger = EnergyLedger()
        streamed = list(stream(scn, ledger))
        traj = simulate(scn)
        assert len(streamed) == len(traj.states) == len(traj.selections) == traj.times.size
        assert [out.t for out in streamed] == list(traj.times)
        for out, state, selection in zip(streamed, traj.states, traj.selections):
            assert np.array_equal(out.state.h, state.h)
            assert np.array_equal(out.state.q, state.q)
            assert np.array_equal(out.selection, selection)
        assert ledger.rows == traj.ledger.rows
        assert [out.n_steps for out in streamed] == sorted(out.n_steps for out in streamed)
        assert streamed[-1].n_steps == traj.n_steps

    def test_ledger_row_lands_with_each_output(self):
        ledger = EnergyLedger()
        for j, out in enumerate(stream(forced_friction_scenario(TorusGrid(8, 8)), ledger)):
            assert len(ledger.rows) == j + 1
            assert ledger.rows[-1][0] == out.t


def count_steps(monkeypatch) -> list:
    calls = []
    real = solver.step

    def counted(state, scenario, dt, work):
        calls.append(dt)
        return real(state, scenario, dt, work)

    monkeypatch.setattr(solver, "step", counted)
    return calls


class TestStepBudget:
    @pytest.mark.parametrize("kw", [{"a": 1e200}, {"T": 1e300}], ids=["a=1e200", "T=1e300"])
    def test_projected_overrun_aborts_before_any_step(self, monkeypatch, kw):
        calls = count_steps(monkeypatch)
        with pytest.raises(NumericalAbort, match=f"more than {solver.MAX_STEPS} steps"):
            simulate(uniform_scenario(TorusGrid(8, 8), **kw))
        assert calls == []

    def test_run_never_takes_more_than_the_budget(self, monkeypatch):
        # dt = T/100 projects 100 steps, but each of the 60 output intervals
        # takes two: the run needs 120
        monkeypatch.setattr(solver, "MAX_STEPS", 110)
        calls = count_steps(monkeypatch)
        scn = uniform_scenario(TorusGrid(8, 8), T=1.0, n_output=61)
        with pytest.raises(NumericalAbort, match="more than 110 steps"):
            simulate(scn)
        assert 0 < len(calls) <= 110
        monkeypatch.setattr(solver, "MAX_STEPS", 120)
        assert simulate(scn).n_steps == 120  # a run that fits the budget finishes

    def test_more_outputs_than_the_budget_aborts_up_front(self, monkeypatch):
        # every output after the first takes a step of its own
        monkeypatch.setattr(solver, "MAX_STEPS", 150)
        calls = count_steps(monkeypatch)
        with pytest.raises(NumericalAbort, match="152 output times"):
            next(stream(uniform_scenario(TorusGrid(8, 8), n_output=152), EnergyLedger()))
        assert calls == []
        assert simulate(uniform_scenario(TorusGrid(8, 8), n_output=101)).n_steps == 100

    @pytest.mark.parametrize("tiny", [0.0, 1e-30])
    def test_stopped_clock_aborts(self, monkeypatch, tiny):
        # after one real step, a CFL step below half an ulp of t
        real = solver.cfl_dt
        calls = []

        def shrinking(*args):
            calls.append(1)
            return real(*args) if len(calls) == 1 else tiny

        monkeypatch.setattr(solver, "cfl_dt", shrinking)
        with pytest.raises(NumericalAbort, match="no longer advances the clock"):
            simulate(smooth_scenario(TorusGrid(8, 8)))
        assert len(calls) == 2


class TestConvergence:
    def test_first_order_l1_self_convergence(self):
        # gamma=0 smooth data; error vs 4x reference drops ~2x per refinement
        errors = []
        ref = simulate(smooth_scenario(TorusGrid(64, 64), n_output=3))
        for nx in (16, 32):
            traj = simulate(smooth_scenario(TorusGrid(nx, nx), n_output=3))
            f = 64 // nx
            coarse_ref = ref.states[-1].h.reshape(nx, f, nx, f).mean(axis=(1, 3))
            errors.append(float(np.mean(np.abs(traj.states[-1].h - coarse_ref))))
        order = np.log2(errors[0] / errors[1])
        assert order >= 0.8


class TestLedger:
    @pytest.mark.parametrize("field", [False, True], ids=["gamma-scalar", "gamma-field"])
    def test_coulomb_dissipation_equals_the_pricing_by_the_selection(self, field):
        """Under the Coulomb law the resolvent makes q_pre - q_post = dt gamma h B
        up to roundoff, so over a run the charged increments mean((q_pre - q_post)
        . u_post) sum to those of dt mean(gamma h B . u_post) to 1e-14 relative.
        The field is zero on half the grid."""
        grid = TorusGrid(16, 12)
        x1, _ = grid.cell_centers()
        gamma = np.maximum(0.4 * np.cos(2 * np.pi * x1), 0.0) if field else 0.3
        scn = dataclasses.replace(
            forced_friction_scenario(grid), friction=FrictionParams(gamma=gamma), f=None
        )
        state, work = scn.initial_state(), solver.Workspace(grid.shape)
        t, charged, priced = 0.0, 0.0, 0.0
        while t < scn.T - 1e-14:
            work.fill(state.h, *state.q, scn.a)
            dt = min(cfl_dt(scn.cfl, min(grid.dx, grid.dy), 1.0, work), scn.T - t)
            state, info = step(state, scn, dt, work)
            u, B = state.velocity(), info.B
            priced += dt * float(np.mean(gamma * state.h * (B[0] * u[0] + B[1] * u[1])))
            charged += info.dissipation_inc
            t += dt
        assert priced > 0.0
        assert abs(charged - priced) <= 1e-14 * priced

    def test_csv_round_trip(self, grid32, tmp_path):
        traj = simulate(uniform_scenario(grid32, u=(1.0, 0.0), gamma=0.5, T=0.5, n_output=6))
        path = tmp_path / "ledger.csv"
        cli._RunDir(tmp_path).table("ledger.csv", EnergyLedger.columns, traj.ledger.rows)
        rows = np.genfromtxt(path, delimiter=",", names=True)
        assert tuple(rows.dtype.names) == EnergyLedger.columns
        np.testing.assert_allclose(rows["mass"], traj.ledger.column("mass"), rtol=1e-15)


@settings(max_examples=60, deadline=None)
@given(
    shape=st.tuples(st.sampled_from([8, 12, 16, 32]), st.sampled_from([8, 12, 16, 32])),
    c=st.lists(st.floats(-1.0, 1.0), min_size=20, max_size=20),
    scale=st.sampled_from([1.0, 1e-4, 1e-8, 1e-12]),
    h_min=st.floats(1e-2, 1.0),
    speed=st.floats(0.0, 3.0),
    a=st.floats(0.05, 2.0),
    gamma=st.floats(0.0, 5.0),
    gamma_field=st.booleans(),
    gamma2=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
    force=st.one_of(st.none(), st.floats(0.0, 2.0)),
    cfl=st.one_of(st.just(0.5), st.floats(0.05, 0.5)),
    T=st.floats(0.01, 0.2),
)
def test_the_ledger_is_dissipative_on_band_limited_data(
    shape, c, scale, h_min, speed, a, gamma, gamma_field, gamma2, force, cfl, T
):
    """e2_residual <= 8 eps (n + 1) S at every output, after n steps, with S
    the largest total energy plus the final dissipation_cum and work_cum: on
    8^2 to 32^2 grids with band-limited h and u (their variation down to
    1e-12, near a still state, where roundoff is all that is left), under
    both friction laws, gamma a scalar or a field with zeros, force on or off.

    In exact arithmetic e2 <= 0.  The friction and the force keep h and
    change q from a to b; the ledger charges dq = b - a at the new velocity,
    and |b|^2 / 2 - |a|^2 / 2 = b . (b - a) - |b - a|^2 / 2 makes the cell's
    kinetic energy fall by at least dq . b / h (friction) or rise by at most
    it (force).  The flux update raises no total energy: with the energy
    |q|^2 / 2h + a h^2 as entropy, it is the discrete entropy inequality of
    the Rusanov scheme under a CFL bound (Bouchut 2004), which this test
    checks at cfl <= 1/2 rather than assumes.

    The bound: each step rounds h and q in each cell to a few ulps, and so
    its energy and the two charged means to a few ulps of S, as the final
    row's sum does; 8 eps S per step and for the row covers that.  The worst
    seen over 1,500 such runs was 0.2 eps (n + 1) S, near a still state.
    """
    grid = TorusGrid(*shape)
    x1, x2 = grid.cell_centers()
    c = [scale * x for x in c]
    bump = band_limited(c[0:4], x1, x2)
    h0 = h_min + bump - bump.min()
    u0 = speed * np.stack([band_limited(c[4:8], x1, x2), band_limited(c[8:12], x1, x2)])
    if gamma_field:
        gamma = np.maximum(gamma * band_limited(c[12:16], x1, x2) / scale, 0.0)
    f = None
    if force is not None:
        f = force * np.stack([band_limited(c[16:20], x1, x2) / scale, 0.5 + 0.0 * x1])
    scn = Scenario(
        grid=grid, T=T, a=a, friction=FrictionParams(gamma=gamma, gamma2=gamma2),
        h0=h0, u0=u0, f=f, cfl=cfl, n_output=6,
    )
    ledger = EnergyLedger()
    steps = np.array([out.n_steps for out in stream(scn, ledger)])
    e2 = ledger.column("e2_residual")
    S = ledger.column("total").max() + ledger.column("dissipation_cum")[-1]
    S += ledger.column("work_cum")[-1]
    event(f"some e2 > 0: {bool(np.any(e2 > 0.0))}")
    assert np.all(e2 <= 8 * EPS * (steps + 1) * S)
