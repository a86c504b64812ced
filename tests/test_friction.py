"""Multi-valued friction: selection, implicit resolvent, linearized coefficient."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sample
from shlab.errors import EnergyPositivityError, InvalidValueError, PositivityError
from shlab.fields import TorusGrid
from shlab.friction import (
    FrictionParams,
    coulomb_selection,
    friction_coefficient_values,
    friction_shrink,
)
from shlab.solver import Scenario


def const_state(grid, q1, q2, h):
    """Constant (2, nx, ny) momentum stack and (nx, ny) heights."""
    q = np.empty((2, *grid.shape))
    q[0] = q1
    q[1] = q2
    return q, np.full(grid.shape, float(h))


def shrink(q, h, params, dt):
    """friction_shrink with its threshold dt gamma h and scratch made here."""
    return friction_shrink(q, h, params, dt, dt * params.gamma * h, np.empty((2, *h.shape)))


class TestParams:
    def test_defaults(self):
        p = FrictionParams()
        assert p.gamma == 0.0 and p.gamma2 == 0.0

    def test_rejects_negative_gamma(self):
        with pytest.raises(InvalidValueError):
            FrictionParams(gamma=-1.0)

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf")])
    def test_rejects_non_finite_gamma(self, gamma):
        with pytest.raises(InvalidValueError, match="finite"):
            FrictionParams(gamma=gamma)

    def test_rejects_nan_gamma2(self):
        with pytest.raises(InvalidValueError, match="gamma2"):
            FrictionParams(gamma2=float("nan"))

    def test_gamma_field_on_wrong_grid(self, grid32):
        # rejected once, when the scenario is built, not on every step
        gamma = sample(TorusGrid(16, 16), 0.5)
        with pytest.raises(InvalidValueError, match="grid"):
            Scenario(
                grid=grid32,
                T=1.0,
                a=0.5,
                friction=FrictionParams(gamma=gamma),
                h0=sample(grid32, 1.0),
                u0=sample(grid32, 0.0, 0.0),
            )

    def test_active(self, grid32):
        assert not FrictionParams().active
        assert not FrictionParams(gamma=sample(grid32, 0.0)).active
        assert FrictionParams(gamma=0.1).active
        assert FrictionParams(gamma2=0.1).active
        field = sample(grid32, lambda x1, x2: np.where(x1 < 0.5, 0.0, 0.2))
        assert FrictionParams(gamma=field).active


class TestSelection:
    def test_normalization(self, grid32):
        u, _ = const_state(grid32, 3.0, 4.0, 1.0)
        B = coulomb_selection(u)
        np.testing.assert_allclose(B[0], 0.6, atol=1e-15)
        np.testing.assert_allclose(B[1], 0.8, atol=1e-15)

    def test_zero_velocity_selects_zero(self, grid32):
        B = coulomb_selection(np.zeros((2, *grid32.shape)))
        assert not np.any(B)

    def test_below_threshold_snaps_to_zero(self, grid32):
        B = coulomb_selection(const_state(grid32, 1e-13, 0.0, 1.0)[0])
        assert not np.any(B)

    def test_default_floor_scales_with_velocity(self, grid32):
        # beside a cell at |u| = 1e6 the floor exceeds 1e-7: that cell selects zero
        u, _ = const_state(grid32, 1e6, 0.0, 1.0)
        u[0, 0, 0] = 1e-7
        B = coulomb_selection(u)
        assert B[0, 0, 0] == 0.0 and B[0, 1, 1] == 1.0

    @settings(max_examples=40, deadline=None)
    @given(
        u1=st.floats(-10, 10, allow_nan=False),
        u2=st.floats(-10, 10, allow_nan=False),
    )
    def test_graph_properties(self, u1, u2):
        u, _ = const_state(TorusGrid(4, 4), u1, u2, 1.0)
        B = coulomb_selection(u)
        assert np.all(np.hypot(B[0], B[1]) <= 1.0 + 1e-12)
        assert np.all(B[0] * u1 + B[1] * u2 >= -1e-15)


class TestShrink:
    def test_gamma_field_acts_cell_by_cell(self, grid32, rng):
        gamma = rng.uniform(0.0, 3.0, grid32.shape)
        q, h = const_state(grid32, 3.0, 4.0, 1.0)
        out = shrink(q, h, FrictionParams(gamma=gamma), dt=1.0)
        # |q| = 5 shrinks by gamma to max(5 - gamma, 0) along (0.6, 0.8)
        expected = np.maximum(5.0 - gamma, 0.0)
        np.testing.assert_allclose(out[0], 0.6 * expected, atol=1e-14)
        np.testing.assert_allclose(out[1], 0.8 * expected, atol=1e-14)

    def test_closed_form(self, grid32):
        q, h = const_state(grid32, 3.0, 4.0, 1.0)
        out = shrink(q, h, FrictionParams(gamma=2.0), dt=1.0)
        np.testing.assert_allclose(out[0], 1.8, atol=1e-14)
        np.testing.assert_allclose(out[1], 2.4, atol=1e-14)

    def test_full_stop_inside_set_valued_regime(self, grid32):
        q, h = const_state(grid32, 0.1, 0.0, 1.0)
        out = shrink(q, h, FrictionParams(gamma=0.5), dt=1.0)
        assert not np.any(out)

    def test_zero_friction_is_identity(self, grid32):
        q, h = const_state(grid32, 1.5, -0.5, 2.0)
        out = shrink(q, h, FrictionParams(), dt=0.1)
        np.testing.assert_array_equal(out, q)

    def test_requires_positive_height(self, grid32):
        q, _ = const_state(grid32, 1.0, 0.0, 1.0)
        with pytest.raises(PositivityError):
            shrink(q, np.zeros(grid32.shape), FrictionParams(gamma=1.0), 0.1)

    def test_requires_positive_dt(self, grid32):
        q, h = const_state(grid32, 1.0, 0.0, 1.0)
        with pytest.raises(InvalidValueError):
            shrink(q, h, FrictionParams(gamma=1.0), dt=0.0)

    def test_consistency_with_selection(self, grid32):
        # (q - q') / dt -> gamma h B for |q|/h >> dt gamma
        gamma, dt = 0.7, 1e-6
        q, h = const_state(grid32, 3.0, 4.0, 2.0)
        out = shrink(q, h, FrictionParams(gamma=gamma), dt)
        rate = (q - out) / dt
        B = coulomb_selection(q / h)
        np.testing.assert_allclose(rate, gamma * h * B, rtol=1e-9)

    def test_extended_law_against_quadratic_oracle(self, grid32):
        # |q'| solves c x^2 + x - |q_c| = 0 after the coulomb shrink
        gamma, gamma2, dt, hval = 0.4, 1.3, 0.05, 0.8
        params = FrictionParams(gamma=gamma, gamma2=gamma2)
        q, h = const_state(grid32, 2.0, -1.0, hval)
        out = shrink(q, h, params, dt)
        mag0 = np.hypot(2.0, -1.0)
        mag_c = mag0 - dt * gamma * hval  # coulomb stage, known not to stop here
        c = dt * gamma2 / hval
        roots = np.roots([c, 1.0, -mag_c])
        expected = float(roots[roots > 0][0])
        np.testing.assert_allclose(np.hypot(out[0], out[1]), expected, rtol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        q1=st.floats(-5, 5, allow_nan=False),
        q2=st.floats(-5, 5, allow_nan=False),
        gamma=st.floats(0, 3, allow_nan=False),
        gamma2=st.floats(0, 3, allow_nan=False),
        dt=st.floats(1e-4, 0.5, allow_nan=False),
    )
    def test_resolvent_is_a_contraction_toward_zero(self, q1, q2, gamma, gamma2, dt):
        grid = TorusGrid(4, 4)
        params = FrictionParams(gamma=gamma, gamma2=gamma2)
        q, h = const_state(grid, q1, q2, 1.0)
        out = shrink(q, h, params, dt)
        mag_in = np.hypot(q1, q2)
        mag_out = float(np.hypot(out[0], out[1]).max())
        assert mag_out <= mag_in + 1e-12
        if mag_out > 0:
            # direction is preserved
            cross = out[0] * q2 - out[1] * q1
            np.testing.assert_allclose(cross, 0.0, atol=1e-10 * (1 + mag_in))


class TestCoefficientField:
    def test_coulomb_value(self, grid32):
        out = friction_coefficient_values(
            np.ones(grid32.shape), np.full(grid32.shape, 0.5), FrictionParams(gamma=1.0)
        )
        np.testing.assert_allclose(out, 1.0)

    def test_extended_value(self, grid32):
        out = friction_coefficient_values(
            np.full(grid32.shape, 2.0),
            np.ones(grid32.shape),
            FrictionParams(gamma=1.0, gamma2=1.0),
        )
        np.testing.assert_allclose(out, 2.0)

    def test_zero_coefficients(self, grid32):
        out = friction_coefficient_values(
            np.ones(grid32.shape), np.full(grid32.shape, 0.5), FrictionParams()
        )
        assert not np.any(out)

    def test_requires_positive_energy(self, grid32):
        with pytest.raises(EnergyPositivityError):
            friction_coefficient_values(
                np.ones(grid32.shape), np.zeros(grid32.shape), FrictionParams(gamma=1.0)
            )

    def test_stack_equals_slices_with_gamma_field(self, grid32, rng):
        gamma = rng.uniform(0.0, 1.0, grid32.shape)
        params = FrictionParams(gamma=gamma, gamma2=0.3)
        h = rng.uniform(0.5, 1.5, (5, *grid32.shape))
        E = rng.uniform(0.1, 1.0, (5, *grid32.shape))
        out = friction_coefficient_values(h, E, params)
        for k in range(5):
            expected = gamma * np.sqrt(h[k] / (2.0 * E[k])) + 0.3 * np.sqrt(2.0 * E[k] / h[k])
            np.testing.assert_array_equal(out[k], friction_coefficient_values(h[k], E[k], params))
            np.testing.assert_allclose(out[k], expected, rtol=1e-15)
