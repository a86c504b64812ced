"""Grids, field containers, and the pointwise tensor algebra."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shlab.errors import InvalidValueError, NumericalAbort
from shlab.fields import (
    ScalarField,
    SpaceTimeField,
    SymTracelessField,
    TorusGrid,
    VectorField,
    deviatoric_outer,
    time_derivative,
)
from shlab.friction import FrictionParams
from shlab.workbench import WorkbenchProblem, _constraint_lambda, subsolution_certificate

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
positive = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)


class TestTorusGrid:
    def test_spacing_and_centers(self):
        g = TorusGrid(8, 16)
        assert g.dx == 1.0 / 8
        assert g.dy == 1.0 / 16
        x1, x2 = g.cell_centers()
        assert x1[0, 0] == 0.5 * g.dx
        assert x2.shape == (8, 16)

    @pytest.mark.parametrize("nx,ny", [(3, 8), (8, 3), (5, 8), (8, 7), (0, 8), (2, 8)])
    def test_rejects_odd_or_tiny_counts(self, nx, ny):
        with pytest.raises(InvalidValueError):
            TorusGrid(nx, ny)


def top_eigenvalue(p, s):
    """The certificate's lambda_max of -[[p, s], [s, -p]] (zero momentum, unit
    height), which equals that of [[p, s], [s, -p]]: hypot(p, s)."""
    W = -np.array([p, s], dtype=float).reshape(1, 2, 1, 1)
    return float(_constraint_lambda(np.zeros_like(W), np.ones((1, 1, 1)), W)[0, 0, 0])


class TestLambdaMax:
    """The top eigenvalue of a traceless symmetric matrix, as the certificate
    computes it."""

    def test_three_four_five(self):
        assert top_eigenvalue(3.0, 4.0) == 5.0

    def test_zero_matrix(self):
        assert top_eigenvalue(0.0, 0.0) == 0.0

    def test_diagonal(self):
        assert top_eigenvalue(1.0, 0.0) == 1.0

    def test_rejects_non_finite(self):
        # a stress that is not finite makes the margin not finite: the
        # certificate aborts rather than certify, and numpy does not warn
        grid = TorusGrid(8, 8)
        prob = WorkbenchProblem(
            grid=grid, T=1.0, num_steps=4, a=0.5, friction=FrictionParams(),
            h0=ScalarField.constant(grid, 1.0), u0=VectorField.constant(grid, 0.0, 0.0),
        )
        sub = prob.build(1.0)
        for bad in (np.nan, np.inf, 1.5e308):  # hypot(1.5e308, 1.5e308) overflows
            stress = sub.stress.copy()
            stress[2, :, 3, 3] = bad
            with pytest.raises(NumericalAbort):
                subsolution_certificate(dataclasses.replace(sub, stress=stress))

    @given(p=finite, s=finite)
    def test_matches_eigendecomposition(self, p, s):
        mat = np.array([[p, s], [s, -p]])
        expected = float(np.max(np.linalg.eigvalsh(mat)))
        assert top_eigenvalue(p, s) == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestTensorApply:
    """deviatoric_outer: the traceless part of the tensor q (x) q / h."""

    def test_unit_x_momentum(self):
        q = np.zeros((2, 32, 32))
        q[0] = 1.0
        p, s = deviatoric_outer(q, np.ones((32, 32)))
        np.testing.assert_allclose(p, 0.5)
        np.testing.assert_allclose(s, 0.0)

    def test_diagonal_momentum(self):
        p, s = deviatoric_outer(np.ones((2, 32, 32)), np.full((32, 32), 2.0))
        np.testing.assert_allclose(p, 0.0)
        np.testing.assert_allclose(s, 0.5)

    def test_zero_momentum(self):
        assert not np.any(deviatoric_outer(np.zeros((2, 32, 32)), np.full((32, 32), 3.0)))

    def test_stack_matches_slices(self, rng):
        q = rng.standard_normal((3, 2, 8, 8))
        h = 1.0 + rng.random((3, 8, 8))
        dev = deviatoric_outer(q, h)
        assert dev.shape == q.shape
        for k in range(3):
            np.testing.assert_array_equal(dev[k], deviatoric_outer(q[k], h[k]))

    @settings(max_examples=50, deadline=None)
    @given(q1=finite, q2=finite, h=positive)
    def test_kinetic_energy_equals_lambda_max(self, q1, q2, h):
        # half |q|^2 / h is exactly the top eigenvalue of the deviatoric part
        # of q (x) q / h -- the identity the certificate leans on
        q = np.array([q1, q2])[:, None, None] * np.ones((2, 4, 4))
        p, s = deviatoric_outer(q, np.full((4, 4), h))
        kinetic = 0.5 * (q1 * q1 + q2 * q2) / h
        np.testing.assert_allclose(np.hypot(p, s), kinetic, rtol=1e-12, atol=1e-12)


class TestFieldValidation:
    def test_scalar_shape_mismatch(self, grid32):
        with pytest.raises(InvalidValueError):
            ScalarField(grid32, np.zeros((8, 8)))

    def test_vector_shape_mismatch(self, grid32):
        with pytest.raises(InvalidValueError):
            VectorField(grid32, np.zeros((3, 32, 32)))

    def test_non_finite_rejected(self, grid32):
        bad = np.zeros((32, 32))
        bad[0, 0] = np.inf
        with pytest.raises(InvalidValueError):
            ScalarField(grid32, bad)

    @pytest.mark.parametrize(
        "cls,shape,message",
        [
            (ScalarField, (8, 8), "scalar field shape (8, 8) does not match grid (32, 32)"),
            (VectorField, (3, 32, 32), "vector field shape (3, 32, 32) does not match grid (32, 32)"),
            (SymTracelessField, (32, 32), "tensor field shape (32, 32) does not match grid (32, 32)"),
        ],
    )
    def test_shape_messages(self, grid32, cls, shape, message):
        with pytest.raises(InvalidValueError) as info:
            cls(grid32, np.zeros(shape))
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "cls,kind", [(ScalarField, "scalar"), (VectorField, "vector"), (SymTracelessField, "tensor")]
    )
    def test_non_finite_messages(self, grid32, cls, kind):
        bad = np.zeros(grid32.shape if cls is ScalarField else (2, *grid32.shape))
        bad.flat[-1] = np.nan
        with pytest.raises(InvalidValueError) as info:
            cls(grid32, bad)
        assert str(info.value) == f"{kind} field contains non-finite values"


class TestSpaceTimeField:
    def make(self, grid, times, kind="scalar"):
        shape = (times.size, *grid.shape) if kind == "scalar" else (times.size, 2, *grid.shape)
        return SpaceTimeField(grid, times, np.zeros(shape), kind=kind)

    def test_basic(self, grid32):
        f = self.make(grid32, np.linspace(0.0, 1.0, 5))
        assert f.num_nodes == 5
        assert f.dt == pytest.approx(0.25)
        assert isinstance(f.slice(0), ScalarField)

    def test_rejects_nonuniform_times(self, grid32):
        with pytest.raises(InvalidValueError):
            self.make(grid32, np.array([0.0, 0.1, 0.3]))

    def test_rejects_nonzero_start(self, grid32):
        with pytest.raises(InvalidValueError):
            self.make(grid32, np.array([0.5, 1.0, 1.5]))

    def test_rejects_too_few_nodes(self, grid32):
        with pytest.raises(InvalidValueError):
            self.make(grid32, np.array([0.0, 1.0]))

    def test_time_derivative_exact_on_quadratics(self, grid32):
        times = np.linspace(0.0, 1.0, 9)
        vals = (2.0 + 3.0 * times - 1.5 * times**2)[:, None, None] * np.ones((1, 32, 32))
        expected = (3.0 - 3.0 * times)[:, None, None]
        np.testing.assert_allclose(time_derivative(vals, times[1] - times[0]),
                                   expected * np.ones((1, 32, 32)),
                                   rtol=0, atol=1e-12)
