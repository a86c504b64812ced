"""Periodic grids and sampled fields.

Everything in the package lives on a uniform cell-centered grid over the unit
torus [0,1)^2.  Scalar fields are (nx, ny) arrays, vector fields (2, nx, ny),
and symmetric traceless 2x2 tensor fields are stored as the two independent
components (p, s) of [[p, s], [s, -p]], so symmetry and tracelessness hold by
construction.  Axis 0 is x1, axis 1 is x2.

Every value the package computes or reads is such a bare array.  The
grid-carrying wrappers ScalarField, VectorField, SymTracelessField and
SpaceTimeField are built by no code of the package; they stay only because
the benchmark's trace points (bench/tracing.py) name their validators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidValueError

#: most cells a grid may have (a 4096 x 4096 field is 128 MiB); larger
#: counts are rejected before anything is allocated
MAX_CELLS = 2**24


@dataclass(frozen=True)
class TorusGrid:
    """Uniform cell-centered grid on the unit torus.

    Cell centers sit at ((i + 1/2) dx, (j + 1/2) dy).  Counts must be even and
    at least 4 so discrete Fourier transforms have an unambiguous band, and
    nx * ny must not exceed MAX_CELLS.
    """

    nx: int
    ny: int

    def __post_init__(self):
        for n in (self.nx, self.ny):
            if n < 4 or n % 2 != 0:
                raise InvalidValueError(
                    f"grid counts must be even and >= 4, got {self.nx}x{self.ny}"
                )
        if self.nx * self.ny > MAX_CELLS:
            raise InvalidValueError(f"grid {self.nx}x{self.ny} has more than {MAX_CELLS} cells")

    @property
    def dx(self) -> float:
        return 1.0 / self.nx

    @property
    def dy(self) -> float:
        return 1.0 / self.ny

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    def cell_coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """1-D cell-center coordinates x1 (length nx) and x2 (length ny)."""
        return (np.arange(self.nx) + 0.5) * self.dx, (np.arange(self.ny) + 0.5) * self.dy

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid (indexing='ij') of cell-center coordinates."""
        return np.meshgrid(*self.cell_coordinates(), indexing="ij")


def _check_finite(values: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(values)):
        raise InvalidValueError(f"{what} contains non-finite values")


def _validate(fld, shape: tuple[int, ...], what: str) -> None:
    """Store fld.values as a finite float array of the given shape."""
    v = np.asarray(fld.values, dtype=float)
    if v.shape != shape:
        raise InvalidValueError(f"{what} shape {v.shape} does not match grid {fld.grid.shape}")
    _check_finite(v, what)
    object.__setattr__(fld, "values", v)


@dataclass(frozen=True)
class ScalarField:
    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self):
        _validate(self, self.grid.shape, "scalar field")


@dataclass(frozen=True)
class VectorField:
    grid: TorusGrid
    values: np.ndarray  # shape (2, nx, ny)

    def __post_init__(self):
        _validate(self, (2, *self.grid.shape), "vector field")


@dataclass(frozen=True)
class SymTracelessField:
    """Symmetric traceless tensor field [[p, s], [s, -p]] stored as (p, s)."""

    grid: TorusGrid
    values: np.ndarray  # shape (2, nx, ny): component 0 is p, component 1 is s

    def __post_init__(self):
        _validate(self, (2, *self.grid.shape), "tensor field")


def deviatoric_outer(q: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Traceless part (p, s) of q (x) q / h for (..., 2, nx, ny) momentum
    samples q and (..., nx, ny) heights h; shape (..., 2, nx, ny).

    p = (q1^2 - q2^2) / (2h), s = q1 q2 / h.  The eigenvalues of
    [[p, s], [s, -p]] are +-hypot(p, s), and the top one equals half |q|^2 / h.
    """
    q1, q2 = q[..., 0, :, :], q[..., 1, :, :]
    return np.stack([(q1 * q1 - q2 * q2) / (2.0 * h), q1 * q2 / h], axis=-3)


@dataclass(frozen=True)
class SpaceTimeField:
    """Time-indexed stack of spatial fields on uniform nodes t_0=0, ..., t_K=T.

    ``values`` has shape (K+1, nx, ny) for scalar kind and (K+1, 2, nx, ny)
    for vector / symtraceless kinds.
    """

    grid: TorusGrid
    times: np.ndarray
    values: np.ndarray
    kind: str = field(default="scalar")

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or t.size < 3:
            raise InvalidValueError("need at least 3 time nodes (K >= 2)")
        dt = np.diff(t)
        if np.any(dt <= 0):
            raise InvalidValueError("time nodes must be strictly increasing")
        if not np.allclose(dt, dt[0], rtol=1e-12, atol=1e-14):
            raise InvalidValueError("time nodes must be uniformly spaced")
        if t[0] != 0.0:
            raise InvalidValueError("time nodes must start at t = 0")
        if self.kind == "scalar":
            expect = (t.size, *self.grid.shape)
        elif self.kind in ("vector", "symtraceless"):
            expect = (t.size, 2, *self.grid.shape)
        else:
            raise InvalidValueError(f"unknown space-time field kind {self.kind!r}")
        if v.shape != expect:
            raise InvalidValueError(
                f"space-time values shape {v.shape}, expected {expect}"
            )
        _check_finite(v, "space-time field")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def num_nodes(self) -> int:
        return self.times.size


def time_derivative(v: np.ndarray, dt: float) -> np.ndarray:
    """2nd-order time derivative of a (K+1, ...) stack v on uniform nodes dt
    apart: centered interior, one-sided at endpoints."""
    out = np.empty_like(v)
    inner = np.subtract(v[2:], v[:-2], out=out[1:-1])
    inner /= 2.0 * dt
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * dt)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * dt)
    return out
