"""Coulomb friction: multi-valued graph, selection, and implicit resolvent.

The friction term u/|u| is multi-valued at u = 0 (any point of the closed
unit ball).  The solver never evaluates the graph directly: it applies the
exact backward-Euler resolvent of the inclusion, a pointwise norm shrinkage
whose scale s = max(|q|, dt gamma h) yields the point q / s of the graph
that it applied.  The velocity-dependent "extended" law, selected by
gamma2 > 0, adds a quadratic drag sub-step solved in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EnergyPositivityError, InvalidValueError, PositivityError


@dataclass(frozen=True)
class FrictionParams:
    """Coulomb coefficient gamma, a float or an (nx, ny) array, and the
    coefficient gamma2 of the velocity-dependent drag: gamma2 > 0 selects the
    extended law.  The scenario checks that an array gamma lives on its grid."""

    gamma: float | np.ndarray = 0.0
    gamma2: float = 0.0

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=float)
        if not np.all(np.isfinite(g)):
            raise InvalidValueError("friction gamma must be finite")
        if np.any(g < 0.0):
            raise InvalidValueError("friction gamma must be nonnegative")
        object.__setattr__(self, "gamma", float(g) if g.ndim == 0 else g)
        if not 0.0 <= self.gamma2 < np.inf:
            raise InvalidValueError(
                f"friction gamma2 must be finite and nonnegative, got {self.gamma2}"
            )

    @property
    def active(self) -> bool:
        """True unless gamma vanishes everywhere and gamma2 is zero."""
        return bool(np.any(self.gamma > 0.0)) or self.gamma2 > 0.0


def coulomb_selection(u: np.ndarray) -> np.ndarray:
    """Single-valued selection from the friction graph for (2, nx, ny)
    velocity samples u: u/|u| above the scale-aware floor
    1e-12 (max |u| + 1), zero below.  Always |B| <= 1 and B . u >= 0."""
    norm = np.hypot(u[0], u[1])
    active = norm > 1e-12 * (float(np.max(norm)) + 1.0)
    scale = np.where(active, 1.0 / np.where(active, norm, 1.0), 0.0)
    return u * scale


def friction_shrink(
    q: np.ndarray,
    h: np.ndarray,
    params: FrictionParams,
    dt: float,
    thresh: np.ndarray,
    scratch: np.ndarray,
) -> np.ndarray:
    """Exact backward-Euler resolvent of the friction inclusion on momentum,
    for a (2, nx, ny) momentum stack q and (nx, ny) heights h.

    Coulomb part: q' = q (1 - dt*gamma*h / s) for the scale s = max(|q|,
    dt*gamma*h); q' = 0 where |q| <= dt*gamma*h or dt*gamma*h = inf.
    The extended law (gamma2 > 0) follows with the closed-form solve of
    |q'| (1 + dt*gamma2*|q'|/h) = |q| (positive root of the quadratic).

    `thresh` holds dt*gamma*h already; `scratch` is two (nx, ny) float64
    fields that the Coulomb part overwrites, leaving s in scratch[0].  The
    result is a new array.
    """
    if dt <= 0.0:
        raise InvalidValueError("dt must be positive")
    if not h.min() > 0.0:
        raise PositivityError("friction_shrink requires h > 0 everywhere")
    scale, factor = scratch
    np.hypot(q[0], q[1], out=scale)
    np.maximum(scale, thresh, out=scale)
    with np.errstate(invalid="ignore"):  # 0 / 0 or inf / inf; fmin makes it 1, a stop
        np.divide(thresh, scale, out=factor)
    np.fmin(factor, 1.0, out=factor)
    np.subtract(1.0, factor, out=factor)
    out = q * factor
    if params.gamma2 > 0.0:
        mag = np.hypot(out[0], out[1])
        # |q'| = (-1 + sqrt(1 + 4 c |q|)) / (2 c) = |q| / half, without cancellation;
        # an infinite drag c |q| = inf stops the cell (NaN where |q| = 0, masked)
        with np.errstate(over="ignore", invalid="ignore"):
            c = dt * params.gamma2 / h
            half = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * c * mag))
        out = out * np.where(mag > 0.0, mag / half / np.where(mag > 0, mag, 1.0), 0.0)
    return out


def friction_coefficient_values(
    h: np.ndarray, E: np.ndarray, params: FrictionParams
) -> np.ndarray:
    """Scalar multiplier that renders the friction term linear in momentum,
    on (..., nx, ny) samples of h and E, e.g. a whole (K+1, nx, ny) stack.

    gamma * sqrt(h / 2E) for the Coulomb law; the extended law (gamma2 > 0)
    adds gamma2 * sqrt(2E / h).  Requires h > 0 and E > 0 everywhere.
    """
    if np.any(h <= 0.0):
        raise PositivityError("friction coefficient requires h > 0 everywhere")
    if np.any(E <= 0.0):
        raise EnergyPositivityError("friction coefficient requires E > 0 everywhere")
    out = params.gamma * np.sqrt(0.5 * h / E)  # 2 E overflows near the float range
    if params.gamma2 > 0.0:
        out = out + params.gamma2 * np.sqrt(2.0 * E / h)
    return out
