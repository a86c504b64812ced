"""DFT-based derivatives and elliptic solves on the unit torus.

Cell-center samples are treated as collocation values of the trigonometric
interpolant.  All solves are diagonal per wavevector; the zero mode is fixed
by a zero-mean gauge.  The Nyquist mode is zeroed for odd derivatives.
Every ``*_values`` function acts on the trailing (nx, ny) axes and accepts any
leading stack axes, e.g. a (K+1, nx, ny) time stack.  The transforms are
rfft2/irfft2 on the (nx, ny // 2 + 1) half plane; irfft2 restores an even ny.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericalAbort, SolvabilityError

#: mean-freeness tolerance for torus solvability, relative to max(1, max|slice|);
#: inputs within it are mean-corrected, beyond it rejected
MEAN_TOL = 1e-10


@lru_cache(maxsize=32)
def _wavenumbers(nx: int, ny: int):
    """(ik1, ik2, k2sum): Fourier symbols on the (nx, ny // 2 + 1) half plane
    that rfft2 keeps of the (nx, ny) grid.

    ik1/ik2 = i k1, i k2 (complex arrays) have the Nyquist row nx/2 of k1 and
    column ny/2 of k2 zeroed (for odd derivatives); k2sum = k1^2 + k2^2
    keeps both (for Laplacians).
    """
    k1 = 2.0 * np.pi * np.fft.fftfreq(nx, d=1.0 / nx)[:, None]
    k2 = 2.0 * np.pi * np.fft.rfftfreq(ny, d=1.0 / ny)[None, :]
    k2sum = k1 * k1 + k2 * k2
    k1[nx // 2, 0] = 0.0
    k2[0, ny // 2] = 0.0
    return 1j * np.broadcast_to(k1, k2sum.shape), 1j * np.broadcast_to(k2, k2sum.shape), k2sum


def _over_k2sum(spectrum: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Half-plane spectrum of a `shape` grid over |k|^2, in place, with the
    zero mode (|k| = 0) set to 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        spectrum /= _wavenumbers(*shape)[2]
    spectrum[..., 0, 0] = 0.0
    return spectrum


def grad_values(f: np.ndarray) -> np.ndarray:
    """Spectral gradient of scalar samples (..., nx, ny), shape (..., 2, nx, ny)."""
    ik1, ik2, _ = _wavenumbers(*f.shape[-2:])
    fh = np.fft.rfft2(f)[..., None, :, :]
    return np.fft.irfft2(np.stack([ik1, ik2]) * fh)


def div_values(q: np.ndarray) -> np.ndarray:
    """Spectral divergence of (..., 2, nx, ny) samples, shape (..., nx, ny)."""
    ik1, ik2, _ = _wavenumbers(*q.shape[-2:])
    qh = np.fft.rfft2(q)
    return np.fft.irfft2(ik1 * qh[..., 0, :, :] + ik2 * qh[..., 1, :, :])


def laplacian_values(f: np.ndarray) -> np.ndarray:
    k2sum = _wavenumbers(*f.shape[-2:])[2]
    return np.fft.irfft2(-k2sum * np.fft.rfft2(f))


def div_traceless_values(ps: np.ndarray) -> np.ndarray:
    """Divergence of [[p, s], [s, -p]] given (..., 2, nx, ny) samples (p, s).

    Row-wise: (d1 p + d2 s, d1 s - d2 p).
    """
    g = grad_values(ps)  # (..., component, derivative, nx, ny)
    return np.stack(
        [g[..., 0, 0, :, :] + g[..., 1, 1, :, :], g[..., 1, 0, :, :] - g[..., 0, 1, :, :]],
        axis=-3,
    )


def _demean(values: np.ndarray, what: str) -> np.ndarray:
    """Subtract the mean of each trailing (nx, ny) slice; reject any slice
    whose |mean| exceeds MEAN_TOL max(1, max|slice|) or is not finite."""
    # a sum past the float range gives a mean that is not finite: rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        mean = np.mean(values, axis=(-2, -1), keepdims=True)
        scale = np.maximum(1.0, np.max(np.abs(values), axis=(-2, -1), keepdims=True))
        worst = float(np.max(np.abs(mean) / scale))
    if not worst <= MEAN_TOL:  # NaN fails
        raise SolvabilityError(
            f"{what} must be mean-free on the torus "
            f"(|mean| / max(1, max|slice|) = {worst:.3e} > {MEAN_TOL:g})"
        )
    return values - mean


def poisson_solve_values(rhs: np.ndarray) -> np.ndarray:
    """Solve -Lap(psi) = rhs with zero mean per (nx, ny) slice; each slice of
    rhs must be mean-free."""
    rh = np.fft.rfft2(_demean(rhs, "Poisson right-hand side"))
    return np.fft.irfft2(_over_k2sum(rh, rhs.shape[-2:]))


@dataclass(frozen=True)
class HelmholtzParts:
    """q = v + Vmean + grad(psi): divergence-free mean-zero (2, nx, ny) v,
    spatial mean Vmean of shape (2,), mean-zero (nx, ny) potential psi."""

    v: np.ndarray
    Vmean: np.ndarray
    psi: np.ndarray


def helmholtz_decompose(q: np.ndarray) -> HelmholtzParts:
    """Unique L2-orthogonal splitting of periodic (2, nx, ny) samples.  A
    part that is not finite (a sum past the float range) aborts."""
    with np.errstate(over="ignore", invalid="ignore"):  # rejected just below
        Vmean = np.array([float(np.mean(q[0])), float(np.mean(q[1]))])
        # grad(psi) is the curl-free mean-zero part: -Lap(psi) = -div q
        div_q = div_values(q)
        psi = poisson_solve_values(-(div_q - np.mean(div_q)))
        gpsi = grad_values(psi)
        v = q - (Vmean[:, None, None] + gpsi)
    if not all(np.all(np.isfinite(x)) for x in (Vmean, psi, v)):
        raise NumericalAbort("Helmholtz parts of the momentum are not finite")
    return HelmholtzParts(v=v, Vmean=Vmean, psi=psi)


def korn_solve_values(rhs: np.ndarray) -> np.ndarray:
    """Solve div(grad m + grad^t m - div m I) = rhs with zero-mean m and
    return the tensor M = grad m + grad^t m - div m I.

    In 2D the operator collapses to the componentwise Laplacian
    (div grad^t m and grad div m cancel), so the solve is a vector Poisson
    problem; each component of rhs must be mean-free.  Takes (..., 2, nx, ny)
    samples and returns M of the same shape as the symmetric traceless pair
    (p, s) = (d1 m1 - d2 m2, d1 m2 + d2 m1).  M is one Fourier symbol of rhs:
    m^ = -r^/|k|^2, then M^ from the odd-derivative wavenumbers, so one
    forward and one inverse transform suffice.  The symbol is applied in
    place: m^ overwrites r^, and M^ fills one buffer.
    """
    rh = np.fft.rfft2(_demean(rhs, "stress right-hand side"))
    mh = _over_k2sum(np.negative(rh, out=rh), rhs.shape[-2:])
    ik1, ik2, _ = _wavenumbers(*rhs.shape[-2:])
    m1, m2 = mh[..., 0, :, :], mh[..., 1, :, :]
    Mh = np.empty_like(mh)
    p, s = Mh[..., 0, :, :], Mh[..., 1, :, :]
    np.multiply(ik1, m1, out=p)
    p -= ik2 * m2
    np.multiply(ik1, m2, out=s)
    s += ik2 * m1
    return np.fft.irfft2(Mh)


def mode_coefficients(fields: np.ndarray, max_mode: int) -> np.ndarray:
    """C(k) = cell-center mean of F exp(-2 pi i k.x) for -m <= k1 <= m and
    0 <= k2 <= m (m = max_mode <= min(nx, ny) // 2), shape (..., 2m+1, m+1).

    With cell centers at (i + 1/2)/nx, C(k) is rfft2(F)[k] times the
    half-cell phase exp(-i pi (k1/nx + k2/ny)) over nx ny.
    """
    nx, ny = fields.shape[-2:]
    k1 = np.arange(-max_mode, max_mode + 1)
    k2 = np.arange(max_mode + 1)
    phase = np.exp(-1j * np.pi * (k1[:, None] / nx + k2 / ny)) / (nx * ny)
    return np.fft.rfft2(fields)[..., : max_mode + 1][..., k1 % nx, :] * phase
