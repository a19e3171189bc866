"""Rescaled Ginzburg-Landau energy, residuals and the reduced map F.

Working variables on the normalized cell: psi quasi-periodic with n flux
quanta, total potential a = A0 + alpha with A0(x) = (n/2) J x and alpha
periodic, mean-zero, divergence-free.  The potential equation
(M + |psi|^2) alpha = j0 = Im(conj(psi) grad_{A0} psi), M = curl* curl,
is solved for the stream function phi of alpha = curl* phi by conjugate
gradients, preconditioned by the constant-|psi|^2 part of the operator.
phi is real, so the iteration runs on its rfft2 half spectrum, with inner
products weighted 1 on column 0 and an even grid's Nyquist column and 2 on
the others, which stand for their conjugate mirrors.

Every solve, residual and energy reads psi, D psi (D = grad_{A0}), |psi|^2,
j0 and the potential residual (M + |psi|^2) alpha - j0 from one kernel,
_PsiSamples.  Pointwise nonlinearities, the alpha solve and the energy use
samples on the basis's solve grid, which is sized to resolve them; the
output grid N only samples reported fields.  F = (L - lambda) psi + N is
F_coeffs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .landau import (LandauBasis, QuasiPeriodicField, covariant_gradient_grid,
                     field_from_coeffs)
from .lattice import SolverError
from .spectral import CellGrid

ALPHA_TOL = 1e-14       # stop at the first alpha step below this (sup norm)
ALPHA_MAX_ITER = 400    # conjugate-gradient iterations before AlphaSolveError


@dataclass(frozen=True)
class GLParams:
    """Material constant kappa, flux number and spectral parameter."""

    kappa: float
    n: int
    lam: float

    def __post_init__(self):
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.lam <= 0:
            raise ValueError("lambda must be positive (b > 0)")

    @property
    def b(self) -> float:
        return self.kappa**2 * self.n / self.lam

    @property
    def is_type2(self) -> bool:
        return self.kappa > 1 / np.sqrt(2)


@dataclass
class PeriodicVectorField:
    """Real 2-vector samples of the potential perturbation alpha."""

    values: np.ndarray  # (2, N, N)
    grid: CellGrid

    def constraint_residuals(self) -> tuple[float, float]:
        """(|mean|, |div| sup) — both vanish on the admissible space."""
        mean = float(np.max(np.abs(self.values.mean(axis=(1, 2)))))
        dv = float(np.max(np.abs(self.grid.div(self.values))))
        return mean, dv


@dataclass
class GLState:
    psi: QuasiPeriodicField
    alpha: PeriodicVectorField
    params: GLParams


class AlphaSolveError(SolverError):
    """Conjugate gradients for the induced potential did not converge."""


# ----------------------------------------------------------------------
# the field kernel
# ----------------------------------------------------------------------
@dataclass
class _PsiSamples:
    """psi, D1 psi and D2 psi (D = grad_{A0}) sampled on one grid."""

    psi: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    grid: CellGrid

    @cached_property
    def rho(self) -> np.ndarray:
        return np.abs(self.psi) ** 2

    @cached_property
    def j0(self) -> np.ndarray:
        """Im(conj(psi) grad_{A0} psi), the source of the potential equation."""
        return np.stack([np.imag(np.conj(self.psi) * self.d1),
                         np.imag(np.conj(self.psi) * self.d2)])

    def alpha_residual(self, alpha: np.ndarray) -> np.ndarray:
        """(M + |psi|^2) alpha - j0 for alpha sampled on this grid."""
        return self.grid.curl_star_curl(alpha) + self.rho[None] * alpha - self.j0

    def alpha_residual_rms(self, alpha: np.ndarray) -> float:
        r = self.alpha_residual(alpha)
        return float(np.sqrt(np.mean(r[0] ** 2 + r[1] ** 2)))

    def grid_tail(self) -> float:
        """Largest Fourier coefficient of |psi|^2 on the outer ring of the grid
        (|k1| or |k2| within one of the largest |k|) over the largest one: how
        much of |psi|^2 the grid leaves unresolved."""
        spec = np.abs(np.fft.fft2(self.rho))
        k = np.abs(np.fft.fftfreq(self.grid.N, 1.0 / self.grid.N))
        ring = k >= k.max() - 1
        return float(max(spec[ring].max(), spec[:, ring].max()) / max(spec.max(), 1e-300))


def _coeff_samples(basis: LandauBasis, coeffs: np.ndarray, solve: bool) -> _PsiSamples:
    """Samples of a coefficient field on the solve grid or the output grid."""
    return _PsiSamples(basis.synth(coeffs, solve=solve),
                       basis.synth(basis.d1_coeffs(coeffs), solve=solve),
                       basis.synth(basis.d2_coeffs(coeffs), solve=solve),
                       basis.solve_grid if solve else basis.grid)


def _samples(psi: QuasiPeriodicField, solve: bool) -> _PsiSamples:
    """Samples of any field.  Sample-only fields evaluate on their native grid:
    a quasi-periodic field has no global periodic quotient, so trigonometric
    resampling would be invalid."""
    if psi.coeffs is not None and psi.basis is not None:
        return _coeff_samples(psi.basis, psi.coeffs, solve)
    d1, d2 = covariant_gradient_grid(psi)
    return _PsiSamples(psi.values, d1, d2, psi.grid)


def _alpha_fixed_point(grid: CellGrid, j0: np.ndarray, abspsi2: np.ndarray,
                       alpha0: np.ndarray | None) -> np.ndarray:
    """Solve P[(M + |psi|^2) alpha - j0] = 0 on div-free mean-zero fields:
    with alpha = curl* phi, A phi = curl (M + |psi|^2) curl* phi = Delta^2 phi
    - div(|psi|^2 grad phi) = curl j0 is solved by conjugate gradients on the
    Fourier modes of phi, preconditioned by |g|^4 + <|psi|^2> |g|^2 and
    started from the stream function of alpha0 if one is given.

    phi is real, so its spectrum is Hermitian and the iteration runs on the
    rfft2 half spectrum (N, N//2 + 1) of grid.half_spectrum: curl* is one
    irfft2 and curl one rfft2 of the stacked pair, and inner products weight
    column 0 and an even grid's Nyquist column by 1, the others by 2, which
    gives np.vdot of the full spectra.  alpha, r and p are updated in place.
    """
    ig, dead, gsq, weights = grid.half_spectrum
    shape = (grid.N, grid.N)
    precond = np.where(dead, np.inf, gsq * (gsq + np.mean(abspsi2)))
    g4 = gsq * gsq
    spec = np.empty(ig.shape, complex)      # (i g2, i g1) phi for curl*
    tmp = np.empty(gsq.shape, complex)      # |g|^4 p, and w b in dot
    rho_u = np.empty_like(j0)               # |psi|^2 curl* p

    def curl_star(fh):
        d = np.fft.irfft2(np.multiply(ig[::-1], fh, out=spec), s=shape)
        d[1] *= -1.0                         # (d2 phi, -d1 phi)
        return d

    def curl_hat(v):
        vh = np.fft.rfft2(v)
        vh *= ig[::-1]
        return vh[1] - vh[0]                 # i g1 v2 - i g2 v1

    def dot(a, b):
        return np.vdot(a, np.multiply(weights, b, out=tmp)).real

    alpha, r = np.zeros_like(j0), 0.0           # r = curl j0 - A phi
    if alpha0 is not None:
        phi = np.where(dead, 0.0, curl_hat(alpha0) / gsq)
        alpha, r = curl_star(phi), -g4 * phi
    r = r + curl_hat(j0 - abspsi2 * alpha)
    z = r / precond
    p, rz, step = z.copy(), dot(r, z), np.inf
    for _ in range(ALPHA_MAX_ITER):
        if rz == 0.0:
            break
        u = curl_star(p)
        Ap = curl_hat(np.multiply(abspsi2, u, out=rho_u))
        Ap += np.multiply(g4, p, out=tmp)
        a = rz / dot(p, Ap)
        step = abs(a) * max(u.max(), -u.min())
        u *= a
        alpha += u
        if step < ALPHA_TOL:
            break
        Ap *= a
        r -= Ap
        np.divide(r, precond, out=z)
        rz, rz_old = dot(r, z), rz
        p *= rz / rz_old
        p += z
    else:
        raise AlphaSolveError(
            f"alpha PCG stalled after {ALPHA_MAX_ITER} iterations: last step "
            f"{step:.3e}, preconditioned residual {np.sqrt(rz):.3e}")
    return alpha


def solve_alpha(psi: QuasiPeriodicField, params: GLParams) -> PeriodicVectorField:
    """Induced potential alpha(psi), solved on the solve grid and sampled on
    the grid of psi; mean-zero and divergence-free."""
    ps = _samples(psi, solve=True)
    alpha2 = _alpha_fixed_point(ps.grid, ps.j0, ps.rho, None)
    return PeriodicVectorField(values=ps.grid.resample(alpha2, psi.N), grid=psi.grid)


def alpha_equation_residual(psi: QuasiPeriodicField, alpha: PeriodicVectorField) -> float:
    """l2 norm of (M + |psi|^2) alpha - Im(conj(psi) grad_{A0} psi)."""
    return _samples(psi, solve=False).alpha_residual_rms(alpha.values)


def nonlinear_coeffs(basis: LandauBasis, psi_coeffs: np.ndarray, kappa: float,
                     alpha2: np.ndarray | None = None,
                     alpha_start: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Landau coefficients of N(psi) = 2i alpha . grad_{A0} psi + |alpha|^2 psi
    + kappa^2 |psi|^2 psi, products evaluated on the solve grid.

    alpha2 is the potential on the solve grid; when it is None, alpha(psi)
    is solved there first (warm-started from alpha_start).  Returns the
    coefficients and the alpha2 used.
    """
    return _nonlinear(basis, _coeff_samples(basis, psi_coeffs, solve=True), kappa,
                      alpha2, alpha_start)


def _nonlinear(basis: LandauBasis, ps: _PsiSamples, kappa: float,
               alpha2: np.ndarray | None = None,
               alpha_start: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """nonlinear_coeffs() from the solve-grid samples of psi."""
    if alpha2 is None:
        alpha2 = _alpha_fixed_point(ps.grid, ps.j0, ps.rho, alpha_start)
    nl = (2j * (alpha2[0] * ps.d1 + alpha2[1] * ps.d2)
          + (alpha2[0] ** 2 + alpha2[1] ** 2) * ps.psi
          + kappa**2 * ps.rho * ps.psi)
    return basis.project(nl), alpha2


def F_coeffs(basis: LandauBasis, coeffs: np.ndarray, lam: float,
             ncoef: np.ndarray) -> np.ndarray:
    """Landau coefficients of F = (L - lambda) psi + N, given those of N."""
    return basis.landau_coeffs(coeffs) - lam * coeffs + ncoef


def map_F(lam: float, psi: QuasiPeriodicField, kappa: float) -> QuasiPeriodicField:
    """F(lambda, psi) with alpha = alpha(psi)."""
    if psi.coeffs is None or psi.basis is None:
        raise ValueError("map_F needs a Landau-coefficient field")
    basis = psi.basis
    ncoef, _ = nonlinear_coeffs(basis, psi.coeffs, kappa)
    return field_from_coeffs(basis, F_coeffs(basis, psi.coeffs, lam, ncoef))


def residuals(state: GLState) -> tuple[QuasiPeriodicField, np.ndarray]:
    """(psi-equation residual field, alpha-equation residual grid)."""
    psi, alpha, p = state.psi, state.alpha, state.params
    basis = psi.basis
    if basis is None or psi.coeffs is None:
        raise ValueError("residuals need a Landau-coefficient state")
    a2 = alpha.grid.resample(alpha.values, basis.solve_N)
    ncoef, _ = nonlinear_coeffs(basis, psi.coeffs, p.kappa, alpha2=a2)
    rpsi = field_from_coeffs(basis, F_coeffs(basis, psi.coeffs, p.lam, ncoef))
    return rpsi, _samples(psi, solve=False).alpha_residual(alpha.values)


def energy(state: GLState) -> float:
    """Average rescaled energy per cell."""
    ps = _samples(state.psi, solve=True)
    alpha = state.alpha.grid.resample(state.alpha.values, ps.grid.N)
    return _energy(ps, alpha, state.params)


def _energy(ps: _PsiSamples, alpha: np.ndarray, p: GLParams) -> float:
    """energy() from samples of psi and alpha on one grid, for callers that
    hold them."""
    cov1 = ps.d1 - 1j * alpha[0] * ps.psi
    cov2 = ps.d2 - 1j * alpha[1] * ps.psi
    curl = p.n + ps.grid.curl(alpha)
    dens = (np.abs(cov1) ** 2 + np.abs(cov2) ** 2 + curl ** 2
            + 0.5 * p.kappa**2 * (ps.rho - p.lam / p.kappa**2) ** 2)
    return float(p.kappa**4 / p.lam**2 * np.mean(dens))


def flux(state: GLState) -> float:
    """Quadrature of curl a over the cell; 2 pi n for any admissible state."""
    grid = state.alpha.grid
    return grid.flux(state.params.n + grid.curl(state.alpha.values))


def supercurrent(state: GLState) -> np.ndarray:
    """J = Im(conj(psi) grad_a psi) on the output grid."""
    ps = _samples(state.psi, solve=False)
    return ps.j0 - ps.rho[None] * state.alpha.values
