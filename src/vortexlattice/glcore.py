"""Rescaled Ginzburg-Landau energy, residuals and the reduced map F.

Working variables on the normalized cell: psi quasi-periodic with n flux
quanta, total potential a = A0 + alpha with A0(x) = (n/2) J x and alpha
periodic, mean-zero, divergence-free.  The potential equation
(M + |psi|^2) alpha = j0 = Im(conj(psi) grad_{A0} psi), M = curl* curl,
is solved for the stream function phi of alpha = curl* phi by conjugate
gradients, preconditioned by the constant-|psi|^2 part of the operator.

Every solve, residual and energy reads psi, D psi (D = grad_{A0}), |psi|^2,
j0 and the potential residual (M + |psi|^2) alpha - j0 from one kernel,
_PsiSamples.  Pointwise nonlinearities use samples on a doubled grid (cubic
terms alias on the working grid); F = (L - lambda) psi + N is F_coeffs.
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


def _coeff_samples(basis: LandauBasis, coeffs: np.ndarray, dealias: bool) -> _PsiSamples:
    """Samples of a coefficient field on the doubled (dealias) or working grid."""
    return _PsiSamples(basis.synth(coeffs, dealias=dealias),
                       basis.synth(basis.d1_coeffs(coeffs), dealias=dealias),
                       basis.synth(basis.d2_coeffs(coeffs), dealias=dealias),
                       basis.grid_d if dealias else basis.grid)


def _samples(psi: QuasiPeriodicField, dealias: bool) -> _PsiSamples:
    """Samples of any field.  Sample-only fields evaluate on their native grid:
    a quasi-periodic field has no global periodic quotient, so trigonometric
    upsampling would be invalid."""
    if psi.coeffs is not None and psi.basis is not None:
        return _coeff_samples(psi.basis, psi.coeffs, dealias)
    d1, d2 = covariant_gradient_grid(psi)
    return _PsiSamples(psi.values, d1, d2, psi.grid)


def _alpha_fixed_point(grid: CellGrid, j0: np.ndarray, abspsi2: np.ndarray,
                       alpha0: np.ndarray | None) -> np.ndarray:
    """Solve P[(M + |psi|^2) alpha - j0] = 0 on div-free mean-zero fields:
    with alpha = curl* phi, A phi = curl (M + |psi|^2) curl* phi = Delta^2 phi
    - div(|psi|^2 grad phi) = curl j0 is solved by conjugate gradients on the
    Fourier modes of phi, preconditioned by |g|^4 + <|psi|^2> |g|^2 and
    started from the stream function of alpha0 if one is given."""
    ig = 1j * np.stack(grid.wavevectors)
    dead, gsq = grid.gsq_divisor
    precond = np.where(dead, np.inf, gsq * (gsq + np.mean(abspsi2)))

    def curl_star(fh):
        d = np.fft.ifft2(ig * fh).real
        return np.stack([d[1], -d[0]])

    def curl_hat(v):
        vh = np.fft.fft2(v)
        return ig[0] * vh[1] - ig[1] * vh[0]

    alpha, r = np.zeros_like(j0), 0.0           # r = curl j0 - A phi
    if alpha0 is not None:
        phi = np.where(dead, 0.0, curl_hat(alpha0) / gsq)
        alpha, r = curl_star(phi), -gsq * gsq * phi
    r = r + curl_hat(j0 - abspsi2 * alpha)
    z = r / precond
    p, rz, step = z, np.vdot(r, z).real, np.inf
    for _ in range(ALPHA_MAX_ITER):
        if rz == 0.0:
            break
        u = curl_star(p)
        Ap = gsq * gsq * p + curl_hat(abspsi2 * u)
        a = rz / np.vdot(p, Ap).real
        alpha += a * u
        step = abs(a) * np.max(np.abs(u))
        if step < ALPHA_TOL:
            break
        r -= a * Ap
        z = r / precond
        rz, rz_old = np.vdot(r, z).real, rz
        p = z + (rz / rz_old) * p
    else:
        raise AlphaSolveError(
            f"alpha PCG stalled after {ALPHA_MAX_ITER} iterations: last step "
            f"{step:.3e}, preconditioned residual {np.sqrt(rz):.3e}")
    return alpha


def solve_alpha(psi: QuasiPeriodicField, params: GLParams) -> PeriodicVectorField:
    """Induced potential alpha(psi) on the working grid; mean-zero and
    divergence-free."""
    ps = _samples(psi, dealias=True)
    alpha2 = _alpha_fixed_point(ps.grid, ps.j0, ps.rho, None)
    return PeriodicVectorField(values=ps.grid.resample(alpha2, psi.N), grid=psi.grid)


def alpha_equation_residual(psi: QuasiPeriodicField, alpha: PeriodicVectorField) -> float:
    """l2 norm of (M + |psi|^2) alpha - Im(conj(psi) grad_{A0} psi)."""
    return _samples(psi, dealias=False).alpha_residual_rms(alpha.values)


def nonlinear_coeffs(basis: LandauBasis, psi_coeffs: np.ndarray, kappa: float,
                     alpha2: np.ndarray | None = None,
                     alpha_start: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Landau coefficients of N(psi) = 2i alpha . grad_{A0} psi + |alpha|^2 psi
    + kappa^2 |psi|^2 psi, products evaluated on the doubled grid.

    alpha2 is the potential on the doubled grid; when it is None, alpha(psi)
    is solved there first (warm-started from alpha_start).  Returns the
    coefficients and the alpha2 used.
    """
    return _nonlinear(basis, _coeff_samples(basis, psi_coeffs, dealias=True), kappa,
                      alpha2, alpha_start)


def _nonlinear(basis: LandauBasis, ps: _PsiSamples, kappa: float,
               alpha2: np.ndarray | None = None,
               alpha_start: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """nonlinear_coeffs() from the doubled-grid samples of psi."""
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


def map_F(lam: float, psi: QuasiPeriodicField, kappa: float):
    """F(lambda, psi) with alpha = alpha(psi); returns (F field, alpha2, grid2)."""
    if psi.coeffs is None or psi.basis is None:
        raise ValueError("map_F needs a Landau-coefficient field")
    basis = psi.basis
    ncoef, alpha2 = nonlinear_coeffs(basis, psi.coeffs, kappa)
    F = F_coeffs(basis, psi.coeffs, lam, ncoef)
    return field_from_coeffs(basis, F), alpha2, basis.grid_d


def residuals(state: GLState) -> tuple[QuasiPeriodicField, np.ndarray]:
    """(psi-equation residual field, alpha-equation residual grid)."""
    psi, alpha, p = state.psi, state.alpha, state.params
    basis = psi.basis
    if basis is None or psi.coeffs is None:
        raise ValueError("residuals need a Landau-coefficient state")
    a2 = alpha.grid.resample(alpha.values, basis.grid_d.N)
    ncoef, _ = nonlinear_coeffs(basis, psi.coeffs, p.kappa, alpha2=a2)
    rpsi = field_from_coeffs(basis, F_coeffs(basis, psi.coeffs, p.lam, ncoef))
    return rpsi, _samples(psi, dealias=False).alpha_residual(alpha.values)


def energy(state: GLState) -> float:
    """Average rescaled energy per cell."""
    return _energy(_samples(state.psi, dealias=True), state.alpha, state.params)


def _energy(ps: _PsiSamples, alpha: PeriodicVectorField, p: GLParams) -> float:
    """energy() from the doubled-grid samples of psi, for callers that hold them."""
    a2 = alpha.grid.resample(alpha.values, ps.grid.N)
    cov1 = ps.d1 - 1j * a2[0] * ps.psi
    cov2 = ps.d2 - 1j * a2[1] * ps.psi
    curl2 = alpha.grid.resample(p.n + alpha.grid.curl(alpha.values), ps.grid.N)
    dens = (np.abs(cov1) ** 2 + np.abs(cov2) ** 2 + curl2 ** 2
            + 0.5 * p.kappa**2 * (ps.rho - p.lam / p.kappa**2) ** 2)
    return float(p.kappa**4 / p.lam**2 * np.mean(dens))


def flux(state: GLState) -> float:
    """Quadrature of curl a over the cell; 2 pi n for any admissible state."""
    curl_alpha = state.alpha.grid.curl(state.alpha.values)
    return float((state.params.n + np.mean(curl_alpha)) * state.alpha.grid.area)


def supercurrent(state: GLState) -> np.ndarray:
    """J = Im(conj(psi) grad_a psi) on the working grid."""
    ps = _samples(state.psi, dealias=False)
    return ps.j0 - ps.rho[None] * state.alpha.values
