"""Rescaled Ginzburg-Landau energy, residuals and the reduced map F.

Working variables on the normalized cell: psi quasi-periodic with n flux
quanta, total potential a = A0 + alpha with A0(x) = (n/2) J x and alpha
periodic, mean-zero, divergence-free.  The potential equation
(M + |psi|^2) alpha = j0 = Im(conj(psi) grad_{A0} psi), M = curl* curl,
is solved as a damped fixed point preconditioned by (-Laplacian)^{-1}
on the constraint space, where M coincides with -Laplacian.

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
    """Fixed point for the induced potential failed to contract."""


def normal_state(params: GLParams, basis: LandauBasis) -> GLState:
    coeffs = np.zeros((basis.K_lev + 1, basis.n), dtype=complex)
    psi = field_from_coeffs(basis, coeffs)
    alpha = PeriodicVectorField(np.zeros((2, basis.N, basis.N)), basis.grid)
    return GLState(psi=psi, alpha=alpha, params=params)


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
                       alpha0: np.ndarray | None, tol: float,
                       max_iter: int = 400) -> np.ndarray:
    """Solve P[(M + |psi|^2) alpha - j0] = 0 on div-free mean-zero fields."""
    alpha = np.zeros_like(j0) if alpha0 is None else alpha0.copy()
    damping = 1.0
    last = np.inf
    for _ in range(max_iter):
        rhs = j0 - abspsi2[None] * alpha
        new = grid.inv_neg_laplacian(grid.helmholtz_project(rhs))
        step = new - alpha
        delta = float(np.max(np.abs(step)))
        if delta > last and damping > 0.25:
            damping *= 0.5
        alpha = alpha + damping * step
        last = delta
        if delta < tol:
            return alpha
    raise AlphaSolveError(f"alpha fixed point stalled at step {last:.3e} "
                          "(psi outside the perturbative regime)")


def solve_alpha(psi: QuasiPeriodicField, params: GLParams,
                tol: float = 1e-13) -> PeriodicVectorField:
    """Induced potential alpha(psi) on the working grid; mean-zero and
    divergence-free."""
    ps = _samples(psi, dealias=True)
    alpha2 = _alpha_fixed_point(ps.grid, ps.j0, ps.rho, None, tol)
    return PeriodicVectorField(values=ps.grid.resample(alpha2, psi.N), grid=psi.grid)


def alpha_equation_residual(psi: QuasiPeriodicField, alpha: PeriodicVectorField) -> float:
    """l2 norm of (M + |psi|^2) alpha - Im(conj(psi) grad_{A0} psi)."""
    return _samples(psi, dealias=False).alpha_residual_rms(alpha.values)


def nonlinear_coeffs(basis: LandauBasis, psi_coeffs: np.ndarray, kappa: float,
                     alpha2: np.ndarray | None = None,
                     alpha_start: np.ndarray | None = None,
                     alpha_tol: float = 1e-14) -> tuple[np.ndarray, np.ndarray]:
    """Landau coefficients of N(psi) = 2i alpha . grad_{A0} psi + |alpha|^2 psi
    + kappa^2 |psi|^2 psi, products evaluated on the doubled grid.

    alpha2 is the potential on the doubled grid; when it is None, alpha(psi)
    is solved there first (warm-started from alpha_start).  Returns the
    coefficients and the alpha2 used.
    """
    ps = _coeff_samples(basis, psi_coeffs, dealias=True)
    if alpha2 is None:
        alpha2 = _alpha_fixed_point(ps.grid, ps.j0, ps.rho, alpha_start, alpha_tol)
    nl = (2j * (alpha2[0] * ps.d1 + alpha2[1] * ps.d2)
          + (alpha2[0] ** 2 + alpha2[1] ** 2) * ps.psi
          + kappa**2 * ps.rho * ps.psi)
    return basis.project(nl), alpha2


def F_coeffs(basis: LandauBasis, coeffs: np.ndarray, lam: float,
             ncoef: np.ndarray) -> np.ndarray:
    """Landau coefficients of F = (L - lambda) psi + N, given those of N."""
    return basis.landau_coeffs(coeffs) - lam * coeffs + ncoef


def map_F(lam: float, psi: QuasiPeriodicField, kappa: float,
          alpha_tol: float = 1e-13):
    """F(lambda, psi) with alpha = alpha(psi); returns (F field, alpha2, grid2)."""
    if psi.coeffs is None or psi.basis is None:
        raise ValueError("map_F needs a Landau-coefficient field")
    basis = psi.basis
    ncoef, alpha2 = nonlinear_coeffs(basis, psi.coeffs, kappa, alpha_tol=alpha_tol)
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


def gauge_transform_state(state: GLState, eta: np.ndarray) -> GLState:
    """(psi, alpha) -> (e^{i eta} psi, alpha + grad eta) for periodic eta."""
    grid = state.alpha.grid
    psi2 = state.psi.copy_with(values=np.exp(1j * eta) * state.psi.values, coeffs=None)
    alpha2 = PeriodicVectorField(state.alpha.values + grid.grad(eta), grid)
    return GLState(psi=psi2, alpha=alpha2, params=state.params)
