"""Rescaled Ginzburg-Landau energy, residuals and the reduced map F.

Working variables on the normalized cell: psi quasi-periodic with n flux
quanta, total potential a = A0 + alpha with A0(x) = (n/2) J x and alpha
periodic, mean-zero, divergence-free.  The potential equation
(M + |psi|^2) alpha = Im(conj(psi) grad_{A0} psi), M = curl* curl,
is solved as a damped fixed point preconditioned by (-Laplacian)^{-1}
on the constraint space, where M coincides with -Laplacian.

Pointwise nonlinearities are evaluated on a doubled grid before projection
back onto the Landau basis (cubic terms alias on the working grid).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .landau import (LandauBasis, QuasiPeriodicField, field_from_coeffs,
                     inner_avg, norm_avg, qp_derivatives)
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

    @property
    def N(self) -> int:
        return self.values.shape[-1]

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


class AlphaSolveError(RuntimeError):
    """Fixed point for the induced potential failed to contract."""


def helmholtz_project(v: np.ndarray, grid: CellGrid) -> PeriodicVectorField:
    """Project a periodic vector grid onto divergence-free mean-zero fields."""
    return PeriodicVectorField(values=grid.helmholtz_project(np.asarray(v, dtype=float)),
                               grid=grid)


def normal_state(params: GLParams, basis: LandauBasis) -> GLState:
    coeffs = np.zeros((basis.K_lev + 1, basis.n), dtype=complex)
    psi = field_from_coeffs(basis, coeffs)
    alpha = PeriodicVectorField(np.zeros((2, basis.N, basis.N)), basis.grid)
    return GLState(psi=psi, alpha=alpha, params=params)


# ----------------------------------------------------------------------
# dealiased evaluations
# ----------------------------------------------------------------------
def _psi_grids(psi: QuasiPeriodicField, dealias: bool):
    """(psi, D1 psi, D2 psi) sample arrays and their grid.

    Coefficient-backed fields synthesize on the doubled grid when dealias is
    requested.  Sample-only fields always evaluate on their native grid: a
    quasi-periodic field has no global periodic quotient, so trigonometric
    upsampling would be invalid.
    """
    if psi.coeffs is not None and psi.basis is not None:
        b = psi.basis
        d = psi.coeffs
        vals = b.synth(d, dealias=dealias)
        d1 = b.synth(b.d1_coeffs(d), dealias=dealias)
        d2 = b.synth(b.d2_coeffs(d), dealias=dealias)
        grid = b.grid_d if dealias else b.grid
        return vals, d1, d2, grid
    g1, g2 = qp_derivatives(psi)
    x1, x2 = psi.grid.x
    d1 = g1 + 0.5j * psi.n * x2 * psi.values
    d2 = g2 - 0.5j * psi.n * x1 * psi.values
    return psi.values, d1, d2, psi.grid


def supercurrent_grids(psi_vals, d1, d2) -> np.ndarray:
    """Im(conj(psi) grad_{A0} psi) from sample arrays."""
    return np.stack([np.imag(np.conj(psi_vals) * d1),
                     np.imag(np.conj(psi_vals) * d2)])


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
                tol: float = 1e-13, return_dealiased: bool = False):
    """Induced potential alpha(psi); mean-zero and divergence-free.

    Returns the field on the working grid (or the doubled grid when
    return_dealiased is set).
    """
    vals, d1, d2, grid2 = _psi_grids(psi, dealias=True)
    j0 = supercurrent_grids(vals, d1, d2)
    alpha2 = _alpha_fixed_point(grid2, j0, np.abs(vals) ** 2, None, tol)
    if return_dealiased:
        return alpha2, grid2
    N = psi.N
    down = np.stack([grid2.resample(alpha2[0], N), grid2.resample(alpha2[1], N)])
    return PeriodicVectorField(values=down, grid=psi.grid)


def alpha_equation_residual(psi: QuasiPeriodicField, alpha: PeriodicVectorField) -> float:
    """l2 norm of (M + |psi|^2) alpha - Im(conj(psi) grad_{A0} psi)."""
    vals, d1, d2, _ = _psi_grids(psi, dealias=False)
    j0 = supercurrent_grids(vals, d1, d2)
    r = alpha.grid.curl_star_curl(alpha.values) + np.abs(vals)[None] ** 2 * alpha.values - j0
    return float(np.sqrt(np.mean(r[0] ** 2 + r[1] ** 2)))


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
    vals = basis.synth(psi_coeffs, dealias=True)
    d1 = basis.synth(basis.d1_coeffs(psi_coeffs), dealias=True)
    d2 = basis.synth(basis.d2_coeffs(psi_coeffs), dealias=True)
    if alpha2 is None:
        alpha2 = _alpha_fixed_point(basis.grid_d, supercurrent_grids(vals, d1, d2),
                                    np.abs(vals) ** 2, alpha_start, alpha_tol)
    nl = (2j * (alpha2[0] * d1 + alpha2[1] * d2)
          + (alpha2[0] ** 2 + alpha2[1] ** 2) * vals
          + kappa**2 * np.abs(vals) ** 2 * vals)
    return basis.project(nl, dealias=True), alpha2


def map_F(lam: float, psi: QuasiPeriodicField, kappa: float,
          alpha_tol: float = 1e-13):
    """F(lambda, psi) with alpha = alpha(psi); returns (F field, alpha2, grid2)."""
    if psi.coeffs is None or psi.basis is None:
        raise ValueError("map_F needs a Landau-coefficient field")
    basis = psi.basis
    ncoef, alpha2 = nonlinear_coeffs(basis, psi.coeffs, kappa, alpha_tol=alpha_tol)
    lin = basis.landau_coeffs(psi.coeffs) - lam * psi.coeffs
    return field_from_coeffs(basis, lin + ncoef), alpha2, basis.grid_d


def residuals(state: GLState) -> tuple[QuasiPeriodicField, np.ndarray]:
    """(psi-equation residual field, alpha-equation residual grid)."""
    psi, alpha, p = state.psi, state.alpha, state.params
    basis = psi.basis
    if basis is None or psi.coeffs is None:
        raise ValueError("residuals need a Landau-coefficient state")
    grid2 = basis.grid_d
    a2 = np.stack([alpha.grid.resample(alpha.values[0], grid2.N),
                   alpha.grid.resample(alpha.values[1], grid2.N)])
    ncoef, _ = nonlinear_coeffs(basis, psi.coeffs, p.kappa, alpha2=a2)
    rpsi = field_from_coeffs(basis, basis.landau_coeffs(psi.coeffs)
                             - p.lam * psi.coeffs + ncoef)
    vals, d1, d2, _ = _psi_grids(psi, dealias=False)
    j0 = supercurrent_grids(vals, d1, d2)
    ralpha = (alpha.grid.curl_star_curl(alpha.values)
              + np.abs(vals)[None] ** 2 * alpha.values - j0)
    return rpsi, ralpha


def energy(state: GLState) -> float:
    """Average rescaled energy per cell."""
    psi, alpha, p = state.psi, state.alpha, state.params
    vals, d1, d2, grid2 = _psi_grids(psi, dealias=True)
    a2 = np.stack([alpha.grid.resample(alpha.values[0], grid2.N),
                   alpha.grid.resample(alpha.values[1], grid2.N)])
    cov1 = d1 - 1j * a2[0] * vals
    cov2 = d2 - 1j * a2[1] * vals
    curl_a = p.n + alpha.grid.curl(alpha.values)
    curl2 = alpha.grid.resample(curl_a, grid2.N)
    dens = (np.abs(cov1) ** 2 + np.abs(cov2) ** 2 + curl2 ** 2
            + 0.5 * p.kappa**2 * (np.abs(vals) ** 2 - p.lam / p.kappa**2) ** 2)
    return float(p.kappa**4 / p.lam**2 * np.mean(dens))


def flux(state: GLState) -> float:
    """Quadrature of curl a over the cell; 2 pi n for any admissible state."""
    curl_alpha = state.alpha.grid.curl(state.alpha.values)
    return float((state.params.n + np.mean(curl_alpha)) * state.alpha.grid.area)


def supercurrent(state: GLState) -> np.ndarray:
    """J = Im(conj(psi) grad_a psi) on the working grid."""
    vals, d1, d2, _ = _psi_grids(state.psi, dealias=False)
    j0 = supercurrent_grids(vals, d1, d2)
    return j0 - np.abs(vals)[None] ** 2 * state.alpha.values


def gauge_transform_state(state: GLState, eta: np.ndarray) -> GLState:
    """(psi, alpha) -> (e^{i eta} psi, alpha + grad eta) for periodic eta."""
    grid = state.alpha.grid
    psi2 = state.psi.copy_with(values=np.exp(1j * eta) * state.psi.values, coeffs=None)
    alpha2 = PeriodicVectorField(state.alpha.values + grid.grad(eta), grid)
    return GLState(psi=psi2, alpha=alpha2, params=state.params)
