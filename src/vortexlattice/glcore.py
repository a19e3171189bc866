"""Rescaled Ginzburg-Landau energy and the reduced map F.

Working variables on the normalized cell: psi quasi-periodic with n flux
quanta, total potential a = A0 + alpha with A0(x) = (n/2) J x and alpha
periodic, mean-zero, divergence-free.  The potential equation
(M + |psi|^2) alpha = j0 = Im(conj(psi) grad_{A0} psi), M = curl* curl,
is solved for the stream function phi of alpha = curl* phi by conjugate
gradients, preconditioned by the constant-|psi|^2 part of the operator.
phi is real, so the iteration runs on its rfft2 half spectrum, with inner
products weighted 1 on column 0 and an even grid's Nyquist column and 2 on
the others, which stand for their conjugate mirrors.  The solve returns the
pair (alpha, phi hat) and restarts from a pair, so a warm start transforms
only its residual; the w solve passes each sweep's pair to the next, and
the branch predictor combines the pairs of solved points.

Every solve, residual and energy reads psi, D psi (D = grad_{A0}), |psi|^2
and j0 from one kernel, _PsiSamples.  A Landau-level field (basis, coeffs),
coeffs its vector of K_lev + 1 level coefficients, is sampled on the solve
grid by _coeff_samples, D psi by the ladder algebra, for the nonlinearity,
the alpha solve and every scalar of a branch point; a sampled field is read
on its own grid by _samples.  F = (L - lambda) psi + N is F_coeffs.
_observables is the one reader of a state's energy, shape gradient dE/dtau,
potential residual (M + |psi|^2) alpha - j0 and curl alpha: one pass that
forms the covariant gradient (grad_{A0} - i alpha) psi once and transforms
curl alpha once, for energy(state) and for each branch point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .landau import LandauBasis, QuasiPeriodicField, covariant_gradient_grid
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

    def grid_tail(self) -> float:
        """Largest Fourier coefficient of |psi|^2 on the outer ring of the grid
        (|k1| or |k2| within one of the largest |k|) over the largest one: how
        much of |psi|^2 the grid leaves unresolved."""
        spec = np.abs(np.fft.fft2(self.rho))
        k = np.abs(np.fft.fftfreq(self.grid.N, 1.0 / self.grid.N))
        ring = k >= k.max() - 1
        return float(max(spec[ring].max(), spec[:, ring].max()) / max(spec.max(), 1e-300))


def _coeff_samples(basis: LandauBasis, coeffs: np.ndarray) -> _PsiSamples:
    """Samples of a coefficient field on the solve grid, psi, D1 psi and
    D2 psi from one synthesis of the stacked vectors."""
    psi, d1, d2 = basis.synth(basis.gradient_coeffs(coeffs))
    return _PsiSamples(psi, d1, d2, basis.solve_grid)


def _samples(psi: QuasiPeriodicField) -> _PsiSamples:
    """Samples of a sampled field on its own grid: a quasi-periodic field has
    no global periodic quotient, so trigonometric resampling would be
    invalid."""
    d1, d2 = covariant_gradient_grid(psi)
    return _PsiSamples(psi.values, d1, d2, psi.grid)


def _alpha_fixed_point(grid: CellGrid, j0: np.ndarray, abspsi2: np.ndarray,
                       start: tuple[np.ndarray, np.ndarray] | None
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Solve P[(M + |psi|^2) alpha - j0] = 0 on div-free mean-zero fields:
    with alpha = curl* phi, A phi = curl (M + |psi|^2) curl* phi = Delta^2 phi
    - div(|psi|^2 grad phi) = curl j0 is solved by conjugate gradients on the
    Fourier modes of phi, preconditioned by |g|^4 + <|psi|^2> |g|^2.
    Returns the pair (alpha, phi hat), and starts from such a pair if one is
    given: a solve's own pair, or a linear combination of pairs, which is
    again one.  The start then costs one transform, that of the residual.

    phi is real, so its spectrum is Hermitian and the iteration runs on the
    rfft2 half spectrum (N, N//2 + 1) of grid.half_spectrum: curl* is one
    inverse transform (grid._curl_star_of) and curl one forward transform
    of the stacked pair (grid._curl_hat), and inner products weight column
    0 and an even grid's Nyquist column by 1, the others by 2, which gives
    np.vdot of the full spectra.  alpha, phi, r and p are updated in place.
    """
    _, dead, gsq, weights = grid.half_spectrum
    precond = np.where(dead, np.inf, gsq * (gsq + np.mean(abspsi2)))
    g4 = gsq * gsq
    tmp = np.empty(gsq.shape, complex)      # |g|^4 p, and w b in dot
    rho_u = np.empty_like(j0)               # |psi|^2 curl* p

    def dot(a, b):
        return np.vdot(a, np.multiply(weights, b, out=tmp)).real

    if start is None:
        alpha, phi = np.zeros_like(j0), np.zeros(gsq.shape, complex)
    else:
        alpha, phi = start[0].copy(), start[1].copy()
    r = grid._curl_hat(j0 - abspsi2 * alpha) - g4 * phi   # curl j0 - A phi
    z = r / precond
    p, rz, step = z.copy(), dot(r, z), np.inf
    for _ in range(ALPHA_MAX_ITER):
        if rz == 0.0:
            break
        u = grid._curl_star_of(p)
        Ap = grid._curl_hat(np.multiply(abspsi2, u, out=rho_u))
        Ap += np.multiply(g4, p, out=tmp)
        a = rz / dot(p, Ap)
        step = abs(a) * max(u.max(), -u.min())
        u *= a
        alpha += u
        phi += a * p
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
    return alpha, phi


def _nonlinear(basis: LandauBasis, ps: _PsiSamples, kappa: float,
               alpha2: np.ndarray) -> np.ndarray:
    """Landau coefficients of N(psi) = 2i alpha . grad_{A0} psi + |alpha|^2 psi
    + kappa^2 |psi|^2 psi from the solve-grid samples of psi and alpha2."""
    nl = (2j * (alpha2[0] * ps.d1 + alpha2[1] * ps.d2)
          + (alpha2[0] ** 2 + alpha2[1] ** 2) * ps.psi
          + kappa**2 * ps.rho * ps.psi)
    return basis.project(nl)


def F_coeffs(basis: LandauBasis, coeffs: np.ndarray, lam: float,
             ncoef: np.ndarray) -> np.ndarray:
    """Landau coefficients of F = (L - lambda) psi + N, given those of N."""
    return basis.landau_coeffs(coeffs) - lam * coeffs + ncoef


def map_F(basis: LandauBasis, coeffs: np.ndarray, lam: float, kappa: float) -> np.ndarray:
    """Landau coefficients of F(lambda, psi) with alpha = alpha(psi)."""
    ps = _coeff_samples(basis, coeffs)
    alpha2 = _alpha_fixed_point(ps.grid, ps.j0, ps.rho, None)[0]
    return F_coeffs(basis, coeffs, lam, _nonlinear(basis, ps, kappa, alpha2))


def energy(state: GLState) -> float:
    """Average rescaled energy per cell of psi and alpha sampled on one grid."""
    return _observables(_samples(state.psi), state.alpha.values, state.params)[0]


def _observables(ps: _PsiSamples, alpha: np.ndarray, p: GLParams
                 ) -> tuple[float, np.ndarray, float, np.ndarray]:
    """(energy, dE/dtau, alpha residual, curl alpha) of samples of psi and
    alpha on one grid, from one covariant gradient D psi = (grad_{A0} - i
    alpha) psi and one curl transform of alpha.

    The energy is kappa^4/lambda^2 <|D psi|^2 + (n + curl alpha)^2 +
    kappa^2/2 (|psi|^2 - lambda/kappa^2)^2>.  dE/dtau = d energy / d(Re tau,
    Im tau) at fixed lambda: in logical coordinates A0 and the boundary phase
    see m_tau only through its fixed determinant, so by the envelope theorem
    (the GL virial identity) only the metric of |D psi|^2 moves: -2
    kappa^4/lambda^2 tr(S_k T) with T_ij = <Re conj(D_i psi) D_j psi> and
    S_k = (d_k m_tau) m_tau^{-1} = [[0, 1], [0, 0]] / tau2, diag(-1, 1) /
    (2 tau2).  The alpha residual is the rms of (M + |psi|^2) alpha - j0,
    M alpha = curl* curl alpha read from the same curl transform.
    """
    grid = ps.grid
    cov = np.stack([ps.d1, ps.d2]) - 1j * alpha * ps.psi
    cov2 = np.abs(cov) ** 2
    curl_hat = grid._curl_hat(alpha)
    curl = grid._field(curl_hat)
    dens = (cov2[0] + cov2[1] + (p.n + curl) ** 2
            + 0.5 * p.kappa**2 * (ps.rho - p.lam / p.kappa**2) ** 2)
    t11, t22 = np.mean(cov2, axis=(1, 2))
    t12 = np.mean(np.real(np.conj(cov[0]) * cov[1]))
    tau2 = grid.m[1, 1] / grid.m[0, 0]
    r = grid._curl_star_of(curl_hat) + ps.rho[None] * alpha - ps.j0
    return (float(p.kappa**4 / p.lam**2 * np.mean(dens)),
            p.kappa**4 / (p.lam**2 * tau2) * np.array([-2 * t12, t11 - t22]),
            float(np.sqrt(np.mean(r[0] ** 2 + r[1] ** 2))), curl)
