"""Reference implementations and constructions that only the tests use.

The damped vector fixed point for the induced potential is the second
oracle for the stream-function conjugate gradients of
glcore._alpha_fixed_point.  The dense Landau tables summed term by term
(LandauBasis._evaluate_raw) are the second oracle for the separable
transform behind LandauBasis.synth/project, and the polynomial ladder
carrier LadderTerm a third route to the higher levels.
"""

from dataclasses import dataclass

import numpy as np

from vortexlattice.glcore import AlphaSolveError, GLState, PeriodicVectorField
from vortexlattice.landau import (QuasiPeriodicField, field_from_coeffs,
                                  magnetic_shift_values)


def alpha_damped_fixed_point(grid, j0, abspsi2, tol=1e-14, max_iter=400):
    """alpha = (-Laplacian)^{-1} P(j0 - |psi|^2 alpha), damped when a step grows."""
    alpha = np.zeros_like(j0)
    damping, last = 1.0, np.inf
    for _ in range(max_iter):
        rhs = grid.helmholtz_project(j0 - abspsi2[None] * alpha)
        step = -np.stack([grid.poisson(c) for c in rhs]) - alpha
        delta = float(np.max(np.abs(step)))
        if delta > last and damping > 0.25:
            damping *= 0.5
        alpha = alpha + damping * step
        last = delta
        if delta < tol:
            return alpha
    raise AlphaSolveError(f"reference alpha fixed point stalled at step {last:.3e}")


def normal_state(params, basis):
    """psi = 0, alpha = 0: the normal state on a Landau basis."""
    coeffs = np.zeros((basis.K_lev + 1, basis.n), dtype=complex)
    psi = field_from_coeffs(basis, coeffs)
    alpha = PeriodicVectorField(np.zeros((2, basis.N, basis.N)), basis.grid)
    return GLState(psi=psi, alpha=alpha, params=params)


def gauge_transform_state(state, eta):
    """(psi, alpha) -> (e^{i eta} psi, alpha + grad eta) for periodic eta."""
    grid = state.alpha.grid
    psi2 = state.psi.copy_with(values=np.exp(1j * eta) * state.psi.values, coeffs=None)
    alpha2 = PeriodicVectorField(state.alpha.values + grid.grad(eta), grid)
    return GLState(psi=psi2, alpha=alpha2, params=state.params)


def min_nonzero_gsq(grid):
    """Smallest nonzero Fourier eigenvalue of -Laplacian on the cell."""
    return float(grid.gsq[grid.gsq > 0].min())


# ----------------------------------------------------------------------
# Landau basis
# ----------------------------------------------------------------------
def unit_field(basis, k, j, dealias=False):
    """Basis function phi_kj on the working (or doubled) grid, through synth."""
    c = np.zeros((basis.K_lev + 1, basis.n), dtype=complex)
    c[k, j] = 1.0
    return basis.synth(c, dealias=dealias)


def dense_tables(basis, x1, x2):
    """Orthonormal tables phi[k, j] at the points (x1, x2), summed term by term."""
    return np.einsum("ij,kjxy->kixy", basis._mix, basis._evaluate_raw(x1, x2))


def basis_evaluate(basis, k, j, x1, x2):
    """Basis function phi_kj at arbitrary points."""
    raw = basis._evaluate_raw(np.asarray(x1, float), np.asarray(x2, float))
    return np.einsum("i,ixy->xy", basis._mix[j], raw[k])


def theta_extended(theta, k):
    """Coefficient c_k from the recursion c_{k+n} = e^{i n pi tau} e^{2 i k pi tau} c_k."""
    j = k % theta.n
    q = (k - j) // theta.n
    phase = 1j * np.pi * theta.tau * (theta.n * q * q + 2 * j * q)
    return complex(theta.c[j] * np.exp(phase))


def magnetic_shift(f, dy):
    """Translation by dy1*t1 + dy2*t2 through the boundary phases."""
    vals, bc = magnetic_shift_values(f.values, f.n, f.bc_const, dy)
    return QuasiPeriodicField(n=f.n, shape=f.shape, values=vals, coeffs=None,
                              basis=f.basis, bc_const=bc)


@dataclass
class LadderTerm:
    """Closed-form carrier for one theta term under repeated creation.

    Represents P(w) * exp(i m nu z) * exp(i n x2 z / 2) with w = conj(z) - z;
    the creation operator acts as P -> 2 P' - 2 i m nu P + n w P, raising the
    polynomial degree by one per level.
    """

    level: int
    m: int
    poly: np.ndarray  # complex coefficients, increasing degree, len == level + 1

    def __post_init__(self):
        self.poly = np.asarray(self.poly, dtype=complex)
        if len(self.poly) != self.level + 1:
            raise ValueError("polynomial degree must equal the level index")

    def raised(self, n, nu):
        P = self.poly
        dP = P[1:] * np.arange(1, len(P))
        new = np.zeros(len(P) + 1, dtype=complex)
        new[: len(dP)] += 2 * dP
        new[: len(P)] += -2j * self.m * nu * P
        new[1:] += n * P
        return LadderTerm(self.level + 1, self.m, new)

    def evaluate(self, n, nu, x1, x2):
        z = x1 + 1j * x2
        w = -2j * x2
        val = np.zeros_like(z)
        for c in self.poly[::-1]:
            val = val * w + c
        return val * np.exp(1j * self.m * nu * z) * np.exp(0.5j * n * x2 * z)
