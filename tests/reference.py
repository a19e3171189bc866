"""Reference implementations and constructions that only the tests use.

The damped vector fixed point for the induced potential is the second
oracle for the stream-function conjugate gradients of
glcore._alpha_fixed_point.
"""

import numpy as np

from vortexlattice.glcore import AlphaSolveError, GLState, PeriodicVectorField
from vortexlattice.landau import field_from_coeffs


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
