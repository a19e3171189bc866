"""Reference implementations and constructions that only the tests use.

The damped vector fixed point for the induced potential, with its Helmholtz
projection, is the second oracle for the stream-function conjugate gradients
of glcore._alpha_fixed_point.  The dense Landau tables summed term by term
(LandauBasis._evaluate_raw) are the second oracle for the separable
transform behind LandauBasis.synth/project, and the polynomial ladder
carrier LadderTerm a third route to the higher levels.  Gradient descent on
beta is the second route to its minimum, and the effective energy
e_lambda(v) checks the reduction's variational structure.
"""

from dataclasses import dataclass

import numpy as np

from vortexlattice.abrikosov import (beta_gradient, beta_hessian, beta_of,
                                     canonical_tau)
from vortexlattice.bifurcation import solve_w
from vortexlattice.glcore import (AlphaSolveError, GLParams, GLState,
                                  PeriodicVectorField, energy)
from vortexlattice.landau import (QuasiPeriodicField, field_from_coeffs,
                                  magnetic_shift_values)
from vortexlattice.lattice import normalize_tau


def helmholtz_project(grid, v):
    """Project onto divergence-free, mean-zero vector fields."""
    g1, g2 = grid.wavevectors
    v1h = np.fft.fft2(v[0])
    v2h = np.fft.fft2(v[1])
    dead, gsq = grid.gsq_divisor
    gv = (g1 * v1h + g2 * v2h) / gsq
    v1h -= g1 * gv
    v2h -= g2 * gv
    v1h[dead] = 0.0
    v2h[dead] = 0.0
    out = np.stack([np.fft.ifft2(v1h), np.fft.ifft2(v2h)])
    return out.real if np.isrealobj(v) else out


def alpha_damped_fixed_point(grid, j0, abspsi2, tol=1e-14, max_iter=400):
    """alpha = (-Laplacian)^{-1} P(j0 - |psi|^2 alpha), damped when a step grows."""
    alpha = np.zeros_like(j0)
    damping, last = 1.0, np.inf
    for _ in range(max_iter):
        rhs = helmholtz_project(grid, j0 - abspsi2[None] * alpha)
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
# beta and the reduction
# ----------------------------------------------------------------------
def descend_beta(tau0: complex, step0: float = 0.1, tol: float = 1e-10,
                 max_iter: int = 500) -> complex:
    """Gradient descent with backtracking, folded into the fundamental domain."""
    tau = complex(normalize_tau(tau0)[0].tau)
    val = beta_of(tau)
    step = step0
    for _ in range(max_iter):
        g = beta_gradient(tau)
        gn = np.linalg.norm(g)
        if gn < tol:
            break
        while step > 1e-12:
            cand = tau - step * (g[0] + 1j * g[1])
            if cand.imag > 0.05:
                cand = complex(normalize_tau(cand)[0].tau)
                cval = beta_of(cand)
                if cval < val:
                    tau, val = cand, cval
                    step = min(step * 1.5, 0.5)
                    break
            step *= 0.5
        else:
            break
    # Newton polish once inside the attraction basin
    for _ in range(20):
        g = beta_gradient(tau)
        if np.linalg.norm(g) < tol:
            break
        try:
            d = np.linalg.solve(beta_hessian(tau), -g)
        except np.linalg.LinAlgError:
            break
        if np.linalg.norm(d) > 0.1:
            d *= 0.1 / np.linalg.norm(d)
        cand = complex(tau + d[0] + 1j * d[1])
        if cand.imag < 0.05:
            break
        tau = complex(normalize_tau(cand)[0].tau)
    return canonical_tau(tau)


def w_state(wres, setup, kappa):
    """GLState psi = s psi0 + w of a w solve, with alpha2 left on the solve
    grid."""
    basis = setup.basis
    psi_c = wres.w.copy()
    psi_c[0, 0] += wres.s
    return GLState(psi=field_from_coeffs(basis, psi_c),
                   alpha=PeriodicVectorField(wres.alpha2, basis.solve_grid),
                   params=GLParams(kappa=kappa, n=1, lam=wres.lam))


def effective_energy(lam, v, setup, kappa):
    """e_lambda(v) = E_lambda(v psi0 + w(lambda, v)); gauge invariant in arg v."""
    return energy(w_state(solve_w(lam, v, setup, kappa), setup, kappa))


# ----------------------------------------------------------------------
# Landau basis
# ----------------------------------------------------------------------
def unit_field(basis, k, j, solve=False):
    """Basis function phi_kj on the output (or solve) grid, through synth."""
    c = np.zeros((basis.K_lev + 1, basis.n), dtype=complex)
    c[k, j] = 1.0
    return basis.synth(c, solve=solve)


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
