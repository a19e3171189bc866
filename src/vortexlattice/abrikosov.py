"""Abrikosov parameter beta(tau), its critical points and the asymptotic
energy landscape over lattice shapes.

Two independent routes to beta = <|psi0|^4> / <|psi0|^2>^2: quadrature of
the theta-series null vector, and the classical lattice sum
beta(tau) = sum_{(m,k) in Z^2} exp(-pi |m tau + k|^2 / Im tau), kept as an
oracle for each other.  Its gradient and Hessian over tau, which locate and
classify the critical points, are the lattice sum differentiated term by term.
E_b(tau) is minimized by a two-point gradient iteration on the exact gradient
each branch point carries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .landau import LandauBasis
from .lattice import (TAU_SQUARE, TAU_TRIANGULAR, LatticeShape, SolverError,
                      fundamental_domain_grid, normalize_tau)

CRITICAL_GRAD_TOL = 1e-8   # |grad beta| at which a Newton start has converged
# the fixed scan and descent path of minimize_Eb_numeric (see its docstring)
EB_COARSE_GRID = (5, 4)
EB_TAU2_MAX = 1.4
EB_STEP_MAX = 0.05
EB_DESCENT_STEPS = 60


class AsymptoticValidityError(SolverError, ZeroDivisionError):
    """The asymptotic E_b(tau) at a degenerate denominator, kappa = kappa_c(tau)."""


def _lattice_terms(tau: complex):
    """Cutoff R, (m, k), u = m tau1 + k and q = |m tau + k|^2 / tau2."""
    t1, t2 = tau.real, tau.imag
    # smallest eigenvalue of the quadratic form |m tau + k|^2 / t2
    tr = (abs(tau) ** 2 + 1) / t2
    lam_min = 0.5 * (tr - np.sqrt(tr * tr - 4))
    R = int(np.ceil(np.sqrt(34.5 / (np.pi * max(lam_min, 1e-12))))) + 1
    m, k = np.arange(-R, R + 1)[:, None], np.arange(-R, R + 1)[None, :]
    u = m * t1 + k
    return R, m, k, u, (u ** 2 + (m * t2) ** 2) / t2


def beta_lattice_sum(shape: LatticeShape) -> float:
    """Independent oracle: direct lattice sum, shells added until the last
    one contributes below 1e-14 of the total."""
    R, m, k, _, q = _lattice_terms(complex(shape.tau))
    total = float(np.exp(-np.pi * q).sum())
    shell = float(np.exp(-np.pi * q[np.maximum(np.abs(m), np.abs(k)) == R]).sum())
    if shell >= 1e-14 * total:
        raise SolverError(f"lattice sum cutoff R={R} too small (last shell {shell:.3e})")
    return total


def beta_derivatives(tau: complex) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of beta over (Re tau, Im tau), term by term on
    the lattice sum: d_i beta = -pi sum d_i q e^{-pi q} and
    d_ij beta = sum (pi^2 d_i q d_j q - pi d_ij q) e^{-pi q}.  Exact at any
    tau, unreduced too, but the cutoff grows as tau leaves the domain."""
    _, m, _, u, q = _lattice_terms(tau)
    t2, w = tau.imag, np.exp(-np.pi * q)
    dq = np.stack(np.broadcast_arrays(2 * m * u / t2, m * m - (u / t2) ** 2))
    d12 = -2 * m * u / t2**2
    ddq = np.stack(np.broadcast_arrays(2 * m * m / t2, d12, d12, 2 * u * u / t2**3))
    hess = (np.pi**2 * np.einsum("iab,jab,ab->ij", dq, dq, w)
            - np.pi * (ddq * w).sum(axis=(1, 2)).reshape(2, 2))
    return -np.pi * (dq * w).sum(axis=(1, 2)), hess


def beta_of_basis(basis: LandauBasis) -> float:
    """<|psi0|^4> / <|psi0|^2>^2 of the basis's lowest-level function psi0,
    by spectrally accurate quadrature on its solve grid (scale invariant)."""
    a2 = np.abs(basis.psi0) ** 2
    return float(np.mean(a2**2) / np.mean(a2) ** 2)


def beta_quadrature(shape: LatticeShape) -> float:
    """beta by quadrature of the lowest-level theta function (n = 1)."""
    return beta_of_basis(LandauBasis(shape, K_lev=0))


def canonical_tau(tau: complex) -> complex:
    """Reduced tau with boundary representatives within 1e-5 snapped to the
    canonical side (tau1 = +1/2 edge, Re tau >= 0 half of the arc)."""
    tau = complex(normalize_tau(tau)[0].tau)
    t1, t2 = tau.real, tau.imag
    if abs(abs(t1) - 0.5) < 1e-5:
        t1 = 0.5
    if abs(abs(tau) - 1.0) < 1e-5:
        t1 = abs(t1)
        t2 = float(np.sqrt(max(1.0 - t1 * t1, 0.0)))
    return complex(t1, t2)


def modular_distance(a: complex, b: complex) -> float:
    """Distance between shapes modulo the boundary identifications."""
    b = complex(b)
    orbit = [b, b + 1, b - 1]
    if abs(b) > 1e-12:
        orbit.append(-1.0 / b)
    return min(abs(complex(a) - t) for t in orbit)


def kappa_c(beta: float) -> float:
    """Critical coupling sqrt((1 - 1/beta)/2); in [0, 1/sqrt(2))."""
    return float(np.sqrt(0.5 * (1.0 - 1.0 / beta)))


def branch_slope(beta: float, kappa: float) -> float:
    """d lambda / d s^2 at the bifurcation point, (kappa^2 - 1/2) beta + 1/2;
    its sign picks the side of kappa^2 the branch lives on."""
    return (kappa**2 - 0.5) * beta + 0.5


@dataclass(frozen=True)
class CriticalPoint:
    tau: complex
    kind: str                      # minimum | maximum | saddle
    gradient_norm: float
    hessian_eigenvalues: tuple[float, float]


def _arc_curvature(tau: complex, grad: np.ndarray, hess: np.ndarray) -> float:
    """d^2 beta / d theta^2 along tau = e^{i theta}, from its plane derivatives:
    t^T H t + grad . tau'' with t = (-sin, cos) and tau'' = -(cos, sin)."""
    c, s = tau.real / abs(tau), tau.imag / abs(tau)
    t = np.array([-s, c])
    return float(t @ hess @ t - grad @ np.array([c, s]))


def _classify(tau: complex, grad: np.ndarray, hess: np.ndarray) -> str:
    eigs = np.linalg.eigvalsh(hess)
    if eigs[0] > 0:
        return "minimum"
    if eigs[1] < 0:
        return "maximum"
    # indefinite plane Hessian at a fold point of the moduli quotient: label
    # by the restriction to the boundary arc (the classical one-parameter
    # classification, which calls tau = i the maximum)
    if abs(abs(tau) - 1.0) < 1e-6:
        return "maximum" if _arc_curvature(tau, grad, hess) < 0 else "minimum"
    return "saddle"


def find_beta_critical_points() -> list[CriticalPoint]:
    """Newton search for the zeros of grad beta over the fundamental domain.

    Moves that exit the domain are reduced back by T/S before evaluating;
    converged points are deduplicated modulo the modular identifications.
    """
    starts = (fundamental_domain_grid(4, 3, tau2_max=1.6)
              + [TAU_SQUARE, complex(TAU_TRIANGULAR)])
    found: list[complex] = []
    for tau0 in starts:
        tau = complex(tau0)
        for _ in range(60):
            g, H = beta_derivatives(tau)
            if np.linalg.norm(g) < CRITICAL_GRAD_TOL:
                tau = canonical_tau(tau)
                if not any(modular_distance(tau, t) < 1e-5 for t in found):
                    found.append(tau)
                break
            try:
                step = np.linalg.solve(H, -g)
            except np.linalg.LinAlgError:
                break
            nrm = np.linalg.norm(step)
            if nrm > 0.25:
                step *= 0.25 / nrm
            tau = complex(tau + step[0] + 1j * step[1])
            if tau.imag < 0.05:
                break
            tau = complex(normalize_tau(tau)[0].tau)
    out = []
    for tau in sorted(found, key=lambda t: (round(t.imag, 6), round(t.real, 6))):
        g, H = beta_derivatives(tau)
        eigs = np.linalg.eigvalsh(H)
        out.append(CriticalPoint(tau=tau, kind=_classify(tau, g, H),
                                 gradient_norm=float(np.linalg.norm(g)),
                                 hessian_eigenvalues=(float(eigs[0]), float(eigs[1]))))
    return out


# ----------------------------------------------------------------------
# asymptotic energy landscape
# ----------------------------------------------------------------------
def energy_landscape_asymptotic(beta: float, kappa: float, b: float) -> float:
    """E_b(tau) = kappa^2/2 + b^2 - (kappa^2 - b)^2 / ((2 kappa^2 - 1) beta + 1)
    up to O((kappa^2 - b)^3), for the shape's beta(tau)."""
    denom = 2 * branch_slope(beta, kappa)
    if abs(denom) < 1e-12:
        raise AsymptoticValidityError("degenerate denominator: outside asymptotic validity")
    return float(kappa**2 / 2 + b**2 - (kappa**2 - b) ** 2 / denom)


def _descend(point, tau: complex, floor: float, max_steps: int) -> complex:
    """Two-point gradient iteration (Barzilai and Borwein, IMA J. Numer. Anal.
    8, 141 (1988)) toward a minimum near tau, on point(tau) = (value,
    gradient over (Re tau, Im tau)).  Each step is -t grad with t = s.s / s.y
    from the last two iterates, capped at EB_STEP_MAX; the first step, and any
    after s.y <= 0, is the cap along -grad.  Stops once |grad| <= 1e-12
    |value(tau) - floor| at the start; SolverError after max_steps steps."""
    tau0, (value, g) = tau, point(tau)
    tol, t, steps = 1e-12 * abs(value - floor), np.inf, 0
    while (gn := np.linalg.norm(g)) > tol:
        if steps == max_steps:
            raise SolverError(f"descent from tau={tau0} not converged in {max_steps} "
                              f"steps: |grad| = {gn:.3e} above {tol:.3e}")
        step = -min(t, EB_STEP_MAX / gn) * g
        tau = complex(tau + step[0] + 1j * step[1])
        g, g_old = point(tau)[1], g
        sy, steps = step @ (g - g_old), steps + 1
        t = step @ step / sy if sy > 0 else np.inf
    return tau


def _Eb_point(kappa: float, b: float, K_lev: int):
    """Cached (E_b, grad E_b) at a raw tau from one branch_by_field solve of
    its reduced shape tau' = M tau, whose gradient maps back through the
    modular map M: with G = d1 + i d2, G(tau) = conj(1/(c tau + d)^2) G(tau')."""
    from .bifurcation import branch_by_field
    cache: dict[tuple[float, float], tuple[float, np.ndarray]] = {}

    def point(tau: complex) -> tuple[float, np.ndarray]:
        key = (round(tau.real, 12), round(tau.imag, 12))
        if key not in cache:
            shape, mod = normalize_tau(tau)
            p = branch_by_field(b, kappa, shape, K_lev=K_lev)
            G = np.conj(1 / (mod.c * tau + mod.d) ** 2) * complex(*p.dE_dtau)
            cache[key] = p.energy, np.array([G.real, G.imag])
        return cache[key]
    return point


def minimize_Eb_numeric(kappa: float, b: float, K_lev: int = 40):
    """Minimizer tau_b of the numerically computed branch energy E_b(tau).

    A fixed coarse scan of the fundamental domain (the EB_COARSE_GRID
    5 x 4 grid up to Im tau = EB_TAU2_MAX = 1.4) followed
    by at most EB_DESCENT_STEPS = 60 steps of _descend on each point's exact
    gradient (BranchPoint.dE_dtau, one solve a step), until |grad E_b| is
    1e-12 of the start's condensation energy E_b - (kappa^2/2 + b^2).  Step
    and stop are invariant under E_b -> c E_b + d, the leading-order change
    of E_b with b, so different mu values take comparable paths.  Returns
    (tau_b, E_b(tau_b)).  E_b and its gradient are computed on each shape's
    solve grid, and no field is sampled on any other grid.
    """
    point = _Eb_point(kappa, b, K_lev)
    pts = fundamental_domain_grid(*EB_COARSE_GRID, tau2_max=EB_TAU2_MAX)
    tau0 = min(pts, key=lambda t: point(t)[0])
    tau = _descend(point, tau0, kappa**2 / 2 + b**2, EB_DESCENT_STEPS)
    return tau, point(tau)[0]
