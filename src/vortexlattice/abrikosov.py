"""Abrikosov parameter beta(tau), its critical points and the asymptotic
energy landscape over lattice shapes.

Two independent routes to beta = <|psi0|^4> / <|psi0|^2>^2: quadrature of
the theta-series null vector, and the classical lattice sum
beta(tau) = sum_{(m,k) in Z^2} exp(-pi |m tau + k|^2 / Im tau), kept as an
oracle for each other.  beta is modular invariant and smooth, so gradients
and Hessians are taken by Richardson-refined central differences with
reduction back into the fundamental domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .landau import LandauBasis
from .lattice import (TAU_SQUARE, TAU_TRIANGULAR, LatticeShape, SolverError,
                      fundamental_domain_grid, normalize_tau)

CRITICAL_GRAD_TOL = 1e-8   # |grad beta| at which a Newton start has converged


@dataclass(frozen=True)
class BetaResult:
    tau: complex
    beta: float
    method: str           # "quadrature" | "lattice_sum"
    K: int
    N: int

    def __post_init__(self):
        if self.beta < 1.0 - 1e-12:
            raise ValueError("beta must satisfy the Cauchy-Schwarz bound beta >= 1")


def beta_lattice_sum(shape: LatticeShape, cutoff: int | None = None) -> BetaResult:
    """Independent oracle: direct lattice sum, shells added until the last
    one contributes below 1e-14 of the total."""
    tau = complex(shape.tau)
    t1, t2 = tau.real, tau.imag
    # smallest eigenvalue of the quadratic form |m tau + k|^2 / t2
    tr = (abs(tau) ** 2 + 1) / t2
    lam_min = 0.5 * (tr - np.sqrt(tr * tr - 4))
    R = int(np.ceil(np.sqrt(34.5 / (np.pi * max(lam_min, 1e-12))))) + 1
    if cutoff is not None:
        R = max(R, int(cutoff))
    m, k = np.meshgrid(np.arange(-R, R + 1), np.arange(-R, R + 1), indexing="ij")
    q = ((m * t1 + k) ** 2 + (m * t2) ** 2) / t2
    total = float(np.exp(-np.pi * q).sum())
    shell = float(np.exp(-np.pi * q[np.maximum(np.abs(m), np.abs(k)) == R]).sum())
    if shell >= 1e-14 * total:
        raise SolverError(f"lattice sum cutoff R={R} too small (last shell {shell:.3e})")
    return BetaResult(tau=tau, beta=total, method="lattice_sum", K=R, N=0)


def beta_quadrature(shape: LatticeShape) -> BetaResult:
    """Quartic-to-quadratic average ratio of the lowest-level theta function,
    by spectrally accurate quadrature on the solve grid (n = 1; scale
    invariant)."""
    basis = LandauBasis(1, shape, K_lev=0)
    a2 = np.abs(basis.synth(np.ones((1, 1), dtype=complex), solve=True)) ** 2
    val = float(np.mean(a2**2) / np.mean(a2) ** 2)
    return BetaResult(tau=complex(shape.tau), beta=val, method="quadrature",
                      K=basis.theta.K, N=basis.solve_N)


def beta_of(tau: complex) -> float:
    """Lattice-sum beta after reduction into the fundamental domain."""
    shape, _ = normalize_tau(tau)
    return beta_lattice_sum(shape).beta


def canonical_tau(tau: complex, snap: float = 1e-5) -> complex:
    """Reduced tau with boundary representatives snapped to the canonical
    side (tau1 = +1/2 edge, Re tau >= 0 half of the arc)."""
    tau = complex(normalize_tau(tau)[0].tau)
    t1, t2 = tau.real, tau.imag
    if abs(abs(t1) - 0.5) < snap:
        t1 = 0.5
    if abs(abs(tau) - 1.0) < snap:
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


def kappa_c(shape: LatticeShape) -> float:
    """Critical coupling sqrt((1 - 1/beta)/2); in [0, 1/sqrt(2))."""
    beta = beta_lattice_sum(shape).beta
    return float(np.sqrt(0.5 * (1.0 - 1.0 / beta)))


# ----------------------------------------------------------------------
# derivatives over tau (central differences + one Richardson halving)
# ----------------------------------------------------------------------
def _richardson_gradient(f, tau: complex, h: float) -> np.ndarray:
    """Central-difference gradient of f over (Re tau, Im tau) after one
    Richardson halving: (4 g(h/2) - g(h)) / 3 cancels the h^2 term, leaving
    an O(h^4) remainder."""
    def g(step):
        return np.array([
            (f(tau + step) - f(tau - step)) / (2 * step),
            (f(tau + 1j * step) - f(tau - 1j * step)) / (2 * step),
        ])
    g1, g2 = g(h), g(h / 2)
    return (4 * g2 - g1) / 3


def _central_hessian(f, tau: complex, h: float) -> np.ndarray:
    f0 = f(tau)
    d11 = (f(tau + h) - 2 * f0 + f(tau - h)) / h**2
    d22 = (f(tau + 1j * h) - 2 * f0 + f(tau - 1j * h)) / h**2
    d12 = (f(tau + h + 1j * h) - f(tau + h - 1j * h)
           - f(tau - h + 1j * h) + f(tau - h - 1j * h)) / (4 * h**2)
    return np.array([[d11, d12], [d12, d22]])


def beta_gradient(tau: complex, h: float = 1e-4) -> np.ndarray:
    return _richardson_gradient(beta_of, tau, h)


def beta_hessian(tau: complex, h: float = 1e-3) -> np.ndarray:
    return _central_hessian(beta_of, tau, h)


@dataclass(frozen=True)
class CriticalPoint:
    tau: complex
    kind: str                      # minimum | maximum | saddle
    gradient_norm: float
    hessian_eigenvalues: tuple[float, float]


def _arc_second_derivative(theta: float, h: float = 1e-3) -> float:
    """d^2/d theta^2 of beta along the unit circle |tau| = 1."""
    f = lambda th: beta_of(np.exp(1j * th))
    return (f(theta + h) - 2 * f(theta) + f(theta - h)) / h**2


def _classify(tau: complex, hess: np.ndarray) -> str:
    eigs = np.linalg.eigvalsh(hess)
    if eigs[0] > 0:
        return "minimum"
    if eigs[1] < 0:
        return "maximum"
    # indefinite plane Hessian at a fold point of the moduli quotient: label
    # by the restriction to the boundary arc (the classical one-parameter
    # classification, which calls tau = i the maximum)
    if abs(abs(tau) - 1.0) < 1e-6:
        if _arc_second_derivative(float(np.angle(tau))) < 0:
            return "maximum"
        return "minimum"
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
        ok = False
        for _ in range(60):
            g = beta_gradient(tau)
            if np.linalg.norm(g) < CRITICAL_GRAD_TOL:
                ok = True
                break
            H = beta_hessian(tau)
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
        if not ok:
            continue
        tau = canonical_tau(tau)
        if not any(modular_distance(tau, t) < 1e-5 for t in found):
            found.append(tau)
    out = []
    for tau in sorted(found, key=lambda t: (round(t.imag, 6), round(t.real, 6))):
        g = beta_gradient(tau)
        H = beta_hessian(tau)
        eigs = np.linalg.eigvalsh(H)
        out.append(CriticalPoint(tau=tau, kind=_classify(tau, H),
                                 gradient_norm=float(np.linalg.norm(g)),
                                 hessian_eigenvalues=(float(eigs[0]), float(eigs[1]))))
    return out


# ----------------------------------------------------------------------
# asymptotic energy landscape
# ----------------------------------------------------------------------
def energy_landscape_asymptotic(shape: LatticeShape, kappa: float, b: float) -> float:
    """E_b(tau) = kappa^2/2 + b^2 - (kappa^2 - b)^2 / ((2 kappa^2 - 1) beta + 1)
    up to O((kappa^2 - b)^3)."""
    beta = beta_lattice_sum(shape).beta
    denom = (2 * kappa**2 - 1) * beta + 1
    if abs(denom) < 1e-12:
        raise ZeroDivisionError("degenerate denominator: outside asymptotic validity")
    return float(kappa**2 / 2 + b**2 - (kappa**2 - b) ** 2 / denom)


def applied_field(shape: LatticeShape, kappa: float, b: float) -> float:
    """h0 = b + (kappa^2 - b)/((2 kappa^2 - 1) beta + 1), the half b-derivative
    of the asymptotic landscape."""
    beta = beta_lattice_sum(shape).beta
    denom = (2 * kappa**2 - 1) * beta + 1
    if abs(denom) < 1e-12:
        raise ZeroDivisionError("degenerate denominator: outside asymptotic validity")
    return float(b + (kappa**2 - b) / denom)


def _newton_refine(f, tau: complex, h: float, max_steps: int) -> complex:
    """Newton iteration toward a critical point of f near tau, on the
    Richardson-refined gradient and the central-difference Hessian with step
    h.  Steps are capped at 0.05; the loop stops after a step shorter than
    1e-5 h or when the Hessian is singular."""
    for _ in range(max_steps):
        try:
            step = np.linalg.solve(_central_hessian(f, tau, h),
                                   -_richardson_gradient(f, tau, h))
        except np.linalg.LinAlgError:
            break
        nrm = np.linalg.norm(step)
        if nrm > 0.05:
            step *= 0.05 / nrm
        tau = complex(tau + step[0] + 1j * step[1])
        if nrm < 1e-5 * h:
            break
    return tau


def minimize_Eb_numeric(kappa: float, b: float, K_lev: int = 40,
                        coarse: tuple[int, int] = (5, 4), tau2_max: float = 1.4,
                        refine_h: float = 2e-3, newton_steps: int = 12):
    """Minimizer tau_b of the numerically computed branch energy E_b(tau).

    Coarse fundamental-domain scan followed by Newton refinement (step
    refine_h, identical path for every b so different mu values are
    comparable).  Returns (tau_b, E_b(tau_b)).  E_b is computed on each
    shape's solve grid, and no field is sampled on any other grid.

    The gradient is Richardson-refined, (4 g(h/2) - g(h)) / 3, so its
    truncation remainder is O(h^4).  A plain central difference would leave
    an O(h^2) bias: the cubic term of E_b at e^{i pi/3} moves the returned
    point by about 7e-7 at h = 2e-3, for every mu.  What remains is the
    roundoff floor of the difference quotient, about
    3 eps |E_b| / (h lambda_min), where lambda_min is the smallest Hessian
    eigenvalue of E_b.  Since the Hessian scales as mu^2 = (kappa^2 - b)^2,
    the floor grows like 1/mu^2: about 1e-10 at mu = 0.2 and 2e-9 at
    mu = 0.05 for K_lev = 40, times up to 3 from the Richardson
    combination.  Newton stops after a step shorter than 1e-5 refine_h
    (2e-8 by default); quadratic convergence then leaves tau_b at that
    floor, so for mu >= 0.05 the returned tau is resolved to better than
    1e-8.
    """
    from .bifurcation import branch_by_field

    cache: dict[tuple[float, float], float] = {}

    def E(tau: complex) -> float:
        key = (round(tau.real, 12), round(tau.imag, 12))
        if key not in cache:
            shape, _ = normalize_tau(tau)
            cache[key] = branch_by_field(b, kappa, shape, K_lev=K_lev).energy
        return cache[key]

    pts = fundamental_domain_grid(*coarse, tau2_max=tau2_max)
    pts.append(complex(TAU_TRIANGULAR))
    tau = min(pts, key=E)

    tau = _newton_refine(E, tau, refine_h, newton_steps)
    return tau, E(tau)
