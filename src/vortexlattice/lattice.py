"""Lattice shape normalization and cell geometry.

Shapes are reduced to the modular fundamental domain
|tau| >= 1, Im tau > 0, -1/2 < Re tau <= 1/2 (Re tau >= 0 on |tau| = 1)
by Gauss reduction with T: tau -> tau +/- 1 and S: tau -> -1/tau.

Cell conventions: the normalized cell is spanned by t1 = r_tau * e1 and
t2 = r_tau * tau with r_tau = sqrt(2*pi / Im tau), so its area is 2*pi for
every flux number n and the constant background field is curl A0 = n.  The
physical cell is the sigma-scaled copy, sigma = sqrt(n / b).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# symplectic rotation J x = (-x2, x1)
J = np.array([[0.0, -1.0], [1.0, 0.0]])

TAU_SQUARE = 1j
TAU_TRIANGULAR = np.exp(1j * np.pi / 3)

_BOUNDARY_TOL = 1e-12
_MOVE_BUDGET = 10_000


class ConfigError(ValueError):
    """An input the package does not support (CLI exit 2)."""


class SolverError(RuntimeError):
    """A numerical solve failed to converge or to reach its target (CLI exit 3)."""


class LatticeReductionError(SolverError):
    """Gauss reduction failed to converge within the move budget."""


@dataclass(frozen=True)
class LatticeShape:
    """Shape ratio tau in the modular fundamental domain."""

    tau: complex

    def __post_init__(self):
        t = complex(self.tau)
        if not np.isfinite(t.real) or not np.isfinite(t.imag):
            raise ValueError("tau must be finite")
        if t.imag <= 0:
            raise ValueError("tau must have positive imaginary part")
        if abs(t) < 1 - 1e-9 or t.real <= -0.5 - 1e-9 or t.real > 0.5 + 1e-9:
            raise ValueError(f"tau={t} outside the fundamental domain; normalize first")
        if abs(abs(t) - 1) < _BOUNDARY_TOL and t.real < -_BOUNDARY_TOL:
            raise ValueError(f"tau={t} on |tau|=1 must have Re tau >= 0")

    @property
    def tau1(self) -> float:
        return complex(self.tau).real

    @property
    def tau2(self) -> float:
        return complex(self.tau).imag


@dataclass(frozen=True)
class ModularMap:
    """Unimodular map tau -> (a*tau + b) / (c*tau + d) witnessing a reduction."""

    a: int = 1
    b: int = 0
    c: int = 0
    d: int = 1

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("modular map must have determinant 1")

    def apply(self, tau: complex) -> complex:
        return (self.a * tau + self.b) / (self.c * tau + self.d)

    def compose_T(self, k: int) -> "ModularMap":
        # T^k: tau -> tau + k, matrix [[1, k], [0, 1]] on the left
        return ModularMap(self.a + k * self.c, self.b + k * self.d, self.c, self.d)

    def compose_S(self) -> "ModularMap":
        # S: tau -> -1/tau, matrix [[0, -1], [1, 0]] on the left
        return ModularMap(-self.c, -self.d, self.a, self.b)


def normalize_tau(tau_raw: complex) -> tuple[LatticeShape, ModularMap]:
    """Gauss-reduce a shape ratio into the fundamental domain.

    Returns the reduced shape and the modular map with map.apply(tau_raw)
    equal to the reduced tau.
    """
    t = complex(tau_raw)
    if not (np.isfinite(t.real) and np.isfinite(t.imag)) or t.imag <= 0:
        raise ValueError("tau_raw must be finite with Im(tau_raw) > 0")
    m = ModularMap()
    for _ in range(_MOVE_BUDGET):
        k = -int(np.floor(t.real + 0.5))
        if t.real + k <= -0.5:  # tie tau1 = -1/2 shifts to +1/2
            k += 1
        if k != 0:
            t = t + k
            m = m.compose_T(k)
        r = abs(t)
        if r < 1 - _BOUNDARY_TOL:
            t = -1 / t
            m = m.compose_S()
            continue
        if abs(r - 1) <= _BOUNDARY_TOL and t.real < -_BOUNDARY_TOL:
            t = -1 / t  # |tau| = 1 convention: Re tau >= 0
            m = m.compose_S()
            continue
        if abs(r - 1) <= _BOUNDARY_TOL:
            t = t / r  # snap onto the unit circle
        return LatticeShape(t), m
    raise LatticeReductionError(f"no convergence after {_MOVE_BUDGET} moves from {tau_raw}")


@dataclass(frozen=True)
class CellGeometry:
    """Flux number, field strength and the basis of the normalized cell."""

    shape: LatticeShape
    n: int
    b: float
    r_tau: float = field(init=False)
    sigma: float = field(init=False)
    r: float = field(init=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("flux number n must be >= 1")
        if self.b <= 0:
            raise ValueError("average field b must be positive (normal field absent)")
        object.__setattr__(self, "r_tau", float(np.sqrt(2 * np.pi / self.shape.tau2)))
        object.__setattr__(self, "sigma", float(np.sqrt(self.n / self.b)))
        # the flux b r^2 tau2 = 2 pi n holds by construction
        object.__setattr__(self, "r", self.sigma * self.r_tau)

    @property
    def t1(self) -> np.ndarray:
        return np.array([self.r_tau, 0.0])

    @property
    def t2(self) -> np.ndarray:
        return self.r_tau * np.array([self.shape.tau1, self.shape.tau2])

    @property
    def m_tau(self) -> np.ndarray:
        """Columns t1, t2: maps the unit square onto the normalized cell."""
        return np.column_stack([self.t1, self.t2])

    @property
    def area(self) -> float:
        return self.r_tau**2 * self.shape.tau2


def cell_geometry(shape: LatticeShape, n: int, b: float) -> CellGeometry:
    return CellGeometry(shape=shape, n=n, b=b)


def fundamental_domain_grid(n1: int, n2: int, tau2_max: float = 2.0) -> list[complex]:
    """Deterministic n1 x n2 sampling of the fundamental domain.

    Columns run over Re tau in (-1/2, 1/2], rows from 1e-3 above the unit
    circle up to tau2_max.
    """
    pts = []
    for t1 in np.linspace(-0.5 + 1.0 / (2 * n1), 0.5, n1):
        lo = float(np.sqrt(max(1 - t1 * t1, 0.0))) + 1e-3
        for t2 in np.linspace(lo, tau2_max, n2):
            pts.append(complex(t1, t2))
    return pts
