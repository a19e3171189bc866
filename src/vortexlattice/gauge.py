"""Symmetry transformations and gauge fixing.

A raw lattice state is stored as (Psi, A0 + A_p) on the physical cell, with
A0(x) = (b/2) J x and A_p the periodic remainder of the potential, plus the
two boundary-phase constants C_t of Psi(x + t) = exp(i (b/2) x.Jt + i C_t) Psi(x).
The flux number n fixes the flux: b = 2 pi n / |cell| and a periodic A_p
has no net curl, so the flux per cell is 2 pi n by construction, and a
snapshot's n is checked when its header is read.

The fixed gauge asks for zero boundary constants and a periodic potential
perturbation alpha with mean zero and no divergence.  A gauge change
exp(i eta) keeps curl alpha = curl A_p, and a periodic field whose mean,
divergence and curl all vanish is zero, so the three conditions allow only
one alpha: the solenoidal part curl* phi of the Helmholtz split
A_p = <A_p> + grad chi + curl* phi.  fix_gauge reads phi from curl A_p,
takes eta = -<A_p>.x - chi, and removes the boundary constants that eta
leaves by a translation.  That is the state the constructive recipe of the
existence proof reaches through row antiderivatives of the field, a
periodic Poisson correction and a mean shift.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .glcore import GLParams, GLState, PeriodicVectorField, _samples
from .landau import QuasiPeriodicField, magnetic_shift_values
from .lattice import J, LatticeShape, cell_geometry
from .spectral import CellGrid


@dataclass
class RawLatticeState:
    """Lattice state in an arbitrary gauge on the physical cell."""

    psi: np.ndarray                 # (N, N) complex samples
    a_p: np.ndarray                 # (2, N, N) periodic part of the potential
    n: int
    shape: LatticeShape
    r: float                        # physical cell scale (basis r, r*tau)
    bc_const: tuple[float, float] = (0.0, 0.0)

    @property
    def N(self) -> int:
        return self.psi.shape[0]

    @property
    def m(self) -> np.ndarray:
        t1 = np.array([self.r, 0.0])
        t2 = self.r * np.array([self.shape.tau1, self.shape.tau2])
        return np.column_stack([t1, t2])

    @cached_property
    def grid(self) -> CellGrid:
        return CellGrid(self.m, self.N)

    @property
    def area(self) -> float:
        return self.r**2 * self.shape.tau2

    @property
    def b(self) -> float:
        return 2 * np.pi * self.n / self.area

    def curl_a(self) -> np.ndarray:
        return self.b + self.grid.curl(self.a_p)

    def flux(self) -> float:
        return self.grid.flux(self.curl_a())

    def qp_field(self) -> QuasiPeriodicField:
        return QuasiPeriodicField(n=self.n, shape=self.shape, values=self.psi,
                                  bc_const=self.bc_const)

    def observables(self) -> dict[str, np.ndarray]:
        """Gauge-invariant grids: pair density, magnetic field, current.  The
        field kernel's j0 is the current of the normalized cell's (d - i A0)
        Psi; scaled by 1/sigma and less |Psi|^2 a_p, it is the current
        Im(conj(Psi) (d - i a) Psi) of the full potential a = A0 + a_p."""
        ps = _samples(self.qp_field())
        return {"ns": ps.rho, "curl_a": self.curl_a(),
                "current": ps.j0 / np.sqrt(self.n / self.b) - ps.rho * self.a_p}


def raw_from_state(state: GLState) -> RawLatticeState:
    """Physical-cell raw state from a normalized fixed-gauge state."""
    geom = cell_geometry(state.psi.shape, state.params.n, state.params.b)
    sigma = geom.sigma
    return RawLatticeState(psi=state.psi.values / sigma,
                           a_p=state.alpha.values / sigma,
                           n=state.params.n, shape=state.psi.shape, r=geom.r,
                           bc_const=state.psi.bc_const)


# ----------------------------------------------------------------------
# symmetries
# ----------------------------------------------------------------------
def gauge_transform(state: RawLatticeState, eta: np.ndarray,
                    eta_linear: tuple[float, float] = (0.0, 0.0)) -> RawLatticeState:
    """(Psi, A) -> (e^{i eta} Psi, A + grad eta) for eta = periodic + c . x."""
    grid = state.grid
    c = np.asarray(eta_linear, dtype=float)
    x1, x2 = grid.x
    full = eta + c[0] * x1 + c[1] * x2
    psi = np.exp(1j * full) * state.psi
    a_p = state.a_p + grid.grad(eta) + c[:, None, None]
    t1 = state.m[:, 0]
    t2 = state.m[:, 1]
    bc = (state.bc_const[0] + float(c @ t1), state.bc_const[1] + float(c @ t2))
    return replace(state, psi=psi, a_p=a_p, bc_const=bc)


def translate_state(state: RawLatticeState, t: np.ndarray) -> RawLatticeState:
    """State translated by t: fields evaluated at x + t."""
    dy = np.linalg.solve(state.m, np.asarray(t, dtype=float))
    vals, bc = magnetic_shift_values(state.psi, state.n, state.bc_const,
                                     (float(dy[0]), float(dy[1])))
    grid = state.grid
    a_p = grid.shift(state.a_p, dy)
    a_p = a_p + 0.5 * state.b * (J @ np.asarray(t, dtype=float))[:, None, None]
    return replace(state, psi=vals, a_p=a_p, bc_const=bc)


# ----------------------------------------------------------------------
# gauge fixing
# ----------------------------------------------------------------------
def fix_gauge(state: RawLatticeState, kappa: float = 1.0):
    """Bring a raw state to the fixed gauge and normalized variables.

    Returns (fixed, info).  fixed has the canonical boundary phase with zero
    constants and a mean-zero, divergence-free potential perturbation; it is
    gauge-equivalent to the input translated by l = info["translation"], so
    all observables match the l-translated input.  It is rescaled to the
    normalized cell with lambda = kappa^2 n / b.  info also holds the linear
    part eta_linear of the gauge function, b and the scale sigma.
    """
    grid = state.grid
    b = state.b

    # alpha = curl* phi from curl a_p alone; eta = d.x - chi with d = -<a_p>
    # and grad chi the gradient part of a_p
    _, dead, gsq, _ = grid.half_spectrum
    alpha = grid._curl_star_of(np.where(dead, 0.0, grid._curl_hat(state.a_p) / gsq))
    d = -state.a_p.mean(axis=(1, 2))
    x1, x2 = grid.x
    eta = d[0] * x1 + d[1] * x2 - grid.antiderivative(state.a_p)
    psi = np.exp(1j * eta) * state.psi
    t1, t2 = state.m[:, 0], state.m[:, 1]
    C1 = state.bc_const[0] + float(d @ t1)
    C2 = state.bc_const[1] + float(d @ t2)

    # translation l with b * (t_i ^ l) = -C_i (principal branch)
    C1p = (C1 + np.pi) % (2 * np.pi) - np.pi
    C2p = (C2 + np.pi) % (2 * np.pi) - np.pi
    M = b * np.array([[-t1[1], t1[0]], [-t2[1], t2[0]]])  # rows: b * (t_i ^ .)
    l = np.linalg.solve(M, -np.array([C1p, C2p]))
    dy = np.linalg.solve(state.m, l)
    vals, bc = magnetic_shift_values(psi, state.n, (C1, C2), (float(dy[0]), float(dy[1])))
    vals = vals * np.exp(0.5j * b * (x1 * l[1] - x2 * l[0]))  # zeta = (b/2) x ^ l
    alpha = grid.shift(alpha, dy)

    # residual global phase: pin the origin sample when it carries weight
    if abs(vals[0, 0]) > 1e-8 * np.max(np.abs(vals)):
        vals = vals * np.exp(-1j * np.angle(vals[0, 0]))

    # rescale to normalized variables (shared logical grid: pure sample scaling)
    sigma = cell_geometry(state.shape, state.n, b).sigma
    params = GLParams(kappa=kappa, n=state.n, lam=kappa**2 * state.n / b)
    qp = QuasiPeriodicField(n=state.n, shape=state.shape, values=sigma * vals)
    out = GLState(psi=qp, alpha=PeriodicVectorField(sigma * alpha, qp.grid), params=params)
    return out, {"translation": l, "eta_linear": d, "b": b, "sigma": sigma}
