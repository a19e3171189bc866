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
A_p = <A_p> + grad chi + curl* phi.  fix_gauge is one gauge change and
one translation: gauge_transform by eta = -<A_p>.x - chi, then
translate_state by the l that removes the boundary constants eta leaves;
phi is read from curl A_p of the result.  That is the state the
constructive recipe of the existence proof reaches through row
antiderivatives of the field, a periodic Poisson correction and a mean
shift.
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
        return self.r * self.r * self.shape.tau2

    @property
    def b(self) -> float:
        return 2 * np.pi * self.n / self.area

    def curl_a(self) -> np.ndarray:
        return self.b + self.grid.curl(self.a_p)

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
    bc = np.asarray(state.bc_const) + c @ state.m
    return replace(state, psi=psi, a_p=a_p, bc_const=(float(bc[0]), float(bc[1])))


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
    normalized cell with lambda = kappa^2 n / b by the scale info["sigma"].
    """
    grid, b, m = state.grid, state.b, state.m

    # eta = d.x - chi (d = -<a_p>, grad chi the gradient part of a_p) leaves
    # the constants C, which the translation l with b (t_i ^ l) = -C_i
    # (principal branch) removes; eta's extra -(b/2) J l cancels the constant
    # (b/2) J l it adds to a_p, and adds no phase since (J l).l = 0
    d = -state.a_p.mean(axis=(1, 2))
    C = (np.asarray(state.bc_const) + d @ m + np.pi) % (2 * np.pi) - np.pi
    l = np.linalg.solve(b * (J @ m).T, -C)
    st = translate_state(gauge_transform(state, -grid.antiderivative(state.a_p),
                                         d - 0.5 * b * (J @ l)), l)

    # alpha = curl* phi from curl a_p alone, which drops what a_p keeps at
    # the dead Nyquist modes
    _, dead, gsq, _ = grid.half_spectrum
    alpha = grid._curl_star_of(np.where(dead, 0.0, grid._curl_hat(st.a_p) / gsq))

    # residual global phase: pin the origin sample when it carries weight
    vals = st.psi
    if abs(vals[0, 0]) > 1e-8 * np.max(np.abs(vals)):
        vals = vals * np.exp(-1j * np.angle(vals[0, 0]))

    # rescale to normalized variables (shared logical grid: pure sample scaling)
    sigma = cell_geometry(state.shape, state.n, b).sigma
    params = GLParams(kappa=kappa, n=state.n, lam=kappa**2 * state.n / b)
    qp = QuasiPeriodicField(n=state.n, shape=state.shape, values=sigma * vals)
    out = GLState(psi=qp, alpha=PeriodicVectorField(sigma * alpha, qp.grid), params=params)
    return out, {"translation": l, "sigma": sigma}
