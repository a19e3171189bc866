"""Symmetry transformations and constructive gauge fixing.

A raw lattice state is stored as (Psi, A0 + A_p) on the physical cell, with
A0(x) = (b/2) J x and A_p the periodic remainder of the potential, plus the
two boundary-phase constants C_t of Psi(x + t) = exp(i (b/2) x.Jt + i C_t) Psi(x).

fix_gauge follows the constructive recipe: the row-averaged field B, the
doubly-periodic field P with curl P = curl A - b, a periodic Poisson solve
making the result divergence-free, the mean shift C, and the translation
killing the boundary constants.  The gauge function eta is recovered
spectrally from the curl-free difference of the old and new potentials
(equivalent to the original line integrals, which the periodic
antiderivatives reproduce exactly on grid lines).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .glcore import GLParams, GLState, PeriodicVectorField
from .landau import (QuasiPeriodicField, covariant_gradient_grid,
                     magnetic_shift_values)
from .lattice import J, LatticeShape, cell_geometry
from .spectral import CellGrid


class FluxQuantizationError(ValueError):
    """Input flux is not an integer multiple of 2 pi."""


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

    def covariant_gradient(self) -> tuple[np.ndarray, np.ndarray]:
        """(d - i a) Psi for the full potential a = A0 + a_p: the normalized
        cell's (d - i A0) Psi, scaled by 1/sigma, minus i a_p Psi."""
        D = np.stack(covariant_gradient_grid(self.qp_field()))
        return tuple(D / np.sqrt(self.n / self.b) - 1j * self.a_p * self.psi)

    def observables(self) -> dict[str, np.ndarray]:
        """Gauge-invariant grids: pair density, magnetic field, current."""
        cov1, cov2 = self.covariant_gradient()
        return {
            "ns": np.abs(self.psi) ** 2,
            "curl_a": self.curl_a(),
            "current": np.stack([np.imag(np.conj(self.psi) * cov1),
                                 np.imag(np.conj(self.psi) * cov2)]),
        }


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
def _row_antiderivative(f: np.ndarray, axis: int, length: float) -> np.ndarray:
    """Zero-mean periodic antiderivative of a real f along one logical axis,
    on its rfft half spectrum (the Nyquist term of an even N comes out
    imaginary, and irfft drops it)."""
    N = f.shape[axis]
    shape = [1] * f.ndim
    shape[axis] = -1
    kk = (2j * np.pi / length) * np.fft.rfftfreq(N, d=1.0 / N).reshape(shape)
    kk[kk == 0] = np.inf
    return np.fft.irfft(np.fft.rfft(f, axis=axis) / kk, n=N, axis=axis)


def fix_gauge(state: RawLatticeState, kappa: float = 1.0,
              flux_tol: float = 1e-8, return_info: bool = False):
    """Bring a raw state to the fixed gauge and normalized variables.

    Output satisfies the canonical boundary phase with zero constants, mean
    zero and divergence-free potential perturbation; it is gauge-equivalent
    to the input translated by the reported vector l, so all observables
    match the l-translated input.  The returned state is rescaled to the
    normalized cell with lambda = kappa^2 n / b.  With return_info the
    translation and gauge data are returned alongside.
    """
    grid = state.grid
    b = state.b
    curl_a = state.curl_a()
    flux = grid.flux(curl_a)
    n_meas = flux / (2 * np.pi)
    if abs(n_meas - round(n_meas)) > flux_tol or round(n_meas) != state.n:
        raise FluxQuantizationError(f"flux per cell {flux:.6e} is not 2*pi*{state.n}")

    # (1) row average of the magnetic field; (2) the doubly-periodic P
    B = curl_a.mean(axis=0)  # rows: fixed y2, horizontal segments of length r
    P1 = -_row_antiderivative(B - b, axis=0, length=state.r * state.shape.tau2)
    P1 = np.broadcast_to(P1[None, :], curl_a.shape)
    P2 = _row_antiderivative(curl_a - B[None, :], axis=0, length=state.r)
    P = np.stack([np.asarray(P1, dtype=float), P2])

    # (4) divergence-free correction via the periodic Poisson solve
    eta2 = grid.poisson(-grid.div(P))
    alpha0 = P + grid.grad(eta2)
    # (5) mean shift
    C = -alpha0.mean(axis=(1, 2))
    alpha = alpha0 + C[:, None, None]

    # (3') gauge function from the curl-free difference, spectral route
    D = alpha - state.a_p
    d = D.mean(axis=(1, 2))
    per = grid.antiderivative(D - d[:, None, None])
    x1, x2 = grid.x
    eta = per + d[0] * x1 + d[1] * x2
    psi = np.exp(1j * eta) * state.psi
    t1, t2 = state.m[:, 0], state.m[:, 1]
    C1 = state.bc_const[0] + float(d @ t1)
    C2 = state.bc_const[1] + float(d @ t2)

    # (6) translation l with b * (t_i ^ l) = -C_i (principal branch)
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
    geom = cell_geometry(state.shape, state.n, b)
    sigma = geom.sigma
    psi_n = sigma * vals
    alpha_n = sigma * alpha
    norm_grid = CellGrid(geom.m_tau, state.N)
    params = GLParams(kappa=kappa, n=state.n, lam=kappa**2 * state.n / b)
    qp = QuasiPeriodicField(n=state.n, shape=state.shape, values=psi_n)
    out = GLState(psi=qp, alpha=PeriodicVectorField(alpha_n, norm_grid), params=params)
    if return_info:
        return out, {"translation": l, "eta_linear": d, "b": b, "sigma": sigma}
    return out
