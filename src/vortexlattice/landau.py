"""The linear magnetic problem on the normalized cell.

The constant-field covariant Laplacian L = -Laplacian_{A0} with
A0(x) = (n/2) J x factorizes through annihilation/creation operators with
commutator 2n, so its spectrum is {(2k+1) n}, each level n-fold.  Sampled
fields keep a general flux n: QuasiPeriodicField, the quotient derivatives,
residuals and shifts, and fd_spectrum.  The Landau basis has one flux
quantum, the simple lowest level that the branch bifurcates from: there the
lowest level is spanned by the theta function

    psi0(x) = exp(i x2 (x1 + i x2) / 2) * sum_m c_m exp(i m nu (x1 + i x2)),

nu = sqrt(2 pi Im tau), with c_m = exp(i pi tau m^2) (the recursion
c_{m+1} = exp(i pi tau) exp(2 i m pi tau) c_m follows from the two
quasi-periodicity relations of the associated entire function and is
verified numerically through the annihilation residual).

Grid evaluation folds the Gaussian of the prefactor into the Hermite
functions generated by the creation operator, which keeps every term at
unit scale: level k is

    u_k(x) = (-i)^k sum_m e^{i pi tau1 m^2} e^{i m nu x1} e^{i x1 x2 / 2}
             h_k(x2 + m nu),

with h_k the orthonormal Hermite functions.  Successive levels are exact
ladder images of each other, so raising/lowering/L act diagonally on a
field's coefficient vector, its K_lev + 1 level coefficients.

On the logical grid x1 = r_tau (y1 + tau1 y2), x2 = r_tau tau2 y2, and
nu r_tau = 2 pi, so e^{i m nu x1} = e^{2 pi i m y1} e^{2 pi i m tau1 y2}
and each u_k separates into the 2-D carrier e^{i x1 x2 / 2}, the Fourier
mode e^{2 pi i m y1} and a y2-only profile

    p_mk(y2) = (-i)^k e^{i pi tau1 m^2} e^{2 pi i m tau1 y2} h_k(x2 + m nu).

Synthesis on a G x G grid contracts the profiles with the coefficients over
k, sums the terms m against the G x M wave matrix E[j, m] = exp(2 pi i m
j / G), its phases reduced mod G exactly, and multiplies by the carrier:
two matrix products, exact on any grid.  Projection is the exact adjoint,
two products in reverse order.  synth samples and project reads on the
solve grid, whose side is set from tau2 by _solve_grid_size, because on the
lowest level the Fourier coefficient of |psi0|^2 at a reciprocal vector g
is exp(-|g|^2 / 4), and on the logical grid the slowest direction has
|g|^2 ~ 2 pi k^2 / tau2.  field_from_coeffs is the one route to a basis's
output grid N, for a caller that needs a field on a finer grid, such as
`verify gauge`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import ConfigError, LatticeShape, SolverError, cell_geometry
from .spectral import CellGrid

TAU2_MAX = 20.0         # the fundamental domain keeps tau2 >= sqrt(3)/2
# _solve_grid_size keeps the outer-ring share of |psi|^2 on the solve grid
# (BranchPoint.grid_tail) below this at every branch point measured
GRID_TAIL_TOL = 1e-10


class SpectrumCollisionError(SolverError):
    """A resolvent asked at a Landau eigenvalue."""


def inner_avg(f: np.ndarray, g: np.ndarray) -> complex:
    """Cell-averaged L2 inner product (plain L2 divided by the cell area)."""
    return complex(np.mean(np.conj(f) * g))


def norm_avg(f: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.abs(f) ** 2)))


def _hermite_functions(t: np.ndarray, kmax: int) -> np.ndarray:
    """Orthonormal Hermite functions h_0..h_kmax on arbitrary arrays (stable
    three-term recurrence; no overflow for any argument)."""
    out = np.empty((kmax + 1, *t.shape))
    out[0] = np.pi ** (-0.25) * np.exp(-0.5 * t * t)
    if kmax >= 1:
        out[1] = np.sqrt(2.0) * t * out[0]
    for k in range(1, kmax):
        out[k + 1] = np.sqrt(2.0 / (k + 1)) * t * out[k] - np.sqrt(k / (k + 1)) * out[k - 1]
    return out


def _solve_grid_size(tau2: float) -> int:
    """Side of the solve grid: the even number at or above 16 sqrt(tau2),
    and at least 32.

    |psi|^2 has Gaussian Fourier decay on the logical grid, with exponent
    about pi |k|^2 / (2 tau2) on the lowest level, so the side grows like
    sqrt(tau2).  K_lev does not enter: levels a solution does not occupy
    carry too little to move the tail.  Calibrated on grid_tail (kappa^2 = 2,
    tau up to 20i, b from 1.9 down to 0.3, K_lev up to 80): energies sit at
    roundoff, against a forced 256 grid, wherever grid_tail <= 1e-8; keeping
    it below GRID_TAIL_TOL needs a factor 11-15 on sqrt(tau2) at tau2 >= 4,
    and a side of 21-24 on far targets (b = 0.5) near tau2 = 1, which the
    floor covers.
    """
    return max(32, 2 * int(np.ceil(8.0 * np.sqrt(tau2))))


class LandauBasis:
    """Orthonormal Landau levels 0..K_lev of one flux quantum on the
    normalized cell, as a separable transform.

    Orthonormal in the cell-averaged inner product, so <|psi0|^2> = 1.  A
    field is its coefficient vector, of length K_lev + 1.  The basis stores
    the y2 profiles of the M terms m of the theta series, (K_lev+1, M
    solve_N), the (solve_N, M) wave matrix, the carrier on the solve grid,
    the scalar that normalizes the seed and the samples psi0 of level 0 on
    the solve grid, all independent of N.  synth and project act on the
    solve grid; with an N, field_from_coeffs builds the wave matrix,
    profiles and carrier of the N grid on its first call there.
    """

    def __init__(self, shape: LatticeShape, N: int | None = None, K_lev: int = 32):
        if shape.tau2 > TAU2_MAX:
            raise ConfigError(f"tau2={shape.tau2:.3g} above the supported {TAU2_MAX}")
        self.shape = shape
        self.K_lev = int(K_lev)
        self.solve_N = _solve_grid_size(shape.tau2)
        self.N = self.solve_N if N is None else int(N)
        self.geom = cell_geometry(shape, 1, b=1.0)  # sigma = 1
        self.grid = CellGrid(self.geom.m_tau, self.N)
        self.solve_grid = CellGrid(self.geom.m_tau, self.solve_N)
        self.nu = float(np.sqrt(2 * np.pi * shape.tau2))
        self.levels = np.arange(self.K_lev + 1)
        self._ladder = np.sqrt(2.0 * self.levels[1:])  # sqrt(2k), k = 1..K_lev

        # theta truncation: the terms m whose Hermite profile, centred at
        # x2 = -m nu, can reach the cell's x2 span [0, nu); _table keeps
        # those within sqrt(2 K_lev + 1) + 8.5 of a grid row, beyond which
        # every profile is below 1e-19 of its peak
        reach = np.sqrt(2 * self.K_lev + 1) + 8.0
        self._m_range = (int(np.floor(-(self.nu + reach) / self.nu)) - 1,
                         int(np.ceil(reach / self.nu)) + 1)

        self._waves, self._profiles, self._carrier = self._table(self.solve_N)
        # the scale that gives the seed u_0 the cell average <|psi0|^2> = 1
        e0 = np.zeros(self.K_lev + 1, dtype=complex)
        e0[0] = 1.0
        u0 = self._raw_values(e0, *self._solve_table)
        self._norm = 1 / np.sqrt(inner_avg(u0, u0).real)
        self.psi0 = self.synth(e0)

    # ------------------------------------------------------------------
    def _table(self, G: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The G x M wave matrix exp(2 pi i m y1) of the terms m that reach
        the cell, their y2 profiles as a (K_lev+1, M G) matrix and the G x G
        carrier, on the G grid."""
        tau1, m_tau = self.shape.tau1, self.geom.m_tau
        y = np.arange(G) / G
        x2 = m_tau[1, 1] * y
        m = np.arange(self._m_range[0], self._m_range[1] + 1)
        t = x2[None, :] + m[:, None] * self.nu
        keep = np.min(np.abs(t), axis=1) <= np.sqrt(2 * self.K_lev + 1) + 8.5
        m, t = m[keep], t[keep]
        tilt = np.exp(1j * np.pi * tau1 * (m * m)[:, None]
                      + 2j * np.pi * tau1 * m[:, None] * y[None, :])
        kphase = (-1j) ** self.levels
        h = _hermite_functions(t, self.K_lev)
        x1 = m_tau[0, 0] * y[:, None] + m_tau[0, 1] * y[None, :]
        profiles = (kphase[:, None, None] * h * tilt[None]).reshape(self.K_lev + 1, -1)
        waves = np.exp(2j * np.pi / G * (np.arange(G)[:, None] * m[None, :] % G))
        return waves, profiles, np.exp(0.5j * x1 * x2[None, :])

    @property
    def _solve_table(self):
        return self._waves, self._profiles, self._carrier

    @cached_property
    def _output_table(self):
        """The transform table of the output N grid, built on first use."""
        return self._solve_table if self.N == self.solve_N else self._table(self.N)

    @staticmethod
    def _raw_values(d: np.ndarray, waves: np.ndarray, profiles: np.ndarray,
                    carrier: np.ndarray) -> np.ndarray:
        """Samples of sum_k d[k] u_k on the grid of the given table, for each
        vector d[..., k] of a stack; each vector is its own row product, so a
        stack gives the bits of its vectors alone."""
        prof = (d[..., None, :] @ profiles).reshape(*d.shape[:-1], waves.shape[1], -1)
        return waves @ prof * carrier

    # ------------------------------------------------------------------
    # coefficient <-> grid
    # ------------------------------------------------------------------
    def synth(self, coeffs: np.ndarray) -> np.ndarray:
        """Samples on the solve grid; a stack of coefficient vectors
        (..., K_lev+1) gives a stack of fields."""
        return self._raw_values(coeffs * self._norm, *self._solve_table)

    def project(self, values: np.ndarray) -> np.ndarray:
        """Landau coefficients of values sampled on the solve grid (the exact
        adjoint of synth in the cell-averaged inner product)."""
        # conj(profiles) . (E^H (conj(carrier) values)), without a conjugated
        # copy of the table
        spec = self._waves.T @ (np.conj(values) * self._carrier)
        return np.conj(self._profiles @ spec.ravel()) * self._norm / values.size

    # ------------------------------------------------------------------
    # exact ladder actions on coefficient vectors (length K_lev+1)
    # ------------------------------------------------------------------
    def lower_coeffs(self, d: np.ndarray) -> np.ndarray:
        out = np.zeros_like(d)
        out[:-1] = self._ladder * d[1:]
        return out

    def raise_coeffs(self, d: np.ndarray) -> np.ndarray:
        out = np.zeros_like(d)
        out[1:] = self._ladder * d[:-1]
        return out

    def landau_coeffs(self, d: np.ndarray) -> np.ndarray:
        return (2 * self.levels + 1) * d

    def resolvent_coeffs(self, d: np.ndarray, lam: float) -> np.ndarray:
        """(L - lam)^{-1} restricted to levels k >= 1 (zeroth entry untouched -> 0)."""
        eig = 2 * self.levels + 1 - lam
        if np.min(np.abs(eig[1:])) < 1e-9:
            raise SpectrumCollisionError(f"lambda={lam} collides with a Landau eigenvalue")
        out = np.zeros_like(d)
        out[1:] = d[1:] / eig[1:]
        return out

    def gradient_coeffs(self, d: np.ndarray) -> np.ndarray:
        """The stack (d, D1 d, D2 d), D = grad_{A0} by the ladder: D1 = (a -
        a*)/2 and D2 = (a + a*)/(2i) from one lowering and one raising."""
        lowered, raised = self.lower_coeffs(d), self.raise_coeffs(d)
        return np.stack([d, 0.5 * (lowered - raised), (lowered + raised) / 2j])


# ----------------------------------------------------------------------
# quasi-periodic fields
# ----------------------------------------------------------------------
@dataclass
class QuasiPeriodicField:
    """Complex samples with magnetic boundary phases on the normalized cell.

    Boundary condition: psi(x + t) = exp(i (n/2) x . J t + i C_t) psi(x) for
    the two basis vectors; in logical coordinates the wrap phases are
    n pi y2 + C1 (t1 direction) and -n pi y1 + C2 (t2 direction).  A
    Landau-level field is instead its coefficient vector, passed as (basis,
    coeffs); field_from_coeffs samples one.
    """

    n: int
    shape: LatticeShape
    values: np.ndarray
    bc_const: tuple[float, float] = (0.0, 0.0)

    @property
    def N(self) -> int:
        return self.values.shape[0]

    @cached_property
    def grid(self) -> CellGrid:
        return CellGrid(cell_geometry(self.shape, 1, b=1.0).m_tau, self.N)


def field_from_coeffs(basis: LandauBasis, coeffs: np.ndarray) -> QuasiPeriodicField:
    """The samples of a coefficient vector on the basis's N grid."""
    return QuasiPeriodicField(n=1, shape=basis.shape,
                              values=basis._raw_values(coeffs * basis._norm,
                                                       *basis._output_table))


def theta_field(shape: LatticeShape, N: int | None = None) -> QuasiPeriodicField:
    """The lowest-level field psi0, <|psi0|^2> = 1, at N or on the solve grid."""
    basis = LandauBasis(shape, N, K_lev=4)
    c = np.zeros(basis.K_lev + 1, dtype=complex)
    c[0] = 1.0
    return field_from_coeffs(basis, c)


# ----------------------------------------------------------------------
# boundary phases, quotients, derivatives
# ----------------------------------------------------------------------
_WRAP_SIGN = (1, -1)    # theta_a = sign_a n pi y_b + C_a, b the other axis


def _quotient_spectrum(values: np.ndarray, n: int, bc_const: tuple[float, float],
                       axis: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """FFT along the logical axis a of the periodic quotient
    q = exp(-i y_a theta_a) psi, with y_a, the wrap phase theta_a and the bin
    frequencies k shaped to broadcast against the samples."""
    N = values.shape[0]
    s = np.arange(N) / N
    y, across = (s[:, None], s[None, :]) if axis == 0 else (s[None, :], s[:, None])
    theta = _WRAP_SIGN[axis] * n * np.pi * across + bc_const[axis]
    k = np.fft.fftfreq(N, d=1.0 / N).reshape(y.shape)
    return np.fft.fft(values * np.exp(-1j * y * theta), axis=axis), y, theta, k


def qp_derivatives(f: QuasiPeriodicField) -> tuple[np.ndarray, np.ndarray]:
    """Cartesian (d1 psi, d2 psi) by spectral differentiation of the periodic
    quotients along the two lattice directions.

    Independent of the Landau-coefficient representation; exact for fields
    band-limited on the grid.
    """
    dpsi = []
    for axis in (0, 1):
        qh, y, theta, k = _quotient_spectrum(f.values, f.n, f.bc_const, axis)
        dq = np.fft.ifft(2j * np.pi * k * qh, axis=axis)
        dpsi.append(np.exp(1j * y * theta) * dq + 1j * theta * f.values)
    mt = f.grid.minv_t
    d1 = mt[0, 0] * dpsi[0] + mt[0, 1] * dpsi[1]
    d2 = mt[1, 0] * dpsi[0] + mt[1, 1] * dpsi[1]
    return d1, d2


def covariant_gradient_grid(f: QuasiPeriodicField) -> tuple[np.ndarray, np.ndarray]:
    """Grid-route covariant gradient (independent of the ladder algebra)."""
    d1, d2 = qp_derivatives(f)
    x1, x2 = f.grid.x
    return d1 + 0.5j * f.n * x2 * f.values, d2 - 0.5j * f.n * x1 * f.values


def annihilator_residual(f: QuasiPeriodicField) -> float:
    """|alpha psi| / |psi| with the annihilation operator applied through the
    grid derivatives; vanishes exactly on the lowest Landau level."""
    D1, D2 = covariant_gradient_grid(f)
    return norm_avg(D1 + 1j * D2) / norm_avg(f.values)


def quasi_periodicity_residual(f: QuasiPeriodicField) -> float:
    """Boundary-consistency mismatch between the sampled extension and the
    phase-multiplied samples, measured through the spectral tails |k| >= N/4
    of the periodic quotients (a seam jump of relative size eps registers
    >= eps/2)."""
    rms = norm_avg(f.values)
    if rms == 0:
        return 0.0
    res = 0.0
    for axis in (0, 1):
        qh, _, _, k = _quotient_spectrum(f.values, f.n, f.bc_const, axis)
        kmag = np.abs(k)
        tail = np.max(np.pi * kmag * np.abs(qh / f.N), where=kmag >= f.N // 4, initial=0.0)
        res = max(res, float(tail) / rms)
    return res


def magnetic_shift_values(values: np.ndarray, n: int, bc_const: tuple[float, float],
                          dy: tuple[float, float]) -> tuple[np.ndarray, tuple[float, float]]:
    """Samples at y + dy continued through the boundary phases (scale-free:
    only logical coordinates enter); returns values and updated BC constants."""
    C = list(bc_const)
    for axis in (0, 1):
        if dy[axis] != 0.0:
            qh, y, theta, k = _quotient_spectrum(values, n, C, axis)
            q = np.fft.ifft(np.exp(2j * np.pi * k * dy[axis]) * qh, axis=axis)
            values = q * np.exp(1j * (y + dy[axis]) * theta)
            # the other axis's wrap phase now reads y_a + dy_a
            C[1 - axis] += _WRAP_SIGN[1 - axis] * n * np.pi * dy[axis]
    return values, (C[0], C[1])


# ----------------------------------------------------------------------
# finite-difference validation: Harper chains (square cell)
# ----------------------------------------------------------------------
def fd_spectrum(n: int, N: int) -> np.ndarray:
    """The 4n + 2 lowest eigenvalues, ascending, of the link discretization of
    L = -Laplacian_{A0} on the square cell (tau = i) with N x N sites and the
    magnetic boundary phases; used only to cross-validate the spectrum
    {(2k+1) n} with multiplicity n.

    In Landau gauge (phase e^{-2 pi i n i1/N^2} on every e2 link and
    e^{2 pi i n i2/N} on the e1 links that wrap at i1 = N - 1) a Fourier
    transform along i2 splits the operator into Harper's equation:
    g = gcd(n, N) real symmetric cyclic chains of length N^2/g.  Site x of
    chain k0 is row x mod N at mode k0 - n (x // N) mod N; its diagonal is
    (4 - 2 cos 2 pi (k0/N - n x/N^2))/h^2 and its hops, the corner that closes
    the cycle included, are -1/h^2, with h^2 = 2 pi/N^2.
    """
    import scipy.sparse as sp  # imported here so that no other command loads scipy
    from scipy.sparse.linalg import eigsh
    k_eigs = 4 * n + 2
    g = int(np.gcd(n, N))
    M = N * N // g
    x = np.arange(M)
    hop = -N * N / (2 * np.pi)    # -1/h^2
    vals = []
    for k0 in range(g):
        diag = -hop * (4 - 2 * np.cos(2 * np.pi * (k0 / N - n * x / N**2)))
        chain = sp.diags([hop, hop, diag, hop, hop], [1 - M, -1, 0, 1, M - 1],
                         shape=(M, M), format="csc")
        v0 = np.random.default_rng(0).standard_normal(M)  # fixed ARPACK start
        vals.append(eigsh(chain, k=min(k_eigs, M - 1), sigma=0.0, v0=v0,
                          return_eigenvectors=False))
    return np.sort(np.concatenate(vals))[:k_eigs]
