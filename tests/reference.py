"""Reference implementations and constructions that only the tests use.

The damped vector fixed point for the induced potential, with its Helmholtz
projection, is the second oracle for the stream-function conjugate gradients
of glcore._alpha_fixed_point.  The dense Landau tables summed term by term
(evaluate_raw) are the second oracle for the separable
transform behind LandauBasis.synth/project, and the polynomial ladder
carrier LadderTerm a third route to the higher levels.  Gradient descent on
beta, read at any tau by beta_of, is the second route to its minimum.  The
Richardson-refined central difference gradient and the central difference
Hessian are the oracles of beta's term-by-term derivatives and of the
branch energy's shape gradient.
plain_w, the reduction's own contraction w <- -R(lambda) Q N(s psi0 + w)
at fixed lambda (cold potential solves, no shift, no mixing), is the
oracle of the package's joint (w, lambda) and (w, s) solves; gamma1, whose
zeros are the branch, and the effective energy e_lambda(v), which checks
the reduction's variational structure, are built on it.  The closed-form coefficients lambda1 and lambda2 of
branch_coefficients the solved branch lambda(s), and residuals the
equations a state solves.  alpha_residual, alpha_residual_rms and
separate_energy read a point's alpha residual and energy by the separate
operators (grid.curl, curl* of its own curl transform, the covariant
gradient formed again), the route glcore._observables replaces with one
pass.  FullSpectrumGrid
keeps the CellGrid operators on the full fft2 spectrum, the oracle of the
half-spectrum ones.  The N^2 x N^2 link matrix
magnetic_laplacian_fd, in the symmetric gauge, is the oracle of the Harper
chains of landau.fd_spectrum.
The field operations at the end (the alpha solve on a
field, flux, supercurrent, the ladder-route covariant gradient and ladder
actions on coefficient vectors, the applied field h0, point-group rotation,
the physical energy density and sample rescaling) have no caller in the
package and are kept here with their checks.  Like the package, they take a
Landau-level field as (basis, coeffs) and a sampled one as a
QuasiPeriodicField.
"""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from vortexlattice.abrikosov import beta_derivatives, beta_lattice_sum, canonical_tau
from vortexlattice.glcore import (AlphaSolveError, F_coeffs, GLParams, GLState,
                                  PeriodicVectorField, _alpha_fixed_point,
                                  _coeff_samples, _nonlinear, _PsiSamples, _samples,
                                  energy)
from vortexlattice.landau import (QuasiPeriodicField, _hermite_functions,
                                  covariant_gradient_grid, field_from_coeffs,
                                  magnetic_shift_values, theta_field)
from vortexlattice.lattice import SolverError, normalize_tau
from vortexlattice.spectral import CellGrid


class FullSpectrumGrid(CellGrid):
    """The CellGrid operators on the full fft2 spectrum, which also take
    complex fields.  resample places the shifted spectrum at (N_new - N) // 2,
    one bin off for odd -> even upsampling and even -> odd downsampling."""

    @cached_property
    def wavevectors(self):
        """Cartesian wavevectors g = 2*pi*m^{-T} k for FFT-ordered integer
        modes, the unpaired Nyquist modes of an even grid set to zero."""
        k = np.fft.fftfreq(self.N, d=1.0 / self.N)
        if self.N % 2 == 0:
            k[self.N // 2] = 0.0
        k1, k2 = np.meshgrid(k, k, indexing="ij")
        g1 = 2 * np.pi * (self.minv_t[0, 0] * k1 + self.minv_t[0, 1] * k2)
        g2 = 2 * np.pi * (self.minv_t[1, 0] * k1 + self.minv_t[1, 1] * k2)
        return g1, g2

    @cached_property
    def gsq(self):
        g1, g2 = self.wavevectors
        return g1 * g1 + g2 * g2

    @cached_property
    def gsq_divisor(self):
        """(dead, divisor): the g = 0 modes, and gsq with 1 on them to divide by."""
        dead = self.gsq == 0
        return dead, np.where(dead, 1.0, self.gsq)

    def grad(self, f):
        fh = np.fft.fft2(f)
        g1, g2 = self.wavevectors
        d1 = np.fft.ifft2(1j * g1 * fh)
        d2 = np.fft.ifft2(1j * g2 * fh)
        out = np.stack([d1, d2])
        return out.real if np.isrealobj(f) else out

    def curl_star(self, f):
        d = self.grad(f)
        return np.stack([d[1], -d[0]])

    def poisson(self, rhs, mean_tol=1e-10):
        mean = abs(np.mean(rhs))
        scale = max(np.max(np.abs(rhs)), 1.0)
        if mean > mean_tol * scale:
            raise ValueError(f"poisson rhs has nonzero mean {mean:.3e}")
        fh = np.fft.fft2(rhs)
        dead, gsq = self.gsq_divisor
        uh = -fh / gsq
        uh[dead] = 0.0
        out = np.fft.ifft2(uh)
        return out.real if np.isrealobj(rhs) else out

    def div(self, v):
        g1, g2 = self.wavevectors
        out = np.fft.ifft2(1j * g1 * np.fft.fft2(v[0]) + 1j * g2 * np.fft.fft2(v[1]))
        return out.real if np.isrealobj(v) else out

    def curl(self, v):
        g1, g2 = self.wavevectors
        out = np.fft.ifft2(1j * g1 * np.fft.fft2(v[1]) - 1j * g2 * np.fft.fft2(v[0]))
        return out.real if np.isrealobj(v) else out

    def curl_star_curl(self, v):
        return self.curl_star(self.curl(v))

    def antiderivative(self, v):
        g1, g2 = self.wavevectors
        v1h = np.fft.fft2(v[0])
        v2h = np.fft.fft2(v[1])
        dead, gsq = self.gsq_divisor
        ph = (g1 * v1h + g2 * v2h) / (1j * gsq)
        ph[dead] = 0.0
        out = np.fft.ifft2(ph)
        return out.real if np.isrealobj(v) else out

    def resample(self, f, N_new):
        if N_new == self.N:
            return f.copy()
        axes = (-2, -1)
        fh = np.fft.fftshift(np.fft.fft2(f), axes=axes)
        N = self.N
        if N_new > N:
            out = np.zeros((*f.shape[:-2], N_new, N_new), dtype=complex)
            lo = (N_new - N) // 2
            out[..., lo:lo + N, lo:lo + N] = fh
        else:
            lo = (N - N_new) // 2
            out = fh[..., lo:lo + N_new, lo:lo + N_new].copy()
        out = np.fft.ifft2(np.fft.ifftshift(out, axes=axes)) * (N_new / N) ** 2
        return out.real if np.isrealobj(f) else out

    def shift(self, f, dy):
        k = np.fft.fftfreq(self.N, d=1.0 / self.N)
        k1, k2 = np.meshgrid(k, k, indexing="ij")
        phase = np.exp(2j * np.pi * (k1 * dy[0] + k2 * dy[1]))
        out = np.fft.ifft2(np.fft.fft2(f) * phase)
        return out.real if np.isrealobj(f) else out


def helmholtz_project(grid, v):
    """Project onto divergence-free, mean-zero vector fields, on the full
    spectrum."""
    full = FullSpectrumGrid(grid.m, grid.N)
    g1, g2 = full.wavevectors
    v1h = np.fft.fft2(v[0])
    v2h = np.fft.fft2(v[1])
    dead, gsq = full.gsq_divisor
    gv = (g1 * v1h + g2 * v2h) / gsq
    v1h -= g1 * gv
    v2h -= g2 * gv
    v1h[dead] = 0.0
    v2h[dead] = 0.0
    out = np.stack([np.fft.ifft2(v1h), np.fft.ifft2(v2h)])
    return out.real if np.isrealobj(v) else out


def alpha_damped_fixed_point(grid, j0, abspsi2, tol=1e-14, max_iter=400):
    """alpha = (-Laplacian)^{-1} P(j0 - |psi|^2 alpha), damped when a step grows."""
    full = FullSpectrumGrid(grid.m, grid.N)
    alpha = np.zeros_like(j0)
    damping, last = 1.0, np.inf
    for _ in range(max_iter):
        rhs = helmholtz_project(grid, j0 - abspsi2[None] * alpha)
        step = -np.stack([full.poisson(c) for c in rhs]) - alpha
        delta = float(np.max(np.abs(step)))
        if delta > last and damping > 0.25:
            damping *= 0.5
        alpha = alpha + damping * step
        last = delta
        if delta < tol:
            return alpha
    raise AlphaSolveError(f"reference alpha fixed point stalled at step {last:.3e}")


def normal_state(params, shape, N):
    """psi = 0, alpha = 0: the normal state with params.n flux quanta on an
    N x N grid."""
    psi = QuasiPeriodicField(n=params.n, shape=shape, values=np.zeros((N, N), complex))
    alpha = PeriodicVectorField(np.zeros((2, N, N)), psi.grid)
    return GLState(psi=psi, alpha=alpha, params=params)


def gauge_transform_state(state, eta):
    """(psi, alpha) -> (e^{i eta} psi, alpha + grad eta) for periodic eta."""
    grid = state.alpha.grid
    psi2 = replace(state.psi, values=np.exp(1j * eta) * state.psi.values)
    alpha2 = PeriodicVectorField(state.alpha.values + grid.grad(eta), grid)
    return GLState(psi=psi2, alpha=alpha2, params=state.params)


def min_nonzero_gsq(grid):
    """Smallest nonzero Fourier eigenvalue of -Laplacian on the cell."""
    _, dead, gsq, _ = grid.half_spectrum
    return float(gsq[~dead].min())


# ----------------------------------------------------------------------
# beta and the reduction
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


def beta_of(tau: complex) -> float:
    """Lattice-sum beta after reduction into the fundamental domain."""
    shape, _ = normalize_tau(tau)
    return beta_lattice_sum(shape)


def descend_beta(tau0: complex, step0: float = 0.1, tol: float = 1e-10,
                 max_iter: int = 500) -> complex:
    """Gradient descent with backtracking, folded into the fundamental domain."""
    tau = complex(normalize_tau(tau0)[0].tau)
    val = beta_of(tau)
    step = step0
    for _ in range(max_iter):
        g = beta_derivatives(tau)[0]
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
        g, hess = beta_derivatives(tau)
        if np.linalg.norm(g) < tol:
            break
        try:
            d = np.linalg.solve(hess, -g)
        except np.linalg.LinAlgError:
            break
        if np.linalg.norm(d) > 0.1:
            d *= 0.1 / np.linalg.norm(d)
        cand = complex(tau + d[0] + 1j * d[1])
        if cand.imag < 0.05:
            break
        tau = complex(normalize_tau(cand)[0].tau)
    return canonical_tau(tau)


def w_coeffs(wres):
    """The coefficient vector of psi = s psi0 + w of a w solve (or plain_w)."""
    psi_c = wres.w.copy()
    psi_c[0] += wres.s
    return psi_c


def w_state(basis, coeffs, wres, kappa):
    """GLState of the vector coeffs of a w solve, psi and its alpha2 both
    sampled on the solve grid."""
    psi = QuasiPeriodicField(n=1, shape=basis.shape, values=basis.synth(coeffs))
    return GLState(psi=psi, alpha=PeriodicVectorField(wres.alpha2, basis.solve_grid),
                   params=GLParams(kappa=kappa, n=1, lam=wres.lam))


@dataclass
class PlainW:
    """w(lambda, s) of the plain contraction, with the potential and the
    nonlinear coefficients at it."""

    w: np.ndarray
    alpha2: np.ndarray
    ncoef: np.ndarray
    s: complex
    lam: float
    iterations: int


def plain_w(lam, s, setup, kappa, tol=1e-15, max_iter=60):
    """w(lambda, s) at fixed lambda by the reduction's own contraction
    w <- -R(lambda) Q N(s psi0 + w) from w = 0: every potential solved cold,
    no shift and no mixing.  Stops at the first iterate w with max
    |G(w) - w| <= tol |s|, and returns it with the alpha and N at it;
    SolverError at the first step that does not shrink, or after max_iter."""
    basis = setup.basis
    w, last = np.zeros(basis.K_lev + 1, dtype=complex), np.inf
    for it in range(1, max_iter + 1):
        psi_c = w.copy()
        psi_c[0] += s
        ps = _coeff_samples(basis, psi_c)
        alpha2 = _alpha_fixed_point(ps.grid, ps.j0, ps.rho, None)[0]
        ncoef = _nonlinear(basis, ps, kappa, alpha2)
        w_new = -basis.resolvent_coeffs(ncoef, lam)
        step = np.max(np.abs(w_new - w))
        if step <= tol * abs(s):
            return PlainW(w, alpha2, ncoef, s, lam, it)
        if not step < last:
            break
        w, last = w_new, step
    raise SolverError(f"plain w iteration at lambda={lam}, s={s} did not converge: "
                      f"step {step:.2e} at sweep {it}")


def gamma1(lam, s, setup, kappa):
    """gamma1(lambda, s) = <psi0, F(lambda, s psi0 + w(lambda, s))> / s, the
    scalar whose zeros are the branch, with w from plain_w; 1 - lambda at
    s = 0."""
    if s == 0:
        return 1.0 - lam
    return (1.0 - lam) + plain_w(lam, s, setup, kappa).ncoef[0] / s


def effective_energy(lam, v, setup, kappa):
    """e_lambda(v) = E_lambda(v psi0 + w(lambda, v)), w from plain_w; gauge
    invariant in arg v."""
    wres = plain_w(lam, v, setup, kappa)
    return energy(w_state(setup.basis, w_coeffs(wres), wres, kappa))


def branch_coefficients(setup, kappa):
    """(lambda1, lambda2) of lambda(s) = 1 + lambda1 s^2 + lambda2 s^4 + O(s^6)
    on the branch at real s, in closed form from the reduction.  With
    psi = s psi0 + s^3 w3 + O(s^5), alpha = s^2 alpha1 + s^4 alpha3 + O(s^6),
    D = grad_{A0} and M = curl* curl on divergence-free mean-zero fields:
    M alpha1 = Im(conj psi0 D psi0), N3 = 2i alpha1.D psi0 + kappa^2 |psi0|^2
    psi0, lambda1 = Re <psi0, N3>, w3 = -R(1) Q N3, M alpha3 = Im(conj psi0
    D w3 + conj w3 D psi0) - |psi0|^2 alpha1, N5 = 2i (alpha1.D w3 + alpha3.D
    psi0) + |alpha1|^2 psi0 + kappa^2 (2 |psi0|^2 w3 + psi0^2 conj w3) and
    lambda2 = Re <psi0, N5>; w5 does not enter since w is orthogonal to psi0."""
    basis = setup.basis
    c0 = np.zeros(basis.K_lev + 1, dtype=complex)
    c0[0] = 1.0
    p0 = _coeff_samples(basis, c0)
    zero = np.zeros_like(p0.rho)
    a1 = _alpha_fixed_point(p0.grid, p0.j0, zero, None)[0]
    n3 = basis.project(2j * (a1[0] * p0.d1 + a1[1] * p0.d2) + kappa**2 * p0.rho * p0.psi)
    p3 = _coeff_samples(basis, -basis.resolvent_coeffs(n3, 1.0))
    j3 = np.imag(np.conj(p0.psi) * np.stack([p3.d1, p3.d2])
                 + np.conj(p3.psi) * np.stack([p0.d1, p0.d2]))
    a3 = _alpha_fixed_point(p0.grid, j3 - p0.rho * a1, zero, None)[0]
    n5 = basis.project(2j * (a1[0] * p3.d1 + a1[1] * p3.d2 + a3[0] * p0.d1 + a3[1] * p0.d2)
                       + (a1[0] ** 2 + a1[1] ** 2) * p0.psi
                       + kappa**2 * (2 * p0.rho * p3.psi + p0.psi**2 * np.conj(p3.psi)))
    return float(n3[0].real), float(n5[0].real)


def residuals(basis, coeffs, alpha, params):
    """(psi-equation residual coefficients, alpha-equation residual grid) of
    the state (basis, coeffs) with alpha on the basis's N grid."""
    a2 = alpha.grid.resample(alpha.values, basis.solve_N)
    ncoef = _nonlinear(basis, _coeff_samples(basis, coeffs), params.kappa, a2)
    return (F_coeffs(basis, coeffs, params.lam, ncoef),
            alpha_residual(output_samples(basis, coeffs), alpha.values))


def curl_star_curl(grid, v):
    """M v = curl* curl v on the half spectrum of a CellGrid."""
    return grid._curl_star_of(grid._curl_hat(v))


def alpha_residual(ps, alpha):
    """(M + |psi|^2) alpha - j0 for alpha sampled on the grid of ps."""
    return curl_star_curl(ps.grid, alpha) + ps.rho[None] * alpha - ps.j0


def alpha_residual_rms(ps, alpha):
    r = alpha_residual(ps, alpha)
    return float(np.sqrt(np.mean(r[0] ** 2 + r[1] ** 2)))


def separate_energy(ps, alpha, p):
    """The energy of samples of psi and alpha on one grid, with curl alpha
    from grid.curl and |D psi|^2 summed component by component."""
    cov = np.stack([ps.d1, ps.d2]) - 1j * alpha * ps.psi
    curl = p.n + ps.grid.curl(alpha)
    dens = (np.abs(cov[0]) ** 2 + np.abs(cov[1]) ** 2 + curl ** 2
            + 0.5 * p.kappa**2 * (ps.rho - p.lam / p.kappa**2) ** 2)
    return float(p.kappa**4 / p.lam**2 * np.mean(dens))


# ----------------------------------------------------------------------
# Landau basis
# ----------------------------------------------------------------------
def output_samples(basis, coeffs):
    """psi, D1 psi and D2 psi of a coefficient vector on the basis's N grid,
    D psi by the ladder route, each sampled by field_from_coeffs."""
    psi, d1, d2 = (field_from_coeffs(basis, c).values for c in basis.gradient_coeffs(coeffs))
    return _PsiSamples(psi, d1, d2, basis.grid)


def sample(basis, coeffs):
    """Samples of a coefficient vector on the basis's N grid."""
    return field_from_coeffs(basis, coeffs).values


def unit_field(basis, k):
    """Basis function phi_k on the basis's N grid."""
    c = np.zeros(basis.K_lev + 1, dtype=complex)
    c[k] = 1.0
    return sample(basis, c)


def lowest_level_field(shape, n, N):
    """psi0^n: a lowest-level field with n flux quanta on the normalized cell,
    sampled on an N x N grid (each factor's boundary phase and annihilator
    equation add up)."""
    return QuasiPeriodicField(n=n, shape=shape, values=theta_field(shape, N).values ** n)


def evaluate_raw(basis, x1, x2):
    """Unnormalized levels u[k] of a LandauBasis at arbitrary points, by
    direct summation over the theta terms (the reference for the separable
    transform)."""
    nu, tau1 = basis.nu, basis.shape.tau1
    out = np.zeros((basis.K_lev + 1, *x1.shape), dtype=complex)
    carrier = np.exp(0.5j * x1 * x2)
    kphase = (-1j) ** np.arange(basis.K_lev + 1)
    for m in range(basis._m_range[0], basis._m_range[1] + 1):
        t = x2 + m * nu
        if np.min(np.abs(t)) > np.sqrt(2 * basis.K_lev + 1) + 8.5:
            continue
        h = _hermite_functions(t, basis.K_lev)
        term = np.exp(1j * np.pi * tau1 * m * m) * np.exp(1j * m * nu * x1) * carrier
        out += kphase[:, None, None] * h * term[None]
    return out


def dense_tables(basis, x1, x2):
    """Orthonormal tables phi[k] at the points (x1, x2), summed term by term."""
    return basis._norm * evaluate_raw(basis, x1, x2)


def basis_evaluate(basis, k, x1, x2):
    """Basis function phi_k at arbitrary points."""
    return dense_tables(basis, np.asarray(x1, float), np.asarray(x2, float))[k]


def theta_extended(theta, k):
    """Coefficient c_k from the recursion c_{k+n} = e^{i n pi tau} e^{2 i k pi tau} c_k."""
    j = k % theta.n
    q = (k - j) // theta.n
    phase = 1j * np.pi * theta.tau * (theta.n * q * q + 2 * j * q)
    return complex(theta.c[j] * np.exp(phase))


def magnetic_shift(f, dy):
    """Translation by dy1*t1 + dy2*t2 through the boundary phases."""
    vals, bc = magnetic_shift_values(f.values, f.n, f.bc_const, dy)
    return QuasiPeriodicField(n=f.n, shape=f.shape, values=vals, bc_const=bc)


def magnetic_laplacian_fd(n: int, N: int):
    """Link-variable discretization of L = -Laplacian_{A0} on the square cell
    (tau = i) with the magnetic boundary phases, as a scipy CSR matrix; used
    only to cross-validate the spectrum {(2k+1) n} with multiplicity n."""
    import scipy.sparse as sp
    r = np.sqrt(2 * np.pi)
    h = r / N
    idx = lambda i, j: (i % N) * N + (j % N)
    rows, cols, vals = [], [], []
    diag = np.full(N * N, 4.0 / h**2)
    for i in range(N):
        for j in range(N):
            x1, x2 = i * h, j * h
            a = idx(i, j)
            # hop +e1: link phase exp(i n h x2 / 2), boundary wrap adds exp(i n r x2 / 2)
            ph = np.exp(0.5j * n * h * x2)
            if i == N - 1:
                ph *= np.exp(0.5j * n * r * x2)
            rows.append(a); cols.append(idx(i + 1, j)); vals.append(-ph / h**2)
            # hop +e2: link phase exp(-i n h x1 / 2), wrap adds exp(-i n r x1 / 2)
            ph = np.exp(-0.5j * n * h * x1)
            if j == N - 1:
                ph *= np.exp(-0.5j * n * r * x1)
            rows.append(a); cols.append(idx(i, j + 1)); vals.append(-ph / h**2)
    up = sp.csr_matrix((vals, (rows, cols)), shape=(N * N, N * N))
    L = up + up.conj().T + sp.diags(diag)
    return L.tocsr()


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


# ----------------------------------------------------------------------
# field operations without a caller in the package
# ----------------------------------------------------------------------
def solve_alpha(psi, params):
    """Induced potential alpha(psi), solved on the grid of psi; mean-zero and
    divergence-free."""
    ps = _samples(psi)
    return PeriodicVectorField(_alpha_fixed_point(ps.grid, ps.j0, ps.rho, None)[0], psi.grid)


def alpha_equation_residual(psi, alpha):
    """l2 norm of (M + |psi|^2) alpha - Im(conj(psi) grad_{A0} psi)."""
    return alpha_residual_rms(_samples(psi), alpha.values)


def cell_flux(grid, curl_a):
    """Flux of the magnetic field curl_a through the cell of a grid: its cell
    average times the area."""
    return float(np.mean(curl_a) * abs(np.linalg.det(grid.m)))


def raw_flux(raw):
    """Flux of curl a = b + curl a_p through a raw state's cell."""
    return cell_flux(raw.grid, raw.curl_a())


def flux(state):
    """Quadrature of curl a over the cell; 2 pi n for any admissible state."""
    grid = state.alpha.grid
    return cell_flux(grid, state.params.n + grid.curl(state.alpha.values))


def supercurrent(state):
    """J = Im(conj(psi) grad_a psi) on the grid of psi."""
    ps = _samples(state.psi)
    return ps.j0 - ps.rho[None] * state.alpha.values


def cell_average(g):
    """Rectangle-rule mean over the cell; spectrally accurate for smooth
    periodic integrands (|psi|^2, |psi|^4, curl a, ... qualify)."""
    if isinstance(g, QuasiPeriodicField):
        raise TypeError("cell_average needs a periodic integrand, not a "
                        "quasi-periodic field; pass |psi|^2 etc.")
    val = np.mean(g)
    return float(val.real) if abs(val.imag) < 1e-13 * (abs(val) + 1) else complex(val)


def padded_coeffs(basis, coeffs):
    """Landau coefficients zero-padded to the basis's K_lev + 1 levels."""
    d = np.asarray(coeffs, dtype=complex)
    return np.concatenate([d, np.zeros(basis.K_lev + 1 - len(d), dtype=complex)])


def covariant_gradient(basis, coeffs):
    """Samples of (D1 f, D2 f) on the basis's N grid, with
    D1 = (alpha - alpha*)/2, D2 = (alpha + alpha*)/(2i): the ladder route."""
    _, d1, d2 = basis.gradient_coeffs(padded_coeffs(basis, coeffs))
    return sample(basis, d1), sample(basis, d2)


def ladder_apply(basis, coeffs, direction):
    """Annihilation ('lower', level k -> k-1, factor sqrt(2k)) or creation
    ('raise', k -> k+1, factor sqrt(2(k+1))) on the Landau coefficients."""
    d = padded_coeffs(basis, coeffs)
    if direction == "lower":
        return basis.lower_coeffs(d)
    if direction == "raise":
        top = float(np.max(np.abs(d[-1])))
        if top > 1e-12 * max(float(np.max(np.abs(d))), 1e-300):
            raise ValueError("raising would truncate top-level content; "
                             "rebuild the basis with a larger K_lev")
        return basis.raise_coeffs(d)
    raise ValueError("direction must be 'lower' or 'raise'")


def landau_apply(basis, coeffs):
    """L f, i.e. coefficient d[k] -> (2k+1) d[k]."""
    return basis.landau_coeffs(padded_coeffs(basis, coeffs))


def applied_field(shape, kappa, b):
    """h0 = b + (kappa^2 - b)/((2 kappa^2 - 1) beta + 1), the half b-derivative
    of the asymptotic landscape."""
    beta = beta_lattice_sum(shape)
    denom = (2 * kappa**2 - 1) * beta + 1
    if abs(denom) < 1e-12:
        raise ZeroDivisionError("degenerate denominator: outside asymptotic validity")
    return float(b + (kappa**2 - b) / denom)


class PointGroupError(ValueError):
    """Rotation does not map the lattice to itself (different-lattice state)."""


def rotate_state(state, angle):
    """Raw state rotated by a lattice point-group rotation.

    The rotation must map the lattice onto itself (angle pi always; +-pi/2 for
    the square lattice, multiples of pi/3 for the triangular one); otherwise
    the result would be periodic over a different lattice and is refused.
    """
    R = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    m = state.m
    C = np.linalg.solve(m, R.T @ m)  # R^{-1} t_d in lattice coordinates
    Ci = np.rint(C).astype(int)
    if np.max(np.abs(C - Ci)) > 1e-9 or round(np.linalg.det(Ci)) != 1:
        raise PointGroupError(f"rotation by {angle} is not in the point group of "
                              f"tau={state.shape.tau}")
    N = state.N
    i, j = np.meshgrid(np.arange(N), np.arange(N), indexing="ij")
    ip = Ci[0, 0] * i + Ci[0, 1] * j
    jp = Ci[1, 0] * i + Ci[1, 1] * j
    ir, jr = ip % N, jp % N
    p, q = (ip - ir) // N, (jp - jr) // N
    n = state.n
    C1, C2 = state.bc_const
    # Psi(y'' + (p, q)) = exp(i [q th2(y1'') + p th1(y2'' + q)]) Psi(y'')
    y1r, y2r = ir / N, jr / N
    phase = q * (-n * np.pi * y1r + C2) + p * (n * np.pi * (y2r + q) + C1)
    psi = np.exp(1j * phase) * state.psi[ir, jr]
    a_rot = np.einsum("ab,bxy->axy", R, state.a_p[:, ir, jr])
    # boundary constants of the image state (canonical-cocycle composition)
    bc = []
    for col in range(2):
        pp, qq = Ci[0, col], Ci[1, col]
        bc.append(n * np.pi * pp * qq + pp * C1 + qq * C2)
    return replace(state, psi=psi, a_p=a_rot, bc_const=(float(bc[0]), float(bc[1])))


def energy_density_mean(raw, kappa):
    """Average unscaled Ginzburg-Landau energy per unit cell area of a raw state."""
    # (d - i a) Psi for a = A0 + a_p: the normalized cell's (d - i A0) Psi,
    # scaled by 1/sigma, minus i a_p Psi
    D = np.stack(covariant_gradient_grid(raw.qp_field()))
    cov1, cov2 = D / np.sqrt(raw.n / raw.b) - 1j * raw.a_p * raw.psi
    dens = (np.abs(cov1) ** 2 + np.abs(cov2) ** 2
            + raw.curl_a() ** 2 + 0.5 * kappa**2 * (1 - np.abs(raw.psi) ** 2) ** 2)
    return float(np.mean(dens))


def rescale_state(psi, a, geometry, direction):
    """Rescale field samples between physical and normalized variables.

    Both cells share the same logical grid y, so (psi, a) -> (sigma*Psi, sigma*A)
    is a pure sample scaling; no interpolation enters and the round trip is
    exact.  'to_normalized' maps physical samples to normalized ones,
    'to_physical' inverts.
    """
    psi = np.asarray(psi)
    a = np.asarray(a)
    if psi.ndim != 2 or psi.shape[0] != psi.shape[1]:
        raise ValueError("psi samples must be a square N x N grid")
    if a.shape != (2, *psi.shape):
        raise ValueError("potential samples must have shape (2, N, N) matching psi")
    if direction == "to_normalized":
        s = geometry.sigma
    elif direction == "to_physical":
        s = 1.0 / geometry.sigma
    else:
        raise ValueError("direction must be 'to_normalized' or 'to_physical'")
    return s * psi, s * a
