"""Lyapunov-Schmidt reduction and branch continuation for n = 1.

The reduction splits psi = s psi0 + w along the rank-one spectral projection
P psi = <psi0, psi> psi0 (cell-averaged inner product, <|psi0|^2> = 1, so
P is literally the zeroth Landau coefficient).  w solves the Q-projected
equation by a resolvent-preconditioned fixed point.  The scalar P-equation
gamma0 = (1 - lambda) s + <psi0, N(s psi0 + w)> = 0 gives lambda (or s)
directly, so one iteration re-solves it after every w sweep: a branch point
at given s, or at given field b = kappa^2 / lambda, is a single fixed point
in (w, lambda) or (w, s), accelerated by Anderson mixing, with no fallback
solver.  Branches are continued in s with warm starts.
gamma1(lambda, s) = gamma0 / s stays available as a diagnostic.

Inner products and norms here are cell-averaged (plain L2 over the cell
divided by its area); with that convention d(gamma1)/d(lambda) at (1, 0)
equals -<|psi0|^2> = -1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .glcore import (F_coeffs, GLParams, PeriodicVectorField, _coeff_samples,
                     _energy, _nonlinear, _PsiSamples)
from .landau import LandauBasis, QuasiPeriodicField, field_from_coeffs
from .lattice import LatticeShape, SolverError

S_MAX_DEFAULT = 0.3
# history depth of the Anderson mixing in solve_w; depths 2-5 fail on far
# field targets (square b = 0.5, triangular b = 0.3) that depth 8 solves
ANDERSON_DEPTH = 8
W_TOL = 1e-12          # solve_w stops at max |G(x) - x| < W_TOL max(|s|, 1e-6)
W_MAX_SWEEPS = 200     # sweeps before solve_w raises SolverError


class BranchSideError(ValueError):
    """Requested field on the side of kappa^2 excluded by the sign condition."""


@dataclass
class ReductionSetup:
    """Null vector, rank-one projection data and resolvent for n = 1."""

    basis: LandauBasis
    psi0: QuasiPeriodicField

    @property
    def shape(self) -> LatticeShape:
        return self.basis.shape

    def project_P(self, coeffs: np.ndarray) -> complex:
        return complex(coeffs[0, 0])

    def project_Q(self, coeffs: np.ndarray) -> np.ndarray:
        out = coeffs.copy()
        out[0, 0] = 0.0
        return out

    def beta(self) -> float:
        a2 = np.abs(self.basis.synth(self.psi0.coeffs, solve=True)) ** 2
        return float(np.mean(a2**2) / np.mean(a2) ** 2)


def build_reduction(shape: LatticeShape, N: int | None = None, K_lev: int = 40,
                    n: int = 1) -> ReductionSetup:
    """Reduction on a basis whose reported fields are sampled at N, or on the
    solve grid when N is None."""
    if n != 1:
        raise NotImplementedError("the scalar bifurcation equation is n = 1 only")
    basis = LandauBasis(1, shape, N, K_lev)
    c = np.zeros((K_lev + 1, 1), dtype=complex)
    c[0, 0] = 1.0
    return ReductionSetup(basis=basis, psi0=field_from_coeffs(basis, c))


@dataclass
class WSolveResult:
    w: np.ndarray                 # (K_lev+1, 1) coefficients, zeroth entry 0
    alpha2: np.ndarray            # induced potential on the solve grid
    ncoef: np.ndarray             # nonlinear term coefficients at the solution
    samples: _PsiSamples | None   # s psi0 + w and its derivatives on the solve grid
    iterations: int               # sweeps
    residual: float               # |Q F(lambda, s psi0 + w)| (averaged norm)
    s: complex                    # psi0 amplitude at the solution
    lam: float                    # spectral parameter at the solution


def solve_w(lam: float, s: complex, setup: ReductionSetup, kappa: float,
            warm: WSolveResult | None = None, *,
            _unknown: str | None = None) -> WSolveResult:
    """Solve the Q-projected equation for w = w(lambda, s psi0).

    One sweep G maps w to -R(lambda) Q N(s psi0 + w) (R the resolvent); with
    _unknown = "lam" or "s" that argument is only a start, and each sweep
    also re-solves the P-equation gamma1 = (1 - lambda) + Re <psi0, N> / s = 0
    for it, so the result carries the branch value.  The fixed point of G is
    found by Anderson mixing (type II, Walker & Ni 2011) on the packed vector
    x = (Re w, Im w, unknown scalar), lambda weighted by |s|; it stops when
    max |G(x) - x| < W_TOL max(|s|, 1e-6) and returns the mapped point G(x).
    """
    basis = setup.basis
    w = np.zeros((basis.K_lev + 1, 1), dtype=complex) if warm is None else warm.w.copy()
    alpha2 = None if warm is None else warm.alpha2.copy()
    if s == 0:
        z = np.zeros_like(w)
        a0 = np.zeros((2, basis.solve_N, basis.solve_N))
        return WSolveResult(z, a0, z, _coeff_samples(basis, z, solve=True), 0, 0.0,
                            s, lam)

    def sweep(wc, sc, lc, a_start):
        psi_c = wc.copy()
        psi_c[0, 0] += sc
        ps = _coeff_samples(basis, psi_c, solve=True)
        ncoef, a2 = _nonlinear(basis, ps, kappa, alpha_start=a_start)
        return -basis.resolvent_coeffs(setup.project_Q(ncoef), lc), a2, ncoef, ps

    def p_solve(sc, lc, ncoef):
        """(s, lambda) with the unknown one re-solved from the P-equation."""
        n1 = float(np.real(ncoef[0, 0] / sc))  # ~ c s^2 on the branch
        if _unknown == "lam":
            return sc, 1.0 + n1
        if _unknown == "s":
            ratio = (lc - 1.0) / n1
            if not ratio > 0:
                raise SolverError(f"field target b={kappa**2 / lc:.6g} not reached: "
                                  f"P-equation ratio (lambda_t - 1)/(Re<psi0, N>/s) = "
                                  f"{ratio:.3e} <= 0 at s={sc:.6g}, lambda_t={lc:.6g}")
            return sc * np.sqrt(ratio), lc
        return sc, lc

    def finish(wc, sc, lc, a_start, iterations):
        # samples, alpha and N at the returned iterate, and the Q-residual there
        _, a2, ncoef, ps = sweep(wc, sc, lc, a_start)
        if _unknown == "lam":
            lc = p_solve(sc, lc, ncoef)[1]
        res = F_coeffs(basis, wc, lc, setup.project_Q(ncoef))
        res[0, 0] = 0.0
        return WSolveResult(wc, a2, ncoef, ps, iterations, float(np.linalg.norm(res)),
                            sc, lc)

    # Anderson mixing acts on x = (Re w, Im w, unknown scalar), lambda
    # weighted by |s| as in the stop test
    m = 2 * w.size

    def pack(wc, sc, lc):
        extra = {"lam": [abs(s) * lc], "s": [sc], None: []}[_unknown]
        return np.append(wc.ravel().view(float), extra)

    def unpack(x):
        wc = x[:m].view(complex).reshape(w.shape)
        if _unknown == "lam":
            return wc, s, x[m] / abs(s)
        return (wc, x[m], lam) if _unknown == "s" else (wc, s, lam)

    x, fs, gs, step = pack(w, s, lam), [], [], np.inf
    for it in range(1, W_MAX_SWEEPS + 1):
        wc, sc, lc = unpack(x)
        w_new, alpha2, ncoef = sweep(wc, sc, lc, alpha2)[:3]
        s_new, lam_new = p_solve(sc, lc, ncoef)
        g = pack(w_new, s_new, lam_new)
        step = float(np.max(np.abs(g - x)))
        if not np.isfinite(step):
            break
        if step < W_TOL * max(abs(s_new), 1e-6):
            return finish(w_new, s_new, lam_new, alpha2, it)
        # type II update from the last ANDERSON_DEPTH differences
        fs, gs = fs[-ANDERSON_DEPTH:] + [g - x], gs[-ANDERSON_DEPTH:] + [g]
        gamma = np.linalg.lstsq(np.diff(fs, axis=0).T, fs[-1], rcond=None)[0]
        x = g - np.diff(gs, axis=0).T @ gamma
    raise SolverError(f"w fixed point did not converge in {it} sweeps "
                      f"(last step {step:.2e})")


def gamma1(lam: float, s: complex, setup: ReductionSetup, kappa: float
           ) -> tuple[complex, WSolveResult]:
    """gamma1(lambda, s) = <psi0, F(lambda, s psi0 + w)> / s (limit 1-lambda at 0)."""
    if s == 0:
        return (1.0 - lam), solve_w(lam, 0.0, setup, kappa)
    wres = solve_w(lam, s, setup, kappa)
    gamma0 = (1.0 - lam) * s + wres.ncoef[0, 0]
    return gamma0 / s, wres


@dataclass
class BranchPoint:
    s: float
    lam: float
    b: float
    psi_coeffs: np.ndarray
    alpha: PeriodicVectorField
    energy: float
    residual_psi: float
    residual_alpha: float
    flux: float
    max_curl_a: float
    min_abs_psi: float
    coeff_tail: float             # max_j |c_{K_lev, j}| / max |c|: truncation tail
    grid_tail: float              # outer-ring |psi|^2 Fourier share on the solve grid


@dataclass
class Branch:
    """Family (s, lambda_s, psi_s, alpha_s) emanating from the normal state,
    with the basis it was solved on."""

    kappa: float
    basis: LandauBasis
    beta: float
    points: list[BranchPoint] = field(default_factory=list)
    extrapolated: bool = False

    @property
    def s(self) -> np.ndarray:
        return np.array([p.s for p in self.points])

    @property
    def lam(self) -> np.ndarray:
        return np.array([p.lam for p in self.points])

    @property
    def b(self) -> np.ndarray:
        return np.array([p.b for p in self.points])


def _finish_point(wres: WSolveResult, setup, kappa) -> BranchPoint:
    """The branch point psi = s psi0 + w.  Its scalars are read from the w
    solve's final solve-grid samples and alpha; alpha is resampled to the
    output grid only for the reported fields."""
    basis = setup.basis
    grid = basis.grid
    s, lam, ps = wres.s, wres.lam, wres.samples
    psi_c = wres.w.copy()
    psi_c[0, 0] += s
    alpha = PeriodicVectorField(basis.solve_grid.resample(wres.alpha2, basis.N), grid)

    fco = F_coeffs(basis, psi_c, lam, wres.ncoef)
    res_psi = float(np.linalg.norm(fco)) / max(float(np.linalg.norm(psi_c)), 1e-300)

    curl_a = 1.0 + grid.curl(alpha.values)
    return BranchPoint(
        s=float(np.real(s)), lam=float(lam), b=float(kappa**2 / lam), psi_coeffs=psi_c,
        alpha=alpha, energy=_energy(ps, wres.alpha2, GLParams(kappa=kappa, n=1, lam=lam)),
        residual_psi=res_psi, residual_alpha=ps.alpha_residual_rms(wres.alpha2),
        flux=grid.flux(curl_a),
        max_curl_a=float(np.max(curl_a)),
        min_abs_psi=float(np.min(np.abs(basis.synth(psi_c)))),
        coeff_tail=float(np.max(np.abs(psi_c[-1])) / max(np.max(np.abs(psi_c)), 1e-300)),
        grid_tail=ps.grid_tail(),
    )


def solve_branch(s_grid, kappa: float, shape: LatticeShape, N: int | None = None,
                 K_lev: int = 40, setup: ReductionSetup | None = None) -> Branch:
    """Continue the bifurcating branch over the given s grid (ascending)."""
    if setup is None:
        setup = build_reduction(shape, N, K_lev)
    beta = setup.beta()
    c_apriori = (kappa**2 - 0.5) * beta + 0.5
    branch = Branch(kappa=kappa, basis=setup.basis, beta=beta)
    warm = None
    for s in np.sort(np.atleast_1d(np.asarray(s_grid, dtype=float))):
        if s == 0:
            wres = solve_w(1.0, 0.0, setup, kappa)
            branch.points.append(_finish_point(wres, setup, kappa))
            continue
        if s > S_MAX_DEFAULT:
            branch.extrapolated = True
        # lambda - 1 scales like s^2 along the branch
        lam0 = (1.0 + c_apriori * s * s if warm is None
                else 1.0 + (warm.lam - 1.0) * (s / warm.s) ** 2)
        wres = solve_w(lam0, s, setup, kappa, warm=warm, _unknown="lam")
        if (wres.lam - 1.0) * c_apriori <= 0:
            raise SolverError("branch emerged on the side excluded by the "
                              "sign condition; solver inconsistency")
        branch.points.append(_finish_point(wres, setup, kappa))
        wres.samples = None  # a warm start reads w and alpha2 only; free the rest
        warm = wres
    return branch


def branch_by_field(b_target: float, kappa: float, shape: LatticeShape,
                    K_lev: int = 40, setup: ReductionSetup | None = None) -> BranchPoint:
    """Branch point with prescribed average field b = kappa^2 / lambda_s;
    its fields are sampled on the solve grid unless setup has an N."""
    if setup is None:
        setup = build_reduction(shape, K_lev=K_lev)
    beta = setup.beta()
    c_apriori = (kappa**2 - 0.5) * beta + 0.5
    lam_t = kappa**2 / b_target
    if b_target == kappa**2:
        return _finish_point(solve_w(1.0, 0.0, setup, kappa), setup, kappa)
    if (lam_t - 1.0) * c_apriori <= 0:
        side = "b <= kappa^2" if c_apriori >= 0 else "b > kappa^2"
        raise BranchSideError(
            f"no branch at b={b_target}: sign((kappa^2-1/2) beta + 1/2) = "
            f"{np.sign(c_apriori):+.0f} admits only {side}")
    s_est = float(np.sqrt((lam_t - 1.0) / c_apriori))
    wres = solve_w(lam_t, s_est, setup, kappa, _unknown="s")
    return _finish_point(wres, setup, kappa)


@dataclass
class ExpansionReport:
    """Fitted branch expansion coefficients against the asymptotic formulas."""

    kappa: float
    tau: complex
    N: int
    solve_N: int
    K_lev: int
    beta_used: float
    g_lambda_prime0: float          # fitted d lambda / d s^2 at 0
    g_lambda_prime0_target: float   # ((kappa^2 - 1/2) beta + 1/2) <|psi0|^2>
    g_lambda_prime0_err: float
    lambda1: float                  # alias of the fitted slope (epsilon = s)
    fit_cov: list                   # lstsq covariance of [1, s^2, s^4] model
    curl_a1_sup_err: float          # |curl a1 - (<|psi0|^2> - |psi0|^2)/2|_inf
    energy_slope: float             # log-log slope of |E - E_pred| vs s
    eps_of_b_slope: float           # fitted d s^2 / d (kappa^2 - b)
    eps_of_b_slope_target: float
    norm_convention: str = ("cell-averaged L2: <f,g> = |Omega|^{-1} int conj(f) g; "
                            "<|psi0|^2> = 1")

    def to_dict(self) -> dict:
        d = self.__dict__.copy()
        d["tau"] = [self.tau.real, self.tau.imag]
        return d


def fit_expansion(branch: Branch) -> ExpansionReport:
    """Quadratic-in-s^2 fits of lambda_s and E(s) against the leading-order
    formulas; uses the 5 smallest nonzero s."""
    kappa, basis = branch.kappa, branch.basis
    pts = [p for p in branch.points if p.s > 0]
    if len(pts) < 5:
        raise ValueError("need at least 5 nonzero branch points to fit")
    pts = sorted(pts, key=lambda p: p.s)[:5]
    s = np.array([p.s for p in pts])
    lam = np.array([p.lam for p in pts])
    A = np.vstack([np.ones_like(s), s**2, s**4]).T
    coef, res_, rank_, sv_ = np.linalg.lstsq(A, lam, rcond=None)
    dof = max(len(s) - 3, 1)
    resid = lam - A @ coef
    sigma2 = float(resid @ resid) / dof
    cov = sigma2 * np.linalg.inv(A.T @ A)

    beta = branch.beta
    target = (kappa**2 - 0.5) * beta + 0.5
    fit_c = float(coef[1])

    # second-order potential from the smallest-s point
    p0 = pts[0]
    curl_a1 = basis.grid.curl(p0.alpha.values) / p0.s**2
    c0 = np.zeros((basis.K_lev + 1, 1), dtype=complex)
    c0[0, 0] = 1.0
    psi0 = basis.synth(c0)
    curl_err = float(np.max(np.abs(curl_a1 - 0.5 * (1.0 - np.abs(psi0) ** 2))))

    # energy defect slope against the quartic prediction
    E = np.array([p.energy for p in pts])
    E_pred = kappa**2 / 2 + kappa**4 / lam**2 - 0.5 * kappa**4 * s**4 * target
    diff = np.abs(E - E_pred)
    good = diff > 1e-15
    slope = float(np.polyfit(np.log(s[good]), np.log(diff[good]), 1)[0]) if good.sum() >= 2 else np.nan

    # s^2 versus kappa^2 - b, linear-plus-quadratic through the origin so the
    # O(mu^2) analytic correction does not bias the reported slope
    mu = kappa**2 - np.array([p.b for p in pts])
    M = np.vstack([mu, mu**2]).T
    sl = float(np.linalg.lstsq(M, s**2, rcond=None)[0][0])
    sl_target = 1.0 / (kappa**2 * target)

    return ExpansionReport(
        kappa=kappa, tau=complex(basis.shape.tau), N=basis.N, solve_N=basis.solve_N,
        K_lev=basis.K_lev,
        beta_used=beta, g_lambda_prime0=fit_c, g_lambda_prime0_target=float(target),
        g_lambda_prime0_err=abs(fit_c - target), lambda1=fit_c,
        fit_cov=[[float(c) for c in row] for row in cov],
        curl_a1_sup_err=curl_err, energy_slope=slope,
        eps_of_b_slope=sl, eps_of_b_slope_target=float(sl_target),
    )
