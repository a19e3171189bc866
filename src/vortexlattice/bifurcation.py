"""Lyapunov-Schmidt reduction and branch continuation for n = 1.

The branch bifurcates from the simple lowest level of one flux quantum, the
Landau basis's level 0.  The reduction splits psi = s psi0 + w along the
rank-one spectral projection P psi = <psi0, psi> psi0 (cell-averaged inner
product, <|psi0|^2> = 1), so on a coefficient vector P is the entry [0] and
Q = 1 - P the levels k >= 1, the entries the resolvent acts on.  w solves
the Q-projected equation by a resolvent-preconditioned fixed point.  The
scalar P-equation gamma0 = (1 - lambda) s + <psi0, N(s psi0 + w)> = 0 gives
lambda (or s) directly, so one iteration re-solves it after every w sweep:
a branch point at given s, or at given field b = kappa^2 / lambda, is a
single fixed point in (w, lambda) or (w, s), accelerated by Anderson
mixing, with no fallback solver.  Branches are continued in s by a
predictor from the reduction's own scaling: w = O(s^3), alpha = O(s^2) and
lambda - 1 = O(s^2), so each point after the first starts from w / s^3,
alpha / s^2 and (lambda - 1) / s^2 extrapolated in s^2 by the quadratic
through the last three solved points (Allgower and Georg, Numerical
Continuation Methods, 1990), and the w solve is the corrector.

Inner products and norms here are cell-averaged (plain L2 over the cell
divided by its area), so <|psi0|^2> = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .abrikosov import beta_of_basis, branch_slope
from .glcore import (F_coeffs, GLParams, PeriodicVectorField, _alpha_fixed_point,
                     _coeff_samples, _nonlinear, _observables, _PsiSamples)
from .landau import LandauBasis
from .lattice import LatticeShape, SolverError

S_MAX_DEFAULT = 0.3
# history depth of the Anderson mixing in solve_w; depths 2-5 fail on far
# field targets (square b = 0.5, triangular b = 0.3) that depth 8 solves
ANDERSON_DEPTH = 8
W_TOL = 1e-12          # solve_w stops at max |G(x) - x| < W_TOL max(|s|, 1e-6)
W_MAX_SWEEPS = 200     # sweeps before solve_w raises SolverError
CURL_A1_SUP_N = 128    # fit_expansion reads the curl a1 error's sup on this grid


class BranchSideError(SolverError, ValueError):
    """A field target, or a solved branch point, on the side of kappa^2 (of
    lambda = 1) that the sign condition of the a-priori slope excludes."""


@dataclass
class ReductionSetup:
    """The basis of the reduction and the shape's beta.  psi0 is the basis
    coefficient [0], the entry P reads; Q is the levels k >= 1 that the
    basis's resolvent acts on."""

    basis: LandauBasis
    beta: float


def build_reduction(shape: LatticeShape, N: int | None = None,
                    K_lev: int = 40) -> ReductionSetup:
    """Reduction on a basis that solves on its solve grid; an N gives its
    fields (field_from_coeffs, BranchPoint.alpha) to a caller that needs
    them on a finer grid."""
    basis = LandauBasis(shape, N, K_lev)
    return ReductionSetup(basis=basis, beta=beta_of_basis(basis))


@dataclass
class WSolveResult:
    w: np.ndarray                 # K_lev+1 level coefficients, zeroth entry 0
    alpha2: np.ndarray            # induced potential on the solve grid
    phi2: np.ndarray              # rfft2 half spectrum of its stream function
    ncoef: np.ndarray             # nonlinear term coefficients at the solution
    samples: _PsiSamples | None   # s psi0 + w and its derivatives on the solve grid
    iterations: int               # sweeps
    s: complex                    # psi0 amplitude at the solution
    lam: float                    # spectral parameter at the solution


def solve_w(lam: float, s: complex, setup: ReductionSetup, kappa: float,
            start: tuple | None = None, *, unknown: str) -> WSolveResult:
    """Solve the Q-projected equation for w = w(lambda, s psi0) together with
    the P-equation for unknown = "lam" (a branch point at the given s) or
    "s" (a point at the field b = kappa^2 / lambda); the unknown's argument
    is only a start.

    One sweep G maps w to -R(lambda - sigma) (Q N(s psi0 + w) - sigma w), R
    the resolvent on the levels k >= 1, which applies Q: the fixed points
    are those of -R(lambda) Q N, and the shift sigma = kappa^2 |s|^2, set
    from the starting s, moves the near-constant part kappa^2 |psi|^2 of N
    to the left, which keeps lambda - sigma away from the Landau levels on
    far field targets.  Each sweep also re-solves the P-equation
    (1 - lambda) + Re <psi0, N> / s = 0 for the unknown, so the result
    carries the branch value.  The fixed point of G is found by Anderson
    mixing (type II, Walker & Ni 2011) on the packed vector x = (Re w, Im w,
    unknown scalar), lambda weighted by |s|; it stops when max |G(x) - x| <
    W_TOL max(|s|, 1e-6) and returns the mapped point G(x).

    The iteration starts at w = 0 with a cold potential solve, or at start =
    (w, (alpha2, phi2)), a predicted w and potential pair (_predict); each
    sweep's potential solve starts from the pair of the sweep before.
    """
    if unknown not in ("lam", "s"):
        raise ValueError(f"unknown must be 'lam' or 's', not {unknown!r}")
    basis = setup.basis
    if start is None:
        w, pair = np.zeros(basis.K_lev + 1, dtype=complex), None
    else:
        w, pair = start
    if s == 0:
        z = np.zeros_like(w)
        ps = _coeff_samples(basis, z)
        return WSolveResult(z, *_alpha_fixed_point(ps.grid, ps.j0, ps.rho, None), z,
                            ps, 0, s, lam)

    sigma = kappa**2 * abs(s) ** 2

    def sweep(wc, sc, lc, pair):
        psi_c = wc.copy()
        psi_c[0] += sc
        ps = _coeff_samples(basis, psi_c)
        pair = _alpha_fixed_point(ps.grid, ps.j0, ps.rho, pair)
        ncoef = _nonlinear(basis, ps, kappa, pair[0])
        w_new = -basis.resolvent_coeffs(ncoef - sigma * wc, lc - sigma)
        return w_new, pair, ncoef, ps

    def p_solve(sc, lc, ncoef):
        """(s, lambda) with the unknown one re-solved from the P-equation."""
        n1 = float(np.real(ncoef[0] / sc))  # ~ c s^2 on the branch
        if unknown == "lam":
            return sc, 1.0 + n1
        ratio = (lc - 1.0) / n1
        if not ratio > 0:
            raise SolverError(f"field target b={kappa**2 / lc:.6g} not reached: "
                              f"P-equation ratio (lambda_t - 1)/(Re<psi0, N>/s) = "
                              f"{ratio:.3e} <= 0 at s={sc:.6g}, lambda_t={lc:.6g}")
        return sc * np.sqrt(ratio), lc

    def finish(wc, sc, lc, pair, iterations):
        # samples, alpha and N at the returned iterate, and lambda from its N
        _, pair, ncoef, ps = sweep(wc, sc, lc, pair)
        if unknown == "lam":
            lc = p_solve(sc, lc, ncoef)[1]
        return WSolveResult(wc, *pair, ncoef, ps, iterations, sc, lc)

    # Anderson mixing acts on x = (Re w, Im w, unknown scalar), lambda
    # weighted by |s| as in the stop test
    m = 2 * w.size

    def pack(wc, sc, lc):
        return np.append(wc.ravel().view(float), abs(s) * lc if unknown == "lam" else sc)

    def unpack(x):
        wc = x[:m].view(complex)
        return (wc, s, x[m] / abs(s)) if unknown == "lam" else (wc, x[m], lam)

    x, fs, gs, step = pack(w, s, lam), [], [], np.inf
    for it in range(1, W_MAX_SWEEPS + 1):
        wc, sc, lc = unpack(x)
        w_new, pair, ncoef = sweep(wc, sc, lc, pair)[:3]
        s_new, lam_new = p_solve(sc, lc, ncoef)
        g = pack(w_new, s_new, lam_new)
        step = float(np.max(np.abs(g - x)))
        if not np.isfinite(step):
            break
        if step < W_TOL * max(abs(s_new), 1e-6):
            return finish(w_new, s_new, lam_new, pair, it)
        # type II update from the last ANDERSON_DEPTH differences
        fs, gs = fs[-ANDERSON_DEPTH:] + [g - x], gs[-ANDERSON_DEPTH:] + [g]
        gamma = np.linalg.lstsq(np.diff(fs, axis=0).T, fs[-1], rcond=None)[0]
        x = g - np.diff(gs, axis=0).T @ gamma
    raise SolverError(f"w fixed point did not converge in {it} sweeps "
                      f"(last step {step:.2e})")


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
    curl_alpha: np.ndarray        # on the solve grid, not resampled: curl a = 1 + curl alpha
    max_curl_a: float
    min_abs_psi: float
    coeff_tail: float             # |c_{K_lev}| / max |c|: truncation tail
    grid_tail: float              # outer-ring |psi|^2 Fourier share on the solve grid
    dE_dtau: np.ndarray           # d energy / d(Re tau, Im tau) of the reduced shape, fixed b
    sweeps: int                   # sweeps of its w solve


@dataclass
class Branch:
    """Family (s, lambda_s, psi_s, alpha_s) emanating from the normal state,
    with the basis it was solved on."""

    kappa: float
    basis: LandauBasis
    beta: float
    points: list[BranchPoint] = field(default_factory=list)
    extrapolated: bool = False


def _finish_point(wres: WSolveResult, setup, kappa) -> BranchPoint:
    """The branch point psi = s psi0 + w.  Its scalars are read from the w
    solve's final solve-grid samples and alpha, its energy, shape gradient,
    alpha residual and curl alpha in one pass over them (_observables); only
    alpha is resampled, to the basis's N grid, which is the solve grid unless
    the setup was built with an N."""
    basis = setup.basis
    s, lam, ps = wres.s, wres.lam, wres.samples
    psi_c = wres.w.copy()
    psi_c[0] += s
    alpha = PeriodicVectorField(basis.solve_grid.resample(wres.alpha2, basis.N), basis.grid)

    fco = F_coeffs(basis, psi_c, lam, wres.ncoef)
    res_psi = float(np.linalg.norm(fco)) / max(float(np.linalg.norm(psi_c)), 1e-300)

    energy, dE_dtau, residual_alpha, curl_alpha = _observables(
        ps, wres.alpha2, GLParams(kappa=kappa, n=1, lam=lam))
    return BranchPoint(
        s=float(np.real(s)), lam=float(lam), b=float(kappa**2 / lam), psi_coeffs=psi_c,
        alpha=alpha, energy=energy, residual_psi=res_psi, residual_alpha=residual_alpha,
        curl_alpha=curl_alpha, max_curl_a=1.0 + float(np.max(curl_alpha)),
        min_abs_psi=float(np.min(np.abs(ps.psi))),
        coeff_tail=float(np.max(np.abs(psi_c[-1:])) / max(np.max(np.abs(psi_c)), 1e-300)),
        grid_tail=ps.grid_tail(), dE_dtau=dE_dtau, sweeps=wres.iterations,
    )


def _predict(s: float, done: list[WSolveResult]) -> tuple[float, tuple]:
    """Start (lambda, (w, (alpha2, phi2))) of the point s from done, the one
    to three points solved last, oldest first.  Along the branch w / s^3,
    alpha / s^2, phi / s^2 and (lambda - 1) / s^2 tend to limits at s = 0;
    each is extrapolated in s^2 by the polynomial through the points at
    distinct |s| (a quadratic through three, a line through two), and a
    single point is held.  The polynomial is written as Lagrange weights on
    the points' own values, each difference of squares as (s - s_i)(s + s_i),
    so no small s is cubed."""
    pts = [p for i, p in enumerate(done)
           if all(abs(p.s) != abs(q.s) for q in done[i + 1:])]
    weights = [math.prod((s - q.s) / (p.s - q.s) * (s + q.s) / (p.s + q.s)
                         for q in pts if q is not p) for p in pts]

    def poly(power, value):
        return sum(c * (s / p.s) ** power * value(p) for c, p in zip(weights, pts))
    return (1.0 + poly(2, lambda p: p.lam - 1.0),
            (poly(3, lambda p: p.w),
             (poly(2, lambda p: p.alpha2), poly(2, lambda p: p.phi2))))


def solve_branch(s_grid, kappa: float, shape: LatticeShape, K_lev: int = 40,
                 setup: ReductionSetup | None = None) -> Branch:
    """Continue the bifurcating branch over the given s grid (ascending).
    The first nonzero point starts cold, at lambda = 1 + c s^2 with the
    a-priori slope c; each later one at its prediction from the points
    before it (_predict)."""
    if setup is None:
        setup = build_reduction(shape, K_lev=K_lev)
    c_apriori = branch_slope(setup.beta, kappa)
    branch = Branch(kappa=kappa, basis=setup.basis, beta=setup.beta)
    done = []
    for s in np.sort(np.atleast_1d(np.asarray(s_grid, dtype=float))):
        if s == 0:
            wres = solve_w(1.0, 0.0, setup, kappa, unknown="lam")
            branch.points.append(_finish_point(wres, setup, kappa))
            continue
        if s > S_MAX_DEFAULT:
            branch.extrapolated = True
        lam0, start = _predict(s, done) if done else (1.0 + c_apriori * s * s, None)
        wres = solve_w(lam0, s, setup, kappa, start, unknown="lam")
        if wres.lam <= 0:
            raise SolverError(f"branch point s={s:.6g} has lambda={wres.lam:.6g} <= 0")
        if (wres.lam - 1.0) * c_apriori <= 0:
            raise BranchSideError(
                f"branch point s={s:.6g} has lambda={wres.lam:.6g} on the side of 1 "
                f"the a-priori slope c={c_apriori:.6g} excludes: (lambda - 1) c <= 0")
        branch.points.append(_finish_point(wres, setup, kappa))
        wres.samples = None  # a prediction reads w, the pair, s and lambda; free the rest
        done = [*done[-2:], wres]
    return branch


def branch_by_field(b_target: float, kappa: float, shape: LatticeShape,
                    K_lev: int = 40, setup: ReductionSetup | None = None) -> BranchPoint:
    """Branch point with prescribed average field b = kappa^2 / lambda_s;
    its fields are sampled on the solve grid unless setup has an N."""
    if setup is None:
        setup = build_reduction(shape, K_lev=K_lev)
    c_apriori = branch_slope(setup.beta, kappa)
    lam_t = kappa**2 / b_target
    if b_target == kappa**2:
        return _finish_point(solve_w(1.0, 0.0, setup, kappa, unknown="s"), setup, kappa)
    if (lam_t - 1.0) * c_apriori <= 0:
        side = "b <= kappa^2" if c_apriori >= 0 else "b > kappa^2"
        raise BranchSideError(
            f"no branch at b={b_target}: sign((kappa^2-1/2) beta + 1/2) = "
            f"{np.sign(c_apriori):+.0f} admits only {side}")
    s_est = float(np.sqrt((lam_t - 1.0) / c_apriori))
    wres = solve_w(lam_t, s_est, setup, kappa, unknown="s")
    return _finish_point(wres, setup, kappa)


@dataclass
class ExpansionReport:
    """Fitted branch expansion coefficients against the asymptotic formulas."""

    kappa: float
    tau: complex
    solve_N: int
    K_lev: int
    beta_used: float
    g_lambda_prime0: float          # fitted d lambda / d s^2 at 0
    g_lambda_prime0_target: float   # ((kappa^2 - 1/2) beta + 1/2) <|psi0|^2>
    g_lambda_prime0_err: float
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
    target = branch_slope(beta, kappa)
    fit_c = float(coef[1])

    # second-order potential from the smallest-s point
    p0 = pts[0]
    err = p0.curl_alpha / p0.s**2 - 0.5 * (1.0 - np.abs(basis.psi0) ** 2)
    curl_err = float(np.max(np.abs(basis.solve_grid.resample(err, CURL_A1_SUP_N))))

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
        kappa=kappa, tau=complex(basis.shape.tau), solve_N=basis.solve_N,
        K_lev=basis.K_lev,
        beta_used=beta, g_lambda_prime0=fit_c, g_lambda_prime0_target=float(target),
        g_lambda_prime0_err=abs(fit_c - target),
        fit_cov=[[float(c) for c in row] for row in cov],
        curl_a1_sup_err=curl_err, energy_slope=slope,
        eps_of_b_slope=sl, eps_of_b_slope_target=float(sl_target),
    )
