"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
appear; the heavy branch solves are shared through module-scoped fixtures.
"""

import time

import numpy as np
import pytest

from reference import descend_beta, unit_field
from vortexlattice import abrikosov as abr
from vortexlattice import bifurcation as bif
from vortexlattice import gauge, glcore, landau
from vortexlattice.landau import (field_from_coeffs, norm_avg,
                                  quasi_periodicity_residual, theta_null_basis)
from vortexlattice.lattice import (TAU_TRIANGULAR, fundamental_domain_grid,
                                   normalize_tau)

KAPPA2 = 2.0
KAPPA = np.sqrt(KAPPA2)
TRI = complex(TAU_TRIANGULAR)
S_GRID = np.array([0.02, 0.04, 0.06, 0.08, 0.10])


def report(num: int, ok: bool, text: str) -> None:
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {text}")


@pytest.fixture(scope="module")
def shape_sq():
    return normalize_tau(1j)[0]


@pytest.fixture(scope="module")
def shape_tr():
    return normalize_tau(TRI)[0]


@pytest.fixture(scope="module")
def setup_sq_128(shape_sq):
    return bif.build_reduction(shape_sq, N=128, K_lev=40)


@pytest.fixture(scope="module")
def branch_sq_128(shape_sq, setup_sq_128):
    return bif.solve_branch(S_GRID, KAPPA, shape_sq, setup=setup_sq_128)


@pytest.fixture(scope="module")
def branch_tr_128(shape_tr):
    setup = bif.build_reduction(shape_tr, N=128, K_lev=40)
    return bif.solve_branch(S_GRID, KAPPA, shape_tr, setup=setup)


# ----------------------------------------------------------------------
def test_criterion_01_beta_oracle_agreement():
    t0 = time.time()
    worst = 0.0
    for tau in fundamental_domain_grid(20, 20):
        shape, _ = normalize_tau(tau)
        worst = max(worst, abs(abr.beta_quadrature(shape).beta
                               - abr.beta_lattice_sum(shape).beta))
    b_sq = abr.beta_lattice_sum(normalize_tau(1j)[0]).beta
    b_tr = abr.beta_lattice_sum(normalize_tau(TRI)[0]).beta
    runtime = time.time() - t0
    ok = (worst <= 1e-10 and abs(b_sq - 1.1803406) < 1e-6
          and abs(b_tr - 1.1595953) < 1e-6 and runtime < 10)
    report(1, ok, f"beta oracles agree to {worst:.2e} on 20x20 grid; "
           f"beta(i)={b_sq:.8f}, beta(tri)={b_tr:.8f}; {runtime:.1f}s")
    assert worst <= 1e-10
    assert abs(b_sq - 1.1803406) < 1e-6
    assert abs(b_tr - 1.1595953) < 1e-6
    assert runtime < 10


def test_criterion_02_critical_points(rng):
    t0 = time.time()
    pts = abr.find_beta_critical_points()
    kinds = {p.kind: p for p in pts}
    ok_count = len(pts) == 2 and set(kinds) == {"minimum", "maximum"}
    ok_loc = (abr.modular_distance(kinds["minimum"].tau, TRI) < 1e-6
              and abr.modular_distance(kinds["maximum"].tau, 1j) < 1e-6)
    ok_grad = all(p.gradient_norm < 1e-8 for p in pts)
    fails = 0
    for _ in range(50):
        tau0 = complex(rng.uniform(-0.45, 0.5), rng.uniform(1.01, 1.8))
        if abs(descend_beta(tau0) - TRI) > 1e-6:
            fails += 1
    runtime = time.time() - t0
    ok = ok_count and ok_loc and ok_grad and fails == 0 and runtime < 60
    report(2, ok, f"two critical points (min tri / max i), gradients "
           f"{max(p.gradient_norm for p in pts):.1e}, {fails}/50 multistart "
           f"failures; {runtime:.1f}s")
    assert ok_count and ok_loc and ok_grad
    assert fails == 0
    assert runtime < 60


def test_criterion_03_spectrum(shape_sq, shape_tr):
    errors = {}
    for n in (1, 2, 3):
        for N in (64, 128):
            vals = landau.fd_spectrum(n, N, k_eigs=4 * n + 2)
            for k in range(4):
                cluster = vals[k * n:(k + 1) * n]
                target = (2 * k + 1) * n
                width = float(np.max(cluster) - np.min(cluster))
                assert width < 1e-8, f"multiplicity split at n={n} N={N} k={k}"
                errors[(n, N, k)] = abs(float(np.mean(cluster)) - target)
    # second-order link discretization: error ratio ~ 4 under N doubling
    ratios = [errors[(n, 64, k)] / errors[(n, 128, k)]
              for n in (1, 2, 3) for k in range(1, 4)]
    ok_order = all(2.5 < r < 6.0 for r in ratios)
    resid = max(landau.annihilator_residual(theta_null_basis(1, s, 96)[0])
                for s in (shape_sq, shape_tr))
    ok = ok_order and resid < 1e-10
    report(3, ok, f"fd clusters at n(2k+1) with multiplicity n, convergence "
           f"ratios {min(ratios):.1f}-{max(ratios):.1f}; annihilator residual "
           f"{resid:.1e}")
    assert ok_order
    assert resid < 1e-10


def test_criterion_04_bifurcation_coefficient(branch_sq_128, branch_tr_128):
    rep_sq = bif.fit_expansion(branch_sq_128)
    rep_tr = bif.fit_expansion(branch_tr_128)
    rel_sq = abs(rep_sq.g_lambda_prime0 - 2.2705109) / 2.2705109
    rel_tr = abs(rep_tr.g_lambda_prime0 - 2.2393930) / 2.2393930
    ok = rel_sq < 1e-3 and rel_tr < 1e-3
    report(4, ok, f"d(lambda)/d(s^2): square {rep_sq.g_lambda_prime0:.7f} "
           f"(rel {rel_sq:.1e}), triangular {rep_tr.g_lambda_prime0:.7f} "
           f"(rel {rel_tr:.1e})")
    assert rel_sq < 1e-3
    assert rel_tr < 1e-3


def test_criterion_05_leading_order_fields(branch_sq_128, shape_sq, setup_sq_128):
    p0 = branch_sq_128.points[0]
    assert p0.s == pytest.approx(0.02)
    basis = setup_sq_128.basis
    curl_a1 = basis.grid.curl(p0.alpha.values) / p0.s**2
    psi0 = unit_field(basis, 0, 0)
    sup_err = float(np.max(np.abs(curl_a1 - 0.5 * (1.0 - np.abs(psi0) ** 2))))
    D1, D2 = landau.covariant_gradient(setup_sq_128.psi0)
    J = np.stack([np.imag(np.conj(psi0) * D1.values),
                  np.imag(np.conj(psi0) * D2.values)])
    current_resid = float(np.max(np.abs(
        J + 0.5 * basis.grid.curl_star(np.abs(psi0) ** 2))))
    ok = sup_err < 1e-4 and current_resid < 1e-10
    report(5, ok, f"|curl a1 - (1-|psi0|^2)/2|_inf = {sup_err:.2e} at s=0.02; "
           f"first-order current identity residual {current_resid:.1e}")
    assert sup_err < 1e-4
    assert current_resid < 1e-10


def test_criterion_06_energy_expansion(branch_sq_128, shape_sq, setup_sq_128):
    beta = branch_sq_128.beta
    target = (KAPPA2 - 0.5) * beta + 0.5
    pts = [p for p in branch_sq_128.points if 0.02 <= p.s <= 0.08]
    s = np.array([p.s for p in pts])
    E = np.array([p.energy for p in pts])
    lam = np.array([p.lam for p in pts])
    E_pred = KAPPA2 / 2 + KAPPA2**2 / lam**2 - 0.5 * KAPPA2**2 * s**4 * target
    slope = float(np.polyfit(np.log(s), np.log(np.abs(E - E_pred)), 1)[0])

    ratios = []
    for mu in (0.1, 0.05):
        b = KAPPA2 - mu
        pt = bif.branch_by_field(b, KAPPA, shape_sq, setup=setup_sq_128)
        E_asym = KAPPA2 / 2 + b**2 - mu**2 / ((2 * KAPPA2 - 1) * beta + 1)
        ratios.append(abs(pt.energy - E_asym) / mu**3)
    vary = abs(ratios[1] / ratios[0] - 1.0)
    ok = slope >= 5.7 and vary < 0.25
    report(6, ok, f"energy defect slope {slope:.2f} (>= 5.7); cubic-remainder "
           f"ratio varies {100 * vary:.1f}% under halving (< 25%)")
    assert slope >= 5.7
    assert vary < 0.25


def test_criterion_07_branch_residuals_and_side(branch_sq_128, branch_tr_128,
                                                shape_tr):
    worst_F = max(p.residual_psi for br in (branch_sq_128, branch_tr_128)
                  for p in br.points)
    worst_flux = max(abs(p.flux - 2 * np.pi) for br in (branch_sq_128, branch_tr_128)
                     for p in br.points)
    # positive sign: branch at lambda > 1 (b < kappa^2); other side refused
    sides_ok = all(p.lam > 1 for br in (branch_sq_128, branch_tr_128)
                   for p in br.points)
    with pytest.raises(bif.BranchSideError):
        bif.branch_by_field(KAPPA2 + 0.05, KAPPA, shape_tr, K_lev=32)
    # negative sign regime: (kappa^2 - 1/2) beta + 1/2 < 0 admits only b > kappa^2
    shape8, _ = normalize_tau(8j)
    setup8 = bif.build_reduction(shape8, N=64, K_lev=40)
    assert (0.1 - 0.5) * setup8.beta() + 0.5 < 0
    pt = bif.branch_by_field(0.102, np.sqrt(0.1), shape8, setup=setup8)
    neg_ok = pt.lam < 1 and pt.residual_psi < 1e-8
    with pytest.raises(bif.BranchSideError):
        bif.branch_by_field(0.098, np.sqrt(0.1), shape8, setup=setup8)
    ok = worst_F < 1e-8 and worst_flux < 1e-12 and sides_ok and neg_ok
    report(7, ok, f"branch |F| <= {worst_F:.1e}, flux error <= {worst_flux:.1e}; "
           "sign condition enforced in both regimes")
    assert worst_F < 1e-8
    assert worst_flux < 1e-12
    assert sides_ok and neg_ok


def test_criterion_08_gauge_fixing(rng):
    shape, _ = normalize_tau(0.3 + 1.2j)
    setup = bif.build_reduction(shape, N=64, K_lev=32)
    pt = bif.branch_by_field(1.9, KAPPA, shape, setup=setup)
    psi = field_from_coeffs(setup.basis, pt.psi_coeffs)
    state = glcore.GLState(psi, pt.alpha, glcore.GLParams(KAPPA, 1, pt.lam))
    raw0 = gauge.raw_from_state(state)
    grid = raw0.grid
    y1, y2 = grid.y
    worst_constraint = worst_obs = 0.0
    for _ in range(20):
        eta = sum(rng.normal(0, 0.25) * np.sin(2 * np.pi * ((k1 + 1) * y1 + k2 * y2)
                                               + rng.uniform(0, 2 * np.pi))
                  for k1 in range(2) for k2 in range(-1, 2))
        c = tuple(rng.normal(0, 0.25, 2))
        t = raw0.m @ rng.uniform(-0.5, 0.5, 2)
        distorted = gauge.translate_state(gauge.gauge_transform(raw0, eta, c), t)
        fixed, info = gauge.fix_gauge(distorted, kappa=KAPPA, return_info=True)
        mean_r, div_r = fixed.alpha.constraint_residuals()
        worst_constraint = max(worst_constraint, mean_r, div_r,
                               quasi_periodicity_residual(fixed.psi))
        ref = gauge.translate_state(distorted, info["translation"]).observables()
        sig = info["sigma"]
        worst_obs = max(
            worst_obs,
            float(np.max(np.abs(np.abs(fixed.psi.values) ** 2 - sig**2 * ref["ns"]))),
            float(np.max(np.abs(1.0 + fixed.alpha.grid.curl(fixed.alpha.values)
                                - sig**2 * ref["curl_a"]))))
    fixed1 = gauge.fix_gauge(raw0, kappa=KAPPA)
    fixed2 = gauge.fix_gauge(gauge.raw_from_state(fixed1), kappa=KAPPA)
    idem = float(np.max(np.abs(fixed2.psi.values - fixed1.psi.values)))
    ok = worst_constraint < 1e-10 and worst_obs < 1e-8 and idem < 1e-10
    report(8, ok, f"20 randomized inputs: constraints <= {worst_constraint:.1e}, "
           f"observables <= {worst_obs:.1e}, idempotence {idem:.1e}")
    assert worst_constraint < 1e-10
    assert worst_obs < 1e-8
    assert idem < 1e-10


def test_criterion_09_symmetry_suite(shape_sq, rng):
    setup = bif.build_reduction(shape_sq, N=64, K_lev=32)
    basis = setup.basis
    worst = 0.0
    for _ in range(5):
        d = np.zeros((basis.K_lev + 1, 1), complex)
        d[:8, 0] = 0.05 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
        psi = field_from_coeffs(basis, d)
        delta = rng.uniform(0.2, 2 * np.pi - 0.2)
        F = glcore.map_F(1.05, psi, KAPPA)
        F_rot = glcore.map_F(
            1.05, field_from_coeffs(basis, np.exp(1j * delta) * d), KAPPA)
        worst = max(worst, float(np.max(np.abs(
            F_rot.values - np.exp(1j * delta) * F.values))))
        worst = max(worst, abs(complex(
            landau.inner_avg(psi.values, F.values)).imag))
    for _ in range(3):
        delta = rng.uniform(0.2, 2 * np.pi - 0.2)
        s = rng.uniform(0.02, 0.08)
        lam = 1 + rng.uniform(-0.01, 0.03)
        r1 = bif.solve_w(lam, s, setup, KAPPA)
        r2 = bif.solve_w(lam, s * np.exp(1j * delta), setup, KAPPA)
        worst = max(worst, float(np.max(np.abs(r2.w - np.exp(1j * delta) * r1.w))))
        g1, _ = bif.gamma1(lam, s, setup, KAPPA)
        g2, _ = bif.gamma1(lam, s * np.exp(1j * delta), setup, KAPPA)
        worst = max(worst, abs(complex(g2) - complex(g1)))
    ok = worst < 1e-10
    report(9, ok, f"F / w / gamma equivariance and realness on randomized "
           f"inputs: worst deviation {worst:.1e}")
    assert worst < 1e-10


def test_criterion_10_triangular_minimum_numeric():
    t0 = time.time()
    dists = {}
    for mu in (0.2, 0.1, 0.05):
        tau_b, _ = abr.minimize_Eb_numeric(KAPPA, KAPPA2 - mu, K_lev=40)
        dists[mu] = abr.modular_distance(tau_b, TRI)
    runtime = time.time() - t0
    # Richardson extrapolation of tau_b(mu) toward mu = 0 (linear model in mu
    # on the two smallest values)
    extrapolated = 2 * dists[0.05] - dists[0.1]
    # Modular invariance and the order-3 stabilizer of e^(i pi/3) make the
    # triangular point an exact critical point of E_b for every mu, so the
    # true distance is identically zero and the mu -> 0 statement holds in
    # its exact form: tau_b = e^(i pi/3) at each mu.  A strictly decreasing
    # trend in mu has no signal to detect.  What is measured is the
    # minimizer's resolution: the O(h^2) bias of a plain central-difference
    # gradient (7.05e-7 at h = 2e-3) would fail the 1e-7 bound with a 7x
    # margin; the Richardson-refined gradient leaves only a roundoff floor
    # ~3 eps |E| / (h lambda_min(Hess E_b)), which grows like 1/mu^2 since
    # Hess E_b ~ mu^2 (estimates 1.2e-10, 5.3e-10, 2.2e-9), and stays more
    # than 10x below the bound after Richardson's 3x noise gain.
    exact = max(dists.values()) <= 1e-7
    ok = exact and abs(extrapolated) < 1e-3 and runtime < 1800
    report(10, ok, f"numeric E_b minimizer distances to e^(i pi/3): "
           f"{dists[0.2]:.4e} (mu=0.2), {dists[0.1]:.4e} (mu=0.1), "
           f"{dists[0.05]:.4e} (mu=0.05); extrapolated {abs(extrapolated):.1e}; "
           f"{runtime:.0f}s")
    assert abs(extrapolated) < 1e-3, "extrapolated minimizer misses e^(i pi/3)"
    assert runtime < 1800
    assert exact, (f"minimizer off the exact critical point e^(i pi/3) by "
                   f"more than 1e-7: {dists}")
