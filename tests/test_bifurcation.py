import gc
import warnings
import weakref

import numpy as np
import pytest

from reference import (alpha_damped_fixed_point, effective_energy,
                       helmholtz_project, w_state)
from vortexlattice import abrikosov, bifurcation as bif, glcore, landau
from vortexlattice.landau import field_from_coeffs, inner_avg, norm_avg
from vortexlattice.lattice import TAU_TRIANGULAR, SolverError, normalize_tau

KAPPA = np.sqrt(2.0)


@pytest.fixture(scope="module")
def setup_sq(shape_square):
    return bif.build_reduction(shape_square, N=64, K_lev=40)


@pytest.fixture(scope="module")
def setup_tri(shape_tri):
    return bif.build_reduction(shape_tri, N=64, K_lev=40)


@pytest.fixture(scope="module")
def branch_sq(shape_square, setup_sq):
    return bif.solve_branch([0.02, 0.04, 0.06, 0.08, 0.10], KAPPA, shape_square,
                            setup=setup_sq)


# ----------------------------------------------------------------------
# reduction setup
# ----------------------------------------------------------------------
def test_projection_on_null_vector(setup_sq):
    c = setup_sq.psi0.coeffs
    assert setup_sq.project_P(c) == pytest.approx(1.0)
    q = setup_sq.project_Q(c)
    assert np.max(np.abs(q)) == 0.0


def test_projection_kills_higher_levels(setup_sq):
    d = np.zeros((41, 1), complex)
    d[1, 0] = 1.0
    assert setup_sq.project_P(d) == 0.0
    assert np.array_equal(setup_sq.project_Q(d), d)


def test_resolvent_inverse_property(setup_sq, rng):
    basis = setup_sq.basis
    d = np.zeros((41, 1), complex)
    d[1:9, 0] = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    lam = 1.0
    Ld = basis.landau_coeffs(d) - lam * d
    back = basis.resolvent_coeffs(Ld, lam)
    assert np.max(np.abs(back - d)) < 1e-12


def test_resolvent_rejects_spectrum_collision(setup_sq):
    d = np.zeros((41, 1), complex)
    with pytest.raises(ValueError):
        setup_sq.basis.resolvent_coeffs(d, 3.0)


def test_reduction_n2_unimplemented(shape_square):
    with pytest.raises(NotImplementedError):
        bif.build_reduction(shape_square, N=64, n=2)


# ----------------------------------------------------------------------
# w solve
# ----------------------------------------------------------------------
def test_w_vanishes_at_zero(setup_sq):
    res = bif.solve_w(1.0, 0.0, setup_sq, KAPPA)
    assert np.max(np.abs(res.w)) == 0.0


def test_w_equivariance(setup_sq):
    delta = 0.9
    r1 = bif.solve_w(1.01, 0.05, setup_sq, KAPPA)
    r2 = bif.solve_w(1.01, 0.05 * np.exp(1j * delta), setup_sq, KAPPA)
    assert np.max(np.abs(r2.w - np.exp(1j * delta) * r1.w)) < 1e-10


def test_w_quadratic_smallness(setup_sq):
    ss = np.array([0.01, 0.02, 0.04, 0.07, 0.1])
    norms = []
    for s in ss:
        res = bif.solve_w(1.0, s, setup_sq, KAPPA)
        norms.append(np.linalg.norm(res.w))
    slope = np.polyfit(np.log(ss), np.log(norms), 1)[0]
    assert slope >= 2.0 - 0.1


def test_w_residual_below_tolerance(setup_sq):
    res = bif.solve_w(1.02, 0.08, setup_sq, KAPPA)
    assert res.residual < 1e-10


# ----------------------------------------------------------------------
# gamma1
# ----------------------------------------------------------------------
def test_gamma1_at_origin(setup_sq):
    g, _ = bif.gamma1(1.0, 0.0, setup_sq, KAPPA)
    assert g == 0.0


def test_gamma1_lambda_derivative(setup_sq):
    h, s = 1e-5, 1e-3
    gp, _ = bif.gamma1(1 + h, s, setup_sq, KAPPA)
    gm, _ = bif.gamma1(1 - h, s, setup_sq, KAPPA)
    # cell-averaged norm convention: derivative is -<|psi0|^2> = -1
    assert (np.real(gp) - np.real(gm)) / (2 * h) == pytest.approx(-1.0, abs=1e-6)


def test_gamma1_real(setup_sq, rng):
    for _ in range(4):
        lam = 1 + rng.uniform(-0.02, 0.02)
        s = rng.uniform(0.01, 0.1)
        g, _ = bif.gamma1(lam, s, setup_sq, KAPPA)
        assert abs(complex(g).imag) < 1e-10


def test_gamma1_even_in_s(setup_sq):
    # gamma0 is odd by gauge equivariance, so gamma1 = gamma0/s is even
    gp, _ = bif.gamma1(1.01, 0.06, setup_sq, KAPPA)
    gm, _ = bif.gamma1(1.01, -0.06, setup_sq, KAPPA)
    assert abs(complex(gp) - complex(gm)) < 1e-11


# ----------------------------------------------------------------------
# branch continuation
# ----------------------------------------------------------------------
def test_branch_starts_at_normal_state(shape_square, setup_sq):
    br = bif.solve_branch([0.0], KAPPA, shape_square, setup=setup_sq)
    p = br.points[0]
    assert p.lam == 1.0 and p.s == 0.0
    assert p.energy == pytest.approx(KAPPA**2 / 2 + KAPPA**4, rel=1e-12)


def test_branch_side_follows_sign_condition(shape_tri, setup_tri):
    br = bif.solve_branch([0.05], KAPPA, shape_tri, setup=setup_tri)
    p = br.points[0]
    assert p.lam > 1.0
    assert p.b < KAPPA**2


def test_branch_residual_invariants(branch_sq):
    for p in branch_sq.points:
        assert p.residual_psi < 1e-8
        assert p.residual_alpha < 1e-10
        assert abs(p.flux - 2 * np.pi) < 1e-12


def test_branch_lambda_monotone(branch_sq):
    assert np.all(np.diff(branch_sq.lam) > 0)


def test_branch_labels_extrapolated_regime(shape_square, setup_sq):
    br = bif.solve_branch([0.32], KAPPA, shape_square, setup=setup_sq)
    assert br.extrapolated
    br2 = bif.solve_branch([0.05], KAPPA, shape_square, setup=setup_sq)
    assert not br2.extrapolated


def test_gauge_rotated_branch(setup_sq):
    delta = 1.3
    r1 = bif.solve_w(1.01, 0.05, setup_sq, KAPPA)
    r2 = bif.solve_w(1.01, 0.05 * np.exp(1j * delta), setup_sq, KAPPA)
    psi1 = setup_sq.basis.synth(_full(r1.w, 0.05, setup_sq))
    psi2 = setup_sq.basis.synth(_full(r2.w, 0.05 * np.exp(1j * delta), setup_sq))
    assert np.max(np.abs(np.abs(psi1) - np.abs(psi2))) < 1e-10
    assert np.max(np.abs(psi2 - np.exp(1j * delta) * psi1)) < 1e-10


def _full(w, s, setup):
    c = w.copy()
    c[0, 0] += s
    return c


def test_branch_by_field_normal_limit(shape_square, setup_sq):
    pt = bif.branch_by_field(KAPPA**2, KAPPA, shape_square, setup=setup_sq)
    assert pt.s == 0.0 and pt.lam == 1.0


def test_branch_by_field_first_order(shape_tri, setup_tri):
    beta = setup_tri.beta()
    c = (KAPPA**2 - 0.5) * beta + 0.5
    # first-order prediction; the O(mu) relative correction at mu = 0.05
    # is a few percent
    pt = bif.branch_by_field(1.95, KAPPA, shape_tri, setup=setup_tri)
    s2_pred = 0.05 / (KAPPA**2 * c)
    assert pt.s**2 == pytest.approx(s2_pred, rel=0.05)
    assert abs(pt.b - 1.95) < 1e-12


def test_branch_by_field_refuses_wrong_side(shape_tri, setup_tri):
    with pytest.raises(bif.BranchSideError):
        bif.branch_by_field(2.05, KAPPA, shape_tri, setup=setup_tri)


def test_negative_sign_regime():
    # kappa^2 = 0.1 on an elongated lattice: (kappa^2 - 1/2) beta + 1/2 < 0,
    # so the branch lives at b > kappa^2 and b < kappa^2 is refused
    shape, _ = normalize_tau(8j)
    setup = bif.build_reduction(shape, N=64, K_lev=40)
    assert (0.1 - 0.5) * setup.beta() + 0.5 < 0
    kappa = np.sqrt(0.1)
    pt = bif.branch_by_field(0.102, kappa, shape, setup=setup)
    assert pt.lam < 1.0 and pt.residual_psi < 1e-8
    with pytest.raises(bif.BranchSideError):
        bif.branch_by_field(0.098, kappa, shape, setup=setup)


def test_branch_points_are_gamma1_roots(branch_sq, setup_sq):
    # the joint (w, lambda) iteration against the fixed-lambda gamma1 oracle
    for p in branch_sq.points:
        g, _ = bif.gamma1(p.lam, p.s, setup_sq, KAPPA)
        assert abs(g) <= 1e-11


def test_field_points_are_gamma1_roots(shape_tri, setup_tri):
    # the joint (w, s) iteration against gamma1, in both sign regimes
    pt = bif.branch_by_field(1.95, KAPPA, shape_tri, setup=setup_tri)
    g, _ = bif.gamma1(KAPPA**2 / 1.95, pt.s, setup_tri, KAPPA)
    assert abs(g) <= 1e-11
    shape, _ = normalize_tau(8j)
    setup = bif.build_reduction(shape, N=64, K_lev=40)
    kappa = np.sqrt(0.1)
    pt = bif.branch_by_field(0.102, kappa, shape, setup=setup)
    g, _ = bif.gamma1(0.1 / 0.102, pt.s, setup, kappa)
    assert abs(g) <= 1e-11


def test_branch_by_field_unreachable_target_is_reported():
    # b = 0.15 lies far past the tau = 8i branch (kappa^2 = 0.1): the
    # P-equation ratio for s turns negative, which must stop the solve with
    # the target named, before any NaN reaches the alpha fixed point
    shape, _ = normalize_tau(8j)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeError, match=r"b=0\.15 ") as exc:
            bif.branch_by_field(0.15, np.sqrt(0.1), shape, K_lev=40)
    assert not isinstance(exc.value, glcore.AlphaSolveError)


def test_branch_by_field_far_target(shape_square):
    # b = 0.5 (s ~ 1.18) is far outside the perturbative range, where the
    # plain sweep stops contracting
    pt = bif.branch_by_field(0.5, KAPPA, shape_square, K_lev=32)
    assert abs(pt.s - 1.177988) < 1e-6
    assert pt.residual_psi < 1e-8


def test_branch_by_field_farther_target(shape_square):
    # b = 0.3 (s ~ 1.63): the mixed sweep still converges, to a gamma1 root
    setup = bif.build_reduction(shape_square, N=64, K_lev=32)
    pt = bif.branch_by_field(0.3, KAPPA, shape_square, setup=setup)
    assert abs(pt.s - 1.631236087) < 1e-8
    assert pt.residual_psi < 1e-8
    g, _ = bif.gamma1(KAPPA**2 / 0.3, pt.s, setup, KAPPA)
    assert abs(g) <= 1e-11


def test_alpha_solves_the_second_sweep_of_a_far_target():
    # branch_by_field(0.3, sqrt 2, 0.3+1.2i, N=64, K_lev=40): the first sweep
    # maps the cold start s_est psi0 to a psi with max |psi|^2 = 10.8, where
    # the damped vector fixed point for alpha stalled (step 9.05e-13 after its
    # 400 iterations); the stream-function PCG solves it, warm-started as in
    # solve_w, to the same alpha as the damped oracle at a reachable tolerance
    shape, _ = normalize_tau(0.3 + 1.2j)
    setup = bif.build_reduction(shape, 64, K_lev=40)
    basis, lam_t = setup.basis, KAPPA**2 / 0.3
    s = np.sqrt((lam_t - 1) / ((KAPPA**2 - 0.5) * setup.beta() + 0.5))
    psi_c = np.zeros((41, 1), complex)
    psi_c[0, 0] = s
    ncoef, alpha1 = glcore.nonlinear_coeffs(basis, psi_c, KAPPA)
    psi_c = -basis.resolvent_coeffs(setup.project_Q(ncoef), lam_t)
    psi_c[0, 0] += s * np.sqrt((lam_t - 1) / np.real(ncoef[0, 0] / s))
    ps = glcore._coeff_samples(basis, psi_c, solve=True)
    assert ps.rho.max() > 10
    alpha = glcore._alpha_fixed_point(ps.grid, ps.j0, ps.rho, alpha1)
    assert np.max(np.abs(helmholtz_project(ps.grid, ps.alpha_residual(alpha)))) <= 1e-10
    ref = alpha_damped_fixed_point(ps.grid, ps.j0, ps.rho, tol=1e-12)
    assert np.max(np.abs(alpha - ref)) <= 1e-11


@pytest.mark.parametrize("tau, kappa2, b, N, K_lev",
                         [(8j, 0.1, 0.102, 64, 40), (1j, 2.0, 0.5, 64, 32)])
def test_field_points_count_their_sweeps(monkeypatch, tau, kappa2, b, N, K_lev):
    # every field point is the one mixed sweep, which reports its count
    results = []
    solve_w = bif.solve_w
    monkeypatch.setattr(bif, "solve_w",
                        lambda *a, **kw: results.append(solve_w(*a, **kw)) or results[-1])
    shape, _ = normalize_tau(tau)
    bif.branch_by_field(b, np.sqrt(kappa2), shape,
                        setup=bif.build_reduction(shape, N, K_lev))
    assert len(results) == 1 and results[0].iterations > 0


def test_finish_point_synthesizes_each_field_once(setup_sq, monkeypatch):
    # psi on the output grid only: psi, D1 psi, D2 psi on the solve grid,
    # shared by the alpha residual and the energy, are the w solve's own
    wres = bif.solve_w(1.01, 0.05, setup_sq, KAPPA)
    calls = []
    synth = landau.LandauBasis.synth
    monkeypatch.setattr(landau.LandauBasis, "synth",
                        lambda self, *a, **kw: calls.append(1) or synth(self, *a, **kw))
    pt = bif._finish_point(wres, setup_sq, KAPPA)
    assert len(calls) == 1
    monkeypatch.undo()
    assert pt.energy == glcore.energy(w_state(wres, setup_sq, KAPPA))


def test_coeff_tail_flags_an_unresolved_target():
    # K_lev = 32 is too small for b = 0.7 at tau = 0.3+1.2i (residual_alpha
    # ~1e-4); the top Landau level keeps a visible share of the coefficients
    shape, _ = normalize_tau(0.3 + 1.2j)
    pt = bif.branch_by_field(0.7, KAPPA, shape, K_lev=32)
    assert pt.coeff_tail > 1e-6


@pytest.mark.parametrize("tau", [1j, TAU_TRIANGULAR])
def test_coeff_tail_small_at_the_landscape_default(tau):
    pt = bif.branch_by_field(1.9, KAPPA, normalize_tau(tau)[0], K_lev=40)
    assert pt.coeff_tail < 1e-8


@pytest.mark.parametrize("tau, b, K_lev", [(1j, 1.9, 40), (0.3 + 1.2j, 1.0, 80),
                                          (TAU_TRIANGULAR, 1.5, 64), (4j, 1.0, 40),
                                          (8j, 1.0, 80), (12j, 1.0, 64), (20j, 1.5, 40)])
def test_sized_solve_grid_matches_a_fine_grid(monkeypatch, tau, b, K_lev):
    # the solve grid the rule sizes from (n, tau2) gives the branch point of a
    # forced 256 grid, and resolves |psi|^2 to the rule's threshold
    shape = normalize_tau(tau)[0]
    pt = bif.branch_by_field(b, KAPPA, shape, K_lev=K_lev)
    assert pt.grid_tail < landau.GRID_TAIL_TOL
    monkeypatch.setattr(landau, "_solve_grid_size", lambda n, tau2: 256)
    ref = bif.branch_by_field(b, KAPPA, shape, K_lev=K_lev)
    for got, want in ((pt.lam, ref.lam), (pt.s, ref.s), (pt.energy, ref.energy)):
        assert abs(got - want) <= 1e-14 * abs(want)


def test_field_point_builds_one_transform_table(monkeypatch):
    # without an output N a field point samples its fields on the solve grid,
    # so the basis builds the solve grid's table and no other
    tables = []
    table = landau.LandauBasis._table
    monkeypatch.setattr(landau.LandauBasis, "_table",
                        lambda self, G: tables.append(G) or table(self, G))
    shape = normalize_tau(0.3 + 1.2j)[0]
    pt = bif.branch_by_field(1.9, KAPPA, shape)
    assert len(tables) == 1
    assert pt.alpha.values.shape == (2, tables[0], tables[0])


def test_point_scalars_do_not_depend_on_N():
    # an N given to build_reduction only samples the reported fields: every
    # scalar of a branch point is computed on the solve grid, bit for bit the
    # same at any N
    shape = normalize_tau(0.3 + 1.2j)[0]
    keys = ("lam", "s", "energy", "residual_psi", "residual_alpha", "coeff_tail",
            "grid_tail")
    seen = set()
    for N in (16, 96, 128):
        pt = bif.branch_by_field(1.0, KAPPA, shape,
                                 setup=bif.build_reduction(shape, N, K_lev=40))
        assert pt.alpha.values.shape == (2, N, N)
        seen.add(tuple(getattr(pt, k) for k in keys))
    assert len(seen) == 1


def test_w_solve_out_of_sweeps_is_reported(setup_sq, monkeypatch):
    monkeypatch.setattr(bif, "W_MAX_SWEEPS", 2)
    with pytest.raises(SolverError, match="did not converge in 2 sweeps"):
        bif.solve_w(1.02, 0.08, setup_sq, KAPPA)


# ----------------------------------------------------------------------
# effective energy
# ----------------------------------------------------------------------
def test_effective_energy_at_zero(setup_sq):
    e0 = effective_energy(1.02, 0.0, setup_sq, KAPPA)
    assert e0 == pytest.approx(KAPPA**2 / 2 + KAPPA**4 / 1.02**2, rel=1e-12)


def test_effective_energy_gauge_invariant(setup_sq):
    e1 = effective_energy(1.01, 0.05, setup_sq, KAPPA)
    e2 = effective_energy(1.01, 0.05 * np.exp(1.1j), setup_sq, KAPPA)
    assert abs(e1 - e2) < 1e-10


def test_effective_energy_stationary_on_branch(shape_square, setup_sq):
    br = bif.solve_branch([0.06], KAPPA, shape_square, setup=setup_sq)
    p = br.points[0]
    h = 1e-4
    ep = effective_energy(p.lam, p.s + h, setup_sq, KAPPA)
    em = effective_energy(p.lam, p.s - h, setup_sq, KAPPA)
    assert abs(ep - em) / (2 * h) < 1e-6


# ----------------------------------------------------------------------
# expansion fits
# ----------------------------------------------------------------------
def test_fit_expansion_coefficient(branch_sq):
    rep = bif.fit_expansion(branch_sq)
    assert rep.g_lambda_prime0_target == pytest.approx(2.2705109, abs=1e-6)
    assert rep.g_lambda_prime0_err / rep.g_lambda_prime0_target < 1e-3
    assert rep.curl_a1_sup_err < 1e-4
    assert rep.energy_slope >= 5.7


def test_three_routes_agree(branch_sq):
    # (a) lambda_s fit, (b) formula with measured beta, (c) s^2 vs mu slope
    rep = bif.fit_expansion(branch_sq)
    c_fit = rep.g_lambda_prime0
    c_formula = (KAPPA**2 - 0.5) * branch_sq.beta + 0.5
    c_slope = 1.0 / (KAPPA**2 * rep.eps_of_b_slope)
    assert c_fit == pytest.approx(c_formula, rel=2e-4)
    assert c_slope == pytest.approx(c_formula, rel=2e-3)
    assert c_fit == pytest.approx(c_slope, rel=2e-3)


def test_K_lev_convergence(shape_square):
    # observables stable under deepening the Landau truncation
    cs = []
    for K_lev in (32, 40):
        br = bif.solve_branch([0.03, 0.05], KAPPA, shape_square, N=64, K_lev=K_lev)
        cs.append(br.lam)
    assert np.max(np.abs(cs[0] - cs[1])) < 1e-8


def test_branch_builds_and_owns_one_basis(shape_square, monkeypatch):
    # build -> solve -> fit constructs one basis; the branch holds it and
    # nothing keeps it alive after the branch is dropped
    built = []
    init = landau.LandauBasis.__init__
    monkeypatch.setattr(landau.LandauBasis, "__init__",
                        lambda self, *a, **kw: built.append(1) or init(self, *a, **kw))
    setup = bif.build_reduction(shape_square, N=48, K_lev=24)
    branch = bif.solve_branch([0.02, 0.04, 0.06, 0.08, 0.1], KAPPA, shape_square,
                              setup=setup)
    assert branch.basis is setup.basis
    rep = bif.fit_expansion(branch)
    assert len(built) == 1
    ref = weakref.ref(setup.basis)
    del setup, branch
    gc.collect()
    assert ref() is None
    assert rep.N == 48


def test_expansion_report_serializable(branch_sq):
    import json
    rep = bif.fit_expansion(branch_sq)
    text = json.dumps(rep.to_dict())
    assert "cell-averaged" in text
