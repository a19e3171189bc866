import gc
import warnings
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from reference import (alpha_damped_fixed_point, alpha_residual, alpha_residual_rms,
                       branch_coefficients, cell_flux, effective_energy, gamma1,
                       helmholtz_project, plain_w, separate_energy, w_coeffs, w_state)
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
def test_resolvent_leaves_level_zero_at_zero(setup_sq):
    # the resolvent acts on the levels k >= 1 alone, so it applies Q: psi0,
    # the coefficient [0], maps to zero and level 1 is kept
    basis = setup_sq.basis
    d = np.zeros(41, complex)
    d[0] = 1.0
    assert np.max(np.abs(basis.resolvent_coeffs(d, 1.5))) == 0.0
    d[1] = 1.0
    out = basis.resolvent_coeffs(d, 1.5)
    assert out[0] == 0.0 and out[1] == 1.0 / (3.0 - 1.5)


def test_solved_w_has_no_psi0_component(setup_sq, branch_sq):
    for unknown in ("lam", "s"):
        wres = bif.solve_w(1.02, 0.06, setup_sq, KAPPA, unknown=unknown)
        assert wres.w[0] == 0.0
    assert plain_w(1.02, 0.06, setup_sq, KAPPA).w[0] == 0.0
    # a branch point's psi0 coefficient is its s alone
    for p in branch_sq.points:
        assert p.psi_coeffs[0] == p.s


@pytest.mark.parametrize("tau", [1j, complex(TAU_TRIANGULAR), 0.3 + 1.2j],
                         ids=["square", "triangular", "0.3+1.2i"])
def test_setup_samples_no_output_grid_and_its_beta_matches_both_routes(tau):
    # the setup reads beta on the solve grid and builds no table at N
    shape, _ = normalize_tau(tau)
    setup = bif.build_reduction(shape, N=128)
    assert "_output_table" not in setup.basis.__dict__
    assert abs(setup.beta - abrikosov.beta_quadrature(shape)) <= 1e-15
    assert abs(setup.beta - abrikosov.beta_lattice_sum(shape)) <= 1e-14


def test_resolvent_inverse_property(setup_sq, rng):
    basis = setup_sq.basis
    d = np.zeros(41, complex)
    d[1:9] = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    lam = 1.0
    Ld = basis.landau_coeffs(d) - lam * d
    back = basis.resolvent_coeffs(Ld, lam)
    assert np.max(np.abs(back - d)) < 1e-12


def test_resolvent_rejects_spectrum_collision(setup_sq):
    d = np.zeros(41, complex)
    with pytest.raises(landau.SpectrumCollisionError):
        setup_sq.basis.resolvent_coeffs(d, 3.0)


# ----------------------------------------------------------------------
# w solve
# ----------------------------------------------------------------------
def test_w_vanishes_at_zero(setup_sq):
    for unknown in ("lam", "s"):
        res = bif.solve_w(1.0, 0.0, setup_sq, KAPPA, unknown=unknown)
        assert np.max(np.abs(res.w)) == 0.0


def test_w_solve_takes_one_of_two_unknowns(setup_sq):
    with pytest.raises(TypeError):
        bif.solve_w(1.02, 0.06, setup_sq, KAPPA)
    with pytest.raises(ValueError, match="'lam' or 's'"):
        bif.solve_w(1.02, 0.06, setup_sq, KAPPA, unknown=None)


# the fixed-lambda w and gamma1 of the reduction, read by the plain
# contraction of tests/reference.py (plain_w), the oracle of the package's
# joint solves
def test_w_equivariance(setup_sq):
    delta = 0.9
    r1 = plain_w(1.01, 0.05, setup_sq, KAPPA)
    r2 = plain_w(1.01, 0.05 * np.exp(1j * delta), setup_sq, KAPPA)
    assert np.max(np.abs(r2.w - np.exp(1j * delta) * r1.w)) < 1e-10


def test_w_quadratic_smallness(setup_sq):
    ss = np.array([0.01, 0.02, 0.04, 0.07, 0.1])
    norms = []
    for s in ss:
        res = plain_w(1.0, s, setup_sq, KAPPA)
        norms.append(np.linalg.norm(res.w))
    slope = np.polyfit(np.log(ss), np.log(norms), 1)[0]
    assert slope >= 2.0 - 0.1


def test_w_residual_below_tolerance(setup_sq):
    # the Q part of F at the returned w, with the N the solve returns there
    for unknown in ("lam", "s"):
        res = bif.solve_w(1.02, 0.08, setup_sq, KAPPA, unknown=unknown)
        fco = glcore.F_coeffs(setup_sq.basis, w_coeffs(res), res.lam, res.ncoef)
        assert np.linalg.norm(fco[1:]) < 1e-10


def test_gamma1_at_origin(setup_sq):
    assert gamma1(1.0, 0.0, setup_sq, KAPPA) == 0.0


def test_gamma1_lambda_derivative(setup_sq):
    h, s = 1e-5, 1e-3
    gp = gamma1(1 + h, s, setup_sq, KAPPA)
    gm = gamma1(1 - h, s, setup_sq, KAPPA)
    # cell-averaged norm convention: derivative is -<|psi0|^2> = -1
    assert (np.real(gp) - np.real(gm)) / (2 * h) == pytest.approx(-1.0, abs=1e-6)


def test_gamma1_real(setup_sq, rng):
    for _ in range(4):
        lam = 1 + rng.uniform(-0.02, 0.02)
        s = rng.uniform(0.01, 0.1)
        g = gamma1(lam, s, setup_sq, KAPPA)
        assert abs(complex(g).imag) < 1e-10


def test_gamma1_even_in_s(setup_sq):
    # gamma0 is odd by gauge equivariance, so gamma1 = gamma0/s is even
    gp = gamma1(1.01, 0.06, setup_sq, KAPPA)
    gm = gamma1(1.01, -0.06, setup_sq, KAPPA)
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
        assert abs(cell_flux(branch_sq.basis.grid, 1 + p.curl_alpha) - 2 * np.pi) < 1e-12


def test_branch_lambda_monotone(branch_sq):
    assert np.all(np.diff([p.lam for p in branch_sq.points]) > 0)


def test_branch_labels_extrapolated_regime(shape_square, setup_sq):
    br = bif.solve_branch([0.32], KAPPA, shape_square, setup=setup_sq)
    assert br.extrapolated
    br2 = bif.solve_branch([0.05], KAPPA, shape_square, setup=setup_sq)
    assert not br2.extrapolated


def test_gauge_rotated_branch(setup_sq):
    # the branch point at s e^{i delta} is the one at s rotated, at the same
    # lambda
    delta = 1.3
    r1 = bif.solve_w(1.01, 0.05, setup_sq, KAPPA, unknown="lam")
    r2 = bif.solve_w(1.01, 0.05 * np.exp(1j * delta), setup_sq, KAPPA, unknown="lam")
    psi1, psi2 = setup_sq.basis.synth(np.stack([w_coeffs(r1), w_coeffs(r2)]))
    assert np.max(np.abs(np.abs(psi1) - np.abs(psi2))) < 1e-10
    assert np.max(np.abs(psi2 - np.exp(1j * delta) * psi1)) < 1e-10
    assert abs(r2.lam - r1.lam) < 1e-10


def test_branch_by_field_normal_limit(shape_square, setup_sq):
    pt = bif.branch_by_field(KAPPA**2, KAPPA, shape_square, setup=setup_sq)
    assert pt.s == 0.0 and pt.lam == 1.0


def test_branch_by_field_first_order(shape_tri, setup_tri):
    beta = setup_tri.beta
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


def test_branch_refuses_a_point_on_the_excluded_side(shape_square):
    # kappa^2 = 0.05 on the square lattice: c < 0, and lambda dips to 0.981
    # near s = 1.2 before the converged point at s = 1.8 crosses back to 1.0018
    # (branch --kappa2 0.05 --s-max 3 --s-points 30)
    kappa, setup = np.sqrt(0.05), bif.build_reduction(shape_square, K_lev=40)
    with pytest.raises(bif.BranchSideError) as err:
        bif.solve_branch(np.linspace(0.1, 3.0, 30), kappa, shape_square, setup=setup)
    c = abrikosov.branch_slope(setup.beta, kappa)
    assert c < 0
    assert str(err.value) == (
        f"branch point s=1.8 has lambda=1.00177 on the side of 1 the a-priori "
        f"slope c={c:.6g} excludes: (lambda - 1) c <= 0")


def test_negative_sign_regime():
    # kappa^2 = 0.1 on an elongated lattice: (kappa^2 - 1/2) beta + 1/2 < 0,
    # so the branch lives at b > kappa^2 and b < kappa^2 is refused
    shape, _ = normalize_tau(8j)
    setup = bif.build_reduction(shape, N=64, K_lev=40)
    assert (0.1 - 0.5) * setup.beta + 0.5 < 0
    kappa = np.sqrt(0.1)
    pt = bif.branch_by_field(0.102, kappa, shape, setup=setup)
    assert pt.lam < 1.0 and pt.residual_psi < 1e-8
    with pytest.raises(bif.BranchSideError):
        bif.branch_by_field(0.098, kappa, shape, setup=setup)


@pytest.mark.parametrize("tau, kappa2", [(1j, 2.0), (complex(TAU_TRIANGULAR), 2.0),
                                          (0.3 + 1.2j, 2.0), (8j, 0.1)],
                         ids=["square", "triangular", "0.3+1.2i", "8i-below-kappa_c"])
def test_branch_coefficients_from_the_reduction(tau, kappa2):
    # lambda1 and lambda2 of lambda(s) = 1 + lambda1 s^2 + lambda2 s^4 + O(s^6)
    # in closed form (reference.branch_coefficients) against the solved
    # branch: (lambda - 1 - lambda1 s^2)/s^4 - lambda2 is O(s^2), a factor 4
    # a halving.  lambda - 1 is read as Re <psi0, N>/s from the w solve: the
    # branch point's lambda = 1 + (lambda - 1) rounds to an ulp that is
    # 3.5e-7 of the quotient at s = 0.005
    shape, _ = normalize_tau(tau)
    setup = bif.build_reduction(shape, K_lev=40)
    kappa = np.sqrt(kappa2)
    lam1, lam2 = branch_coefficients(setup, kappa)
    slope = abrikosov.branch_slope(setup.beta, kappa)
    assert (slope < 0) == (kappa2 < abrikosov.kappa_c(setup.beta) ** 2)
    assert abs(lam1 - slope) < 1e-12
    if tau == 1j:
        assert lam2 == pytest.approx(-0.1563109085, abs=1e-10)
    s = np.array([0.04, 0.02, 0.01, 0.005])
    q = []
    for si in s:
        wres = bif.solve_w(1.0 + lam1 * si**2, si, setup, kappa, unknown="lam")
        q.append((np.real(wres.ncoef[0] / si) - lam1 * si**2) / si**4)
    dev = np.array(q) - lam2
    assert np.all(np.abs(dev[:-1] / dev[1:] - 4.0) < 0.3)
    assert abs((4 * q[-1] - q[-2]) / 3 - lam2) < 1e-6


def test_branch_points_are_gamma1_roots(branch_sq, setup_sq):
    # the joint (w, lambda) iteration against the fixed-lambda gamma1 oracle
    for p in branch_sq.points:
        assert abs(gamma1(p.lam, p.s, setup_sq, KAPPA)) <= 1e-11


def test_plain_contraction_reaches_the_branch_w(branch_sq, setup_sq):
    # at each branch point's (lambda, s) the plain contraction, with no shift
    # and no mixing, reaches the point's w: within 2.4e-16 (measured at
    # s = 0.1; W_TOL allows about 1e-12 s) in 5-7 sweeps
    for p in branch_sq.points:
        ref = plain_w(p.lam, p.s, setup_sq, KAPPA)
        assert np.max(np.abs(ref.w[1:] - p.psi_coeffs[1:])) <= 1e-14 * p.s
        assert ref.iterations <= 8


def cold_points(branch, setup, kappa):
    """Each nonzero point of a branch solved alone, from the first point's
    cold start."""
    slope = abrikosov.branch_slope(setup.beta, kappa)
    return [bif._finish_point(bif.solve_w(1.0 + slope * p.s**2, p.s, setup, kappa,
                                          unknown="lam"), setup, kappa)
            for p in branch.points]


@pytest.mark.parametrize("tau", [1j, complex(TAU_TRIANGULAR), 0.3 + 1.2j],
                         ids=["square", "triangular", "0.3+1.2i"])
def test_predicted_points_are_their_cold_solves(tau):
    # predictor = corrector: the prediction moves only where a point's solve
    # starts, so each point is the cold solve at its s; on the default grid
    # every point after the first converges in at most 3 sweeps (4-5 from
    # the unscaled previous point)
    shape, _ = normalize_tau(tau)
    setup = bif.build_reduction(shape, K_lev=40)
    branch = bif.solve_branch(np.linspace(0.02, 0.1, 5), KAPPA, shape, setup=setup)
    for p, cold in zip(branch.points, cold_points(branch, setup, KAPPA)):
        assert p.lam == pytest.approx(cold.lam, rel=1e-13, abs=0)
        assert p.energy == pytest.approx(cold.energy, rel=1e-13, abs=0)
    assert all(p.sweeps <= 3 for p in branch.points[1:])


@pytest.mark.parametrize("s_grid", [np.linspace(0.2, 1.0, 5), [0.3, 0.31, 0.9]],
                         ids=["even-wide", "uneven"])
@pytest.mark.parametrize("kappa2", [2.0, 0.3])
@pytest.mark.parametrize("tau", [1j, 0.3 + 1.2j], ids=["square", "0.3+1.2i"])
def test_predictor_on_wide_and_uneven_grids(tau, kappa2, s_grid):
    # far from the normal state, and across a short and a long step, every
    # predicted point converges to its cold solve in no more sweeps
    shape, _ = normalize_tau(tau)
    setup = bif.build_reduction(shape, K_lev=40)
    kappa = np.sqrt(kappa2)
    branch = bif.solve_branch(s_grid, kappa, shape, setup=setup)
    for p, cold in zip(branch.points, cold_points(branch, setup, kappa)):
        assert p.lam == pytest.approx(cold.lam, rel=1e-12, abs=0)
        assert p.energy == pytest.approx(cold.energy, rel=1e-12, abs=0)
        assert p.sweeps <= cold.sweeps


@pytest.mark.parametrize("degree, s_done", [(2, [0.2, 0.3, 0.4]), (1, [0.3, 0.4])],
                         ids=["quadratic", "line"])
def test_predictor_is_exact_on_its_polynomial_in_s2(degree, s_done):
    # three points predict a quadratic in s^2 of the scaled unknowns w / s^3,
    # alpha / s^2, phi / s^2 and (lambda - 1) / s^2 exactly, two a line
    def point(s):
        q = np.polyval([0.7, -0.4, 1.3][2 - degree:], s * s)
        return SimpleNamespace(s=s, lam=1.0 + s * s * q, w=s**3 * q * np.array([1.0, 2j]),
                               alpha2=s * s * q * np.ones((2, 3, 3)),
                               phi2=s * s * q * np.full((3, 2), 1 - 1j))
    ref = point(0.5)
    lam, (w, (alpha2, phi2)) = bif._predict(0.5, [point(s) for s in s_done])
    assert lam == pytest.approx(ref.lam, rel=1e-14)
    for got, want in ((w, ref.w), (alpha2, ref.alpha2), (phi2, ref.phi2)):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_predictor_holds_a_point_at_the_same_abs_s(setup_sq):
    # two points at the same |s| give no line in s^2: the later point starts
    # from the earlier one, scaled, and both are the same branch point
    branch = bif.solve_branch([-0.05, 0.05, 0.05], KAPPA, setup_sq.basis.shape,
                              setup=setup_sq)
    lam = [p.lam for p in branch.points]
    assert lam[1] == pytest.approx(lam[0], rel=1e-13)
    assert lam[2] == pytest.approx(lam[1], rel=1e-13)
    assert all(p.sweeps <= 2 for p in branch.points[1:])


def test_field_points_are_gamma1_roots(shape_tri, setup_tri):
    # the joint (w, s) iteration against gamma1, in both sign regimes
    pt = bif.branch_by_field(1.95, KAPPA, shape_tri, setup=setup_tri)
    assert abs(gamma1(KAPPA**2 / 1.95, pt.s, setup_tri, KAPPA)) <= 1e-11
    shape, _ = normalize_tau(8j)
    setup = bif.build_reduction(shape, N=64, K_lev=40)
    kappa = np.sqrt(0.1)
    pt = bif.branch_by_field(0.102, kappa, shape, setup=setup)
    assert abs(gamma1(0.1 / 0.102, pt.s, setup, kappa)) <= 1e-11


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
    # b = 0.3 (s ~ 1.63): the mixed sweep still converges, to a zero of F.
    # The plain contraction of gamma1's oracle does not contract here (its
    # second step is 6x its first), so the point is checked by its full F
    # with the potential solved cold: measured 1.09e-11 relative, bound 1e-10
    setup = bif.build_reduction(shape_square, N=64, K_lev=32)
    pt = bif.branch_by_field(0.3, KAPPA, shape_square, setup=setup)
    assert abs(pt.s - 1.631236087) < 1e-8
    assert pt.residual_psi < 1e-8
    with pytest.raises(SolverError, match="did not converge"):
        plain_w(KAPPA**2 / 0.3, pt.s, setup, KAPPA)
    F = glcore.map_F(setup.basis, pt.psi_coeffs, pt.lam, KAPPA)
    assert np.linalg.norm(F) <= 1e-10 * np.linalg.norm(pt.psi_coeffs)


@pytest.mark.parametrize("K_lev", [40, 64, 80, 128])
def test_far_target_converges_at_every_K_lev(monkeypatch, K_lev):
    # tau = 0.3+1.2i, b = 0.3: lambda = 6.67 sits 0.33 below level 3, where
    # the unshifted sweep -R(lambda) Q N hit the 200-sweep cap at K_lev 40
    # and 64 and took 164-178 sweeps at 80 and 128; the energies are those
    # of the unshifted solves that converged
    energies = {80: 0.4147270130990864, 128: 0.4147269970800928}
    results = []
    solve_w = bif.solve_w
    monkeypatch.setattr(bif, "solve_w",
                        lambda *a, **kw: results.append(solve_w(*a, **kw)) or results[-1])
    pt = bif.branch_by_field(0.3, KAPPA, normalize_tau(0.3 + 1.2j)[0], K_lev=K_lev)
    assert len(results) == 1 and results[0].iterations <= 40
    if K_lev in energies:
        assert abs(pt.energy - energies[K_lev]) <= 1e-13 * energies[K_lev]


def test_shifted_and_plain_maps_share_fixed_points(shape_generic):
    # at a solved point w the shifted sweep -R(lambda - sigma)(Q N - sigma w)
    # and the plain -R(lambda) Q N both map w to itself
    setup = bif.build_reduction(shape_generic, K_lev=40)
    pt = bif.branch_by_field(0.5, KAPPA, shape_generic, setup=setup)
    basis = setup.basis
    w = pt.psi_coeffs.copy()
    w[0] = 0.0
    # the resolvent reads the levels k >= 1 only, so N needs no Q of its own
    ps = glcore._coeff_samples(basis, pt.psi_coeffs)
    alpha2 = glcore._alpha_fixed_point(ps.grid, ps.j0, ps.rho, None)[0]
    qn = glcore._nonlinear(basis, ps, KAPPA, alpha2)
    sigma = KAPPA**2 * pt.s**2
    plain = -basis.resolvent_coeffs(qn, pt.lam)
    shifted = -basis.resolvent_coeffs(qn - sigma * w, pt.lam - sigma)
    for image in (plain, shifted):
        assert np.max(np.abs(image - w)) <= 1e-11 * pt.s


def test_alpha_solves_the_second_sweep_of_a_far_target():
    # branch_by_field(0.3, sqrt 2, 0.3+1.2i, N=64, K_lev=40): the first sweep
    # maps the cold start s_est psi0 to a psi with max |psi|^2 = 10.8, where
    # the damped vector fixed point for alpha stalled (step 9.05e-13 after its
    # 400 iterations); the stream-function PCG solves it, warm-started as in
    # solve_w, to the same alpha as the damped oracle at a reachable tolerance
    shape, _ = normalize_tau(0.3 + 1.2j)
    setup = bif.build_reduction(shape, 64, K_lev=40)
    basis, lam_t = setup.basis, KAPPA**2 / 0.3
    s = np.sqrt((lam_t - 1) / ((KAPPA**2 - 0.5) * setup.beta + 0.5))
    psi_c = np.zeros(41, complex)
    psi_c[0] = s
    ps1 = glcore._coeff_samples(basis, psi_c)
    pair1 = glcore._alpha_fixed_point(ps1.grid, ps1.j0, ps1.rho, None)
    ncoef = glcore._nonlinear(basis, ps1, KAPPA, pair1[0])
    psi_c = -basis.resolvent_coeffs(ncoef, lam_t)
    psi_c[0] += s * np.sqrt((lam_t - 1) / np.real(ncoef[0] / s))
    ps = glcore._coeff_samples(basis, psi_c)
    assert ps.rho.max() > 10
    alpha = glcore._alpha_fixed_point(ps.grid, ps.j0, ps.rho, pair1)[0]
    assert np.max(np.abs(helmholtz_project(ps.grid, alpha_residual(ps, alpha)))) <= 1e-10
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
    # each field is synthesized once, in the w solve: the point reads psi,
    # D1 psi and D2 psi on the solve grid, shared by all its scalars, from
    # the solve's last sweep, and synthesizes nothing itself; the one pass
    # over them gives the bits of the separate operators
    wres = bif.solve_w(1.01, 0.05, setup_sq, KAPPA, unknown="lam")
    calls = []
    synth = landau.LandauBasis.synth
    monkeypatch.setattr(landau.LandauBasis, "synth",
                        lambda self, *a, **kw: calls.append(1) or synth(self, *a, **kw))
    pt = bif._finish_point(wres, setup_sq, KAPPA)
    assert len(calls) == 0
    monkeypatch.undo()
    ps = glcore._coeff_samples(setup_sq.basis, w_coeffs(wres))
    assert pt.energy == separate_energy(ps, wres.alpha2, glcore.GLParams(KAPPA, 1, wres.lam))
    assert pt.residual_alpha == alpha_residual_rms(ps, wres.alpha2)
    assert np.array_equal(pt.curl_alpha, ps.grid.curl(wres.alpha2))
    assert pt.min_abs_psi == np.min(np.abs(ps.psi))
    # the grid route on the same samples reads the same energy
    state = w_state(setup_sq.basis, w_coeffs(wres), wres, KAPPA)
    assert abs(glcore.energy(state) - pt.energy) <= 1e-12


@pytest.mark.parametrize("N", [64, 96, 128])
@pytest.mark.parametrize("tau", [1j, complex(TAU_TRIANGULAR), 0.3 + 1.2j],
                         ids=["square", "triangular", "0.3+1.2i"])
def test_grid_route_energy_matches_the_point_energy(tau, N):
    # glcore.energy reads a sampled state on the grid of psi, D psi by
    # spectral derivatives of its quotients; a point's energy comes from the
    # ladder route on the solve grid
    shape, _ = normalize_tau(tau)
    setup = bif.build_reduction(shape, N, K_lev=40)
    pt = bif.branch_by_field(1.9, KAPPA, shape, setup=setup)
    state = glcore.GLState(field_from_coeffs(setup.basis, pt.psi_coeffs), pt.alpha,
                           glcore.GLParams(KAPPA, 1, pt.lam))
    assert state.psi.N == N
    assert abs(glcore.energy(state) - pt.energy) <= 1e-12


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


@pytest.mark.parametrize("tau", [1j, TAU_TRIANGULAR])
def test_shape_gradient_vanishes_at_the_symmetric_lattices(tau):
    # modular invariance and the stabilizers of i and e^(i pi/3) make both
    # exact critical points of E_b at every b
    pt = bif.branch_by_field(1.9, KAPPA, normalize_tau(tau)[0], K_lev=40)
    assert np.linalg.norm(pt.dE_dtau) < 1e-12


@pytest.mark.parametrize("tau, period", [(0.3 + 1.2j, 2), (0.21 + 1.13j, 2), (1j, 4),
                                         (TAU_TRIANGULAR, 6)])
def test_branch_occupies_the_levels_its_lattice_allows(tau, period):
    # the lattice's rotations (by pi on every shape, pi/2 on the square and
    # pi/3 on the triangular lattice) forbid the Landau levels k that period
    # does not divide
    shape = normalize_tau(tau)[0]
    setup = bif.build_reduction(shape, K_lev=40)
    forbidden = np.arange(41) % period != 0
    for b in (1.9, 1.0, 0.5):
        c = np.abs(bif.branch_by_field(b, KAPPA, shape, setup=setup).psi_coeffs)
        assert np.max(c[forbidden]) <= 1e-12 * np.max(c)


@pytest.mark.parametrize("tau, b, K_lev", [(1j, 1.9, 40), (0.3 + 1.2j, 1.0, 80),
                                          (TAU_TRIANGULAR, 1.5, 64), (4j, 1.0, 40),
                                          (8j, 1.0, 80), (12j, 1.0, 64), (20j, 1.5, 40)])
def test_sized_solve_grid_matches_a_fine_grid(monkeypatch, tau, b, K_lev):
    # the solve grid the rule sizes from tau2 gives the branch point of a
    # forced 256 grid, and resolves |psi|^2 to the rule's threshold
    shape = normalize_tau(tau)[0]
    pt = bif.branch_by_field(b, KAPPA, shape, K_lev=K_lev)
    assert pt.grid_tail < landau.GRID_TAIL_TOL
    monkeypatch.setattr(landau, "_solve_grid_size", lambda tau2: 256)
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
        bif.solve_w(1.02, 0.08, setup_sq, KAPPA, unknown="lam")


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
        br = bif.solve_branch([0.03, 0.05], KAPPA, shape_square, K_lev=K_lev)
        cs.append(np.array([p.lam for p in br.points]))
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
    assert rep.K_lev == 24


def test_expansion_report_serializable(branch_sq):
    import json
    rep = bif.fit_expansion(branch_sq)
    text = json.dumps(rep.to_dict())
    assert "cell-averaged" in text
