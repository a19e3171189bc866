import numpy as np
import pytest

from reference import (alpha_damped_fixed_point, alpha_equation_residual,
                       alpha_residual_rms, covariant_gradient, curl_star_curl,
                       flux, gauge_transform_state, helmholtz_project,
                       min_nonzero_gsq, normal_state, output_samples, residuals,
                       sample, solve_alpha, supercurrent, unit_field)
from vortexlattice import bifurcation, glcore
from vortexlattice.glcore import (GLParams, GLState, PeriodicVectorField,
                                  energy, map_F)
from vortexlattice.landau import LandauBasis, field_from_coeffs, inner_avg, norm_avg
from vortexlattice.spectral import CellGrid


@pytest.fixture(scope="module")
def basis_sq(shape_square):
    return LandauBasis(shape_square, 64, K_lev=16)


@pytest.fixture(scope="module")
def branch_point(shape_tri):
    setup = bifurcation.build_reduction(shape_tri, 64, K_lev=40)
    return setup.basis, bifurcation.branch_by_field(1.92, np.sqrt(2.0), shape_tri, setup=setup)


@pytest.fixture(scope="module")
def branch_state(branch_point):
    basis, pt = branch_point
    psi = field_from_coeffs(basis, pt.psi_coeffs)
    return GLState(psi, pt.alpha, GLParams(np.sqrt(2.0), 1, pt.lam))


def branch_samples(branch_point):
    """The branch point's psi on its solve grid, by the ladder route."""
    basis, pt = branch_point
    return glcore._coeff_samples(basis, pt.psi_coeffs)


def random_coeffs(basis, rng, scale=0.05, levels=6):
    d = np.zeros(basis.K_lev + 1, complex)
    d[:levels] = scale * (rng.standard_normal(levels)
                             + 1j * rng.standard_normal(levels))
    return d


# ----------------------------------------------------------------------
# energy
# ----------------------------------------------------------------------
def test_normal_state_energy_exact(basis_sq):
    st = normal_state(GLParams(kappa=1.0, n=1, lam=1.0), basis_sq.shape, basis_sq.N)
    assert energy(st) == pytest.approx(1.5, abs=1e-14)


@pytest.mark.parametrize("kappa,lam", [(1.3, 0.8), (0.6, 2.0)])
def test_normal_state_energy_formula(basis_sq, kappa, lam):
    st = normal_state(GLParams(kappa=kappa, n=1, lam=lam), basis_sq.shape, basis_sq.N)
    assert energy(st) == pytest.approx(kappa**2 / 2 + kappa**4 / lam**2, rel=1e-14)


def test_perfect_superconductor_zero_energy(shape_square):
    # flux-free configuration psi = 1, a = 0 solves the lam = kappa^2 equation
    # with zero energy; checked with plain periodic machinery
    grid = CellGrid(np.sqrt(2 * np.pi) * np.eye(2), 32)
    psi = np.ones((32, 32), dtype=complex)
    kappa = 1.2
    lap = grid.div(grid.grad(psi.real)) + 1j * grid.div(grid.grad(psi.imag))
    resid = -lap - kappa**2 * psi + kappa**2 * np.abs(psi) ** 2 * psi
    assert np.max(np.abs(resid)) < 1e-12
    dens = 0.5 * kappa**2 * (1 - np.abs(psi) ** 2) ** 2
    assert np.max(np.abs(dens)) < 1e-15


def test_branch_energy_matches_leading_order(branch_state):
    # E below the normal-state value, by an O(s^4) amount
    st = branch_state
    p = st.params
    e_normal = p.kappa**2 / 2 + p.kappa**4 / p.lam**2
    assert energy(st) < e_normal
    assert e_normal - energy(st) < 0.1


# ----------------------------------------------------------------------
# helmholtz projection (core identities in test_spectral)
# ----------------------------------------------------------------------
def test_helmholtz_wrapper(basis_sq, rng):
    grid = basis_sq.grid
    y1, y2 = grid.y
    v = np.stack([np.sin(2 * np.pi * y1), np.cos(2 * np.pi * (y1 + y2))])
    p = PeriodicVectorField(helmholtz_project(grid, v), grid)
    mean_r, div_r = p.constraint_residuals()
    assert mean_r < 1e-14 and div_r < 1e-11
    p2 = PeriodicVectorField(helmholtz_project(grid, p.values), grid)
    assert np.max(np.abs(p2.values - p.values)) < 1e-12


# ----------------------------------------------------------------------
# solve_alpha
# ----------------------------------------------------------------------
def test_alpha_of_zero_field(basis_sq):
    st = normal_state(GLParams(1.0, 1, 1.0), basis_sq.shape, basis_sq.N)
    al = solve_alpha(st.psi, st.params)
    assert np.max(np.abs(al.values)) < 1e-15


def test_alpha_leading_order(basis_sq):
    eps = 1e-3
    d = np.zeros(17, complex)
    d[0] = eps
    psi = field_from_coeffs(basis_sq, d)
    al = solve_alpha(psi, GLParams(1.0, 1, 1.0))
    curl = al.grid.curl(al.values)
    target = 0.5 * eps**2 * (1.0 - np.abs(unit_field(basis_sq, 0)) ** 2)
    assert np.max(np.abs(curl - target)) < 5 * eps**4
    assert abs(np.mean(curl)) < 1e-16


def test_alpha_constraints_and_residual(basis_sq, rng):
    psi = field_from_coeffs(basis_sq, random_coeffs(basis_sq, rng, scale=0.08))
    al = solve_alpha(psi, GLParams(1.4, 1, 1.0))
    mean_r, div_r = al.constraint_residuals()
    assert mean_r < 1e-15 and div_r < 1e-11


def test_alpha_residual_on_branch(branch_state):
    r = alpha_equation_residual(branch_state.psi, branch_state.alpha)
    assert r < 1e-10


@pytest.mark.parametrize("scale", [1.0, 6.0, 20.0])
def test_alpha_pcg_matches_damped_fixed_point(branch_point, scale):
    # two oracles on the solve-grid samples of a real branch state; scaling
    # psi raises max |psi|^2, where the damped vector fixed point slows down
    ps = branch_samples(branch_point)
    j0, rho = scale**2 * ps.j0, scale**2 * ps.rho
    alpha = glcore._alpha_fixed_point(ps.grid, j0, rho, None)[0]
    ref = alpha_damped_fixed_point(ps.grid, j0, rho)
    assert np.max(np.abs(alpha - ref)) <= 1e-14


@pytest.mark.parametrize("scale", [1.0, 6.0])
def test_alpha_pcg_on_an_odd_grid(branch_point, branch_state, scale):
    # a sampled field is solved on its own grid, which may be odd: its
    # half spectrum has no Nyquist column, and every column but the first
    # stands for itself and its mirror
    basis, pt = branch_point
    psi = field_from_coeffs(LandauBasis(basis.shape, 45, K_lev=basis.K_lev),
                            scale * pt.psi_coeffs)
    ps = glcore._samples(psi)
    assert ps.grid.N == 45
    alpha = solve_alpha(psi, branch_state.params).values
    ref = alpha_damped_fixed_point(ps.grid, ps.j0, ps.rho)
    assert np.max(np.abs(alpha - ref)) <= 1e-14


def test_alpha_pcg_warm_start(branch_point):
    # started from a perturbed solution's (alpha, phi) pair, and from a
    # nonzero pair on a zero source, PCG returns the cold solution
    ps = branch_samples(branch_point)
    cold, phi = glcore._alpha_fixed_point(ps.grid, ps.j0, ps.rho, None)
    start = (1.1 * cold, 1.1 * phi)
    warm = glcore._alpha_fixed_point(ps.grid, ps.j0, ps.rho, start)[0]
    assert np.max(np.abs(warm - cold)) <= 1e-15
    zero = glcore._alpha_fixed_point(ps.grid, 0 * ps.j0, ps.rho, start)[0]
    assert np.max(np.abs(zero)) <= 1e-15


def test_alpha_pcg_restarts_from_its_own_pair(branch_point, monkeypatch):
    # from its own converged (alpha, phi), PCG transforms the residual once
    # (one spectrum, no field) before its first iteration, which opens with a
    # field transform, and stops in that iteration with alpha where it started
    ps = branch_samples(branch_point)
    pair = glcore._alpha_fixed_point(ps.grid, ps.j0, ps.rho, None)
    calls = []
    for name in ("_spectrum", "_field"):
        fn = getattr(CellGrid, name)
        monkeypatch.setattr(CellGrid, name,
                            lambda *a, _fn=fn, _name=name, **kw: calls.append(_name)
                            or _fn(*a, **kw))
    monkeypatch.setattr(glcore, "ALPHA_MAX_ITER", 1)
    alpha, phi = glcore._alpha_fixed_point(ps.grid, ps.j0, ps.rho, pair)
    assert calls == ["_spectrum", "_field", "_spectrum"]
    assert np.max(np.abs(alpha - pair[0])) <= 1e-15
    assert np.max(np.abs(phi - pair[1])) <= 1e-15 * np.max(np.abs(pair[1]))


def test_alpha_stall_is_reported(branch_point, monkeypatch):
    ps = branch_samples(branch_point)
    monkeypatch.setattr(glcore, "ALPHA_MAX_ITER", 1)
    with pytest.raises(glcore.AlphaSolveError,
                       match=r"after 1 iterations: last step \S+, preconditioned "
                             r"residual \S+") as exc:
        glcore._alpha_fixed_point(ps.grid, ps.j0, ps.rho, None)
    assert "nan" not in str(exc.value)


# ----------------------------------------------------------------------
# residuals / map_F
# ----------------------------------------------------------------------
def test_residuals_normal_state(basis_sq):
    st = normal_state(GLParams(1.0, 1, 1.0), basis_sq.shape, basis_sq.N)
    rpsi, ralpha = residuals(basis_sq, np.zeros(17, complex), st.alpha, st.params)
    assert norm_avg(sample(basis_sq, rpsi)) < 1e-15
    assert np.max(np.abs(ralpha)) < 1e-15


def test_residuals_theta_state(basis_sq):
    # (psi0, 0, lam = n): psi residual = kappa^2 |psi0|^2 psi0,
    # alpha residual = -Im(conj(psi0) grad psi0)
    kappa = 1.3
    d = np.zeros(17, complex)
    d[0] = 1.0
    psi = sample(basis_sq, d)
    rpsi, ralpha = residuals(
        basis_sq, d, glcore.PeriodicVectorField(np.zeros((2, 64, 64)), basis_sq.grid),
        GLParams(kappa, 1, 1.0))
    psi0_d = basis_sq.synth(d)
    cubic = basis_sq.project(kappa**2 * np.abs(psi0_d) ** 2 * psi0_d)
    assert np.max(np.abs(rpsi - cubic)) < 1e-12
    D1, D2 = covariant_gradient(basis_sq, d)
    j0 = np.stack([np.imag(np.conj(psi) * D1), np.imag(np.conj(psi) * D2)])
    assert np.max(np.abs(ralpha + j0)) < 1e-12


def test_branch_point_residuals_small(branch_point, branch_state):
    basis, pt = branch_point
    rpsi, ralpha = residuals(basis, pt.psi_coeffs, branch_state.alpha, branch_state.params)
    assert norm_avg(sample(basis, rpsi)) / norm_avg(branch_state.psi.values) < 1e-8
    assert np.sqrt(np.mean(ralpha**2)) < 1e-10


def test_map_F_zero_and_realness(basis_sq, rng):
    F0 = map_F(basis_sq, np.zeros(17, complex), 1.1, 1.0)
    assert norm_avg(sample(basis_sq, F0)) == 0.0
    d = random_coeffs(basis_sq, rng)
    F = map_F(basis_sq, d, 1.05, 1.3)
    assert abs(complex(inner_avg(sample(basis_sq, d), sample(basis_sq, F))).imag) < 1e-10


def test_map_F_gauge_equivariance(basis_sq, rng):
    d = random_coeffs(basis_sq, rng)
    delta = 0.7
    F = sample(basis_sq, map_F(basis_sq, d, 1.05, 1.3))
    F_rot = sample(basis_sq, map_F(basis_sq, np.exp(1j * delta) * d, 1.05, 1.3))
    assert np.max(np.abs(F_rot - np.exp(1j * delta) * F)) < 1e-10


# ----------------------------------------------------------------------
# flux / supercurrent
# ----------------------------------------------------------------------
def test_flux_background_only(basis_sq):
    st = normal_state(GLParams(1.0, 1, 1.0), basis_sq.shape, basis_sq.N)
    assert flux(st) == pytest.approx(2 * np.pi, abs=1e-12)


def test_flux_with_alpha(branch_state):
    assert flux(branch_state) == pytest.approx(2 * np.pi, abs=1e-12)


def test_flux_multiquantum(shape_square):
    st = normal_state(GLParams(1.0, 3, 3.0), shape_square, 48)
    assert flux(st) == pytest.approx(6 * np.pi, abs=1e-12)


def test_supercurrent_zero_field(basis_sq):
    st = normal_state(GLParams(1.0, 1, 1.0), basis_sq.shape, basis_sq.N)
    assert np.max(np.abs(supercurrent(st))) == 0.0


def test_supercurrent_divergence_free_on_branch(branch_state):
    J = supercurrent(branch_state)
    grid = branch_state.alpha.grid
    assert np.max(np.abs(grid.div(J))) < 1e-8
    assert np.max(np.abs(J.mean(axis=(1, 2)))) < 1e-8


# ----------------------------------------------------------------------
# operator identities and invariances
# ----------------------------------------------------------------------
def test_curlstar_curl_is_neg_laplacian_on_constraint_space(basis_sq, rng):
    grid = basis_sq.grid
    for _ in range(100):
        v = rng.standard_normal((2, 64, 64))
        p = helmholtz_project(grid, v)
        lhs = curl_star_curl(grid, p)
        rhs = -np.stack([grid.div(grid.grad(c)) for c in p])
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_M_strictly_positive(basis_sq):
    assert min_nonzero_gsq(basis_sq.grid) > 0.5


def test_kernel_ladder_and_sample_routes_agree(branch_point, branch_state):
    # D psi from the ladder algebra (the coefficient vector) against the
    # qp_derivatives grid route (its samples), on the same N grid
    basis, pt = branch_point
    alpha = branch_state.alpha.values
    ladder = output_samples(basis, pt.psi_coeffs)
    grid = glcore._samples(branch_state.psi)
    assert np.array_equal(grid.psi, ladder.psi)
    J_ladder = ladder.j0 - ladder.rho[None] * alpha
    J_grid = grid.j0 - grid.rho[None] * alpha
    assert np.max(np.abs(J_grid - J_ladder)) <= 1e-12
    r_ladder = alpha_residual_rms(ladder, alpha)
    r_grid = alpha_residual_rms(grid, alpha)
    assert abs(r_grid - r_ladder) <= 1e-12


def test_gauge_invariance_of_observables(branch_state, rng):
    grid = branch_state.alpha.grid
    y1, y2 = grid.y
    eta = 0.4 * np.sin(2 * np.pi * y1) - 0.7 * np.cos(2 * np.pi * (y1 - y2))
    st2 = gauge_transform_state(branch_state, eta)
    assert abs(energy(st2) - energy(branch_state)) < 1e-10
    assert np.max(np.abs(np.abs(st2.psi.values) - np.abs(branch_state.psi.values))) < 1e-12
    c1 = grid.curl(branch_state.alpha.values)
    c2 = grid.curl(st2.alpha.values)
    assert np.max(np.abs(c1 - c2)) < 1e-8
    J1 = supercurrent(branch_state)
    J2 = supercurrent(st2)
    assert np.max(np.abs(np.hypot(J1[0], J1[1]) - np.hypot(J2[0], J2[1]))) < 1e-10


def test_energy_stationary_at_branch_point(branch_point, branch_state, rng):
    st = branch_state
    basis, pt = branch_point
    e0 = energy(st)
    eps = 1e-5
    worst = 0.0
    for _ in range(20):
        dpsi = np.zeros_like(pt.psi_coeffs)
        dpsi[:8] = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        dpsi /= np.linalg.norm(dpsi)
        dal = helmholtz_project(st.alpha.grid, rng.standard_normal((2, 64, 64)))
        dal /= np.sqrt(np.mean(dal[0] ** 2 + dal[1] ** 2))
        es = []
        for sgn in (+1, -1):
            psi2 = field_from_coeffs(basis, pt.psi_coeffs + sgn * eps * dpsi)
            al2 = glcore.PeriodicVectorField(st.alpha.values + sgn * eps * dal,
                                             st.alpha.grid)
            es.append(energy(GLState(psi2, al2, st.params)))
        worst = max(worst, abs(es[0] - es[1]) / (2 * eps))
    assert worst < 1e-6


def test_params_validation():
    with pytest.raises(ValueError):
        GLParams(kappa=-1.0, n=1, lam=1.0)
    with pytest.raises(ValueError):
        GLParams(kappa=1.0, n=1, lam=0.0)
    p = GLParams(kappa=1.0, n=2, lam=4.0)
    assert p.b == pytest.approx(0.5)
