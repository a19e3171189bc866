import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (LadderTerm, basis_evaluate, dense_tables, magnetic_shift,
                       theta_extended, unit_field)
from vortexlattice import landau
from vortexlattice.landau import (LandauBasis, cell_average, covariant_gradient,
                                  covariant_gradient_grid, field_from_coeffs,
                                  inner_avg, ladder_apply, landau_apply, norm_avg,
                                  qp_derivatives, quasi_periodicity_residual,
                                  theta_null_basis)
from vortexlattice.lattice import normalize_tau

# frozen oracle values from the independent lattice sum (test_abrikosov
# recomputes them from scratch)
BETA_SQUARE = 1.1803405990160964
BETA_TRI = 1.1595952669639285


def random_field(basis, rng, levels=8, scale=1.0):
    d = np.zeros((basis.K_lev + 1, basis.n), dtype=complex)
    d[:levels] = scale * (rng.standard_normal((levels, basis.n))
                          + 1j * rng.standard_normal((levels, basis.n)))
    return field_from_coeffs(basis, d)


# ----------------------------------------------------------------------
# theta null basis
# ----------------------------------------------------------------------
@pytest.mark.parametrize("tau", [1j, np.exp(1j * np.pi / 3), 0.3 + 1.3j])
def test_theta_field_is_annihilated(tau):
    shape, _ = normalize_tau(tau)
    psi0 = theta_null_basis(1, shape, N=64)[0]
    assert landau.annihilator_residual(psi0) < 1e-10
    assert quasi_periodicity_residual(psi0) < 1e-12
    assert abs(cell_average(np.abs(psi0.values) ** 2) - 1.0) < 1e-13


def test_theta_quartic_average_square(shape_square):
    psi0 = theta_null_basis(1, shape_square, N=64)[0]
    assert abs(cell_average(np.abs(psi0.values) ** 4) - BETA_SQUARE) < 1e-10


def test_theta_basis_n2_gram(shape_square):
    fields = theta_null_basis(2, shape_square, N=64)
    assert len(fields) == 2
    G = np.array([[inner_avg(f.values, g.values) for g in fields] for f in fields])
    assert np.max(np.abs(G - np.eye(2))) < 1e-12
    assert np.linalg.cond(G) < 1.0001
    for f in fields:
        assert landau.annihilator_residual(f) < 1e-10


def test_theta_coeff_recursion(shape_generic):
    basis = LandauBasis(1, shape_generic, 64, K_lev=0)
    th = basis.theta
    for k in (-3, 0, 2, 5):
        lhs = theta_extended(th, k + th.n)
        rhs = np.exp(1j * th.n * np.pi * th.tau) * np.exp(2j * k * np.pi * th.tau) \
            * theta_extended(th, k)
        assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), 1e-30)
    # tail below 1e-14 of the maximum at the retained truncation
    assert abs(theta_extended(th, th.K + 1)) < 1e-14 * abs(theta_extended(th, 0))


def test_grid_refinement_converged(shape_tri):
    v1 = cell_average(np.abs(theta_null_basis(1, shape_tri, N=64)[0].values) ** 4)
    v2 = cell_average(np.abs(theta_null_basis(1, shape_tri, N=128)[0].values) ** 4)
    assert abs(v1 - v2) < 1e-12


def test_basis_rejects_extreme_shapes():
    shape, _ = normalize_tau(25j)
    with pytest.raises(ValueError, match="tau2=25 above the supported 20"):
        LandauBasis(1, shape, K_lev=0)


def test_coarse_output_grid_matches_dense_tables(shape_square):
    # terms fold exactly into the bins of any output grid, so an N = 8 grid
    # (coarser than four times the theta truncation) samples the basis exactly
    basis = LandauBasis(1, shape_square, 8, K_lev=0)
    ref = dense_tables(basis, *basis.grid.x)[0, 0]
    assert np.max(np.abs(basis.synth(np.ones((1, 1))) - ref)) < 1e-14


# ----------------------------------------------------------------------
# ladder algebra
# ----------------------------------------------------------------------
def test_lower_annihilates_ground_level(shape_square):
    psi0 = theta_null_basis(1, shape_square, N=48)[0]
    low = ladder_apply(psi0, "lower")
    assert norm_avg(low.values) < 1e-14


def test_lower_raise_commutator(shape_generic):
    psi0 = theta_null_basis(1, shape_generic, N=48)[0]
    f = ladder_apply(ladder_apply(psi0, "raise"), "lower")
    assert np.max(np.abs(f.values - 2 * psi0.values)) < 1e-12


def test_raise_norm_factor(shape_generic):
    psi0 = theta_null_basis(1, shape_generic, N=48)[0]
    up = ladder_apply(psi0, "raise")
    val = inner_avg(up.values, up.values)
    assert abs(val - 2.0) < 1e-12


@pytest.mark.parametrize("k", [0, 2, 7])
def test_ladder_coefficient_identities(shape_square, k):
    basis = LandauBasis(1, shape_square, 48, K_lev=12)
    d = np.zeros((13, 1), complex)
    d[k, 0] = 1.0
    n = 1
    down_up = basis.lower_coeffs(basis.raise_coeffs(d))
    assert abs(down_up[k, 0] - 2 * n * (k + 1)) < 1e-12
    up_down = basis.raise_coeffs(basis.lower_coeffs(d))
    assert abs(up_down[k, 0] - 2 * n * k) < 1e-12


def test_ladder_adjointness(shape_generic, rng):
    basis = LandauBasis(1, shape_generic, 64, K_lev=12)
    f = random_field(basis, rng)
    g = random_field(basis, rng)
    lhs = inner_avg(basis.synth(basis.lower_coeffs(f.coeffs)), g.values)
    rhs = inner_avg(f.values, basis.synth(basis.raise_coeffs(g.coeffs)))
    assert abs(lhs - rhs) < 1e-12


def test_explicit_raise_operator_matches_grid(shape_generic):
    # -d1 + i d2 + (n/2)(x1 - i x2) applied through independent spectral
    # derivatives reproduces the ladder action with factor sqrt(2n(k+1))
    basis = LandauBasis(1, shape_generic, 64, K_lev=12)
    for k in (0, 4):
        d = np.zeros((13, 1), complex)
        d[k, 0] = 1.0
        f = field_from_coeffs(basis, d)
        D1, D2 = covariant_gradient_grid(f)
        raised = -(D1 - 1j * D2)
        target = np.sqrt(2.0 * (k + 1)) * unit_field(basis, k + 1, 0)
        assert np.max(np.abs(raised - target)) < 1e-11


def test_landau_apply_spectrum(shape_square):
    psi0 = theta_null_basis(1, shape_square, N=48)[0]
    assert np.max(np.abs(landau_apply(psi0).values - psi0.values)) < 1e-12
    basis2 = LandauBasis(2, shape_square, 64, K_lev=4)
    d = np.zeros((5, 2), complex)
    d[1, 0] = 1.0  # level-1 for n = 2: eigenvalue (2*1+1)*2 = 6
    f = field_from_coeffs(basis2, d)
    assert np.max(np.abs(landau_apply(f).values - 6 * f.values)) < 1e-11


def test_landau_equals_raise_lower_plus_n(shape_generic, rng):
    basis = LandauBasis(1, shape_generic, 64, K_lev=12)
    f = random_field(basis, rng)
    via_ladder = basis.raise_coeffs(basis.lower_coeffs(f.coeffs)) + f.coeffs
    assert np.max(np.abs(basis.landau_coeffs(f.coeffs) - via_ladder)) < 1e-12


# ----------------------------------------------------------------------
# covariant gradient
# ----------------------------------------------------------------------
def test_first_order_equation(shape_tri):
    psi0 = theta_null_basis(1, shape_tri, N=48)[0]
    D1, D2 = covariant_gradient(psi0)
    assert norm_avg(D1.values + 1j * D2.values) < 1e-13


def test_current_identity(shape_tri):
    # Im(conj(psi0) grad_A psi0) = -(1/2) curl* |psi0|^2
    psi0 = theta_null_basis(1, shape_tri, N=64)[0]
    D1, D2 = covariant_gradient(psi0)
    J = np.stack([np.imag(np.conj(psi0.values) * D1.values),
                  np.imag(np.conj(psi0.values) * D2.values)])
    target = -0.5 * psi0.grid.curl_star(np.abs(psi0.values) ** 2)
    assert np.max(np.abs(J - target)) < 1e-10


def test_dirichlet_form_identity(shape_generic, rng):
    # <f, L f> = |D1 f|^2 + |D2 f|^2 + n <f, f> offsets by the zero-point term
    basis = LandauBasis(1, shape_generic, 64, K_lev=10)
    f = random_field(basis, rng)
    D1, D2 = covariant_gradient(f)
    lhs = inner_avg(f.values, basis.synth(basis.landau_coeffs(f.coeffs)))
    rhs = inner_avg(D1.values, D1.values) + inner_avg(D2.values, D2.values)
    assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(lhs))


def test_gradient_reconstructs_annihilator(shape_generic, rng):
    basis = LandauBasis(1, shape_generic, 48, K_lev=10)
    f = random_field(basis, rng)
    D1, D2 = covariant_gradient(f)
    alpha_f = basis.synth(basis.lower_coeffs(f.coeffs))
    assert np.max(np.abs(D1.values + 1j * D2.values - alpha_f)) < 1e-11


# ----------------------------------------------------------------------
# averages, residuals, shifts
# ----------------------------------------------------------------------
def test_cell_average_constant():
    assert cell_average(np.full((8, 8), 2.5)) == pytest.approx(2.5)


def test_cell_average_rejects_quasiperiodic(shape_square):
    psi0 = theta_null_basis(1, shape_square, N=32)[0]
    with pytest.raises(TypeError):
        cell_average(psi0)


def test_qp_residual_detects_wrong_flux(shape_square):
    psi0 = theta_null_basis(1, shape_square, N=64)[0]
    wrong = psi0.copy_with(n=2, coeffs=None, basis=None)
    assert quasi_periodicity_residual(wrong) > 0.1


def test_qp_residual_detects_noise(shape_square, rng):
    psi0 = theta_null_basis(1, shape_square, N=64)[0]
    eps = 1e-6
    noisy = psi0.copy_with(values=psi0.values + eps * rng.standard_normal((64, 64)))
    assert quasi_periodicity_residual(noisy) >= eps / 2


def test_magnetic_shift_matches_closed_form(shape_generic):
    basis = LandauBasis(1, shape_generic, 48, K_lev=0)
    psi0 = theta_null_basis(1, shape_generic, N=48)[0]
    dy = (0.237, -0.411)
    shifted = magnetic_shift(psi0, dy)
    y1, y2 = basis.grid.y
    m = basis.geom.m_tau
    x1 = m[0, 0] * (y1 + dy[0]) + m[0, 1] * (y2 + dy[1])
    x2 = m[1, 0] * (y1 + dy[0]) + m[1, 1] * (y2 + dy[1])
    direct = basis_evaluate(basis, 0, 0, x1, x2)
    assert np.max(np.abs(shifted.values - direct)) < 1e-11


def test_magnetic_shift_by_lattice_vector(shape_generic):
    psi0 = theta_null_basis(1, shape_generic, N=48)[0]
    shifted = magnetic_shift(psi0, (1.0, 0.0))
    y1, y2 = psi0.grid.y
    assert np.max(np.abs(shifted.values - np.exp(1j * np.pi * y2) * psi0.values)) < 1e-11


def test_qp_derivatives_match_ladder_route(shape_generic, rng):
    basis = LandauBasis(1, shape_generic, 64, K_lev=10)
    f = random_field(basis, rng)
    D1c, D2c = covariant_gradient(f)
    D1g, D2g = covariant_gradient_grid(f)
    assert np.max(np.abs(D1c.values - D1g)) < 1e-10
    assert np.max(np.abs(D2c.values - D2g)) < 1e-10


# ----------------------------------------------------------------------
# separable transform against the dense tables
# ----------------------------------------------------------------------
# the last case folds 34 theta terms into the 24 bins of the output grid and
# the 32 of the solve grid, with the terms that share a bin both visible on
# the cell at high levels
TRANSFORM_CASES = [(1, 1j, 32, 8), (1, 0.3 + 1.2j, 48, 12), (2, 0.45 + 0.95j, 32, 4),
                   (3, 1j, 24, 100)]


@pytest.mark.parametrize("n, tau, N, K_lev", TRANSFORM_CASES)
def test_transform_matches_dense_tables(n, tau, N, K_lev, rng):
    # synth on both grids and project against the term-by-term tables
    basis = LandauBasis(n, normalize_tau(tau)[0], N, K_lev=K_lev)
    G = basis.solve_N
    phi = dense_tables(basis, *basis.grid.x)
    phi_s = dense_tables(basis, *basis.solve_grid.x)
    c = rng.standard_normal((K_lev + 1, n)) + 1j * rng.standard_normal((K_lev + 1, n))
    v = rng.standard_normal((G, G)) + 1j * rng.standard_normal((G, G))
    for got, ref in ((basis.synth(c), np.tensordot(c, phi, axes=([0, 1], [0, 1]))),
                     (basis.synth(c, solve=True),
                      np.tensordot(c, phi_s, axes=([0, 1], [0, 1]))),
                     (basis.project(v),
                      np.einsum("kjxy,xy->kj", np.conj(phi_s), v) / v.size)):
        assert np.max(np.abs(got - ref)) < 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("n, tau, N, K_lev", TRANSFORM_CASES)
def test_project_is_the_adjoint_of_synth(n, tau, N, K_lev, rng):
    basis = LandauBasis(n, normalize_tau(tau)[0], N, K_lev=K_lev)
    G = basis.solve_N
    c = rng.standard_normal((K_lev + 1, n)) + 1j * rng.standard_normal((K_lev + 1, n))
    v = rng.standard_normal((G, G)) + 1j * rng.standard_normal((G, G))
    lhs = inner_avg(basis.synth(c, solve=True), v)
    rhs = np.vdot(c, basis.project(v))
    assert abs(lhs - rhs) < 1e-14 * abs(lhs)


@pytest.mark.parametrize("n, tau, N, K_lev", [(1, 1j, 32, 8), (1, 0.3 + 1.2j, 48, 12),
                                              (2, 0.45 + 0.95j, 32, 4)])
def test_output_and_solve_grid_synth_match_dense_tables(n, tau, N, K_lev, rng):
    # the output grid N and the solve grid are sampled by separate tables
    basis = LandauBasis(n, normalize_tau(tau)[0], N, K_lev=K_lev)
    c = rng.standard_normal((K_lev + 1, n)) + 1j * rng.standard_normal((K_lev + 1, n))
    for got, grid in ((basis.synth(c), basis.grid),
                      (basis.synth(c, solve=True), basis.solve_grid)):
        ref = np.tensordot(c, dense_tables(basis, *grid.x), axes=([0, 1], [0, 1]))
        assert np.max(np.abs(got - ref)) < 1e-14 * np.max(np.abs(ref))


def test_basis_memory_is_bounded(shape_generic):
    # profiles, carriers and mix of the solve grid and the N=128 output grid at
    # K_lev=40; the dense (K_lev+1, n, 2N, 2N) table they replace held 43 MB
    basis = LandauBasis(1, shape_generic, 128, K_lev=40)
    basis.synth(np.zeros((41, 1), complex))
    held = sum(v.nbytes for v in vars(basis).values() if isinstance(v, np.ndarray))
    held += sum(a.nbytes for a in basis._output_table)
    assert held <= 6e6


# ----------------------------------------------------------------------
# LadderTerm polynomial carrier
# ----------------------------------------------------------------------
def test_ladderterm_degree_invariant():
    t = LadderTerm(0, 2, np.array([1.0 + 0j]))
    for lev in range(1, 6):
        t = t.raised(1, 2.0)
        assert t.level == lev
        assert len(t.poly) == lev + 1
    with pytest.raises(ValueError):
        LadderTerm(2, 0, np.array([1.0 + 0j]))


def test_ladderterm_matches_hermite_tables(shape_generic):
    basis = LandauBasis(1, shape_generic, 48, K_lev=6)
    lev = 5
    x1, x2 = basis.grid.x
    vals = np.zeros_like(x1, dtype=complex)
    for m in range(-basis.theta.K, basis.theta.K + 1):
        term = LadderTerm(0, m, np.array([theta_extended(basis.theta, m)]))
        for _ in range(lev):
            term = term.raised(1, basis.nu)
        vals += term.evaluate(1, basis.nu, x1, x2)
    vals /= math.sqrt(2.0**lev * math.factorial(lev))
    ref = unit_field(basis, lev, 0)
    scale = norm_avg(vals) / norm_avg(ref)
    assert np.max(np.abs(vals / scale - ref)) < 1e-11


# ----------------------------------------------------------------------
# finite-difference backend
# ----------------------------------------------------------------------
def test_fd_spectrum_lowest_levels():
    vals = landau.fd_spectrum(1, 64)
    assert np.allclose(vals[:4], [1, 3, 5, 7], rtol=2e-3)


def test_fd_spectrum_is_deterministic():
    # the eigensolver starts from a fixed vector, so reruns give the same bytes
    assert landau.fd_spectrum(1, 64).tobytes() == landau.fd_spectrum(1, 64).tobytes()


@given(st.integers(min_value=0, max_value=10), st.integers(min_value=1, max_value=3))
@settings(max_examples=30, deadline=None)
def test_ladder_factors_property(k, n):
    # raise-then-lower on level k multiplies by 2n(k+1); reverse by 2nk
    shape, _ = normalize_tau(1j)
    basis = LandauBasis(n, shape, 64, K_lev=12)
    d = np.zeros((13, n), complex)
    d[k, 0] = 1.0
    assert abs(basis.lower_coeffs(basis.raise_coeffs(d))[k, 0] - 2 * n * (k + 1)) < 1e-12
    assert abs(basis.raise_coeffs(basis.lower_coeffs(d))[k, 0] - 2 * n * k) < 1e-12
