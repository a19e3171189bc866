import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import eigsh

from reference import (FullSpectrumGrid, LadderTerm, basis_evaluate, cell_average,
                       covariant_gradient, dense_tables, ladder_apply,
                       landau_apply, lowest_level_field, magnetic_laplacian_fd,
                       magnetic_shift, sample, theta_extended, unit_field)
from vortexlattice import landau
from vortexlattice.landau import (LandauBasis, QuasiPeriodicField,
                                  covariant_gradient_grid, field_from_coeffs,
                                  inner_avg, magnetic_shift_values, norm_avg,
                                  qp_derivatives, quasi_periodicity_residual,
                                  theta_field)
from vortexlattice.lattice import normalize_tau

# frozen oracle values from the independent lattice sum (test_abrikosov
# recomputes them from scratch)
BETA_SQUARE = 1.1803405990160964
BETA_TRI = 1.1595952669639285


def theta_series(basis):
    """The (n, tau, seed c_0) record of a basis's lowest-level theta series,
    and the truncation K = max |m| of its term range."""
    theta = SimpleNamespace(n=1, tau=complex(basis.shape.tau), c=np.ones(1, dtype=complex))
    return theta, max(-basis._m_range[0], basis._m_range[1])


def random_coeffs(basis, rng, levels=8, scale=1.0):
    d = np.zeros(basis.K_lev + 1, dtype=complex)
    d[:levels] = scale * (rng.standard_normal(levels) + 1j * rng.standard_normal(levels))
    return d


def theta_table(shape, N):
    """The basis of theta_field(shape, N) and the coefficient vector of its
    field."""
    basis = LandauBasis(shape, N, K_lev=4)
    c = np.zeros(5, complex)
    c[0] = 1.0
    return basis, c


# ----------------------------------------------------------------------
# theta field
# ----------------------------------------------------------------------
@pytest.mark.parametrize("tau", [1j, np.exp(1j * np.pi / 3), 0.3 + 1.3j])
def test_theta_field_is_annihilated(tau):
    shape, _ = normalize_tau(tau)
    psi0 = theta_field(shape, N=64)
    assert landau.annihilator_residual(psi0) < 1e-10
    assert quasi_periodicity_residual(psi0) < 1e-12
    assert abs(cell_average(np.abs(psi0.values) ** 2) - 1.0) < 1e-13


def test_theta_quartic_average_square(shape_square):
    psi0 = theta_field(shape_square, N=64)
    assert abs(cell_average(np.abs(psi0.values) ** 4) - BETA_SQUARE) < 1e-10


def test_powers_of_the_theta_field_carry_n_flux_quanta():
    # psi0^n lies in the lowest level of n flux quanta: the grid route's
    # annihilator and boundary phases take a general n
    for tau in (1j, np.exp(1j * np.pi / 3), 0.3 + 1.2j):
        shape, _ = normalize_tau(tau)
        for N in (48, 64):
            for n in (2, 3):
                f = lowest_level_field(shape, n, N)
                assert landau.annihilator_residual(f) < 1e-13
                assert quasi_periodicity_residual(f) < 1e-13
                assert quasi_periodicity_residual(replace(f, n=n - 1)) > 0.1


def test_theta_coeff_recursion(shape_generic):
    basis = LandauBasis(shape_generic, 64, K_lev=0)
    th, K = theta_series(basis)
    for k in (-3, 0, 2, 5):
        lhs = theta_extended(th, k + th.n)
        rhs = np.exp(1j * th.n * np.pi * th.tau) * np.exp(2j * k * np.pi * th.tau) \
            * theta_extended(th, k)
        assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), 1e-30)
    # tail below 1e-14 of the maximum at the retained truncation
    assert abs(theta_extended(th, K + 1)) < 1e-14 * abs(theta_extended(th, 0))


def test_grid_refinement_converged(shape_tri):
    v1 = cell_average(np.abs(theta_field(shape_tri, N=64).values) ** 4)
    v2 = cell_average(np.abs(theta_field(shape_tri, N=128).values) ** 4)
    assert abs(v1 - v2) < 1e-12


def test_basis_rejects_extreme_shapes():
    shape, _ = normalize_tau(25j)
    with pytest.raises(ValueError, match="tau2=25 above the supported 20"):
        LandauBasis(shape, K_lev=0)


def test_coarse_output_grid_matches_dense_tables(shape_square):
    # terms fold exactly into the bins of any output grid, so an N = 8 grid
    # (coarser than four times the theta truncation) samples the basis exactly
    basis = LandauBasis(shape_square, 8, K_lev=0)
    ref = dense_tables(basis, *basis.grid.x)[0]
    assert np.max(np.abs(sample(basis, np.ones(1)) - ref)) < 1e-14


# ----------------------------------------------------------------------
# ladder algebra
# ----------------------------------------------------------------------
def test_lower_annihilates_ground_level(shape_square):
    basis, c = theta_table(shape_square, 48)
    low = sample(basis, ladder_apply(basis, c, "lower"))
    assert norm_avg(low) < 1e-14


def test_lower_raise_commutator(shape_generic):
    basis, c = theta_table(shape_generic, 48)
    f = sample(basis, ladder_apply(basis, ladder_apply(basis, c, "raise"), "lower"))
    assert np.max(np.abs(f - 2 * sample(basis, c))) < 1e-12


def test_raise_norm_factor(shape_generic):
    basis, c = theta_table(shape_generic, 48)
    up = sample(basis, ladder_apply(basis, c, "raise"))
    val = inner_avg(up, up)
    assert abs(val - 2.0) < 1e-12


@pytest.mark.parametrize("k", [0, 2, 7])
def test_ladder_coefficient_identities(shape_square, k):
    basis = LandauBasis(shape_square, 48, K_lev=12)
    d = np.zeros(13, complex)
    d[k] = 1.0
    down_up = basis.lower_coeffs(basis.raise_coeffs(d))
    assert abs(down_up[k] - 2 * (k + 1)) < 1e-12
    up_down = basis.raise_coeffs(basis.lower_coeffs(d))
    assert abs(up_down[k] - 2 * k) < 1e-12


def test_ladder_adjointness(shape_generic, rng):
    basis = LandauBasis(shape_generic, 64, K_lev=12)
    f = random_coeffs(basis, rng)
    g = random_coeffs(basis, rng)
    lhs = inner_avg(sample(basis, basis.lower_coeffs(f)), sample(basis, g))
    rhs = inner_avg(sample(basis, f), sample(basis, basis.raise_coeffs(g)))
    assert abs(lhs - rhs) < 1e-12


def test_explicit_raise_operator_matches_grid(shape_generic):
    # -d1 + i d2 + (1/2)(x1 - i x2) applied through independent spectral
    # derivatives reproduces the ladder action with factor sqrt(2(k+1))
    basis = LandauBasis(shape_generic, 64, K_lev=12)
    for k in (0, 4):
        d = np.zeros(13, complex)
        d[k] = 1.0
        f = field_from_coeffs(basis, d)
        D1, D2 = covariant_gradient_grid(f)
        raised = -(D1 - 1j * D2)
        target = np.sqrt(2.0 * (k + 1)) * unit_field(basis, k + 1)
        assert np.max(np.abs(raised - target)) < 1e-11


def test_landau_apply_spectrum(shape_square):
    basis, c = theta_table(shape_square, 48)
    assert np.max(np.abs(sample(basis, landau_apply(basis, c)) - sample(basis, c))) < 1e-12


def test_landau_equals_raise_lower_plus_n(shape_generic, rng):
    basis = LandauBasis(shape_generic, 64, K_lev=12)
    f = random_coeffs(basis, rng)
    via_ladder = basis.raise_coeffs(basis.lower_coeffs(f)) + f
    assert np.max(np.abs(basis.landau_coeffs(f) - via_ladder)) < 1e-12


# ----------------------------------------------------------------------
# covariant gradient
# ----------------------------------------------------------------------
def test_first_order_equation(shape_tri):
    D1, D2 = covariant_gradient(*theta_table(shape_tri, 48))
    assert norm_avg(D1 + 1j * D2) < 1e-13


def test_current_identity(shape_tri):
    # Im(conj(psi0) grad_A psi0) = -(1/2) curl* |psi0|^2
    basis, c = theta_table(shape_tri, 64)
    psi0 = sample(basis, c)
    D1, D2 = covariant_gradient(basis, c)
    J = np.stack([np.imag(np.conj(psi0) * D1), np.imag(np.conj(psi0) * D2)])
    target = -0.5 * FullSpectrumGrid(basis.grid.m, basis.N).curl_star(np.abs(psi0) ** 2)
    assert np.max(np.abs(J - target)) < 1e-10


def test_dirichlet_form_identity(shape_generic, rng):
    # <f, L f> = |D1 f|^2 + |D2 f|^2 + n <f, f> offsets by the zero-point term
    basis = LandauBasis(shape_generic, 64, K_lev=10)
    f = random_coeffs(basis, rng)
    D1, D2 = covariant_gradient(basis, f)
    lhs = inner_avg(sample(basis, f), sample(basis, basis.landau_coeffs(f)))
    rhs = inner_avg(D1, D1) + inner_avg(D2, D2)
    assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(lhs))


def test_gradient_reconstructs_annihilator(shape_generic, rng):
    basis = LandauBasis(shape_generic, 48, K_lev=10)
    f = random_coeffs(basis, rng)
    D1, D2 = covariant_gradient(basis, f)
    alpha_f = sample(basis, basis.lower_coeffs(f))
    assert np.max(np.abs(D1 + 1j * D2 - alpha_f)) < 1e-11


# ----------------------------------------------------------------------
# averages, residuals, shifts
# ----------------------------------------------------------------------
def test_cell_average_constant():
    assert cell_average(np.full((8, 8), 2.5)) == pytest.approx(2.5)


def test_cell_average_rejects_quasiperiodic(shape_square):
    psi0 = theta_field(shape_square, N=32)
    with pytest.raises(TypeError):
        cell_average(psi0)


def test_qp_residual_detects_wrong_flux(shape_square):
    psi0 = theta_field(shape_square, N=64)
    wrong = replace(psi0, n=2)
    assert quasi_periodicity_residual(wrong) > 0.1


def test_qp_residual_detects_noise(shape_square, rng):
    psi0 = theta_field(shape_square, N=64)
    eps = 1e-6
    noisy = replace(psi0, values=psi0.values + eps * rng.standard_normal((64, 64)))
    assert quasi_periodicity_residual(noisy) >= eps / 2


def test_magnetic_shift_matches_closed_form(shape_generic):
    basis = LandauBasis(shape_generic, 48, K_lev=0)
    psi0 = theta_field(shape_generic, N=48)
    dy = (0.237, -0.411)
    shifted = magnetic_shift(psi0, dy)
    y1, y2 = basis.grid.y
    m = basis.geom.m_tau
    x1 = m[0, 0] * (y1 + dy[0]) + m[0, 1] * (y2 + dy[1])
    x2 = m[1, 0] * (y1 + dy[0]) + m[1, 1] * (y2 + dy[1])
    direct = basis_evaluate(basis, 0, x1, x2)
    assert np.max(np.abs(shifted.values - direct)) < 1e-11


def test_magnetic_shift_by_lattice_vector(shape_generic):
    psi0 = theta_field(shape_generic, N=48)
    shifted = magnetic_shift(psi0, (1.0, 0.0))
    y1, y2 = psi0.grid.y
    assert np.max(np.abs(shifted.values - np.exp(1j * np.pi * y2) * psi0.values)) < 1e-11



# boundary constants as fix_gauge feeds them: g = exp(i (C1 y1 + C2 y2)) psi0
# has the wrap phases n pi y2 + C1 and -n pi y1 + C2
BC_CONST = (0.3, -0.7)


def shifted_by_constants(psi0):
    y1, y2 = psi0.grid.y
    gauge = np.exp(1j * (BC_CONST[0] * y1 + BC_CONST[1] * y2))
    return gauge, QuasiPeriodicField(n=1, shape=psi0.shape, values=gauge * psi0.values,
                                     bc_const=BC_CONST)


def test_quotient_with_boundary_constants(shape_generic):
    # derivatives of g against the ladder route of psi0 and the phase gradient
    basis, c = theta_table(shape_generic, 48)
    psi0 = field_from_coeffs(basis, c)
    gauge, g = shifted_by_constants(psi0)
    assert quasi_periodicity_residual(g) < 1e-12
    x1, x2 = psi0.grid.x
    D1, D2 = covariant_gradient(basis, c)
    dpsi0 = (D1 - 0.5j * x2 * psi0.values, D2 + 0.5j * x1 * psi0.values)
    grad_phase = psi0.grid.minv_t @ np.array(BC_CONST)
    for got, d, kc in zip(qp_derivatives(g), dpsi0, grad_phase):
        assert np.max(np.abs(got - gauge * (d + 1j * kc * psi0.values))) < 1e-10


@pytest.mark.parametrize("dy", [(0.237, 0.0), (0.0, -0.411), (0.237, -0.411)])
def test_magnetic_shift_with_boundary_constants(shape_generic, dy):
    # g at y + dy in closed form, and the constants of the shifted field
    basis, c = theta_table(shape_generic, 48)
    psi0 = field_from_coeffs(basis, c)
    _, g = shifted_by_constants(psi0)
    vals, bc = magnetic_shift_values(g.values, 1, BC_CONST, dy)
    C1, C2 = BC_CONST
    assert np.allclose(bc, (C1 + np.pi * dy[1], C2 - np.pi * dy[0]), rtol=0, atol=1e-15)
    y1, y2 = psi0.grid.y[0] + dy[0], psi0.grid.y[1] + dy[1]
    m = basis.geom.m_tau
    direct = basis_evaluate(basis, 0, m[0, 0] * y1 + m[0, 1] * y2,
                            m[1, 0] * y1 + m[1, 1] * y2)
    assert np.max(np.abs(vals - np.exp(1j * (C1 * y1 + C2 * y2)) * direct)) < 1e-11
    shifted = QuasiPeriodicField(n=1, shape=psi0.shape, values=vals, bc_const=bc)
    assert quasi_periodicity_residual(shifted) < 1e-12

def test_qp_derivatives_match_ladder_route(shape_generic, rng):
    basis = LandauBasis(shape_generic, 64, K_lev=10)
    f = random_coeffs(basis, rng)
    D1c, D2c = covariant_gradient(basis, f)
    D1g, D2g = covariant_gradient_grid(field_from_coeffs(basis, f))
    assert np.max(np.abs(D1c - D1g)) < 1e-10
    assert np.max(np.abs(D2c - D2g)) < 1e-10


# ----------------------------------------------------------------------
# separable transform against the dense tables
# ----------------------------------------------------------------------
# the last two cases fold the theta terms into fewer bins of the output
# grid (16 terms into 12, 19 into 16), with the terms that share a bin both
# visible on the cell at high levels; a case is named by the basis's flux
# number, 1, and its (tau, N, K_lev)
TRANSFORM_CASES = [pytest.param(tau, N, K_lev, id=f"1-{tau}-{N}-{K_lev}")
                   for tau, N, K_lev in [(1j, 32, 8), (0.3 + 1.2j, 48, 12),
                                         (0.45 + 0.95j, 12, 40), (1j, 16, 100)]]


def random_vector(rng, K_lev):
    return rng.standard_normal(K_lev + 1) + 1j * rng.standard_normal(K_lev + 1)


@pytest.mark.parametrize("tau, N, K_lev", TRANSFORM_CASES)
def test_transform_matches_dense_tables(tau, N, K_lev, rng):
    # field_from_coeffs on the output grid, synth and project on the solve
    # grid, against the term-by-term tables
    basis = LandauBasis(normalize_tau(tau)[0], N, K_lev=K_lev)
    G = basis.solve_N
    phi = dense_tables(basis, *basis.grid.x)
    phi_s = dense_tables(basis, *basis.solve_grid.x)
    c = random_vector(rng, K_lev)
    v = rng.standard_normal((G, G)) + 1j * rng.standard_normal((G, G))
    for got, ref in ((sample(basis, c), np.tensordot(c, phi, axes=1)),
                     (basis.synth(c), np.tensordot(c, phi_s, axes=1)),
                     (basis.project(v), np.einsum("kxy,xy->k", np.conj(phi_s), v) / v.size)):
        assert np.max(np.abs(got - ref)) < 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("tau, N, K_lev", TRANSFORM_CASES)
def test_project_is_the_adjoint_of_synth(tau, N, K_lev, rng):
    basis = LandauBasis(normalize_tau(tau)[0], N, K_lev=K_lev)
    G = basis.solve_N
    c = random_vector(rng, K_lev)
    v = rng.standard_normal((G, G)) + 1j * rng.standard_normal((G, G))
    lhs = inner_avg(basis.synth(c), v)
    rhs = np.vdot(c, basis.project(v))
    assert abs(lhs - rhs) < 1e-14 * abs(lhs)


@pytest.mark.parametrize("tau, N, K_lev", TRANSFORM_CASES)
def test_stacked_synth_is_the_stack_of_synths(tau, N, K_lev, rng):
    # a stack of coefficient vectors synthesizes to the same bits as each
    # vector alone
    basis = LandauBasis(normalize_tau(tau)[0], N, K_lev=K_lev)
    c = rng.standard_normal((3, K_lev + 1)) + 1j * rng.standard_normal((3, K_lev + 1))
    assert np.array_equal(basis.synth(c), np.stack([basis.synth(t) for t in c]))


@pytest.mark.parametrize("tau, N, K_lev", TRANSFORM_CASES[:3])
def test_output_and_solve_grid_synth_match_dense_tables(tau, N, K_lev, rng):
    # the output grid N and the solve grid are sampled by separate tables
    basis = LandauBasis(normalize_tau(tau)[0], N, K_lev=K_lev)
    c = random_vector(rng, K_lev)
    for got, grid in ((sample(basis, c), basis.grid), (basis.synth(c), basis.solve_grid)):
        ref = np.tensordot(c, dense_tables(basis, *grid.x), axes=1)
        assert np.max(np.abs(got - ref)) < 1e-14 * np.max(np.abs(ref))


def test_basis_memory_is_bounded(shape_generic):
    # profiles and carriers of the solve grid and the N=128 output grid at
    # K_lev=40; the dense (K_lev+1, 2N, 2N) table they replace held 43 MB
    basis = LandauBasis(shape_generic, 128, K_lev=40)
    field_from_coeffs(basis, np.zeros(41, complex))
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
    basis = LandauBasis(shape_generic, 48, K_lev=6)
    lev = 5
    x1, x2 = basis.grid.x
    vals = np.zeros_like(x1, dtype=complex)
    th, K = theta_series(basis)
    for m in range(-K, K + 1):
        term = LadderTerm(0, m, np.array([theta_extended(th, m)]))
        for _ in range(lev):
            term = term.raised(1, basis.nu)
        vals += term.evaluate(1, basis.nu, x1, x2)
    vals /= math.sqrt(2.0**lev * math.factorial(lev))
    ref = unit_field(basis, lev)
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


# one Harper chain (gcd(n, N) = 1), two and three; N = 3 is the least N_fd
@pytest.mark.parametrize("n, N", [(1, 3), (1, 16), (1, 32), (2, 16), (3, 24), (3, 32)])
def test_fd_chains_match_the_link_matrix(n, N):
    v0 = np.random.default_rng(0).standard_normal(N * N)
    ref = eigsh(magnetic_laplacian_fd(n, N), k=4 * n + 2, sigma=0.0, v0=v0,
                return_eigenvectors=False)
    assert np.max(np.abs(landau.fd_spectrum(n, N) - np.sort(ref))) < 1e-12


@given(st.integers(min_value=0, max_value=10))
@settings(max_examples=30, deadline=None)
def test_ladder_factors_property(k):
    # raise-then-lower on level k multiplies by 2(k+1); reverse by 2k
    shape, _ = normalize_tau(1j)
    basis = LandauBasis(shape, 64, K_lev=12)
    d = np.zeros(13, complex)
    d[k] = 1.0
    assert abs(basis.lower_coeffs(basis.raise_coeffs(d))[k] - 2 * (k + 1)) < 1e-12
    assert abs(basis.raise_coeffs(basis.lower_coeffs(d))[k] - 2 * k) < 1e-12
