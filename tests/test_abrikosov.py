import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import descend_beta
from vortexlattice import abrikosov as abr
from vortexlattice.lattice import (TAU_SQUARE, TAU_TRIANGULAR,
                                   fundamental_domain_grid, normalize_tau)

TRI = complex(TAU_TRIANGULAR)


def scalar_lattice_sum(tau, R=20):
    """Plain double-loop oracle, independent of the vectorized implementation."""
    total = 0.0
    for m in range(-R, R + 1):
        for k in range(-R, R + 1):
            total += np.exp(-np.pi * (abs(m * tau + k) ** 2) / tau.imag)
    return total


def test_lattice_sum_square_is_separable(shape_square):
    # at tau = i the sum factorizes into (sum_m exp(-pi m^2))^2
    one_dim = sum(np.exp(-np.pi * m * m) for m in range(-12, 13))
    assert abr.beta_lattice_sum(shape_square).beta == pytest.approx(one_dim**2, abs=1e-13)


def test_lattice_sum_against_scalar_loop(shape_tri, shape_generic):
    for shape in (shape_tri, shape_generic):
        tau = complex(shape.tau)
        assert abr.beta_lattice_sum(shape).beta == pytest.approx(
            scalar_lattice_sum(tau), abs=1e-12)


def test_beta_reference_values(shape_square, shape_tri):
    assert abr.beta_lattice_sum(shape_square).beta == pytest.approx(1.1803406, abs=1e-6)
    assert abr.beta_lattice_sum(shape_tri).beta == pytest.approx(1.1595953, abs=1e-6)


def test_lattice_sum_translation_invariant(shape_square):
    assert abr.beta_of(1j) == pytest.approx(abr.beta_of(1j + 1), abs=1e-14)


def test_quadrature_matches_sum_on_grid():
    for tau in fundamental_domain_grid(6, 6):
        shape, _ = normalize_tau(tau)
        q = abr.beta_quadrature(shape).beta
        s = abr.beta_lattice_sum(shape).beta
        assert abs(q - s) < 1e-10


def test_quadrature_invariant_under_inversion():
    # same lattice reached through -1/tau reduces to the same shape and the
    # same quadrature beta
    tau = 0.3 + 1.3j
    b1 = abr.beta_quadrature(normalize_tau(tau)[0]).beta
    b2 = abr.beta_quadrature(normalize_tau(-1 / tau)[0]).beta
    b3 = abr.beta_quadrature(normalize_tau(tau + 1)[0]).beta
    assert abs(b1 - b2) < 1e-10
    assert abs(b1 - b3) < 1e-10


def test_beta_scale_invariance(shape_square):
    # homogeneity of degree zero in psi0
    from vortexlattice.landau import theta_null_basis
    psi0 = theta_null_basis(1, shape_square, N=64)[0]
    a2 = np.abs(7.0 * psi0.values) ** 2
    scaled = float(np.mean(a2**2) / np.mean(a2) ** 2)
    assert scaled == pytest.approx(abr.beta_quadrature(shape_square).beta, abs=1e-13)


upper = st.builds(complex,
                  st.floats(min_value=-2, max_value=2, allow_nan=False),
                  st.floats(min_value=0.3, max_value=3, allow_nan=False))


@given(upper)
@settings(max_examples=60, deadline=None)
def test_beta_modular_invariance(tau):
    b0 = abr.beta_of(tau)
    assert abs(abr.beta_of(tau + 1) - b0) < 1e-10
    assert abs(abr.beta_of(-1 / tau) - b0) < 1e-10


@given(upper)
@settings(max_examples=40, deadline=None)
def test_beta_strictly_above_one(tau):
    assert abr.beta_of(tau) > 1.0 + 1e-4


def test_kappa_c_values(shape_square, shape_tri):
    b_sq = abr.beta_lattice_sum(shape_square).beta
    assert abr.kappa_c(shape_square) == pytest.approx(np.sqrt(0.5 * (1 - 1 / b_sq)), abs=1e-14)
    assert abr.kappa_c(shape_square) == pytest.approx(0.276394, abs=1e-6)
    assert abr.kappa_c(shape_tri) == pytest.approx(0.262326, abs=1e-6)
    assert 0 < abr.kappa_c(shape_tri) < 1 / np.sqrt(2)


def test_beta_result_validates():
    with pytest.raises(ValueError):
        abr.BetaResult(tau=1j, beta=0.5, method="lattice_sum", K=5, N=0)


# ----------------------------------------------------------------------
# critical points
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def critical_points():
    return abr.find_beta_critical_points()


def test_exactly_two_critical_points(critical_points):
    assert len(critical_points) == 2


def test_critical_point_locations(critical_points):
    kinds = {cp.kind: cp for cp in critical_points}
    assert set(kinds) == {"minimum", "maximum"}
    assert abr.modular_distance(kinds["minimum"].tau, TRI) < 1e-6
    assert abr.modular_distance(kinds["maximum"].tau, 1j) < 1e-6


def test_critical_point_gradients(critical_points):
    for cp in critical_points:
        assert cp.gradient_norm < 1e-8


def test_minimum_hessian_definite(critical_points):
    cp = next(c for c in critical_points if c.kind == "minimum")
    assert cp.hessian_eigenvalues[0] > 0 and cp.hessian_eigenvalues[1] > 0


def test_descent_multistart(rng):
    for _ in range(10):
        tau0 = complex(rng.uniform(-0.45, 0.5), rng.uniform(1.01, 1.8))
        tb = descend_beta(tau0)
        assert abs(tb - TRI) < 1e-6


def test_gradient_vanishes_at_special_points():
    assert np.linalg.norm(abr.beta_gradient(TRI)) < 1e-8
    assert np.linalg.norm(abr.beta_gradient(1j)) < 1e-8


@pytest.mark.parametrize("tau0", [0.47 + 0.89j, 0.5 + 0.9j, 0.45 + 0.95j])
def test_newton_refine_unbiased_at_triangular_point(tau0):
    # The refinement of minimize_Eb_numeric, run on beta at its step
    # h = 2e-3.  The cubic term of beta at e^(i pi/3) turns a plain central
    # difference into an O(h^2) gradient bias that stops Newton 7.1e-7 away
    # from the exact critical point; the Richardson-refined gradient lands
    # at roundoff (~5e-12).
    tau = abr._newton_refine(abr.beta_of, tau0, h=2e-3, max_steps=12)
    assert abr.modular_distance(tau, TRI) < 1e-10


# ----------------------------------------------------------------------
# asymptotic landscape
# ----------------------------------------------------------------------
def test_landscape_exact_at_critical_field(shape_tri):
    kappa = np.sqrt(2.0)
    assert abr.energy_landscape_asymptotic(shape_tri, kappa, kappa**2) == \
        pytest.approx(kappa**2 / 2 + kappa**4, abs=1e-14)


def test_landscape_prefers_triangular(shape_square, shape_tri):
    kappa, b = np.sqrt(2.0), 1.9
    assert abr.energy_landscape_asymptotic(shape_tri, kappa, b) < \
        abr.energy_landscape_asymptotic(shape_square, kappa, b)


def test_landscape_argmin_on_grid(shape_tri):
    kappa, b = np.sqrt(2.0), 1.9
    best = min(fundamental_domain_grid(9, 7, tau2_max=1.5) + [TRI],
               key=lambda t: abr.energy_landscape_asymptotic(normalize_tau(t)[0], kappa, b))
    assert abr.modular_distance(best, TRI) < 1e-9


def test_landscape_ordering_tracks_beta():
    # for kappa^2 > 1/2 and b < kappa^2 the asymptotic energy is increasing
    # in beta, so shapes order identically under E_b and beta (the triangular
    # lattice minimizes both)
    kappa, b = np.sqrt(2.0), 1.95
    taus = [1j, TRI, 0.2 + 1.3j, 0.45 + 1.05j]
    for t1 in taus:
        for t2 in taus:
            s1, _ = normalize_tau(t1)
            s2, _ = normalize_tau(t2)
            dE = abr.energy_landscape_asymptotic(s1, kappa, b) - \
                abr.energy_landscape_asymptotic(s2, kappa, b)
            dbeta = abr.beta_lattice_sum(s1).beta - abr.beta_lattice_sum(s2).beta
            assert np.sign(round(dE, 14)) == np.sign(round(dbeta, 12))


def test_applied_field_values(shape_tri):
    kappa = np.sqrt(2.0)
    assert abr.applied_field(shape_tri, kappa, kappa**2) == pytest.approx(kappa**2)
    h0 = abr.applied_field(shape_tri, kappa, 1.9)
    beta = abr.beta_lattice_sum(shape_tri).beta
    assert h0 == pytest.approx(1.9 + 0.1 / (3 * beta + 1), abs=1e-14)
    assert h0 >= 1.9


def test_applied_field_is_half_b_derivative(shape_tri):
    kappa, b, h = np.sqrt(2.0), 1.9, 1e-6
    dE = (abr.energy_landscape_asymptotic(shape_tri, kappa, b + h)
          - abr.energy_landscape_asymptotic(shape_tri, kappa, b - h)) / (2 * h)
    assert abr.applied_field(shape_tri, kappa, b) == pytest.approx(0.5 * dE, abs=1e-7)


def test_degenerate_denominator_raises(shape_square):
    beta = abr.beta_lattice_sum(shape_square).beta
    kappa = np.sqrt((beta - 1) / (2 * beta))  # makes (2 kappa^2 - 1) beta + 1 = 0
    with pytest.raises(ZeroDivisionError):
        abr.energy_landscape_asymptotic(shape_square, kappa, 0.1)
    with pytest.raises(ZeroDivisionError):
        abr.applied_field(shape_square, kappa, 0.1)


def test_canonical_tau_and_modular_distance():
    assert abr.canonical_tau(-0.4999999999 + 0.8660254j) == pytest.approx(TRI, abs=1e-6)
    assert abr.modular_distance(-0.5 + 0.8660254037844386j, TRI) < 1e-12
