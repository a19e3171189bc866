import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (_central_hessian, _richardson_gradient, applied_field,
                       beta_of, descend_beta)
from vortexlattice import abrikosov as abr
from vortexlattice.lattice import (TAU_SQUARE, TAU_TRIANGULAR, SolverError,
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
    assert abr.beta_lattice_sum(shape_square) == pytest.approx(one_dim**2, abs=1e-13)


def test_lattice_sum_against_scalar_loop(shape_tri, shape_generic):
    for shape in (shape_tri, shape_generic):
        tau = complex(shape.tau)
        assert abr.beta_lattice_sum(shape) == pytest.approx(
            scalar_lattice_sum(tau), abs=1e-12)


def test_beta_reference_values(shape_square, shape_tri):
    assert abr.beta_lattice_sum(shape_square) == pytest.approx(1.1803406, abs=1e-6)
    assert abr.beta_lattice_sum(shape_tri) == pytest.approx(1.1595953, abs=1e-6)


def test_lattice_sum_translation_invariant(shape_square):
    assert beta_of(1j) == pytest.approx(beta_of(1j + 1), abs=1e-14)


def test_quadrature_matches_sum_on_grid():
    for tau in fundamental_domain_grid(6, 6):
        shape, _ = normalize_tau(tau)
        q = abr.beta_quadrature(shape)
        s = abr.beta_lattice_sum(shape)
        assert abs(q - s) < 1e-10


def test_quadrature_invariant_under_inversion():
    # same lattice reached through -1/tau reduces to the same shape and the
    # same quadrature beta
    tau = 0.3 + 1.3j
    b1 = abr.beta_quadrature(normalize_tau(tau)[0])
    b2 = abr.beta_quadrature(normalize_tau(-1 / tau)[0])
    b3 = abr.beta_quadrature(normalize_tau(tau + 1)[0])
    assert abs(b1 - b2) < 1e-10
    assert abs(b1 - b3) < 1e-10


def test_beta_scale_invariance(shape_square):
    # homogeneity of degree zero in psi0
    from vortexlattice.landau import theta_field
    psi0 = theta_field(shape_square, N=64)
    a2 = np.abs(7.0 * psi0.values) ** 2
    scaled = float(np.mean(a2**2) / np.mean(a2) ** 2)
    assert scaled == pytest.approx(abr.beta_quadrature(shape_square), abs=1e-13)


upper = st.builds(complex,
                  st.floats(min_value=-2, max_value=2, allow_nan=False),
                  st.floats(min_value=0.3, max_value=3, allow_nan=False))


@given(upper)
@settings(max_examples=60, deadline=None)
def test_beta_modular_invariance(tau):
    b0 = beta_of(tau)
    assert abs(beta_of(tau + 1) - b0) < 1e-10
    assert abs(beta_of(-1 / tau) - b0) < 1e-10


@given(upper)
@settings(max_examples=40, deadline=None)
def test_beta_strictly_above_one(tau):
    assert beta_of(tau) > 1.0 + 1e-4


def test_kappa_c_values(shape_square, shape_tri):
    b_sq = abr.beta_lattice_sum(shape_square)
    b_tri = abr.beta_lattice_sum(shape_tri)
    assert abr.kappa_c(b_sq) == pytest.approx(np.sqrt(0.5 * (1 - 1 / b_sq)), abs=1e-14)
    assert abr.kappa_c(b_sq) == pytest.approx(0.276394, abs=1e-6)
    assert abr.kappa_c(b_tri) == pytest.approx(0.262326, abs=1e-6)
    assert 0 < abr.kappa_c(b_tri) < 1 / np.sqrt(2)


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
        assert cp.gradient_norm < 1e-14


def test_minimum_hessian_definite(critical_points):
    cp = next(c for c in critical_points if c.kind == "minimum")
    assert cp.hessian_eigenvalues[0] > 0 and cp.hessian_eigenvalues[1] > 0
    # the sixfold rotation of the triangular lattice makes its Hessian a
    # multiple of the identity
    assert abs(cp.hessian_eigenvalues[1] - cp.hessian_eigenvalues[0]) < 1e-12


def test_descent_multistart(rng):
    for _ in range(10):
        tau0 = complex(rng.uniform(-0.45, 0.5), rng.uniform(1.01, 1.8))
        tb = descend_beta(tau0)
        assert abs(tb - TRI) < 1e-6


def test_gradient_vanishes_at_special_points():
    assert np.linalg.norm(abr.beta_derivatives(TRI)[0]) < 1e-14
    assert np.linalg.norm(abr.beta_derivatives(1j)[0]) < 1e-14


@pytest.mark.parametrize("tau", [1j, TRI, 0.3 + 1.2j, 0.1 + 1.05j, 0.45 + 0.95j,
                                 0.2 + 3j])
def test_beta_derivatives_match_differences(tau):
    # oracles: the Richardson gradient and central Hessian of beta_of, whose
    # own errors are about 5e-12 and 2e-6 at these steps
    grad, hess = abr.beta_derivatives(tau)
    assert np.abs(grad - _richardson_gradient(beta_of, tau, 1e-4)).max() < 1e-10
    assert np.abs(hess - _central_hessian(beta_of, tau, 1e-3)).max() < 1e-5


@given(upper)
@settings(max_examples=40, deadline=None)
def test_beta_gradient_modular_covariance(tau):
    # beta(-1/tau) = beta(tau + 1) = beta(tau); with G = d1 beta + i d2 beta
    # the chain rule gives G(tau) = conj(1/tau^2) G(-1/tau) and G(tau + 1) = G(tau)
    G = lambda t: complex(*abr.beta_derivatives(t)[0])
    assert abs(G(tau) - np.conj(1 / tau**2) * G(-1 / tau)) < 1e-12
    assert abs(G(tau + 1) - G(tau)) < 1e-12


def test_arc_curvature_matches_difference_at_square_point():
    # second difference of beta along tau = e^(i theta), h = 1e-3, against
    # the plane derivatives restricted to the arc
    f = lambda th: beta_of(np.exp(1j * th))
    h, th = 1e-3, np.pi / 2
    fd = (f(th + h) - 2 * f(th) + f(th - h)) / h**2
    assert abs(abr._arc_curvature(1j, *abr.beta_derivatives(1j)) - fd) < 1e-5


def _beta_point(tau):
    return beta_of(tau), abr.beta_derivatives(tau)[0]


@pytest.mark.parametrize("tau0", [0.47 + 0.89j, 0.5 + 0.9j, 0.45 + 0.95j, 0.1 + 1.1j])
def test_descent_reaches_triangular_point(tau0):
    # The descent of minimize_Eb_numeric, run on beta's exact gradient with
    # the floor beta = 1 of a uniform density.  From 0.1+1.1i it passes the
    # square saddle tau = i, where a Newton iteration stops.
    tau = abr._descend(_beta_point, tau0, 1.0, abr.EB_DESCENT_STEPS)
    assert abr.modular_distance(tau, TRI) < 1e-10


def test_descent_out_of_steps_is_a_solver_error():
    with pytest.raises(SolverError, match=r"descent from tau=\(0.1\+1.1j\) not "
                       r"converged in 2 steps: \|grad\| = "):
        abr._descend(_beta_point, 0.1 + 1.1j, 1.0, 2)


@pytest.mark.parametrize("tau, mu", [(0.3 + 1.2j, 0.1), (0.45 + 0.95j, 0.05),
                                     (0.1 + 1.05j, 0.2), (-0.45 + 0.95j, 0.1),
                                     (0.6 + 0.8j, 0.1)])
def test_Eb_gradient_matches_differences(tau, mu):
    # oracle: the Richardson gradient of E_b at h = 2e-3 (8 solves), whose own
    # roundoff floor is about 1e-12.  0.6+0.8i reduces by T and then S, so
    # the reduced gradient is mapped back through the modular map
    point = abr._Eb_point(np.sqrt(2.0), 2.0 - mu, 40)
    oracle = _richardson_gradient(lambda t: point(t)[0], tau, 2e-3)
    assert np.abs(point(tau)[1] - oracle).max() < 1e-10


# ----------------------------------------------------------------------
# asymptotic landscape
# ----------------------------------------------------------------------
def test_landscape_exact_at_critical_field(shape_tri):
    kappa = np.sqrt(2.0)
    beta = abr.beta_lattice_sum(shape_tri)
    assert abr.energy_landscape_asymptotic(beta, kappa, kappa**2) == \
        pytest.approx(kappa**2 / 2 + kappa**4, abs=1e-14)


def test_landscape_prefers_triangular(shape_square, shape_tri):
    kappa, b = np.sqrt(2.0), 1.9
    E_b = lambda shape: abr.energy_landscape_asymptotic(abr.beta_lattice_sum(shape), kappa, b)
    assert E_b(shape_tri) < E_b(shape_square)


def test_landscape_argmin_on_grid(shape_tri):
    kappa, b = np.sqrt(2.0), 1.9
    best = min(fundamental_domain_grid(9, 7, tau2_max=1.5) + [TRI],
               key=lambda t: abr.energy_landscape_asymptotic(beta_of(t), kappa, b))
    assert abr.modular_distance(best, TRI) < 1e-9


def test_landscape_ordering_tracks_beta():
    # for kappa^2 > 1/2 and b < kappa^2 the asymptotic energy is increasing
    # in beta, so shapes order identically under E_b and beta (the triangular
    # lattice minimizes both)
    kappa, b = np.sqrt(2.0), 1.95
    taus = [1j, TRI, 0.2 + 1.3j, 0.45 + 1.05j]
    for t1 in taus:
        for t2 in taus:
            b1, b2 = beta_of(t1), beta_of(t2)
            dE = abr.energy_landscape_asymptotic(b1, kappa, b) - \
                abr.energy_landscape_asymptotic(b2, kappa, b)
            dbeta = b1 - b2
            assert np.sign(round(dE, 14)) == np.sign(round(dbeta, 12))


def test_applied_field_values(shape_tri):
    kappa = np.sqrt(2.0)
    assert applied_field(shape_tri, kappa, kappa**2) == pytest.approx(kappa**2)
    h0 = applied_field(shape_tri, kappa, 1.9)
    beta = abr.beta_lattice_sum(shape_tri)
    assert h0 == pytest.approx(1.9 + 0.1 / (3 * beta + 1), abs=1e-14)
    assert h0 >= 1.9


def test_applied_field_is_half_b_derivative(shape_tri):
    kappa, b, h = np.sqrt(2.0), 1.9, 1e-6
    beta = abr.beta_lattice_sum(shape_tri)
    dE = (abr.energy_landscape_asymptotic(beta, kappa, b + h)
          - abr.energy_landscape_asymptotic(beta, kappa, b - h)) / (2 * h)
    assert applied_field(shape_tri, kappa, b) == pytest.approx(0.5 * dE, abs=1e-7)


def test_degenerate_denominator_raises(shape_square):
    beta = abr.beta_lattice_sum(shape_square)
    kappa = np.sqrt((beta - 1) / (2 * beta))  # makes (2 kappa^2 - 1) beta + 1 = 0
    with pytest.raises(ZeroDivisionError):
        abr.energy_landscape_asymptotic(beta, kappa, 0.1)
    with pytest.raises(ZeroDivisionError):
        applied_field(shape_square, kappa, 0.1)


def test_canonical_tau_and_modular_distance():
    assert abr.canonical_tau(-0.4999999999 + 0.8660254j) == pytest.approx(TRI, abs=1e-6)
    assert abr.modular_distance(-0.5 + 0.8660254037844386j, TRI) < 1e-12
