import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import energy_density_mean, flux, normal_state, raw_flux, rescale_state
from vortexlattice import bifurcation, gauge, glcore, landau
from vortexlattice.lattice import (LatticeShape, cell_geometry,
                                   fundamental_domain_grid, normalize_tau)

TRI = np.exp(1j * np.pi / 3)


def test_normalize_identity_on_square():
    shape, m = normalize_tau(1j)
    assert shape.tau == 1j
    assert (m.a, m.b, m.c, m.d) == (1, 0, 0, 1)


def test_normalize_one_T_move():
    shape, m = normalize_tau(1 + TRI)
    assert abs(complex(shape.tau) - TRI) < 1e-15
    assert (m.a, m.b, m.c, m.d) == (1, -1, 0, 1)


def test_normalize_one_S_move():
    shape, m = normalize_tau(0.5j)
    assert abs(complex(shape.tau) - 2j) < 1e-15
    assert (m.a, m.b, m.c, m.d) == (0, -1, 1, 0)


def test_normalize_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        normalize_tau(1 - 1j)


def test_normalize_boundary_tie_break():
    # tau1 = -1/2 maps to the +1/2 representative
    shape, _ = normalize_tau(-0.5 + 2j)
    assert complex(shape.tau) == pytest.approx(0.5 + 2j, abs=1e-14)


upper_half = st.builds(
    complex,
    st.floats(min_value=-8, max_value=8, allow_nan=False),
    st.floats(min_value=0.05, max_value=8, allow_nan=False),
)


@given(upper_half)
@settings(max_examples=200, deadline=None)
def test_normalize_invariants_and_witness(tau_raw):
    shape, m = normalize_tau(tau_raw)
    t = complex(shape.tau)
    assert t.imag > 0
    assert abs(t) >= 1 - 1e-9
    assert -0.5 - 1e-9 < t.real <= 0.5 + 1e-9
    assert m.a * m.d - m.b * m.c == 1
    assert abs(m.apply(tau_raw) - t) < 1e-9 * max(1, abs(t))


@given(upper_half)
@settings(max_examples=100, deadline=None)
def test_normalize_idempotent(tau_raw):
    shape, _ = normalize_tau(tau_raw)
    again, m = normalize_tau(complex(shape.tau))
    assert abs(complex(again.tau) - complex(shape.tau)) < 1e-12


def test_shape_rejects_unreduced():
    with pytest.raises(ValueError):
        LatticeShape(0.8 + 0.3j)


def test_cell_geometry_square():
    geom = cell_geometry(normalize_tau(1j)[0], n=1, b=1.0)
    assert abs(geom.r_tau - np.sqrt(2 * np.pi)) < 1e-14
    assert abs(geom.sigma - 1.0) < 1e-14
    assert abs(geom.r - np.sqrt(2 * np.pi)) < 1e-14
    assert abs(geom.area - 2 * np.pi) < 1e-13


def test_cell_geometry_stronger_field():
    geom = cell_geometry(normalize_tau(1j)[0], n=1, b=4.0)
    assert abs(geom.sigma - 0.5) < 1e-14
    assert abs(geom.r - np.sqrt(2 * np.pi) / 2) < 1e-14


def test_cell_geometry_triangular_scale():
    geom = cell_geometry(normalize_tau(TRI)[0], n=1, b=1.0)
    # independent evaluation of (2 pi / Im tau)^(1/2)
    assert abs(geom.r_tau - np.sqrt(2 * np.pi / np.sin(np.pi / 3))) < 1e-13


def test_cell_geometry_rejects_zero_field():
    with pytest.raises(ValueError):
        cell_geometry(normalize_tau(1j)[0], n=1, b=0.0)


@given(st.integers(min_value=1, max_value=5),
       st.floats(min_value=0.1, max_value=10, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_flux_quantization_constraint(n, b):
    geom = cell_geometry(normalize_tau(0.2 + 1.1j)[0], n=n, b=b)
    assert abs(b * geom.r**2 * geom.shape.tau2 - 2 * np.pi * n) < 1e-10


def test_rescale_identity_at_sigma_one(shape_square):
    geom = cell_geometry(shape_square, n=1, b=1.0)
    psi = np.ones((8, 8), dtype=complex)
    a = np.zeros((2, 8, 8))
    p2, a2 = rescale_state(psi, a, geom, "to_normalized")
    assert np.array_equal(p2, psi) and np.array_equal(a2, a)


def test_rescale_round_trip_exact(shape_generic, rng):
    geom = cell_geometry(shape_generic, n=1, b=0.37)
    psi = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    a = rng.standard_normal((2, 16, 16))
    p1, a1 = rescale_state(psi, a, geom, "to_normalized")
    p2, a2 = rescale_state(p1, a1, geom, "to_physical")
    assert np.max(np.abs(p2 - psi)) < 1e-10
    assert np.max(np.abs(a2 - a)) < 1e-10


def test_rescale_normal_state_curl(shape_square):
    # physical normal state curl A = b maps to curl a = n
    n, b, N = 1, 0.5, 32
    geom = cell_geometry(shape_square, n=n, b=b)
    raw = gauge.RawLatticeState(psi=np.zeros((N, N), complex),
                                a_p=np.zeros((2, N, N)), n=n,
                                shape=shape_square, r=geom.r)
    assert abs(np.mean(raw.curl_a()) - b) < 1e-13
    st_norm, _ = gauge.fix_gauge(raw, kappa=1.0)
    curl_norm = n + st_norm.alpha.grid.curl(st_norm.alpha.values)
    assert np.max(np.abs(curl_norm - n)) < 1e-12


def test_rescale_energy_relation_normal_state(shape_square):
    # kappa=1, n=1, b=1/2, Psi=0: both sides equal 0.5 + 0.25
    kappa, n, b, N = 1.0, 1, 0.5, 32
    geom = cell_geometry(shape_square, n=n, b=b)
    raw = gauge.RawLatticeState(psi=np.zeros((N, N), complex),
                                a_p=np.zeros((2, N, N)), n=n,
                                shape=shape_square, r=geom.r)
    phys = energy_density_mean(raw, kappa)
    lam = kappa**2 * n / b
    norm = glcore.energy(normal_state(glcore.GLParams(kappa, n, lam), shape_square, N))
    assert abs(phys - 0.75) < 1e-12
    assert abs(norm - 0.75) < 1e-12


def test_rescale_energy_relation_branch_state(shape_tri):
    # nontrivial state: average physical energy equals the rescaled energy
    kappa, N = np.sqrt(2.0), 48
    setup = bifurcation.build_reduction(shape_tri, N, K_lev=24)
    pt = bifurcation.branch_by_field(1.9, kappa, shape_tri, setup=setup)
    psi = landau.field_from_coeffs(setup.basis, pt.psi_coeffs)
    state = glcore.GLState(psi, pt.alpha, glcore.GLParams(kappa, 1, pt.lam))
    raw = gauge.raw_from_state(state)
    assert abs(energy_density_mean(raw, kappa) - glcore.energy(state)) < 1e-9


def test_rescale_flux_preserved(shape_tri):
    kappa, N = np.sqrt(2.0), 48
    setup = bifurcation.build_reduction(shape_tri, N, K_lev=24)
    pt = bifurcation.branch_by_field(1.9, kappa, shape_tri, setup=setup)
    psi = landau.field_from_coeffs(setup.basis, pt.psi_coeffs)
    state = glcore.GLState(psi, pt.alpha, glcore.GLParams(kappa, 1, pt.lam))
    raw = gauge.raw_from_state(state)
    assert abs(raw_flux(raw) - 2 * np.pi) < 1e-10
    assert abs(flux(state) - 2 * np.pi) < 1e-10


def test_rescale_shape_validation(shape_square):
    geom = cell_geometry(shape_square, n=1, b=1.0)
    with pytest.raises(ValueError):
        rescale_state(np.zeros((4, 4), complex), np.zeros((2, 5, 5)), geom,
                      "to_normalized")
    with pytest.raises(ValueError):
        rescale_state(np.zeros((4, 4), complex), np.zeros((2, 4, 4)), geom,
                      "sideways")


def test_fundamental_domain_grid_inside():
    pts = fundamental_domain_grid(20, 20)
    assert len(pts) == 400
    for tau in pts:
        assert tau.imag > 0
        assert abs(tau) >= 1
        assert -0.5 < tau.real <= 0.5
