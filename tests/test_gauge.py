import numpy as np
import pytest

from vortexlattice import bifurcation as bif, gauge, glcore, landau
from reference import (PointGroupError, energy_density_mean, lowest_level_field,
                       raw_flux, rotate_state)
from vortexlattice.gauge import (RawLatticeState, fix_gauge, gauge_transform,
                                 raw_from_state, translate_state)
from vortexlattice.landau import quasi_periodicity_residual
from vortexlattice.lattice import cell_geometry, normalize_tau

KAPPA = np.sqrt(2.0)


@pytest.fixture(scope="module")
def raw_branch(shape_generic):
    setup = bif.build_reduction(shape_generic, N=64, K_lev=32)
    pt = bif.branch_by_field(1.9, KAPPA, shape_generic, setup=setup)
    psi = landau.field_from_coeffs(setup.basis, pt.psi_coeffs)
    state = glcore.GLState(psi, pt.alpha, glcore.GLParams(KAPPA, 1, pt.lam))
    return raw_from_state(state)


@pytest.fixture(scope="module")
def raw_square(shape_square):
    setup = bif.build_reduction(shape_square, N=64, K_lev=32)
    pt = bif.branch_by_field(1.9, KAPPA, shape_square, setup=setup)
    psi = landau.field_from_coeffs(setup.basis, pt.psi_coeffs)
    state = glcore.GLState(psi, pt.alpha, glcore.GLParams(KAPPA, 1, pt.lam))
    return raw_from_state(state)


def test_grids_are_built_once(raw_branch):
    # a raw state and its sampled field each build their CellGrid once
    f = raw_branch.qp_field()
    assert not hasattr(f, "basis")
    assert f.grid is f.grid
    assert raw_branch.grid is raw_branch.grid


# ----------------------------------------------------------------------
# gauge transform
# ----------------------------------------------------------------------
def test_gauge_identity(raw_branch):
    out = gauge_transform(raw_branch, np.zeros((64, 64)))
    assert np.array_equal(out.psi, raw_branch.psi)
    assert np.array_equal(out.a_p, raw_branch.a_p)


def test_gauge_constant_phase(raw_branch):
    out = gauge_transform(raw_branch, np.full((64, 64), 0.8))
    assert np.max(np.abs(out.psi - np.exp(0.8j) * raw_branch.psi)) < 1e-14
    assert np.max(np.abs(out.a_p - raw_branch.a_p)) < 1e-12


def test_gauge_observables_invariant(raw_branch, rng):
    grid = raw_branch.grid
    y1, y2 = grid.y
    eta = 0.5 * np.sin(2 * np.pi * (y1 + y2)) - 0.2 * np.cos(2 * np.pi * y2)
    out = gauge_transform(raw_branch, eta, (0.1, -0.2))
    o1 = raw_branch.observables()
    o2 = out.observables()
    assert np.max(np.abs(np.abs(out.psi) - np.abs(raw_branch.psi))) < 1e-12
    assert np.max(np.abs(o1["curl_a"] - o2["curl_a"])) < 1e-8
    assert np.max(np.abs(o1["current"] - o2["current"])) < 1e-9
    assert abs(raw_flux(out) - raw_flux(raw_branch)) < 1e-11
    assert quasi_periodicity_residual(out.qp_field()) < 1e-10


# ----------------------------------------------------------------------
# translations and rotations
# ----------------------------------------------------------------------
def test_translate_by_lattice_vector(raw_branch):
    out = translate_state(raw_branch, raw_branch.m[:, 0])
    assert np.max(np.abs(np.abs(out.psi) - np.abs(raw_branch.psi))) < 1e-10
    assert np.max(np.abs(out.curl_a() - raw_branch.curl_a())) < 1e-9
    assert quasi_periodicity_residual(out.qp_field()) < 1e-10


def test_translate_energy_invariant(raw_branch):
    t = 0.3 * raw_branch.m[:, 0] - 0.41 * raw_branch.m[:, 1]
    out = translate_state(raw_branch, t)
    assert abs(energy_density_mean(out, KAPPA)
               - energy_density_mean(raw_branch, KAPPA)) < 1e-9
    assert abs(raw_flux(out) - raw_flux(raw_branch)) < 1e-10
    assert quasi_periodicity_residual(out.qp_field()) < 1e-10


def test_rotate_pi_any_lattice(raw_branch):
    out = rotate_state(raw_branch, np.pi)
    assert abs(energy_density_mean(out, KAPPA)
               - energy_density_mean(raw_branch, KAPPA)) < 1e-9
    assert quasi_periodicity_residual(out.qp_field()) < 1e-7


def test_rotate_square_point_group(raw_square):
    out = rotate_state(raw_square, np.pi / 2)
    o1 = raw_square.observables()
    o2 = out.observables()
    # |psi|^2 is permuted on the grid; compare rotation-invariant reductions
    assert abs(o2["ns"].mean() - o1["ns"].mean()) < 1e-12
    assert abs(np.sort(o2["ns"].ravel())[::97].sum()
               - np.sort(o1["ns"].ravel())[::97].sum()) < 1e-9
    assert abs(energy_density_mean(out, KAPPA)
               - energy_density_mean(raw_square, KAPPA)) < 1e-10


def test_rotate_triangular_point_group(shape_tri):
    setup = bif.build_reduction(shape_tri, N=48, K_lev=24)
    pt = bif.branch_by_field(1.9, KAPPA, shape_tri, setup=setup)
    psi = landau.field_from_coeffs(setup.basis, pt.psi_coeffs)
    raw = raw_from_state(glcore.GLState(psi, pt.alpha, glcore.GLParams(KAPPA, 1, pt.lam)))
    out = rotate_state(raw, np.pi / 3)
    assert abs(energy_density_mean(out, KAPPA) - energy_density_mean(raw, KAPPA)) < 1e-10


def test_rotate_rejects_non_point_group(raw_branch):
    with pytest.raises(PointGroupError):
        rotate_state(raw_branch, np.pi / 2)  # generic lattice has only +-pi


# ----------------------------------------------------------------------
# fix_gauge
# ----------------------------------------------------------------------
def test_fix_gauge_on_fixed_input(raw_branch):
    fixed, _ = fix_gauge(raw_branch, kappa=KAPPA)
    again, _ = fix_gauge(raw_from_state(fixed), kappa=KAPPA)
    # idempotent up to a constant phase (pinned at the origin sample)
    assert np.max(np.abs(again.psi.values - fixed.psi.values)) < 1e-12
    assert np.max(np.abs(again.alpha.values - fixed.alpha.values)) < 1e-12


def test_fix_gauge_round_trip(raw_branch, rng):
    grid = raw_branch.grid
    y1, y2 = grid.y
    inputs = []
    for _ in range(3):
        eta = sum(rng.normal(0, 0.3) * np.sin(2 * np.pi * ((k1 + 1) * y1 + k2 * y2)
                                              + rng.uniform(0, 2 * np.pi))
                  for k1 in range(2) for k2 in range(-1, 2))
        c = tuple(rng.normal(0, 0.3, 2))
        t = raw_branch.m @ rng.uniform(-0.5, 0.5, 2)
        inputs.append(translate_state(gauge_transform(raw_branch, eta, c), t))
    # a steep linear gauge and a translation past half a period: the
    # constants fix_gauge removes, bc_const - <a_p>.t_i, lie outside
    # (-pi, pi], which takes the principal branch of l
    steep = translate_state(gauge_transform(raw_branch, 0.0 * y1, (3.0, -2.5)),
                            raw_branch.m @ np.array([0.7, 0.6]))
    C = np.asarray(steep.bc_const) - steep.a_p.mean(axis=(1, 2)) @ steep.m
    assert np.all(np.abs(C) > np.pi)
    for distorted in inputs + [steep]:
        fixed, info = fix_gauge(distorted, kappa=KAPPA)
        assert quasi_periodicity_residual(fixed.psi) < 1e-10
        mean_r, div_r = fixed.alpha.constraint_residuals()
        assert mean_r < 1e-10 and div_r < 1e-10
        ref = translate_state(distorted, info["translation"]).observables()
        sig = info["sigma"]
        assert np.max(np.abs(np.abs(fixed.psi.values) ** 2 - sig**2 * ref["ns"])) < 1e-8
        curl_out = 1.0 + fixed.alpha.grid.curl(fixed.alpha.values)
        assert np.max(np.abs(curl_out - sig**2 * ref["curl_a"])) < 1e-8


def test_fix_gauge_alpha_is_the_translated_input_potential(raw_branch):
    # raw_branch is in the fixed gauge: after a gauge change, a translation by
    # t and fix_gauge's translation by l, the only admissible alpha is the
    # input's own potential at x + t + l
    y1, y2 = raw_branch.grid.y
    eta = 0.4 * np.sin(2 * np.pi * (y1 - 2 * y2)) + 0.3 * np.cos(2 * np.pi * y2)
    t = raw_branch.m @ np.array([0.31, -0.27])
    distorted = translate_state(gauge_transform(raw_branch, eta, (0.2, -0.15)), t)
    fixed, info = fix_gauge(distorted, kappa=KAPPA)
    dy = np.linalg.solve(raw_branch.m, t + info["translation"])
    want = info["sigma"] * raw_branch.grid.shift(raw_branch.a_p, dy)
    assert np.max(np.abs(fixed.alpha.values - want)) <= 1e-14


def test_fix_gauge_removes_pure_gauge(shape_square):
    N = 48
    from vortexlattice.lattice import cell_geometry
    geom = cell_geometry(shape_square, 1, 1.0)
    grid_m = geom.sigma * geom.m_tau
    from vortexlattice.spectral import CellGrid
    grid = CellGrid(grid_m, N)
    y1, y2 = grid.y
    chi = 0.6 * np.sin(2 * np.pi * (2 * y1 - y2))
    raw = RawLatticeState(psi=np.zeros((N, N), complex), a_p=grid.grad(chi),
                          n=1, shape=shape_square, r=geom.r)
    fixed, _ = fix_gauge(raw)
    assert np.max(np.abs(fixed.alpha.values)) < 1e-12


def test_fix_gauge_canonical_boundary_cocycle(raw_branch):
    # output boundary phase is exactly the canonical cocycle: residual of the
    # zero-constant wrap phases vanishes
    fixed, _ = fix_gauge(raw_branch, kappa=KAPPA)
    assert fixed.psi.bc_const == (0.0, 0.0)
    assert quasi_periodicity_residual(fixed.psi) < 1e-10


def test_fix_gauge_curl_free_difference(raw_branch, rng):
    # path independence of the gauge potential: the difference between the
    # fixed and raw potentials is curl-free to spectral accuracy
    grid = raw_branch.grid
    y1, y2 = grid.y
    eta = 0.4 * np.sin(2 * np.pi * y1) + 0.3 * np.cos(2 * np.pi * (y1 - y2))
    distorted = gauge_transform(raw_branch, eta, (0.05, -0.1))
    fixed, info = fix_gauge(distorted, kappa=KAPPA)
    sigma = info["sigma"]
    shifted = translate_state(distorted, info["translation"])
    alpha_phys = fixed.alpha.values / sigma
    D = alpha_phys - shifted.a_p
    assert np.max(np.abs(grid.curl(D))) < 1e-8


def raw_lowest_level(shape, n, N):
    """The raw state 0.1 psi0^n with n flux quanta, a_p = 0, at b = n."""
    psi = lowest_level_field(shape, n, N)
    return RawLatticeState(psi=0.1 * psi.values, a_p=np.zeros((2, N, N)), n=n,
                           shape=shape, r=cell_geometry(shape, n, float(n)).r)


def test_fix_gauge_zero_multiple_vortices(shape_square):
    # n = 2 and 3 states: flux 2 pi n, constraints hold
    for n in (2, 3):
        raw = raw_lowest_level(shape_square, n, 48)
        assert abs(raw_flux(raw) - 2 * np.pi * n) < 1e-10
        fixed, _ = fix_gauge(raw)
        assert quasi_periodicity_residual(fixed.psi) < 1e-8


@pytest.mark.parametrize("tau", [1j, np.exp(1j * np.pi / 3), 0.3 + 1.2j],
                         ids=["square", "triangular", "0.3+1.2i"])
def test_fix_gauge_keeps_the_boundary_phases_of_n_quanta(tau):
    shape, _ = normalize_tau(tau)
    for N in (48, 64):
        for n in (2, 3):
            fixed, _ = fix_gauge(raw_lowest_level(shape, n, N))
            assert quasi_periodicity_residual(fixed.psi) < 1e-13
