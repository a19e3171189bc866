import numpy as np
import pytest

from reference import (FullSpectrumGrid, cell_flux, curl_star_curl, helmholtz_project,
                       min_nonzero_gsq)
from vortexlattice import bifurcation as bif
from vortexlattice.spectral import DFT_MATRIX_MAX_N, GRID_MIN_N, CellGrid


@pytest.fixture(scope="module")
def grid():
    m = np.array([[2.5, 0.8], [0.0, 2.1]])
    return CellGrid(m, 48)


def half_op(grid, name):
    """The CellGrid operator an oracle name stands for; curl* of a scalar is
    the kernel _curl_star_of on the scalar's half spectrum, and curl* curl
    that kernel on the half spectrum of the curl."""
    if name == "curl_star":
        return lambda f: grid._curl_star_of(grid._spectrum(f))
    if name == "curl_star_curl":
        return lambda v: curl_star_curl(grid, v)
    return getattr(grid, name)


def trig_field(grid, rng, modes=3):
    y1, y2 = grid.y
    f = np.zeros_like(y1)
    for _ in range(modes):
        k1, k2 = rng.integers(-4, 5, 2)
        f += rng.normal() * np.cos(2 * np.pi * (k1 * y1 + k2 * y2)
                                   + rng.uniform(0, 2 * np.pi))
    return f


def test_grad_of_plane_wave(grid):
    # f = cos(g . x) for a reciprocal vector g has gradient -g sin(g . x)
    g = grid.half_spectrum.ig[:, 2, 1].imag
    x1, x2 = grid.x
    f = np.cos(g[0] * x1 + g[1] * x2)
    d = grid.grad(f)
    target = -np.sin(g[0] * x1 + g[1] * x2)
    assert np.max(np.abs(d[0] - g[0] * target)) < 1e-11
    assert np.max(np.abs(d[1] - g[1] * target)) < 1e-11


def test_curl_of_gradient_vanishes(grid, rng):
    f = trig_field(grid, rng)
    assert np.max(np.abs(grid.curl(grid.grad(f)))) < 1e-11


def test_div_of_curl_star_vanishes(grid, rng):
    f = trig_field(grid, rng)
    assert np.max(np.abs(grid.div(half_op(grid, "curl_star")(f)))) < 1e-11


def test_helmholtz_output_constraints(grid, rng):
    v = np.stack([trig_field(grid, rng), trig_field(grid, rng)])
    p = helmholtz_project(grid, v)
    assert np.max(np.abs(grid.div(p))) < 1e-11
    assert np.max(np.abs(p.mean(axis=(1, 2)))) < 1e-14


def test_helmholtz_idempotent_and_orthogonal(grid, rng):
    v = np.stack([trig_field(grid, rng), trig_field(grid, rng)])
    w = np.stack([trig_field(grid, rng), trig_field(grid, rng)])
    pv = helmholtz_project(grid, v)
    assert np.max(np.abs(helmholtz_project(grid, pv) - pv)) < 1e-12
    pw = helmholtz_project(grid, w)
    ip = np.mean((v - pv) * pw)
    assert abs(ip) < 1e-13


def test_helmholtz_kills_gradients(grid, rng):
    chi = trig_field(grid, rng)
    assert np.max(np.abs(helmholtz_project(grid, grid.grad(chi)))) < 1e-11


def test_antiderivative_inverts_grad(grid, rng):
    chi = trig_field(grid, rng)
    chi -= chi.mean()
    v = grid.grad(chi)
    assert np.max(np.abs(grid.antiderivative(v) - chi)) < 1e-11


def test_resample_round_trip(grid, rng):
    f = trig_field(grid, rng)
    up = grid.resample(f, 96)
    fine = CellGrid(grid.m, 96)
    back = fine.resample(up, 48)
    assert np.max(np.abs(back - f)) < 1e-12
    # a (2, N, N) vector field resamples componentwise, both directions
    v = np.stack([f, np.roll(f, 7, axis=1)])
    for g, w, n in ((grid, v, 96), (fine, grid.resample(v, 96), 48)):
        assert np.array_equal(g.resample(w, n), np.stack([g.resample(c, n) for c in w]))


def test_shift_matches_analytic(grid):
    y1, y2 = grid.y
    f = np.cos(2 * np.pi * (2 * y1 - y2))
    dy = (0.13, 0.27)
    shifted = grid.shift(f, dy)
    target = np.cos(2 * np.pi * (2 * (y1 + dy[0]) - (y2 + dy[1])))
    assert np.max(np.abs(shifted - target)) < 1e-12


def half_dot(weights, a, b):
    """The weighted inner product of two rfft2 half spectra."""
    return float(np.sum(weights * (np.conj(a) * b).real))


@pytest.mark.parametrize("N", [16, 15])
def test_half_spectrum_inner_product_is_the_full_vdot(grid, rng, N):
    # two oracles: real fields' inner product on the full fft2 spectra and on
    # the rfft2 half spectrum with the grid's column weights
    weights = CellGrid(grid.m, N).half_spectrum.weights
    a, b = rng.standard_normal((2, N, N))
    ah, bh = np.fft.rfft2(a), np.fft.rfft2(b)
    fa, fb = np.fft.fft2(a), np.fft.fft2(b)
    scale = np.linalg.norm(fa) * np.linalg.norm(fb)
    for x, y, fx, fy in ((ah, ah, fa, fa), (bh, bh, fb, fb), (ah, bh, fa, fb)):
        assert abs(half_dot(weights, x, y) - np.vdot(fx, fy).real) <= 1e-13 * scale


@pytest.mark.parametrize("N", [16, 15])
def test_stream_function_operator_is_symmetric(grid, rng, N):
    # A phi = |g|^4 phi + curl(rho curl* phi), the operator of the alpha PCG,
    # built from the half-spectrum i g, is symmetric under the weighted product
    g = CellGrid(grid.m, N)
    ig, dead, gsq, weights = g.half_spectrum

    def A(ph):
        d = np.fft.irfft2(ig * ph, s=(N, N))
        vh = np.fft.rfft2(rho * np.stack([d[1], -d[0]]))
        return gsq * gsq * ph + ig[0] * vh[1] - ig[1] * vh[0]
    rho = 1.0 + rng.random((N, N))
    p, q = np.fft.rfft2(rng.standard_normal((2, N, N)))
    p[dead] = q[dead] = 0.0
    lhs, rhs = half_dot(weights, p, A(q)), half_dot(weights, A(p), q)
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_min_nonzero_gsq_positive(grid):
    assert min_nonzero_gsq(grid) > 0


# ----------------------------------------------------------------------
# the half-spectrum operators against the full-spectrum oracle
# ----------------------------------------------------------------------
SCALAR_OPS = ("grad", "curl_star", "shift")
VECTOR_OPS = ("div", "curl", "curl_star_curl", "antiderivative")


def op_args(name, f, v):
    if name == "shift":
        return (f, (0.13, -0.41))
    return (v,) if name in VECTOR_OPS else (f,)


@pytest.mark.parametrize("name", SCALAR_OPS + VECTOR_OPS)
@pytest.mark.parametrize("N", [16, 48, 15])
def test_operators_match_full_spectrum_oracle(grid, rng, N, name):
    # random fields carry every mode, the Nyquist ones of an even grid too
    half, full = CellGrid(grid.m, N), FullSpectrumGrid(grid.m, N)
    args = op_args(name, rng.standard_normal((N, N)), rng.standard_normal((2, N, N)))
    got, ref = half_op(half, name)(*args), getattr(full, name)(*args)
    assert got.shape == ref.shape and not np.iscomplexobj(got)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("N, N_new", [(16, 32), (16, 48), (48, 16), (32, 16), (16, 18)])
def test_resample_matches_full_spectrum_oracle(grid, rng, N, N_new):
    # even to even the oracle's Nyquist convention holds: the real part of
    # the zero-padded (or truncated) spectrum
    for f in (rng.standard_normal((N, N)), rng.standard_normal((2, N, N))):
        ref = FullSpectrumGrid(grid.m, N).resample(f, N_new)
        got = CellGrid(grid.m, N).resample(f, N_new)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("N, N_new", [(15, 40), (16, 15), (15, 16), (32, 31), (32, 15),
                                      (33, 32), (15, 45)])
def test_resample_across_parities_is_exact(grid, N, N_new):
    # a band-limited field resamples exactly between grids of any parity
    def field(g):
        y1, y2 = g.y
        return np.cos(2 * np.pi * (2 * y1 - y2)) + 0.3 * np.sin(2 * np.pi * (y1 + 3 * y2))
    src, dst = CellGrid(grid.m, N), CellGrid(grid.m, N_new)
    assert np.max(np.abs(src.resample(field(src), N_new) - field(dst))) < 1e-12


@pytest.mark.parametrize("name", SCALAR_OPS + VECTOR_OPS + ("resample",))
def test_complex_fields_are_refused(grid, rng, name):
    f = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))
    v = np.stack([f, f])
    args = (f, 32) if name == "resample" else op_args(name, f, v)
    with pytest.raises(TypeError):
        half_op(grid, name)(*args)


@pytest.mark.parametrize("N", [128, 96])
def test_point_curl_matches_output_grid_curl(shape_generic, N):
    # curl a of a branch point, resampled from the solve grid, against the
    # curl of the resampled alpha on the output grid
    setup = bif.build_reduction(shape_generic, N, K_lev=24)
    pt = bif.branch_by_field(1.9, np.sqrt(2.0), shape_generic, setup=setup)
    grid = setup.basis.grid
    curl_a = 1.0 + grid.curl(pt.alpha.values)
    assert abs(pt.max_curl_a - np.max(curl_a)) <= 1e-13 * abs(np.max(curl_a))
    flux = cell_flux(grid, curl_a)
    assert abs(cell_flux(grid, 1 + pt.curl_alpha) - flux) <= 1e-13 * abs(flux)


# ----------------------------------------------------------------------
# the transforms: DFT matrices up to DFT_MATRIX_MAX_N, numpy's FFT above
# ----------------------------------------------------------------------
@pytest.mark.parametrize("N", range(GRID_MIN_N, DFT_MATRIX_MAX_N + 1))
def test_matrix_transforms_match_numpy_fft(rng, N):
    # every side the matrices serve, odd and even, on single and stacked
    # fields: within 1e-14 of rfft2 and irfft2, relative to the largest
    # entry (1.1e-15 measured), and irfft2's reading of any half spectrum,
    # whose self-mirrored columns count by their real part alone
    grid = CellGrid(np.array([[1.3, 0.4], [0.0, 0.9]]), N)
    for lead in ((), (2,)):
        f = rng.standard_normal((*lead, N, N))
        ref = np.fft.rfft2(f)
        assert np.max(np.abs(grid._spectrum(f) - ref)) <= 1e-14 * np.max(np.abs(ref))
        fh = (rng.standard_normal((*lead, N, N // 2 + 1))
              + 1j * rng.standard_normal((*lead, N, N // 2 + 1)))
        ref = np.fft.irfft2(fh, s=(N, N))
        assert np.max(np.abs(grid._field(fh) - ref)) <= 1e-14 * np.max(np.abs(ref))
    # a constant (here with an exact sum) has exactly nothing off the mean
    # bin, and the mean bin alone gives back an exact constant
    fh = grid._spectrum(np.full((2, N, N), 0.75))
    assert np.all(fh[:, 0, 0] == 0.75 * N * N)
    fh[:, 0, 0] = 0.0
    assert not fh.any()
    fh[:, 0, 0] = 0.75 * N * N
    f = grid._field(fh)
    assert np.all(f == f[:, :1, :1]) and np.max(np.abs(f - 0.75)) <= 2e-16
    # as in irfft2, the imaginary part of the self-mirrored columns 0 and
    # N/2 (even N) counts for nothing
    fh = np.zeros((2, N, N // 2 + 1), complex)
    fh[0, 0, 0] = 1j
    fh[1, 0, N // 2] = 1j if N % 2 == 0 else 0.0
    assert not grid._field(fh).any() and not np.fft.irfft2(fh, s=(N, N)).any()


@pytest.mark.parametrize("N", [DFT_MATRIX_MAX_N + 1, DFT_MATRIX_MAX_N + 2, 96])
def test_grids_above_the_size_rule_keep_numpy_fft(rng, N):
    grid = CellGrid(np.eye(2), N)
    f = rng.standard_normal((2, N, N))
    assert np.array_equal(grid._spectrum(f), np.fft.rfft2(f))
    fh = np.fft.rfft2(f)
    assert np.array_equal(grid._field(fh), np.fft.irfft2(fh, s=(N, N)))
