import numpy as np
import pytest

from reference import helmholtz_project, min_nonzero_gsq
from vortexlattice.spectral import CellGrid


@pytest.fixture(scope="module")
def grid():
    m = np.array([[2.5, 0.8], [0.0, 2.1]])
    return CellGrid(m, 48)


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
    g1v, g2v = grid.wavevectors
    g = np.array([g1v[2, 1], g2v[2, 1]])
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
    assert np.max(np.abs(grid.div(grid.curl_star(f)))) < 1e-11


def test_poisson_residual(grid, rng):
    rhs = trig_field(grid, rng)
    rhs -= rhs.mean()
    u = grid.poisson(rhs)
    assert np.max(np.abs(grid.laplacian(u) - rhs)) < 1e-10
    assert abs(u.mean()) < 1e-13


def test_poisson_rejects_nonzero_mean(grid):
    with pytest.raises(ValueError):
        grid.poisson(np.ones((48, 48)))


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
