import io
import json
from dataclasses import replace

import numpy as np
import pytest

from vortexlattice import bifurcation as bif, gauge, glcore, landau, snapshot


@pytest.fixture(scope="module")
def state(shape_tri):
    kappa = np.sqrt(2.0)
    setup = bif.build_reduction(shape_tri, N=32, K_lev=16)
    pt = bif.branch_by_field(1.9, kappa, shape_tri, setup=setup)
    psi = landau.field_from_coeffs(setup.basis, pt.psi_coeffs)
    return glcore.GLState(psi, pt.alpha, glcore.GLParams(kappa, 1, pt.lam))


def test_field_round_trip(tmp_path, shape_tri):
    psi0 = landau.theta_field(shape_tri, 32)
    path = tmp_path / "field.csv"
    snapshot.save_field(path, psi0)
    back = snapshot.load_field(path)
    assert back.n == 1
    assert np.max(np.abs(back.values - psi0.values)) < 1e-12
    assert abs(complex(back.shape.tau) - complex(psi0.shape.tau)) < 1e-12


def test_state_round_trip(tmp_path, state):
    path = tmp_path / "state.csv"
    snapshot.save_state(path, state)
    back = snapshot.load_state(path)
    assert np.max(np.abs(back.psi.values - state.psi.values)) < 1e-12
    assert np.max(np.abs(back.alpha.values - state.alpha.values)) < 1e-12
    assert back.params.kappa == pytest.approx(state.params.kappa)
    assert back.params.lam == pytest.approx(state.params.lam)


def test_raw_state_round_trip(tmp_path, state):
    # the largest boundary constant the loaders accept keeps its bits
    raw = replace(gauge.raw_from_state(state),
                  bc_const=(float(np.nextafter(snapshot.BC_CONST_MAX, 0)), -3.25))
    path = tmp_path / "raw.csv"
    snapshot.save_raw_state(path, raw)
    back = snapshot.load_raw_state(path)
    assert np.max(np.abs(back.psi - raw.psi)) < 1e-12
    assert np.max(np.abs(back.a_p - raw.a_p)) < 1e-12
    assert back.r == pytest.approx(raw.r)
    assert back.bc_const == raw.bc_const


def test_loaders_read_columns_by_name(tmp_path, state):
    # a raw snapshot with its columns in another order loads the same state;
    # one without a column the loader returns is refused
    raw = gauge.raw_from_state(state)
    zero = np.zeros(raw.psi.shape)
    cols = {"y1": zero, "y2": zero, "ap2": raw.a_p[1], "re_psi": raw.psi.real,
            "ap1": raw.a_p[0], "im_psi": raw.psi.imag}
    header = {"kind": "raw", "n": raw.n, "tau": [raw.shape.tau1, raw.shape.tau2],
              "N": raw.N, "r": raw.r, "bc_const": list(raw.bc_const)}
    path = tmp_path / "shuffled.csv"
    snapshot.write_table(path, header, list(cols), [a.ravel() for a in cols.values()])
    back = snapshot.load_raw_state(path)
    assert np.max(np.abs(back.psi - raw.psi)) < 1e-12
    assert np.max(np.abs(back.a_p - raw.a_p)) < 1e-12
    del cols["ap2"]
    snapshot.write_table(path, header, list(cols), [a.ravel() for a in cols.values()])
    with pytest.raises(ValueError, match="ap2"):
        snapshot.load_raw_state(path)
    # a state in the earlier 7-column layout, with y1, y2 and curl_a, loads
    # bitwise the state of the current layout
    new, old = tmp_path / "state.csv", tmp_path / "state_old.csv"
    snapshot.save_state(new, state)
    alpha = state.alpha
    curl_a = (state.params.n + alpha.grid.curl(alpha.values)).ravel()
    y1, y2 = (y.ravel() for y in state.psi.grid.y)
    snapshot.write_table(old, json.loads(new.read_text().splitlines()[0][2:]),
                         ["y1", "y2", "re_psi", "im_psi", "alpha1", "alpha2", "curl_a"],
                         [y1, y2, state.psi.values.real.ravel(), state.psi.values.imag.ravel(),
                          alpha.values[0].ravel(), alpha.values[1].ravel(), curl_a])
    a, b = snapshot.load_state(new), snapshot.load_state(old)
    assert np.array_equal(a.psi.values, b.psi.values)
    assert np.array_equal(a.alpha.values, b.alpha.values)
    assert a.params == b.params
    assert a.psi.bc_const == b.psi.bc_const


def test_save_raw_state_rejects_gl_state(tmp_path, state):
    with pytest.raises(TypeError):
        snapshot.save_raw_state(tmp_path / "raw.csv", state)


def test_snapshot_headers(tmp_path, state):
    path = tmp_path / "state.csv"
    snapshot.save_state(path, state, extra={"note": 1})
    text = path.read_text().splitlines()
    assert text[0].startswith("# {")
    assert text[1] == "re_psi,im_psi,alpha1,alpha2"
    snapshot.save_raw_state(path, gauge.raw_from_state(state))
    assert path.read_text().splitlines()[1] == "re_psi,im_psi,ap1,ap2"
    snapshot.save_field(path, state.psi)
    assert path.read_text().splitlines()[1] == "re_psi,im_psi"


def test_deterministic_bytes(tmp_path, state):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    snapshot.save_state(p1, state)
    snapshot.save_state(p2, state)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("data", [
    np.array([[-0.0, np.nan, np.inf], [-np.inf, 5e-324, 1e300]]),
    np.array([[0.1, -2.5, 3.0, 1e-17]]),
    np.random.default_rng(7).standard_normal((3 * 4096 + 5, 3)),
], ids=["special_values", "one_row", "several_blocks"])
def test_write_table_matches_savetxt(tmp_path, data):
    path = tmp_path / "table.csv"
    names = [f"c{i}" for i in range(data.shape[1])]
    snapshot.write_table(path, {"kind": "t"}, names, list(data.T))
    buf = io.StringIO()
    np.savetxt(buf, data, fmt="%.17g", delimiter=",")
    expected = '# {"kind": "t"}\n' + ",".join(names) + "\n" + buf.getvalue()
    assert path.read_bytes() == expected.encode()
