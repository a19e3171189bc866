import json

import numpy as np
import pytest

from vortexlattice import bifurcation as bif, cli, gauge, glcore, landau, snapshot
from vortexlattice.lattice import LatticeReductionError


def run(argv):
    return cli.main(argv)


def test_beta_scan_and_determinism(tmp_path):
    out = tmp_path / "a"
    assert run(["beta", "--tau-grid", "fundamental:4x3", "--outdir", str(out)]) == 0
    first = (out / "beta_scan.csv").read_bytes()
    assert run(["beta", "--tau-grid", "fundamental:4x3", "--outdir", str(out)]) == 0
    # identical config reproduces the output byte-identically
    assert (out / "beta_scan.csv").read_bytes() == first
    rows = np.loadtxt((out / "beta_scan.csv").open(), delimiter=",", skiprows=2)
    assert rows.shape == (12, 4)
    assert np.all(rows[:, 2] > 1.0)


def test_outdir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("VORTEXLATTICE_OUT", str(tmp_path / "envout"))
    assert run(["beta", "--tau-grid", "square"]) == 0
    assert (tmp_path / "envout" / "beta_scan.csv").exists()


def test_beta_named_taus(tmp_path):
    assert run(["beta", "--tau-grid", "square;triangular",
                "--outdir", str(tmp_path)]) == 0
    rows = np.loadtxt((tmp_path / "beta_scan.csv").open(), delimiter=",", skiprows=2)
    assert rows[0, 2] == pytest.approx(1.1803406, abs=1e-6)
    assert rows[1, 2] == pytest.approx(1.1595953, abs=1e-6)


def test_beta_parallel_jobs_match(tmp_path):
    o1, o2 = tmp_path / "s", tmp_path / "p"
    run(["beta", "--tau-grid", "fundamental:3x3", "--outdir", str(o1)])
    run(["beta", "--tau-grid", "fundamental:3x3", "--jobs", "2", "--outdir", str(o2)])
    r1 = np.loadtxt((o1 / "beta_scan.csv").open(), delimiter=",", skiprows=2)
    r2 = np.loadtxt((o2 / "beta_scan.csv").open(), delimiter=",", skiprows=2)
    assert np.array_equal(r1, r2)
    # outdir and jobs are execution-only: same header and config hash
    assert (o1 / "beta_scan.csv").read_bytes() == (o2 / "beta_scan.csv").read_bytes()


def test_critical_points_command(tmp_path):
    assert run(["critical-points", "--outdir", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "critical_points.json").read_text())
    pts = data["critical_points"]
    assert len(pts) == 2
    kinds = {p["kind"] for p in pts}
    assert kinds == {"minimum", "maximum"}
    for p in pts:
        assert p["gradient_norm"] < 1e-8


def test_branch_command(tmp_path):
    assert run(["branch", "--kappa2", "2", "--tau", "0.5,0.8660254037844386",
                "--s-max", "0.1", "--s-points", "5", "--N", "64",
                "--outdir", str(tmp_path)]) == 0
    rows = np.loadtxt((tmp_path / "branch.csv").open(), delimiter=",", skiprows=2)
    assert rows.shape == (5, 10)
    lines = (tmp_path / "branch.csv").read_text().splitlines()
    header = lines[1].split(",")
    assert header[-2:] == ["coeff_tail", "grid_tail"]
    assert np.all(rows[:, -2] < 1e-8)
    # the solve grid is the basis's own, named in the header, and resolves |psi|^2
    assert json.loads(lines[0][2:])["solve_N"] == 32
    assert np.all(rows[:, -1] < 1e-14)
    rep = json.loads((tmp_path / "branch_expansion.json").read_text())
    assert rep["solve_N"] == 32
    assert rep["g_lambda_prime0"] == pytest.approx(2.2393930, rel=1e-3)


def test_field_landscape_command(tmp_path):
    assert run(["field-landscape", "--kappa2", "2", "--b", "1.9",
                "--tau-grid", "square;triangular", "--outdir", str(tmp_path)]) == 0
    rows = np.loadtxt((tmp_path / "field_landscape.csv").open(), delimiter=",",
                      skiprows=2)
    # triangular beats square
    assert rows[1, 4] < rows[0, 4]


def test_field_landscape_numeric_reports_truncation(tmp_path):
    # the numeric columns carry the alpha residual and the Landau tail
    assert run(["field-landscape", "--kappa2", "2", "--b", "1.9", "--numeric",
                "--tau-grid", "square", "--outdir", str(tmp_path)]) == 0
    lines = (tmp_path / "field_landscape.csv").read_text().splitlines()
    header = lines[1].split(",")
    assert header[-4:] == ["E_b_numeric", "residual_alpha", "coeff_tail", "grid_tail"]
    row = dict(zip(header, map(float, lines[2].split(","))))
    assert row["residual_alpha"] < 1e-9
    assert row["coeff_tail"] < 1e-8
    assert row["grid_tail"] < 1e-14
    assert json.loads(lines[0][2:])["solve_N"] == [32]


def test_gauge_fix_command(tmp_path, shape_generic):
    setup = bif.build_reduction(shape_generic, N=32, K_lev=16)
    pt = bif.branch_by_field(1.9, np.sqrt(2), shape_generic, setup=setup)
    psi = landau.field_from_coeffs(setup.basis, pt.psi_coeffs)
    state = glcore.GLState(psi, pt.alpha, glcore.GLParams(np.sqrt(2), 1, pt.lam))
    raw = gauge.raw_from_state(state)
    grid = raw.grid
    y1, y2 = grid.y
    raw = gauge.gauge_transform(raw, 0.3 * np.sin(2 * np.pi * y1), (0.1, 0.0))
    inp = tmp_path / "raw.csv"
    snapshot.save_raw_state(inp, raw)
    assert run(["gauge-fix", "--input", str(inp), "--kappa2", "2",
                "--outdir", str(tmp_path)]) == 0
    fixed = snapshot.load_state(tmp_path / "fixed_state.csv")
    assert landau.quasi_periodicity_residual(fixed.psi) < 1e-8


def test_verify_spectrum(tmp_path):
    assert run(["verify", "spectrum", "--N", "48", "--N-fd", "48",
                "--outdir", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "verify_spectrum.json").read_text())
    assert data["all_pass"] is True


def test_verify_symmetry(tmp_path):
    assert run(["verify", "symmetry", "--N", "48", "--K-lev", "24",
                "--outdir", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "verify_symmetry.json").read_text())
    assert data["all_pass"] is True


def test_verify_gauge(tmp_path):
    assert run(["verify", "gauge", "--N", "48", "--K-lev", "24", "--trials", "2",
                "--outdir", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "verify_gauge.json").read_text())
    assert data["all_pass"] is True


def test_verify_asymptotics(tmp_path):
    assert run(["verify", "asymptotics", "--N", "48", "--K-lev", "24",
                "--tau", "square", "--outdir", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "verify_asymptotics.json").read_text())
    assert data["all_pass"] is True


def test_invalid_config_exit_code(tmp_path):
    assert run(["beta", "--tau-grid", "nonsense!", "--outdir", str(tmp_path)]) == 2
    assert run(["verify", "bogus-suite", "--outdir", str(tmp_path)]) == 2
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"unknown_key": 1}')
    assert run(["beta", "--config", str(cfg), "--outdir", str(tmp_path)]) == 2
    # only the commands that write sampled fields have an output grid N
    cfg.write_text('{"N": 64}')
    for command in ("beta", "field-landscape"):
        assert run([command, "--config", str(cfg), "--outdir", str(tmp_path)]) == 2
    cfg.write_text('["N"]')
    assert run(["beta", "--config", str(cfg), "--outdir", str(tmp_path)]) == 2
    # nonsense physics is refused before any solve or output; the expansion
    # fit needs 5 branch points, and each integer size has its minimum
    out = tmp_path / "out"
    for argv in (["field-landscape", "--kappa2", "-1", "--tau-grid", "square"],
                 ["field-landscape", "--b", "0", "--tau-grid", "square"],
                 ["branch", "--kappa2", "-1"],
                 ["branch", "--s-max", "0"],
                 ["branch", "--s-points", "0"],
                 ["branch", "--s-points", "3"],
                 ["branch", "--tau", "0,-1"],
                 ["beta", "--tau-grid", "0.2,nan"],
                 ["beta", "--jobs", "0"],
                 ["verify", "spectrum", "--N-fd", "0"],
                 ["verify", "spectrum", "--N-fd", "2"],
                 ["verify", "gauge", "--trials", "0"],
                 ["branch", "--N", "0"],
                 ["branch", "--N", "3"],
                 ["field-landscape", "--numeric", "--K-lev", "0"]):
        assert run(argv + ["--outdir", str(out)]) == 2, argv
    assert not out.exists()


def test_smallest_sizes_run(tmp_path):
    # the minimum of each size is a working value, not an error
    assert run(["verify", "spectrum", "--N-fd", "3", "--N", "16",
                "--outdir", str(tmp_path)]) == 0
    assert run(["field-landscape", "--numeric", "--K-lev", "1",
                "--tau-grid", "square", "--outdir", str(tmp_path)]) == 0
    rows = np.loadtxt((tmp_path / "field_landscape.csv").open(), delimiter=",",
                      skiprows=2)
    assert np.isfinite(rows).all()


# every flag of the parser; the config keys are these without the leading
# "--" and with "-" read as "_", plus verify's positional suite
FLAGS = {
    "beta": {"--config", "--jobs", "--method", "--outdir", "--output", "--tau-grid"},
    "critical-points": {"--config", "--outdir", "--output"},
    "branch": {"--K-lev", "--N", "--config", "--kappa2", "--outdir", "--prefix",
               "--s-max", "--s-points", "--tau"},
    "field-landscape": {"--K-lev", "--b", "--config", "--kappa2", "--numeric",
                        "--outdir", "--output", "--tau-grid"},
    "gauge-fix": {"--config", "--input", "--kappa2", "--outdir", "--output"},
    "verify": {"--K-lev", "--N", "--N-fd", "--config", "--kappa2", "--outdir",
               "--output", "--seed", "--tau", "--trials"},
}


def test_flag_sets_are_pinned():
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    assert set(sub.choices) == set(FLAGS)
    for name, parser in sub.choices.items():
        flags = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
        positional = [a.dest for a in parser._actions if not a.option_strings]
        assert flags == FLAGS[name], name
        assert positional == (["suite"] if name == "verify" else []), name


@pytest.mark.parametrize("argv, values", [
    (["beta", "--tau-grid", "square"], {"method": "quad"}),
    (["field-landscape", "--tau-grid", "square"], {"kappa2": "2"}),
    (["branch"], {"N": 64.5}),
    (["field-landscape", "--tau-grid", "square"], {"numeric": 1}),
    (["verify"], {"suite": "bogus"}),
], ids=["method-choice", "kappa2-str", "N-float", "numeric-int", "suite-choice"])
def test_config_values_are_checked_like_flags(tmp_path, argv, values):
    # a file value of the wrong type or outside its choices is a configuration
    # error: exit 2 before any solve, no failure marker and no output
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    out = tmp_path / "out"
    assert run(argv + ["--config", str(cfg), "--outdir", str(out)]) == 2
    assert not out.exists()


def test_config_file_values_reach_the_command(tmp_path):
    # an int passes for a float, and flags win over the file
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tau_grid": "square", "method": "lattice_sum"}))
    assert run(["beta", "--config", str(cfg), "--method", "quadrature",
                "--outdir", str(tmp_path)]) == 0
    header = json.loads((tmp_path / "beta_scan.csv").read_text().splitlines()[0][2:])
    assert header["config"] == {"method": "quadrature", "output": "beta_scan.csv",
                                "tau_grid": "square"}
    cfg.write_text(json.dumps({"kappa2": 2, "tau_grid": "square"}))
    assert run(["field-landscape", "--config", str(cfg), "--outdir", str(tmp_path)]) == 0


def test_solver_failure_exit_code(tmp_path):
    # b on the excluded side of kappa^2 triggers a refusal -> exit 3 + marker
    rc = run(["field-landscape", "--kappa2", "2", "--b", "2.1", "--numeric",
              "--tau-grid", "square", "--outdir", str(tmp_path)])
    assert rc == 3
    marker = json.loads((tmp_path / "FAILED.json").read_text())
    assert marker["status"] == "failed"


@pytest.mark.parametrize("exc", [glcore.AlphaSolveError, LatticeReductionError,
                                 ZeroDivisionError])
def test_typed_solver_failures_exit_3(tmp_path, monkeypatch, exc):
    def fail(*a, **kw):
        raise exc("injected")
    monkeypatch.setattr(bif, "solve_branch", fail)
    assert run(["branch", "--outdir", str(tmp_path)]) == 3
    assert json.loads((tmp_path / "FAILED.json").read_text())["error"] == "injected"


def test_programming_error_propagates(tmp_path, monkeypatch):
    # a bug is not a solver failure: no exit 3 and no failure marker
    def fail(*a, **kw):
        raise TypeError("bug")
    monkeypatch.setattr(bif, "solve_branch", fail)
    with pytest.raises(TypeError, match="bug"):
        run(["branch", "--outdir", str(tmp_path)])
    assert not (tmp_path / "FAILED.json").exists()
