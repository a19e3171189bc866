import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vortexlattice import abrikosov, bifurcation as bif, cli, gauge, glcore, landau, snapshot
from vortexlattice.lattice import LatticeReductionError, normalize_tau


def run(argv):
    """The exit code of one command, the parser's own exit on a flag it does
    not know included."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def test_beta_scan_and_determinism(tmp_path):
    out = tmp_path / "a"
    assert run(["beta", "--tau-grid", "fundamental:4x3", "--outdir", str(out)]) == 0
    first = (out / "beta_scan.csv").read_bytes()
    assert run(["beta", "--tau-grid", "fundamental:4x3", "--outdir", str(out)]) == 0
    # identical config reproduces the output byte-identically
    assert (out / "beta_scan.csv").read_bytes() == first
    rows = np.loadtxt(out / "beta_scan.csv", delimiter=",", skiprows=2)
    assert rows.shape == (12, 4)
    assert np.all(rows[:, 2] > 1.0)


def test_outdir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("VORTEXLATTICE_OUT", str(tmp_path / "envout"))
    assert run(["beta", "--tau-grid", "square"]) == 0
    assert (tmp_path / "envout" / "beta_scan.csv").exists()


def test_beta_named_taus(tmp_path):
    assert run(["beta", "--tau-grid", "square;triangular",
                "--outdir", str(tmp_path)]) == 0
    rows = np.loadtxt(tmp_path / "beta_scan.csv", delimiter=",", skiprows=2)
    assert rows[0, 2] == pytest.approx(1.1803406, abs=1e-6)
    assert rows[1, 2] == pytest.approx(1.1595953, abs=1e-6)


def test_beta_outdir_is_execution_only(tmp_path):
    o1, o2 = tmp_path / "s", tmp_path / "p"
    assert run(["beta", "--tau-grid", "fundamental:3x3", "--outdir", str(o1)]) == 0
    assert run(["beta", "--tau-grid", "fundamental:3x3", "--outdir", str(o2)]) == 0
    # outdir is execution-only: same header and config hash
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
                "--s-max", "0.1", "--s-points", "5", "--outdir", str(tmp_path)]) == 0
    rows = np.loadtxt(tmp_path / "branch.csv", delimiter=",", skiprows=2)
    assert rows.shape == (5, 11)
    lines = (tmp_path / "branch.csv").read_text().splitlines()
    header = lines[1].split(",")
    assert header[-3:] == ["coeff_tail", "grid_tail", "sweeps"]
    assert np.all(rows[:, -3] < 1e-8)
    # the solve grid is the basis's own, named in the header, and resolves |psi|^2
    assert json.loads(lines[0][2:])["solve_N"] == 32
    assert np.all(rows[:, -2] < 1e-14)
    # each point's sweep count: the first starts cold, the rest predicted
    assert rows[0, -1] >= 1 and np.all((rows[1:, -1] >= 1) & (rows[1:, -1] <= 3))
    rep = json.loads((tmp_path / "branch_expansion.json").read_text())
    assert rep["solve_N"] == 32
    assert rep["g_lambda_prime0"] == pytest.approx(2.2393930, rel=1e-3)


def test_default_branch_builds_one_transform_table(tmp_path, monkeypatch):
    # branch writes no field, so it samples on the solve grid and its basis
    # builds that grid's table alone
    tables = []
    table = landau.LandauBasis._table
    monkeypatch.setattr(landau.LandauBasis, "_table",
                        lambda self, G: tables.append(G) or table(self, G))
    assert run(["branch", "--outdir", str(tmp_path)]) == 0
    assert tables == [32]


def test_field_landscape_command(tmp_path):
    assert run(["field-landscape", "--kappa2", "2", "--b", "1.9",
                "--tau-grid", "square;triangular", "--outdir", str(tmp_path)]) == 0
    rows = np.loadtxt(tmp_path / "field_landscape.csv", delimiter=",",
                      skiprows=2)
    # triangular beats square
    assert rows[1, 4] < rows[0, 4]


def test_field_landscape_numeric_reports_truncation(tmp_path):
    # the numeric columns carry the alpha residual and the Landau tail
    assert run(["field-landscape", "--kappa2", "2", "--b", "1.9", "--numeric",
                "--tau-grid", "square", "--outdir", str(tmp_path)]) == 0
    lines = (tmp_path / "field_landscape.csv").read_text().splitlines()
    header = lines[1].split(",")
    assert header[-5:] == ["E_b_numeric", "residual_alpha", "coeff_tail", "grid_tail",
                           "sweeps"]
    row = dict(zip(header, map(float, lines[2].split(","))))
    assert row["residual_alpha"] < 1e-9
    assert row["coeff_tail"] < 1e-8
    assert row["grid_tail"] < 1e-14
    assert row["sweeps"] >= 1 and row["sweeps"] == int(row["sweeps"])
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
    argv = ["gauge-fix", "--input", str(inp), "--kappa2", "2", "--outdir", str(tmp_path)]
    assert run(argv) == 0
    first = (tmp_path / "fixed_state.csv").read_bytes()
    fixed = snapshot.load_state(tmp_path / "fixed_state.csv")
    assert landau.quasi_periodicity_residual(fixed.psi) < 1e-8
    # identical input and config reproduce the output byte-identically
    assert run(argv) == 0
    assert (tmp_path / "fixed_state.csv").read_bytes() == first


# Runs in a fresh interpreter, where no other test's imports can hide a module:
# argv is the directory holding the package, the raw snapshot and the outdir.
IMPORT_GUARD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from vortexlattice import cli, landau
assert cli.main(["beta", "--tau-grid", "square;triangular", "--outdir", sys.argv[3]]) == 0
assert cli.main(["gauge-fix", "--input", sys.argv[2], "--outdir", sys.argv[3]]) == 0
print(json.dumps(sorted(m for m in ("scipy", "multiprocessing") if m in sys.modules)))
print(json.dumps(landau.fd_spectrum(1, 16)[:4].tolist()))
"""


def test_commands_start_without_scipy(tmp_path, shape_generic):
    psi = landau.theta_field(shape_generic, 16)
    alpha = glcore.PeriodicVectorField(np.zeros((2, 16, 16)), psi.grid)
    raw = gauge.raw_from_state(glcore.GLState(psi, alpha, glcore.GLParams(1.0, 1, 1.0)))
    y1, _ = raw.grid.y
    raw = gauge.gauge_transform(raw, 0.3 * np.sin(2 * np.pi * y1), (0.1, 0.0))
    inp = tmp_path / "raw.csv"
    snapshot.save_raw_state(inp, raw)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    out = subprocess.run([sys.executable, "-c", IMPORT_GUARD, src, str(inp),
                          str(tmp_path / "out")],
                         capture_output=True, text=True, timeout=300, check=True)
    loaded, vals = (json.loads(ln) for ln in out.stdout.splitlines()[-2:])
    assert loaded == []
    # fd_spectrum loads scipy itself; its eigenvalues meet the relative
    # tolerance of the verify spectrum suite
    target = np.array([1.0, 3.0, 5.0, 7.0])
    assert np.max(np.abs(np.array(vals) - target) / target) < 0.02


def test_branch_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the solve-grid transforms are BLAS matrix products: a branch run at one
    # and at two BLAS threads writes the same bytes
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c",
                        "import sys; from vortexlattice import cli; "
                        "sys.exit(cli.main(sys.argv[1:]))",
                        "branch", "--tau", "0.3,1.2", "--outdir", str(out)],
                       env=env, capture_output=True, timeout=300, check=True)
        outputs.append((out / "branch.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_verify_spectrum(tmp_path):
    assert run(["verify", "spectrum", "--N-fd", "48",
                "--outdir", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "verify_spectrum.json").read_text())
    assert data["all_pass"] is True


def test_verify_symmetry(tmp_path):
    assert run(["verify", "symmetry", "--K-lev", "24",
                "--outdir", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "verify_symmetry.json").read_text())
    assert data["all_pass"] is True


def test_verify_gauge(tmp_path):
    argv = ["verify", "gauge", "--K-lev", "24", "--trials", "2", "--outdir", str(tmp_path)]
    assert run(argv) == 0
    first = (tmp_path / "verify_gauge.json").read_bytes()
    data = json.loads(first)
    assert data["all_pass"] is True
    # a re-run writes the same bytes
    assert run(argv) == 0
    assert (tmp_path / "verify_gauge.json").read_bytes() == first


def test_verify_asymptotics(tmp_path):
    assert run(["verify", "asymptotics", "--K-lev", "24",
                "--tau", "square", "--outdir", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "verify_asymptotics.json").read_text())
    assert data["all_pass"] is True


def test_output_in_a_subdirectory(tmp_path):
    # the output's own directories are made before the command writes it
    assert run(["critical-points", "--output", "sub/cp.json", "--outdir", str(tmp_path)]) == 0
    assert len(json.loads((tmp_path / "sub" / "cp.json").read_text())["critical_points"]) == 2


def test_invalid_config_exit_code(tmp_path):
    assert run(["beta", "--tau-grid", "nonsense!", "--outdir", str(tmp_path)]) == 2
    assert run(["verify", "bogus-suite", "--outdir", str(tmp_path)]) == 2
    cfg = tmp_path / "bad.json"
    for keys in ('{"unknown_key": 1}', '{"jobs": 2}'):
        cfg.write_text(keys)
        assert run(["beta", "--config", str(cfg), "--outdir", str(tmp_path)]) == 2
    # no command has an output grid N: branch and verify sample on the solve grid
    cfg.write_text('{"N": 64}')
    for command in ("beta", "field-landscape", "branch", "verify"):
        assert run([command, "--config", str(cfg), "--outdir", str(tmp_path)]) == 2
    cfg.write_text('["N"]')
    assert run(["beta", "--config", str(cfg), "--outdir", str(tmp_path)]) == 2
    # nonsense physics is refused before any solve or output; the expansion
    # fit needs 5 branch points, each integer size has its minimum, and --N
    # is no flag (nor an abbreviation of verify's --N-fd)
    out = tmp_path / "out"
    for argv in (["field-landscape", "--kappa2", "-1", "--tau-grid", "square"],
                 ["field-landscape", "--b", "0", "--tau-grid", "square"],
                 ["branch", "--kappa2", "-1"],
                 ["branch", "--s-max", "0"],
                 ["branch", "--s-points", "0"],
                 ["branch", "--s-points", "3"],
                 ["branch", "--tau", "0,-1"],
                 ["beta", "--tau-grid", "0.2,nan"],
                 ["beta", "--tau-grid", "fundamental:2x2:junk"],
                 ["verify", "spectrum", "--N-fd", "0"],
                 ["verify", "spectrum", "--N-fd", "2"],
                 ["verify", "gauge", "--trials", "0"],
                 ["branch", "--N", "64"],
                 ["verify", "gauge", "--N", "48"],
                 ["field-landscape", "--numeric", "--K-lev", "0"]):
        assert run(argv + ["--outdir", str(out)]) == 2, argv
    assert not out.exists()


def test_smallest_sizes_run(tmp_path):
    # the minimum of each size is a working value, not an error
    assert run(["verify", "spectrum", "--N-fd", "3",
                "--outdir", str(tmp_path)]) == 0
    assert run(["field-landscape", "--numeric", "--K-lev", "1",
                "--tau-grid", "square", "--outdir", str(tmp_path)]) == 0
    rows = np.loadtxt(tmp_path / "field_landscape.csv", delimiter=",",
                      skiprows=2)
    assert np.isfinite(rows).all()


# every flag of the parser; the config keys are these without the leading
# "--" and with "-" read as "_", plus verify's positional suite
FLAGS = {
    "beta": {"--config", "--method", "--outdir", "--output", "--tau-grid"},
    "critical-points": {"--config", "--outdir", "--output"},
    "branch": {"--K-lev", "--config", "--kappa2", "--outdir", "--prefix",
               "--s-max", "--s-points", "--tau"},
    "field-landscape": {"--K-lev", "--b", "--config", "--kappa2", "--numeric",
                        "--outdir", "--output", "--tau-grid"},
    "gauge-fix": {"--config", "--input", "--kappa2", "--outdir", "--output"},
    "verify": {"--K-lev", "--N-fd", "--config", "--kappa2", "--outdir",
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


def test_readme_cli_block_matches_the_parser():
    # each line of README's CLI block names one command and only its flags,
    # and every command has a line
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    named = set()
    for line in block.strip().splitlines():
        prog, name = line.split()[:2]
        assert prog == "vortexlattice" and name in sub.choices, line
        named.add(name)
        flags = {s for a in sub.choices[name]._actions for s in a.option_strings}
        for flag in re.findall(r"--[\w-]+", line):
            assert flag in flags, (name, flag)
    assert named == set(cli.COMMANDS)
    # and the integer-size minimums README lists are the parser's
    listed = readme.split("integer sizes have minimums (", 1)[1].split(")", 1)[0]
    assert {k: int(v) for k, v in re.findall(r"`(\w+)` (\d+)", listed)} == cli.MINIMUM


def test_successive_calls_start_from_the_defaults(tmp_path):
    # one parser serves every call, and each call parses into a new namespace:
    # flags given to one call do not carry over to the next
    assert cli.build_parser() is cli.build_parser()
    assert run(["beta", "--tau-grid", "square", "--method", "quadrature",
                "--output", "quad.csv", "--outdir", str(tmp_path)]) == 0
    assert run(["beta", "--tau-grid", "triangular", "--outdir", str(tmp_path)]) == 0
    header = json.loads((tmp_path / "beta_scan.csv").read_text().splitlines()[0][2:])
    assert header["config"]["method"] == "lattice_sum"
    assert header["config"]["output"] == "beta_scan.csv"
    assert (tmp_path / "quad.csv").exists()

@pytest.mark.parametrize("argv, values", [
    (["beta", "--tau-grid", "square"], {"method": "quad"}),
    (["field-landscape", "--tau-grid", "square"], {"kappa2": "2"}),
    (["branch"], {"K_lev": 40.5}),
    (["field-landscape", "--tau-grid", "square"], {"numeric": 1}),
    (["verify"], {"suite": "bogus"}),
], ids=["method-choice", "kappa2-str", "K_lev-float", "numeric-int", "suite-choice"])
def test_config_values_are_checked_like_flags(tmp_path, argv, values):
    # a file value of the wrong type or outside its choices is a configuration
    # error: exit 2 before any solve, no failure marker and no output
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    out = tmp_path / "out"
    assert run(argv + ["--config", str(cfg), "--outdir", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [("beta", "--config"), ("gauge-fix", "--input")])
@pytest.mark.parametrize("kind", ["not-utf8", "directory"])
def test_unreadable_input_file_exit_code(tmp_path, command, flag, kind):
    # a --config file or gauge-fix snapshot that cannot be read is an invalid
    # configuration: exit 2 and no failure marker
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff")
    out = tmp_path / "out"
    assert run([command, flag, str(path), "--outdir", str(out)]) == 2
    assert not (out / "FAILED.json").exists()
    assert not (tmp_path / "FAILED.json").exists()


@pytest.mark.parametrize("argv, code", [
    (["branch", "--tau", "0,25"], 2),
    (["beta", "--method", "quadrature", "--tau-grid", "0,25"], 2),
    (["field-landscape", "--numeric", "--tau-grid", "0,25"], 2),
    (["beta", "--tau-grid", "0,25"], 0),
], ids=["branch", "beta-quadrature", "field-landscape-numeric", "beta-lattice-sum"])
def test_shape_above_the_supported_tau2(tmp_path, argv, code):
    # a Landau basis on tau2 = 25 is an unsupported input, not a solver
    # failure: exit 2 and no failure marker; the lattice sum needs no basis
    out = tmp_path / "out"
    assert run(argv + ["--outdir", str(out)]) == code
    assert not (out / "FAILED.json").exists()
    assert not (tmp_path / "FAILED.json").exists()


def _theta_snapshot(tmp_path, shape):
    """An 8 x 8 raw snapshot of the lowest-level field, without a potential."""
    psi = landau.theta_field(shape, 8)
    alpha = glcore.PeriodicVectorField(np.zeros((2, 8, 8)), psi.grid)
    raw = gauge.raw_from_state(glcore.GLState(psi, alpha, glcore.GLParams(1.0, 1, 1.0)))
    path = tmp_path / "raw.csv"
    snapshot.save_raw_state(path, raw)
    return path


def _drop_ap1(lines):
    cols = lines[1].split(",")
    i = cols.index("ap1")
    return [lines[0]] + [",".join(r.split(",")[:i] + r.split(",")[i + 1:])
                         for r in lines[1:]]


def _set_header(**keys):
    def malform(lines):
        header = json.loads(lines[0][2:])
        header.update(keys)
        return ["# " + json.dumps(header)] + lines[1:]
    return malform


def _set_grid(N):
    """Header grid size N, with the N^2 rows it asks for."""
    def malform(lines):
        return _set_header(N=N)(lines)[:2 + N * N]
    return malform


def _set_sample(text):
    def malform(lines):
        row = lines[2].split(",")
        row[lines[1].split(",").index("re_psi")] = text
        return lines[:2] + [",".join(row)] + lines[3:]
    return malform


@pytest.mark.parametrize("malform", [
    lambda lines: lines[1:],
    _drop_ap1,
    lambda lines: ["# " + json.dumps({k: v for k, v in json.loads(lines[0][2:]).items()
                                      if k != "N"})] + lines[1:],
    lambda lines: lines[:-1],
    _set_header(n=0), _set_header(n=-1), _set_header(n=2.7),
    _set_header(r=0), _set_header(r=-2),
    _set_header(r=1e160), _set_header(r=1e-200), _set_header(r=1e-160),
    _set_header(n=10**400),
    _set_header(N=8.5), _set_header(N=True), _set_grid(2), _set_grid(3),
    _set_header(bc_const=[float("nan"), 0]), _set_header(bc_const=[1e300, 0]),
    _set_header(bc_const=[2.0**19, 0]), _set_header(bc_const=[0.5]),
    _set_header(bc_const="xy"),
    _set_sample("nan"), _set_sample("inf"),
], ids=["no-header", "no-ap1-column", "no-N-key", "rows-not-N^2",
        "n-zero", "n-negative", "n-not-integer", "r-zero", "r-negative",
        "r-area-overflow", "r-area-zero", "r-field-overflow", "n-field-overflow",
        "N-not-integer", "N-bool", "N-2", "N-3", "bc-nan", "bc-huge",
        "bc-ulp-above-tol", "bc-one-number", "bc-string", "sample-nan", "sample-inf"])
def test_malformed_snapshot_exit_code(tmp_path, shape_generic, malform):
    # a gauge-fix snapshot that does not hold the header, columns and rows
    # it should is an invalid configuration: exit 2 and no failure marker
    path = _theta_snapshot(tmp_path, shape_generic)
    path.write_text("\n".join(malform(path.read_text().splitlines())) + "\n")
    out = tmp_path / "out"
    assert run(["gauge-fix", "--input", str(path), "--outdir", str(out)]) == 2
    assert not (out / "FAILED.json").exists()
    assert not (tmp_path / "FAILED.json").exists()


@pytest.mark.parametrize("n, r", [(10**6, 1.25), (10**7, 2.75)])
def test_gauge_fix_of_many_flux_quanta(tmp_path, shape_generic, n, r):
    # a valid header with many flux quanta per cell is fixed, not refused:
    # the cell flux b r^2 tau2 = 2 pi n holds by construction
    path = _theta_snapshot(tmp_path, shape_generic)
    path.write_text("\n".join(_set_header(n=n, r=r)(path.read_text().splitlines())) + "\n")
    assert run(["gauge-fix", "--input", str(path), "--outdir", str(tmp_path)]) == 0
    fixed = snapshot.load_state(tmp_path / "fixed_state.csv")
    assert fixed.params.n == n
    assert np.isfinite(fixed.psi.values).all() and np.isfinite(fixed.alpha.values).all()


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


def test_solver_failure_exit_code(tmp_path, monkeypatch):
    # b on the excluded side of kappa^2 triggers a refusal -> exit 3 + marker
    rc = run(["field-landscape", "--kappa2", "2", "--b", "2.1", "--numeric",
              "--tau-grid", "square", "--outdir", str(tmp_path)])
    assert rc == 3
    marker = json.loads((tmp_path / "FAILED.json").read_text())
    assert marker["status"] == "failed"
    # an outdir from the config file receives the marker too
    work = tmp_path / "work"
    work.mkdir()
    (work / "c.json").write_text(json.dumps({"outdir": "cfgout", "kappa2": 0.3, "b": 0.5,
                                             "numeric": True, "tau_grid": "square"}))
    monkeypatch.chdir(work)
    monkeypatch.delenv("VORTEXLATTICE_OUT", raising=False)
    assert run(["field-landscape", "--config", "c.json"]) == 3
    assert json.loads((work / "cfgout" / "FAILED.json").read_text())["status"] == "failed"
    assert not (work / "FAILED.json").exists()


@pytest.mark.parametrize("exc", [glcore.AlphaSolveError, LatticeReductionError,
                                 abrikosov.AsymptoticValidityError,
                                 landau.SpectrumCollisionError, bif.BranchSideError])
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


def test_bare_value_error_propagates(tmp_path, monkeypatch):
    # exit 3 is for typed solver failures alone: an untyped ValueError from
    # inside a solve (a numpy shape error, say) is a bug and propagates
    def fail(*a, **kw):
        raise ValueError("untyped")
    monkeypatch.setattr(bif, "solve_branch", fail)
    with pytest.raises(ValueError, match="untyped"):
        run(["branch", "--outdir", str(tmp_path)])
    assert not (tmp_path / "FAILED.json").exists()


def test_asymptotic_refusal_exits_3(tmp_path):
    # kappa = kappa_c(i) zeroes the asymptotic E_b's denominator at the square
    beta = abrikosov.beta_lattice_sum(normalize_tau(1j)[0])
    kappa2 = (beta - 1) / (2 * beta)
    assert run(["field-landscape", "--kappa2", repr(kappa2), "--tau-grid", "square",
                "--outdir", str(tmp_path)]) == 3
    marker = json.loads((tmp_path / "FAILED.json").read_text())
    assert "degenerate denominator" in marker["error"]
