"""Command-line front end.

Commands: beta, critical-points, branch, field-landscape, gauge-fix, verify.
COMMANDS declares each command once: its handler, help line and config keys
with their defaults.  The parser is derived from it: key k is the flag --k
with _ written -, typed by its default (str when the default is None, a
bare switch when it is a bool); only the verify suite is positional.  An
optional JSON file (--config) supplies values and flags override them; both
are checked by one rule, the default's type (an int passes for a float), the
key's CHOICES and, for the integer sizes, their MINIMUM.  tau is accepted as
"re,im" with Im tau > 0, or the names "square" (i) and "triangular"
(e^{i pi/3}).  Output files carry a '#'-prefixed JSON provenance header
(config hash and truncations) and 17-significant-digit CSV, so identical
configs reproduce byte-identical outputs.

Exit codes: 0 success (verify failures are data, not errors), 2 invalid
configuration (ConfigError), a --config file or gauge-fix input that cannot
be read or parsed and a Landau basis above Im tau = landau.TAU2_MAX
included, 3 solver failure or refusal (SolverError and its subclasses,
among them BranchSideError, AsymptoticValidityError and
SpectrumCollisionError; partial results flushed with a failure marker).
Any other exception, a bare ValueError included, is a programming error and
propagates.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from functools import cache

import numpy as np

from . import abrikosov, bifurcation, gauge, landau, snapshot
from .lattice import (TAU_SQUARE, TAU_TRIANGULAR, ConfigError, SolverError,
                      fundamental_domain_grid, normalize_tau)


def parse_tau(text: str) -> complex:
    if text == "square":
        return complex(TAU_SQUARE)
    if text == "triangular":
        return complex(TAU_TRIANGULAR)
    try:
        re, im = (float(p) for p in text.split(","))
    except Exception as exc:
        raise ConfigError(f"cannot parse tau {text!r}: use 're,im', 'square' or "
                          "'triangular'") from exc
    if not (np.isfinite(re) and np.isfinite(im) and im > 0):
        raise ConfigError(f"tau {text!r} must be finite with Im tau > 0")
    return complex(re, im)


def parse_tau_grid(text: str) -> list[complex]:
    if text.startswith("fundamental:"):
        try:
            n1, n2 = (int(p) for p in text.removeprefix("fundamental:").split("x"))
        except Exception as exc:
            raise ConfigError(f"bad tau grid {text!r}; use fundamental:20x20") from exc
        if n1 < 1 or n2 < 1:
            raise ConfigError("tau grid must be non-empty")
        return fundamental_domain_grid(n1, n2)
    return [parse_tau(part) for part in text.split(";")]


def _kind(default):
    """The type a config value must have: that of its default, str for None."""
    return str if default is None else type(default)


def merged_config(args: argparse.Namespace) -> dict:
    defaults = COMMANDS[args.command][2]
    cfg = dict(defaults)
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError("a config file holds one JSON object")
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(file_cfg)
    for key in defaults:
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    for key, val in cfg.items():
        want = _kind(defaults[key])
        if not (type(val) is want or (val is None and defaults[key] is None)
                or (want is float and type(val) is int)):
            raise ConfigError(f"{key} must be a {want.__name__}, not {val!r}")
        if key in CHOICES and val not in CHOICES[key]:
            raise ConfigError(f"{key} must be one of {list(CHOICES[key])}, not {val!r}")
    for key in ("kappa2", "b", "s_max"):
        if key in cfg and not cfg[key] > 0:
            raise ConfigError(f"{key} must be positive")
    for key, least in MINIMUM.items():
        if key in cfg and cfg[key] < least:
            raise ConfigError(f"{key} must be at least {least}, not {cfg[key]}")
    return cfg


def physics_config(cfg: dict) -> dict:
    """cfg without the execution-only key outdir (no result depends on it),
    as hashed and written into output headers."""
    return {k: v for k, v in cfg.items() if k != "outdir"}


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(physics_config(cfg), sort_keys=True)
                          .encode()).hexdigest()[:16]


def out_path(cfg: dict, name: str) -> str:
    """name under the output directory (outdir, else $VORTEXLATTICE_OUT, else
    '.'), with the directories that lead to it made."""
    root = cfg.get("outdir") or os.environ.get("VORTEXLATTICE_OUT", ".")
    path = os.path.join(root, name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    return path


def write_csv(path: str, cfg: dict, columns: list[str], rows: np.ndarray,
              extra_comments: dict | None = None) -> None:
    prov = {"config": physics_config(cfg), "config_hash": config_hash(cfg)}
    prov.update(extra_comments or {})
    snapshot.write_table(path, prov, columns, list(np.atleast_2d(rows).T))


def write_json(path: str, cfg: dict, payload: dict) -> None:
    payload = {"config_hash": config_hash(cfg), **payload}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _beta_row(tau: complex, method: str) -> list[float]:
    shape, _ = normalize_tau(tau)
    beta = (abrikosov.beta_quadrature(shape) if method == "quadrature"
            else abrikosov.beta_lattice_sum(shape))
    return [tau.real, tau.imag, beta, abrikosov.kappa_c(beta)]


def cmd_beta(cfg: dict) -> int:
    rows = [_beta_row(tau, cfg["method"]) for tau in parse_tau_grid(cfg["tau_grid"])]
    path = out_path(cfg, cfg["output"])
    write_csv(path, cfg, ["tau_re", "tau_im", "beta", "kappa_c"], np.array(rows))
    print(f"wrote {path} ({len(rows)} shapes)")
    return 0


def cmd_critical_points(cfg: dict) -> int:
    pts = abrikosov.find_beta_critical_points()
    payload = {"critical_points": [
        {"tau": [p.tau.real, p.tau.imag], "kind": p.kind,
         "gradient_norm": p.gradient_norm,
         "hessian_eigenvalues": list(p.hessian_eigenvalues)} for p in pts]}
    path = out_path(cfg, cfg["output"])
    write_json(path, cfg, payload)
    print(f"wrote {path} ({len(pts)} critical points)")
    return 0


def cmd_branch(cfg: dict) -> int:
    kappa = float(np.sqrt(cfg["kappa2"]))
    shape, _ = normalize_tau(parse_tau(cfg["tau"]))
    s_grid = np.linspace(cfg["s_max"] / cfg["s_points"], cfg["s_max"], cfg["s_points"])
    branch = bifurcation.solve_branch(s_grid, kappa, shape, K_lev=cfg["K_lev"])
    rows = [[p.s, p.lam, p.b, p.energy, p.residual_psi, p.residual_alpha,
             p.max_curl_a, p.min_abs_psi, p.coeff_tail, p.grid_tail, p.sweeps]
            for p in branch.points]
    csv_path = out_path(cfg, cfg["prefix"] + ".csv")
    write_csv(csv_path, cfg,
              ["s", "lambda", "b", "energy", "residual_psi", "residual_alpha",
               "max_curl_a", "min_abs_psi", "coeff_tail", "grid_tail", "sweeps"],
              np.array(rows),
              {"extrapolated_regime": branch.extrapolated,
               "solve_N": branch.basis.solve_N})
    report = bifurcation.fit_expansion(branch)
    json_path = out_path(cfg, cfg["prefix"] + "_expansion.json")
    write_json(json_path, cfg, report.to_dict())
    print(f"wrote {csv_path} and {json_path}")
    print(f"  fitted d(lambda)/d(s^2) = {report.g_lambda_prime0:.9f} "
          f"(target {report.g_lambda_prime0_target:.9f})")
    return 0


def cmd_field_landscape(cfg: dict) -> int:
    kappa = float(np.sqrt(cfg["kappa2"]))
    taus = parse_tau_grid(cfg["tau_grid"])
    cols = ["tau_re", "tau_im", "beta", "kappa_c", "E_b_asymptotic"]
    if cfg["numeric"]:
        cols += ["E_b_numeric", "residual_alpha", "coeff_tail", "grid_tail", "sweeps"]
    rows, solve_N = [], set()
    for tau in taus:
        shape, _ = normalize_tau(tau)
        beta = abrikosov.beta_lattice_sum(shape)
        row = [tau.real, tau.imag, beta, abrikosov.kappa_c(beta),
               abrikosov.energy_landscape_asymptotic(beta, kappa, cfg["b"])]
        if cfg["numeric"]:
            setup = bifurcation.build_reduction(shape, K_lev=cfg["K_lev"])
            pt = bifurcation.branch_by_field(cfg["b"], kappa, shape, setup=setup)
            row += [pt.energy, pt.residual_alpha, pt.coeff_tail, pt.grid_tail, pt.sweeps]
            solve_N.add(setup.basis.solve_N)
        rows.append(row)
    path = out_path(cfg, cfg["output"])
    write_csv(path, cfg, cols, np.array(rows),
              {"solve_N": sorted(solve_N)} if cfg["numeric"] else None)
    print(f"wrote {path} ({len(rows)} shapes)")
    return 0


def cmd_gauge_fix(cfg: dict) -> int:
    if not cfg["input"]:
        raise ConfigError("gauge-fix needs --input snapshot")
    try:
        raw = snapshot.load_raw_state(cfg["input"])
    except (OSError, snapshot.SnapshotFormatError) as exc:
        raise ConfigError(f"cannot read input snapshot {cfg['input']}: {exc}") from exc
    fixed, info = gauge.fix_gauge(raw, kappa=float(np.sqrt(cfg["kappa2"])))
    path = out_path(cfg, cfg["output"])
    snapshot.save_state(path, fixed, extra={
        "config_hash": config_hash(cfg),
        "translation": [float(info["translation"][0]), float(info["translation"][1])]})
    print(f"wrote {path}")
    return 0


# ----------------------------------------------------------------------
# verify suites
# ----------------------------------------------------------------------
def _verdict(name: str, measured: float, tol: float) -> dict:
    ok = bool(measured < tol)
    print(f"  [{'PASS' if ok else 'FAIL'}] {name}: {measured:.3e} (tol {tol:.1e})")
    return {"name": name, "measured": measured, "tolerance": tol, "pass": ok}


def verify_spectrum(cfg) -> list[dict]:
    checks = []
    vals = landau.fd_spectrum(1, cfg["N_fd"])
    target = np.array([1.0, 3.0, 5.0, 7.0])
    err = float(np.max(np.abs(vals[:4] - target) / target))
    checks.append(_verdict("fd eigenvalues {1,3,5,7} relative error", err, 0.02))
    shape, _ = normalize_tau(parse_tau(cfg["tau"]))
    psi0 = landau.theta_field(shape)
    checks.append(_verdict("annihilator residual on theta field",
                           landau.annihilator_residual(psi0), 1e-10))
    return checks


def verify_gauge(cfg) -> list[dict]:
    from .glcore import GLState, GLParams
    rng = np.random.default_rng(cfg["seed"])
    shape, _ = normalize_tau(parse_tau(cfg["tau"]))
    setup = bifurcation.build_reduction(shape, GAUGE_N, cfg["K_lev"])
    pt = bifurcation.branch_by_field(0.95 * cfg["kappa2"], np.sqrt(cfg["kappa2"]),
                                     shape, setup=setup)
    psi = landau.field_from_coeffs(setup.basis, pt.psi_coeffs)
    st = GLState(psi, pt.alpha, GLParams(np.sqrt(cfg["kappa2"]), 1, pt.lam))
    raw0 = gauge.raw_from_state(st)
    grid = raw0.grid
    y1, y2 = grid.y
    worst_bc = worst_obs = 0.0
    for _ in range(cfg["trials"]):
        eta = sum(rng.normal(0, 0.2) * np.sin(2 * np.pi * ((k1 + 1) * y1 + k2 * y2)
                                              + rng.uniform(0, 2 * np.pi))
                  for k1 in range(2) for k2 in range(-1, 2))
        c = tuple(rng.normal(0, 0.2, 2))
        t = raw0.m @ rng.uniform(-0.5, 0.5, 2)
        raw = gauge.translate_state(gauge.gauge_transform(raw0, eta, c), t)
        fixed, info = gauge.fix_gauge(raw, kappa=np.sqrt(cfg["kappa2"]))
        worst_bc = max(worst_bc,
                       landau.quasi_periodicity_residual(fixed.psi),
                       *fixed.alpha.constraint_residuals())
        ref = gauge.translate_state(raw, info["translation"]).observables()
        sig2 = info["sigma"] ** 2
        worst_obs = max(worst_obs, float(np.max(np.abs(
            np.abs(fixed.psi.values) ** 2 - sig2 * ref["ns"]))))
    checks = [_verdict("fixed-gauge constraint residuals", worst_bc, 1e-10),
              _verdict("observables reproduced after translation", worst_obs, 1e-8)]
    return checks


def verify_symmetry(cfg) -> list[dict]:
    rng = np.random.default_rng(cfg["seed"])
    shape, _ = normalize_tau(parse_tau(cfg["tau"]))
    setup = bifurcation.build_reduction(shape, K_lev=cfg["K_lev"])
    basis = setup.basis
    kappa = float(np.sqrt(cfg["kappa2"]))
    from .glcore import map_F
    d = np.zeros(basis.K_lev + 1, complex)
    d[:8] = 0.05 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
    delta = 0.7
    Fc = [map_F(basis, c, 1.05, kappa) for c in (d, np.exp(1j * delta) * d)]
    psi, F, F_rot = basis.synth(np.stack([d, *Fc]))
    equiv = float(np.max(np.abs(F_rot - np.exp(1j * delta) * F)))
    realness = abs(complex(landau.inner_avg(psi, F)).imag)
    # the branch point at s and at s e^{i delta}: w rotates with s, lambda stays
    wres, wres_rot = (bifurcation.solve_w(1.02, z, setup, kappa, unknown="lam")
                      for z in (0.06, 0.06 * np.exp(1j * delta)))
    w_equiv = float(np.max(np.abs(wres_rot.w - np.exp(1j * delta) * wres.w)))
    return [_verdict("F gauge equivariance", equiv, 1e-10),
            _verdict("Im<psi, F(psi)>", realness, 1e-10),
            _verdict("w equivariance", w_equiv, 1e-10),
            _verdict("lambda phase invariance", abs(wres_rot.lam - wres.lam), 1e-10)]


def verify_asymptotics(cfg) -> list[dict]:
    shape, _ = normalize_tau(parse_tau(cfg["tau"]))
    kappa = float(np.sqrt(cfg["kappa2"]))
    s_grid = np.linspace(0.02, 0.1, 5)
    branch = bifurcation.solve_branch(s_grid, kappa, shape, K_lev=cfg["K_lev"])
    rep = bifurcation.fit_expansion(branch)
    rel = rep.g_lambda_prime0_err / rep.g_lambda_prime0_target
    return [_verdict("d(lambda)/d(s^2) vs ((kappa^2-1/2) beta + 1/2)", rel, 1e-3),
            _verdict("curl a1 pointwise vs (1-|psi0|^2)/2", rep.curl_a1_sup_err, 1e-4)]


def cmd_verify(cfg: dict) -> int:
    print(f"verify {cfg['suite']}:")
    checks = SUITES[cfg["suite"]](cfg)
    payload = {"suite": cfg["suite"], "checks": checks,
               "all_pass": all(c["pass"] for c in checks)}
    path = out_path(cfg, cfg["output"] or f"verify_{cfg['suite']}.json")
    write_json(path, cfg, payload)
    print(f"wrote {path}")
    return 0


SUITES = {"spectrum": verify_spectrum, "gauge": verify_gauge,
          "symmetry": verify_symmetry, "asymptotics": verify_asymptotics}


# ----------------------------------------------------------------------
# command table: name -> (handler, help line, {config key: default})
# ----------------------------------------------------------------------
COMMANDS = {
    "beta": (cmd_beta, "beta(tau) scan",
             {"tau_grid": "fundamental:20x20", "method": "lattice_sum",
              "outdir": None, "output": "beta_scan.csv"}),
    "critical-points": (cmd_critical_points, "critical points of beta",
                        {"outdir": None, "output": "critical_points.json"}),
    "branch": (cmd_branch, "bifurcation branch and expansion report",
               {"kappa2": 2.0, "tau": "square", "s_max": 0.1, "s_points": 5,
                "K_lev": 40, "outdir": None, "prefix": "branch"}),
    "field-landscape": (cmd_field_landscape, "E_b(tau) asymptotic and numeric",
                        {"kappa2": 2.0, "b": 1.9, "tau_grid": "fundamental:8x6",
                         "numeric": False, "K_lev": 40, "outdir": None,
                         "output": "field_landscape.csv"}),
    "gauge-fix": (cmd_gauge_fix, "fix the gauge of a raw state snapshot",
                  {"input": None, "kappa2": 1.0, "outdir": None,
                   "output": "fixed_state.csv"}),
    "verify": (cmd_verify, "run an invariant suite",
               {"suite": None, "kappa2": 2.0, "tau": "square", "K_lev": 40,
                "N_fd": 64, "trials": 5, "seed": 0, "outdir": None, "output": None}),
}
CHOICES = {"method": ("lattice_sum", "quadrature"), "suite": tuple(SUITES)}
# the smallest value of each integer size: fd_spectrum returns 6 eigenvalues of
# a chain of N_fd^2 sites, the expansion fit needs 5 points
MINIMUM = {"K_lev": 1, "N_fd": 3, "trials": 1, "s_points": 5}
GAUGE_N = 96  # verify gauge's field grid: its 1e-10 check reads 1.6e-7 on a 32 grid
HELP = {"outdir": "output directory (default $VORTEXLATTICE_OUT or '.')"}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once: parse_args returns a new
    namespace on each call."""
    ap = argparse.ArgumentParser(prog="vortexlattice",
                                 description="Vortex-lattice solutions of the "
                                 "2-D Ginzburg-Landau equations")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, help_line, defaults) in COMMANDS.items():
        # unabbreviated: a flag the command lacks is refused, not read as --N-fd
        p = sub.add_parser(name, help=help_line, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file; flags override")
        for key, default in defaults.items():
            flag = "--" + key.replace("_", "-")
            if key == "suite":
                p.add_argument(key, nargs="?")
            elif isinstance(default, bool):
                p.add_argument(flag, action="store_const", const=True)
            else:
                p.add_argument(flag, type=_kind(default), choices=CHOICES.get(key),
                               help=HELP.get(key))
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = vars(args)  # the flags alone, until merged_config returns
    try:
        cfg = merged_config(args)
        return COMMANDS[args.command][0](cfg)
    except (ConfigError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:  # flush a marker, exit 3
        marker = {"status": "failed", "command": args.command, "error": str(exc)}
        try:
            with open(out_path(cfg, "FAILED.json"), "w") as fh:
                json.dump(marker, fh, indent=2)
        except OSError:
            pass
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
