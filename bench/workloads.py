"""Seeded inputs, op lists and per-op correctness checks of the two workloads.

Every op is one in-process call of ``vortexlattice.cli.main`` with a generated
argv; the program sees nothing else but the snapshot files written in set-up.
Shapes are Latin-hypercube draws over the fundamental domain
(|tau1| <= 1/2, |tau| >= 1, tau2 <= TAU2_MAX), so each run covers the domain
alike and no shape repeats within a run: every op pays its own basis build,
as a command-line user does.

* ``branch``: ``vortexlattice branch`` with its default config on a new shape.
* ``landscape``: rounds of one shape evaluation.  The primary op is
  ``vortexlattice field-landscape --numeric --b 1.9`` on one new shape
  (N = 96), the normalize_tau -> build_reduction -> branch_by_field path that
  the numeric shape minimizer repeats hundreds of times.  Each round then
  post-processes: ``beta`` by both methods over new shapes and ``gauge-fix``
  of a seeded gauge-transformed snapshot of an N = 96 branch state solved in
  set-up; the first round also runs ``critical-points``.  These light ops take
  about 4 % of a round, so the abrikosov, gauge and snapshot layers are traced
  while the round's time stays dominated by array work.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

KAPPA2 = 2.0
TAU2_MAX = 1.5
TAU_TRIANGULAR = complex(0.5, math.sqrt(3) / 2)

# Nominal cost of one op (one round for landscape) at the commit that defined the
# benchmark; a run of S seconds has round(S / nominal) ops, fixed by S alone
# so that two commits always run the same op list for a seed.
NOMINAL_OP_S = {"branch": 8.0, "landscape": 4.0}
MIN_OPS = 3

# Acceptance-gate tolerances.
SLOPE_REL_TOL = 1e-3           # d(lambda)/d(s^2) against ((kappa^2-1/2) beta + 1/2)
RESIDUAL_PSI_TOL = 1e-8
LANDSCAPE_B = 1.9
LANDSCAPE_MU3_RATIO = 0.01     # |E_num - E_asym| / mu^3; 0.0014-0.0052 measured
BETA_ORACLE_TOL = 1e-10        # |beta_quad - beta_sum|
BETA_SUM_TOL = 1e-12           # program lattice sum against the benchmark's own
CRIT_LOCATION_TOL = 1e-6
GAUGE_CONSTRAINT_TOL = 1e-10
GAUGE_OBSERVABLE_TOL = 1e-8

SHAPES_PER_BETA = 4
SNAPSHOTS_PER_FIXTURE = 2
FIXTURE_N = 96
FIXTURE_K_LEV = 40
FIXTURE_S = 0.1


class CheckFailed(Exception):
    pass


def n_ops(workload: str, seconds: float) -> int:
    return max(MIN_OPS, int(round(seconds / NOMINAL_OP_S[workload])))


# ----------------------------------------------------------------------
# seeded shapes
# ----------------------------------------------------------------------
def sample_shapes(rng: np.random.Generator, n: int) -> list[complex]:
    """n distinct shapes, a Latin hypercube over (tau1, tau2) in the domain."""
    u1 = (rng.permutation(n) + rng.uniform(size=n)) / n
    u2 = (rng.permutation(n) + rng.uniform(size=n)) / n
    tau1 = -0.5 + u1 * (1.0 - 1e-9)
    lo = np.sqrt(1.0 - tau1**2) + 1e-3
    tau2 = lo + u2 * (TAU2_MAX - lo)
    taus = [complex(a, b) for a, b in zip(tau1, tau2)]
    if len({(round(t.real, 12), round(t.imag, 12)) for t in taus}) != n:
        raise RuntimeError("shape draw repeated a shape")
    return taus


def tau_arg(tau: complex) -> str:
    return f"{tau.real!r},{tau.imag!r}"


def lattice_sum_beta(tau: complex) -> float:
    """The benchmark's own beta(tau) = sum exp(-pi |m tau + k|^2 / Im tau)."""
    R = 12
    m, k = np.meshgrid(np.arange(-R, R + 1), np.arange(-R, R + 1), indexing="ij")
    q = ((m * tau.real + k) ** 2 + (m * tau.imag) ** 2) / tau.imag
    return float(np.exp(-np.pi * q).sum())


# ----------------------------------------------------------------------
# output readers
# ----------------------------------------------------------------------
def read_csv(path: str) -> dict[str, np.ndarray]:
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    rows = list(csv.reader(io.StringIO("".join(lines))))
    cols = rows[0]
    data = np.array([[float(x) for x in r] for r in rows[1:]])
    return {c: data[:, i] for i, c in enumerate(cols)}


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ----------------------------------------------------------------------
# ops
# ----------------------------------------------------------------------
class Op:
    """One CLI call: argv, the files it writes and how to check them."""

    def __init__(self, kind: str, argv: list[str], outputs: list[str], check, **info):
        self.kind = kind
        self.argv = argv
        self.outputs = outputs
        self.check = check
        self.info = info


def branch_ops(rng: np.random.Generator, count: int) -> list[Op]:
    ops = []
    for i, tau in enumerate(sample_shapes(rng, count)):
        out = f"ops/{i:04d}"
        argv = ["branch", "--tau=" + tau_arg(tau), "--outdir", out]
        ops.append(Op("branch", argv, [f"{out}/branch.csv", f"{out}/branch_expansion.json"],
                      check_branch, tau=tau))
    return ops


def check_branch(op: Op) -> dict:
    table = read_csv(op.outputs[0])
    with open(op.outputs[1]) as fh:
        report = json.load(fh)
    require(len(table["s"]) == 5, f"expected 5 branch points, got {len(table['s'])}")
    worst = float(np.max(table["residual_psi"]))
    require(worst < RESIDUAL_PSI_TOL, f"residual_psi {worst:.2e} >= {RESIDUAL_PSI_TOL}")
    require(bool(np.all(table["lambda"] > 1.0)), "a branch point has lambda <= 1")
    # the target takes beta from the lattice sum, not from the solver's grid
    beta = lattice_sum_beta(op.info["tau"])
    target = (KAPPA2 - 0.5) * beta + 0.5
    rel = abs(report["g_lambda_prime0"] - target) / target
    require(rel < SLOPE_REL_TOL, f"fitted slope off by {rel:.2e} (relative)")
    return {"slope_rel_err": rel, "residual_psi_max": worst}


def landscape_ops(rng: np.random.Generator, rounds: int, snaps: list[dict]) -> list[Op]:
    shapes = sample_shapes(rng, rounds)
    beta_shapes = sample_shapes(rng, rounds * SHAPES_PER_BETA)
    ops = []
    for r, tau in enumerate(shapes):
        out = f"ops/{r:04d}"
        argv = ["field-landscape", "--numeric", "--b", repr(LANDSCAPE_B),
                "--tau-grid=" + tau_arg(tau), "--outdir", out]
        ops.append(Op("landscape", argv, [f"{out}/field_landscape.csv"],
                      check_landscape, tau=tau))
        taus = beta_shapes[r * SHAPES_PER_BETA:(r + 1) * SHAPES_PER_BETA]
        ops += post_process_ops(out, taus, snaps[r % len(snaps)], critical=r == 0)
    return ops


def check_landscape(op: Op) -> dict:
    table = read_csv(op.outputs[0])
    require(len(table["beta"]) == 1, "expected one landscape row")
    beta = lattice_sum_beta(op.info["tau"])
    require(abs(table["beta"][0] - beta) < BETA_SUM_TOL,
            f"beta {table['beta'][0]!r} differs from the lattice sum {beta!r}")
    mu = KAPPA2 - LANDSCAPE_B
    e_asym = KAPPA2 / 2 + LANDSCAPE_B**2 - mu**2 / ((2 * KAPPA2 - 1) * beta + 1)
    require(abs(table["E_b_asymptotic"][0] - e_asym) < 1e-12,
            "E_b_asymptotic differs from the closed form")
    ratio = abs(table["E_b_numeric"][0] - table["E_b_asymptotic"][0]) / mu**3
    require(ratio < LANDSCAPE_MU3_RATIO,
            f"|E_num - E_asym| = {ratio:.4f} mu^3 >= {LANDSCAPE_MU3_RATIO} mu^3")
    return {"mu3_ratio": ratio}


# ----------------------------------------------------------------------
# post-processing ops of a landscape round
# ----------------------------------------------------------------------
def make_snapshot_fixture(rng: np.random.Generator, index: int) -> list[dict]:
    """One set-up repetition: an N = 96 branch state on a new shape, and its
    seeded gauge-transformed, translated snapshots written for the program."""
    from vortexlattice import bifurcation, gauge, glcore, landau, snapshot
    from vortexlattice.lattice import normalize_tau

    kappa = math.sqrt(KAPPA2)
    tau = sample_shapes(rng, 1)[0]
    shape, _ = normalize_tau(tau)
    setup = bifurcation.build_reduction(shape, FIXTURE_N, FIXTURE_K_LEV)
    pt = bifurcation.solve_branch([FIXTURE_S], kappa, shape, setup=setup).points[0]
    psi = landau.field_from_coeffs(setup.basis, pt.psi_coeffs)
    raw0 = gauge.raw_from_state(glcore.GLState(psi, pt.alpha, glcore.GLParams(kappa, 1, pt.lam)))
    y1, y2 = raw0.grid.y
    snaps = []
    for j in range(SNAPSHOTS_PER_FIXTURE):
        eta = sum(rng.normal(0, 0.2) * np.sin(2 * np.pi * ((k1 + 1) * y1 + k2 * y2)
                                              + rng.uniform(0, 2 * np.pi))
                  for k1 in range(2) for k2 in range(-1, 2))
        c = tuple(rng.normal(0, 0.2, 2))
        t = raw0.m @ rng.uniform(-0.5, 0.5, 2)
        raw = gauge.translate_state(gauge.gauge_transform(raw0, eta, c), t)
        path = f"inputs/raw_{index}_{j}.csv"
        snapshot.save_raw_state(path, raw)
        snaps.append({"path": path, "raw": raw})
    return snaps


def post_process_ops(out: str, taus: list[complex], snap: dict,
                     critical: bool) -> list[Op]:
    grid = ";".join(tau_arg(t) for t in taus)
    ops = [Op("beta_sum", ["beta", "--tau-grid=" + grid, "--outdir", out,
                           "--output", "beta_sum.csv"],
              [f"{out}/beta_sum.csv"], check_beta_sum, taus=taus),
           Op("beta_quad", ["beta", "--tau-grid=" + grid, "--method", "quadrature",
                            "--outdir", out, "--output", "beta_quad.csv"],
              [f"{out}/beta_quad.csv"], check_beta_quad,
              against=f"{out}/beta_sum.csv", taus=taus)]
    if critical:
        ops.append(Op("critical_points", ["critical-points", "--outdir", out],
                      [f"{out}/critical_points.json"], check_critical_points))
    ops.append(Op("gauge_fix", ["gauge-fix", "--input", snap["path"],
                                "--kappa2", repr(KAPPA2), "--outdir", out,
                                "--output", "fixed.csv"],
                  [f"{out}/fixed.csv"], check_gauge_fix, raw=snap["raw"]))
    return ops


def check_beta_sum(op: Op) -> dict:
    table = read_csv(op.outputs[0])
    ref = np.array([lattice_sum_beta(t) for t in op.info["taus"]])
    err = float(np.max(np.abs(table["beta"] - ref)))
    require(len(ref) == len(table["beta"]) and err < BETA_SUM_TOL,
            f"lattice-sum beta off by {err:.2e}")
    return {"err": err}


def check_beta_quad(op: Op) -> dict:
    quad = read_csv(op.outputs[0])["beta"]
    ref = read_csv(op.info["against"])["beta"]
    err = float(np.max(np.abs(quad - ref)))
    require(len(quad) == len(op.info["taus"]) and err <= BETA_ORACLE_TOL,
            f"|beta_quad - beta_sum| = {err:.2e} > {BETA_ORACLE_TOL}")
    return {"err": err}


def check_critical_points(op: Op) -> dict:
    with open(op.outputs[0]) as fh:
        pts = json.load(fh)["critical_points"]
    require(len(pts) == 2, f"expected 2 critical points, got {len(pts)}")
    kinds = {p["kind"]: complex(*p["tau"]) for p in pts}
    require(set(kinds) == {"minimum", "maximum"}, f"kinds {sorted(kinds)}")
    d_min = abs(kinds["minimum"] - TAU_TRIANGULAR)
    d_max = abs(kinds["maximum"] - 1j)
    require(d_min < CRIT_LOCATION_TOL and d_max < CRIT_LOCATION_TOL,
            f"critical points off by {d_min:.1e} / {d_max:.1e}")
    return {"err": max(d_min, d_max)}


def check_gauge_fix(op: Op) -> dict:
    from vortexlattice import gauge, landau, snapshot
    from vortexlattice.lattice import cell_geometry

    with open(op.outputs[0]) as fh:
        header = json.loads(fh.readline()[1:])
    fixed = snapshot.load_state(op.outputs[0])
    worst_bc = max(landau.quasi_periodicity_residual(fixed.psi),
                   *fixed.alpha.constraint_residuals())
    require(worst_bc <= GAUGE_CONSTRAINT_TOL,
            f"fixed-gauge constraint residual {worst_bc:.2e}")
    raw = op.info["raw"]
    ref = gauge.translate_state(raw, np.array(header["translation"])).observables()
    sigma = cell_geometry(raw.shape, raw.n, raw.b).sigma
    worst_obs = float(np.max(np.abs(np.abs(fixed.psi.values) ** 2 - sigma**2 * ref["ns"])))
    require(worst_obs <= GAUGE_OBSERVABLE_TOL,
            f"translated |psi|^2 reproduced only to {worst_obs:.2e}")
    return {"constraint": worst_bc, "observable": worst_obs}
