"""Traced solver counts of one ``vortexlattice branch`` op on the square lattice.

    python3 bench/probe.py

Runs the default branch config (kappa^2 = 2, N = 128, K_lev = 40, 5 points)
at tau = i under the benchmark's tracer and compares the counts with the
figures measured by direct instrumentation when the benchmark was defined:
24 w solves, 94 sweeps and 170 alpha iterations.  A match shows the wrappers
see every call; a solver change that alters the iteration counts will differ
by design.  Exits 1 when any count differs.
"""

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import shutil  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = {"bifurcation.solve_w_calls": 24, "bifurcation.sweeps": 94,
            "spectral.inv_lap_calls": 170}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="probe-", dir=tmp_root)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        rc = tracer.cli_main(["branch", "--tau", "square", "--outdir", workdir])
        tracer.active = False
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = tracer.layer_metrics(1.0, 0.0)
    ok = rc == 0
    for key, want in EXPECTED.items():
        got = metrics[key]
        ok &= got == want
        print(f"{key}: {got} (defined at {want})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
