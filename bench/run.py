"""Seeded end-to-end benchmark of the vortexlattice command line.

    python3 bench/run.py --workload {branch,landscape} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the package is imported from ./src.  Each run
is a fresh process that sets up its seeded inputs, then calls
``vortexlattice.cli.main`` in-process once per op and checks every op's
output files (see workloads.py for the workloads and their tolerances).  The
op count is round(S / nominal op cost), so it depends on S and never on the
machine.  BLAS/OpenMP are pinned to one thread.  Outputs go to a temporary
directory under .bench_tmp/ that is removed at the end.

With --trace 0 the last stdout line reports the end-to-end metrics:
  setup_s      process start to first op: imports (median of this process and
               two fresh interpreters) plus the median of three repetitions
               of building the inputs, including any fixture solve
  wall_s       wall time of the whole op list
  op_p50_s     median latency of the workload's primary op (``branch`` or
               ``field-landscape``; landscape rounds also hold light
               post-processing ops, see workloads.py); the count of all ops
               is "attempted"
  peak_rss_mb  peak resident memory of this process
With --trace 1 every layer entry point is wrapped (tracing.py) and the line
reports per-layer self times and counts instead, with the tracing overhead.

A run record with provenance, per-op latencies, check results and a sha256
digest of every output file (spans too, when traced) is written to
.bench_out/<workload>-seed<N>-trace<T>.json; two runs with the same seed give
identical digests.
"""

import os
import sys
import time

T_START = time.perf_counter()
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("branch", "landscape")
SETUP_REPEATS = 3
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
                "import numpy, vortexlattice.cli; print(time.perf_counter() - t)")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def child_import_s() -> float:
    """Import time of the package in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def provenance(args, np) -> dict:
    import scipy
    import vortexlattice
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
        git_rev = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        git_rev = None
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(str(path.relative_to(SRC)).encode())
        src_hash.update(path.read_bytes())
    blas = {}
    for lib in (np, scipy):
        try:
            info = lib.show_config(mode="dicts")["Build Dependencies"]["blas"]
            blas[lib.__name__] = f"{info.get('name')} {info.get('version')}"
        except Exception:  # build info layout differs between releases
            blas[lib.__name__] = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_revision": git_rev, "src_sha256": src_hash.hexdigest(),
        "vortexlattice": vortexlattice.__version__, "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "python": platform.python_version(), "platform": platform.platform(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "threads_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS",
                                                   "OPENBLAS_NUM_THREADS")},
    }


def build_inputs(wl, np, workload: str, seed: int, seconds: float):
    """Seeded op list, built SETUP_REPEATS times; returns (ops, seconds each)."""
    seq = np.random.SeedSequence(seed)
    ops_seq, fixture_seq = seq.spawn(2)
    fixture_seqs = fixture_seq.spawn(SETUP_REPEATS)
    count = wl.n_ops(workload, seconds)
    snaps: list = []
    samples = []
    ops = None
    for rep in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        rng = np.random.default_rng(ops_seq)
        if workload == "branch":
            ops = wl.branch_ops(rng, count)
        else:
            snaps += wl.make_snapshot_fixture(np.random.default_rng(fixture_seqs[rep]), rep)
            ops = wl.landscape_ops(rng, count, snaps)
        samples.append(time.perf_counter() - t0)
    return ops, samples


def run_ops(ops, main, tracer=None) -> tuple[float, list[dict]]:
    """Call the CLI once per op; returns (wall seconds, per-op records)."""
    records = []
    sink = io.StringIO()
    t_start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
            tracer.active = True
        err = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = main(op.argv)
        except (Exception, SystemExit) as exc:
            rc, err = None, "".join(traceback.format_exception_only(exc)).strip()
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.active = False
        sink.seek(0)
        sink.truncate()
        if err is None and rc != 0:
            err = f"exit code {rc}"
        records.append({"kind": op.kind, "argv": op.argv, "latency_s": t1 - t0,
                        "error": err})
    return time.perf_counter() - t_start, records


def check_ops(ops, records) -> None:
    for op, rec in zip(ops, records):
        if rec["error"] is None:
            try:
                rec["check"] = op.check(op)
                rec["digests"] = {p: sha256_file(p) for p in op.outputs}
            except Exception as exc:  # a failed check, or unreadable output
                rec["error"] = "check failed: " + "".join(
                    traceback.format_exception_only(exc)).strip()
        rec["ok"] = rec["error"] is None


def tail_latency(latencies: list[float]):
    """Highest percentile with at least ten ops beyond it, or None."""
    n = len(latencies)
    for p in TAIL_PERCENTILES:
        if n * (1 - p / 100) >= 10:
            q = statistics.quantiles(latencies, n=1000, method="inclusive")
            return p, q[int(round(p * 10)) - 1]
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "vortexlattice" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC / 'vortexlattice'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import vortexlattice
    from vortexlattice import cli
    if Path(vortexlattice.__file__).resolve().parent != SRC / "vortexlattice":
        print(f"bench: imported vortexlattice from {vortexlattice.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import_samples = [time.perf_counter() - T_START]
    import tracing
    import workloads as wl
    import_samples += [child_import_s() for _ in range(SETUP_REPEATS - 1)]

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    old_cwd = os.getcwd()
    os.chdir(workdir)
    try:
        os.makedirs("inputs")
        ops, input_samples = build_inputs(wl, np, args.workload, args.seed, args.seconds)
        setup_s = statistics.median(import_samples) + statistics.median(input_samples)
        tracer = None
        entry = cli.main
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            entry = tracer.cli_main
        wall_s, records = run_ops(ops, entry, tracer)
        if tracer is not None:
            tracer.uninstall()
        check_ops(ops, records)
    finally:
        os.chdir(old_cwd)
        shutil.rmtree(workdir, ignore_errors=True)

    latencies = [r["latency_s"] for r in records if r["kind"] == args.workload]
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    digest = hashlib.sha256(json.dumps([r.get("digests") for r in records],
                                       sort_keys=True).encode()).hexdigest()
    tail = tail_latency(latencies)
    summary = {"ops": attempted, "primary_ops": len(latencies),
               "failed_frac": failed / attempted,
               "op_tail": {"percentile": tail[0], "seconds": tail[1]} if tail else None,
               "setup": {"import_s": import_samples, "inputs_s": input_samples},
               "outputs_sha256": digest}
    if args.trace:
        layers = tracer.layer_metrics(wall_s, tracing.span_cost_s())
        metrics = {k: {"value": v, "unit": tracing.unit_of(k)} for k, v in layers.items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "op_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = {"provenance": provenance(args, np), "summary": summary,
              "metrics": metrics, "ops": records}
    if tracer is not None:
        record["spans"] = tracer.dump_spans()
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out_path, "w") as fh:
        json.dump(record, fh, default=repr)
        fh.write("\n")

    for r in records:
        if not r["ok"]:
            print(f"FAILED {r['kind']} {' '.join(r['argv'])}: {r['error']}")
    tail_txt = f"p{tail[0]:g} {tail[1]:.4f} s" if tail else "n/a (too few ops)"
    print(f"{args.workload} seed={args.seed}: {attempted} ops ({len(latencies)} "
          f"{args.workload}), failed_frac "
          f"{failed / attempted:.3g}, op tail {tail_txt}, outputs {digest[:16]}, "
          f"record {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
