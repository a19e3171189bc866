"""Span tracing of the vortexlattice layers, installed from outside the package.

The tracer replaces public functions and class attributes of each module with
wrappers that record a span (name, start, end, parent span, op id).  A wrapper
only sees calls that look the name up where it was replaced, so functions are
replaced in every module that imported them by name (for example
``bifurcation.energy`` as well as ``glcore.energy``), and methods are replaced
on the ``LandauBasis`` and ``CellGrid`` classes.  Spans stay in memory; the
benchmark writes them out when the run ends.  A layer's self time is its span
durations minus the time covered by their direct children.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from collections import defaultdict

# Span names grouped into the per-layer metrics that report their self time.
CELLGRID_METHODS = ("grad", "curl_star", "laplacian", "poisson", "div", "curl",
                    "curl_star_curl", "helmholtz_project", "inv_neg_laplacian",
                    "antiderivative", "resample", "shift", "spectral_tail_fraction")
SELF_TIME_METRICS = {
    "landau.build_s": ("landau.build",),
    "landau.synth_s": ("landau.synth",),
    "landau.project_s": ("landau.project",),
    "spectral.helmholtz_s": ("spectral.helmholtz_project",),
    "spectral.inv_lap_s": ("spectral.inv_neg_laplacian",),
    "spectral.other_s": tuple(f"spectral.{m}" for m in CELLGRID_METHODS
                              if m not in ("helmholtz_project", "inv_neg_laplacian")),
    "glcore.energy_s": ("glcore.energy",),
    "glcore.alpha_s": ("glcore.alpha_fixed_point",),
    "bifurcation.solve_w_s": ("bifurcation.solve_w",),
    "bifurcation.other_s": ("bifurcation.build_reduction", "bifurcation.solve_branch",
                            "bifurcation.branch_by_field", "bifurcation.fit_expansion"),
    "abrikosov.lattice_sum_s": ("abrikosov.beta_lattice_sum",),
    "abrikosov.quadrature_s": ("abrikosov.beta_quadrature",),
    "abrikosov.critical_points_s": ("abrikosov.find_beta_critical_points",),
    "gauge.fix_s": ("gauge.fix_gauge",),
    "snapshot.load_s": ("snapshot.load_raw_state", "snapshot.load_state",
                        "snapshot.load_field"),
    "snapshot.save_s": ("snapshot.save_state", "snapshot.save_raw_state",
                        "snapshot.save_field"),
    "cli.self_s": ("cli.main",),
    "cli.write_s": ("cli.write_csv", "cli.write_json"),
}
CALL_COUNT_METRICS = {
    "landau.build_calls": "landau.build",
    "landau.synth_calls": "landau.synth",
    "landau.project_calls": "landau.project",
    "spectral.inv_lap_calls": "spectral.inv_neg_laplacian",
    "glcore.energy_calls": "glcore.energy",
    "glcore.alpha_calls": "glcore.alpha_fixed_point",
    "bifurcation.solve_w_calls": "bifurcation.solve_w",
    "abrikosov.lattice_sum_calls": "abrikosov.beta_lattice_sum",
    "abrikosov.quadrature_calls": "abrikosov.beta_quadrature",
    "gauge.fix_calls": "gauge.fix_gauge",
}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if "bytes" in metric:
        return "bytes"
    if metric.endswith(("_ratio", "_per_sweep", "_frac")):
        return "ratio"
    return "count"


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _array_bytes(obj) -> int:
    """Bytes held by the numpy arrays stored directly on an object."""
    return sum(getattr(v, "nbytes", 0) for v in vars(obj).values()
               if hasattr(v, "dtype") and hasattr(v, "shape"))


class Tracer:
    """In-memory span recorder with counters, for one benchmark process."""

    def __init__(self):
        self.spans: list = []          # (name, t0, t1, parent index, op id)
        self.stack: list[int] = [-1]
        self.op_id = -1
        self.active = False
        self.counts: dict[str, float] = defaultdict(float)
        self.cli_main = None           # the traced CLI entry point, once installed
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def wrap(self, name: str, fn, after=None):
        """Span-recording wrapper; after(result, args, kwargs) may add counts."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op_id)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def counter(self, key: str, fn):
        """Count-only wrapper (no span), for very frequent cheap calls."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def replace_function(self, package_modules, fn, wrapper) -> None:
        """Replace fn by wrapper in every module that holds it under any name."""
        for mod in package_modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap the public entry points of every vortexlattice layer."""
        from vortexlattice import (abrikosov, bifurcation, cli, gauge, glcore,
                                   landau, lattice, snapshot, spectral)
        import vortexlattice
        modules = [vortexlattice, abrikosov, bifurcation, cli, gauge, glcore,
                   landau, lattice, snapshot, spectral]
        counts = self.counts

        def patch(module, attr, name, after=None):
            orig = getattr(module, attr)
            self.replace_function(modules, orig, self.wrap(name, orig, after))

        # landau: basis build and coefficient <-> grid transforms
        def after_build(_res, args, _kw):
            counts["landau.table_bytes"] = max(counts["landau.table_bytes"],
                                               _array_bytes(args[0]))
        LB = landau.LandauBasis
        self._set(LB, "__init__", self.wrap("landau.build", LB.__init__, after_build))
        self._set(LB, "synth", self.wrap("landau.synth", LB.synth))
        self._set(LB, "project", self.wrap("landau.project", LB.project))
        # one resolvent application per w sweep
        self._set(LB, "resolvent_coeffs",
                  self.counter("bifurcation.sweeps", LB.resolvent_coeffs))

        # spectral: FFT operators of the cell grid
        for meth in CELLGRID_METHODS:
            if meth in spectral.CellGrid.__dict__:
                self._set(spectral.CellGrid, meth,
                          self.wrap(f"spectral.{meth}", spectral.CellGrid.__dict__[meth]))

        # glcore: energy and the induced-potential (alpha) fixed point
        patch(glcore, "energy", "glcore.energy")
        patch(glcore, "_alpha_fixed_point", "glcore.alpha_fixed_point")

        # bifurcation: w solves, branch points and their drivers
        def after_solve_w(res, _a, _kw):
            if getattr(res, "iterations", 0) == -1:
                counts["bifurcation.newton_fallbacks"] += 1

        def after_branch(res, _a, _kw):
            counts["bifurcation.points"] += len(res.points)

        def after_point(_res, _a, _kw):
            counts["bifurcation.points"] += 1
        patch(bifurcation, "solve_w", "bifurcation.solve_w", after_solve_w)
        patch(bifurcation, "solve_branch", "bifurcation.solve_branch", after_branch)
        patch(bifurcation, "branch_by_field", "bifurcation.branch_by_field", after_point)
        patch(bifurcation, "build_reduction", "bifurcation.build_reduction")
        patch(bifurcation, "fit_expansion", "bifurcation.fit_expansion")

        # abrikosov: beta by both oracles and the critical-point search
        patch(abrikosov, "beta_lattice_sum", "abrikosov.beta_lattice_sum")
        patch(abrikosov, "beta_quadrature", "abrikosov.beta_quadrature")
        patch(abrikosov, "find_beta_critical_points", "abrikosov.find_beta_critical_points")

        # gauge fixing
        patch(gauge, "fix_gauge", "gauge.fix_gauge")

        # snapshots: sizes of the files read and written
        def after_read(_res, args, kwargs):
            counts["snapshot.bytes_read"] += _file_size(kwargs.get("path", args[0]))

        def after_write(_res, args, kwargs):
            counts["snapshot.bytes_written"] += _file_size(kwargs.get("path", args[0]))
        for attr in ("load_raw_state", "load_state", "load_field"):
            patch(snapshot, attr, f"snapshot.{attr}", after_read)
        for attr in ("save_state", "save_raw_state", "save_field"):
            patch(snapshot, attr, f"snapshot.{attr}", after_write)

        # cli: result files and the op itself
        def after_cli_write(_res, args, kwargs):
            counts["cli.bytes_written"] += _file_size(kwargs.get("path", args[0]))
        patch(cli, "write_csv", "cli.write_csv", after_cli_write)
        patch(cli, "write_json", "cli.write_json", after_cli_write)
        self.cli_main = self.wrap("cli.main", cli.main)

        # lattice: shape reductions (counted, not timed: called thousands of
        # times per critical-point search)
        orig = lattice.normalize_tau
        self.replace_function(modules, orig,
                              self.counter("lattice.normalize_calls", orig))

    # ------------------------------------------------------------------
    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per-name self time and call count over all recorded spans."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_t: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, t0, t1, _p, _op) in enumerate(self.spans):
            self_t[name] += (t1 - t0) - child[i]
            calls[name] += 1
        return self_t, calls

    def layer_metrics(self, traced_wall_s: float, span_cost_s: float) -> dict[str, float]:
        self_t, calls = self.self_times()
        c = self.counts
        out: dict[str, float] = {}
        for metric, names in SELF_TIME_METRICS.items():
            out[metric] = float(sum(self_t.get(n, 0.0) for n in names))
        for metric, name in CALL_COUNT_METRICS.items():
            out[metric] = calls.get(name, 0)
        out["landau.table_mb"] = c["landau.table_bytes"] / 1e6   # largest basis built
        sweeps = int(c["bifurcation.sweeps"])
        out["bifurcation.sweeps"] = sweeps
        out["bifurcation.newton_fallbacks"] = int(c["bifurcation.newton_fallbacks"])
        out["bifurcation.points"] = int(c["bifurcation.points"])
        w_calls = out["bifurcation.solve_w_calls"]
        out["bifurcation.useful_ratio"] = c["bifurcation.points"] / w_calls if w_calls else 0.0
        out["glcore.alpha_iters_per_sweep"] = (out["spectral.inv_lap_calls"] / sweeps
                                               if sweeps else 0.0)
        for key in ("snapshot.bytes_read", "snapshot.bytes_written", "cli.bytes_written",
                    "lattice.normalize_calls"):
            out[key] = int(c[key])
        n_spans = len(self.spans)
        overhead = n_spans * span_cost_s
        out["trace.spans"] = n_spans
        out["trace.wall_s"] = traced_wall_s
        out["trace.overhead_frac"] = overhead / max(traced_wall_s - overhead, 1e-12)
        return out

    def dump_spans(self) -> list[list]:
        return [list(span) for span in self.spans]


def span_cost_s(repeats: int = 5, calls: int = 20000) -> float:
    """Median added cost of one recorded span, from wrapping a no-op function."""
    def noop():
        return None
    costs = []
    for _ in range(repeats):
        tr = Tracer()
        tr.active = True
        wrapped = tr.wrap("noop", noop)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return max(statistics.median(costs), 0.0)
