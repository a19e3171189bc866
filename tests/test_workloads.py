"""The package calls that bench/workloads.py makes, run in-process.

The benchmark builds its snapshot fixture with build_reduction, solve_branch
and field_from_coeffs at N = 96, and checks its ops' outputs with the
package's loaders and residuals.  One op list of each workload runs here
with each op's own check, so a change to that surface fails in the suite
before it fails a benchmark run.
"""

import os

import numpy as np

from vortexlattice import cli

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_one_round_of_each_workload_passes_its_checks(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    monkeypatch.chdir(tmp_path)
    import workloads
    os.makedirs("inputs")
    rng = np.random.default_rng(7001)
    snaps = workloads.make_snapshot_fixture(rng, 0)
    ops = workloads.branch_ops(rng, 1) + workloads.landscape_ops(rng, 1, snaps)
    assert {op.kind for op in ops} == {"branch", "landscape", "beta_sum", "beta_quad",
                                       "critical_points", "gauge_fix"}
    for op in ops:
        assert cli.main(op.argv) == 0, op.argv
        op.check(op)
