"""The package names that bench/tracing.py patches by name.

A traced benchmark run wraps these attributes; renaming or deleting one of
them breaks the run, so the tracer is installed and removed here.
"""

import os

from vortexlattice import cli, glcore, landau, snapshot

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_tracer_wraps_and_restores_the_patched_names(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import tracing
    patched = [(glcore, "_alpha_fixed_point"), (landau.LandauBasis, "synth"),
               (snapshot, "save_field"), (cli, "write_csv")]
    originals = [getattr(owner, attr) for owner, attr in patched]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for (owner, attr), fn in zip(patched, originals):
            assert getattr(owner, attr) is not fn, attr
    finally:
        tracer.uninstall()
    for (owner, attr), fn in zip(patched, originals):
        assert getattr(owner, attr) is fn, attr
