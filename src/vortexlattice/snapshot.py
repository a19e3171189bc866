"""Portable field snapshots: '#'-prefixed JSON header line plus CSV columns.

Scalar fields use columns (y1, y2, re_psi, im_psi); full states append
(alpha1, alpha2, curl_a).  Raw states use (y1, y2, re_psi, im_psi, ap1, ap2).
Loaders parse only the columns they return, found by name; load_state skips
curl_a, which follows from alpha.  A malformed file raises SnapshotFormatError.
All floats are written with 17 significant digits so re-runs reproduce
byte-identical files.
"""

from __future__ import annotations

import json
from functools import wraps

import numpy as np

from .glcore import GLParams, GLState, PeriodicVectorField
from .landau import QuasiPeriodicField
from .lattice import LatticeShape

FMT = "%.17g"


class SnapshotFormatError(ValueError):
    """A snapshot without the header keys, columns or N^2 rows its loader reads."""


def _loader(load):
    """load, raising SnapshotFormatError on every fault of the file's format."""
    @wraps(load)
    def checked(path):
        try:
            return load(path)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise SnapshotFormatError(f"malformed snapshot {path}: {exc!r}") from exc
    return checked


def _grid_columns(N: int) -> tuple[np.ndarray, np.ndarray]:
    s = np.arange(N) / N
    y1, y2 = np.meshgrid(s, s, indexing="ij")
    return y1.ravel(), y2.ravel()


def write_table(path, header: dict, columns: list[str], arrays: list[np.ndarray]) -> None:
    """The '#'-header CSV of snapshots and CLI tables: '# <sorted JSON>', the
    column names, then one FMT row per sample of the column arrays: the
    bytes of np.savetxt, formatted by one % per block of 4096 rows."""
    data = np.column_stack(arrays)
    row = ",".join([FMT] * data.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write("# " + json.dumps(header, sort_keys=True) + "\n")
        fh.write(",".join(columns) + "\n")
        for start in range(0, len(data), 4096):
            block = data[start:start + 4096]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def _read(path, columns: tuple[str, ...]) -> tuple[dict, dict[str, np.ndarray]]:
    """The JSON header and the named columns of a snapshot, the only ones
    parsed, each reshaped to the header's N x N grid."""
    with open(path) as fh:
        first = fh.readline()
        if not first.startswith("#"):
            raise ValueError("no '#' JSON header line")
        header = json.loads(first[1:].strip())
        names = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", usecols=[names.index(c) for c in columns])
    N = int(header["N"])
    return header, {c: data[:, i].reshape(N, N) for i, c in enumerate(columns)}


def save_field(path, f: QuasiPeriodicField) -> None:
    N = f.N
    y1, y2 = _grid_columns(N)
    header = {"kind": "field", "n": f.n, "tau": [f.shape.tau1, f.shape.tau2],
              "N": N, "bc_const": list(f.bc_const),
              "normalization": "cell-average |psi|^2"}
    if f.basis is not None:
        header["K_lev"] = f.basis.K_lev
    write_table(path, header, ["y1", "y2", "re_psi", "im_psi"],
                [y1, y2, f.values.real.ravel(), f.values.imag.ravel()])


@_loader
def load_field(path) -> QuasiPeriodicField:
    header, col = _read(path, ("re_psi", "im_psi"))
    vals = col["re_psi"] + 1j * col["im_psi"]
    shape = LatticeShape(complex(header["tau"][0], header["tau"][1]))
    return QuasiPeriodicField(n=int(header["n"]), shape=shape, values=vals,
                              bc_const=tuple(header.get("bc_const", (0.0, 0.0))))


def save_state(path, state: GLState, extra: dict | None = None) -> None:
    psi, alpha, p = state.psi, state.alpha, state.params
    N = psi.N
    y1, y2 = _grid_columns(N)
    curl_a = p.n + alpha.grid.curl(alpha.values)
    header = {"kind": "state", "n": p.n, "tau": [psi.shape.tau1, psi.shape.tau2],
              "N": N, "kappa": p.kappa, "lambda": p.lam, "b": p.b,
              "bc_const": list(psi.bc_const)}
    header.update(extra or {})
    write_table(path, header,
                ["y1", "y2", "re_psi", "im_psi", "alpha1", "alpha2", "curl_a"],
                [y1, y2, psi.values.real.ravel(), psi.values.imag.ravel(),
                 alpha.values[0].ravel(), alpha.values[1].ravel(), curl_a.ravel()])


@_loader
def load_state(path) -> GLState:
    header, col = _read(path, ("re_psi", "im_psi", "alpha1", "alpha2"))
    shape = LatticeShape(complex(header["tau"][0], header["tau"][1]))
    n = int(header["n"])
    psi = QuasiPeriodicField(n=n, shape=shape,
                             values=col["re_psi"] + 1j * col["im_psi"],
                             bc_const=tuple(header.get("bc_const", (0.0, 0.0))))
    alpha_vals = np.stack([col["alpha1"], col["alpha2"]])
    params = GLParams(kappa=float(header["kappa"]), n=n, lam=float(header["lambda"]))
    return GLState(psi=psi, alpha=PeriodicVectorField(alpha_vals, psi.grid), params=params)


def save_raw_state(path, raw) -> None:
    from .gauge import RawLatticeState  # local import to avoid a cycle
    if not isinstance(raw, RawLatticeState):
        raise TypeError(f"save_raw_state needs a RawLatticeState, not {type(raw).__name__}")
    N = raw.N
    y1, y2 = _grid_columns(N)
    header = {"kind": "raw", "n": raw.n, "tau": [raw.shape.tau1, raw.shape.tau2],
              "N": N, "r": raw.r, "bc_const": list(raw.bc_const)}
    write_table(path, header, ["y1", "y2", "re_psi", "im_psi", "ap1", "ap2"],
                [y1, y2, raw.psi.real.ravel(), raw.psi.imag.ravel(),
                 raw.a_p[0].ravel(), raw.a_p[1].ravel()])


@_loader
def load_raw_state(path):
    from .gauge import RawLatticeState
    header, col = _read(path, ("re_psi", "im_psi", "ap1", "ap2"))
    shape = LatticeShape(complex(header["tau"][0], header["tau"][1]))
    return RawLatticeState(
        psi=col["re_psi"] + 1j * col["im_psi"],
        a_p=np.stack([col["ap1"], col["ap2"]]),
        n=int(header["n"]), shape=shape, r=float(header["r"]),
        bc_const=tuple(header.get("bc_const", (0.0, 0.0))))
