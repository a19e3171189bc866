"""Portable field snapshots: '#'-prefixed JSON header line plus CSV columns.

Each sampled field is written once, and nothing the header fixes.  Scalar
fields have columns (re_psi, im_psi), full states (re_psi, im_psi, alpha1,
alpha2), raw states (re_psi, im_psi, ap1, ap2).  Row i*N + j is the sample at
logical point (i/N, j/N) of the header's N x N grid.  The magnetic field is
not stored: it is p.n + alpha.grid.curl(alpha.values) of a loaded state
(p its params), and RawLatticeState.curl_a() of a loaded raw state.
Loaders parse only the columns they return, found by name, so a file with
further columns loads the same.  A malformed file raises
SnapshotFormatError.  All floats are written with 17 significant digits so
re-runs reproduce byte-identical files.
"""

from __future__ import annotations

import json
from functools import wraps

import numpy as np

from .gauge import RawLatticeState
from .glcore import GLParams, GLState, PeriodicVectorField
from .landau import QuasiPeriodicField
from .lattice import LatticeShape
from .spectral import GRID_MIN_N

FMT = "%.17g"
# |bc_const| bound: below 2^19 the ulp of a boundary phase is at most
# 2^-34 = 5.8e-11 rad
BC_CONST_MAX = 2.0**19


class SnapshotFormatError(ValueError):
    """A snapshot without the header keys, columns or N^2 rows its loader
    reads, with a non-finite sample, or whose grid size N, flux number n,
    cell scale r (with the cell area and field it gives) or boundary
    constants bc_const are out of range."""


def _loader(load):
    """load, raising SnapshotFormatError on every fault of the file's format."""
    @wraps(load)
    def checked(path):
        try:
            return load(path)
        except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
            raise SnapshotFormatError(f"malformed snapshot {path}: {exc!r}") from exc
    return checked


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
    """The JSON header, its N (at least a CellGrid's GRID_MIN_N), n and
    bc_const (default (0, 0)) checked, and the named columns of a snapshot,
    the only ones parsed, checked finite and each reshaped to the header's
    N x N grid."""
    with open(path) as fh:
        first = fh.readline()
        if not first.startswith("#"):
            raise ValueError("no '#' JSON header line")
        header = json.loads(first[1:].strip())
        for key, least in (("N", GRID_MIN_N), ("n", 1)):
            v = header[key]
            if isinstance(v, bool) or not isinstance(v, int) or v < least:
                raise ValueError(f"header {key} = {v!r} is not an integer >= {least}")
        bc = header.setdefault("bc_const", [0.0, 0.0])
        if not (isinstance(bc, list) and len(bc) == 2
                and all(type(c) in (int, float) and abs(c) < BC_CONST_MAX for c in bc)):
            raise ValueError(f"bc_const = {bc!r} is not two finite numbers below "
                             f"{BC_CONST_MAX:g} in magnitude")
        names = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", usecols=[names.index(c) for c in columns])
    if not np.isfinite(data).all():
        raise ValueError("a parsed column holds a non-finite value")
    N = header["N"]
    return header, {c: data[:, i].reshape(N, N) for i, c in enumerate(columns)}


def save_field(path, f: QuasiPeriodicField) -> None:
    header = {"kind": "field", "n": f.n, "tau": [f.shape.tau1, f.shape.tau2],
              "N": f.N, "bc_const": list(f.bc_const),
              "normalization": "cell-average |psi|^2"}
    write_table(path, header, ["re_psi", "im_psi"],
                [f.values.real.ravel(), f.values.imag.ravel()])


@_loader
def load_field(path) -> QuasiPeriodicField:
    header, col = _read(path, ("re_psi", "im_psi"))
    vals = col["re_psi"] + 1j * col["im_psi"]
    shape = LatticeShape(complex(header["tau"][0], header["tau"][1]))
    return QuasiPeriodicField(n=header["n"], shape=shape, values=vals,
                              bc_const=tuple(header["bc_const"]))


def save_state(path, state: GLState, extra: dict | None = None) -> None:
    psi, alpha, p = state.psi, state.alpha, state.params
    header = {"kind": "state", "n": p.n, "tau": [psi.shape.tau1, psi.shape.tau2],
              "N": psi.N, "kappa": p.kappa, "lambda": p.lam, "b": p.b,
              "bc_const": list(psi.bc_const)}
    header.update(extra or {})
    write_table(path, header, ["re_psi", "im_psi", "alpha1", "alpha2"],
                [psi.values.real.ravel(), psi.values.imag.ravel(),
                 alpha.values[0].ravel(), alpha.values[1].ravel()])


@_loader
def load_state(path) -> GLState:
    header, col = _read(path, ("re_psi", "im_psi", "alpha1", "alpha2"))
    shape = LatticeShape(complex(header["tau"][0], header["tau"][1]))
    n = header["n"]
    psi = QuasiPeriodicField(n=n, shape=shape,
                             values=col["re_psi"] + 1j * col["im_psi"],
                             bc_const=tuple(header["bc_const"]))
    alpha_vals = np.stack([col["alpha1"], col["alpha2"]])
    params = GLParams(kappa=float(header["kappa"]), n=n, lam=float(header["lambda"]))
    return GLState(psi=psi, alpha=PeriodicVectorField(alpha_vals, psi.grid), params=params)


def save_raw_state(path, raw) -> None:
    if not isinstance(raw, RawLatticeState):
        raise TypeError(f"save_raw_state needs a RawLatticeState, not {type(raw).__name__}")
    header = {"kind": "raw", "n": raw.n, "tau": [raw.shape.tau1, raw.shape.tau2],
              "N": raw.N, "r": raw.r, "bc_const": list(raw.bc_const)}
    write_table(path, header, ["re_psi", "im_psi", "ap1", "ap2"],
                [raw.psi.real.ravel(), raw.psi.imag.ravel(),
                 raw.a_p[0].ravel(), raw.a_p[1].ravel()])


@_loader
def load_raw_state(path) -> RawLatticeState:
    header, col = _read(path, ("re_psi", "im_psi", "ap1", "ap2"))
    raw = RawLatticeState(
        psi=col["re_psi"] + 1j * col["im_psi"],
        a_p=np.stack([col["ap1"], col["ap2"]]),
        n=header["n"], shape=LatticeShape(complex(header["tau"][0], header["tau"][1])),
        r=float(header["r"]), bc_const=tuple(header["bc_const"]))
    area = raw.area
    b = raw.b if area > 0 else 0.0
    if not (raw.r > 0 and 0 < area < np.inf and 0 < b < np.inf):
        raise ValueError(f"cell scale r = {header['r']!r} gives the cell area {area!r} "
                         f"and field {b!r}; both must be finite numbers > 0")
    return raw
