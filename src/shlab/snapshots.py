"""SHLAB1 field snapshot format.

One text header line ``SHLAB1 <kind> <nx> <ny> <ncomp>`` followed by
row-major, component-interleaved 64-bit little-endian floats.  Round trips
are bit-exact.
"""

from __future__ import annotations

import numpy as np

from .errors import FormatError, InvalidValueError
from .fields import ScalarField, SymTracelessField, TorusGrid, VectorField

MAGIC = "SHLAB1"

_KINDS = {"scalar": 1, "vector": 2, "symtraceless": 2}


def _kind_of(fld) -> tuple[str, np.ndarray]:
    if isinstance(fld, ScalarField):
        return "scalar", fld.values[..., None]
    if isinstance(fld, VectorField):
        return "vector", np.moveaxis(fld.values, 0, -1)
    if isinstance(fld, SymTracelessField):
        return "symtraceless", np.moveaxis(fld.values, 0, -1)
    raise FormatError(f"cannot snapshot object of type {type(fld).__name__}")


def write_snapshot(fld, path) -> None:
    kind, interleaved = _kind_of(fld)
    grid = fld.grid
    header = f"{MAGIC} {kind} {grid.nx} {grid.ny} {_KINDS[kind]}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        # written from the array's buffer: a contiguous "<f8" field is not copied
        fh.write(memoryview(np.ascontiguousarray(interleaved, dtype="<f8")))


def read_snapshot(path):
    try:
        with open(path, "rb") as fh:
            header = fh.readline()
            payload = fh.read()
    except ValueError as exc:  # a NUL byte in the path, e.g. from a scenario's @file
        raise FormatError(f"cannot open snapshot {str(path)!r}: {exc}") from None
    try:
        text = header.decode("ascii").strip()
    except UnicodeDecodeError as exc:
        raise FormatError("snapshot header is not ASCII") from exc
    parts = text.split()
    if len(parts) != 5 or parts[0] != MAGIC:
        raise FormatError(f"bad snapshot header: {text!r}")
    kind = parts[1]
    if kind not in _KINDS:
        raise FormatError(f"unknown snapshot kind {kind!r}")
    try:
        nx, ny, ncomp = (int(p) for p in parts[2:])
    except ValueError as exc:
        raise FormatError(f"non-integer sizes in header: {text!r}") from exc
    if ncomp != _KINDS[kind]:
        raise FormatError(f"kind {kind!r} requires ncomp {_KINDS[kind]}, header says {ncomp}")
    expected = nx * ny * ncomp * 8
    if len(payload) != expected:
        raise FormatError(
            f"payload has {len(payload)} bytes, header implies {expected}"
        )
    # a header is file data, so its bad grid is a FormatError (exit 4), not
    # the InvalidValueError (exit 2) of a bad grid in a scenario
    try:
        grid = TorusGrid(nx, ny)
    except InvalidValueError as exc:
        raise FormatError(f"bad grid in snapshot header: {exc}") from None
    data = np.frombuffer(payload, dtype="<f8").reshape(nx, ny, ncomp)
    if kind == "scalar":
        return ScalarField(grid, data[..., 0].copy())
    values = np.moveaxis(data, -1, 0).copy()
    if kind == "vector":
        return VectorField(grid, values)
    return SymTracelessField(grid, values)
