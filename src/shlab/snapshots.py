"""SHLAB1 field snapshot format.

One text header line ``SHLAB1 <kind> <nx> <ny> <ncomp>`` followed by
row-major, component-interleaved 64-bit little-endian floats.  Round trips
are bit-exact.
"""

from __future__ import annotations

import numpy as np

from .errors import FormatError, InvalidValueError
from .fields import TorusGrid, _check_finite

MAGIC = "SHLAB1"

_KINDS = {"scalar": 1, "vector": 2, "symtraceless": 2}


def write_snapshot(kind: str, values: np.ndarray, path) -> None:
    """Write an (nx, ny) array of kind "scalar", or a (2, nx, ny) array of
    kind "vector" or "symtraceless" (the (p, s) pair of a traceless tensor)."""
    nx, ny = values.shape[-2:]
    interleaved = np.moveaxis(values.reshape(-1, nx, ny), 0, -1)
    header = f"{MAGIC} {kind} {nx} {ny} {_KINDS[kind]}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        # written from the array's buffer: a contiguous "<f8" field is not copied
        fh.write(memoryview(np.ascontiguousarray(interleaved, dtype="<f8")))


def read_snapshot(path) -> np.ndarray:
    """The values of a snapshot file: an (nx, ny) array for a scalar, a
    (2, nx, ny) array otherwise.  They must be finite."""
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
        TorusGrid(nx, ny)
    except InvalidValueError as exc:
        raise FormatError(f"bad grid in snapshot header: {exc}") from None
    data = np.frombuffer(payload, dtype="<f8").reshape(nx, ny, ncomp)
    values = np.moveaxis(data, -1, 0).copy()  # (ncomp, nx, ny)
    _check_finite(values, "tensor field" if kind == "symtraceless" else f"{kind} field")
    return values[0] if kind == "scalar" else values
