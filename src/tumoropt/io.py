"""Field container format and VTK legacy export.

The ``.fld`` container stores named little-endian float64 arrays with their
shapes; snapshots, controls and target fields all use it.  VTK output is the
legacy ASCII structured-grid dialect, one file per snapshot.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .grid import Grid

_MAGIC = b"FLD1"


class FieldFormatError(IOError):
    """Raised on malformed .fld containers."""


def write_fld(path, arrays: dict[str, np.ndarray]) -> None:
    """Write named float64 arrays to ``path`` (little-endian, C order)."""
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", 1, len(arrays)))
        for name, arr in arrays.items():
            arr = np.asarray(arr, dtype="<f8")  # tobytes() emits C order
            name_b = name.encode("utf-8")
            fh.write(struct.pack("<I", len(name_b)))
            fh.write(name_b)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}q", *arr.shape))
            fh.write(arr.tobytes())


def read_fld(path) -> dict[str, np.ndarray]:
    """Read a container written by ``write_fld``, arrays in file order.

    A short read, trailing bytes, a bad name, a negative extent or a repeated
    name raise ``FieldFormatError`` naming the path.  Every length is checked
    against the bytes left before it is read, so a corrupt header cannot ask
    for a huge allocation.
    """
    path = Path(path)
    buf = path.read_bytes()
    pos = 0

    def take(n: int) -> bytes:
        nonlocal pos
        if n > len(buf) - pos:
            raise FieldFormatError(f"{path}: truncated, {n} bytes expected at "
                                   f"byte {pos} of {len(buf)}")
        pos += n
        return buf[pos - n:pos]

    if take(4) != _MAGIC:
        raise FieldFormatError(f"{path}: not a field container")
    version, count = struct.unpack("<II", take(8))
    if version != 1:
        raise FieldFormatError(f"{path}: unsupported version {version}")
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4))
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FieldFormatError(f"{path}: field name is not UTF-8") from exc
        if name in out:
            raise FieldFormatError(f"{path}: field {name!r} appears twice")
        (ndim,) = struct.unpack("<I", take(4))
        shape = struct.unpack(f"<{ndim}q", take(8 * ndim))
        if min(shape, default=0) < 0:
            raise FieldFormatError(f"{path}: field {name!r} has shape {shape}")
        data = take(8 * math.prod(shape))
        out[name] = np.frombuffer(data, dtype="<f8").reshape(shape).copy()
    if pos != len(buf):
        raise FieldFormatError(f"{path}: {len(buf) - pos} trailing bytes after "
                               f"{count} fields")
    return out


def snapshot_arrays(grid: Grid, snap) -> dict[str, np.ndarray]:
    return {
        "grid_dims": np.array([grid.nx, grid.ny], dtype=float),
        "lengths": np.array([grid.Lx, grid.Ly]),
        "time": np.array(snap.t),
        "phi": snap.phi,
        "mu": snap.mu,
        "sigma": snap.sigma,
        "u": snap.u.reshape(-1, 2),
    }


def check_grid_shape(grid: Grid, arrays: dict[str, np.ndarray], path="") -> None:
    dims = arrays.get("grid_dims")
    if dims is None or tuple(dims.astype(int)) != (grid.nx, grid.ny):
        got = None if dims is None else tuple(dims.astype(int))
        raise FieldFormatError(
            f"{path}: grid mismatch, file has {got}, expected {(grid.nx, grid.ny)}")


def write_vtk(path, grid: Grid, scalars: dict[str, np.ndarray],
              vectors: dict[str, np.ndarray] | None = None) -> None:
    """Legacy ASCII VTK structured grid with nodal point data."""
    path = Path(path)
    nn = grid.n_nodes
    lines = [
        "# vtk DataFile Version 3.0",
        "tumoropt snapshot",
        "ASCII",
        "DATASET STRUCTURED_GRID",
        f"DIMENSIONS {grid.nx + 1} {grid.ny + 1} 1",
        f"POINTS {nn} double",
    ]
    for x, y in grid.nodes:
        lines.append(f"{x:.9g} {y:.9g} 0")
    lines.append(f"POINT_DATA {nn}")
    for name, values in scalars.items():
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        lines.extend(f"{v:.17g}" for v in np.asarray(values).ravel())
    for name, values in (vectors or {}).items():
        v = np.asarray(values).reshape(nn, -1)
        lines.append(f"VECTORS {name} double")
        lines.extend(f"{a:.17g} {b:.17g} 0" for a, b in v[:, :2])
    path.write_text("\n".join(lines) + "\n")
