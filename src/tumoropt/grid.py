"""Uniform rectangular grid of bilinear quadrilateral cells.

Nodes are numbered lexicographically, ``node(i, j) = i + j*(nx+1)``, cells
counter-clockwise.  The boundary is split edge-wise into a Dirichlet part
(displacement pinned) and a Neumann part (traction); the split is restricted
to whole sides of the rectangle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SIDES = ("left", "right", "bottom", "top")

# a block of at most this many nodes is not dissected further
ND_LEAF = 4


class GridConfigError(ValueError):
    """Raised for inconsistent grid / boundary-partition requests."""


@dataclass(frozen=True)
class Grid:
    nx: int
    ny: int
    Lx: float
    Ly: float
    dirichlet_sides: tuple[str, ...]
    nodes: np.ndarray = field(repr=False)          # (n_nodes, 2)
    cells: np.ndarray = field(repr=False)          # (n_cells, 4) CCW
    boundary_edges: np.ndarray = field(repr=False)  # (n_edges, 2) node pairs
    edge_sides: np.ndarray = field(repr=False)      # (n_edges,) index into SIDES
    edge_is_dirichlet: np.ndarray = field(repr=False)
    boundary_nodes: np.ndarray = field(repr=False)  # sorted, unique
    dirichlet_nodes: np.ndarray = field(repr=False)

    @property
    def n_nodes(self) -> int:
        return (self.nx + 1) * (self.ny + 1)

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    @property
    def hx(self) -> float:
        return self.Lx / self.nx

    @property
    def hy(self) -> float:
        return self.Ly / self.ny

    @property
    def n_boundary_nodes(self) -> int:
        return self.boundary_nodes.size


def _parse_sides(spec: str) -> tuple[str, ...]:
    parts = spec.replace(",", " ").split()
    for s in parts:
        if s not in SIDES:
            raise GridConfigError(f"unknown boundary side {s!r}; expected one of {SIDES}")
    return tuple(dict.fromkeys(parts))  # dedupe, keep order


def build_grid(nx: int, ny: int, Lx: float = 1.0, Ly: float = 1.0,
               dirichlet_spec: str = "left") -> Grid:
    """Build the uniform quad grid with a Dirichlet/Neumann side partition.

    ``dirichlet_spec`` selects whole sides of the rectangle ("left", "right",
    "bottom", "top", comma/space separated).  It must be non-empty: the
    displacement solve needs a pinned part of positive measure.
    """
    if nx < 1 or ny < 1:
        raise GridConfigError("nx and ny must be >= 1")
    if Lx <= 0 or Ly <= 0:
        raise GridConfigError("Lx and Ly must be positive")
    dirichlet_sides = _parse_sides(dirichlet_spec)
    if not dirichlet_sides:
        raise GridConfigError(
            "empty Dirichlet selection: at least one side of the boundary "
            "must pin the displacement")

    xs = np.linspace(0.0, Lx, nx + 1)
    ys = np.linspace(0.0, Ly, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="xy")
    i0 = (ii + jj * (nx + 1)).ravel()
    cells = np.column_stack([i0, i0 + 1, i0 + nx + 2, i0 + nx + 1])

    edges = []
    sides = []
    side_id = {s: k for k, s in enumerate(SIDES)}
    for i in range(nx):                      # bottom, top
        edges.append((i, i + 1))
        sides.append(side_id["bottom"])
        top0 = i + ny * (nx + 1)
        edges.append((top0, top0 + 1))
        sides.append(side_id["top"])
    for j in range(ny):                      # left, right
        edges.append((j * (nx + 1), (j + 1) * (nx + 1)))
        sides.append(side_id["left"])
        edges.append((nx + j * (nx + 1), nx + (j + 1) * (nx + 1)))
        sides.append(side_id["right"])
    boundary_edges = np.asarray(edges, dtype=np.int64)
    edge_sides = np.asarray(sides, dtype=np.int64)
    edge_is_dirichlet = np.isin(edge_sides,
                                [side_id[s] for s in dirichlet_sides])

    boundary_nodes = np.unique(boundary_edges.ravel())
    dirichlet_nodes = np.unique(boundary_edges[edge_is_dirichlet].ravel())

    return Grid(nx=nx, ny=ny, Lx=float(Lx), Ly=float(Ly),
                dirichlet_sides=dirichlet_sides,
                nodes=nodes, cells=cells,
                boundary_edges=boundary_edges, edge_sides=edge_sides,
                edge_is_dirichlet=edge_is_dirichlet,
                boundary_nodes=boundary_nodes, dirichlet_nodes=dirichlet_nodes)


def nested_dissection(grid: Grid) -> np.ndarray:
    """Geometric nested-dissection order of the nodes: position k holds node ``order[k]``.

    A block of nodes is bisected by its middle grid line across the longer
    side; the two halves come first, each ordered the same way, and the line
    last.  Nodes couple only within a cell, so a grid line separates the
    9-point stencil of every nodal operator, and eliminating in this order
    fills only inside a half and its separators.  Blocks of at most
    ``ND_LEAF`` nodes keep the lexicographic order.  Blocks of one shape are
    ordered alike, so each shape is dissected once.
    """
    shapes: dict[tuple[int, int], np.ndarray] = {}

    def offsets(w: int, h: int) -> np.ndarray:
        """(2, w h) node offsets (i, j) of a w x h block, in order."""
        if (w, h) not in shapes:
            if w * h <= ND_LEAF:
                ij = np.divmod(np.arange(w * h), w)[::-1]
            elif w >= h:
                m = w // 2
                rest = offsets(w - m - 1, h) + [[m + 1], [0]]
                line = [np.full(h, m), np.arange(h)]
                ij = np.concatenate([offsets(m, h), rest, line], axis=1)
            else:
                m = h // 2
                rest = offsets(w, h - m - 1) + [[0], [m + 1]]
                line = [np.arange(w), np.full(w, m)]
                ij = np.concatenate([offsets(w, m), rest, line], axis=1)
            shapes[w, h] = np.asarray(ij)
        return shapes[w, h]

    i, j = offsets(grid.nx + 1, grid.ny + 1)
    return i + j * (grid.nx + 1)
