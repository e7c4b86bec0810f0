"""Bilinear-quad finite element assembly on the uniform grid.

Symmetric 2x2 tensors travel as Voigt triples ``[Axx, Ayy, Axy]``; the
Frobenius pairing therefore carries the weight ``VOIGT_W = (1, 1, 2)`` on the
shear slot.  All operators are assembled with the 2x2 Gauss rule, which is
exact for every product of bilinear shape functions appearing here, so mass,
stiffness, elasticity and the composition coupling are integrated exactly.

Nonlinear terms are evaluated pointwise at the Gauss points through the
interpolation operator ``P`` and paired back with ``P^T diag(w)``; keeping a
single quadrature pipeline is what makes the discrete energy law and the
transpose-mode adjoint exact.

Every form integrated over the cells is a data array on one fixed pattern,
the 9-point nodal pattern of the grid: a cell table of the Gauss-point
products of the cell's 16 node pairs, k components each, summed by one
(n_cells, 4) @ (4, 16 k) product and scattered by ``np.bincount``.  The
scalar forms (mass, stiffness, ``P^T diag(w c) P``) have k = 1, the
elasticity operator k = 4 and the phi -> strain coupling k = 2, both built
from ``_strain_table``, as is ``G``.  Set-up forms no sparse matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .grid import Grid, GridConfigError

VOIGT_W = np.array([1.0, 1.0, 2.0])

_GP1 = 1.0 / np.sqrt(3.0)
# reference nodes and Gauss points, ordered as the cell connectivity
_REF_NODES = np.array([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)])
_REF_GPS = np.array([(-_GP1, -_GP1), (_GP1, -_GP1), (_GP1, _GP1), (-_GP1, _GP1)])


def tensor_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Frobenius product of symmetric tensors in Voigt form (last axis 3)."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + 2.0 * a[..., 2] * b[..., 2]


def tensor_norm2(a: np.ndarray) -> np.ndarray:
    return tensor_dot(a, a)


class ElasticityTensor:
    """Constant symmetric positive-definite fourth-order tensor, Voigt 3x3.

    ``voigt`` maps strain triples to stress triples.  The induced quadratic
    form ``E : C E`` must be symmetric and positive definite; ``c0`` is its
    smallest eigenvalue relative to the Frobenius norm.
    """

    def __init__(self, voigt: np.ndarray):
        voigt = np.asarray(voigt, dtype=float)
        if voigt.shape != (3, 3):
            raise GridConfigError("elasticity tensor must be a 3x3 Voigt matrix")
        form = np.diag(VOIGT_W) @ voigt
        if not np.allclose(form, form.T, rtol=0, atol=1e-12 * max(1.0, abs(form).max())):
            raise GridConfigError("elasticity tensor is not symmetric as a quadratic form")
        form = 0.5 * (form + form.T)
        eigs = scipy.linalg.eigh(form, np.diag(VOIGT_W), eigvals_only=True)
        if eigs.min() <= 0:
            raise GridConfigError(
                f"elasticity tensor is not positive definite (c0 = {eigs.min():.3e})")
        self.voigt = voigt
        self.form = form          # diag(VOIGT_W) @ voigt, symmetric
        self.c0 = float(eigs.min())

    @classmethod
    def isotropic(cls, lam: float, mu: float) -> "ElasticityTensor":
        v = np.array([[lam + 2 * mu, lam, 0.0],
                      [lam, lam + 2 * mu, 0.0],
                      [0.0, 0.0, 2 * mu]])
        return cls(v)

    def apply(self, e: np.ndarray) -> np.ndarray:
        """Stress triples from strain triples, any leading shape."""
        return e @ self.voigt.T


@dataclass(frozen=True)
class Quadrature:
    """Gauss-point evaluation operators and the nodal pattern of one grid.

    P       : (nq, nn)     nodal -> Gauss-point values
    G       : (3 nq, 2 nn) displacement dofs -> strain Voigt triples per point
    PT, GT  : transpose views of P and G, sharing their arrays
    w       : (nq,)        quadrature weights (sum = area)
    indptr, indices : the CSC pattern of every scalar nodal operator
    slots   : (16 n_cells,) position in that pattern of each cell-local entry
              (row node a, column node b) of cell c, at 16 c + 4 a + b;
              the pattern arrays are read-only int32, shared by every
              operator assembled on them
    """
    P: sp.csr_matrix
    G: sp.csr_matrix
    PT: sp.csc_matrix
    GT: sp.csc_matrix
    w: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    slots: np.ndarray

    @property
    def nq(self) -> int:
        return self.w.size

    def integrate(self, values_at_gps: np.ndarray) -> float:
        return float(self.w @ values_at_gps)

    def pair(self, values_at_gps: np.ndarray) -> np.ndarray:
        """Weak pairing (v, zeta) for all nodal test functions zeta."""
        return self.PT @ (self.w * values_at_gps)

    def pair_stress(self, stress_v: np.ndarray) -> np.ndarray:
        """Weak pairing (T, E(eta)) of a symmetric tensor field at the GPs.

        ``stress_v`` has shape (nq, 3); returns a vector over displacement dofs.
        """
        weighted = (stress_v * VOIGT_W) * self.w[:, None]
        return self.GT @ weighted.ravel()

    def strain(self, u: np.ndarray) -> np.ndarray:
        """Strain Voigt triples (nq, 3) of a displacement vector (2 nn,)."""
        return (self.G @ u).reshape(-1, 3)

    def reaction_matrix(self, coeff_at_gps: np.ndarray) -> np.ndarray:
        """Pattern data of P^T diag(w * coeff) P, the weighted zero-order form."""
        return self._assemble(self.w * coeff_at_gps, _MASS_TABLE)

    def pattern_data(self, A: sp.spmatrix) -> np.ndarray:
        """Values of a nodal matrix whose nonzeros lie inside the pattern."""
        A = A.tocoo()
        nn = self.indptr.size - 1
        keys = np.repeat(np.arange(nn), np.diff(self.indptr)) * nn + self.indices
        wanted = A.col.astype(np.int64) * nn + A.row
        pos = np.minimum(np.searchsorted(keys, wanted), keys.size - 1)
        if not np.array_equal(keys[pos], wanted):
            raise ValueError("matrix has entries outside the nodal pattern")
        return np.bincount(pos, A.data, minlength=keys.size)

    def _assemble(self, weights_at_gps: np.ndarray, table: np.ndarray) -> np.ndarray:
        """Pattern data of sum_g weights_g table_g over every cell.

        ``table[g, k (4 a + b) + i]`` is component i of the cell-local entry
        (a, b) contributed by Gauss point g; the cell sums are one
        (n_cells, 4) @ (4, 16 k) product, and component i of pattern entry s
        lands at k s + i.
        """
        k = table.shape[1] // 16
        local = weights_at_gps.reshape(-1, 4) @ table
        bins = self.slots if k == 1 else (self.slots[:, None] * k + np.arange(k)).ravel()
        return np.bincount(bins, local.ravel(), minlength=k * self.indices.size)


def _shape_values():
    xi, eta = _REF_GPS[:, 0][:, None], _REF_GPS[:, 1][:, None]
    xa, ea = _REF_NODES[:, 0][None, :], _REF_NODES[:, 1][None, :]
    N = 0.25 * (1 + xi * xa) * (1 + eta * ea)          # (4 gps, 4 nodes)
    dN_dxi = 0.25 * xa * (1 + eta * ea)
    dN_deta = 0.25 * ea * (1 + xi * xa)
    return N, dN_dxi, dN_deta


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-Gauss-point products a[g, a_] b[g, b_] laid out as (4, 16)."""
    return (a[:, :, None] * b[:, None, :]).reshape(4, 16)


_N_AT_GPS = _shape_values()[0]
_MASS_TABLE = _outer(_N_AT_GPS, _N_AT_GPS)


def _shape_gradients(grid: Grid):
    _, dN_dxi, dN_deta = _shape_values()
    return dN_dxi * (2.0 / grid.hx), dN_deta * (2.0 / grid.hy)


def _strain_table(grid: Grid) -> np.ndarray:
    """(4 gps, 3, 8): the strain Voigt triple of each cell-local displacement
    dof, u_x of node a at 2 a -> [dx, 0, dy/2], u_y at 2 a + 1 -> [0, dy, dx/2]."""
    dN_dx, dN_dy = _shape_gradients(grid)
    B = np.zeros((4, 3, 4, 2))
    B[:, 0, :, 0] = dN_dx
    B[:, 1, :, 1] = dN_dy
    B[:, 2, :, 0] = 0.5 * dN_dy
    B[:, 2, :, 1] = 0.5 * dN_dx
    return B.reshape(4, 3, 8)


# cell-local node offsets (x, y), in the order of ``Grid.cells``
_CORNERS = np.array([(0, 0), (1, 0), (1, 1), (0, 1)])


def _nodal_pattern(grid: Grid):
    """CSC pattern of the node pairs that share a cell, and each cell entry's slot.

    Node (i, j) is numbered i + j (nx + 1), so column s holds its valid
    neighbours (i + di, j + dj) in the row order of the 9 offsets (dj, di).
    """
    nx1, ny1 = grid.nx + 1, grid.ny + 1
    j, i = np.divmod(np.arange(grid.n_nodes), nx1)
    dj, di = np.arange(9) // 3 - 1, np.arange(9) % 3 - 1
    ni, nj = i[:, None] + di, j[:, None] + dj
    valid = (ni >= 0) & (ni < nx1) & (nj >= 0) & (nj < ny1)      # (nn, 9)
    indices = (ni + nj * nx1)[valid].astype(np.int32)
    indptr = np.zeros(grid.n_nodes + 1, dtype=np.int32)
    np.cumsum(valid.sum(axis=1), out=indptr[1:])
    position = np.cumsum(valid, axis=1) - 1 + indptr[:-1, None]   # slot of each offset
    d = _CORNERS[:, None, :] - _CORNERS[None, :, :]              # row node minus column node
    offset = 3 * (d[..., 1] + 1) + d[..., 0] + 1
    slots = position[grid.cells[:, None, :], offset].astype(np.int32).ravel()
    for a in (indptr, indices, slots):
        a.flags.writeable = False
    return indptr, indices, slots


def quadrature(grid: Grid) -> Quadrature:
    nc = grid.n_cells
    cells = grid.cells                                  # (nc, 4)
    nq = 4 * nc
    w = np.full(nq, grid.hx * grid.hy / 4.0)

    rows = (np.arange(nq)[:, None] * np.ones(4, dtype=int)).ravel()
    cols = np.repeat(cells, 4, axis=0)                  # cell c repeated for its 4 gps
    P = sp.coo_matrix((np.tile(_N_AT_GPS, (nc, 1)).ravel(), (rows, cols.ravel())),
                      shape=(nq, grid.n_nodes)).tocsr()

    # strain rows [Exx; Eyy; Exy] per gp from the nonzeros (v, i) of the
    # strain table, displacement dofs interleaved (x, y)
    B = _strain_table(grid)
    v, i = np.nonzero((B != 0).any(axis=0))
    G = sp.coo_matrix((np.tile(B[:, v, i], (nc, 1)).ravel(),
                       ((3 * np.arange(nq)[:, None] + v).ravel(),
                        (2 * cols[:, i // 2] + i % 2).ravel())),
                      shape=(3 * nq, 2 * grid.n_nodes)).tocsr()

    indptr, indices, slots = _nodal_pattern(grid)
    return Quadrature(P=P, G=G, PT=P.T, GT=G.T, w=w,
                      indptr=indptr, indices=indices, slots=slots)


def _nodal_matrix(quad: Quadrature, data: np.ndarray) -> sp.csc_matrix:
    n = quad.indptr.size - 1
    return sp.csc_matrix((data, quad.indices, quad.indptr), shape=(n, n))


def _block_matrix(quad: Quadrature, local: np.ndarray, r: int, c: int) -> sp.csr_matrix:
    """The (r nn, c nn) matrix of r x c node blocks assembled from the cell
    matrices ``local[g, r b + e, c a + d]`` of each Gauss point g, coupling
    component e of cell node b with component d of cell node a.  Read as
    block rows, the pattern puts entry (a, b) in block row b, so slot 4 a + b
    of the cell table holds the block of rows b and columns a."""
    n = quad.indptr.size - 1
    table = local.reshape(4, 4, r, 4, c).transpose(0, 3, 1, 2, 4).reshape(4, 16 * r * c)
    data = quad._assemble(quad.w, table).reshape(-1, r, c)
    return sp.bsr_matrix((data, quad.indices, quad.indptr), shape=(r * n, c * n)).tocsr()


def assemble_mass(grid: Grid, quad: Quadrature) -> sp.csc_matrix:
    return _nodal_matrix(quad, quad._assemble(quad.w, _MASS_TABLE))


def assemble_stiffness(grid: Grid, quad: Quadrature) -> sp.csc_matrix:
    dN_dx, dN_dy = _shape_gradients(grid)
    table = _outer(dN_dx, dN_dx) + _outer(dN_dy, dN_dy)
    return _nodal_matrix(quad, quad._assemble(quad.w, table))


def _edge_lengths(grid: Grid) -> np.ndarray:
    """Length of each boundary edge; sides 0, 1 (left, right) run along y."""
    return np.where(grid.edge_sides <= 1, grid.hy, grid.hx)


def assemble_boundary_mass(grid: Grid) -> sp.csr_matrix:
    """Edge mass matrix of linear traces on the boundary."""
    edges, n = grid.boundary_edges, grid.n_nodes
    lengths = _edge_lengths(grid)
    third = lengths / 3.0
    sixth = lengths / 6.0
    rows = np.concatenate([edges[:, 0], edges[:, 1], edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 0], edges[:, 1], edges[:, 1], edges[:, 0]])
    data = np.concatenate([third, third, sixth, sixth])
    return sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()


def dirichlet_dof_mask(grid: Grid) -> np.ndarray:
    """Boolean mask over the 2*nn displacement dofs that are pinned."""
    mask = np.zeros(2 * grid.n_nodes, dtype=bool)
    mask[2 * grid.dirichlet_nodes] = True
    mask[2 * grid.dirichlet_nodes + 1] = True
    return mask


def assemble_elasticity(grid: Grid, C: ElasticityTensor, quad: Quadrature):
    """Elasticity stiffness (C E(u), E(eta)) over displacement dofs.

    Returns ``(A, free)``: the full (singular) operator and the boolean mask
    of the dofs that are not pinned; eliminating the pinned rows and columns
    symmetrically leaves a positive definite block.
    """
    B = _strain_table(grid)
    local = np.einsum("gvi,vw,gwj->gij", B, C.form, B)
    # symmetric per point, so the assembled operator is exactly symmetric
    local = 0.5 * (local + local.transpose(0, 2, 1))
    return _block_matrix(quad, local, 2, 2), ~dirichlet_dof_mask(grid)


def assemble_coupling_phi_to_strain(grid: Grid, misfit_stress: np.ndarray,
                                    quad: Quadrature) -> sp.csr_matrix:
    """Rectangular operator B with (B phi)_eta = (phi C E*, E(eta)), where
    ``misfit_stress`` is C E* in Voigt form.

    Its transpose realises the pairing (C E* : E(v), zeta) used by the
    composition equation.
    """
    stress = VOIGT_W * np.asarray(misfit_stress, dtype=float)
    local = (stress @ _strain_table(grid))[:, :, None] * _N_AT_GPS[:, None, :]
    return _block_matrix(quad, local, 2, 1)


def neumann_load(grid: Grid, traction: np.ndarray) -> np.ndarray:
    """Nodal load vector of a constant traction on the Neumann part: each
    node carries half the length of each Neumann edge it touches."""
    keep = ~grid.edge_is_dirichlet
    half = np.repeat(0.5 * _edge_lengths(grid)[keep], 2)
    s = np.bincount(grid.boundary_edges[keep].ravel(), half, minlength=grid.n_nodes)
    return np.outer(s, traction).ravel()
