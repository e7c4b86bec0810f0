import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from tumoropt import fem
from tumoropt.config import default_config
from tumoropt.grid import GridConfigError, build_grid, nested_dissection
from tumoropt.state import SPLU_OPTIONS

from conftest import coefficients_at, make_system, tumour_ic
from oracles import dense_boundary_mass, dense_mass_stiffness


def test_grid_counts_1x1():
    g = build_grid(1, 1, 1.0, 1.0, "left")
    assert g.n_nodes == 4
    assert g.n_cells == 1
    assert g.edge_is_dirichlet.sum() == 1
    assert (~g.edge_is_dirichlet).sum() == 3


def test_grid_counts_2x2():
    g = build_grid(2, 2, 1.0, 1.0, "left")
    assert g.n_nodes == 9
    assert g.n_cells == 4
    assert g.n_boundary_nodes == 8


def test_grid_anisotropic_cells():
    g = build_grid(3, 2, 3.0, 2.0, "left")
    assert g.n_nodes == 12
    q = fem.quadrature(g)
    areas = q.w.reshape(g.n_cells, 4).sum(axis=1)
    assert np.allclose(areas, 1.0)


def test_empty_dirichlet_rejected():
    with pytest.raises(GridConfigError):
        build_grid(4, 4, 1.0, 1.0, "")


def test_partition_covers_boundary():
    g = build_grid(4, 3, 1.0, 1.0, "left,top")
    n_d = g.edge_is_dirichlet.sum()
    assert n_d == 3 + 4
    assert n_d + (~g.edge_is_dirichlet).sum() == len(g.boundary_edges)


def test_mass_partition_of_unity():
    g = build_grid(5, 4, 2.0, 1.5, "left")
    M = fem.assemble_mass(g, fem.quadrature(g))
    assert abs(M.sum() - 2.0 * 1.5) < 1e-13


def test_stiffness_annihilates_constants():
    g = build_grid(5, 4, 2.0, 1.5, "left")
    K = fem.assemble_stiffness(g, fem.quadrature(g))
    assert np.abs(K @ np.ones(g.n_nodes)).max() < 1e-13


def test_stiffness_unit_cell_diagonal():
    # hand integration of bilinear shapes on the unit square gives 2/3
    g = build_grid(1, 1, 1.0, 1.0, "left")
    K = fem.assemble_stiffness(g, fem.quadrature(g))
    assert np.allclose(K.diagonal(), 2.0 / 3.0)


def test_boundary_mass_perimeter():
    g = build_grid(4, 3, 2.0, 1.0, "left")
    Mb = fem.assemble_boundary_mass(g, "gamma")
    assert abs(Mb.sum() - 2 * (2.0 + 1.0)) < 1e-13


def test_boundary_mass_interior_rows_zero():
    g = build_grid(4, 4, 1.0, 1.0, "left")
    Mb = fem.assemble_boundary_mass(g, "gamma").toarray()
    interior = np.ones(g.n_nodes, dtype=bool)
    interior[g.boundary_nodes] = False
    assert np.abs(Mb[interior]).max() == 0.0
    assert np.abs(Mb[:, interior]).max() == 0.0


def test_boundary_mass_corner_value():
    # two unit edges meet at each corner of the unit cell: 2 * (1/3)
    g = build_grid(1, 1, 1.0, 1.0, "left")
    Mb = fem.assemble_boundary_mass(g, "gamma")
    assert np.allclose(Mb.diagonal(), 2.0 / 3.0)


def test_boundary_mass_matches_dense_oracle():
    g = build_grid(3, 4, 1.3, 0.9, "left,bottom")
    Mb = fem.assemble_boundary_mass(g, "gamma").toarray()
    assert np.abs(Mb - dense_boundary_mass(g)).max() < 1e-13


def test_mass_stiffness_match_dense_oracle():
    g = build_grid(3, 3, 1.1, 0.8, "left")
    q = fem.quadrature(g)
    M = fem.assemble_mass(g, q).toarray()
    K = fem.assemble_stiffness(g, q).toarray()
    Md, Kd = dense_mass_stiffness(g)
    assert np.abs(M - Md).max() < 1e-13
    assert np.abs(K - Kd).max() < 1e-12


def test_assembled_operators_symmetric(rng):
    g = build_grid(4, 4, 1.0, 1.0, "left")
    C = fem.ElasticityTensor.isotropic(1.0, 1.0)
    q = fem.quadrature(g)
    ops = [fem.assemble_mass(g, q), fem.assemble_stiffness(g, q),
           fem.assemble_boundary_mass(g, "gamma"), fem.assemble_elasticity(g, C, q)[0]]
    for A in ops:
        n = A.shape[0]
        norm = spla.norm(A)
        for _ in range(5):
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
            gap = abs(x @ (A @ y) - y @ (A @ x))
            assert gap <= 1e-12 * norm * np.linalg.norm(x) * np.linalg.norm(y)


def test_elasticity_rigid_translation_zero():
    g = build_grid(3, 3, 1.0, 1.0, "left")
    C = fem.ElasticityTensor.isotropic(1.0, 1.0)
    A, _ = fem.assemble_elasticity(g, C, fem.quadrature(g))
    for t in (np.tile([1.0, 0.0], g.n_nodes), np.tile([0.0, 1.0], g.n_nodes)):
        assert np.abs(A @ t).max() < 1e-12


def test_elasticity_shear_only_constant_zero():
    g = build_grid(3, 3, 1.0, 1.0, "left")
    C = fem.ElasticityTensor.isotropic(0.0, 0.5)
    A, _ = fem.assemble_elasticity(g, C, fem.quadrature(g))
    t = np.tile([0.3, -0.7], g.n_nodes)
    assert np.abs(A @ t).max() < 1e-12


def test_discrete_korn_positive_spectrum():
    g = build_grid(4, 4, 1.0, 1.0, "left")
    C = fem.ElasticityTensor.isotropic(1.0, 1.0)
    A, free = fem.assemble_elasticity(g, C, fem.quadrature(g))
    eigs = np.linalg.eigvalsh(A[free][:, free].toarray())
    assert eigs.min() > 0


def test_elasticity_rejects_indefinite_tensor():
    bad = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(GridConfigError):
        fem.ElasticityTensor(bad)


def test_coupling_zero_cases():
    g = build_grid(3, 3, 1.0, 1.0, "left")
    C = fem.ElasticityTensor.isotropic(1.0, 1.0)
    q = fem.quadrature(g)
    B = fem.assemble_coupling_phi_to_strain(g, C, np.array([0.05, 0.05, 0.0]), q)
    assert np.abs(B @ np.zeros(g.n_nodes)).max() == 0.0
    B0 = fem.assemble_coupling_phi_to_strain(g, C, np.zeros(3), q)
    assert B0.nnz == 0 or np.abs(B0.data).max() == 0.0


def test_coupling_transpose_consistency(rng):
    g = build_grid(4, 3, 1.0, 1.0, "left")
    C = fem.ElasticityTensor.isotropic(1.2, 0.7)
    B = fem.assemble_coupling_phi_to_strain(g, C, np.array([0.04, 0.02, 0.01]),
                                            fem.quadrature(g))
    for _ in range(5):
        phi = rng.standard_normal(g.n_nodes)
        v = rng.standard_normal(2 * g.n_nodes)
        assert abs(v @ (B @ phi) - phi @ (B.T @ v)) < 1e-12


def test_stiffness_energy_second_order_refinement():
    exact = np.pi ** 2 / 2.0  # energy of sin(pi x) cos(pi y) on the unit square

    def energy(n):
        g = build_grid(n, n, 1.0, 1.0, "left")
        f = np.sin(np.pi * g.nodes[:, 0]) * np.cos(np.pi * g.nodes[:, 1])
        K = fem.assemble_stiffness(g, fem.quadrature(g))
        return f @ (K @ f)

    errs = [abs(energy(n) - exact) for n in (8, 16, 32)]
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    assert all(3.0 < r < 5.0 for r in ratios)


# -- nested-dissection order ------------------------------------------------------

@pytest.mark.parametrize("nx,ny", [(5, 3), (4, 4), (1, 1), (1, 7), (9, 1), (32, 32)])
def test_nested_dissection_is_a_permutation(nx, ny):
    g = build_grid(nx, ny)
    order = nested_dissection(g)
    assert np.array_equal(np.sort(order), np.arange(g.n_nodes))


def test_nested_dissection_orders_the_separator_last():
    # 5 x 5 nodes: the middle column i = 2 splits the block, the middle row
    # j = 2 each half; no node of a half couples with the other half
    g = build_grid(4, 4)
    order = nested_dissection(g)
    nx1 = g.nx + 1
    assert np.array_equal(order[-5:], 2 + nx1 * np.arange(5))
    left, right = order[:10], order[10:20]
    assert np.array_equal(order[8:10], [2 * nx1, 1 + 2 * nx1])
    assert np.all(left % nx1 < 2) and np.all(right % nx1 > 2)


# -- fixed-pattern assembly against the sparse-product formulas ---------------

def _gauss_gradients(g):
    """Nodal -> [d/dx; d/dy] per Gauss point, rows interleaved per point."""
    _, dN_dxi, dN_deta = fem._shape_values()
    gx = np.tile(dN_dxi * (2.0 / g.hx), (g.n_cells, 1)).ravel()
    gy = np.tile(dN_deta * (2.0 / g.hy), (g.n_cells, 1)).ravel()
    rows = np.repeat(2 * np.arange(4 * g.n_cells), 4)
    cols = np.repeat(g.cells, 4, axis=0).ravel()
    return sp.coo_matrix((np.concatenate([gx, gy]),
                          (np.concatenate([rows, rows + 1]), np.concatenate([cols, cols]))),
                         shape=(8 * g.n_cells, g.n_nodes)).tocsr()


def _form(quad, coeff):
    return quad.P.T @ sp.diags(quad.w * coeff) @ quad.P


def _rel(A, B):
    return abs(A - B).max() / abs(B).max()


@pytest.mark.parametrize("beta", [1.0, 0.0])
def test_pattern_assembly_matches_sparse_products(rng, beta):
    sysd = make_system(5, 3, Lx=1.3, Ly=0.7, dirichlet="left,top", beta=beta)
    g, quad, nl, p = sysd.grid, sysd.quad, sysd.nl, sysd.params
    M_ref = _form(quad, np.ones(quad.nq))
    Gs = _gauss_gradients(g)
    K_ref = Gs.T @ sp.diags(np.repeat(quad.w, 2)) @ Gs
    assert _rel(sysd.M, M_ref) <= 1e-14 and _rel(sysd.K, K_ref) <= 1e-14
    assert (sysd.M != sysd.M.T).nnz == 0 and (sysd.K != sysd.K.T).nnz == 0

    n = g.n_nodes
    coeff = rng.standard_normal(quad.nq)
    R = sp.csc_matrix((quad.reaction_matrix(coeff), quad.indices, quad.indptr),
                      shape=(n, n))
    assert _rel(R, _form(quad, coeff)) <= 1e-14

    phi = tumour_ic(g, cx=0.6, cy=0.3, radius=0.25)
    tau = 0.01
    coef = coefficients_at(sysd, phi)
    A_ref = K_ref + p.kappa * sysd.Mb + _form(quad, -coef.nutrient_dsigma)
    if beta > 0:
        A_ref = A_ref + (beta / tau) * M_ref
    # the factored operators are numbered by the system's nested-dissection orders
    o, q = sysd.node_order, sysd.ch_order
    assert _rel(sysd.nutrient_operator(coef, tau), A_ref[o][:, o]) <= 1e-14

    S_ref = _form(quad, nl.psi1_second(quad.P @ phi))
    J_ref = sp.bmat([[M_ref / tau, K_ref], [-(K_ref + S_ref), M_ref]], format="csc")[q][:, q]
    J = sysd.ch_jacobian(phi, tau)
    assert _rel(J, J_ref) <= 1e-14

    fills = [lu.L.nnz + lu.U.nnz for lu in (spla.splu(J, **SPLU_OPTIONS["ch"]),
                                             spla.splu(J_ref, **SPLU_OPTIONS["ch"]))]
    assert fills[0] == fills[1]

    # elasticity and the phi -> strain coupling, from the strain operator G
    A, _ = fem.assemble_elasticity(g, p.C, quad)
    A_ref = quad.G.T @ sp.kron(sp.diags(quad.w), p.C.form) @ quad.G
    assert _rel(A, A_ref) <= 1e-14 and (A != A.T).nnz == 0
    stress = sp.csr_matrix((p.C.form @ p.misfit_strain).reshape(3, 1))
    Bc_ref = quad.G.T @ sp.kron(sp.diags(quad.w), stress) @ quad.P
    assert _rel(sysd.Bc, Bc_ref) <= 1e-14


def test_system_setup_forms_no_sparse_product(monkeypatch):
    from scipy.sparse._compressed import _cs_matrix

    calls = []
    matmul = _cs_matrix._matmul_sparse
    monkeypatch.setattr(_cs_matrix, "_matmul_sparse",
                        lambda self, other: calls.append(1) or matmul(self, other))
    default_config(grid__nx=6, grid__ny=6).build_system()
    assert calls == []
