"""Independent dense reference implementations for oracle comparisons.

Everything here is written with explicit loops over cells, Gauss points and
edges, dense matrices and fixed-point iteration, deliberately avoiding the
production assembly and solver paths.
"""

import numpy as np

import tumoropt.constitutive as con

GP1 = 1.0 / np.sqrt(3.0)
REF_GPS = [(-GP1, -GP1), (GP1, -GP1), (GP1, GP1), (-GP1, GP1)]
REF_NODES = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]


def shape_values(xi, eta):
    return np.array([0.25 * (1 + xi * xa) * (1 + eta * ea)
                     for xa, ea in REF_NODES])


def shape_grads(xi, eta, hx, hy):
    out = np.zeros((4, 2))
    for a, (xa, ea) in enumerate(REF_NODES):
        out[a, 0] = 0.25 * xa * (1 + ea * eta) * (2.0 / hx)
        out[a, 1] = 0.25 * ea * (1 + xa * xi) * (2.0 / hy)
    return out


def gauss_points(grid):
    """(cell, node_ids, weight, shape values, shape grads, xy) per GP."""
    pts = []
    hx, hy = grid.hx, grid.hy
    for c in range(grid.n_cells):
        nodes = grid.cells[c]
        x0, y0 = grid.nodes[nodes[0]]
        for xi, eta in REF_GPS:
            N = shape_values(xi, eta)
            dN = shape_grads(xi, eta, hx, hy)
            xy = (x0 + 0.5 * (1 + xi) * hx, y0 + 0.5 * (1 + eta) * hy)
            pts.append((nodes, hx * hy / 4.0, N, dN, xy))
    return pts


def dense_mass_stiffness(grid):
    nn = grid.n_nodes
    M = np.zeros((nn, nn))
    K = np.zeros((nn, nn))
    for nodes, w, N, dN, _ in gauss_points(grid):
        for a in range(4):
            for b in range(4):
                M[nodes[a], nodes[b]] += w * N[a] * N[b]
                K[nodes[a], nodes[b]] += w * (dN[a] @ dN[b])
    return M, K


def dense_boundary_mass(grid):
    nn = grid.n_nodes
    Mb = np.zeros((nn, nn))
    for (n1, n2), side in zip(grid.boundary_edges, grid.edge_sides):
        h = grid.hy if side <= 1 else grid.hx
        # 2-point Gauss on the edge, linear traces
        for s in (-GP1, GP1):
            l1, l2 = 0.5 * (1 - s), 0.5 * (1 + s)
            w = h / 2.0
            for (i, li) in ((n1, l1), (n2, l2)):
                for (j, lj) in ((n1, l1), (n2, l2)):
                    Mb[i, j] += w * li * lj
    return Mb


def voigt_form(C):
    return np.diag([1.0, 1.0, 2.0]) @ C.voigt


def strain_at(dN, u_cell):
    """Strain Voigt triple from the 8 element displacement dofs."""
    exx = sum(dN[a, 0] * u_cell[2 * a] for a in range(4))
    eyy = sum(dN[a, 1] * u_cell[2 * a + 1] for a in range(4))
    exy = 0.5 * sum(dN[a, 1] * u_cell[2 * a] + dN[a, 0] * u_cell[2 * a + 1]
                    for a in range(4))
    return np.array([exx, eyy, exy])


def dense_elasticity(grid, C):
    nn = grid.n_nodes
    A = np.zeros((2 * nn, 2 * nn))
    Q = voigt_form(C)
    for nodes, w, _, dN, _ in gauss_points(grid):
        B = np.zeros((3, 8))
        for a in range(4):
            B[0, 2 * a] = dN[a, 0]
            B[1, 2 * a + 1] = dN[a, 1]
            B[2, 2 * a] = 0.5 * dN[a, 1]
            B[2, 2 * a + 1] = 0.5 * dN[a, 0]
        Ae = w * B.T @ Q @ B
        dofs = np.empty(8, dtype=int)
        dofs[0::2] = 2 * nodes
        dofs[1::2] = 2 * nodes + 1
        A[np.ix_(dofs, dofs)] += Ae
    return A


def dense_solve_elasticity(grid, params, phi):
    """Displacement from composition via dense assembly and a dense solve."""
    nn = grid.n_nodes
    A = dense_elasticity(grid, params.C)
    rhs = np.zeros(2 * nn)
    Q = voigt_form(params.C)
    for nodes, w, N, dN, _ in gauss_points(grid):
        phi_gp = sum(N[a] * phi[nodes[a]] for a in range(4))
        target = Q @ (params.bar_strain + phi_gp * params.misfit_strain)
        for a in range(4):
            rhs[2 * nodes[a]] += w * (target[0] * dN[a, 0]
                                      + target[2] * 0.5 * dN[a, 1])
            rhs[2 * nodes[a] + 1] += w * (target[1] * dN[a, 1]
                                          + target[2] * 0.5 * dN[a, 0])
    fixed = np.zeros(2 * nn, dtype=bool)
    fixed[2 * grid.dirichlet_nodes] = True
    fixed[2 * grid.dirichlet_nodes + 1] = True
    free = ~fixed
    u = np.zeros(2 * nn)
    u[free] = np.linalg.solve(A[np.ix_(free, free)], rhs[free])
    return u


def pair_gp(grid, values_fn):
    """Nodal vector of (f, zeta) where f is evaluated per Gauss point."""
    out = np.zeros(grid.n_nodes)
    for nodes, w, N, dN, xy in gauss_points(grid):
        val = values_fn(nodes, N, dN, xy)
        for a in range(4):
            out[nodes[a]] += w * N[a] * val
    return out


def interp(nodal, nodes, N):
    return sum(N[a] * nodal[nodes[a]] for a in range(4))


def dense_nutrient_step(grid, params, nl, sigma_prev, phi_prev, w1_bvals, w3, tau):
    """One implicit nutrient step via dense assembly and numpy solve."""
    nn = grid.n_nodes
    M, K = dense_mass_stiffness(grid)
    Mb = dense_boundary_mass(grid)
    R = np.zeros((nn, nn))
    for nodes, w, N, dN, xy in gauss_points(grid):
        c = params.lambda_c * con.smoothstep(interp(phi_prev, nodes, N)) + params.B
        for a in range(4):
            for b in range(4):
                R[nodes[a], nodes[b]] += w * N[a] * c * N[b]
    A = K + params.kappa * Mb + R
    if params.beta > 0:
        A = A + (params.beta / tau) * M
    w1_full = np.zeros(nn)
    w1_full[grid.boundary_nodes] = w1_bvals
    rhs = params.kappa * (Mb @ w1_full)
    rhs += pair_gp(grid, lambda nodes, N, dN, xy:
                   con.smoothstep(interp(phi_prev, nodes, N)) * w3
                   + params.B * params.sigma_c)
    if params.beta > 0:
        rhs += (params.beta / tau) * (M @ sigma_prev)
    return np.linalg.solve(A, rhs)


def dense_ch_step(grid, params, nl, phi_prev, u_prev, sigma_new, w2, tau,
                  tol=1e-14, max_iter=400):
    """One composition step solved by Picard fixed-point on the convex part."""
    nn = grid.n_nodes
    M, K = dense_mass_stiffness(grid)

    def stress_gp(nodes, N, dN):
        phi_gp = interp(phi_prev, nodes, N)
        u_cell = np.empty(8)
        u_cell[0::2] = u_prev[2 * nodes]
        u_cell[1::2] = u_prev[2 * nodes + 1]
        e = strain_at(dN, u_cell)
        return params.C.voigt @ (e - params.bar_strain
                                 - phi_gp * params.misfit_strain)

    def U_val(nodes, N, dN, xy):
        phi_gp = interp(phi_prev, nodes, N)
        sig_gp = interp(sigma_new, nodes, N)
        s = stress_gp(nodes, N, dN)
        gw = con.g_stress(s)
        return (params.lambda_p * sig_gp * con.smoothstep(phi_gp) * gw
                - (params.lambda_a + w2) * con.smoothstep(phi_gp))

    def wphi_val(nodes, N, dN, xy):
        s = stress_gp(nodes, N, dN)
        return -(s[0] * params.misfit_strain[0] + s[1] * params.misfit_strain[1]
                 + 2 * s[2] * params.misfit_strain[2])

    FU = pair_gp(grid, U_val)
    lagged = (pair_gp(grid, lambda nodes, N, dN, xy:
                      nl.psi2_prime(interp(phi_prev, nodes, N)))
              + pair_gp(grid, wphi_val)
              - params.chi * (M @ sigma_new))

    A = np.block([[M / tau, K], [-K, M]])
    phi = phi_prev.copy()
    for _ in range(max_iter):
        rhs = np.concatenate([
            M @ phi_prev / tau + FU,
            pair_gp(grid, lambda nodes, N, dN, xy:
                    nl.psi1_prime(interp(phi, nodes, N))) + lagged])
        sol = np.linalg.solve(A, rhs)
        phi_new, mu = sol[:nn], sol[nn:]
        if np.abs(phi_new - phi).max() <= tol:
            return phi_new, mu
        phi = phi_new
    raise RuntimeError("dense fixed-point oracle did not converge")


def dense_linearised_step(grid, params, nl, prev_state, cur_state, w2, w3,
                          xi_prev, psi_prev, h1_col, h2, h3, tau):
    """One linearised step via a dense monolithic block solve.

    Unknowns (psi_new, xi_new, eta); the displacement direction of the
    previous level is produced by the dense elasticity path.
    """
    nn = grid.n_nodes
    M, K = dense_mass_stiffness(grid)
    Mb = dense_boundary_mass(grid)
    phi_prev, u_prev = prev_state.phi, prev_state.u
    sigma_new = cur_state.sigma

    # previous-level displacement direction from the dense elasticity path
    v_prev = dense_solve_elasticity(
        grid, con.ModelParams(beta=params.beta, B=params.B, kappa=params.kappa,
                              chi=params.chi, lambda_p=params.lambda_p,
                              lambda_a=params.lambda_a, lambda_c=params.lambda_c,
                              sigma_c=params.sigma_c, C=params.C,
                              bar_strain=np.zeros(3),
                              misfit_strain=params.misfit_strain,
                              g_load=np.zeros(2),
                              supply_bound=params.supply_bound), xi_prev)

    def gp_fields(nodes, N, dN):
        phi_gp = interp(phi_prev, nodes, N)
        u_cell = np.empty(8)
        u_cell[0::2] = u_prev[2 * nodes]
        u_cell[1::2] = u_prev[2 * nodes + 1]
        v_cell = np.empty(8)
        v_cell[0::2] = v_prev[2 * nodes]
        v_cell[1::2] = v_prev[2 * nodes + 1]
        stress = params.C.voigt @ (strain_at(dN, u_cell) - params.bar_strain
                                   - phi_gp * params.misfit_strain)
        xi_gp = interp(xi_prev, nodes, N)
        dstress = params.C.voigt @ (strain_at(dN, v_cell)
                                    - xi_gp * params.misfit_strain)
        return phi_gp, xi_gp, stress, dstress

    def tdot(a, b):
        return a[0] * b[0] + a[1] * b[1] + 2 * a[2] * b[2]

    # nutrient block and rhs
    R = np.zeros((nn, nn))
    for nodes, w, N, dN, xy in gauss_points(grid):
        c = params.lambda_c * con.smoothstep(interp(phi_prev, nodes, N)) + params.B
        for a in range(4):
            for b in range(4):
                R[nodes[a], nodes[b]] += w * N[a] * c * N[b]
    A_sig = K + params.kappa * Mb + R
    if params.beta > 0:
        A_sig = A_sig + (params.beta / tau) * M
    h1_full = np.zeros(nn)
    h1_full[grid.boundary_nodes] = h1_col
    b_psi = params.kappa * (Mb @ h1_full)
    b_psi += pair_gp(grid, lambda nodes, N, dN, xy:
                     -con.smoothstep_prime(interp(phi_prev, nodes, N))
                     * (params.lambda_c * interp(sigma_new, nodes, N) - w3)
                     * interp(xi_prev, nodes, N)
                     + con.smoothstep(interp(phi_prev, nodes, N)) * h3)
    if params.beta > 0:
        b_psi += (params.beta / tau) * (M @ psi_prev)

    # composition rows
    S = np.zeros((nn, nn))
    Lam = np.zeros((nn, nn))
    for nodes, w, N, dN, xy in gauss_points(grid):
        psi1dd = nl.psi1_second(interp(cur_state.phi, nodes, N))
        phi_gp, xi_gp, stress, dstress = gp_fields(nodes, N, dN)
        coupling = params.lambda_p * con.smoothstep(phi_gp) * con.g_stress(stress)
        for a in range(4):
            for b in range(4):
                S[nodes[a], nodes[b]] += w * N[a] * psi1dd * N[b]
                Lam[nodes[a], nodes[b]] += w * N[a] * coupling * N[b]

    def dU_rest(nodes, N, dN, xy):
        # xi- and strain-driven parts of the source derivative (psi handled
        # by the monolithic coupling block)
        phi_gp, xi_gp, stress, dstress = gp_fields(nodes, N, dN)
        gw = con.g_stress(stress)
        gg = con.g_stress_grad(stress)
        sig_gp = interp(sigma_new, nodes, N)
        return (params.lambda_p * sig_gp * (con.smoothstep_prime(phi_gp) * gw * xi_gp
                                            + con.smoothstep(phi_gp) * tdot(gg, dstress))
                - (params.lambda_a + w2) * con.smoothstep_prime(phi_gp) * xi_gp
                - h2 * con.smoothstep(phi_gp))

    b_xi = M @ xi_prev / tau + pair_gp(grid, dU_rest)
    b_eta = pair_gp(grid, lambda nodes, N, dN, xy:
                    nl.psi2_second(interp(phi_prev, nodes, N))
                    * interp(xi_prev, nodes, N)
                    - tdot(gp_fields(nodes, N, dN)[3], params.misfit_strain))

    Z = np.zeros((nn, nn))
    A = np.block([[A_sig, Z, Z],
                  [-Lam, M / tau, K],
                  [params.chi * M, -(K + S), M]])
    sol = np.linalg.solve(A, np.concatenate([b_psi, b_xi, b_eta]))
    return sol[:nn], sol[nn:2 * nn], sol[2 * nn:]
