"""Production steps vs independent dense reference solves on a 4x4 grid."""

import numpy as np

from tumoropt.linearized import solve_linearised
from tumoropt.state import ControlTriple

from conftest import coefficients_at, interior_controls, make_system, tumour_ic
from oracles import (dense_ch_step, dense_linearised_step, dense_nutrient_step,
                     dense_solve_elasticity)


def _setup():
    sysd = make_system(4, 4, chi=0.1)
    grid = sysd.grid
    phi0 = tumour_ic(grid)
    sig0 = np.full(grid.n_nodes, 1.0)
    return sysd, grid, phi0, sig0


def test_elasticity_matches_dense_oracle():
    sysd, grid, phi0, _ = _setup()
    u = sysd.solve_elasticity(phi0)
    u_ref = dense_solve_elasticity(grid, sysd.params, phi0)
    assert np.abs(u - u_ref).max() < 1e-10


def test_nutrient_step_matches_dense_oracle(rng):
    sysd, grid, phi0, sig0 = _setup()
    w1 = rng.uniform(0.2, 0.9, size=grid.n_boundary_nodes)
    sig = sysd.step_nutrient(sig0, coefficients_at(sysd, phi0), w1, 0.3,
                             sysd.step_factors(0.05))
    sig_ref = dense_nutrient_step(grid, sysd.params, sysd.nl, sig0, phi0,
                                  w1, 0.3, 0.05)
    assert np.abs(sig - sig_ref).max() < 1e-8


def test_nutrient_step_beta_zero_matches_dense_oracle(rng):
    sysd = make_system(4, 4, beta=0.0, B=0.5, kappa=1.0)
    grid = sysd.grid
    phi0 = tumour_ic(grid)
    w1 = rng.uniform(0.2, 0.9, size=grid.n_boundary_nodes)
    sig = sysd.step_nutrient(np.zeros(grid.n_nodes), coefficients_at(sysd, phi0),
                            w1, 0.2, sysd.step_factors(0.05))
    sig_ref = dense_nutrient_step(grid, sysd.params, sysd.nl,
                                  np.zeros(grid.n_nodes), phi0, w1, 0.2, 0.05)
    assert np.abs(sig - sig_ref).max() < 1e-8


def test_ch_step_matches_dense_fixed_point_oracle(rng):
    sysd, grid, phi0, sig0 = _setup()
    tau = 0.05
    u0 = sysd.solve_elasticity(phi0)
    w1 = np.full(grid.n_boundary_nodes, 0.8)
    coef = coefficients_at(sysd, phi0)
    factors = sysd.step_factors(tau)
    sigma_new = sysd.step_nutrient(sig0, coef, w1, 0.2, factors)
    phi1, mu1 = sysd.step_cahn_hilliard(phi0, coef, sigma_new, 0.25, factors)
    phi_ref, mu_ref = dense_ch_step(grid, sysd.params, sysd.nl, phi0, u0,
                                    sigma_new, 0.25, tau)
    assert np.abs(phi1 - phi_ref).max() < 1e-8
    assert np.abs(mu1 - mu_ref).max() < 1e-8


def test_linearised_step_matches_dense_monolithic_oracle(rng):
    sysd, grid, phi0, sig0 = _setup()
    N, T = 2, 0.1
    w = interior_controls(sysd, N)
    traj = sysd.solve_state(w, phi0, sig0, T, N)
    nb = grid.n_boundary_nodes
    h = ControlTriple(rng.standard_normal((nb, N)), rng.standard_normal(N),
                      rng.standard_normal(N))
    lin = solve_linearised(sysd, traj, w, h)

    # replay the second step with the dense monolithic assembly, starting
    # from the production first-level direction
    tau = T / N
    psi_ref, xi_ref, eta_ref = dense_linearised_step(
        grid, sysd.params, sysd.nl, traj.snapshot(1), traj.snapshot(2),
        float(w.w2[1]), float(w.w3[1]), lin[1].xi, lin[1].psi,
        h.w1[:, 1], float(h.w2[1]), float(h.w3[1]), tau)
    assert np.abs(lin[2].psi - psi_ref).max() < 1e-8
    assert np.abs(lin[2].xi - xi_ref).max() < 1e-8
    assert np.abs(lin[2].eta - eta_ref).max() < 1e-8
