from pathlib import Path

import numpy as np
import pytest

from tumoropt.config import default_config, load_config
from tumoropt.state import ControlBounds, PreconditionError, TimestepError

from conftest import coefficients_at, interior_controls, make_system, tumour_ic

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


# -- elasticity -----------------------------------------------------------------

def test_elasticity_zero_data_zero_solution(small_system):
    u = small_system.solve_elasticity(np.zeros(small_system.grid.n_nodes))
    assert np.abs(u).max() == 0.0


def test_elasticity_affine_superposition(small_system, rng):
    nn = small_system.grid.n_nodes
    p1 = rng.standard_normal(nn)
    p2 = rng.standard_normal(nn)
    lhs = (small_system.solve_elasticity(p1 + p2)
           + small_system.solve_elasticity(np.zeros(nn)))
    rhs = small_system.solve_elasticity(p1) + small_system.solve_elasticity(p2)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_elasticity_residual_tolerance(small_system, rng):
    phi = rng.standard_normal(small_system.grid.n_nodes)
    u = small_system.solve_elasticity(phi)
    rhs = (small_system.Bc @ phi + small_system.load_const)[small_system.free]
    res = np.linalg.norm(small_system.A_red @ u[small_system.free] - rhs)
    assert res <= 1e-10 * max(1.0, np.linalg.norm(rhs))


def test_elasticity_dirichlet_rows_pinned(small_system, rng):
    phi = rng.standard_normal(small_system.grid.n_nodes)
    u = small_system.solve_elasticity(phi)
    fixed = ~small_system.free
    assert np.abs(u[fixed]).max() == 0.0


def test_elasticity_traction_load_enters():
    sys_g = make_system(6, 6, g_load=np.array([0.01, 0.0]))
    u = sys_g.solve_elasticity(np.zeros(sys_g.grid.n_nodes))
    assert np.abs(u).max() > 0.0


# -- composition step -------------------------------------------------------------

def test_ch_step_constant_equilibrium():
    sysd = make_system(5, 5, lambda_p=0.0, lambda_a=0.0, chi=0.0,
                       misfit_strain=np.zeros(3))
    nn = sysd.grid.n_nodes
    phi0 = np.full(nn, 0.4)
    sigma = np.full(nn, 0.9)
    phi1, mu1 = sysd.step_cahn_hilliard(phi0, coefficients_at(sysd, phi0), sigma,
                                        0.0, 0.05)
    assert np.abs(phi1 - 0.4).max() < 1e-13


def test_ch_step_mass_conserved_without_sources():
    sysd = make_system(6, 6, lambda_p=0.0, lambda_a=0.0)
    grid = sysd.grid
    phi0 = tumour_ic(grid)
    sigma = np.full(grid.n_nodes, 1.0)
    phi1, _ = sysd.step_cahn_hilliard(phi0, coefficients_at(sysd, phi0), sigma,
                                      0.0, 0.02)
    m0 = sysd.integrate_nodal(phi0)
    m1 = sysd.integrate_nodal(phi1)
    assert abs(m1 - m0) <= 1e-10 * max(1.0, abs(m0))


def test_ch_step_newton_divergence_reported():
    sysd = make_system(4, 4, well_scale=50.0)
    sysd.newton_max_iter = 2
    grid = sysd.grid
    phi0 = tumour_ic(grid, width=0.08)
    with pytest.raises(TimestepError):
        sysd.step_cahn_hilliard(phi0, coefficients_at(sysd, phi0),
                                np.ones(grid.n_nodes), 0.0, 50.0)


# -- nutrient step ------------------------------------------------------------------

def test_nutrient_elliptic_constant_solution():
    # beta = 0, no consumption, Robin data at the capillary level
    sysd = make_system(6, 5, beta=0.0, B=0.0, kappa=2.0, lambda_c=0.0)
    grid = sysd.grid
    phi = tumour_ic(grid)
    w1 = np.full(grid.n_boundary_nodes, sysd.params.sigma_c)
    sig = sysd.step_nutrient(np.zeros(grid.n_nodes), coefficients_at(sysd, phi),
                             w1, 0.0, 0.1)
    assert np.abs(sig - sysd.params.sigma_c).max() < 1e-11


def test_nutrient_parabolic_equilibrium_preserved():
    sysd = make_system(6, 6, beta=1.0, B=0.4, kappa=1.0, lambda_c=0.0)
    grid = sysd.grid
    phi = tumour_ic(grid)
    sig = np.full(grid.n_nodes, sysd.params.sigma_c)
    w1 = np.full(grid.n_boundary_nodes, sysd.params.sigma_c)
    coef = coefficients_at(sysd, phi)
    for _ in range(3):
        sig = sysd.step_nutrient(sig, coef, w1, 0.0, 0.05)
    assert np.abs(sig - sysd.params.sigma_c).max() < 1e-11


@pytest.mark.parametrize("source", ["default", "optimize_sparse.cfg"])
def test_spd_operators_symmetric_positive_definite(source):
    # the "spd" factorization policy pivots on the diagonal without row exchanges
    cfg = default_config() if source == "default" else load_config(CONFIG_DIR / source)
    sysd = cfg.build_system()
    phi0, _ = cfg.initial_fields(sysd)
    nutrient = sysd.nutrient_operator(coefficients_at(sysd, phi0),
                                      cfg["time.T"] / cfg["time.steps"])
    for A in (nutrient, sysd.A_red):
        assert (A != A.T).nnz == 0
        assert A.diagonal().min() > 0
        np.linalg.cholesky(A.toarray())


def test_nutrient_beta_zero_requires_exchange():
    with pytest.raises(Exception, match="A1"):
        make_system(4, 4, beta=0.0, B=0.0, kappa=0.0)


# -- full trajectories ----------------------------------------------------------------

def test_constant_trajectory_with_zero_sources():
    sysd = make_system(6, 6, lambda_p=0.0, lambda_a=0.0, chi=0.0,
                       misfit_strain=np.zeros(3), lambda_c=0.0)
    grid = sysd.grid
    w = sysd.zero_controls(5)
    w.w1[:] = sysd.params.sigma_c
    phi0 = np.full(grid.n_nodes, 0.25)
    sig0 = np.full(grid.n_nodes, sysd.params.sigma_c)
    traj = sysd.solve_state(w, phi0, sig0, T=0.5, n_steps=5)
    for n in range(6):
        assert np.abs(traj.snapshot(n).phi - 0.25).max() < 1e-12
        assert np.abs(traj.snapshot(n).sigma - sysd.params.sigma_c).max() < 1e-11


def test_sigma_bounds_random_admissible_controls(rng):
    sysd = make_system(8, 8)
    grid = sysd.grid
    N, T = 8, 1.0
    cap = sysd.params.nutrient_cap
    space = sysd.control_space(T, N)
    b = ControlBounds(w3_hi=min(0.8, sysd.params.lambda_c * cap))
    phi0 = tumour_ic(grid)
    sig0 = np.full(grid.n_nodes, sysd.params.sigma_c)
    for _ in range(5):
        w = space.random_admissible(rng, b)
        traj = sysd.solve_state(w, phi0, sig0, T, N)
        smin = min(traj.snapshot(n).sigma.min() for n in range(N + 1))
        smax = max(traj.snapshot(n).sigma.max() for n in range(N + 1))
        assert smin >= -1e-8 and smax <= cap + 1e-8


def test_trajectories_bit_identical(rng):
    sysd = make_system(6, 6)
    grid = sysd.grid
    space = sysd.control_space(0.5, 6)
    w = space.random_admissible(rng, ControlBounds())
    phi0 = tumour_ic(grid)
    sig0 = np.full(grid.n_nodes, 1.0)
    t1 = sysd.solve_state(w, phi0, sig0, 0.5, 6)
    t2 = sysd.solve_state(w, phi0, sig0, 0.5, 6)
    for n in range(7):
        assert np.array_equal(t1.snapshot(n).phi, t2.snapshot(n).phi)
        assert np.array_equal(t1.snapshot(n).sigma, t2.snapshot(n).sigma)
        assert np.array_equal(t1.snapshot(n).u, t2.snapshot(n).u)


def test_initial_nutrient_validated():
    sysd = make_system(4, 4)
    w = sysd.zero_controls(2)
    phi0 = np.zeros(sysd.grid.n_nodes)
    bad = np.full(sysd.grid.n_nodes, sysd.params.nutrient_cap + 0.5)
    with pytest.raises(PreconditionError, match="A5"):
        sysd.solve_state(w, phi0, bad, 0.1, 2)


def test_energy_dissipation_lyapunov():
    # no growth, no chemotaxis, isolated nutrient: free energy decays
    sysd = make_system(8, 8, lambda_p=0.0, lambda_a=0.0, chi=0.0,
                       B=0.0, kappa=0.0, beta=1.0)
    grid = sysd.grid
    w = sysd.zero_controls(12)
    phi0 = tumour_ic(grid)
    sig0 = np.full(grid.n_nodes, 1.0)
    traj = sysd.solve_state(w, phi0, sig0, T=0.6, n_steps=12)
    energies = [sysd.free_energy(traj.snapshot(n).phi, traj.snapshot(n).u)
                for n in range(13)]
    for a, b in zip(energies, energies[1:]):
        assert b <= a + 1e-10 * max(1.0, abs(a))
    assert energies[-1] < energies[0]


def test_mass_balance_with_sources():
    # testing against the constant function: d/dt int phi = int U per step
    sysd = make_system(6, 6)
    grid = sysd.grid
    N, T = 5, 0.4
    tau = T / N
    w = interior_controls(sysd, N)
    phi0 = tumour_ic(grid)
    sig0 = np.full(grid.n_nodes, 1.0)
    traj = sysd.solve_state(w, phi0, sig0, T, N)
    quad = sysd.quad
    p, nl = sysd.params, sysd.nl
    for n in range(1, N + 1):
        prev, cur = traj.snapshot(n - 1), traj.snapshot(n)
        phi_gp = quad.P @ prev.phi
        stress_gp = np.asarray(
            quad.strain(prev.u) - p.bar_strain - phi_gp[:, None] * p.misfit_strain)
        U_gp = (p.lambda_p * (quad.P @ cur.sigma) * nl.f(phi_gp)
                * nl.g_of(p.C.apply(stress_gp))
                - (p.lambda_a + w.w2[n - 1]) * nl.k(phi_gp))
        lhs = (sysd.integrate_nodal(cur.phi) - sysd.integrate_nodal(prev.phi)) / tau
        rhs = quad.integrate(U_gp)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_continuous_dependence_first_order_scaling(rng):
    sysd = make_system(8, 8)
    grid = sysd.grid
    N, T = 8, 0.5
    space = sysd.control_space(T, N)
    w = interior_controls(sysd, N)
    d = space.random_direction(rng)
    phi0 = tumour_ic(grid)
    sig0 = np.full(grid.n_nodes, 1.0)
    base = sysd.solve_state(w, phi0, sig0, T, N)

    def diff_norm(eps):
        pert = sysd.solve_state(w.axpy(eps, d), phi0, sig0, T, N)
        phi_part = max(
            np.sqrt(float((pert.snapshot(n).phi - base.snapshot(n).phi)
                          @ ((sysd.M + sysd.K)
                             @ (pert.snapshot(n).phi - base.snapshot(n).phi))))
            for n in range(N + 1))
        sig_part = np.sqrt(sum(
            (T / N) * float((pert.snapshot(n).sigma - base.snapshot(n).sigma)
                            @ ((sysd.M + sysd.K)
                               @ (pert.snapshot(n).sigma - base.snapshot(n).sigma)))
            for n in range(1, N + 1)))
        return phi_part + sig_part

    eps = 0.1
    ratio = diff_norm(eps) / diff_norm(eps / 2)
    assert 0.3 * 2 <= ratio <= 3 * 2


def test_checkpointed_trajectory_matches_memory(tmp_path, rng):
    sysd = make_system(5, 5)
    grid = sysd.grid
    N, T = 7, 0.5
    space = sysd.control_space(T, N)
    w = space.random_admissible(rng, ControlBounds())
    phi0 = tumour_ic(grid)
    sig0 = np.full(grid.n_nodes, 1.0)
    mem = sysd.solve_state(w, phi0, sig0, T, N)
    disk = sysd.solve_state(w, phi0, sig0, T, N, storage="disk", every=3,
                            directory=tmp_path)
    for n in range(N + 1):
        assert np.allclose(disk.snapshot(n).phi, mem.snapshot(n).phi,
                           rtol=0, atol=1e-14)
        assert np.allclose(disk.snapshot(n).sigma, mem.snapshot(n).sigma,
                           rtol=0, atol=1e-14)
    assert (tmp_path / "index.txt").exists()
