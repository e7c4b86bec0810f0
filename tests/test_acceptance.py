"""Acceptance suite: one test per criterion, at the stated scale/tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion.
"""

import numpy as np
import pytest

from tumoropt.adjoint import reduced_gradient, solve_adjoint
from tumoropt.cost import CostWeights, eval_cost
from tumoropt.linearized import frechet_check, solve_linearised
from tumoropt.optimize import (ControlProblem, OptimizeOptions, optimize,
                               projection_formula_check, sparsity_report)
from tumoropt.state import ControlBounds, ControlTriple

from conftest import coefficients_at, interior_controls, make_system, tumour_ic
from oracles import dense_ch_step, dense_linearised_step, dense_nutrient_step


def _report(num, name, ok, detail):
    line = f"ACCEPTANCE {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _ic(system):
    return (tumour_ic(system.grid),
            np.full(system.grid.n_nodes, system.params.sigma_c))


def _tracking_weights(system, **kw):
    target = np.full(system.grid.n_nodes, -0.45)
    defaults = dict(alpha_Q=0.3, alpha_Omega=0.5, alpha_E=0.1,
                    gamma1=0.1, gamma2=0.1, gamma3=0.1, gamma4=0.0, gamma5=0.0,
                    phi_Q=target, phi_Omega=target)
    defaults.update(kw)
    return CostWeights(**defaults)


def test_criterion_01_sigma_bounds():
    system = make_system(32, 32)
    T, N = 1.0, 64
    cap = system.params.nutrient_cap
    space = system.control_space(T, N)
    bounds = ControlBounds(w1_lo=0.0, w1_hi=cap, w2_lo=0.0, w2_hi=0.8,
                           w3_lo=0.0, w3_hi=min(0.8, system.params.lambda_c * cap))
    phi0, sig0 = _ic(system)
    rng = np.random.default_rng(42)
    smin, smax = np.inf, -np.inf
    for _ in range(20):
        w = space.random_admissible(rng, bounds)
        traj = system.solve_state(w, phi0, sig0, T, N)
        for n in range(N + 1):
            s = traj.snapshot(n).sigma
            smin = min(smin, s.min())
            smax = max(smax, s.max())
    ok = smin >= -1e-8 and smax <= cap + 1e-8
    _report(1, "sigma bounds", ok,
            f"min={smin:.3e}, max={smax:.6f}, cap={cap}")


def test_criterion_02_energy_dissipation():
    system = make_system(32, 32, lambda_p=0.0, lambda_a=0.0, chi=0.0,
                         B=0.0, kappa=0.0, beta=1.0)
    T, N = 1.0, 64
    phi0, sig0 = _ic(system)
    w = system.zero_controls(N)
    traj = system.solve_state(w, phi0, sig0, T, N)
    energies = np.array([system.free_energy(traj.snapshot(n).phi,
                                            traj.snapshot(n).u)
                         for n in range(N + 1)])
    slack = 1e-10 * np.maximum(1.0, np.abs(energies[:-1]))
    increments = np.diff(energies)
    ok = bool((increments <= slack).all())
    _report(2, "energy dissipation", ok,
            f"max increment={increments.max():.3e}, "
            f"E0={energies[0]:.4f}, ET={energies[-1]:.4f}")


def test_criterion_03_frechet_slope():
    system = make_system(16, 16)
    T, N = 1.0, 32
    phi0, sig0 = _ic(system)
    w = interior_controls(system, N)
    space = system.control_space(T, N)
    rng = np.random.default_rng(3)
    slopes = []
    for _ in range(3):
        h = space.random_direction(rng)
        rep = frechet_check(system, phi0, sig0, T, N, w, h,
                            eps_list=np.logspace(-1, -3, 5))
        slopes.append(rep.slope)
    ok = all(1.8 <= s <= 2.2 for s in slopes)
    _report(3, "quadratic Taylor remainder", ok,
            "slopes=" + ", ".join(f"{s:.4f}" for s in slopes))


def test_criterion_04_gradient_exactness():
    system = make_system(16, 16)
    T, N = 1.0, 32
    phi0, sig0 = _ic(system)
    w = interior_controls(system, N)
    weights = _tracking_weights(system)
    space = system.control_space(T, N)
    traj = system.solve_state(w, phi0, sig0, T, N)
    adj = solve_adjoint(system, traj, w, weights, "transpose")
    grad = reduced_gradient(system, traj, adj, w, weights)

    def j1(wc):
        t = system.solve_state(wc, phi0, sig0, T, N)
        return eval_cost(system, t, wc, weights)[1]

    rng = np.random.default_rng(4)
    eps = 1e-4
    errors = []
    for _ in range(5):
        h = space.random_direction(rng)
        fd = (j1(w.axpy(eps, h)) - j1(w.axpy(-eps, h))) / (2 * eps)
        dj = space.inner(grad.direction(), h)
        errors.append(abs(fd - dj) / max(abs(fd), abs(dj)))
    ok = max(errors) <= 1e-6
    _report(4, "transpose gradient vs finite differences", ok,
            f"worst relative error={max(errors):.3e}")


def test_criterion_05_continuous_adjoint_fidelity():
    gaps = []
    for nx, nsteps in ((8, 16), (16, 32), (32, 64)):
        system = make_system(nx, nx)
        T = 1.0
        phi0, sig0 = _ic(system)
        w = interior_controls(system, nsteps)
        weights = _tracking_weights(system)
        space = system.control_space(T, nsteps)
        traj = system.solve_state(w, phi0, sig0, T, nsteps)
        gt = reduced_gradient(
            system, traj, solve_adjoint(system, traj, w, weights, "transpose"),
            w, weights)
        gc = reduced_gradient(
            system, traj, solve_adjoint(system, traj, w, weights, "continuous"),
            w, weights)
        gaps.append(space.norm(gt.direction().axpy(-1.0, gc.direction()))
                    / space.norm(gt.direction()))
    ok = gaps[1] < gaps[0] and gaps[2] < gaps[1]
    _report(5, "continuous-adjoint fidelity", ok,
            "relative gaps=" + ", ".join(f"{g:.3e}" for g in gaps))


@pytest.fixture(scope="module")
def converged_sparse_run():
    # gamma4 sits inside the range of the dual integral, so the converged
    # dosage is positive early and switches off on a tail interval
    system = make_system(12, 12)
    T, N = 1.0, 24
    phi0, sig0 = _ic(system)
    weights = _tracking_weights(system, gamma4=0.05, gamma5=0.005)
    problem = ControlProblem(system, phi0, sig0, T, N, weights)
    w0 = interior_controls(system, N)
    report = optimize(problem, w0,
                      OptimizeOptions(max_iterations=300, tol=1e-9))
    return problem, report


def test_criterion_06_stationarity_and_projection(converged_sparse_run):
    problem, report = converged_sparse_run
    dev = projection_formula_check(report.gradient, report.controls,
                                   problem.weights)
    ok = (report.converged and report.residual <= 1e-8
          and all(dev[k] <= 1e-6 for k in ("w1", "w2", "w3")))
    _report(6, "stationarity + projection formulas", ok,
            f"residual={report.residual:.3e}, deviations w1={dev['w1']:.2e} "
            f"w2={dev['w2']:.2e} w3={dev['w3']:.2e}")


def test_criterion_07_sparsity_characterisation(converged_sparse_run):
    problem, report = converged_sparse_run
    sr = sparsity_report(report.gradient, report.controls, problem.weights)
    a2, a3 = sr["w2"].agreement, sr["w3"].agreement
    ok = a2 >= 0.99 and a3 >= 0.99
    _report(7, "sparsity characterisation", ok,
            f"agreement w2={a2:.3f}, w3={a3:.3f}, "
            f"zero runs w2={sr['w2'].zero_intervals}")


def test_criterion_08_large_gamma_vanishing_control():
    system = make_system(8, 8)
    T, N = 1.0, 16
    phi0, sig0 = _ic(system)
    tau = T / N
    l1_norms = []
    lambda_ok = True
    for gamma4 in (0.01, 0.1, 1.0, 10.0, 100.0):
        weights = _tracking_weights(system, gamma4=gamma4, gamma5=0.005)
        problem = ControlProblem(system, phi0, sig0, T, N, weights)
        w0 = interior_controls(system, N)
        report = optimize(problem, w0,
                          OptimizeOptions(max_iterations=200, tol=1e-9))
        assert report.converged, f"sweep value {gamma4} did not converge"
        l1_norms.append(tau * float(np.abs(report.controls.w2).sum()))
        lam = report.lambda2
        lambda_ok = lambda_ok and bool((np.abs(lam) <= 1.0 + 1e-12).all())
    monotone = all(b <= a + 1e-12 for a, b in zip(l1_norms, l1_norms[1:]))
    plateau = l1_norms[-1] <= 1e-12
    ok = monotone and plateau and lambda_ok
    _report(8, "large-gamma vanishing dosage", ok,
            "L1 norms=" + ", ".join(f"{v:.3e}" for v in l1_norms)
            + f", lambda2 in range: {lambda_ok}")


def test_criterion_09_continuous_dependence_scaling():
    system = make_system(16, 16)
    T, N = 1.0, 32
    phi0, sig0 = _ic(system)
    w = interior_controls(system, N)
    space = system.control_space(T, N)
    rng = np.random.default_rng(9)
    d = space.random_direction(rng)
    base = system.solve_state(w, phi0, sig0, T, N)
    H1 = (system.M + system.K).tocsr()

    def diff_norm(eps):
        pert = system.solve_state(w.axpy(eps, d), phi0, sig0, T, N)
        phi_part = max(np.sqrt(float(
            (pert.snapshot(n).phi - base.snapshot(n).phi)
            @ (H1 @ (pert.snapshot(n).phi - base.snapshot(n).phi))))
            for n in range(N + 1))
        sig_part = np.sqrt(sum(
            (T / N) * float((pert.snapshot(n).sigma - base.snapshot(n).sigma)
                            @ (H1 @ (pert.snapshot(n).sigma
                                     - base.snapshot(n).sigma)))
            for n in range(1, N + 1)))
        return phi_part + sig_part

    eps = 0.1
    ratio = diff_norm(eps) / diff_norm(eps / 2)
    ok = 0.3 * 2 <= ratio <= 3 * 2
    _report(9, "continuous dependence scaling", ok,
            f"|S(w+eps d)-S(w)| ratio={ratio:.4f} for eps={eps} vs {eps / 2}")


def test_criterion_10_oracle_equivalence():
    system = make_system(4, 4, chi=0.1)
    grid = system.grid
    phi0, sig0 = _ic(system)
    tau = 0.05
    rng = np.random.default_rng(10)
    w1 = rng.uniform(0.2, 0.9, size=grid.n_boundary_nodes)

    u0 = system.solve_elasticity(phi0)
    coef = coefficients_at(system, phi0)
    factors = system.step_factors(tau)
    sig_new = system.step_nutrient(sig0, coef, w1, 0.3, factors)
    sig_ref = dense_nutrient_step(grid, system.params, system.nl, sig0, phi0,
                                  w1, 0.3, tau)
    err_sigma = float(np.abs(sig_new - sig_ref).max())

    phi1, mu1 = system.step_cahn_hilliard(phi0, coef, sig_new, 0.25, factors)
    phi_ref, mu_ref = dense_ch_step(grid, system.params, system.nl, phi0, u0,
                                    sig_new, 0.25, tau)
    err_ch = float(max(np.abs(phi1 - phi_ref).max(), np.abs(mu1 - mu_ref).max()))

    N, T = 2, 2 * tau
    w = interior_controls(system, N)
    traj = system.solve_state(w, phi0, sig0, T, N)
    h = ControlTriple(rng.standard_normal((grid.n_boundary_nodes, N)),
                      rng.standard_normal(N), rng.standard_normal(N))
    lin = solve_linearised(system, traj, w, h)
    psi_ref, xi_ref, eta_ref = dense_linearised_step(
        grid, system.params, system.nl, traj.snapshot(1), traj.snapshot(2),
        float(w.w2[1]), float(w.w3[1]), lin[1].xi, lin[1].psi,
        h.w1[:, 1], float(h.w2[1]), float(h.w3[1]), tau)
    err_lin = float(max(np.abs(lin[2].psi - psi_ref).max(),
                        np.abs(lin[2].xi - xi_ref).max(),
                        np.abs(lin[2].eta - eta_ref).max()))

    ok = err_sigma <= 1e-8 and err_ch <= 1e-8 and err_lin <= 1e-8
    _report(10, "dense oracle equivalence", ok,
            f"nutrient={err_sigma:.2e}, composition={err_ch:.2e}, "
            f"linearised={err_lin:.2e}")
