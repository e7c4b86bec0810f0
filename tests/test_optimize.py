import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tumoropt.state as state_mod
from tumoropt.adjoint import ReducedGradient
from tumoropt.cost import CostConfigError, CostWeights, eval_cost
from tumoropt.optimize import (ZERO_TOL, ControlProblem, GateError,
                               OptimizeOptions, _dosages, _subgradient, optimize,
                               projection_formula_check, prox_project,
                               sparsity_report, stationarity_residual,
                               zero_intervals)
from tumoropt.state import ControlBounds, ControlTriple, InputRuleError

from conftest import interior_controls, make_system, tumour_ic
from oracles import gauss_points, interp, strain_at


def _problem(nx=6, ny=6, N=8, T=0.5, weights=None, **sys_kwargs):
    sysd = make_system(nx, ny, **sys_kwargs)
    grid = sysd.grid
    phi0 = tumour_ic(grid)
    sig0 = np.full(grid.n_nodes, 1.0)
    if weights is None:
        weights = CostWeights(alpha_Q=0.3, alpha_Omega=0.5, alpha_E=0.1,
                              gamma1=0.1, gamma2=0.1, gamma3=0.1,
                              gamma4=0.005, gamma5=0.005,
                              phi_Q=np.full(grid.n_nodes, -0.45),
                              phi_Omega=np.full(grid.n_nodes, -0.45))
    return ControlProblem(sysd, phi0, sig0, T, N, weights)


def test_control_problem_solves_share_one_pair_of_step_factors(monkeypatch):
    # every solve of a problem has its time step, so the problem factors
    # once and its trajectories and sweeps factor nothing
    problem = _problem(N=4)
    sizes = []
    orig = state_mod.splu
    monkeypatch.setattr(state_mod, "splu",
                        lambda A, **kw: sizes.append(A.shape[0]) or orig(A, **kw))
    w = interior_controls(problem.system, 4)
    (_, traj), _ = problem.cost(w), problem.gradient(w)
    assert sizes == [] and traj.factors is problem.factors


def test_control_problem_refuses_zero_steps():
    # control_space divided by n_steps first, a bare ZeroDivisionError
    sysd = make_system(4, 4)
    nn = sysd.grid.n_nodes
    with pytest.raises(InputRuleError, match=r"^n_steps must be >= 1"):
        ControlProblem(sysd, np.zeros(nn), np.ones(nn), 1.0, 0, CostWeights())


# -- cost evaluation -----------------------------------------------------------

def test_cost_zero_at_attained_targets():
    sysd = make_system(5, 5, lambda_p=0.0, lambda_a=0.0, chi=0.0,
                       misfit_strain=np.zeros(3), lambda_c=0.0)
    grid = sysd.grid
    N, T = 4, 0.4
    # lambda_c = 0 admits no dosage w3 > 0 (A5)
    w = sysd.zero_controls(N, ControlBounds(w3_hi=0.0))
    w.w1[:] = sysd.params.sigma_c
    phi0 = np.full(grid.n_nodes, 0.3)
    sig0 = np.full(grid.n_nodes, sysd.params.sigma_c)
    traj = sysd.solve_state(w, phi0, sig0, T, N)
    weights = CostWeights(alpha_Q=1.0, alpha_Omega=1.0, alpha_E=0.0,
                          gamma1=0.0, gamma2=0.0, gamma3=0.0,
                          phi_Q=np.full(grid.n_nodes, 0.3),
                          phi_Omega=np.full(grid.n_nodes, 0.3))
    # w1 > 0 but gamma1 = 0, so only the (vanishing) tracking terms remain
    J, J1, J2 = eval_cost(sysd, traj, w, weights)
    assert abs(J) < 1e-20 and J2 == 0.0


def test_cost_l1_of_constant_dosage():
    prob = _problem(nx=4, ny=4, N=5, T=1.0,
                    weights=CostWeights(alpha_Q=0, alpha_Omega=0, alpha_E=0,
                                        gamma1=0.0, gamma2=1.0, gamma3=0.0,
                                        gamma4=0.3, gamma5=0.0,
                                        phi_Q=np.zeros(1), phi_Omega=np.zeros(1)))
    w = prob.system.zero_controls(prob.n_steps)
    w.w2[:] = 0.25
    (J, J1, J2), _ = prob.cost(w)
    assert abs(J2 - 0.3 * 0.25 * prob.T) < 1e-14


def test_cost_stress_term_matches_bruteforce_quadrature():
    sysd = make_system(2, 2, weight_n="ramp")
    grid = sysd.grid
    N, T = 3, 0.3
    tau = T / N
    w = interior_controls(sysd, N)
    phi0 = tumour_ic(grid)
    sig0 = np.full(grid.n_nodes, 1.0)
    traj = sysd.solve_state(w, phi0, sig0, T, N)
    weights = CostWeights(alpha_Q=0.0, alpha_Omega=0.0, alpha_E=2.0,
                          gamma1=0, gamma2=0, gamma3=0,
                          phi_Q=np.zeros(1), phi_Omega=np.zeros(1))
    J, J1, J2 = eval_cost(sysd, traj, w, weights)

    p, nl = sysd.params, sysd.nl
    brute = 0.0
    for n in range(1, N + 1):
        snap = traj.snapshot(n)
        for nodes, wq, Nv, dN, xy in gauss_points(grid):
            phi_gp = interp(snap.phi, nodes, Nv)
            u_cell = np.empty(8)
            u_cell[0::2] = snap.u[2 * nodes]
            u_cell[1::2] = snap.u[2 * nodes + 1]
            s = p.C.voigt @ (strain_at(dN, u_cell) - p.bar_strain
                             - phi_gp * p.misfit_strain)
            frob2 = s[0] ** 2 + s[1] ** 2 + 2 * s[2] ** 2
            brute += tau * wq * nl.n_of(np.asarray(xy), phi_gp) * frob2
    assert abs(J - 0.5 * 2.0 * brute) <= 1e-12 * max(1.0, abs(J))


def test_cost_target_shape_mismatch():
    prob = _problem(nx=4, ny=4, N=3)
    bad = CostWeights(alpha_Q=1.0, alpha_Omega=0.0, alpha_E=0.0,
                      gamma1=0.1, gamma2=0.1, gamma3=0.1,
                      phi_Q=np.zeros((2, 7)), phi_Omega=np.zeros(1))
    w = prob.system.zero_controls(prob.n_steps)
    traj = prob.solve(w)
    with pytest.raises(CostConfigError):
        eval_cost(prob.system, traj, w, bad)


def test_weights_constraints():
    with pytest.raises(CostConfigError, match="A7"):
        CostWeights(alpha_Q=0, alpha_Omega=0, alpha_E=0,
                    gamma1=0, gamma2=0, gamma3=0, gamma4=0, gamma5=0)
    with pytest.raises(CostConfigError, match="A7"):
        CostWeights(gamma2=0.0, gamma4=1.0)
    with pytest.raises(CostConfigError, match="A7"):
        CostWeights(gamma3=0.0, gamma5=1.0)
    with pytest.raises(CostConfigError, match="A7"):
        CostWeights(alpha_Q=-0.1)


# -- prox ------------------------------------------------------------------------

def _toy_controls(N=3, nb=2, bounds=None):
    b = bounds or ControlBounds(w1_lo=0.0, w1_hi=1.0, w2_lo=0.0, w2_hi=1.0,
                                w3_lo=0.0, w3_hi=1.0)
    return ControlTriple(np.zeros((nb, N)), np.zeros(N), np.zeros(N), b)


def _toy_weights(**kw):
    base = dict(alpha_Q=0, alpha_Omega=0, alpha_E=0, gamma1=1.0, gamma2=1.0,
                gamma3=1.0, gamma4=0.0, gamma5=0.0,
                phi_Q=np.zeros(1), phi_Omega=np.zeros(1))
    base.update(kw)
    return CostWeights(**base)


def test_prox_clamps_below_lower_bound():
    w = _toy_controls()
    w.w2[:] = 0.1
    g = ControlTriple(np.zeros_like(w.w1), np.full(3, 0.6), np.zeros(3))
    out = prox_project(w, g, 1.0, _toy_weights())
    assert (out.w2 == 0.0).all()   # 0.1 - 0.6 clamps to the lower bound


def test_prox_plain_gradient_step_inside_box():
    w = _toy_controls()
    w.w2[:] = 0.5
    g = ControlTriple(np.zeros_like(w.w1), np.full(3, 0.25), np.zeros(3))
    out = prox_project(w, g, 1.0, _toy_weights())
    assert np.allclose(out.w2, 0.25)


def test_prox_soft_threshold_composite():
    w = _toy_controls(bounds=ControlBounds(w2_lo=0.0, w2_hi=1.0))
    w.w2[:] = np.array([0.5, 0.02, 0.0])
    g = ControlTriple(np.zeros_like(w.w1), np.zeros(3), np.zeros(3))
    out = prox_project(w, g, 1.0, _toy_weights(gamma4=0.1))
    # lower bound zero: the composite equals a clamp of w2 - step*gamma4
    assert np.allclose(out.w2, np.maximum(w.w2 - 0.1, 0.0))


_finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@pytest.mark.parametrize("component, weight", [("w2", "gamma4"), ("w3", "gamma5")])
@settings(max_examples=150, deadline=None)
@given(w=_finite, g=_finite, step=st.floats(1e-3, 1e3), gamma=st.floats(0.0, 1e3),
       lo=st.floats(-10.0, 10.0), width=st.floats(0.0, 20.0))
def test_prox_matches_brute_force_minimisation(component, weight,
                                               w, g, step, gamma, lo, width):
    # the dosage prox minimises (x - v)^2 / (2 step) + gamma |x| over [lo, hi]
    hi = lo + width
    bounds = ControlBounds(**{f"{component}_lo": lo, f"{component}_hi": hi})
    ctrl = _toy_controls(N=1, bounds=bounds)
    grad = ControlTriple(np.zeros_like(ctrl.w1), np.zeros(1), np.zeros(1))
    getattr(ctrl, component)[:] = w
    getattr(grad, component)[:] = g
    out = getattr(prox_project(ctrl, grad, step, _toy_weights(**{weight: gamma})),
                  component)[0]

    v = w - step * g

    def objective(x):
        return (x - v) ** 2 / (2 * step) + gamma * np.abs(x)

    xs = np.concatenate([np.linspace(lo, hi, 4001), [0.0] if lo <= 0.0 <= hi else []])
    best = objective(xs).min()
    assert lo <= out <= hi
    assert objective(out) <= best + 1e-12 * max(1.0, abs(best), v * v / step)


def test_hand_built_kkt_point_is_prox_fixed_point():
    # three dosage entries covering the stationarity cases:
    # interior-positive, zero, upper bound active
    gamma4 = 0.3
    wbar = 0.8
    b = ControlBounds(w1_lo=0.0, w1_hi=1.0, w2_lo=0.0, w2_hi=wbar,
                      w3_lo=0.0, w3_hi=1.0)
    w = _toy_controls(bounds=b)
    w.w2[:] = np.array([0.5, 0.0, wbar])
    g2 = np.array([-gamma4, 0.1, -0.5])   # KKT: -g2 in gamma4 * subdifferential
    g = ControlTriple(np.zeros_like(w.w1), g2, np.zeros(3))
    weights = _toy_weights(gamma4=gamma4)
    sysd = make_system(3, 3)
    space = sysd.control_space(1.0, 3)
    space = type(space)(sysd.grid, np.ones(2), space.tau, 3)  # toy metric
    assert stationarity_residual(space, w, g, weights) <= 1e-12
    # breaking any KKT case makes the residual positive
    g_bad = ControlTriple(np.zeros_like(w.w1), np.array([-gamma4, -0.5, -0.5]),
                          np.zeros(3))
    assert stationarity_residual(space, w, g_bad, weights) > 1e-3


def test_stationarity_positive_at_interior_nonstationary(rng):
    prob = _problem(nx=4, ny=4, N=4)
    w = interior_controls(prob.system, prob.n_steps)
    grad = prob.gradient(w)
    assert stationarity_residual(prob.space, w, grad, prob.weights) > 1e-4


# -- optimisation ------------------------------------------------------------------

def test_pure_quadratic_converges_in_two_iterations():
    weights = CostWeights(alpha_Q=0, alpha_Omega=0, alpha_E=0,
                          gamma1=0.2, gamma2=0.1, gamma3=0.05,
                          phi_Q=np.zeros(1), phi_Omega=np.zeros(1))
    prob = _problem(nx=4, ny=4, N=4, weights=weights)
    w0 = interior_controls(prob.system, prob.n_steps)
    rep = optimize(prob, w0, OptimizeOptions(max_iterations=10))
    assert rep.converged
    assert len(rep.history) <= 2
    assert np.abs(rep.controls.w1).max() == 0.0
    assert np.abs(rep.controls.w2).max() == 0.0
    assert np.abs(rep.controls.w3).max() == 0.0
    assert rep.residual <= 1e-12


def test_optimize_monotone_descent_and_admissibility():
    prob = _problem()
    w0 = interior_controls(prob.system, prob.n_steps)
    rep = optimize(prob, w0, OptimizeOptions(max_iterations=60, tol=1e-8))
    costs = np.array([r.J for r in rep.history])
    assert (np.diff(costs) <= 1e-13 * np.maximum(1.0, np.abs(costs[:-1]))).all()
    assert rep.controls.is_admissible()
    assert rep.converged


def test_optimize_rejects_inadmissible_start():
    prob = _problem(nx=4, ny=4, N=3)
    w0 = prob.system.zero_controls(prob.n_steps)
    w0.w2[:] = np.asarray(w0.bounds.w2_hi) + 1.0
    with pytest.raises(Exception):
        optimize(prob, w0)


def test_gradient_gate_detects_wrong_gradient(monkeypatch):
    prob = _problem(nx=4, ny=4, N=3)
    w0 = interior_controls(prob.system, prob.n_steps)
    real = prob.gradient

    def broken(w, traj=None):
        g = real(w, traj)
        return ReducedGradient(g1=2.0 * g.g1, g2=g.g2, g3=g.g3,
                               kp_integral=g.kp_integral,
                               hr_integral=g.hr_integral)

    monkeypatch.setattr(prob, "gradient", broken)
    with pytest.raises(GateError):
        optimize(prob, w0, OptimizeOptions(max_iterations=3))


def test_argmin_independent_of_target_when_untracked():
    # alpha_Q = alpha_Omega = alpha_E = 0: the target never enters
    base = dict(alpha_Q=0, alpha_Omega=0, alpha_E=0, gamma1=0.2, gamma2=0.1,
                gamma3=0.1, gamma4=0.01, gamma5=0.01)
    reports = []
    for c in (0.0, 7.0):
        weights = CostWeights(phi_Q=np.full(25, c), phi_Omega=np.zeros(1), **base)
        prob = _problem(nx=4, ny=4, N=4, weights=weights)
        w0 = interior_controls(prob.system, prob.n_steps)
        reports.append(optimize(prob, w0, OptimizeOptions(max_iterations=20)))
    a, b = reports
    assert np.array_equal(a.controls.w1, b.controls.w1)
    assert np.array_equal(a.controls.w2, b.controls.w2)
    assert np.array_equal(a.controls.w3, b.controls.w3)


# -- subgradients / sparsity / projection formulas ----------------------------------

def _converged(prob, tol=1e-8, iters=200):
    w0 = interior_controls(prob.system, prob.n_steps)
    rep = optimize(prob, w0, OptimizeOptions(max_iterations=iters, tol=tol))
    assert rep.converged
    return rep


def test_subgradient_cases():
    prob = _problem()
    rep = _converged(prob)
    lam2, lam3 = rep.lambda2, rep.lambda3
    assert (np.abs(lam2) <= 1.0).all() and (np.abs(lam3) <= 1.0).all()
    assert np.all(lam2[rep.controls.w2 > 1e-10] == 1.0)
    assert np.all(lam3[rep.controls.w3 > 1e-10] == 1.0)


def test_subgradient_requires_l1_weights():
    prob = _problem(nx=4, ny=4, N=3,
                    weights=CostWeights(alpha_Omega=1.0, gamma1=0.1,
                                        gamma2=0.1, gamma3=0.1,
                                        phi_Q=np.zeros(1), phi_Omega=np.zeros(1)))
    w0 = interior_controls(prob.system, prob.n_steps)
    rep = optimize(prob, w0, OptimizeOptions(max_iterations=1))
    assert rep.lambda2 is None and rep.lambda3 is None


def test_zero_intervals_extraction():
    vals = np.array([0.0, 0.0, 0.3, 0.0, 0.2, 0.0, 0.0, 0.0])
    assert zero_intervals(vals) == [(0, 1), (3, 3), (5, 7)]
    assert zero_intervals(np.array([1.0, 2.0])) == []


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.just(0.0), st.just(-0.0), st.just(ZERO_TOL),
                          st.just(-ZERO_TOL), st.just(2 * ZERO_TOL),
                          st.floats(allow_nan=False)), max_size=40))
def test_zero_intervals_matches_brute_force_scan(values):
    vals = np.array(values, dtype=float)
    zero = [abs(v) <= ZERO_TOL for v in values]
    # a run starts at a zero whose left neighbour is not zero and ends at a
    # zero whose right neighbour is not zero
    starts = [j for j in range(len(zero)) if zero[j] and (j == 0 or not zero[j - 1])]
    ends = [j for j in range(len(zero))
            if zero[j] and (j == len(zero) - 1 or not zero[j + 1])]
    assert zero_intervals(vals) == list(zip(starts, ends))


def test_sparsity_report_agreement_at_convergence():
    prob = _problem()
    rep = _converged(prob)
    sr = sparsity_report(rep.gradient, rep.controls, prob.weights)
    assert sr["w2"].agreement >= 0.99
    assert sr["w3"].agreement >= 0.99
    # interval extraction matches a direct scan
    direct = zero_intervals(rep.controls.w2)
    assert sr["w2"].zero_intervals == direct


def test_projection_formulas_at_convergence():
    prob = _problem()
    rep = _converged(prob)
    dev = projection_formula_check(rep.gradient, rep.controls, prob.weights)
    assert dev["max"] <= 1e-6


def test_projection_formula_detects_perturbation():
    prob = _problem()
    rep = _converged(prob)
    w = rep.controls.copy()
    w.w1 = np.clip(w.w1 + 1e-3, w.bounds.w1_lo, w.bounds.w1_hi)
    w.w2 = np.clip(w.w2 + 1e-3, w.bounds.w2_lo, w.bounds.w2_hi)
    dev = projection_formula_check(prob.gradient(w), w, prob.weights)
    assert dev["max"] >= 1e-4


def test_projection_formula_trivial_minimum():
    # pure control regularisation: the adjoint vanishes and the formulas
    # clamp zero exactly
    weights = CostWeights(alpha_Q=0, alpha_Omega=0, alpha_E=0,
                          gamma1=0.2, gamma2=0.1, gamma3=0.1,
                          gamma4=0.01, gamma5=0.01,
                          phi_Q=np.zeros(1), phi_Omega=np.zeros(1))
    prob = _problem(nx=4, ny=4, N=4, weights=weights)
    rep = _converged(prob, iters=30)
    dev = projection_formula_check(rep.gradient, rep.controls, prob.weights)
    assert dev["max"] <= 1e-12


def _swap_dosages(w, grad, weights):
    """The same problem data with the two dosages exchanged: values, boxes,
    weights and signed duals (kp_integral <-> -hr_integral)."""
    b = w.bounds
    bounds = ControlBounds(w1_lo=b.w1_lo, w1_hi=b.w1_hi, w2_lo=b.w3_lo,
                           w2_hi=b.w3_hi, w3_lo=b.w2_lo, w3_hi=b.w2_hi)
    return (ControlTriple(w.w1, w.w3, w.w2, bounds),
            ReducedGradient(g1=grad.g1, g2=grad.g3, g3=grad.g2,
                            kp_integral=-grad.hr_integral,
                            hr_integral=-grad.kp_integral),
            dataclasses.replace(weights, gamma2=weights.gamma3,
                                gamma3=weights.gamma2, gamma4=weights.gamma5,
                                gamma5=weights.gamma4))


def test_dosage_optimality_rule_is_symmetric():
    # swapping the dosages swaps every per-dosage optimality quantity bit for
    # bit, which pins the sign of the w3 dual
    rng = np.random.default_rng(3)
    N = 16
    b = ControlBounds(w2_lo=0.0, w2_hi=0.8, w3_lo=0.0, w3_hi=0.6)
    w2 = np.where(rng.random(N) < 0.4, 0.0, rng.uniform(0.0, 0.8, N))
    w3 = np.where(rng.random(N) < 0.4, 0.0, rng.uniform(0.0, 0.6, N))
    w2[-1], w3[-1] = 0.8, 0.6
    w = ControlTriple(np.zeros((2, N)), w2, w3, b)
    weights = _toy_weights(gamma1=0.2, gamma2=0.1, gamma3=0.3, gamma4=0.05,
                           gamma5=0.02)
    kp = rng.normal(0.0, 0.1, N)
    hr = rng.normal(0.0, 0.1, N)
    kp[0], hr[0] = weights.gamma4, -weights.gamma5      # on the boundary
    grad = ReducedGradient(g1=np.zeros((2, N)),
                           g2=weights.gamma2 * w2 - kp,
                           g3=weights.gamma3 * w3 + hr,
                           kp_integral=kp, hr_integral=hr)
    w_s, grad_s, weights_s = _swap_dosages(w, grad, weights)
    swap = {"w2": "w3", "w3": "w2"}

    sr, sr_s = (sparsity_report(grad, w, weights),
                sparsity_report(grad_s, w_s, weights_s))
    dev, dev_s = (projection_formula_check(grad, w, weights),
                  projection_formula_check(grad_s, w_s, weights_s))
    lam = {d.name: _subgradient(d) for d in _dosages(w, weights, grad)}
    lam_s = {d.name: _subgradient(d) for d in _dosages(w_s, weights_s, grad_s)}
    prox = prox_project(w, grad, 0.7, weights)
    prox_s = prox_project(w_s, grad_s, 0.7, weights_s)
    for name, other in swap.items():
        rec, rec_s = sr[name], sr_s[other]
        for field in ("values", "dual", "zero", "condition", "boundary"):
            assert getattr(rec, field).tobytes() == getattr(rec_s, field).tobytes()
        assert rec.zero_intervals == rec_s.zero_intervals
        assert rec.agreement == rec_s.agreement
        assert dev[name] == dev_s[other]
        assert lam[name].tobytes() == lam_s[other].tobytes()
        assert getattr(prox, name).tobytes() == getattr(prox_s, other).tobytes()
    # the w3 dual is -hr: positive hr keeps the antiangiogenic dosage at zero
    assert sr["w3"].dual.tobytes() == (-hr).tobytes()
    assert sr["w3"].boundary[0] and sr["w2"].boundary[0]


def test_projection_formula_needs_a_positive_l2_weight():
    w = _toy_controls()
    grad = ReducedGradient(g1=np.zeros((2, 3)), g2=np.zeros(3), g3=np.zeros(3),
                           kp_integral=np.zeros(3), hr_integral=np.zeros(3))
    weights = _toy_weights(alpha_Q=1.0, gamma1=0.0, gamma2=0.0, gamma3=0.0)
    assert projection_formula_check(grad, w, weights) == {}


def test_projection_formula_without_l1_weight():
    # gamma4 = gamma5 = 0 < gamma2, gamma3: each dosage is clip(dual / l2)
    weights = _toy_weights(gamma1=0.0, gamma2=0.5, gamma3=0.25)
    kp = np.array([0.2, -0.1, 0.7])
    hr = np.array([-0.05, 0.3, -0.1])
    w = _toy_controls()
    w.w2[:] = np.clip(kp / 0.5, 0.0, 1.0)
    w.w3[:] = np.clip(-hr / 0.25, 0.0, 1.0)
    grad = ReducedGradient(g1=np.zeros((2, 3)), g2=0.5 * w.w2 - kp,
                           g3=0.25 * w.w3 + hr, kp_integral=kp, hr_integral=hr)
    dev = projection_formula_check(grad, w, weights)
    assert set(dev) == {"w2", "w3", "max"}
    assert dev["max"] == 0.0
    w.w3[1] -= 0.125
    dev = projection_formula_check(grad, w, weights)
    assert dev["w2"] == 0.0 and dev["w3"] == dev["max"] == 0.125
