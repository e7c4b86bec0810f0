import numpy as np
import pytest
from scipy.sparse.linalg import splu

import tumoropt.cost as cost_mod
import tumoropt.state as state_mod
from tumoropt.adjoint import reduced_gradient, solve_adjoint
from tumoropt.cost import CostWeights, directional_cost_derivative, eval_cost
from tumoropt.linearized import solve_linearised
from tumoropt.optimize import GATE_EPS, GATE_RTOL
from tumoropt.state import PreconditionError, SolverError, System

from conftest import OffFactor, interior_controls, make_system, tumour_ic


def _setup(nx=5, ny=4, N=5, T=0.4, **sys_kwargs):
    sysd = make_system(nx, ny, chi=0.1, **sys_kwargs)
    grid = sysd.grid
    phi0 = tumour_ic(grid)
    sig0 = np.full(grid.n_nodes, 1.0)
    w = interior_controls(sysd, N)
    traj = sysd.solve_state(w, phi0, sig0, T, N)
    return sysd, phi0, sig0, w, traj, T, N


def _weights(grid, **kw):
    defaults = dict(alpha_Q=0.7, alpha_Omega=0.9, alpha_E=0.4,
                    gamma1=0.1, gamma2=0.1, gamma3=0.1, gamma4=0.02,
                    gamma5=0.02,
                    phi_Q=np.full(grid.n_nodes, -0.2),
                    phi_Omega=np.full(grid.n_nodes, -0.4))
    defaults.update(kw)
    return CostWeights(**defaults)


def test_zero_cost_sources_zero_adjoint():
    sysd, _, _, w, traj, T, N = _setup()
    weights = _weights(sysd.grid, alpha_Q=0.0, alpha_Omega=0.0, alpha_E=0.0)
    adj = solve_adjoint(sysd, traj, w, weights, "transpose")
    for a in adj:
        assert np.abs(a.p).max() == 0.0
        assert np.abs(a.q).max() == 0.0
        assert np.abs(a.r).max() == 0.0
        assert np.abs(a.s).max() == 0.0


def test_attained_targets_zero_adjoint():
    # targets equal to the reached states and no stress weight: all adjoint
    # sources vanish identically
    sysd, _, _, w, traj, T, N = _setup()
    phi_Q = np.stack([traj.snapshot(n).phi for n in range(N + 1)])
    weights = _weights(sysd.grid, alpha_E=0.0, phi_Q=phi_Q,
                       phi_Omega=traj.snapshot(N).phi.copy())
    adj = solve_adjoint(sysd, traj, w, weights, "transpose")
    for a in adj:
        assert np.abs(a.p).max() < 1e-13
        assert np.abs(a.r).max() < 1e-13


def test_terminal_condition_exact():
    sysd, _, _, w, traj, T, N = _setup()
    weights = _weights(sysd.grid)
    for mode in ("transpose", "continuous"):
        adj = solve_adjoint(sysd, traj, w, weights, mode)
        expect = weights.alpha_Omega * (traj.snapshot(N).phi - weights.phi_Omega)
        assert np.abs(adj[N].p - expect).max() == 0.0
        assert np.abs(adj[N].r).max() == 0.0  # beta > 0


def _count_calls(monkeypatch, owner, *names) -> dict:
    """The number of calls of each of ``owner``'s ``names`` from now on."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _orig=getattr(owner, name), **kw):
            calls[_name] += 1
            return _orig(*args, **kw)
        monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("mode, mass_solves", [("transpose", 0), ("continuous", 1)])
def test_adjoint_sweep_solve_counts(monkeypatch, mode, mass_solves):
    # the terminal level is data: only continuous mode solves for q(T), which
    # it reads, and each level makes one elastic solve, for the displacement
    # multiplier entering that level's composition solve
    sysd, _, _, w, traj, T, N = _setup()
    calls = _count_calls(monkeypatch, System, "solve_mass", "solve_elastic")
    solve_adjoint(sysd, traj, w, _weights(sysd.grid), mode)
    assert calls == {"solve_mass": mass_solves, "solve_elastic": N}


def test_only_the_stress_load_evaluates_the_stress_weight(monkeypatch, rng):
    sysd, phi0, sig0, w, _, T, N = _setup()
    calls = _count_calls(monkeypatch, cost_mod, "stress_weight", "stress_weight_prime")
    traj = sysd.solve_state(w, phi0, sig0, T, N)
    solve_linearised(sysd, traj, w, sysd.control_space(T, N).random_direction(rng))
    eval_cost(sysd, traj, w, _weights(sysd.grid, alpha_E=0.0))
    assert calls == {"stress_weight": 0, "stress_weight_prime": 0}
    # the counter sees the weight where the cost does read it
    eval_cost(sysd, traj, w, _weights(sysd.grid))
    assert calls == {"stress_weight": N, "stress_weight_prime": 0}


def test_transpose_solve_matches_factored_transpose(rng):
    # the adjoint solves with J^T through the trajectory's factor of J(0)
    # (trans="T"); ch_jacobian numbers J by ch_order, the reference is in the
    # natural order
    sysd, _, _, _, traj, _, _ = _setup(nx=12, ny=12)
    phi = traj.final().phi
    natural = np.argsort(sysd.ch_order)
    J = sysd.ch_jacobian(phi, traj.tau)[natural][:, natural]
    b = rng.standard_normal(J.shape[0])
    x = sysd.solve_ch(phi, traj.factors, b, "T")
    ref = splu(J.T.tocsc()).solve(b)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def _factor_kinds(monkeypatch) -> list:
    """The policy ``kind`` of every matrix that ``state`` factors from now on."""
    kinds = []
    orig = state_mod.splu
    monkeypatch.setattr(state_mod, "splu",
                        lambda A, **kw: kinds.append(kw["kind"]) or orig(A, **kw))
    return kinds


def _three_step_forward(sysd, N=3, T=0.3):
    w = interior_controls(sysd, N)
    traj = sysd.solve_state(w, tumour_ic(sysd.grid), np.full(sysd.grid.n_nodes, 1.0), T, N)
    return w, traj, sysd.control_space(T, N)


def test_every_sweep_factors_through_the_system(monkeypatch, rng):
    # the forward solve factors the constant parts of the step operators
    # once, in state.py, for its trajectory: one CH and one nutrient factor,
    # and the linearised and adjoint sweeps over it factor nothing
    sysd = make_system(4, 4, chi=0.1)  # beta > 0
    kinds = _factor_kinds(monkeypatch)
    w, traj, space = _three_step_forward(sysd)
    assert (kinds.count("ch"), kinds.count("spd")) == (1, 1)
    solve_linearised(sysd, traj, w, space.random_direction(rng))
    solve_adjoint(sysd, traj, w, _weights(sysd.grid), "transpose")
    assert (kinds.count("ch"), kinds.count("spd")) == (1, 1)


def test_sweep_nutrient_solves_are_checked(monkeypatch, rng):
    # nutrient factors whose corrections do not contract fail the residual
    # check in the forward, linearised and adjoint sweeps, also after the
    # iterated solve falls back to factoring the operator itself; the
    # composition factors stay exact, as their solves are checked too
    sysd = make_system(4, 4, chi=0.1)
    w, traj, space = _three_step_forward(sysd)
    orig = state_mod.splu
    monkeypatch.setattr(state_mod, "splu", lambda A, **kw: (
        OffFactor(orig(A, **kw), 3.0) if kw["kind"] == "spd" else orig(A, **kw)))
    with pytest.raises(SolverError, match="nutrient solve failed"):
        _three_step_forward(sysd)
    traj.factors = sysd.step_factors(traj.tau)
    with pytest.raises(SolverError, match="nutrient solve failed"):
        solve_linearised(sysd, traj, w, space.random_direction(rng))
    with pytest.raises(SolverError, match="nutrient solve failed"):
        solve_adjoint(sysd, traj, w, _weights(sysd.grid), "transpose")


def _check_duality(rng, n_directions, **sys_kwargs):
    # the tangent derivative matches the adjoint gradient to round-off (the
    # duality identity), and central differences of J1 independently of
    # the adjoint, with the gate's half-width and bound
    sysd, phi0, sig0, w, traj, T, N = _setup(**sys_kwargs)
    weights = _weights(sysd.grid)
    space = sysd.control_space(T, N)
    adj = solve_adjoint(sysd, traj, w, weights, "transpose")
    grad = reduced_gradient(sysd, traj, adj, w, weights)

    def j1(wc):
        return eval_cost(sysd, sysd.solve_state(wc, phi0, sig0, T, N), wc, weights)[1]

    for _ in range(n_directions):
        h = space.random_direction(rng)
        lin = solve_linearised(sysd, traj, w, h)
        dj_lin = directional_cost_derivative(sysd, traj, w, weights, lin, h)
        dj_adj = space.inner(grad.direction(), h)
        assert abs(dj_lin - dj_adj) <= 1e-10 * max(1.0, abs(dj_lin))
        fd = (j1(w.axpy(GATE_EPS, h)) - j1(w.axpy(-GATE_EPS, h))) / (2 * GATE_EPS)
        assert abs(fd - dj_lin) <= GATE_RTOL * max(abs(fd), abs(dj_lin))


def test_duality_identity_transpose(rng):
    _check_duality(rng, 4)


def test_duality_identity_beta_zero(monkeypatch, rng):
    # with lambda_c = 1 > B = 0.5 the boundary exchange kappa Mb keeps the
    # nutrient chord contracting: the "spd" factors are the mass and
    # elasticity matrices and one constant part per trajectory, 1 + 2 per
    # direction
    kinds = _factor_kinds(monkeypatch)
    _check_duality(rng, 3, beta=0.0, B=0.5, kappa=1.0)
    assert kinds.count("spd") == 2 + (1 + 2 * 3)


def test_duality_identity_beta_zero_without_boundary_exchange(monkeypatch, rng):
    # with beta = kappa = 0 the trajectory's constant nutrient part is K + B M,
    # definite by A1, where K + kappa Mb alone would be singular.  Its chord
    # does not contract against lambda_c h = 1 > B, so every nutrient solve
    # factors the operator it iterated with: N in each of the 5 forward solves,
    # in each of the 2 linearised sweeps and in the adjoint sweep, whose
    # terminal level makes no nutrient solve; the mass and elasticity
    # matrices are the other "spd" factors
    kinds = _factor_kinds(monkeypatch)
    _check_duality(rng, 2, beta=0.0, B=0.5, kappa=0.0)
    N, trajectories = 5, 1 + 2 * 2
    assert kinds.count("spd") == 2 + trajectories * (1 + N) + 2 * N + N


def test_stiff_well_converges_through_the_refactor_fallback(monkeypatch, rng):
    # a steep well makes J(0) contract too little: the forward steps refactor
    # at their iterates and the sweeps' solves factor their operators, and
    # the duality identity and the FD gate still hold
    kinds = _factor_kinds(monkeypatch)
    _check_duality(rng, 1, well_scale=50.0)
    assert kinds.count("ch") > 3  # one J(0) factor per trajectory, 3 trajectories


def test_gradient_vs_finite_differences_transpose(rng):
    sysd, phi0, sig0, w, traj, T, N = _setup()
    weights = _weights(sysd.grid)
    space = sysd.control_space(T, N)
    adj = solve_adjoint(sysd, traj, w, weights, "transpose")
    grad = reduced_gradient(sysd, traj, adj, w, weights)

    def j1(wc):
        t = sysd.solve_state(wc, phi0, sig0, T, N)
        return eval_cost(sysd, t, wc, weights)[1]

    eps = 1e-4
    for _ in range(3):
        h = space.random_direction(rng)
        fd = (j1(w.axpy(eps, h)) - j1(w.axpy(-eps, h))) / (2 * eps)
        dj = space.inner(grad.direction(), h)
        assert abs(fd - dj) <= 1e-6 * max(abs(fd), abs(dj))


def test_gradient_continuous_mode_close(rng):
    sysd, phi0, sig0, w, traj, T, N = _setup(nx=8, ny=8, N=16, T=1.0)
    weights = _weights(sysd.grid)
    space = sysd.control_space(T, N)
    grads = {}
    for mode in ("transpose", "continuous"):
        adj = solve_adjoint(sysd, traj, w, weights, mode)
        grads[mode] = reduced_gradient(sysd, traj, adj, w, weights)
    diff = space.norm(grads["transpose"].direction().axpy(
        -1.0, grads["continuous"].direction()))
    ref = space.norm(grads["transpose"].direction())
    assert diff <= 1e-2 * ref


def test_mode_gap_shrinks_under_refinement():
    levels = [(6, 8), (12, 16), (24, 32)]
    gaps = []
    for nx, nsteps in levels:
        sysd, phi0, sig0, w, traj, T, N = _setup(nx=nx, ny=nx, N=nsteps, T=0.5)
        weights = _weights(sysd.grid)
        space = sysd.control_space(T, N)
        gt = reduced_gradient(sysd, traj,
                              solve_adjoint(sysd, traj, w, weights, "transpose"),
                              w, weights)
        gc = reduced_gradient(sysd, traj,
                              solve_adjoint(sysd, traj, w, weights, "continuous"),
                              w, weights)
        gaps.append(space.norm(gt.direction().axpy(-1.0, gc.direction()))
                    / space.norm(gt.direction()))
    assert gaps[1] < gaps[0] and gaps[2] < gaps[1]


def test_gradient_exact_on_anisotropic_grid(rng):
    # rectangular cells and a fully pinned boundary exercise the general
    # assembly paths; the transpose gradient must stay exact
    sysd = make_system(6, 4, Lx=1.5, Ly=0.8,
                       dirichlet="left,right,bottom,top", chi=0.1)
    grid = sysd.grid
    phi0 = tumour_ic(grid, cx=0.75, cy=0.4)
    sig0 = np.full(grid.n_nodes, 1.0)
    N, T = 4, 0.3
    w = interior_controls(sysd, N)
    traj = sysd.solve_state(w, phi0, sig0, T, N)
    weights = _weights(grid)
    space = sysd.control_space(T, N)
    grad = reduced_gradient(sysd, traj,
                            solve_adjoint(sysd, traj, w, weights, "transpose"),
                            w, weights)

    def j1(wc):
        t = sysd.solve_state(wc, phi0, sig0, T, N)
        return eval_cost(sysd, t, wc, weights)[1]

    h = space.random_direction(rng)
    eps = 1e-4
    fd = (j1(w.axpy(eps, h)) - j1(w.axpy(-eps, h))) / (2 * eps)
    dj = space.inner(grad.direction(), h)
    assert abs(fd - dj) <= 1e-6 * max(abs(fd), abs(dj))


def test_modes_close_for_quasistatic_nutrient():
    sysd, phi0, sig0, w, traj, T, N = _setup(nx=8, ny=8, N=16, T=1.0,
                                             beta=0.0, B=0.5, kappa=1.0)
    weights = _weights(sysd.grid)
    space = sysd.control_space(T, N)
    gt = reduced_gradient(sysd, traj,
                          solve_adjoint(sysd, traj, w, weights, "transpose"),
                          w, weights)
    gc = reduced_gradient(sysd, traj,
                          solve_adjoint(sysd, traj, w, weights, "continuous"),
                          w, weights)
    diff = space.norm(gt.direction().axpy(-1.0, gc.direction()))
    assert diff <= 2e-2 * space.norm(gt.direction())


def test_pure_regularisation_gradient(rng):
    sysd, _, _, w, traj, T, N = _setup()
    weights = _weights(sysd.grid, alpha_Q=0.0, alpha_Omega=0.0, alpha_E=0.0)
    adj = solve_adjoint(sysd, traj, w, weights, "transpose")
    grad = reduced_gradient(sysd, traj, adj, w, weights)
    assert np.abs(grad.g1 - weights.gamma1 * w.w1).max() == 0.0
    assert np.abs(grad.g2 - weights.gamma2 * w.w2).max() == 0.0
    assert np.abs(grad.g3 - weights.gamma3 * w.w3).max() == 0.0


def test_adjoint_with_checkpointed_trajectory(tmp_path):
    sysd, phi0, sig0, w, traj, T, N = _setup(N=7)
    weights = _weights(sysd.grid)
    disk = sysd.solve_state(w, phi0, sig0, T, N, storage="disk", every=3,
                            directory=tmp_path)
    adj_mem = solve_adjoint(sysd, traj, w, weights, "transpose")
    adj_disk = solve_adjoint(sysd, disk, w, weights, "transpose")
    for a, b in zip(adj_mem, adj_disk):
        assert np.allclose(a.p, b.p, rtol=0, atol=1e-13)
        assert np.allclose(a.r, b.r, rtol=0, atol=1e-13)


def test_unknown_mode_rejected():
    sysd, _, _, w, traj, T, N = _setup(nx=4, ny=4, N=2, T=0.1)
    with pytest.raises(PreconditionError):
        solve_adjoint(sysd, traj, w, _weights(sysd.grid), "reverse")


def test_incomplete_trajectory_rejected():
    sysd, _, _, w, traj, T, N = _setup(nx=4, ny=4, N=3, T=0.2)
    traj._mem.pop()
    with pytest.raises(Exception):
        solve_adjoint(sysd, traj, w, _weights(sysd.grid), "transpose")
