import dataclasses
import gc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import tumoropt.constitutive as con
import tumoropt.state as state_mod
from tumoropt import fem
from tumoropt.adjoint import reduced_gradient, solve_adjoint
from tumoropt.config import default_config, load_config
from tumoropt.cost import CostWeights, directional_cost_derivative
from tumoropt.factor import SPLU_OPTIONS
from tumoropt.linearized import solve_linearised
from tumoropt.state import (ControlBounds, ControlTriple, InputRuleError, PreconditionError,
                            SolverError, StateSnapshot, StepFactors, TimestepError)

from conftest import (OffFactor, coefficients_at, interior_controls, make_system,
                      tumour_ic)

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
    dofs = small_system.elastic_order      # the free dofs in the row order of A_red
    rhs = (small_system.Bc @ phi + small_system.load_const)[dofs]
    res = np.linalg.norm(small_system.A_red @ u[dofs] - rhs)
    assert res <= 1e-10 * max(1.0, np.linalg.norm(rhs))


def test_elasticity_dirichlet_rows_pinned(small_system, rng):
    phi = rng.standard_normal(small_system.grid.n_nodes)
    u = small_system.solve_elasticity(phi)
    fixed = fem.dirichlet_dof_mask(small_system.grid)
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
                                        0.0, sysd.step_factors(0.05))
    assert np.abs(phi1 - 0.4).max() < 1e-13


def test_ch_step_mass_conserved_without_sources():
    sysd = make_system(6, 6, lambda_p=0.0, lambda_a=0.0)
    grid = sysd.grid
    phi0 = tumour_ic(grid)
    sigma = np.full(grid.n_nodes, 1.0)
    phi1, _ = sysd.step_cahn_hilliard(phi0, coefficients_at(sysd, phi0), sigma,
                                      0.0, sysd.step_factors(0.02))
    m0 = sysd.integrate_nodal(phi0)
    m1 = sysd.integrate_nodal(phi1)
    assert abs(m1 - m0) <= 1e-10 * max(1.0, abs(m0))


def test_ch_step_newton_divergence_reported(monkeypatch):
    sysd = make_system(4, 4, well_scale=50.0)
    monkeypatch.setattr(state_mod, "NEWTON_MAX_CORRECTIONS", 2)
    grid = sysd.grid
    phi0 = tumour_ic(grid, width=0.08)
    with pytest.raises(TimestepError):
        sysd.step_cahn_hilliard(phi0, coefficients_at(sysd, phi0),
                                np.ones(grid.n_nodes), 0.0, sysd.step_factors(50.0))


def _count_ch_factorizations(monkeypatch, n_nodes):
    """Wrap the solver's ``splu`` and count factorizations of the CH block."""
    calls = []
    orig = state_mod.splu

    def counting(A, **kwargs):
        if A.shape[0] == 2 * n_nodes:
            calls.append(A.shape[0])
        return orig(A, **kwargs)

    monkeypatch.setattr(state_mod, "splu", counting)
    return calls


def test_ch_jacobian_factored_once_per_trajectory(monkeypatch):
    # the trajectory factors J(0) once; every chord Newton step starts from
    # that factor, and on the default config none refactors
    cfg = default_config(grid__nx=8, grid__ny=8, time__steps=8)
    sysd = cfg.build_system()
    phi0, sig0 = cfg.initial_fields(sysd)
    calls = _count_ch_factorizations(monkeypatch, sysd.grid.n_nodes)
    sysd.solve_state(cfg.initial_controls(sysd), phi0, sig0,
                     cfg["time.T"], cfg["time.steps"])
    assert len(calls) == 1


def test_ch_step_stiff_refactors_and_converges(monkeypatch):
    # a steep well makes the J(0) chord contract too little; the step
    # refactors at the current iterate and still meets the Newton tolerance
    sysd = make_system(4, 4, well_scale=50.0)
    grid, quad, nl = sysd.grid, sysd.quad, sysd.nl
    phi0 = tumour_ic(grid, width=0.08)
    sigma = np.ones(grid.n_nodes)
    tau = 5.0
    coef = coefficients_at(sysd, phi0)
    factors = sysd.step_factors(tau)
    calls = _count_ch_factorizations(monkeypatch, grid.n_nodes)
    phi, mu = sysd.step_cahn_hilliard(phi0, coef, sigma, 0.0, factors)
    assert len(calls) >= 1

    FU = quad.pair(coef.growth(quad.P @ sigma, 0.0))
    lagged = (quad.pair(nl.psi2_prime(coef.phi)) + quad.pair(coef.w_phi)
              - sysd.params.chi * (sysd.M @ sigma))

    def residual(phi, mu):
        return np.concatenate([
            sysd.M @ (phi - phi0) / tau + sysd.K @ mu - FU,
            sysd.M @ mu - sysd.K @ phi - quad.pair(nl.psi1_prime(quad.P @ phi)) - lagged])

    mu0 = sysd.solve_mass(sysd.K @ phi0 + quad.pair(nl.psi1_prime(quad.P @ phi0))
                          + lagged)
    scale = max(np.linalg.norm(residual(phi0, mu0)), np.linalg.norm(FU), 1.0)
    assert np.linalg.norm(residual(phi, mu)) <= state_mod.NEWTON_RTOL * scale


def test_newton_start_pairs_the_convex_part_once(monkeypatch):
    # psi1'(P phi) is paired once per Newton residual: the stationary mu of
    # the start and the first residual share one evaluation
    sysd = make_system(5, 5)
    phi0 = tumour_ic(sysd.grid)
    factors = sysd.step_factors(0.05)
    evals, corrections = [], []
    psi1_prime = sysd.nl.psi1_prime
    monkeypatch.setattr(sysd.nl, "psi1_prime", lambda r: evals.append(1) or psi1_prime(r))

    class CountingLU:
        def solve(self, b, trans="N"):
            corrections.append(1)
            return factors.ch.solve(b, trans=trans)

    counting = dataclasses.replace(factors, ch=CountingLU())
    sysd.step_cahn_hilliard(phi0, coefficients_at(sysd, phi0), np.ones(sysd.grid.n_nodes),
                            0.0, counting)
    assert len(corrections) > 0 and len(evals) == len(corrections) + 1


def test_newton_max_iter_bounds_corrections(monkeypatch):
    # a step converging in exactly NEWTON_MAX_CORRECTIONS corrections is accepted
    sysd = make_system(4, 4, well_scale=50.0)
    grid = sysd.grid
    phi0 = tumour_ic(grid, width=0.08)
    solves = []
    orig = state_mod.splu

    class CountingLU:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, b, trans="N"):
            solves.append(1)
            return self.lu.solve(b, trans=trans)

    monkeypatch.setattr(state_mod, "splu", lambda A, **kw: CountingLU(orig(A, **kw)))
    args = (phi0, coefficients_at(sysd, phi0), np.ones(grid.n_nodes), 0.0,
            sysd.step_factors(5.0))
    phi_ref, _ = sysd.step_cahn_hilliard(*args)
    corrections = len(solves)
    monkeypatch.setattr(state_mod, "NEWTON_MAX_CORRECTIONS", corrections)
    phi, _ = sysd.step_cahn_hilliard(*args)
    assert np.array_equal(phi, phi_ref)
    monkeypatch.setattr(state_mod, "NEWTON_MAX_CORRECTIONS", corrections - 1)
    with pytest.raises(TimestepError, match="corrections"):
        sysd.step_cahn_hilliard(*args)


# -- nutrient step ------------------------------------------------------------------

def test_nutrient_elliptic_constant_solution():
    # beta = 0, no consumption, Robin data at the capillary level
    sysd = make_system(6, 5, beta=0.0, B=0.0, kappa=2.0, lambda_c=0.0)
    grid = sysd.grid
    phi = tumour_ic(grid)
    w1 = np.full(grid.n_boundary_nodes, sysd.params.sigma_c)
    sig = sysd.step_nutrient(np.zeros(grid.n_nodes), coefficients_at(sysd, phi),
                             w1, 0.0, sysd.step_factors(0.1))
    assert np.abs(sig - sysd.params.sigma_c).max() < 1e-11


def test_nutrient_parabolic_equilibrium_preserved():
    sysd = make_system(6, 6, beta=1.0, B=0.4, kappa=1.0, lambda_c=0.0)
    grid = sysd.grid
    phi = tumour_ic(grid)
    sig = np.full(grid.n_nodes, sysd.params.sigma_c)
    w1 = np.full(grid.n_boundary_nodes, sysd.params.sigma_c)
    coef = coefficients_at(sysd, phi)
    factors = sysd.step_factors(0.05)
    for _ in range(3):
        sig = sysd.step_nutrient(sig, coef, w1, 0.0, factors)
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
    # lambda_c = 0 admits no dosage w3 > 0 (A5)
    w = sysd.zero_controls(5, ControlBounds(w3_hi=0.0))
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


@pytest.mark.parametrize("name", ["w1", "w2", "w3"])
def test_empty_control_bounds_rejected(name):
    # clipped() into an empty box gave controls that is_admissible() rejects
    with pytest.raises(PreconditionError, match=f"bounds for {name} are empty"):
        ControlBounds(**{f"{name}_lo": 1.0, f"{name}_hi": 0.0})


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


@pytest.mark.parametrize("name", ["phi0", "sigma0"])
def test_initial_fields_need_one_value_per_node(name):
    # a field one entry short stopped in a bare matmul ValueError
    sysd = make_system(4, 4)
    nn = sysd.grid.n_nodes
    fields = {"phi0": np.zeros(nn), "sigma0": np.ones(nn)}
    fields[name] = fields[name][:-1]
    with pytest.raises(InputRuleError, match=f"^{name} needs one value per node") as info:
        sysd.solve_state(sysd.zero_controls(2), fields["phi0"], fields["sigma0"], 0.1, 2)
    assert info.value.name == name


def test_shared_step_factors_fit_the_time_step():
    # runs of one time grid may share their step factors, bitwise to the
    # same trajectory; factors of another time step are refused
    sysd = make_system(4, 4)
    nn = sysd.grid.n_nodes
    args = (sysd.zero_controls(2), tumour_ic(sysd.grid), np.ones(nn), 0.1, 2)
    own = sysd.solve_state(*args)
    shared = sysd.solve_state(*args, factors=sysd.step_factors(0.05))
    for n in range(3):
        for field in ("phi", "mu", "sigma", "u"):
            assert np.array_equal(getattr(own.snapshot(n), field),
                                  getattr(shared.snapshot(n), field))
    with pytest.raises(PreconditionError, match="do not fit the run's tau"):
        sysd.solve_state(*args, factors=sysd.step_factors(0.1))


def test_initial_nutrient_validated():
    sysd = make_system(4, 4)
    w = sysd.zero_controls(2)
    phi0 = np.zeros(sysd.grid.n_nodes)
    bad = np.full(sysd.grid.n_nodes, sysd.params.nutrient_cap + 0.5)
    with pytest.raises(PreconditionError, match="A5"):
        sysd.solve_state(w, phi0, bad, 0.1, 2)


@pytest.mark.parametrize("name", ["w1", "w3"])
def test_negative_lower_control_bound_rejected(name):
    # with w1_lo = -1 and w1 = -1 an 8 x 8, 8-step run read sigma min -0.733
    sysd = make_system(8, 8)
    w = sysd.zero_controls(8, ControlBounds(**{f"{name}_lo": -1.0}))
    getattr(w, name)[:] = -1.0
    nn = sysd.grid.n_nodes
    with pytest.raises(PreconditionError, match=f"{name}_lo must be >= 0.*A5"):
        sysd.solve_state(w, tumour_ic(sysd.grid), np.ones(nn), 1.0, 8)


# unchecked, each runs with sigma above cap or backwards in time, or stops
# with a bare ZeroDivisionError or IndexError
@pytest.mark.parametrize("nx, N, T, bounds, w3_steps, rule", [
    pytest.param(4, 3, 1.0, dict(w3_hi=5.0), 3,
                 r"^w3_hi must be <= lambda_c \* nutrient_cap = 1\.0 .*\(A5\)", id="w3_hi-5"),
    pytest.param(8, 8, 1.0, dict(w1_hi=2.0), 8,
                 r"^w1_hi must be <= supply_bound = 1\.0 .*\(A5\)", id="w1_hi-2"),
    pytest.param(4, 3, -1.0, {}, 3, r"^T must be > 0", id="T-negative"),
    pytest.param(4, 3, 0.0, {}, 3, r"^T must be > 0", id="T-zero"),
    pytest.param(4, 0, 1.0, {}, 0, r"^n_steps must be >= 1", id="steps-zero"),
    pytest.param(4, 3, 1.0, {}, 4, r"^control shapes .*\(4,\)\) do not match", id="w3-long"),
    pytest.param(4, 3, 1.0, {}, 2, r"^control shapes .*\(2,\)\) do not match", id="w3-short"),
])
def test_run_inputs_refused_before_stepping(monkeypatch, nx, N, T, bounds, w3_steps, rule):
    sysd = make_system(nx, nx)
    b = ControlBounds(**bounds)
    w = sysd.zero_controls(N, b)
    w.w1[:], w.w3 = b.w1_hi, np.full(w3_steps, b.w3_hi)

    def advance(*args):
        raise AssertionError("System.advance ran before the inputs were checked")

    monkeypatch.setattr(state_mod.System, "advance", advance)
    nn = sysd.grid.n_nodes
    with pytest.raises(PreconditionError, match=rule):
        sysd.solve_state(w, tumour_ic(sysd.grid), np.ones(nn), T, N)


@pytest.mark.parametrize("name", ["w1", "w2", "w3"])
def test_non_finite_control_refused(monkeypatch, name):
    # unchecked, w2[1] = inf ran a 4 x 4, 3-step run whose step 2 left phi unchanged
    sysd = make_system(4, 4)
    w = interior_controls(sysd, 3)
    getattr(w, name)[..., 1] = np.inf

    def advance(*args):
        raise AssertionError("System.advance ran before the inputs were checked")

    monkeypatch.setattr(state_mod.System, "advance", advance)
    nn = sysd.grid.n_nodes
    with pytest.raises(InputRuleError, match=f"^{name} must hold finite values$") as info:
        sysd.solve_state(w, tumour_ic(sysd.grid), np.ones(nn), 0.3, 3)
    assert info.value.name == name


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("bound", ["w1_lo", "w2_hi", "w3_hi"])
def test_non_finite_control_bound_refused(bound, value):
    # unchecked, w2_hi = nan passed both box checks, and random_admissible drew
    # NaN dosages that stopped as a TimestepError blaming the time step
    with pytest.raises(InputRuleError, match=f"^{bound} must be finite; got {value!r}$") as info:
        ControlBounds(**{bound: value})
    assert info.value.name == bound


def test_overflowed_newton_residual_fails_the_step():
    # the residual norm overflowed to inf, and so did its scale, so the start
    # iterate read as converged and the run finished with phi never changing.
    # No correction was made, so the failure blames the inputs, not the time
    # step, and the overflow of the norms is not printed as a warning
    cfg = default_config(grid__nx=4, grid__ny=4, time__steps=3, control__w2_max=1e300,
                         control__initial="constant:0.5,1e300,0.4")
    sysd = cfg.build_system()
    phi0, sigma0 = cfg.initial_fields(sysd)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SolverError, match=r"^step 1 \(t = 0\.333333\): composition "
                                              r"step's starting residual is not finite "
                                              r"\(norm inf, ") as info:
            sysd.solve_state(cfg.initial_controls(sysd), phi0, sigma0, cfg["time.T"], 3)
    assert type(info.value) is not TimestepError
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("sweep", ["linearised-w", "linearised-direction", "adjoint",
                                   "gradient", "cost-derivative-w",
                                   "cost-derivative-direction"])
def test_sweeps_refuse_w3_of_wrong_length(sweep):
    # unchecked, each stops with an IndexError inside the sweep, or returns a
    # g3 one step short
    sysd = make_system(4, 4)
    N = 3
    w = interior_controls(sysd, N)
    traj = sysd.solve_state(w, tumour_ic(sysd.grid), np.ones(sysd.grid.n_nodes), 0.3, N)
    weights = CostWeights()
    adj = solve_adjoint(sysd, traj, w, weights)
    lin = solve_linearised(sysd, traj, w, w)
    bad = ControlTriple(w.w1, w.w2, w.w3[:-1], w.bounds)
    calls = {"linearised-w": lambda: solve_linearised(sysd, traj, bad, w),
             "linearised-direction": lambda: solve_linearised(sysd, traj, w, bad),
             "adjoint": lambda: solve_adjoint(sysd, traj, bad, weights),
             "gradient": lambda: reduced_gradient(sysd, traj, adj, bad, weights),
             "cost-derivative-w": lambda: directional_cost_derivative(
                 sysd, traj, bad, weights, lin, w),
             "cost-derivative-direction": lambda: directional_cost_derivative(
                 sysd, traj, w, weights, lin, bad)}
    with pytest.raises(PreconditionError, match=r"^control shapes .*\(2,\)\) do not match"):
        calls[sweep]()


def test_solver_failure_names_its_step(monkeypatch):
    sysd = make_system(4, 4, well_scale=50.0)
    monkeypatch.setattr(state_mod, "NEWTON_MAX_CORRECTIONS", 2)
    nn = sysd.grid.n_nodes
    with pytest.raises(TimestepError, match=r"^step 1 \(t = 50\): composition Newton"):
        sysd.solve_state(sysd.zero_controls(2), tumour_ic(sysd.grid), np.ones(nn), 100.0, 2)


def test_non_finite_state_names_its_step_once(monkeypatch):
    sysd = make_system(4, 4)
    nn = sysd.grid.n_nodes
    monkeypatch.setattr(sysd, "step_cahn_hilliard",
                        lambda *args: (np.full(nn, np.nan), np.zeros(nn)))
    with pytest.raises(SolverError, match=r"^step 1 \(t = 0\.05\): non-finite state$"):
        sysd.solve_state(sysd.zero_controls(2), np.zeros(nn), np.ones(nn), 0.1, 2)


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
    p = sysd.params
    for n in range(1, N + 1):
        prev, cur = traj.snapshot(n - 1), traj.snapshot(n)
        phi_gp = quad.P @ prev.phi
        stress_gp = np.asarray(
            quad.strain(prev.u) - p.bar_strain - phi_gp[:, None] * p.misfit_strain)
        U_gp = (p.lambda_p * (quad.P @ cur.sigma) * con.smoothstep(phi_gp)
                * con.g_stress(p.C.apply(stress_gp))
                - (p.lambda_a + w.w2[n - 1]) * con.smoothstep(phi_gp))
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
    # regeneration steps through the loop of the forward solve, so every
    # stored and regenerated snapshot equals the in-memory one bitwise,
    # whichever way the trajectory is walked
    for name, walk in (("forwards", range(N + 1)), ("backwards", range(N, -1, -1))):
        disk = sysd.solve_state(w, phi0, sig0, T, N, storage="disk", every=3,
                                directory=tmp_path / name)
        for n in walk:
            a, b = disk.snapshot(n), mem.snapshot(n)
            for field in ("phi", "mu", "sigma", "u", "t"):
                assert np.array_equal(getattr(a, field), getattr(b, field)), (name, n, field)
        assert (tmp_path / name / "index.txt").exists()


def test_iterated_solves_take_at_most_nine_factor_solves(monkeypatch, rng):
    # each chord correction with the trajectory's factors contracts the
    # residual tenfold, so on the default config every solve_nutrient and
    # solve_ch, either way, reaches round-off in at most 9 solves with its
    # factor, and none factors its own operator
    class Counting:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, b, trans="N"):
            calls.append(1)
            return self.lu.solve(b, trans=trans)

    calls, per_solve, factored = [], {}, []
    cfg = default_config(grid__nx=8, grid__ny=8)
    sysd = cfg.build_system()
    phi0, sig0 = cfg.initial_fields(sysd)
    w = cfg.initial_controls(sysd)
    T, N = cfg["time.T"], cfg["time.steps"]
    made = sysd.step_factors(T / N)
    factors = StepFactors(made.tau, Counting(made.ch), Counting(made.nutrient))
    for name in ("solve_nutrient", "solve_ch"):
        def counted(self, *args, _method=getattr(type(sysd), name), _name=name):
            before = len(calls)
            x = _method(self, *args)
            trans = args[3] if _name == "solve_ch" else "N"
            per_solve.setdefault((_name, trans), []).append(len(calls) - before)
            return x
        monkeypatch.setattr(type(sysd), name, counted)
    orig = state_mod.splu
    monkeypatch.setattr(state_mod, "splu", lambda A, **kw: factored.append(1) or orig(A, **kw))
    traj = sysd.solve_state(w, phi0, sig0, T, N, factors=factors)
    solve_linearised(sysd, traj, w, sysd.control_space(T, N).random_direction(rng))
    solve_adjoint(sysd, traj, w, cfg.build_weights(sysd))
    assert sorted(per_solve) == [("solve_ch", "N"), ("solve_ch", "T"), ("solve_nutrient", "N")]
    assert max(max(counts) for counts in per_solve.values()) <= 9
    assert factored == []


def test_advance_builds_only_the_nutrient_operator(monkeypatch):
    # the nutrient solve iterates with its assembled operator, and the chord
    # Newton reaches its tolerance from the trajectory's factor of J(0), so a
    # step builds one compressed matrix, the nutrient operator
    import scipy.sparse._compressed as compressed

    cfg = default_config(grid__nx=6, grid__ny=6)
    sysd = cfg.build_system()
    phi0, sig0 = cfg.initial_fields(sysd)
    coef = coefficients_at(sysd, phi0)
    snap = StateSnapshot(phi=phi0, mu=None, sigma=sig0, u=sysd.solve_elasticity(phi0),
                         t=0.0)
    factors = sysd.step_factors(cfg["time.T"] / cfg["time.steps"])
    built = []
    init = compressed._cs_matrix.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append((type(self).__name__, self.shape))

    monkeypatch.setattr(compressed._cs_matrix, "__init__", counting)
    operators = []
    operator = type(sysd).nutrient_operator
    monkeypatch.setattr(type(sysd), "nutrient_operator",
                        lambda self, *args: operators.append(1) or operator(self, *args))
    sysd.advance(snap, coef, cfg.initial_controls(sysd), 1, factors)
    n = sysd.grid.n_nodes
    assert built == [("csc_matrix", (n, n))] and operators == [1]


# -- factor ordering ---------------------------------------------------------------

def _natural(A, order):
    """``A`` renumbered from ``order`` (row k is unknown ``order[k]``) to the natural order."""
    back = np.argsort(order)
    return A[back][:, back].tocsc()


def _fill(A, **options):
    lu = spla.splu(A, **options)
    return lu.L.nnz + lu.U.nnz


@pytest.mark.parametrize("n", [32, 64])
def test_nested_dissection_fills_less_than_minimum_degree(n):
    # both orders factor the same values: the operators' own values times a
    # fixed random factor in [0.999, 1.001], so that no entry cancels to an
    # exact zero in one order and not in the other
    cfg = default_config(grid__nx=n, grid__ny=n)
    sysd = cfg.build_system()
    phi0, _ = cfg.initial_fields(sysd)
    tau = 1.0 / 64
    rng = np.random.default_rng(7)
    cases = [("ch", sysd.ch_jacobian(phi0, tau), sysd.ch_order),
             ("spd", sysd.nutrient_operator(coefficients_at(sysd, phi0), tau),
              sysd.node_order)]
    for kind, A, order in cases:
        A.data *= rng.uniform(0.999, 1.001, A.nnz)
        mmd = dict(SPLU_OPTIONS[kind], permc_spec="MMD_AT_PLUS_A")
        assert _fill(A, **SPLU_OPTIONS[kind]) < _fill(_natural(A, order), **mmd), kind


def test_solves_match_spsolve_on_the_natural_matrix(rng):
    sysd = make_system(7, 5, Lx=1.2, dirichlet="left,top", chi=0.1)
    nn, tau = sysd.grid.n_nodes, 0.05
    phi = tumour_ic(sysd.grid, cx=0.4)
    coef = coefficients_at(sysd, phi)

    def close(x, ref):
        return np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)

    factors = sysd.step_factors(tau)
    A = _natural(sysd.nutrient_operator(coef, tau), sysd.node_order)
    load, prev = rng.standard_normal(nn), rng.standard_normal(nn)
    ref = spla.spsolve(A, load + (sysd.params.beta / tau) * (sysd.M @ prev))
    assert close(sysd.solve_nutrient(coef, factors, load, prev), ref)

    J = _natural(sysd.ch_jacobian(phi, tau), sysd.ch_order)
    b = rng.standard_normal(2 * nn)
    assert close(sysd.solve_ch(phi, factors, b, "N"), spla.spsolve(J, b))
    assert close(sysd.solve_ch(phi, factors, b, "T"), spla.spsolve(J.T.tocsc(), b))
    assert close(sysd.solve_mass(load), spla.spsolve(sysd.M, load))


def test_composition_and_mass_solves_are_checked(monkeypatch, rng):
    # the sweeps' composition solves, either way, and the mass solves were
    # unchecked.  The mass and elasticity factors, built with the System,
    # are off by 1e-6, which their direct solves must catch; the iterated
    # composition solves correct that, so their factors do not contract
    orig = state_mod.splu
    monkeypatch.setattr(state_mod, "splu", lambda A, **kw: OffFactor(orig(A, **kw)))
    sysd = make_system(4, 4)
    monkeypatch.setattr(state_mod, "splu", lambda A, **kw: OffFactor(orig(A, **kw), 3.0))
    nn = sysd.grid.n_nodes
    phi = tumour_ic(sysd.grid)
    factors = sysd.step_factors(0.1)
    for trans in ("N", "T"):
        with pytest.raises(SolverError, match="composition solve failed"):
            sysd.solve_ch(phi, factors, rng.standard_normal(2 * nn), trans)
    with pytest.raises(SolverError, match="mass solve failed"):
        sysd.solve_mass(rng.standard_normal(nn))
    with pytest.raises(SolverError, match="elasticity solve failed"):
        sysd.solve_elastic(rng.standard_normal(2 * nn))


def test_solve_state_leaves_no_factor_in_a_reference_cycle():
    # a factor kept alive by a reference cycle would stay in memory until the
    # cyclic collector runs; SuperLU objects are not tracked by the collector,
    # so look for them among the referents of the unreachable objects
    cfg = default_config(grid__nx=6, grid__ny=6, time__steps=5)
    sysd = cfg.build_system()
    phi0, sig0 = cfg.initial_fields(sysd)
    controls = cfg.initial_controls(sysd)
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        sysd.solve_state(controls, phi0, sig0, cfg["time.T"], cfg["time.steps"])
        gc.collect()
        held = [r for obj in gc.garbage for r in gc.get_referents(obj)
                if isinstance(r, spla.SuperLU)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert not held


@pytest.mark.parametrize("storage", ["memory", "disk"])
def test_trajectory_factors_are_freed_with_it(monkeypatch, tmp_path, rng, storage):
    # the trajectory owns its step factors; after the linearised and adjoint
    # sweeps over it nothing else holds them, and no reference cycle does, so
    # they go with the trajectory, without the cyclic collector
    class Factor:  # a SuperLU object takes no weak reference
        def __init__(self, lu):
            self.solve = lu.solve

    made = []
    orig = state_mod.splu

    def factor(A, **kwargs):
        made.append(Factor(orig(A, **kwargs)))
        return made[-1]

    sysd = make_system(4, 4, chi=0.1)
    N, T = 4, 0.4
    w = interior_controls(sysd, N)
    monkeypatch.setattr(state_mod, "splu", factor)
    kept = dict(storage="disk", every=2, directory=tmp_path) if storage == "disk" else {}
    traj = sysd.solve_state(w, tumour_ic(sysd.grid), np.ones(sysd.grid.n_nodes), T, N,
                            **kept)
    solve_linearised(sysd, traj, w, sysd.control_space(T, N).random_direction(rng))
    solve_adjoint(sysd, traj, w, CostWeights())
    refs = [weakref.ref(f) for f in made]
    made.clear()
    assert len(refs) == 2 and all(r() is not None for r in refs)
    gc.disable()
    try:
        del traj
        assert all(r() is None for r in refs)
    finally:
        gc.enable()


def _final_fields(nx: int, steps: int, T: float = 0.05) -> dict:
    """Final (phi, sigma, u) of the default config on an nx x nx grid, with
    u as one row per node, zero at x < Lx/4: next to the corners where the
    clamped edge meets a free one, its max difference converges at order
    0.6-0.8 only."""
    cfg = default_config(grid__nx=nx, grid__ny=nx, time__T=T, time__steps=steps)
    sysd = cfg.build_system()
    phi0, sig0 = cfg.initial_fields(sysd)
    snap = sysd.solve_state(cfg.initial_controls(sysd), phi0, sig0, T, steps).final()
    away = sysd.grid.nodes[:, 0] >= 0.25 * sysd.grid.Lx
    return {"phi": snap.phi, "sigma": snap.sigma,
            "u": np.where(away[:, None], snap.u.reshape(-1, 2), 0.0)}


def _finest_pair_orders(levels: list[dict], take) -> dict:
    """log2 of the ratio of the last two successive max differences per
    field; ``take(k)`` indexes level k+1 at the nodes of level k."""
    diffs = {name: [] for name in levels[0]}
    for k, (coarse, fine) in enumerate(zip(levels, levels[1:])):
        for name, d in diffs.items():
            d.append(np.abs(coarse[name] - fine[name][take(k)]).max())
    return {name: float(np.log2(d[-2] / d[-1])) for name, d in diffs.items()}


def test_forward_solve_converges_at_its_design_order():
    # Richardson self-convergence (Roache, AIAA J. 36, 1998) of the final
    # state: successive max differences shrink by 2^p, p = 2 in space
    # (bilinear elements) and 1 in time (implicit Euler).  The bands come
    # from 12 initial tumours and constant controls at these grids, where the
    # finest-pair orders were 1.93-2.20 (phi), 1.96-2.01 (sigma) and
    # 1.69-1.89 (u) in space, 1.02-1.30, 0.96-1.19 and 1.01-1.31 in time.
    def coarse_nodes(k):
        line = 2 * np.arange(8 * 2 ** k + 1)
        return (line[None, :] + line[:, None] * (line[-1] + 1)).ravel()

    orders = _finest_pair_orders([_final_fields(nx, 8) for nx in (8, 16, 32, 64)],
                                 coarse_nodes)
    assert all(1.7 <= p <= 2.3 for p in orders.values()), orders
    orders = _finest_pair_orders([_final_fields(16, n) for n in (4, 8, 16, 32)],
                                 lambda k: slice(None))
    assert all(0.8 <= p <= 1.4 for p in orders.values()), orders
