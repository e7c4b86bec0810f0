"""Adjoint sweep and reduced gradient.

Two modes:

* ``transpose`` applies the exact transposes of the per-step linearised
  solves, so the reduced gradient matches finite differences of the smooth
  cost part to solver precision.  This is the mode the optimizer uses.
* ``continuous`` discretizes the adjoint PDE system directly with backward
  implicit Euler, evaluating every coefficient at the snapshot it is
  associated with.  It certifies that the transpose sweep is a consistent
  discretization of the continuous optimality system: the two gradients
  converge to each other under grid/timestep refinement.

Snapshot ``adj[j]`` for ``j < n_steps`` carries the multiplier of step
``j+1`` (continuous-time scale, associated with time ``t_j``); ``adj[N]``
holds the terminal data ``p(T) = alpha_Omega (phi(T) - phi_Omega)``,
``r(T) = 0`` for a dynamic nutrient.  The stored ``s`` of level ``j`` is the
displacement multiplier entering that level's solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import splu  # noqa: F401 - unused; perfbench/tracing.py rebinds it

from .cost import CostWeights, running_cost_sources, terminal_cost_source
from .state import (ControlTriple, PreconditionError, SolverError,
                    StateTrajectory, StepFactors, System)

ADJOINT_MODES = ("transpose", "continuous")


@dataclass
class AdjointSnapshot:
    p: np.ndarray       # composition multiplier
    q: np.ndarray       # potential multiplier
    r: np.ndarray       # nutrient multiplier
    s: np.ndarray       # displacement multiplier (2 nn,)
    t: float
    # dosage sensitivities of control column j, evaluated with the
    # coefficients of snapshot j; NaN on the terminal level
    kp: float = np.nan  # -int growth_dw2 (P p) dx
    hr: float = np.nan  # int nutrient_dw3 (P r) dx


@dataclass
class ReducedGradient:
    """L2-representation of the smooth cost derivative plus the dosage
    sensitivities entering the sparsity conditions."""
    g1: np.ndarray          # (nb, N)
    g2: np.ndarray          # (N,)
    g3: np.ndarray          # (N,)
    kp_integral: np.ndarray  # (N,)  int k(phi) p dx per step
    hr_integral: np.ndarray  # (N,)  int h(phi) r dx per step

    def direction(self) -> ControlTriple:
        return ControlTriple(self.g1, self.g2, self.g3)


def _displacement_source(system: System, coef, sigma_gp, p, q, cost_load):
    """Load of a displacement multiplier: the strain couplings of the
    composition step transposed onto (p, q), plus the running-cost load."""
    quad = system.quad
    growth = (quad.P @ p)[:, None] * coef.growth_dstress(sigma_gp)
    return (system.Bc @ q + quad.pair_stress(system.params.C.apply(growth))
            + cost_load)


def _composition_rhs(system: System, coef, sigma_gp, w2, w3,
                     nxt: AdjointSnapshot, tau: float) -> np.ndarray:
    """Transposed couplings of the following step's (p, q, r) into the
    composition solve of a level; ``coef`` holds that step's lagged state."""
    quad, M = system.quad, system.M
    q_gp = quad.P @ nxt.q
    return ((M @ nxt.p) / tau
            - quad.pair(system.nl.psi2_second(coef.phi) * q_gp)
            - system.misfit_curvature * (M @ nxt.q)
            + quad.pair(coef.growth_dphi(sigma_gp, w2) * (quad.P @ nxt.p))
            + quad.pair(coef.nutrient_dphi(sigma_gp, w3) * (quad.P @ nxt.r)))


def _composition_multipliers(system: System, phi: np.ndarray, rhs1: np.ndarray,
                             factors: StepFactors) -> tuple[np.ndarray, np.ndarray]:
    """(p, q) from the transposed composition Jacobian at ``phi``."""
    nn = system.grid.n_nodes
    sol = system.solve_ch(phi, factors, np.concatenate([rhs1, np.zeros(nn)]), "T")
    # the adjoint block is the Jacobian transpose conjugated by
    # diag(I, -I): solve J^T (x, y) = (rhs1, 0), then (p, q) = (x, -y)
    return sol[:nn], -sol[nn:]


def _nutrient_multiplier(system: System, coef, p, q, r_next,
                         factors: StepFactors) -> np.ndarray:
    """Nutrient multiplier of a step whose lagged coefficients are ``coef``."""
    quad = system.quad
    load = quad.pair(coef.growth_dsigma * (quad.P @ p)) + system.params.chi * (system.M @ q)
    return system.solve_nutrient(coef, factors, load, r_next)


def _terminal_snapshot(system: System, traj: StateTrajectory, weights: CostWeights,
                       coef) -> AdjointSnapshot:
    N = traj.n_steps
    tau = traj.tau
    snap = traj.snapshot(N)
    p_T = terminal_cost_source(weights, snap.phi)
    q_T = system.solve_mass(system.K @ p_T)
    r_T = np.zeros(system.grid.n_nodes)
    if system.params.beta == 0:
        r_T = _nutrient_multiplier(system, coef, p_T, q_T, r_T, traj.factors)
    _, cost_load = running_cost_sources(system, weights, snap, coef, N)
    s_T = system.solve_elastic(_displacement_source(
        system, coef, system.quad.P @ snap.sigma, p_T, q_T, cost_load))
    return AdjointSnapshot(p=p_T, q=q_T, r=r_T, s=s_T, t=N * tau)


def solve_adjoint(system: System, traj: StateTrajectory, w: ControlTriple,
                  weights: CostWeights, mode: str = "transpose") -> list[AdjointSnapshot]:
    """Backward sweep producing multipliers adj[0..N]; see module docstring."""
    if mode not in ADJOINT_MODES:
        raise PreconditionError(f"unknown adjoint mode {mode!r}")
    N = traj.n_steps
    system.check_control_layout(w, N)
    weights.validate_shapes(system.grid.n_nodes, N)
    if len(traj) != N + 1:
        raise SolverError("trajectory is incomplete")
    tau = traj.tau
    quad = system.quad

    out: list[AdjointSnapshot | None] = [None] * (N + 1)
    coef = system.coefficients(traj.snapshot(N))
    out[N] = _terminal_snapshot(system, traj, weights, coef)

    for j in range(N - 1, -1, -1):
        nxt = out[j + 1]
        if mode == "transpose":
            # level j transposes step j+1: its composition solve sits at
            # snapshot j+1, whose coefficients (in ``coef``) are also the
            # lagged ones of step j+2; its nutrient solve is step j+1's
            n = j + 1
            snap = traj.snapshot(n)
            cost_phi, cost_load = running_cost_sources(system, weights, snap, coef, n)
            if n == N:
                s = system.solve_elastic(cost_load)
                rhs1 = cost_phi + (1 / tau) * (system.M @ nxt.p)
            else:
                sig_gp = quad.P @ traj.snapshot(n + 1).sigma
                s = system.solve_elastic(_displacement_source(
                    system, coef, sig_gp, nxt.p, nxt.q, cost_load))
                rhs1 = cost_phi + _composition_rhs(system, coef, sig_gp, w.w2[n],
                                                   w.w3[n], nxt, tau)
            p, q = _composition_multipliers(system, snap.phi,
                                            rhs1 + system.BcT @ s, traj.factors)
            coef = system.coefficients(traj.snapshot(j))
            r = _nutrient_multiplier(system, coef, p, q, nxt.r, traj.factors)
        else:
            snap = traj.snapshot(j)
            coef = system.coefficients(snap)
            sig_gp = quad.P @ snap.sigma
            cost_phi, cost_load = running_cost_sources(system, weights, snap, coef, j)
            rhs1 = (cost_phi + system.BcT @ nxt.s
                    + _composition_rhs(system, coef, sig_gp, w.w2[j], w.w3[j], nxt, tau))
            p, q = _composition_multipliers(system, snap.phi, rhs1, traj.factors)
            r = _nutrient_multiplier(system, coef, p, q, nxt.r, traj.factors)
            s = system.solve_elastic(_displacement_source(
                system, coef, sig_gp, p, q, cost_load))

        kp = -quad.integrate(coef.growth_dw2 * (quad.P @ p))
        hr = quad.integrate(coef.nutrient_dw3 * (quad.P @ r))
        out[j] = AdjointSnapshot(p=p, q=q, r=r, s=s, t=j * tau, kp=kp, hr=hr)
    return out  # type: ignore[return-value]


def reduced_gradient(system: System, traj: StateTrajectory,
                     adj: list[AdjointSnapshot], w: ControlTriple,
                     weights: CostWeights) -> ReducedGradient:
    """Gradient of the smooth cost part in the discrete control metric.

    Reads the multipliers and dosage sensitivities of ``adj`` only; the
    trajectory is not walked, so a disk-checkpointed one is not regenerated.
    """
    N = traj.n_steps
    system.check_control_layout(w, N)
    if len(adj) != N + 1:
        raise PreconditionError("adjoint layout does not match the trajectory")
    reg = weights.regularisation(w)
    # the supply map's transpose pairs each r with the boundary nodes, and the
    # lumped weights turn the pairings into L2(Gamma) values
    trace = system.supply.T @ np.column_stack([a.r for a in adj[:N]])
    reg.w1 += system.params.kappa * trace / system.dgamma[:, None]
    kp = np.array([a.kp for a in adj[:N]])
    hr = np.array([a.hr for a in adj[:N]])
    return ReducedGradient(g1=reg.w1, g2=reg.w2 - kp, g3=reg.w3 + hr,
                           kp_integral=kp, hr_integral=hr)
