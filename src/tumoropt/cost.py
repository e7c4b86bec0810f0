"""Cost functional: tracking + stress load + control regularisation.

Time integrals use the right-endpoint rectangle rule matching the implicit
stepping, so the objective is an exact function of the discrete trajectory
and the adjoint gradient is exact as well.  The smooth part J1 carries the
quadratic terms, J2 the L1 dosage terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constitutive import GaussCoefficients
from .fem import tensor_dot, tensor_norm2
from .state import ControlSpace, ControlTriple, InputRuleError, StateTrajectory, System


class CostConfigError(ValueError):
    pass


@dataclass
class CostWeights:
    """Weights and targets of the objective.

    ``phi_Q`` may be a single field (held fixed in time) or one row per
    snapshot, shape (n_steps + 1, n_nodes).
    """
    alpha_Q: float = 0.0
    alpha_Omega: float = 1.0
    alpha_E: float = 0.0
    gamma1: float = 0.1
    gamma2: float = 0.1
    gamma3: float = 0.1
    gamma4: float = 0.0
    gamma5: float = 0.0
    phi_Q: np.ndarray = field(default_factory=lambda: np.zeros(1))
    phi_Omega: np.ndarray = field(default_factory=lambda: np.zeros(1))

    def __post_init__(self):
        vals = [self.alpha_Q, self.alpha_Omega, self.alpha_E,
                self.gamma1, self.gamma2, self.gamma3, self.gamma4, self.gamma5]
        if not all(0 <= v < np.inf for v in vals):
            raise CostConfigError("cost weights must be finite and non-negative (A7)")
        if all(v == 0 for v in vals):
            raise CostConfigError("cost weights must not all vanish (A7)")
        if self.gamma4 > 0 and self.gamma2 <= 0:
            raise CostConfigError(
                "gamma2 must be positive when gamma4 is positive (A7)")
        if self.gamma5 > 0 and self.gamma3 <= 0:
            raise CostConfigError(
                "gamma3 must be positive when gamma5 is positive (A7)")
        self.phi_Q = np.asarray(self.phi_Q, dtype=float)
        self.phi_Omega = np.asarray(self.phi_Omega, dtype=float)
        for name in ("phi_Q", "phi_Omega"):
            if not np.isfinite(getattr(self, name)).all():
                raise InputRuleError(name, "must hold finite values")

    def regularisation(self, w: ControlTriple) -> ControlTriple:
        """(gamma1 w1, gamma2 w2, gamma3 w3): the L2 representative of the
        derivative of the quadratic control terms of J1."""
        return ControlTriple(self.gamma1 * w.w1, self.gamma2 * w.w2,
                             self.gamma3 * w.w3, w.bounds)

    def target_Q(self, n: int) -> np.ndarray:
        if self.phi_Q.ndim == 2:
            return self.phi_Q[n]
        return self.phi_Q

    def validate_shapes(self, n_nodes: int, n_steps: int) -> None:
        if self.phi_Q.ndim == 2:
            if self.phi_Q.shape != (n_steps + 1, n_nodes):
                raise CostConfigError(
                    f"space-time target has shape {self.phi_Q.shape}, "
                    f"expected {(n_steps + 1, n_nodes)}")
        elif self.phi_Q.size not in (1, n_nodes):
            raise CostConfigError(
                f"target field has {self.phi_Q.size} entries, expected {n_nodes}")
        if self.phi_Omega.size not in (1, n_nodes):
            raise CostConfigError(
                f"final-time target has {self.phi_Omega.size} entries, "
                f"expected {n_nodes}")


def stress_load_density(coef: GaussCoefficients) -> np.ndarray:
    """n(x, phi) |W_E|^2 at the Gauss points."""
    return coef.n * tensor_norm2(coef.stress)


def stress_load_partials(coef: GaussCoefficients) -> tuple[np.ndarray, np.ndarray]:
    """Partials of n(x, phi) |W_E|^2 / 2 at fixed strain: d/dphi, through n
    and the misfit stress -C E*, and d/dW_E in Voigt form."""
    d_phi = (0.5 * coef.dn * tensor_norm2(coef.stress)
             - coef.n * tensor_dot(coef.stress, coef.params.misfit_stress))
    return d_phi, coef.n[..., None] * coef.stress


def eval_cost(system: System, traj: StateTrajectory, w: ControlTriple,
              weights: CostWeights) -> tuple[float, float, float]:
    """Return (J, J1, J2) for a trajectory produced by ``w``."""
    weights.validate_shapes(system.grid.n_nodes, traj.n_steps)
    tau = traj.tau
    N = traj.n_steps
    M = system.M
    J1 = 0.0
    if weights.alpha_Omega > 0:
        d = traj.snapshot(N).phi - weights.phi_Omega
        J1 += 0.5 * weights.alpha_Omega * float(d @ (M @ d))
    if weights.alpha_Q > 0 or weights.alpha_E > 0:
        for n in range(1, N + 1):
            snap = traj.snapshot(n)
            if weights.alpha_Q > 0:
                d = snap.phi - weights.target_Q(n)
                J1 += 0.5 * weights.alpha_Q * tau * float(d @ (M @ d))
            if weights.alpha_E > 0:
                J1 += 0.5 * weights.alpha_E * tau * system.quad.integrate(
                    stress_load_density(system.coefficients(snap)))
    J1 += 0.5 * ControlSpace(system.dgamma, tau, N).inner(weights.regularisation(w), w)
    J2 = (weights.gamma4 * tau * float(np.abs(w.w2).sum())
          + weights.gamma5 * tau * float(np.abs(w.w3).sum()))
    return J1 + J2, J1, J2


def terminal_cost_source(weights: CostWeights, phi: np.ndarray) -> np.ndarray:
    """alpha_Omega (phi(T) - phi_Omega): the final-time cost's derivative in
    phi(T), whose mass pairing with a direction is the derivative along it,
    and the terminal composition multiplier p(T)."""
    return weights.alpha_Omega * (phi - weights.phi_Omega)


def running_cost_sources(system: System, weights: CostWeights, snap,
                         coef: GaussCoefficients, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sources of the running cost at snapshot n, whose coefficients are
    ``coef``: the nodal pairing of its phi-derivative at fixed strain, and
    the displacement load of its strain derivative.

    The phi part is alpha_Q (phi - phi_Q) plus alpha_E times the phi-partial
    of the stress load; the load pairs alpha_E n(x, phi) C W_E with E(eta).
    """
    quad = system.quad
    phi_source = np.zeros(system.grid.n_nodes)
    load = np.zeros(2 * system.grid.n_nodes)
    if weights.alpha_Q > 0:
        phi_source += weights.alpha_Q * (system.M @ (snap.phi - weights.target_Q(n)))
    if weights.alpha_E > 0:
        d_phi, d_stress = stress_load_partials(coef)
        phi_source += weights.alpha_E * quad.pair(d_phi)
        load = quad.pair_stress(weights.alpha_E * system.params.C.apply(d_stress))
    return phi_source, load


def directional_cost_derivative(system: System, traj: StateTrajectory,
                                w: ControlTriple, weights: CostWeights,
                                lin_snaps, direction) -> float:
    """Chain-rule derivative of J1 through a linearised trajectory: the
    running-cost sources that the adjoint reads, paired with the linearised
    states, plus the final-time and control terms.  It uses no adjoint
    multiplier, so it cross-checks the reduced gradient (duality identity)."""
    tau = traj.tau
    N = traj.n_steps
    total = float(terminal_cost_source(weights, traj.snapshot(N).phi)
                  @ (system.M @ lin_snaps[N].xi))
    for n in range(1, N + 1):
        snap = traj.snapshot(n)
        coef = system.coefficients(snap) if weights.alpha_E > 0 else None
        phi_source, load = running_cost_sources(system, weights, snap, coef, n)
        total += tau * (float(phi_source @ lin_snaps[n].xi) + float(load @ lin_snaps[n].v))
    space = ControlSpace(system.dgamma, tau, N)
    return total + space.inner(weights.regularisation(w), direction)
