"""Linearised state system: the exact derivative of the discrete stepping.

The scheme is linearised step by step with the same staggering and lagging as
the forward solver (derivatives of the converged implicit composition step
are taken at the converged iterate), so the resulting propagator is the exact
Jacobian of the discrete control-to-state map.  Its transpose is what the
adjoint module applies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import splu  # noqa: F401 - unused; perfbench/tracing.py rebinds it

from .fem import tensor_dot
from .state import ControlTriple, PreconditionError, StateTrajectory, System


@dataclass
class LinearisedSnapshot:
    xi: np.ndarray      # composition direction
    eta: np.ndarray     # chemical-potential direction
    psi: np.ndarray     # nutrient direction
    v: np.ndarray       # displacement direction (2 nn,)
    t: float


def solve_linearised(system: System, traj: StateTrajectory, w: ControlTriple,
                     direction: ControlTriple) -> list[LinearisedSnapshot]:
    """Propagate a control direction through the linearised dynamics."""
    N = traj.n_steps
    system.check_control_layout(w, N)
    system.check_control_layout(direction, N)
    tau = traj.tau
    p, nl, quad = system.params, system.nl, system.quad
    nn = system.grid.n_nodes

    xi = np.zeros(nn)
    psi = np.zeros(nn)
    out = [LinearisedSnapshot(xi=xi, eta=np.zeros(nn), psi=psi,
                              v=np.zeros(2 * nn), t=0.0)]
    for n in range(1, N + 1):
        j = n - 1
        prev = traj.snapshot(j)
        cur = traj.snapshot(n)
        coef = system.coefficients(prev)
        sig_gp = quad.P @ cur.sigma
        xi_gp = quad.P @ xi

        # nutrient direction (implicit, same operator as the forward step)
        load = (p.kappa * (system.Mb @ system.embed_boundary(direction.w1[:, j]))
                + quad.pair(coef.nutrient_dphi(sig_gp, w.w3[j]) * xi_gp
                            + coef.nutrient_dw3 * direction.w3[j]))
        psi_new = system.solve_nutrient(coef, tau, load, psi)

        # composition direction: exact derivative of the Newton-converged step
        strain_v = quad.strain(out[-1].v)
        dU = (coef.growth_dsigma * (quad.P @ psi_new)
              + coef.growth_dphi(sig_gp, w.w2[j]) * xi_gp
              + tensor_dot(coef.growth_dstress(sig_gp), p.C.apply(strain_v))
              + coef.growth_dw2 * direction.w2[j])
        # the stress coupling (C(E(v) - xi E*), E*) through the operators the
        # adjoint transposes
        rhs1 = (system.M @ xi) / tau + quad.pair(dU)
        rhs2 = (quad.pair(nl.psi2_second(coef.phi) * xi_gp)
                - p.chi * (system.M @ psi_new)
                - (system.BcT @ out[-1].v - system.misfit_curvature * (system.M @ xi)))
        sol = system.solve_ch(cur.phi, tau, np.concatenate([rhs1, rhs2]), "N")
        xi = sol[:nn]
        eta = sol[nn:]
        psi = psi_new
        out.append(LinearisedSnapshot(xi=xi, eta=eta, psi=psi,
                                      v=system.solve_elastic(system.Bc @ xi),
                                      t=n * tau))
    return out


# ---------------------------------------------------------------------------
# Taylor-remainder (quadratic) check of the linearisation
# ---------------------------------------------------------------------------

@dataclass
class FrechetReport:
    eps: np.ndarray
    remainders: np.ndarray
    slope: float

    def rows(self):
        for e, r in zip(self.eps, self.remainders):
            yield e, r


def state_norm(system: System, diffs, tau: float, beta: float) -> float:
    """Discrete norm of a state-direction sequence.

    max-in-time L2 for the composition part, L2-in-time L2 for the potential
    part, L2-in-time H1 for nutrient and displacement (plus max-in-time L2
    for the nutrient when the time derivative is present).
    """
    M, K = system.M, system.K
    N = len(diffs) - 1

    def l2(v):
        return float(v @ (M @ v))

    def h1(v):
        return float(v @ (M @ v) + v @ (K @ v))

    def h1_vec(u):
        ux, uy = u[0::2], u[1::2]
        return h1(ux) + h1(uy)

    phi_part = max(np.sqrt(l2(d.xi)) for d in diffs)
    mu_part = np.sqrt(sum(tau * l2(diffs[n].eta) for n in range(1, N + 1)))
    sig_part = np.sqrt(sum(tau * h1(diffs[n].psi) for n in range(1, N + 1)))
    if beta > 0:
        sig_part = np.hypot(sig_part, max(np.sqrt(l2(d.psi)) for d in diffs))
    u_part = np.sqrt(sum(tau * h1_vec(diffs[n].v) for n in range(1, N + 1)))
    return float(np.sqrt(phi_part ** 2 + mu_part ** 2 + sig_part ** 2 + u_part ** 2))


def frechet_check(system: System, phi0: np.ndarray, sigma0: np.ndarray,
                  T: float, n_steps: int, w: ControlTriple,
                  direction: ControlTriple, eps_list) -> FrechetReport:
    """Measure the Taylor remainder of the control-to-state map.

    The direction is first scaled so that every ``w + eps h`` stays
    admissible.  For each epsilon the remainder
    R = || S(w + eps h) - S(w) - eps DS(w)h || is computed in the discrete
    state norm; the fitted log-log slope should approach 2.
    """
    eps_list = np.asarray(eps_list, dtype=float)
    direction = _shrink(w, direction, float(eps_list.max()))
    tau = T / n_steps
    base = system.solve_state(w, phi0, sigma0, T, n_steps)
    lin = solve_linearised(system, base, w, direction)
    remainders = []
    for eps in eps_list:
        pert = system.solve_state(w.axpy(eps, direction), phi0, sigma0, T, n_steps)
        diffs = []
        for n in range(n_steps + 1):
            a, b, l = pert.snapshot(n), base.snapshot(n), lin[n]
            diffs.append(LinearisedSnapshot(
                xi=a.phi - b.phi - eps * l.xi,
                eta=a.mu - b.mu - eps * l.eta,
                psi=a.sigma - b.sigma - eps * l.psi,
                v=a.u - b.u - eps * l.v, t=n * tau))
        remainders.append(state_norm(system, diffs, tau, system.params.beta))
    remainders = np.asarray(remainders)
    good = remainders > 0
    slope = float(np.polyfit(np.log(eps_list[good]), np.log(remainders[good]), 1)[0]) \
        if good.sum() >= 2 else float("nan")
    return FrechetReport(eps=eps_list, remainders=remainders, slope=slope)


def _shrink(w: ControlTriple, direction: ControlTriple,
            eps_max: float) -> ControlTriple:
    """Scale the direction so that w + eps h stays inside the box."""
    b = w.bounds
    scale = 1.0
    for arr, h, lo, hi in ((w.w1, direction.w1, b.w1_lo, b.w1_hi),
                           (w.w2, direction.w2, b.w2_lo, b.w2_hi),
                           (w.w3, direction.w3, b.w3_lo, b.w3_hi)):
        move = eps_max * np.abs(h)
        room_up = hi - arr
        room_dn = arr - lo
        with np.errstate(divide="ignore", invalid="ignore"):
            f_up = np.where(move > 0, room_up / move, np.inf)
            f_dn = np.where(move > 0, room_dn / move, np.inf)
        scale = min(scale, float(np.min(f_up)), float(np.min(f_dn)))
    if scale <= 0:
        raise PreconditionError("base control has no interior room along the direction")
    return direction.scaled(scale) if scale < 1.0 else direction
