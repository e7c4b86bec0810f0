"""Proximal projected-gradient minimisation over the admissible box.

The smooth cost part is handled by its adjoint gradient, the L1 dosage terms
and the box through their exact pointwise prox (soft-threshold then clamp).
Backtracking keeps the cost history monotone; a Barzilai-Borwein guess warms
up each line search.  Stationarity is measured as the unit-step prox
fixed-point gap, which vanishes exactly at points satisfying the discrete
first-order conditions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adjoint import ReducedGradient, reduced_gradient, solve_adjoint
from .cost import CostWeights, eval_cost
from .state import (ControlSpace, ControlTriple, PreconditionError,
                    SolverError, StateTrajectory, System)


# the finite-difference gradient gate: random directions, central-difference
# half-width and the relative error it tolerates
GATE_DIRECTIONS = 3
GATE_EPS = 1e-4
GATE_RTOL = 1e-6
# the line search: sufficient-decrease factor and halvings before it stagnates
ARMIJO = 1e-4
MAX_HALVINGS = 40
# a dosage at most ZERO_TOL in magnitude counts as zero; a dual quantity
# within BOUNDARY_SLACK (relative) of its threshold is on the boundary of
# the zero-set characterisation
ZERO_TOL = 1e-10
BOUNDARY_SLACK = 1e-8


class GateError(SolverError):
    """The adjoint gradient failed its finite-difference gate."""


def _soft_threshold(z: np.ndarray, a: float) -> np.ndarray:
    return np.sign(z) * np.maximum(np.abs(z) - a, 0.0)


@dataclass(frozen=True)
class _Dosage:
    """One L1-regularised dosage: it vanishes where its signed dual, ``int
    k(phi) p`` for ``w2`` and ``-int h(phi) r`` for ``w3``, is at most ``l1``."""
    name: str
    values: np.ndarray
    dual: np.ndarray | None
    l2: float
    l1: float
    lo: float | np.ndarray
    hi: float | np.ndarray


def _dosages(w: ControlTriple, weights: CostWeights,
             grad: ReducedGradient | None) -> tuple[_Dosage, _Dosage]:
    """The per-dosage table at ``w``; without ``grad`` the duals are None."""
    b = w.bounds
    kp, hr = (None, None) if grad is None else (grad.kp_integral, -grad.hr_integral)
    return (_Dosage("w2", w.w2, kp, weights.gamma2, weights.gamma4, b.w2_lo, b.w2_hi),
            _Dosage("w3", w.w3, hr, weights.gamma3, weights.gamma5, b.w3_lo, b.w3_hi))


def prox_project(w: ControlTriple, g, step: float,
                 weights: CostWeights) -> ControlTriple:
    """One proximal step: gradient descent, L1 shrinkage, box projection.

    The composite soft-threshold-then-clamp is the exact prox of
    ``step * (gamma4 |w2| + gamma5 |w3|)`` plus the box indicator because the
    one-dimensional objectives are unimodal.
    """
    if step <= 0:
        raise PreconditionError("prox step must be positive")
    d = g.direction() if isinstance(g, ReducedGradient) else g
    b = w.bounds
    # "+ 0.0" normalises negative zeros produced by the shrinkage
    w1 = np.clip(w.w1 - step * d.w1, b.w1_lo, b.w1_hi) + 0.0
    w2, w3 = (np.clip(_soft_threshold(dos.values - step * h, step * dos.l1),
                      dos.lo, dos.hi) + 0.0
              for dos, h in zip(_dosages(w, weights, None), (d.w2, d.w3)))
    return ControlTriple(w1, w2, w3, b)


def stationarity_residual(space: ControlSpace, w: ControlTriple, g,
                          weights: CostWeights) -> float:
    """Norm of the unit-step prox fixed-point gap; zero iff stationary."""
    prox = prox_project(w, g, 1.0, weights)
    return space.norm(w.axpy(-1.0, prox))


# ---------------------------------------------------------------------------
# reduced problem
# ---------------------------------------------------------------------------

@dataclass
class ControlProblem:
    """Reduced optimal-control problem over the discrete control space."""
    system: System
    phi0: np.ndarray
    sigma0: np.ndarray
    T: float
    n_steps: int
    weights: CostWeights

    def __post_init__(self):
        self.space = self.system.control_space(self.T, self.n_steps)
        # every solve of the problem has its time step, so they share one pair
        self.factors = self.system.step_factors(self.space.tau)

    def solve(self, w: ControlTriple) -> StateTrajectory:
        return self.system.solve_state(w, self.phi0, self.sigma0, self.T,
                                       self.n_steps, factors=self.factors)

    def cost(self, w: ControlTriple):
        traj = self.solve(w)
        return eval_cost(self.system, traj, w, self.weights), traj

    def gradient(self, w: ControlTriple,
                 traj: StateTrajectory | None = None) -> ReducedGradient:
        """Reduced gradient from the transpose adjoint: line searches at
        these tolerances need the exact discrete derivative, the continuous
        mode is a fidelity diagnostic only."""
        traj = traj if traj is not None else self.solve(w)
        adj = solve_adjoint(self.system, traj, w, self.weights, "transpose")
        return reduced_gradient(self.system, traj, adj, w, self.weights)

    def smooth_cost(self, w: ControlTriple) -> float:
        (j, j1, j2), _ = self.cost(w)
        return j1


def central_difference_checks(problem: ControlProblem, w: ControlTriple,
                              grads: list[ReducedGradient],
                              rng: np.random.Generator):
    """Central differences of the smooth cost at ``w`` with half-width
    ``GATE_EPS`` along ``GATE_DIRECTIONS`` random directions drawn from
    ``rng``, against each gradient of ``grads``.

    Returns one ``(fd, [(dj, relative_error) per gradient])`` per direction.
    """
    space = problem.space
    out = []
    for _ in range(GATE_DIRECTIONS):
        h = space.random_direction(rng)
        fd = (problem.smooth_cost(w.axpy(GATE_EPS, h))
              - problem.smooth_cost(w.axpy(-GATE_EPS, h))) / (2 * GATE_EPS)
        checks = []
        for grad in grads:
            dj = space.inner(grad.direction(), h)
            checks.append((dj, abs(fd - dj) / max(abs(fd), abs(dj), 1e-14)))
        out.append((fd, checks))
    return out


def gradient_fd_gate(problem: ControlProblem, w: ControlTriple,
                     grad: ReducedGradient, rng: np.random.Generator) -> list[float]:
    """Compare the adjoint gradient against central differences of the
    smooth cost; raises GateError beyond ``GATE_RTOL``."""
    checks = central_difference_checks(problem, w, [grad], rng)
    errors = [rel for _, [(_, rel)] in checks]
    worst = max(errors)
    if worst > GATE_RTOL:
        raise GateError(
            f"adjoint gradient failed the finite-difference gate: "
            f"relative error {worst:.3e} > {GATE_RTOL:.1e}")
    return errors


# ---------------------------------------------------------------------------
# optimisation loop
# ---------------------------------------------------------------------------

@dataclass
class IterateRecord:
    iteration: int
    J: float
    J1: float
    J2: float
    step: float
    residual: float
    halvings: int


@dataclass
class OptimizationReport:
    """Outcome of ``optimize``; ``trajectory`` and ``gradient`` belong to
    the final ``controls``."""
    history: list[IterateRecord]
    controls: ControlTriple
    trajectory: StateTrajectory
    gradient: ReducedGradient
    converged: bool
    stagnated: bool
    message: str
    residual: float
    lambda2: np.ndarray | None = None
    lambda3: np.ndarray | None = None


@dataclass
class OptimizeOptions:
    max_iterations: int = 200
    tol: float = 1e-8
    gate: bool = True
    seed: int = 0


def _default_step(weights: CostWeights) -> float:
    gammas = [gv for gv in (weights.gamma1, weights.gamma2, weights.gamma3)
              if gv > 0]
    return 1.0 / min(gammas) if gammas else 1.0


def optimize(problem: ControlProblem, w0: ControlTriple,
             opts: OptimizeOptions | None = None) -> OptimizationReport:
    """Minimise J1 + J2 over the admissible box from ``w0``."""
    opts = opts or OptimizeOptions()
    if not w0.is_admissible(tol=1e-14):
        raise PreconditionError("initial control is not admissible")
    space = problem.space
    weights = problem.weights
    rng = np.random.default_rng(opts.seed)

    w = w0.copy()
    (J, J1, J2), traj = problem.cost(w)
    grad = problem.gradient(w, traj)
    if opts.gate:
        gradient_fd_gate(problem, w, grad, rng)

    step0 = _default_step(weights)
    step_guess = step0
    history: list[IterateRecord] = []
    converged = False
    stagnated = False
    message = "iteration limit reached"
    last_step = 0.0
    last_halvings = 0
    residual = stationarity_residual(space, w, grad, weights)
    # relative stopping rule, floored so well-scaled problems read absolutely
    threshold = opts.tol * max(1.0, residual)

    # the last pass only records the final iterate and tests it
    for it in range(1, opts.max_iterations + 2):
        history.append(IterateRecord(it, J, J1, J2, last_step, residual,
                                     last_halvings))
        if residual <= threshold:
            converged = True
            message = f"stationarity residual {residual:.3e} <= {threshold:.1e}"
            break
        if it > opts.max_iterations:
            break

        step = step_guess
        accepted = False
        for halvings in range(MAX_HALVINGS + 1):
            trial = prox_project(w, grad, step, weights)
            move = space.norm(trial.axpy(-1.0, w))
            if move == 0.0:
                break
            (Jt, J1t, J2t), traj_t = problem.cost(trial)
            if Jt <= J - (ARMIJO / step) * move ** 2:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            stagnated = True
            message = (f"line search stagnated after {MAX_HALVINGS} "
                       f"halvings at iteration {it}")
            break

        grad_new = problem.gradient(trial, traj_t)
        ds = trial.axpy(-1.0, w)
        dy = grad_new.direction().axpy(-1.0, grad.direction())
        sy = space.inner(ds, dy)
        ss = space.inner(ds, ds)
        step_guess = min(max(ss / sy, 1e-6 * step0), 1e6 * step0) if sy > 0 \
            else step0
        w, traj, grad = trial, traj_t, grad_new
        J, J1, J2 = Jt, J1t, J2t
        last_step, last_halvings = step, halvings
        residual = stationarity_residual(space, w, grad, weights)

    lam = {dos.name: _subgradient(dos) for dos in _dosages(w, weights, grad)
           if dos.l1 > 0}
    return OptimizationReport(history=history, controls=w, trajectory=traj,
                              gradient=grad,
                              converged=converged, stagnated=stagnated,
                              message=message, residual=residual,
                              lambda2=lam.get("w2"), lambda3=lam.get("w3"))


# ---------------------------------------------------------------------------
# optimality diagnostics
# ---------------------------------------------------------------------------

def _subgradient(dos: _Dosage) -> np.ndarray:
    """L1-subgradient selection certifying stationarity of a dosage.

    Where the dosage is positive the selection is 1 (negative: -1); on its
    zero set it is the clamped dual quantity, which lies in [-1, 1] at
    stationary points.
    """
    return np.where(dos.values > ZERO_TOL, 1.0,
                    np.where(dos.values < -ZERO_TOL, -1.0,
                             np.clip(dos.dual / dos.l1, -1.0, 1.0)))


def zero_intervals(values: np.ndarray) -> list[tuple[int, int]]:
    """Maximal runs of (inclusive) step indices where |value| <= ZERO_TOL."""
    zero = np.abs(values) <= ZERO_TOL
    intervals = []
    start = None
    for j, z in enumerate(zero):
        if z and start is None:
            start = j
        elif not z and start is not None:
            intervals.append((start, j - 1))
            start = None
    if start is not None:
        intervals.append((start, len(zero) - 1))
    return intervals


@dataclass
class DosageSparsity:
    """Per-step comparison of one dosage's zero set with its dual condition
    ``dual <= l1``; a step whose dual lies within ``BOUNDARY_SLACK`` of the
    threshold is on the boundary and not compared."""
    values: np.ndarray
    dual: np.ndarray
    zero: np.ndarray
    condition: np.ndarray
    boundary: np.ndarray
    zero_intervals: list[tuple[int, int]]

    @property
    def agreement(self) -> float:
        keep = ~self.boundary
        if not keep.any():
            return 1.0
        return float(np.mean(self.zero[keep] == self.condition[keep]))


def sparsity_report(grad: ReducedGradient, w: ControlTriple,
                    weights: CostWeights) -> dict[str, DosageSparsity]:
    """Evaluate the zero-set characterisation of each dosage at ``w``, whose
    reduced gradient is ``grad``; keyed by dosage name."""
    out = {}
    for dos in _dosages(w, weights, grad):
        scale = max(1.0, dos.l1, float(np.abs(dos.dual).max(initial=0.0)))
        out[dos.name] = DosageSparsity(
            values=dos.values.copy(), dual=dos.dual,
            zero=np.abs(dos.values) <= ZERO_TOL,
            condition=dos.dual <= dos.l1,
            boundary=np.abs(dos.dual - dos.l1) <= BOUNDARY_SLACK * scale,
            zero_intervals=zero_intervals(dos.values))
    return out


def projection_formula_check(grad: ReducedGradient, w: ControlTriple,
                             weights: CostWeights) -> dict[str, float]:
    """Pointwise deviation of the controls ``w``, whose reduced gradient is
    ``grad``, from their projection formulas.

    A formula exists for ``w1`` when ``gamma1 > 0`` and for a dosage when
    its L2 weight is positive (without an L1 weight it is
    ``clip(dual / l2, lo, hi)``); with none the result is empty.  At a
    stationary point each deviation is bounded by the stationarity residual
    divided by the corresponding quadratic weight.
    """
    b = w.bounds
    out: dict[str, float] = {}
    if weights.gamma1 > 0:
        # g1 = gamma1 w1 + kappa r_hat, so -kappa r_hat / gamma1 = w1 - g1/gamma1
        formula = np.clip(w.w1 - grad.g1 / weights.gamma1, b.w1_lo, b.w1_hi)
        out["w1"] = float(np.abs(w.w1 - formula).max())
    for dos in _dosages(w, weights, grad):
        if dos.l2 > 0:
            dual = dos.dual - dos.l1 * _subgradient(dos) if dos.l1 > 0 else dos.dual
            formula = np.clip(dual / dos.l2, dos.lo, dos.hi)
            out[dos.name] = float(np.abs(dos.values - formula).max())
    if out:
        out["max"] = max(out.values())
    return out
