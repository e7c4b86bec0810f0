"""Forward solver: staggered implicit Euler for the coupled system.

Each step advances (phi, mu, sigma, u) by (i) a quasistatic displacement
solve from the current composition, (ii) one implicit nutrient step, and
(iii) one composition step with the convex potential part implicit (Newton)
and the concave part explicit.  Controls are piecewise constant per step:
column ``j`` acts on the interval (t_j, t_{j+1}].

All nonlinear integrands are evaluated at the Gauss points (see fem.py), so
the step maps are exactly differentiable and energy estimates hold discretely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from . import constitutive as con
from . import fem, io
from .constitutive import ModelParams, Nonlinearities
from .factor import splu
from .grid import Grid, nested_dissection


class SolverError(RuntimeError):
    pass


class TimestepError(SolverError):
    """Newton failed to converge; the timestep is too large."""


class PreconditionError(ValueError):
    pass


class InputRuleError(PreconditionError):
    """A run input breaks its rule; ``name`` is the input."""

    def __init__(self, name: str, rule: str):
        super().__init__(f"{name} {rule}")
        self.name = name


# Relative residual tolerance of every linear solve.
LIN_RTOL = 1e-10

# A composition step has converged when its residual norm is at most
# NEWTON_RTOL times its scale; it may take at most NEWTON_MAX_CORRECTIONS
# Newton corrections.  The finite-difference gradient gate assumes this
# tolerance: a looser one breaks the exact discrete gradient.
NEWTON_RTOL = 1e-12
NEWTON_MAX_CORRECTIONS = 50

# A correction with a reused factor that leaves more than this fraction of
# the residual norm ends its iteration: a composition Newton step refactors
# the Jacobian at its iterate, and a linear solve stops, at round-off or,
# failing the residual rule, to factor its operator.
CHORD_CONTRACTION = 0.1


# ---------------------------------------------------------------------------
# controls
# ---------------------------------------------------------------------------

@dataclass
class ControlBounds:
    """Box bounds, one interval per control component."""
    w1_lo: float = 0.0
    w1_hi: float = 1.0
    w2_lo: float = 0.0
    w2_hi: float = 0.8
    w3_lo: float = 0.0
    w3_hi: float = 0.8

    def __post_init__(self):
        for name in ("w1", "w2", "w3"):
            for bound in (name + "_lo", name + "_hi"):
                if not np.isfinite(getattr(self, bound)):
                    raise InputRuleError(bound, f"must be finite; got {getattr(self, bound)!r}")
            if getattr(self, name + "_lo") > getattr(self, name + "_hi"):
                raise PreconditionError(f"control bounds for {name} are empty (min > max)")

    def check(self, params: ModelParams) -> None:
        """The box rule (A5): the nutrient stays in [0, cap] if 0 <= w1 <= supply_bound
        and 0 <= w3 <= lambda_c cap; it checks the box, which FD steps may leave."""
        w3_cap = params.lambda_c * params.nutrient_cap
        for name, ok, rule in (
                ("w1_lo", self.w1_lo >= 0, ">= 0"), ("w3_lo", self.w3_lo >= 0, ">= 0"),
                ("w1_hi", self.w1_hi <= params.supply_bound,
                 f"<= supply_bound = {params.supply_bound!r}"),
                ("w3_hi", self.w3_hi <= w3_cap, f"<= lambda_c * nutrient_cap = {w3_cap!r}")):
            if not ok:
                raise InputRuleError(name, f"must be {rule} to keep the nutrient in "
                                     f"[0, cap] (A5); got {getattr(self, name)!r}")


@dataclass
class ControlTriple:
    """(boundary supply, cytotoxic dosage, antiangiogenic dosage).

    ``w1`` has shape (n_boundary_nodes, n_steps); ``w2`` and ``w3`` are per
    step scalars of shape (n_steps,), spatially constant by construction.
    A control, a direction and the L2 representative of a gradient are all
    ControlTriples; ``bounds`` is unused for directions.
    """
    w1: np.ndarray
    w2: np.ndarray
    w3: np.ndarray
    bounds: ControlBounds = field(default_factory=ControlBounds)

    def copy(self) -> "ControlTriple":
        return ControlTriple(self.w1.copy(), self.w2.copy(), self.w3.copy(), self.bounds)

    def clipped(self) -> "ControlTriple":
        b = self.bounds
        return ControlTriple(np.clip(self.w1, b.w1_lo, b.w1_hi),
                             np.clip(self.w2, b.w2_lo, b.w2_hi),
                             np.clip(self.w3, b.w3_lo, b.w3_hi), b)

    def is_admissible(self, tol: float = 0.0) -> bool:
        b = self.bounds
        return bool((self.w1 >= b.w1_lo - tol).all() and (self.w1 <= b.w1_hi + tol).all()
                    and (self.w2 >= b.w2_lo - tol).all() and (self.w2 <= b.w2_hi + tol).all()
                    and (self.w3 >= b.w3_lo - tol).all() and (self.w3 <= b.w3_hi + tol).all())

    def axpy(self, s: float, d: "ControlTriple") -> "ControlTriple":
        """``self + s d``; ``a.axpy(-1.0, b)`` is bitwise ``a - b``."""
        return ControlTriple(self.w1 + s * d.w1, self.w2 + s * d.w2,
                             self.w3 + s * d.w3, self.bounds)

    def scaled(self, s: float) -> "ControlTriple":
        return ControlTriple(s * self.w1, s * self.w2, s * self.w3, self.bounds)


class ControlSpace:
    """Discrete geometry of the control space.

    The supply control carries the lumped boundary-trace weights (diagonal
    metric, so box projection and the L1 prox stay pointwise); the dosage
    controls carry the timestep weight alone.
    """

    def __init__(self, boundary_weights: np.ndarray, tau: float, n_steps: int):
        self.dgamma = boundary_weights        # (nb,)
        self.tau = tau
        self.n_steps = n_steps

    def inner(self, a: ControlTriple, b: ControlTriple) -> float:
        s = float(np.einsum("bj,bj,b->", a.w1, b.w1, self.dgamma))
        return self.tau * (s + float(a.w2 @ b.w2) + float(a.w3 @ b.w3))

    def norm(self, a: ControlTriple) -> float:
        return float(np.sqrt(max(self.inner(a, a), 0.0)))

    def random_direction(self, rng: np.random.Generator) -> ControlTriple:
        nb = self.dgamma.size
        return ControlTriple(rng.standard_normal((nb, self.n_steps)),
                             rng.standard_normal(self.n_steps),
                             rng.standard_normal(self.n_steps))

    def random_admissible(self, rng: np.random.Generator,
                          bounds: ControlBounds) -> ControlTriple:
        nb = self.dgamma.size
        n = self.n_steps
        w1 = rng.uniform(size=(nb, n)) * (bounds.w1_hi - bounds.w1_lo) + bounds.w1_lo
        w2 = rng.uniform(size=n) * (bounds.w2_hi - bounds.w2_lo) + bounds.w2_lo
        w3 = rng.uniform(size=n) * (bounds.w3_hi - bounds.w3_lo) + bounds.w3_lo
        return ControlTriple(w1, w2, w3, bounds)


def check_time_grid(T: float, n_steps: int) -> None:
    """The time rule: a run covers 0 < T < inf in n_steps >= 1 steps."""
    if not 0 < T < np.inf:
        raise InputRuleError("T", f"must be > 0 and finite; got {T!r}")
    if n_steps < 1:
        raise InputRuleError("n_steps", f"must be >= 1; got {n_steps!r}")


# ---------------------------------------------------------------------------
# snapshots and trajectories
# ---------------------------------------------------------------------------

@dataclass
class StateSnapshot:
    phi: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    u: np.ndarray          # (2 nn,) interleaved
    t: float


@dataclass(frozen=True)
class StepFactors:
    """The constant parts of the step operators at time step ``tau``,
    factored once for a trajectory or for the runs of one time grid: ``ch``
    factors J(0) = [[M/tau, K], [-K, M]], ``ch_jacobian`` at phi = 0
    (psi1''(0) = 0), and ``nutrient`` factors K + kappa Mb + (beta/tau + B) M,
    ``nutrient_operator`` without its lambda_c h(phi) term, each in the order
    of the matrix it factors."""
    tau: float
    ch: object
    nutrient: object


class StateTrajectory:
    """Time-ordered snapshots with optional disk checkpointing.

    It holds the step factors of its time step, which the forward solve,
    regeneration and the linearised and adjoint sweeps over it share: made
    with it, or passed in by a caller whose trajectories share one time step.

    With ``storage='disk'`` only every ``every``-th snapshot (plus the last)
    is written to ``directory``; intermediate states are regenerated on demand
    by re-running the forward steps from the nearest stored checkpoint, which
    needs the solver and controls the trajectory was built with.
    """

    def __init__(self, system: "System", controls: ControlTriple, tau: float,
                 n_steps: int, storage: str = "memory", every: int = 1,
                 directory=None, factors: StepFactors | None = None):
        if storage not in ("memory", "disk"):
            raise PreconditionError(f"unknown storage policy {storage!r}")
        if storage == "disk":
            if directory is None:
                raise PreconditionError("disk storage needs a directory")
            if every < 1:
                raise PreconditionError("checkpoint stride must be >= 1")
            self.directory = Path(directory)
            self.directory.mkdir(parents=True, exist_ok=True)
        self.system = system
        self.controls = controls
        self.tau = tau
        if factors is None:
            factors = system.step_factors(tau)
        elif factors.tau != tau:
            raise PreconditionError(f"step factors of tau = {factors.tau!r} do not fit "
                                    f"the run's tau = {tau!r}")
        self.factors = factors
        self.n_steps = n_steps
        self.storage = storage
        self.every = every
        self._mem: list[StateSnapshot | None] = []
        self._files: dict[int, Path] = {}
        self._segment: dict[int, StateSnapshot] = {}
        self._index_lines: list[str] = []

    def __len__(self) -> int:
        return len(self._mem)

    def append(self, snap: StateSnapshot) -> None:
        n = len(self._mem)
        if self.storage == "memory":
            self._mem.append(snap)
            return
        if n % self.every == 0 or n == self.n_steps:
            path = self.directory / f"snapshot_{n:05d}.fld"
            io.write_fld(path, io.snapshot_arrays(self.system.grid, snap))
            self._files[n] = path
            self._index_lines.append(f"{path.name},{snap.t!r}")
            (self.directory / "index.txt").write_text("\n".join(self._index_lines) + "\n")
        self._mem.append(None)

    def snapshot(self, n: int) -> StateSnapshot:
        if n < 0 or n >= len(self._mem):
            raise SolverError(f"snapshot {n} out of range 0..{len(self._mem) - 1}")
        if self._mem[n] is not None:
            return self._mem[n]
        if n in self._segment:
            return self._segment[n]
        if n in self._files:
            snap = self._load(n)
            self._segment[n] = snap
            return snap
        base = (n // self.every) * self.every
        if base not in self._files:
            raise SolverError(f"checkpoint gap: no stored snapshot at or before {n}")
        self._regenerate(base, min(base + self.every, self.n_steps))
        if n not in self._segment:
            raise SolverError(f"failed to regenerate snapshot {n}")
        return self._segment[n]

    def _load(self, n: int) -> StateSnapshot:
        arrays = io.read_fld(self._files[n])
        io.check_grid_shape(self.system.grid, arrays, str(self._files[n]))
        return StateSnapshot(phi=arrays["phi"], mu=arrays["mu"],
                             sigma=arrays["sigma"], u=arrays["u"].ravel(),
                             t=float(arrays["time"].item()))

    def _regenerate(self, n0: int, n1: int) -> None:
        snap = self._load(n0)
        self._segment = {n0: snap}
        self._segment.update(enumerate(
            self._steps(snap, self.system.coefficients(snap), n0, n1), n0 + 1))

    def _steps(self, snap: StateSnapshot, coef: con.GaussCoefficients,
               n0: int, n1: int):
        """Yield snapshots n0+1..n1 stepped from ``snap``, snapshot n0, whose
        coefficients are ``coef``: the one stepping loop of the forward solve
        and of regeneration, so both produce the same states bitwise."""
        for n in range(n0 + 1, n1 + 1):
            if n > n0 + 1:
                coef = self.system.coefficients(snap)
            snap = self.system.advance(snap, coef, self.controls, n, self.factors)
            yield snap

    def final(self) -> StateSnapshot:
        return self.snapshot(self.n_steps)


# ---------------------------------------------------------------------------
# the discrete system
# ---------------------------------------------------------------------------

def _within_rule(res: float, rhs: np.ndarray) -> bool:
    """The one residual rule of every linear solve."""
    return bool(np.isfinite(res)
                and res <= max(LIN_RTOL * max(np.linalg.norm(rhs), 1.0), 1e-13))


def _solve(what: str | None, lu, A, order: np.ndarray, rhs: np.ndarray,
           trans: str) -> np.ndarray:
    """Solve ``B x = rhs``, or ``B^T x = rhs`` if ``trans="T"``, with ``lu`` the
    factor of ``A = B[order][:, order]`` (``x`` is 0 where ``order`` leaves out
    an unknown), and check it against ``A`` by the residual rule, naming
    ``what``.  None skips the check, for a correction that the caller checks."""
    b = rhs[order]
    y = lu.solve(b, trans=trans)
    if what is not None:
        res = np.linalg.norm((A if trans == "N" else A.T) @ y - b)
        if not _within_rule(res, b):
            raise SolverError(f"{what} solve failed: residual {res:.3e}")
    x = np.zeros_like(rhs)
    x[order] = y
    return x


def _iterate(what: str, lu, A: sp.csc_matrix, order: np.ndarray, rhs: np.ndarray,
             trans: str, kind: str) -> np.ndarray:
    """Solve ``B x = rhs``, or ``B^T x = rhs`` if ``trans="T"``, where
    ``A = B[order][:, order]`` and ``lu`` factors a constant part of ``A``, by
    the chord corrections y += lu^-1 (b - A y) on the permuted ``b = rhs[order]``
    (Kelley, Iterative Methods for Linear and Nonlinear Equations, SIAM 1995,
    ch. 5).  They go on while each leaves less than CHORD_CONTRACTION of the
    residual norm and end at the first that does not, which at round-off is
    where the residual stops falling; the smaller residual is kept.  If it
    breaks the residual rule, ``A`` itself, the matrix the corrections
    iterated with, is factored by the policy of ``kind``, and that solve is
    checked, naming ``what``."""
    b = rhs[order]
    op = A if trans == "N" else A.T
    y = lu.solve(b, trans=trans)
    res = b - op @ y
    norm = np.linalg.norm(res)
    while True:
        z = y + lu.solve(res, trans=trans)
        res_z = b - op @ z
        norm_z = np.linalg.norm(res_z)
        contracted = norm_z < CHORD_CONTRACTION * norm  # False at 0 and NaN
        if norm_z < norm:
            y, res, norm = z, res_z, norm_z
        if not contracted:
            break
    if not _within_rule(norm, b):
        return _solve(what, splu(A, kind=kind), A, order, rhs, trans)
    x = np.zeros_like(rhs)
    x[order] = y
    return x


def _permuted_pattern(row: np.ndarray, col: np.ndarray, order: np.ndarray, n: int):
    """CSC pattern of ``A[order][:, order]`` for an n x n matrix ``A`` with
    entries at (``row``, ``col``), where ``order`` may leave out unknowns,
    and ``take``, the index of the entry that each of its nonzeros holds."""
    rank = np.full(n, -1, dtype=np.int64)
    rank[order] = np.arange(order.size)
    row, col = rank[row], rank[col]
    kept = np.flatnonzero((col >= 0) & (row >= 0))
    take = kept[np.argsort(col[kept] * order.size + row[kept])]
    indptr = np.zeros(order.size + 1, dtype=np.int32)
    np.cumsum(np.bincount(col[take], minlength=order.size), out=indptr[1:])
    arrays = indptr, row[take].astype(np.int32), take
    for a in arrays:
        a.flags.writeable = False
    return arrays


class System:
    """Spatial discretization bound to one parameter set.

    Owns the assembled operators and the constant mass and elasticity
    factors.  It alone builds, factors, solves with and checks the step
    operators, for the forward, linearised and adjoint sweeps alike; the
    factors of their constant parts belong to a trajectory (``StepFactors``).

    ``M``, ``K`` and every vector are in the grid's node numbering.  The
    matrices it factors are numbered in the nested-dissection order of the
    grid, fixed here: row k of ``nutrient_operator`` is node
    ``node_order[k]``, row k of ``ch_jacobian`` is unknown ``ch_order[k]`` of
    (phi; mu), with phi and mu of a node adjacent, and row k of ``A_red`` is
    displacement dof ``elastic_order[k]``, the free dofs with u_x and u_y of a
    node adjacent.  Only vectors are permuted, in the solves.
    """

    def __init__(self, grid: Grid, params: ModelParams, nonlin: Nonlinearities):
        self.grid = grid
        self.params = params
        self.nl = nonlin

        self.quad = fem.quadrature(grid)
        self.M = fem.assemble_mass(grid, self.quad)
        self.K = fem.assemble_stiffness(grid, self.quad)
        self.Mb = fem.assemble_boundary_mass(grid)
        # the supply map Mb[:, Gamma] takes a boundary supply to its nodal
        # Robin load; its transpose pairs a nodal field's trace with the
        # boundary nodes, and its column sums are the lumped boundary weights
        self.supply = self.Mb[:, grid.boundary_nodes]
        self.dgamma = np.asarray(self.supply.sum(axis=0)).ravel()
        # the per-step operators are data arrays on the nodal pattern of M and
        # K, such as K + kappa Mb of the nutrient operator, taken into permuted
        # patterns fixed here
        self._diffusion_exchange = self.K.data + params.kappa * self.quad.pattern_data(self.Mb)
        n = grid.n_nodes
        order = self.node_order = nested_dissection(grid)
        self.ch_order = np.stack([order, order + n], axis=1).ravel()
        row, col = self.quad.indices, np.repeat(np.arange(n), np.diff(self.quad.indptr))
        self._nd_indptr, self._nd_indices, self._nd_take = _permuted_pattern(
            row, col, order, n)
        # the Jacobian [[A, B], [C, D]] and, per block in the order (A, C, B,
        # D), the place in its data of each entry of the block's pattern data
        self._ch_indptr, self._ch_indices, take = _permuted_pattern(
            np.concatenate([row, row + n, row, row + n]),
            np.concatenate([col, col, col + n, col + n]), self.ch_order, 2 * n)
        put = np.empty_like(take)
        put[take] = np.arange(take.size)
        self._ch_put = put.reshape(4, -1)
        self._mass = self._nodal_matrix(self.M.data)
        self._mass_lu = splu(self._mass, kind="spd", sized=False)

        A, free = fem.assemble_elasticity(grid, params.C, self.quad)
        A = A.tocoo()
        # entries that cancel exactly in the assembly are left out of A_red
        nz = A.data != 0
        dofs = np.stack([2 * order, 2 * order + 1], axis=1).ravel()
        self.elastic_order = dofs[free[dofs]]
        m = self.elastic_order.size
        indptr, indices, take = _permuted_pattern(A.row[nz], A.col[nz], self.elastic_order,
                                                  2 * n)
        self.A_red = sp.csc_matrix((A.data[nz][take], indices, indptr), shape=(m, m))
        self._elas_lu = splu(self.A_red, kind="spd", sized=False)
        self.Bc = fem.assemble_coupling_phi_to_strain(grid, params.misfit_stress, self.quad)
        self.BcT = self.Bc.T
        bar_stress = np.tile(params.C.apply(params.bar_strain), (self.quad.nq, 1))
        self.neumann_load = fem.neumann_load(grid, params.g_load)
        self.load_const = self.quad.pair_stress(bar_stress) + self.neumann_load
        # E* : C E*, the composition curvature of the elastic energy
        self.misfit_curvature = float(fem.tensor_dot(params.misfit_stress,
                                                     params.misfit_strain))

    # -- helpers ------------------------------------------------------------

    def control_space(self, T: float, n_steps: int) -> ControlSpace:
        check_time_grid(T, n_steps)
        return ControlSpace(self.dgamma, T / n_steps, n_steps)

    def zero_controls(self, n_steps: int,
                      bounds: ControlBounds | None = None) -> ControlTriple:
        nb = self.grid.n_boundary_nodes
        return ControlTriple(np.zeros((nb, n_steps)), np.zeros(n_steps),
                             np.zeros(n_steps), bounds or ControlBounds())

    def _nodal_matrix(self, data: np.ndarray) -> sp.csc_matrix:
        """The nodal matrix with pattern data ``data``, in the nested-dissection order."""
        n = self.grid.n_nodes
        return sp.csc_matrix((data.take(self._nd_take), self._nd_indices, self._nd_indptr),
                             shape=(n, n))

    def check_control_layout(self, controls: ControlTriple, n_steps: int) -> None:
        """The layout rule: w1 has shape (n_boundary_nodes, n_steps), w2 and
        w3 shape (n_steps,), and every value is finite."""
        want = ((self.grid.n_boundary_nodes, n_steps), (n_steps,), (n_steps,))
        got = tuple(np.shape(w) for w in (controls.w1, controls.w2, controls.w3))
        if got != want:
            raise PreconditionError(f"control shapes (w1, w2, w3) {got} do not match "
                                    f"the run's {want}")
        for name in ("w1", "w2", "w3"):
            if not np.isfinite(getattr(controls, name)).all():
                raise InputRuleError(name, "must hold finite values")

    def solve_mass(self, rhs: np.ndarray) -> np.ndarray:
        return _solve("mass", self._mass_lu, self._mass, self.node_order, rhs, "N")

    # -- elasticity ----------------------------------------------------------

    def solve_elastic(self, load: np.ndarray) -> np.ndarray:
        """Solve the reduced elasticity system for a load vector."""
        return _solve("elasticity", self._elas_lu, self.A_red, self.elastic_order, load, "N")

    def solve_elasticity(self, phi: np.ndarray) -> np.ndarray:
        """Displacement with (C(E(u) - Ebar - phi E*), E(eta)) = (g, eta)_GN."""
        return self.solve_elastic(self.Bc @ phi + self.load_const)

    # -- model coefficients ----------------------------------------------------

    def coefficients(self, snap: StateSnapshot) -> con.GaussCoefficients:
        """Gauss-point model coefficients of a snapshot's (phi, u)."""
        quad = self.quad
        return con.gauss_coefficients(self.params, quad.P @ snap.phi, quad.strain(snap.u))

    # -- nutrient step ---------------------------------------------------------

    def nutrient_operator(self, coef: con.GaussCoefficients | None,
                          tau: float) -> sp.csc_matrix:
        """K + kappa Mb + (beta/tau + B) M + P^T diag(w lambda_c h) P, in the
        nested-dissection order ``node_order``; without ``coef``, the
        constant part that leaves out lambda_c h(phi)."""
        p = self.params
        data = self._diffusion_exchange + (p.beta / tau + p.B) * self.M.data
        if coef is not None:
            data += self.quad.reaction_matrix(-coef.nutrient_dsigma - p.B)
        return self._nodal_matrix(data)

    def step_factors(self, tau: float) -> StepFactors:
        """Factor the constant parts of the step operators at time step ``tau``."""
        return StepFactors(tau, splu(self.ch_jacobian(np.zeros(self.grid.n_nodes), tau),
                                     kind="ch"),
                           splu(self.nutrient_operator(None, tau), kind="spd"))

    def solve_nutrient(self, coef: con.GaussCoefficients, factors: StepFactors,
                       load: np.ndarray, prev: np.ndarray) -> np.ndarray:
        """Solve with the nutrient operator; ``prev`` is the previous level's
        field, entering the right-hand side as (beta/tau) M prev."""
        if self.params.beta > 0:
            load = load + (self.params.beta / factors.tau) * (self.M @ prev)
        A = self.nutrient_operator(coef, factors.tau)
        return _iterate("nutrient", factors.nutrient, A, self.node_order, load, "N", "spd")

    def step_nutrient(self, sigma_prev: np.ndarray, coef: con.GaussCoefficients,
                      w1_step: np.ndarray, w3_step: float,
                      factors: StepFactors) -> np.ndarray:
        """One implicit nutrient step with the coefficients of the previous state."""
        load = (self.params.kappa * (self.supply @ w1_step)
                + self.quad.pair(coef.nutrient(0.0, w3_step)))
        return self.solve_nutrient(coef, factors, load, sigma_prev)

    # -- composition step ------------------------------------------------------

    def ch_jacobian(self, phi: np.ndarray, tau: float) -> sp.csc_matrix:
        """Jacobian [[M/tau, K], [-(K + S), M]] of the composition step
        residual at the given iterate, S = P^T diag(w psi1''(P phi)) P, in
        the interleaved nested-dissection order ``ch_order``."""
        S = self.quad.reaction_matrix(self.nl.psi1_second(self.quad.P @ phi))
        M, K, (at_a, at_c, at_b, at_d) = self.M.data, self.K.data, self._ch_put
        # the blocks are written into place, the varying ones through S's
        # array, so that no array of the Jacobian's size is made but its data
        data = np.empty(4 * M.size)
        data[at_b], data[at_d] = K, M
        S += K
        data[at_c] = np.negative(S, out=S)
        data[at_a] = np.multiply(M, 1.0 / tau, out=S)
        n = 2 * self.grid.n_nodes
        return sp.csc_matrix((data, self._ch_indices, self._ch_indptr), shape=(n, n))

    def solve_ch(self, phi: np.ndarray, factors: StepFactors, rhs: np.ndarray,
                 trans: str) -> np.ndarray:
        """Solve with the composition Jacobian at ``phi``, or its transpose if ``trans="T"``."""
        return _iterate("composition", factors.ch, self.ch_jacobian(phi, factors.tau),
                        self.ch_order, rhs, trans, "ch")

    def _stationary_mu(self, phi: np.ndarray, coef: con.GaussCoefficients,
                       sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """mu with M mu = K phi + convex + lagged, the stationary relation, the
        lagged load (psi2'(phi_lag) + W_phi, .) - chi M sigma of the
        composition and displacement in ``coef``, and convex = (psi1'(phi), .)."""
        quad = self.quad
        lagged = (quad.pair(self.nl.psi2_prime(coef.phi)) + quad.pair(coef.w_phi)
                  - self.params.chi * (self.M @ sigma))
        convex = quad.pair(self.nl.psi1_prime(quad.P @ phi))
        return self.solve_mass(self.K @ phi + convex + lagged), lagged, convex

    def step_cahn_hilliard(self, phi_prev: np.ndarray, coef: con.GaussCoefficients,
                           sigma_new: np.ndarray, w2_step: float,
                           factors: StepFactors) -> tuple[np.ndarray, np.ndarray]:
        """One implicit step of the composition pair (phi, mu).

        The convex potential part is implicit and solved by Newton; the
        concave part, the growth source and the elastic coupling use the
        coefficients of the previous composition and displacement.
        """
        nl, quad, tau = self.nl, self.quad, factors.tau
        FU = quad.pair(coef.growth(quad.P @ sigma_new, w2_step))
        phi = phi_prev.copy()
        mu, lagged, convex = self._stationary_mu(phi, coef, sigma_new)

        def residual(phi, mu, convex):
            r1 = self.M @ (phi - phi_prev) / tau + self.K @ mu - FU
            r2 = self.M @ mu - self.K @ phi - convex - lagged
            return np.concatenate([r1, r2])

        res = residual(phi, mu, convex)
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(res)
            scale = max(norm, np.linalg.norm(FU), 1.0)
        if not np.isfinite(norm + scale):  # before any correction: the inputs
            raise SolverError(f"composition step's starting residual is not finite "
                              f"(norm {norm:.3e}, scale {scale:.3e})")
        # chord Newton from the trajectory's factor of J(0), refactored only at
        # an iterate where a correction contracted too little
        lu = factors.ch
        corrections = 0
        while not norm <= NEWTON_RTOL * scale:  # NaN-safe
            if not np.isfinite(norm):
                raise TimestepError(f"composition Newton diverged (residual norm {norm:.3e} "
                                    f"after {corrections} corrections)")
            if corrections >= NEWTON_MAX_CORRECTIONS:
                raise TimestepError(
                    f"composition Newton did not converge in {corrections} "
                    f"corrections (residual {norm:.3e}); reduce the timestep")
            if lu is None:
                lu = splu(self.ch_jacobian(phi, tau), kind="ch")
            delta = _solve(None, lu, None, self.ch_order, -res, "N")
            phi += delta[:phi.size]
            mu += delta[phi.size:]
            res = residual(phi, mu, quad.pair(nl.psi1_prime(quad.P @ phi)))
            corrections += 1
            norm, prev = np.linalg.norm(res), norm
            if norm > CHORD_CONTRACTION * prev:
                lu = None
        return phi, mu

    # -- trajectory --------------------------------------------------------------

    def advance(self, snap: StateSnapshot, coef: con.GaussCoefficients,
                controls: ControlTriple, n: int, factors: StepFactors) -> StateSnapshot:
        """Advance snapshot n-1, whose coefficients are ``coef``, to n using
        control column n-1; a solver failure is re-raised with the step and
        its time in front."""
        j, tau = n - 1, factors.tau
        try:
            sigma = self.step_nutrient(snap.sigma, coef, controls.w1[:, j],
                                       float(controls.w3[j]), factors)
            phi, mu = self.step_cahn_hilliard(snap.phi, coef, sigma,
                                              float(controls.w2[j]), factors)
            if not (np.isfinite(phi).all() and np.isfinite(sigma).all()):
                raise SolverError("non-finite state")
            u = self.solve_elasticity(phi)
        except SolverError as exc:
            raise type(exc)(f"step {n} (t = {n * tau:.6g}): {exc}") from exc
        return StateSnapshot(phi=phi, mu=mu, sigma=sigma, u=u, t=n * tau)

    def solve_state(self, controls: ControlTriple, phi0: np.ndarray,
                    sigma0: np.ndarray, T: float, n_steps: int,
                    storage: str = "memory", every: int = 1, directory=None,
                    factors: StepFactors | None = None) -> StateTrajectory:
        """Run the forward model; returns the full trajectory.  mu0 is the
        Newton start of a step, the stationary relation at the initial state.
        ``factors``, from ``step_factors(T / n_steps)``, lets the runs of one
        time grid share their step factors; without it the trajectory makes
        its own."""
        self.check_initial_state(phi0, sigma0)
        check_time_grid(T, n_steps)
        controls.bounds.check(self.params)
        self.check_control_layout(controls, n_steps)
        tau = T / n_steps
        traj = StateTrajectory(self, controls, tau, n_steps, storage=storage,
                               every=every, directory=directory, factors=factors)
        snap = StateSnapshot(phi=phi0.copy(), mu=None, sigma=sigma0.copy(),
                             u=self.solve_elasticity(phi0), t=0.0)
        coef = self.coefficients(snap)
        snap.mu = self._stationary_mu(snap.phi, coef, snap.sigma)[0]
        traj.append(snap)
        steps = traj._steps(snap, coef, 0, n_steps)
        del coef  # the loop alone holds step 1's coefficients, so they are freed after it
        for snap in steps:
            traj.append(snap)
        return traj

    def check_initial_state(self, phi0: np.ndarray, sigma0: np.ndarray) -> None:
        """The initial-state rules: phi0 and sigma0 hold one finite value per
        node, and the nutrient band rule (A5), sigma0 in [0, cap]."""
        for name, field in (("phi0", phi0), ("sigma0", sigma0)):
            if np.shape(field) != (self.grid.n_nodes,):
                raise InputRuleError(name, f"needs one value per node, shape "
                                     f"({self.grid.n_nodes},); got shape {np.shape(field)}")
            if not np.isfinite(field).all():
                raise InputRuleError(name, "must hold finite values")
        cap = self.params.nutrient_cap
        if sigma0.min() < -1e-12 or sigma0.max() > cap + 1e-12:
            raise InputRuleError("sigma0", f"must lie in [0, {cap}] (A5); "
                                 f"got [{sigma0.min():.3g}, {sigma0.max():.3g}]")

    # -- diagnostics ----------------------------------------------------------

    def free_energy(self, phi: np.ndarray, u: np.ndarray) -> float:
        """Ginzburg-Landau + elastic energy minus the boundary work."""
        quad = self.quad
        phi_gp = quad.P @ phi
        gl = 0.5 * float(phi @ (self.K @ phi)) + quad.integrate(self.nl.psi_value(phi_gp))
        elastic = quad.integrate(con.elastic_energy_density(self.params, phi_gp,
                                                            quad.strain(u)))
        work = float(self.neumann_load @ u)
        return gl + elastic - work

    def integrate_nodal(self, field: np.ndarray) -> float:
        """Integral of the bilinear interpolant of a nodal field."""
        return float(np.sum(self.M @ field))
