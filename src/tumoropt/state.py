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
from scipy.sparse.linalg import splu

from . import constitutive as con
from . import fem, io
from .constitutive import ModelParams, Nonlinearities
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


# SuperLU settings per operator kind: the one factorization policy of the
# forward, linearised and adjoint sweeps, all of which factor and solve
# through ``System`` below.  Every factored matrix is handed over already in
# the nested-dissection order of its grid (``grid.nested_dissection``), so
# SuperLU keeps the natural column order.
#
# ``ch``: the nonsymmetric Cahn-Hilliard block Jacobian, with partial pivoting.
# ``spd``: the nutrient operator K + kappa Mb + P^T diag(w (lambda_c h + B)) P
# + (beta/tau) M, the mass matrix and the reduced elasticity block.  They are
# symmetric positive definite (A1 keeps every nutrient term non-negative and
# one of them definite; C is positive definite and the pinned edge removes
# the rigid motions), so diagonal pivots in a symmetric ordering are stable.
SPLU_OPTIONS = {
    "ch": dict(permc_spec="NATURAL"),
    "spd": dict(permc_spec="NATURAL", diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True)),
}

# Relative residual tolerance of every nutrient and elasticity solve.
LIN_RTOL = 1e-10

# A composition step has converged when its residual norm is at most
# NEWTON_RTOL times its scale; it may take at most NEWTON_MAX_CORRECTIONS
# Newton corrections.  The finite-difference gradient gate assumes this
# tolerance: a looser one breaks the exact discrete gradient.
NEWTON_RTOL = 1e-12
NEWTON_MAX_CORRECTIONS = 50

# A composition Newton correction that leaves more than this fraction of the
# residual norm makes the next correction refactor the Jacobian.
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

    def __init__(self, grid: Grid, boundary_weights: np.ndarray, tau: float,
                 n_steps: int):
        self.grid = grid
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


class StateTrajectory:
    """Time-ordered snapshots with optional disk checkpointing.

    With ``storage='disk'`` only every ``every``-th snapshot (plus the last)
    is written to ``directory``; intermediate states are regenerated on demand
    by re-running the forward steps from the nearest stored checkpoint, which
    needs the solver and controls the trajectory was built with.
    """

    def __init__(self, system: "System", controls: ControlTriple, tau: float,
                 n_steps: int, storage: str = "memory", every: int = 1,
                 directory=None):
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
            snap = self.system.advance(snap, coef, self.controls, n, self.tau)
            yield snap

    def final(self) -> StateSnapshot:
        return self.snapshot(self.n_steps)


# ---------------------------------------------------------------------------
# the discrete system
# ---------------------------------------------------------------------------

def _solve(what: str | None, lu, A, order: np.ndarray, rhs: np.ndarray,
           trans: str) -> np.ndarray:
    """Solve ``B x = rhs``, or ``B^T x = rhs`` if ``trans="T"``, with ``lu`` the
    factor of ``A = B[order][:, order]`` (``x`` is 0 where ``order`` leaves out
    an unknown), and check it against ``A`` by the one residual rule, naming
    ``what``.  The chord Newton passes None: its residual checks the corrections."""
    b = rhs[order]
    y = lu.solve(b, trans=trans)
    if what is not None:
        res = np.linalg.norm((A if trans == "N" else A.T) @ y - b)
        if not np.isfinite(res) or res > max(LIN_RTOL * max(np.linalg.norm(b), 1.0), 1e-13):
            raise SolverError(f"{what} solve failed: residual {res:.3e}")
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
    operators, for the forward, linearised and adjoint sweeps alike.

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
        self.Mb = fem.assemble_boundary_mass(grid, "gamma")
        # the per-step operators are data arrays on the nodal pattern of M and
        # K, such as the fixed nutrient part K + kappa Mb, taken into permuted
        # patterns fixed here
        self._nutrient_fixed = self.K.data + params.kappa * self.quad.pattern_data(self.Mb)
        n = grid.n_nodes
        order = self.node_order = nested_dissection(grid)
        self.ch_order = np.stack([order, order + n], axis=1).ravel()
        row, col = self.quad.indices, np.repeat(np.arange(n), np.diff(self.quad.indptr))
        self._nd_indptr, self._nd_indices, self._nd_take = _permuted_pattern(
            row, col, order, n)
        # the entries of the Jacobian [[A, B], [C, D]] block by block, in the
        # order (A, C, B, D) in which ch_jacobian concatenates their data
        self._ch_indptr, self._ch_indices, self._ch_take = _permuted_pattern(
            np.concatenate([row, row + n, row, row + n]),
            np.concatenate([col, col, col + n, col + n]), self.ch_order, 2 * n)
        self._mass = self._nodal_matrix(self.M.data)
        self._mass_lu = splu(self._mass, **SPLU_OPTIONS["spd"])

        A, free = fem.assemble_elasticity(grid, params.C, self.quad)
        A = A.tocoo()
        dofs = np.stack([2 * order, 2 * order + 1], axis=1).ravel()
        self.elastic_order = dofs[free[dofs]]
        m = self.elastic_order.size
        indptr, indices, take = _permuted_pattern(A.row, A.col, self.elastic_order, 2 * n)
        self.A_red = sp.csc_matrix((A.data[take], indices, indptr), shape=(m, m))
        self._elas_lu = splu(self.A_red, **SPLU_OPTIONS["spd"])
        self.Bc = fem.assemble_coupling_phi_to_strain(grid, params.C,
                                                      params.misfit_strain, self.quad)
        self.BcT = self.Bc.T
        bar_stress = np.tile(params.C.apply(params.bar_strain), (self.quad.nq, 1))
        self.neumann_load = fem.neumann_load(grid, params.g_load)
        self.load_const = self.quad.pair_stress(bar_stress) + self.neumann_load
        # E* : C E*, the composition curvature of the elastic energy
        self.misfit_curvature = float(fem.tensor_dot(
            params.C.apply(params.misfit_strain), params.misfit_strain))

        bn = grid.boundary_nodes
        self.Mb_b = self.Mb[bn][:, bn].tocsr()
        self.dgamma = np.asarray(self.Mb_b.sum(axis=1)).ravel()

    # -- helpers ------------------------------------------------------------

    def control_space(self, T: float, n_steps: int) -> ControlSpace:
        return ControlSpace(self.grid, self.dgamma, T / n_steps, n_steps)

    def embed_boundary(self, values_b: np.ndarray) -> np.ndarray:
        out = np.zeros(self.grid.n_nodes)
        out[self.grid.boundary_nodes] = values_b
        return out

    def boundary_trace_avg(self, field: np.ndarray) -> np.ndarray:
        """Lumped L2(Gamma) representative of a nodal field's trace."""
        return (self.Mb_b @ field[self.grid.boundary_nodes]) / self.dgamma

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
        w3 shape (n_steps,)."""
        want = ((self.grid.n_boundary_nodes, n_steps), (n_steps,), (n_steps,))
        got = tuple(np.shape(w) for w in (controls.w1, controls.w2, controls.w3))
        if got != want:
            raise PreconditionError(f"control shapes (w1, w2, w3) {got} do not match "
                                    f"the run's {want}")

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
        return con.gauss_coefficients(self.params, self.nl, quad.xy,
                                      quad.P @ snap.phi, quad.strain(snap.u))

    # -- nutrient step ---------------------------------------------------------

    def nutrient_operator(self, coef: con.GaussCoefficients,
                          tau: float) -> sp.csc_matrix:
        """K + kappa Mb + P^T diag(w (lambda_c h + B)) P + (beta/tau) M, in
        the nested-dissection order ``node_order``."""
        data = self._nutrient_fixed + self.quad.reaction_matrix(-coef.nutrient_dsigma)
        if self.params.beta > 0:
            data += (self.params.beta / tau) * self.M.data
        return self._nodal_matrix(data)

    def solve_nutrient(self, coef: con.GaussCoefficients, tau: float,
                       load: np.ndarray, prev: np.ndarray) -> np.ndarray:
        """Solve with the nutrient operator; ``prev`` is the previous level's
        field, entering the right-hand side as (beta/tau) M prev."""
        if self.params.beta > 0:
            load = load + (self.params.beta / tau) * (self.M @ prev)
        A = self.nutrient_operator(coef, tau)
        return _solve("nutrient", splu(A, **SPLU_OPTIONS["spd"]), A, self.node_order,
                      load, "N")

    def step_nutrient(self, sigma_prev: np.ndarray, coef: con.GaussCoefficients,
                      w1_step: np.ndarray, w3_step: float, tau: float) -> np.ndarray:
        """One implicit nutrient step with the coefficients of the previous state."""
        load = (self.params.kappa * (self.Mb @ self.embed_boundary(w1_step))
                + self.quad.pair(coef.nutrient(0.0, w3_step)))
        return self.solve_nutrient(coef, tau, load, sigma_prev)

    # -- composition step ------------------------------------------------------

    def ch_jacobian(self, phi: np.ndarray, tau: float) -> sp.csc_matrix:
        """Jacobian [[M/tau, K], [-(K + S), M]] of the composition step
        residual at the given iterate, S = P^T diag(w psi1''(P phi)) P, in
        the interleaved nested-dissection order ``ch_order``."""
        S = self.quad.reaction_matrix(self.nl.psi1_second(self.quad.P @ phi))
        M, K = self.M.data, self.K.data
        blocks = np.concatenate([M * (1.0 / tau), -(K + S), K, M])
        n = 2 * self.grid.n_nodes
        return sp.csc_matrix((blocks.take(self._ch_take), self._ch_indices, self._ch_indptr),
                             shape=(n, n))

    def solve_ch(self, phi: np.ndarray, tau: float, rhs: np.ndarray,
                 trans: str) -> np.ndarray:
        """Solve with the composition Jacobian at ``phi``, or its transpose if ``trans="T"``."""
        J = self.ch_jacobian(phi, tau)
        return _solve("composition", splu(J, **SPLU_OPTIONS["ch"]), J, self.ch_order,
                      rhs, trans)

    def _stationary_mu(self, phi: np.ndarray, coef: con.GaussCoefficients,
                       sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """mu with M mu = K phi + (psi1'(phi), .) + lagged, the stationary
        relation, and the lagged load (psi2'(phi_lag) + W_phi, .) - chi M sigma
        of the composition and displacement in ``coef``."""
        quad = self.quad
        lagged = (quad.pair(self.nl.psi2_prime(coef.phi)) + quad.pair(coef.w_phi)
                  - self.params.chi * (self.M @ sigma))
        mu = self.solve_mass(self.K @ phi + quad.pair(self.nl.psi1_prime(quad.P @ phi))
                             + lagged)
        return mu, lagged

    def step_cahn_hilliard(self, phi_prev: np.ndarray, coef: con.GaussCoefficients,
                           sigma_new: np.ndarray, w2_step: float,
                           tau: float) -> tuple[np.ndarray, np.ndarray]:
        """One implicit step of the composition pair (phi, mu).

        The convex potential part is implicit and solved by Newton; the
        concave part, the growth source and the elastic coupling use the
        coefficients of the previous composition and displacement.
        """
        nl, quad = self.nl, self.quad
        FU = quad.pair(coef.growth(quad.P @ sigma_new, w2_step))
        phi = phi_prev.copy()
        mu, lagged = self._stationary_mu(phi, coef, sigma_new)

        def residual(phi, mu):
            r1 = self.M @ (phi - phi_prev) / tau + self.K @ mu - FU
            r2 = (self.M @ mu - self.K @ phi
                  - quad.pair(nl.psi1_prime(quad.P @ phi)) - lagged)
            return np.concatenate([r1, r2])

        res = residual(phi, mu)
        norm = np.linalg.norm(res)
        scale = max(norm, np.linalg.norm(FU), 1.0)
        # chord Newton: the Jacobian is factored at the step's start state and
        # refactored only at an iterate where a correction contracted too little
        lu = None
        corrections = 0
        while not norm <= NEWTON_RTOL * scale:  # NaN-safe
            if corrections >= NEWTON_MAX_CORRECTIONS:
                raise TimestepError(
                    f"composition Newton did not converge in {corrections} "
                    f"corrections (residual {norm:.3e}); reduce the timestep")
            if lu is None:
                lu = splu(self.ch_jacobian(phi, tau), **SPLU_OPTIONS["ch"])
            delta = _solve(None, lu, None, self.ch_order, -res, "N")
            phi += delta[:phi.size]
            mu += delta[phi.size:]
            res = residual(phi, mu)
            if not np.isfinite(res).all():
                raise TimestepError("composition Newton diverged (non-finite residual)")
            corrections += 1
            norm, prev = np.linalg.norm(res), norm
            if norm > CHORD_CONTRACTION * prev:
                lu = None
        return phi, mu

    # -- trajectory --------------------------------------------------------------

    def advance(self, snap: StateSnapshot, coef: con.GaussCoefficients,
                controls: ControlTriple, n: int, tau: float) -> StateSnapshot:
        """Advance snapshot n-1, whose coefficients are ``coef``, to n using
        control column n-1; a solver failure is re-raised with the step and
        its time in front."""
        j = n - 1
        try:
            sigma = self.step_nutrient(snap.sigma, coef, controls.w1[:, j],
                                       float(controls.w3[j]), tau)
            phi, mu = self.step_cahn_hilliard(snap.phi, coef, sigma,
                                              float(controls.w2[j]), tau)
            if not (np.isfinite(phi).all() and np.isfinite(sigma).all()):
                raise SolverError("non-finite state")
            u = self.solve_elasticity(phi)
        except SolverError as exc:
            raise type(exc)(f"step {n} (t = {n * tau:.6g}): {exc}") from exc
        return StateSnapshot(phi=phi, mu=mu, sigma=sigma, u=u, t=n * tau)

    def solve_state(self, controls: ControlTriple, phi0: np.ndarray,
                    sigma0: np.ndarray, T: float, n_steps: int,
                    storage: str = "memory", every: int = 1,
                    directory=None) -> StateTrajectory:
        """Run the forward model; returns the full trajectory.  mu0 is the
        Newton start of a step, the stationary relation at the initial state."""
        self.check_initial_nutrient(sigma0)
        check_time_grid(T, n_steps)
        controls.bounds.check(self.params)
        self.check_control_layout(controls, n_steps)
        tau = T / n_steps
        traj = StateTrajectory(self, controls, tau, n_steps, storage=storage,
                               every=every, directory=directory)
        snap = StateSnapshot(phi=phi0.copy(), mu=None, sigma=sigma0.copy(),
                             u=self.solve_elasticity(phi0), t=0.0)
        coef = self.coefficients(snap)
        snap.mu, _ = self._stationary_mu(snap.phi, coef, snap.sigma)
        traj.append(snap)
        steps = traj._steps(snap, coef, 0, n_steps)
        del coef  # the loop alone holds step 1's coefficients, so they are freed after it
        for snap in steps:
            traj.append(snap)
        return traj

    def check_initial_nutrient(self, sigma0: np.ndarray) -> None:
        """The nutrient band rule (A5): an initial nutrient lies in [0, cap]."""
        cap = self.params.nutrient_cap
        if sigma0.min() < -1e-12 or sigma0.max() > cap + 1e-12:
            raise PreconditionError(
                f"initial nutrient must lie in [0, {cap}] (A5); "
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
