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
from .grid import Grid


class SolverError(RuntimeError):
    pass


class TimestepError(SolverError):
    """Newton failed to converge; the timestep is too large."""


class PreconditionError(ValueError):
    pass


# SuperLU settings per operator kind: the one factorization policy of the
# forward, linearised and adjoint sweeps.  Every factorization calls the
# ``splu`` name of its own module, which perfbench/tracing.py rebinds.
#
# ``ch``: the nonsymmetric Cahn-Hilliard block Jacobian, ordered by minimum
# degree on the pattern of A^T + A.
# ``spd``: the nutrient operator K + kappa Mb + P^T diag(w (lambda_c h + B)) P
# + (beta/tau) M, the mass matrix and the reduced elasticity block.  They are
# symmetric positive definite (A1 keeps every nutrient term non-negative and
# one of them definite; C is positive definite and the pinned edge removes
# the rigid motions), so diagonal pivots in a symmetric ordering are stable.
SPLU_OPTIONS = {
    "ch": dict(permc_spec="MMD_AT_PLUS_A"),
    "spd": dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options=dict(SymmetricMode=True)),
}


# ---------------------------------------------------------------------------
# controls
# ---------------------------------------------------------------------------

@dataclass
class ControlBounds:
    """Box bounds; scalars or arrays broadcastable to the control layout."""
    w1_lo: float | np.ndarray = 0.0
    w1_hi: float | np.ndarray = 1.0
    w2_lo: float | np.ndarray = 0.0
    w2_hi: float | np.ndarray = 0.8
    w3_lo: float | np.ndarray = 0.0
    w3_hi: float | np.ndarray = 0.8

    def sup_w1(self) -> float:
        return float(max(np.max(np.abs(self.w1_lo)), np.max(np.abs(self.w1_hi))))


@dataclass
class ControlTriple:
    """(boundary supply, cytotoxic dosage, antiangiogenic dosage).

    ``w1`` has shape (n_boundary_nodes, n_steps); ``w2`` and ``w3`` are per
    step scalars of shape (n_steps,), spatially constant by construction.
    """
    w1: np.ndarray
    w2: np.ndarray
    w3: np.ndarray
    bounds: ControlBounds = field(default_factory=ControlBounds)

    @property
    def n_steps(self) -> int:
        return self.w2.size

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

    def axpy(self, s: float, d: "Direction") -> "ControlTriple":
        return ControlTriple(self.w1 + s * d.h1, self.w2 + s * d.h2,
                             self.w3 + s * d.h3, self.bounds)


@dataclass
class Direction:
    """A control-space direction (same layout as ControlTriple)."""
    h1: np.ndarray
    h2: np.ndarray
    h3: np.ndarray

    def scaled(self, s: float) -> "Direction":
        return Direction(s * self.h1, s * self.h2, s * self.h3)

    @classmethod
    def between(cls, a, b) -> "Direction":
        a1, a2, a3 = _components(a)
        b1, b2, b3 = _components(b)
        return cls(a1 - b1, a2 - b2, a3 - b3)


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

    def inner(self, a, b) -> float:
        a1, a2, a3 = _components(a)
        b1, b2, b3 = _components(b)
        s = float(np.einsum("bj,bj,b->", a1, b1, self.dgamma))
        return self.tau * (s + float(a2 @ b2) + float(a3 @ b3))

    def norm(self, a) -> float:
        return float(np.sqrt(max(self.inner(a, a), 0.0)))

    def zero_direction(self) -> Direction:
        nb = self.dgamma.size
        return Direction(np.zeros((nb, self.n_steps)), np.zeros(self.n_steps),
                         np.zeros(self.n_steps))

    def random_direction(self, rng: np.random.Generator) -> Direction:
        nb = self.dgamma.size
        return Direction(rng.standard_normal((nb, self.n_steps)),
                         rng.standard_normal(self.n_steps),
                         rng.standard_normal(self.n_steps))

    def random_admissible(self, rng: np.random.Generator,
                          bounds: ControlBounds) -> ControlTriple:
        nb = self.dgamma.size
        n = self.n_steps
        w1 = rng.uniform(size=(nb, n)) * (np.asarray(bounds.w1_hi) - np.asarray(bounds.w1_lo)) + bounds.w1_lo
        w2 = rng.uniform(size=n) * (np.asarray(bounds.w2_hi) - np.asarray(bounds.w2_lo)) + bounds.w2_lo
        w3 = rng.uniform(size=n) * (np.asarray(bounds.w3_hi) - np.asarray(bounds.w3_lo)) + bounds.w3_lo
        return ControlTriple(w1, w2, w3, bounds)


def _components(a):
    if isinstance(a, ControlTriple):
        return a.w1, a.w2, a.w3
    if isinstance(a, Direction):
        return a.h1, a.h2, a.h3
    return a  # already a triple of arrays


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

    @property
    def times(self) -> np.ndarray:
        return self.tau * np.arange(self.n_steps + 1)

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
        else:
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
        self._segment = {n0: self._load(n0) if self._mem[n0] is None else self._mem[n0]}
        snap = self._segment[n0]
        for n in range(n0 + 1, n1 + 1):
            snap = self.system.advance(snap, self.controls, n, self.tau)
            self._segment[n] = snap

    def final(self) -> StateSnapshot:
        return self.snapshot(self.n_steps)


# ---------------------------------------------------------------------------
# the discrete system
# ---------------------------------------------------------------------------

class System:
    """Spatial discretization bound to one parameter set.

    Owns the assembled operators and the factorization of the (constant)
    elasticity block; all step routines live here so the linearised and
    adjoint sweeps can reuse the identical matrices.
    """

    def __init__(self, grid: Grid, params: ModelParams, nonlin: Nonlinearities,
                 newton_tol: float = 1e-12, newton_max_iter: int = 50,
                 lin_rtol: float = 1e-10):
        self.grid = grid
        self.params = params
        self.nl = nonlin
        self.newton_tol = newton_tol
        self.newton_max_iter = newton_max_iter
        self.lin_rtol = lin_rtol

        self.quad = fem.quadrature(grid)
        self.M = fem.assemble_mass(grid, self.quad)
        self.K = fem.assemble_stiffness(grid, self.quad)
        self.Mb = fem.assemble_boundary_mass(grid, "gamma")
        self._mass_lu = splu(self.M.tocsc(), **SPLU_OPTIONS["spd"])

        self.A_red, self.free = fem.assemble_elasticity(grid, params.C, self.quad)
        self._elas_lu = splu(self.A_red, **SPLU_OPTIONS["spd"])
        self.Bc = fem.assemble_coupling_phi_to_strain(grid, params.C,
                                                      params.misfit_strain, self.quad)
        bar_stress = np.tile(params.C.apply(params.bar_strain), (self.quad.nq, 1))
        self.load_const = (self.quad.pair_stress(bar_stress)
                           + fem.neumann_load(grid, params.g_load))
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

    # -- elasticity ----------------------------------------------------------

    def solve_elastic_free(self, load: np.ndarray) -> np.ndarray:
        """Solve the reduced elasticity system for an arbitrary load vector."""
        u = np.zeros(2 * self.grid.n_nodes)
        u[self.free] = self._elas_lu.solve(load[self.free])
        return u

    def solve_elasticity(self, phi: np.ndarray) -> np.ndarray:
        """Displacement with (C(E(u) - Ebar - phi E*), E(eta)) = (g, eta)_GN."""
        load = self.Bc @ phi + self.load_const
        u = self.solve_elastic_free(load)
        rhs = load[self.free]
        res = np.linalg.norm(self.A_red @ u[self.free] - rhs)
        scale = max(np.linalg.norm(rhs), 1e-300)
        if not np.isfinite(res) or res > max(self.lin_rtol * scale, 1e-13):
            raise SolverError(f"elasticity solve failed: residual {res:.3e}")
        return u

    # -- model coefficients ----------------------------------------------------

    def coefficients(self, snap: StateSnapshot) -> con.GaussCoefficients:
        """Gauss-point model coefficients of a snapshot's (phi, u)."""
        quad = self.quad
        return con.gauss_coefficients(self.params, self.nl, quad.xy,
                                      quad.P @ snap.phi, quad.strain(snap.u))

    # -- nutrient step ---------------------------------------------------------

    def nutrient_operator(self, coef: con.GaussCoefficients,
                          tau: float) -> sp.csr_matrix:
        A = (self.K + self.params.kappa * self.Mb
             + self.quad.reaction_matrix(-coef.nutrient_dsigma))
        if self.params.beta > 0:
            A = A + (self.params.beta / tau) * self.M
        return A.tocsr()

    def step_nutrient(self, sigma_prev: np.ndarray, coef: con.GaussCoefficients,
                      w1_step: np.ndarray, w3_step: float, tau: float) -> np.ndarray:
        """One implicit nutrient step with the coefficients of the previous state."""
        p = self.params
        A = self.nutrient_operator(coef, tau)
        rhs = (p.kappa * (self.Mb @ self.embed_boundary(w1_step))
               + self.quad.pair(coef.nutrient(0.0, w3_step)))
        if p.beta > 0:
            rhs = rhs + (p.beta / tau) * (self.M @ sigma_prev)
        sigma = splu(A.tocsc(), **SPLU_OPTIONS["spd"]).solve(rhs)
        res = np.linalg.norm(A @ sigma - rhs)
        if not np.isfinite(res) or res > max(self.lin_rtol * max(np.linalg.norm(rhs), 1.0), 1e-13):
            raise SolverError(f"nutrient solve failed: residual {res:.3e}")
        return sigma

    # -- composition step ------------------------------------------------------

    def ch_jacobian(self, phi: np.ndarray, tau: float) -> sp.csc_matrix:
        """Jacobian of the composition step residual at the given iterate."""
        S = self.quad.reaction_matrix(self.nl.psi1_second(self.quad.P @ phi))
        return sp.bmat([[self.M / tau, self.K],
                        [-(self.K + S), self.M]], format="csc")

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
        lagged = (quad.pair(nl.psi2_prime(coef.phi))
                  + quad.pair(coef.w_phi)
                  - self.params.chi * (self.M @ sigma_new))

        phi = phi_prev.copy()
        mu = self._mass_lu.solve(self.K @ phi + quad.pair(nl.psi1_prime(quad.P @ phi))
                                 + lagged)

        def residual(phi, mu):
            r1 = self.M @ (phi - phi_prev) / tau + self.K @ mu - FU
            r2 = (self.M @ mu - self.K @ phi
                  - quad.pair(nl.psi1_prime(quad.P @ phi)) - lagged)
            return np.concatenate([r1, r2])

        res = residual(phi, mu)
        scale = max(np.linalg.norm(res), np.linalg.norm(FU), 1.0)
        for _ in range(self.newton_max_iter):
            if np.linalg.norm(res) <= self.newton_tol * scale:
                break
            J = self.ch_jacobian(phi, tau)
            delta = splu(J, **SPLU_OPTIONS["ch"]).solve(-res)
            phi = phi + delta[:phi.size]
            mu = mu + delta[phi.size:]
            res = residual(phi, mu)
            if not np.isfinite(res).all():
                raise TimestepError("composition Newton diverged (non-finite residual)")
        else:
            raise TimestepError(
                f"composition Newton did not converge in {self.newton_max_iter} "
                f"iterations (residual {np.linalg.norm(res):.3e}); reduce the timestep")
        return phi, mu

    # -- trajectory --------------------------------------------------------------

    def chemical_potential(self, phi: np.ndarray, sigma: np.ndarray,
                           u: np.ndarray) -> np.ndarray:
        """mu consistent with the stationary relation at a given state."""
        quad = self.quad
        phi_gp = quad.P @ phi
        rhs = (self.K @ phi + quad.pair(self.nl.psi_prime(phi_gp))
               - self.params.chi * (self.M @ sigma)
               + quad.pair(con.w_phi(self.params, phi_gp, quad.strain(u))))
        return self._mass_lu.solve(rhs)

    def advance(self, snap: StateSnapshot, controls: ControlTriple, n: int,
                tau: float) -> StateSnapshot:
        """Advance snapshot n-1 to n using control column n-1."""
        j = n - 1
        coef = self.coefficients(snap)
        sigma = self.step_nutrient(snap.sigma, coef, controls.w1[:, j],
                                   float(controls.w3[j]), tau)
        phi, mu = self.step_cahn_hilliard(snap.phi, coef, sigma,
                                          float(controls.w2[j]), tau)
        if not (np.isfinite(phi).all() and np.isfinite(sigma).all()):
            raise SolverError(f"non-finite state at step {n}")
        u = self.solve_elasticity(phi)
        return StateSnapshot(phi=phi, mu=mu, sigma=sigma, u=u, t=n * tau)

    def solve_state(self, controls: ControlTriple, phi0: np.ndarray,
                    sigma0: np.ndarray, T: float, n_steps: int,
                    storage: str = "memory", every: int = 1,
                    directory=None) -> StateTrajectory:
        """Run the forward model; returns the full trajectory."""
        cap = self.params.nutrient_cap
        if sigma0.min() < -1e-12 or sigma0.max() > cap + 1e-12:
            raise PreconditionError(
                f"initial nutrient must lie in [0, {cap}] (A5); "
                f"got [{sigma0.min():.3g}, {sigma0.max():.3g}]")
        if controls.n_steps != n_steps or controls.w1.shape != (self.grid.n_boundary_nodes, n_steps):
            raise PreconditionError("control layout does not match the run")
        tau = T / n_steps
        traj = StateTrajectory(self, controls, tau, n_steps, storage=storage,
                               every=every, directory=directory)
        u0 = self.solve_elasticity(phi0)
        mu0 = self.chemical_potential(phi0, sigma0, u0)
        snap = StateSnapshot(phi=phi0.copy(), mu=mu0, sigma=sigma0.copy(), u=u0, t=0.0)
        traj.append(snap)
        for n in range(1, n_steps + 1):
            snap = self.advance(snap, controls, n, tau)
            traj.append(snap)
        return traj

    # -- diagnostics ----------------------------------------------------------

    def free_energy(self, phi: np.ndarray, u: np.ndarray) -> float:
        """Ginzburg-Landau + elastic energy minus the boundary work."""
        quad = self.quad
        phi_gp = quad.P @ phi
        gl = 0.5 * float(phi @ (self.K @ phi)) + quad.integrate(self.nl.psi_value(phi_gp))
        elastic = quad.integrate(con.elastic_energy_density(self.params, phi_gp,
                                                            quad.strain(u)))
        work = float(fem.neumann_load(self.grid, self.params.g_load) @ u)
        return gl + elastic - work

    def integrate_nodal(self, field: np.ndarray) -> float:
        """Integral of the bilinear interpolant of a nodal field."""
        return float(np.sum(self.M @ field))
