"""The four benchmark workloads.

Each workload has
  ``setup()``  -> state   build RunConfig, System, initial fields, controls
                          and weights from the seed (timed as ``setup_s``);
  ``unit(st)`` -> out     one unit of work (timed as ``solve_s``);
  ``verify(st, out)``     outside the timing: the correctness gate of one
                          unit and its fingerprint, the scalar results that
                          are compared between repeats and against the
                          stored reference of the default seed; returns
                          (error message or None, fingerprint);
  ``sizes(st)``           input sizes recorded with every result.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import numpy as np

# layers are called through their modules, so a traced run sees the calls
from tumoropt import adjoint, cost, experiments, linearized
from tumoropt import config as cfgmod

# the cost block of configs/optimize_sparse.cfg, so the derivative workloads
# differentiate the paper's headline objective
SPARSE_COST = {
    "cost.alpha_Q": 0.3, "cost.alpha_Omega": 0.5, "cost.alpha_E": 0.1,
    "cost.gamma1": 0.1, "cost.gamma2": 0.1, "cost.gamma3": 0.1,
    "cost.gamma4": 0.05, "cost.gamma5": 0.005,
    "cost.phi_Q": "constant:-0.45", "cost.phi_Omega": "constant:-0.45",
}


class State:
    """Everything ``setup`` builds; the unit only reads it."""

    def __init__(self, cfg, system, phi0, sigma0, controls, weights,
                 direction=None):
        self.cfg = cfg
        self.system = system
        self.phi0 = phi0
        self.sigma0 = sigma0
        self.controls = controls
        self.weights = weights
        self.direction = direction
        self.T = cfg["time.T"]
        self.N = cfg["time.steps"]
        self.space = system.control_space(self.T, self.N)


class Workload:
    nx = ny = steps = 0
    T = 1.0
    cost_block: dict = {}

    def __init__(self, root: Path, seed: int, scratch: Path):
        self.root = root
        self.seed = seed
        self.scratch = scratch

    def config(self):
        values = {"grid.nx": self.nx, "grid.ny": self.ny,
                  "time.steps": self.steps, "time.T": self.T, **self.cost_block}
        return cfgmod.default_config(**values)

    def setup(self) -> State:
        cfg = self.config()
        system = cfg.build_system()
        phi0, sigma0 = cfg.initial_fields(system)
        space = system.control_space(cfg["time.T"], cfg["time.steps"])
        rng = np.random.default_rng(self.seed)
        controls = space.random_admissible(rng, cfg.build_bounds())
        direction = space.random_direction(rng)
        return State(cfg, system, phi0, sigma0, controls,
                     cfg.build_weights(system), direction)

    def sizes(self, st: State) -> dict:
        g = st.system.grid
        return {"grid": [g.nx, g.ny], "nodes": g.n_nodes,
                "ch_dofs": 2 * g.n_nodes, "elasticity_dofs": int(st.system.A_red.shape[0]),
                "steps": st.N, "controls": int(st.controls.w1.size
                                               + st.controls.w2.size + st.controls.w3.size)}

    # helpers ------------------------------------------------------------------

    def forward(self, st: State, **storage):
        return st.system.solve_state(st.controls, st.phi0, st.sigma0, st.T, st.N,
                                     **storage)

    def gradient(self, st: State, traj):
        J = cost.eval_cost(st.system, traj, st.controls, st.weights)
        adj = adjoint.solve_adjoint(st.system, traj, st.controls, st.weights,
                                    "transpose")
        grad = adjoint.reduced_gradient(st.system, traj, adj, st.controls, st.weights)
        return J, grad

    @staticmethod
    def final_state(st: State, traj) -> dict:
        snap = traj.final()
        return {"phi_integral": st.system.integrate_nodal(snap.phi),
                "free_energy": st.system.free_energy(snap.phi, snap.u)}

    @staticmethod
    def sigma_range(traj) -> tuple[float, float]:
        snaps = [traj.snapshot(n) for n in range(traj.n_steps + 1)]
        return (min(float(s.sigma.min()) for s in snaps),
                max(float(s.sigma.max()) for s in snaps))


class Forward64(Workload):
    """One forward trajectory; factorization of the CH block dominates."""
    nx = ny = 64
    steps = 16
    T = 16 / 64          # tau = 1/64

    def unit(self, st):
        return self.forward(st)

    def verify(self, st, traj):
        lo, hi = self.sigma_range(traj)
        fp = {**self.final_state(st, traj), "sigma_min": lo, "sigma_max": hi}
        cap = st.system.params.nutrient_cap
        for n in range(traj.n_steps + 1):
            s = traj.snapshot(n)
            if not all(np.isfinite(a).all() for a in (s.phi, s.mu, s.sigma, s.u)):
                return f"non-finite field at step {n}", fp
        if lo < -1e-8 or hi > cap + 1e-8:
            return f"sigma leaves [0, {cap}]: [{lo!r}, {hi!r}]", fp
        return None, fp


class Derivatives32(Workload):
    """Forward, cost, transpose adjoint, reduced gradient, linearised sweep."""
    nx = ny = 32
    steps = 64
    cost_block = SPARSE_COST

    def unit(self, st):
        traj = self.forward(st)
        J, grad = self.gradient(st, traj)
        lin = linearized.solve_linearised(st.system, traj, st.controls, st.direction)
        dj_lin = cost.directional_cost_derivative(st.system, traj, st.controls,
                                                  st.weights, lin, st.direction)
        return traj, J, grad, dj_lin

    def verify(self, st, out):
        traj, J, grad, dj_lin = out
        lo, hi = self.sigma_range(traj)
        fp = {**self.final_state(st, traj), "sigma_min": lo, "sigma_max": hi,
              "J": J[0], "gradient_norm": st.space.norm(grad.direction()),
              "dJ_lin": dj_lin}
        dj_adj = st.space.inner(grad.direction(), st.direction)
        if not abs(dj_lin - dj_adj) <= 1e-10 * max(1.0, abs(dj_lin)):
            return f"duality identity fails: dJ_lin {dj_lin!r} vs <g, h> {dj_adj!r}", fp
        return None, fp


class Optimize12(Workload):
    """The shipped sparse-optimisation experiment through ``run_experiment``."""
    CONFIG = "configs/optimize_sparse.cfg"

    def config(self):
        return cfgmod.load_config(self.root / self.CONFIG)

    def setup(self):
        cfg = self.config()
        system = cfg.build_system()
        phi0, sigma0 = cfg.initial_fields(system)
        return State(cfg, system, phi0, sigma0, cfg.initial_controls(system),
                     cfg.build_weights(system))

    def unit(self, st):
        outdir = Path(tempfile.mkdtemp(prefix="optimize-", dir=self.scratch))
        status = experiments.run_experiment(st.cfg, outdir, self.seed)
        return status, outdir

    def verify(self, st, out):
        status, outdir = out
        try:
            lines = (outdir / "summary.txt").read_text().splitlines()
            csvs = {p.name: p.read_bytes() for p in sorted(outdir.glob("*.csv"))}
        finally:
            shutil.rmtree(outdir)
        summary = dict(line.split(" = ", 1) for line in lines if " = " in line)
        if status != 0:
            return f"run_experiment exited with status {status}: {summary}", {}
        last = csvs["iterates.csv"].decode().strip().splitlines()[-1].split(",")
        fp = {"J": float(last[1]), "J1": float(last[2]),
              "iterations": float(summary["iterations"])}
        if float(summary.get("agreement_w2", "nan")) != 1.0:
            return f"agreement_w2 is {summary.get('agreement_w2')}, expected 1", fp
        first = self.__dict__.setdefault("_csvs", csvs)
        if csvs != first:
            changed = sorted(k for k in set(csvs) | set(first)
                             if csvs.get(k) != first.get(k))
            return f"CSV outputs differ between repeats: {changed}", fp
        return None, fp


class Checkpoint24(Workload):
    """The gradient chain over a disk-checkpointed trajectory."""
    nx = ny = 24
    steps = 48
    every = 8
    cost_block = SPARSE_COST

    def unit(self, st):
        directory = Path(tempfile.mkdtemp(prefix="ckpt-", dir=self.scratch))
        traj = self.forward(st, storage="disk", every=self.every,
                            directory=directory)
        J, grad = self.gradient(st, traj)
        return traj, J, grad, directory

    def verify(self, st, out):
        traj, J, grad, directory = out
        try:
            fp = {**self.final_state(st, traj), "J": J[0],
                  "gradient_norm": st.space.norm(grad.direction())}
        finally:
            shutil.rmtree(directory)
        if getattr(self, "_reference", None) is None:
            self._reference = self.gradient(st, self.forward(st))[1]
        ref = self._reference
        if not all(np.array_equal(a, b) for a, b in
                   ((grad.g1, ref.g1), (grad.g2, ref.g2), (grad.g3, ref.g3))):
            return "disk-checkpointed gradient differs from the in-memory one", fp
        return None, fp


WORKLOADS = {
    "forward_64": Forward64,
    "derivatives_32": Derivatives32,
    "optimize_12": Optimize12,
    "ckpt_24": Checkpoint24,
}
