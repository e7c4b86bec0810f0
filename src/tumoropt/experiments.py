"""Batch experiments: forward run, derivative checks, optimisation, sweep.

Each experiment writes CSV artifacts plus a manifest listing every artifact
with its content hash.  Given the same configuration the CSV outputs are
byte-identical across runs; the manifest additionally records timings.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import config as cfgmod
from . import io
from .adjoint import reduced_gradient, solve_adjoint
from .linearized import frechet_check
from .optimize import (GATE_RTOL, ControlProblem, OptimizeOptions,
                       central_difference_checks, optimize,
                       projection_formula_check, sparsity_report)

# the Taylor-remainder check: random directions and the epsilon ladder
FRECHET_DIRECTIONS = 3
FRECHET_EPS = (1e-1, 10 ** -1.5, 1e-2, 10 ** -2.5, 1e-3)


def _cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _optimize_options(cfg: cfgmod.RunConfig, seed: int) -> OptimizeOptions:
    return OptimizeOptions(max_iterations=cfg["opt.max_iterations"],
                           tol=cfg["opt.tol"], seed=seed)


def _setup(cfg: cfgmod.RunConfig):
    system = cfg.build_system()
    phi0, sigma0 = cfg.initial_fields(system)
    controls = cfg.initial_controls(system)
    return system, phi0, sigma0, controls, cfg["time.T"], cfg["time.steps"]


# ---------------------------------------------------------------------------
# experiment bodies; each returns (ok, summary dict, artifact names)
# ---------------------------------------------------------------------------

def run_forward(cfg, outdir: Path, seed: int):
    system, phi0, sigma0, controls, T, N = _setup(cfg)
    cap = system.params.nutrient_cap
    tol = 1e-8
    space = system.control_space(T, N)
    rng = np.random.default_rng(seed)

    every = cfg["solver.checkpoint_every"]
    if every > 0:
        traj = system.solve_state(controls, phi0, sigma0, T, N,
                                  storage="disk", every=every,
                                  directory=outdir / "checkpoints")
    else:
        traj = system.solve_state(controls, phi0, sigma0, T, N)
    vtk_every = cfg["experiment.vtk_every"]
    rows, snapshots = [], []
    for n in range(N + 1):
        s = traj.snapshot(n)
        rows.append((n, s.t, s.phi.min(), s.phi.max(), s.sigma.min(),
                     s.sigma.max(), system.integrate_nodal(s.phi),
                     system.free_energy(s.phi, s.u)))
        if vtk_every > 0 and n % vtk_every == 0:
            name = f"state_{n:05d}.vtk"
            io.write_vtk(outdir / name, system.grid,
                         {"phi": s.phi, "mu": s.mu, "sigma": s.sigma},
                         {"displacement": s.u.reshape(-1, 2)})
            snapshots.append(name)
    write_csv(outdir / "forward.csv",
              ["step", "t", "phi_min", "phi_max", "sigma_min", "sigma_max",
               "mass", "energy"], rows)
    artifacts = ["forward.csv", *snapshots]
    io.write_fld(outdir / "state_final.fld",
                 io.snapshot_arrays(system.grid, traj.final()))
    artifacts.append("state_final.fld")

    bound_rows = []
    ok = True
    # trial 0 reads its sigma range off the rows, so a disk-checkpointed
    # trajectory is walked once
    ranges = [(r[4], r[5]) for r in rows]
    for trial in range(cfg["experiment.trials"]):
        if trial > 0:
            w = space.random_admissible(rng, controls.bounds)
            tr = system.solve_state(w, phi0, sigma0, T, N)
            ranges = [(s.sigma.min(), s.sigma.max())
                      for s in map(tr.snapshot, range(N + 1))]
        smin = min(lo for lo, _ in ranges)
        smax = max(hi for _, hi in ranges)
        in_bounds = smin >= -tol and smax <= cap + tol
        ok = ok and in_bounds
        bound_rows.append((trial, smin, smax, in_bounds))
    write_csv(outdir / "bounds.csv",
              ["trial", "sigma_min", "sigma_max", "within_bounds"], bound_rows)
    artifacts.append("bounds.csv")

    summary = {"sigma_bounds_ok": ok, "trials": len(bound_rows),
               "nutrient_cap": cap}
    return ok, summary, artifacts


def run_frechet(cfg, outdir: Path, seed: int):
    system, phi0, sigma0, controls, T, N = _setup(cfg)
    space = system.control_space(T, N)
    rng = np.random.default_rng(seed)
    b = controls.bounds
    base = system.zero_controls(N, b)
    base.w1[:] = 0.5 * (b.w1_lo + b.w1_hi)
    base.w2[:] = 0.5 * (b.w2_lo + b.w2_hi)
    base.w3[:] = 0.5 * (b.w3_lo + b.w3_hi)

    rows = []
    slopes = []
    for d in range(FRECHET_DIRECTIONS):
        h = space.random_direction(rng)
        rep = frechet_check(system, phi0, sigma0, T, N, base, h, FRECHET_EPS)
        slopes.append(rep.slope)
        for e, r in rep.rows():
            rows.append((d, e, r, rep.slope))
    write_csv(outdir / "frechet.csv",
              ["direction", "eps", "remainder", "slope"], rows)
    ok = all(1.8 <= s <= 2.2 for s in slopes)
    return ok, {"slopes": slopes, "slope_ok": ok}, ["frechet.csv"]


def run_gradcheck(cfg, outdir: Path, seed: int):
    system, phi0, sigma0, controls, T, N = _setup(cfg)
    weights = cfg.build_weights(system)
    problem = ControlProblem(system, phi0, sigma0, T, N, weights)

    traj = problem.solve(controls)
    modes = ("transpose", "continuous")
    grads = [reduced_gradient(
        system, traj, solve_adjoint(system, traj, controls, weights, mode),
        controls, weights) for mode in modes]

    rows = []
    worst = {mode: 0.0 for mode in modes}
    checks = central_difference_checks(problem, controls, grads,
                                       np.random.default_rng(seed))
    for d, (fd, per_grad) in enumerate(checks):
        for mode, (dj, rel) in zip(modes, per_grad):
            worst[mode] = max(worst[mode], rel)
            rows.append((d, mode, dj, fd, rel))
    write_csv(outdir / "gradcheck.csv",
              ["direction", "mode", "adjoint", "finite_difference",
               "relative_error"], rows)
    ok = worst["transpose"] <= GATE_RTOL
    summary = {"worst_transpose": worst["transpose"],
               "worst_continuous": worst["continuous"], "gradient_ok": ok}
    return ok, summary, ["gradcheck.csv"]


def _save_controls(path: Path, w) -> None:
    io.write_fld(path, {"w1": w.w1, "w2": w.w2, "w3": w.w3})


def run_optimize(cfg, outdir: Path, seed: int):
    system, phi0, sigma0, controls, T, N = _setup(cfg)
    weights = cfg.build_weights(system)
    problem = ControlProblem(system, phi0, sigma0, T, N, weights)
    report = optimize(problem, controls, _optimize_options(cfg, seed))

    write_csv(outdir / "iterates.csv",
              ["iteration", "J", "J1", "J2", "step", "residual", "halvings"],
              [(r.iteration, r.J, r.J1, r.J2, r.step, r.residual, r.halvings)
               for r in report.history])
    _save_controls(outdir / "controls_final.fld", report.controls)
    artifacts = ["iterates.csv", "controls_final.fld"]

    w, grad = report.controls, report.gradient
    summary = {"converged": report.converged, "stagnated": report.stagnated,
               "residual": report.residual, "iterations": len(report.history),
               "message": report.message}
    if weights.gamma4 > 0 or weights.gamma5 > 0:
        sr = sparsity_report(grad, w, weights)
        # each dosage's columns carry its unsigned dual integral
        integrals = {"w2": ("kp_integral", grad.kp_integral),
                     "w3": ("hr_integral", grad.hr_integral)}
        columns = {"step": range(N), "t": [(j + 1) * (T / N) for j in range(N)]}
        for name, rec in sr.items():
            label, integral = integrals[name]
            columns |= {name: rec.values, label: integral,
                        f"{name}_zero": rec.zero,
                        f"{name}_condition": rec.condition,
                        f"{name}_boundary": rec.boundary}
            summary[f"agreement_{name}"] = rec.agreement
        write_csv(outdir / "sparsity.csv", list(columns), zip(*columns.values()))
        artifacts.append("sparsity.csv")
        lambdas = [[""] * N if lam is None else lam
                   for lam in (report.lambda2, report.lambda3)]
        write_csv(outdir / "lambdas.csv", ["step", "lambda2", "lambda3"],
                  zip(range(N), *lambdas))
        artifacts.append("lambdas.csv")
    dev = projection_formula_check(grad, w, weights)
    if dev:
        write_csv(outdir / "projection.csv", ["control", "deviation"],
                  sorted(dev.items()))
        artifacts.append("projection.csv")
        summary["projection_deviation"] = dev["max"]
    return bool(report.converged), summary, artifacts


def run_gamma_sweep(cfg, outdir: Path, seed: int):
    system, phi0, sigma0, controls, T, N = _setup(cfg)
    tau = T / N
    base_weights = cfg.build_weights(system)
    opts = _optimize_options(cfg, seed)
    rows = []
    l1_norms = []
    lam_ok = True
    agreements = []
    for g4 in cfg["experiment.gamma4_values"]:
        # gamma4 enters only J2, so the smooth cost the gradient gate checks
        # is the same at every point: gate the first point only
        weights = dataclasses.replace(base_weights, gamma4=float(g4))
        problem = ControlProblem(system, phi0, sigma0, T, N, weights)
        report = optimize(problem, controls, opts)
        opts = dataclasses.replace(opts, gate=False)
        w = report.controls
        l1 = tau * float(np.abs(w.w2).sum())
        l1_norms.append(l1)
        agreement = sparsity_report(report.gradient, w, weights)["w2"].agreement
        agreements.append(agreement)
        lam2 = report.lambda2
        lam_ok = lam_ok and lam2 is not None and bool((np.abs(lam2) <= 1.0 + 1e-12).all())
        rows.append((g4, l1, report.residual, len(report.history),
                     report.converged, agreement,
                     float(lam2.min()) if lam2 is not None else "",
                     float(lam2.max()) if lam2 is not None else ""))
    write_csv(outdir / "sweep.csv",
              ["gamma4", "w2_l1_norm", "residual", "iterations", "converged",
               "agreement_w2", "lambda2_min", "lambda2_max"], rows)
    monotone = all(l1_norms[i + 1] <= l1_norms[i] + 1e-12
                   for i in range(len(l1_norms) - 1))
    plateau = l1_norms[-1] <= 1e-12
    ok = monotone and plateau and lam_ok
    summary = {"l1_norms": l1_norms, "monotone": monotone,
               "zero_plateau": plateau, "lambda_in_range": lam_ok,
               "agreements": agreements}
    return ok, summary, ["sweep.csv"]


RUNNERS = {
    "forward": run_forward,
    "frechet": run_frechet,
    "gradcheck": run_gradcheck,
    "optimize": run_optimize,
    "gamma_sweep": run_gamma_sweep,
}


def run_experiment(cfg: cfgmod.RunConfig, outdir, seed: int | None = None) -> int:
    """Dispatch one experiment; returns a process exit status."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    seed = cfg["experiment.seed"] if seed is None else seed
    name = cfg["experiment.name"]
    started = time.perf_counter()
    try:
        ok, summary, artifacts = RUNNERS[name](cfg, outdir, seed)
        status = 0 if ok else 1
        error = None
    except Exception as exc:  # noqa: BLE001 - reported as a machine-readable record
        ok, summary, artifacts = False, {}, []
        status = 1
        error = {"error": type(exc).__name__, "message": str(exc)}
    elapsed = time.perf_counter() - started

    if error is not None:
        (outdir / "error.json").write_text(json.dumps(error, indent=2) + "\n")
        artifacts = artifacts + ["error.json"]
    summary_lines = [f"{k} = {summary[k]}" for k in sorted(summary)]
    summary_lines.append(f"ok = {ok}")
    (outdir / "summary.txt").write_text("\n".join(summary_lines) + "\n")
    cfg_text = cfgmod.dumps(cfg)
    (outdir / "config.cfg").write_text(cfg_text)
    artifacts = artifacts + ["summary.txt", "config.cfg"]

    manifest = [
        f"config_sha256 = {hashlib.sha256(cfg_text.encode()).hexdigest()}",
        f"package = tumoropt {__version__}",
        f"experiment = {name}",
        f"seed = {seed}",
        f"status = {'ok' if status == 0 else 'failed'}",
        f"elapsed_seconds = {elapsed:.3f}",
    ]
    for art in artifacts:
        manifest.append(f"artifact {art} {_sha256(outdir / art)}")
    (outdir / "manifest.txt").write_text("\n".join(manifest) + "\n")
    return status
