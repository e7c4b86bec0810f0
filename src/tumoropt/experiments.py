"""Batch experiments: forward run, derivative checks, optimisation, sweep.

Each experiment writes CSV artifacts plus a manifest listing every artifact
with its content hash.  Given the same configuration the CSV outputs are
byte-identical across runs; the manifest additionally records timings.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import config as cfgmod
from . import io
from .adjoint import reduced_gradient, solve_adjoint
from .cost import eval_cost
from .linearized import frechet_check
from .optimize import (ControlProblem, OptimizeOptions, optimize,
                       projection_formula_check, sparsity_report)


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
    step0 = cfg["opt.step0"]
    return OptimizeOptions(
        max_iterations=cfg["opt.max_iterations"], tol=cfg["opt.tol"],
        step0=None if step0 <= 0 else step0, armijo=cfg["opt.armijo"],
        max_halvings=cfg["opt.max_halvings"], gate=bool(cfg["opt.gate"]),
        seed=seed)


def _setup(cfg: cfgmod.RunConfig):
    system = cfg.build_system()
    phi0, sigma0 = cfg.initial_fields(system)
    controls = cfg.initial_controls(system)
    return system, phi0, sigma0, controls


# ---------------------------------------------------------------------------
# experiment bodies; each returns (ok, summary dict, artifact names)
# ---------------------------------------------------------------------------

def run_forward(cfg, outdir: Path, seed: int):
    system, phi0, sigma0, controls = _setup(cfg)
    T, N = cfg["time.T"], cfg["time.steps"]
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
    rows = []
    for n in range(N + 1):
        s = traj.snapshot(n)
        rows.append((n, s.t, s.phi.min(), s.phi.max(), s.sigma.min(),
                     s.sigma.max(), system.integrate_nodal(s.phi),
                     system.free_energy(s.phi, s.u)))
    write_csv(outdir / "forward.csv",
              ["step", "t", "phi_min", "phi_max", "sigma_min", "sigma_max",
               "mass", "energy"], rows)
    artifacts = ["forward.csv"]

    every = cfg["experiment.vtk_every"]
    if every > 0:
        for n in range(0, N + 1, every):
            s = traj.snapshot(n)
            name = f"state_{n:05d}.vtk"
            io.write_vtk(outdir / name, system.grid,
                         {"phi": s.phi, "mu": s.mu, "sigma": s.sigma},
                         {"displacement": s.u.reshape(-1, 2)})
            artifacts.append(name)
    io.write_fld(outdir / "state_final.fld",
                 io.snapshot_arrays(system.grid, traj.final()))
    artifacts.append("state_final.fld")

    bound_rows = []
    ok = True
    for trial in range(max(1, cfg["experiment.trials"])):
        w = controls if trial == 0 else space.random_admissible(rng, controls.bounds)
        tr = traj if trial == 0 else system.solve_state(w, phi0, sigma0, T, N)
        smin = min(tr.snapshot(n).sigma.min() for n in range(N + 1))
        smax = max(tr.snapshot(n).sigma.max() for n in range(N + 1))
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
    system, phi0, sigma0, controls = _setup(cfg)
    T, N = cfg["time.T"], cfg["time.steps"]
    space = system.control_space(T, N)
    rng = np.random.default_rng(seed)
    b = controls.bounds
    base = system.zero_controls(N, b)
    base.w1[:] = 0.5 * (np.asarray(b.w1_lo) + np.asarray(b.w1_hi))
    base.w2[:] = 0.5 * (np.asarray(b.w2_lo) + np.asarray(b.w2_hi))
    base.w3[:] = 0.5 * (np.asarray(b.w3_lo) + np.asarray(b.w3_hi))

    eps = np.asarray(cfg["experiment.eps_values"])
    rows = []
    slopes = []
    for d in range(max(1, cfg["experiment.directions"])):
        h = space.random_direction(rng)
        rep = frechet_check(system, phi0, sigma0, T, N, base, h, eps)
        slopes.append(rep.slope)
        for e, r in rep.rows():
            rows.append((d, e, r, rep.slope))
    write_csv(outdir / "frechet.csv",
              ["direction", "eps", "remainder", "slope"], rows)
    ok = all(1.8 <= s <= 2.2 for s in slopes)
    return ok, {"slopes": slopes, "slope_ok": ok}, ["frechet.csv"]


def run_gradcheck(cfg, outdir: Path, seed: int):
    system, phi0, sigma0, controls = _setup(cfg)
    T, N = cfg["time.T"], cfg["time.steps"]
    weights = cfg.build_weights(system)
    space = system.control_space(T, N)
    rng = np.random.default_rng(seed)
    eps = cfg["experiment.fd_eps"]

    traj = system.solve_state(controls, phi0, sigma0, T, N)
    grads = {mode: reduced_gradient(
        system, traj, solve_adjoint(system, traj, controls, weights, mode),
        controls, weights) for mode in ("transpose", "continuous")}

    def j1(w):
        t = system.solve_state(w, phi0, sigma0, T, N)
        return eval_cost(system, t, w, weights)[1]

    rows = []
    worst = {"transpose": 0.0, "continuous": 0.0}
    for d in range(max(1, cfg["experiment.directions"])):
        h = space.random_direction(rng)
        fd = (j1(controls.axpy(eps, h)) - j1(controls.axpy(-eps, h))) / (2 * eps)
        for mode, grad in grads.items():
            dj = space.inner(grad.direction(), h)
            rel = abs(fd - dj) / max(abs(fd), abs(dj), 1e-14)
            worst[mode] = max(worst[mode], rel)
            rows.append((d, mode, dj, fd, rel))
    write_csv(outdir / "gradcheck.csv",
              ["direction", "mode", "adjoint", "finite_difference",
               "relative_error"], rows)
    ok = worst["transpose"] <= 1e-6
    summary = {"worst_transpose": worst["transpose"],
               "worst_continuous": worst["continuous"], "gradient_ok": ok}
    return ok, summary, ["gradcheck.csv"]


def _save_controls(path: Path, w) -> None:
    io.write_fld(path, {"w1": w.w1, "w2": w.w2, "w3": w.w3})


def run_optimize(cfg, outdir: Path, seed: int):
    system, phi0, sigma0, controls = _setup(cfg)
    T, N = cfg["time.T"], cfg["time.steps"]
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
        tau = T / N
        rows = [(j, (j + 1) * tau, sr.w2[j], sr.kp_integral[j],
                 bool(sr.w2_zero[j]), bool(sr.w2_condition[j]), bool(sr.w2_boundary[j]),
                 sr.w3[j], sr.hr_integral[j],
                 bool(sr.w3_zero[j]), bool(sr.w3_condition[j]), bool(sr.w3_boundary[j]))
                for j in range(N)]
        write_csv(outdir / "sparsity.csv",
                  ["step", "t", "w2", "kp_integral", "w2_zero", "w2_condition",
                   "w2_boundary", "w3", "hr_integral", "w3_zero", "w3_condition",
                   "w3_boundary"], rows)
        artifacts.append("sparsity.csv")
        summary["agreement_w2"] = sr.agreement("w2")
        summary["agreement_w3"] = sr.agreement("w3")
        lam_rows = []
        for j in range(N):
            lam_rows.append((j,
                             float(report.lambda2[j]) if report.lambda2 is not None else "",
                             float(report.lambda3[j]) if report.lambda3 is not None else ""))
        write_csv(outdir / "lambdas.csv", ["step", "lambda2", "lambda3"], lam_rows)
        artifacts.append("lambdas.csv")
    try:
        dev = projection_formula_check(grad, w, weights)
        write_csv(outdir / "projection.csv", ["control", "deviation"],
                  sorted(dev.items()))
        artifacts.append("projection.csv")
        summary["projection_deviation"] = dev["max"]
    except ValueError:
        pass
    return bool(report.converged), summary, artifacts


def run_gamma_sweep(cfg, outdir: Path, seed: int):
    values = cfg["experiment.gamma4_values"]
    # fail before the first optimisation if any swept weight set breaks A7
    for g4 in values:
        cfgmod.validate_config(cfgmod.RunConfig({**cfg.values, "cost.gamma4": g4}))
    T, N = cfg["time.T"], cfg["time.steps"]
    tau = T / N
    rows = []
    l1_norms = []
    lam_ok = True
    agreements = []
    for g4 in values:
        sub = cfgmod.RunConfig(dict(cfg.values))
        sub.values["cost.gamma4"] = float(g4)
        system, phi0, sigma0, controls = _setup(sub)
        weights = sub.build_weights(system)
        problem = ControlProblem(system, phi0, sigma0, T, N, weights)
        report = optimize(problem, controls, _optimize_options(sub, seed))
        w = report.controls
        l1 = tau * float(np.abs(w.w2).sum())
        l1_norms.append(l1)
        sr = sparsity_report(report.gradient, w, weights)
        agreements.append(sr.agreement("w2"))
        lam2 = report.lambda2
        lam_in = bool(lam2 is not None and (np.abs(lam2) <= 1.0 + 1e-12).all())
        lam_ok = lam_ok and lam_in
        rows.append((g4, l1, report.residual, len(report.history),
                     report.converged, sr.agreement("w2"),
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
