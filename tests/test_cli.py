import dataclasses
import json
from pathlib import Path

import numpy as np

import tumoropt.optimize as optmod
from tumoropt import experiments
from tumoropt.cli import main
from tumoropt.config import default_config, dumps, load_config
from tumoropt.experiments import run_experiment
from tumoropt.state import System

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _write_cfg(tmp_path, **overrides):
    cfg = default_config(**overrides)
    p = tmp_path / "run.cfg"
    p.write_text(dumps(cfg))
    return cfg, p


SMALL = dict(grid__nx=5, grid__ny=5, time__steps=4, time__T=0.25)


def test_cli_forward_run(tmp_path):
    _, cfg_path = _write_cfg(tmp_path, **SMALL)
    out = tmp_path / "out"
    status = main(["run", str(cfg_path), "--out", str(out)])
    assert status == 0
    assert (out / "manifest.txt").exists()
    assert (out / "forward.csv").exists()
    manifest = (out / "manifest.txt").read_text()
    assert "status = ok" in manifest
    # manifest completeness: every emitted file is listed with a hash
    listed = {line.split()[1] for line in manifest.splitlines()
              if line.startswith("artifact ")}
    emitted = {p.name for p in out.iterdir() if p.is_file()} - {"manifest.txt"}
    assert listed == emitted
    for line in manifest.splitlines():
        if line.startswith("artifact "):
            assert len(line.split()[2]) == 64


def test_cli_rejects_bad_config(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("grid.nx = -3\n")
    status = main(["run", str(p), "--out", str(tmp_path / "o")])
    assert status == 2


def test_cli_experiment_override(tmp_path):
    _, cfg_path = _write_cfg(tmp_path, **SMALL)
    out = tmp_path / "out"
    status = main(["run", str(cfg_path), "--out", str(out),
                   "--experiment", "gradcheck", "--seed", "3"])
    assert status == 0
    assert (out / "gradcheck.csv").exists()
    rows = (out / "gradcheck.csv").read_text().splitlines()
    header = rows[0].split(",")
    i_mode = header.index("mode")
    i_err = header.index("relative_error")
    worst = max(float(r.split(",")[i_err]) for r in rows[1:]
                if r.split(",")[i_mode] == "transpose")
    assert worst <= 1e-6


def test_identical_configs_give_identical_csv(tmp_path):
    cfg, _ = _write_cfg(tmp_path, **SMALL, experiment__trials=3)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_experiment(cfg, out1, seed=7) == 0
    assert run_experiment(cfg, out2, seed=7) == 0
    for name in ("forward.csv", "bounds.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_failed_experiment_writes_error_record(tmp_path):
    cfg = default_config(**SMALL, ic__phi="file:/nonexistent.fld")
    out = tmp_path / "out"
    status = run_experiment(cfg, out, seed=0)
    assert status == 1
    record = json.loads((out / "error.json").read_text())
    assert "error" in record and "message" in record


def test_vtk_series_emitted(tmp_path):
    cfg = default_config(**SMALL, experiment__vtk_every=2)
    out = tmp_path / "out"
    assert run_experiment(cfg, out, seed=0) == 0
    assert (out / "state_00000.vtk").exists()
    assert (out / "state_00004.vtk").exists()


def test_shipped_configs_parse():
    for path in CONFIG_DIR.glob("*.cfg"):
        cfg = load_config(path)
        assert cfg["experiment.name"] in ("forward", "frechet", "gradcheck",
                                          "optimize", "gamma_sweep")


def test_forward_with_disk_checkpoints(tmp_path):
    cfg = default_config(**SMALL, solver__checkpoint_every=2)
    ref = default_config(**SMALL)
    out1, out2 = tmp_path / "ck", tmp_path / "mem"
    assert run_experiment(cfg, out1, seed=0) == 0
    assert run_experiment(ref, out2, seed=0) == 0
    assert (out1 / "checkpoints" / "index.txt").exists()
    assert (out1 / "forward.csv").read_bytes() == (out2 / "forward.csv").read_bytes()


def test_forward_walks_disk_trajectory_once(tmp_path, monkeypatch):
    calls = []
    real = System.advance

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(System, "advance", counting)
    cfg = default_config(grid__nx=8, grid__ny=8, time__steps=16,
                         solver__checkpoint_every=4)
    assert run_experiment(cfg, tmp_path / "out", seed=0) == 0
    # 16 steps of the solve, then each segment regenerated once for the rows
    assert len(calls) == 32


OPTIMIZE_SMALL = dict(grid__nx=4, grid__ny=4, time__steps=4, time__T=0.25,
                      experiment__name="optimize", opt__max_iterations=5)


def test_optimize_without_projection_formula(tmp_path):
    # gamma1 = gamma2 = gamma3 = 0: no control has a projection formula
    cfg = default_config(**OPTIMIZE_SMALL, cost__gamma1=0.0, cost__gamma2=0.0,
                         cost__gamma3=0.0)
    out = tmp_path / "out"
    run_experiment(cfg, out, seed=0)
    assert (out / "iterates.csv").exists()
    assert not (out / "projection.csv").exists()
    assert not (out / "error.json").exists()


def test_optimize_reports_projection_check_errors(tmp_path, monkeypatch):
    def broken(*args):
        raise ValueError("broken projection check")

    monkeypatch.setattr(experiments, "projection_formula_check", broken)
    out = tmp_path / "out"
    assert run_experiment(default_config(**OPTIMIZE_SMALL), out, seed=0) == 1
    record = json.loads((out / "error.json").read_text())
    assert record == {"error": "ValueError", "message": "broken projection check"}


def test_optimize_experiment_artifacts(tmp_path):
    cfg = default_config(
        grid__nx=4, grid__ny=4, time__steps=4, time__T=0.25,
        experiment__name="optimize",
        cost__alpha_Omega=0.5, cost__gamma4=0.01, cost__gamma5=0.01,
        cost__phi_Omega="constant:-0.4",
        opt__max_iterations=60)
    out = tmp_path / "out"
    status = run_experiment(cfg, out, seed=0)
    assert status == 0
    for name in ("iterates.csv", "controls_final.fld", "sparsity.csv",
                 "lambdas.csv", "projection.csv"):
        assert (out / name).exists(), name
    rows = (out / "iterates.csv").read_text().splitlines()
    costs = [float(r.split(",")[1]) for r in rows[1:]]
    assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))


TINY_SWEEP = dict(grid__nx=4, grid__ny=4, time__steps=3, time__T=0.25,
                  experiment__name="gamma_sweep", cost__gamma4=0.01,
                  cost__gamma5=0.005, experiment__gamma4_values=(0.01, 0.1),
                  opt__max_iterations=5)


def test_gamma_sweep_gates_once(tmp_path, monkeypatch):
    calls = []
    real = optmod.gradient_fd_gate

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(optmod, "gradient_fd_gate", counting)
    out = tmp_path / "out"
    run_experiment(default_config(**TINY_SWEEP), out, seed=0)
    assert not (out / "error.json").exists()
    assert len((out / "sweep.csv").read_text().splitlines()) == 3
    assert len(calls) == 1


def test_gamma_sweep_gate_errors_independent_of_gamma4():
    # gamma4 enters only J2, so the gate sees the same smooth cost and gradient
    cfg = default_config(**TINY_SWEEP)
    system = cfg.build_system()
    phi0, sigma0 = cfg.initial_fields(system)
    controls = cfg.initial_controls(system)
    base = cfg.build_weights(system)
    errors = []
    for g4 in cfg["experiment.gamma4_values"]:
        problem = optmod.ControlProblem(system, phi0, sigma0, cfg["time.T"],
                                        cfg["time.steps"],
                                        dataclasses.replace(base, gamma4=g4))
        errors.append(optmod.gradient_fd_gate(problem, controls,
                                              problem.gradient(controls),
                                              np.random.default_rng(0)))
    assert errors[0] == errors[1]


def test_package_attributes_are_its_layer_modules():
    # a package-level re-export must not shadow a submodule of the same name
    import importlib
    import types

    import tumoropt
    for name in ("state", "fem", "constitutive", "linearized", "adjoint",
                 "cost", "optimize", "experiments", "io", "config"):
        importlib.import_module(f"tumoropt.{name}")
        assert isinstance(getattr(tumoropt, name), types.ModuleType), name
    assert [n for n in tumoropt.__all__ if not hasattr(tumoropt, n)] == []
