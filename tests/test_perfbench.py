"""The benchmark's tracer must be able to patch and restore the package."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_and_uninstall():
    tracing = _load_tracing()
    users = [importlib.import_module(f"tumoropt.{name}") for name in tracing.SPLU_USERS]
    before = [mod.splu for mod in users]
    tracer = tracing.Tracer()
    try:
        tracer.install("tumoropt")
        assert all(mod.splu is not orig for mod, orig in zip(users, before))
    finally:
        tracer.uninstall()
    assert all(mod.splu is orig for mod, orig in zip(users, before))


def test_traced_forward_factors_ch_once_per_step():
    # a factorization that bypasses the traced ``splu`` name would be missed
    from tumoropt.config import default_config

    tracing = _load_tracing()
    cfg = default_config(grid__nx=6, grid__ny=6, time__steps=5)
    sysd = cfg.build_system()
    phi0, sig0 = cfg.initial_fields(sysd)
    controls = cfg.initial_controls(sysd)
    tracer = tracing.Tracer()
    try:
        tracer.install("tumoropt")
        tracer.run("unit-1", sysd.solve_state, controls, phi0, sig0,
                   cfg["time.T"], cfg["time.steps"])
    finally:
        tracer.uninstall()
    m = tracing.layer_metrics(tracer.spans, "unit-1", sysd.grid.n_nodes)
    assert m["splu.ch.count"] == cfg["time.steps"]
    assert m["state.newton_per_step"] == 1.0
