"""The benchmark's tracer must be able to patch and restore the package."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest
import scipy.sparse.linalg

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


def test_traced_forward_factors_ch_once_per_trajectory():
    # a factorization that bypasses the traced ``splu`` name would be missed;
    # the trajectory factors J(0) once and no chord Newton step refactors
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
    # the tracer classes a factor by its dimension, so the n x n factor of
    # J(0)'s complex form reads as scalar, beside the nutrient constant part
    assert m["splu.ch.count"] == 0 and m["splu.scalar.count"] == 2
    assert m["state.newton_per_step"] == 0.0


@pytest.mark.parametrize("storage", ["memory", "disk"])
def test_traced_gradient_chain_repeats_its_counters(storage, tmp_path):
    # the benchmark fails a run whose counters differ between units, as they
    # do when a factor or a field is cached on first use
    from tumoropt import adjoint, cost
    from tumoropt.config import default_config

    tracing = _load_tracing()
    cfg = default_config(grid__nx=6, grid__ny=6, time__steps=5)
    sysd = cfg.build_system()
    phi0, sig0 = cfg.initial_fields(sysd)
    controls = cfg.initial_controls(sysd)
    weights = cfg.build_weights(sysd)

    def chain(directory):
        kept = dict(storage="disk", every=2, directory=directory) if storage == "disk" else {}
        traj = sysd.solve_state(controls, phi0, sig0, cfg["time.T"], cfg["time.steps"],
                                **kept)
        cost.eval_cost(sysd, traj, controls, weights)
        adj = adjoint.solve_adjoint(sysd, traj, controls, weights, "transpose")
        return adjoint.reduced_gradient(sysd, traj, adj, controls, weights)

    tracer = tracing.Tracer()
    units = ("unit-1", "unit-2")
    try:
        tracer.install("tumoropt")
        for uid in units:
            tracer.run(uid, chain, tmp_path / uid)
    finally:
        tracer.uninstall()
    first, second = (tracing.layer_metrics(tracer.spans, uid, sysd.grid.n_nodes)
                     for uid in units)
    assert first["splu.scalar.count"] >= 2 and first["cost.eval_calls"] == 1
    # regen_ratio counts the advance spans under solve_state: one per step,
    # which a traced stepping helper between them would hide
    if storage == "disk":
        assert first["state.advance_calls"] / first["state.regen_ratio"] == cfg["time.steps"]
    assert {k: first[k] for k in tracing.COUNTERS} == {k: second[k] for k in tracing.COUNTERS}


def _is_lookup(func) -> bool:
    """``incl.get``, ``count.get`` or ``under``."""
    if isinstance(func, ast.Attribute):
        return (func.attr == "get" and isinstance(func.value, ast.Name)
                and func.value.id in ("incl", "count"))
    return isinstance(func, ast.Name) and func.id == "under"


def _strings(nodes) -> list[str]:
    return [n.value for n in nodes
            if isinstance(n, ast.Constant) and isinstance(n.value, str)]


def _traced_names() -> set[str]:
    """Every span name ``tracing.py`` looks up, except the ``splu.*`` ones:
    ``ASSEMBLY``, the keys of ``incl.get``/``count.get``, the arguments of
    ``under`` and the right-hand sides of ``rec[NAME] == ...``."""
    names = set()
    for node in ast.walk(ast.parse(TRACING.read_text())):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "ASSEMBLY" for t in node.targets):
            names.update(elt.value for elt in node.value.elts)
        elif isinstance(node, ast.Call) and _is_lookup(node.func):
            names.update(_strings(node.args))
        elif (isinstance(node, ast.Compare) and isinstance(node.left, ast.Subscript)
              and isinstance(node.left.slice, ast.Name)
              and node.left.slice.id == "NAME"):
            names.update(_strings(node.comparators))
    return {n for n in names if not n.startswith("splu.")}


def _wrapped_by_tracer(name: str) -> bool:
    # ``Tracer.install`` wraps public functions defined in the layer module
    # and the public methods a layer class defines itself
    layer, *path = name.split(".")
    mod = importlib.import_module(f"tumoropt.{layer}")
    if len(path) == 1:
        obj = vars(mod).get(path[0])
        return inspect.isfunction(obj) and obj.__module__ == mod.__name__
    cls_name, attr = path
    cls = vars(mod).get(cls_name)
    member = vars(cls).get(attr) if inspect.isclass(cls) else None
    return inspect.isfunction(member) or isinstance(member, (staticmethod, classmethod))


def test_traced_span_names_resolve():
    # a rename in the package would silently zero the metric reading the name
    names = _traced_names()
    assert len(names) >= 19
    assert {"fem.Quadrature.reaction_matrix", "state.System.step_cahn_hilliard",
            "optimize.ControlProblem.cost", "io.read_fld"} <= names
    missing = sorted(n for n in names if not _wrapped_by_tracer(n))
    assert missing == []


def test_splu_users_bind_splu():
    # the tracer rebinds ``splu`` in these modules, and a module that no
    # longer imports it stops a traced run; ``state.splu`` is the one
    # factorization entry point, the other imports are unused
    from tumoropt import factor

    for layer in _load_tracing().SPLU_USERS:
        expect = factor.splu if layer == "state" else scipy.sparse.linalg.splu
        assert importlib.import_module(f"tumoropt.{layer}").splu is expect
