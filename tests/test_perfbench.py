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
