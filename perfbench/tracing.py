"""Span tracing of the tumoropt layers from outside the package.

``Tracer.install`` rebinds, at run time, every public function and public
method of the traced modules, and the ``splu`` name that ``state``,
``linearized`` and ``adjoint`` import, to wrappers that record one span per
call: (name, start, end, parent, unit, extra).  No file of the package
changes; ``uninstall`` restores every binding.  Spans stay in memory until
``write`` dumps them.

A span is recorded only while ``unit`` is set, so work outside the measured
units (correctness gates, fingerprints) runs through the wrappers untraced.
``layer_metrics`` turns the spans of one unit into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
from time import perf_counter

LAYERS = ("state", "fem", "constitutive", "linearized", "adjoint", "cost",
          "optimize", "experiments", "io", "config")
SPLU_USERS = ("state", "linearized", "adjoint")

ASSEMBLY = ("state.System.ch_jacobian", "state.System.nutrient_operator",
            "fem.Quadrature.reaction_matrix")

# counters that must repeat exactly between units with the same inputs
COUNTERS = ("fem.assembly_calls", "constitutive.gp_eval_calls",
            "state.newton_iters", "state.newton_per_step", "state.advance_calls",
            "state.regen_ratio", "splu.ch.count", "splu.ch.fill_nnz",
            "splu.scalar.count", "splu.scalar.fill_nnz", "splu.solve.count",
            "cost.eval_calls", "optimize.iterations", "optimize.cost_evals",
            "optimize.halvings", "optimize.accept_ratio", "optimize.gate_solves",
            "io.bytes_written", "io.bytes_read")

NAME, START, END, PARENT, UNIT, EXTRA = range(6)


class _TracedLU:
    """A SuperLU factor whose ``solve`` is traced."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.unit: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self.unit, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = perf_counter()
        self._stack.pop()

    def run(self, unit: str, fn, *args):
        """Call ``fn(*args)`` as the root span ``bench.<unit kind>`` of ``unit``."""
        self.unit = unit
        rec = self._open("bench." + unit.split("-")[0])
        try:
            return fn(*args)
        finally:
            self._close(rec)
            self.unit = None

    def _wrap(self, name: str, fn, extra=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.unit is None:
                return fn(*args, **kwargs)
            rec = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if extra is not None:
                # bookkeeping outside the span, attributed to the trace layer
                book = tracer._open("trace.extra")
                try:
                    rec[EXTRA] = extra(args, out)
                finally:
                    tracer._close(book)
            return out

        return traced

    def _traced_splu(self, splu):
        wrap = self._wrap

        def fill(args, lu):
            return (args[0].shape[0], int(lu.L.nnz + lu.U.nnz))

        factor = wrap("splu.factor", splu, fill)

        @functools.wraps(splu)
        def traced_splu(*args, **kwargs):
            lu = factor(*args, **kwargs)
            return _TracedLU(lu, wrap("splu.solve", lu.solve))

        return traced_splu

    # -- installation ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package: str = "tumoropt") -> None:
        extras = {"io.write_fld": lambda a, _: os.path.getsize(a[0]),
                  "io.read_fld": lambda a, _: os.path.getsize(a[0])}
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package}.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    wrapped = self._wrap(name, obj, extras.get(name))
                    replaced[id(obj)] = wrapped
                    self._set(mod, attr, wrapped)
                elif inspect.isclass(obj):
                    self._install_class(layer, obj)
        # names imported into other modules (``from .cost import eval_cost``)
        for modname, mod in list(sys.modules.items()):
            if modname.startswith(package + ".") and mod is not None:
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in replaced and inspect.isfunction(obj):
                        self._set(mod, attr, replaced[id(obj)])
        for layer in SPLU_USERS:
            mod = importlib.import_module(f"{package}.{layer}")
            self._set(mod, "splu", self._traced_splu(mod.splu))

    def _install_class(self, layer: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(member):
                self._set(cls, attr, self._wrap(name, member))
            elif isinstance(member, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(name, member.__func__)))
            elif isinstance(member, classmethod):
                self._set(cls, attr, classmethod(self._wrap(name, member.__func__)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output ------------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,unit,parent,name,start,end\n")
            for i, rec in enumerate(self.spans):
                fh.write(f"{i},{rec[UNIT]},{rec[PARENT]},{rec[NAME]},"
                         f"{rec[START]!r},{rec[END]!r}\n")


# ---------------------------------------------------------------------------
# per-layer metrics of one unit
# ---------------------------------------------------------------------------

def unit_spans(spans: list[list], unit: str) -> list[tuple[int, list]]:
    return [(i, rec) for i, rec in enumerate(spans) if rec[UNIT] == unit]


def self_times(items: list[tuple[int, list]]) -> dict[int, float]:
    """Span duration minus the time covered by its child spans."""
    own = {i: rec[END] - rec[START] for i, rec in items}
    for i, rec in items:
        if rec[PARENT] in own:
            own[rec[PARENT]] -= rec[END] - rec[START]
    return own


def check_nesting(items: list[tuple[int, list]], own: dict[int, float]) -> str | None:
    """Each span lies inside its parent, and the self times add up to the root."""
    root = items[0][1]
    bounds = {i: (rec[START], rec[END]) for i, rec in items}
    for i, rec in items[1:]:
        lo, hi = bounds[rec[PARENT]]
        if rec[START] < lo or rec[END] > hi:
            return f"span {rec[NAME]} escapes its parent"
    total = sum(own.values())
    dur = root[END] - root[START]
    if abs(total - dur) > 1e-9 * max(dur, 1.0):
        return f"self times sum to {total!r} s, root span is {dur!r} s"
    return None


def layer_metrics(spans: list[list], unit: str, n_nodes: int) -> dict[str, float]:
    items = unit_spans(spans, unit)
    own = self_times(items)
    count: dict[str, int] = {}
    incl: dict[str, float] = {}
    for i, rec in items:
        count[rec[NAME]] = count.get(rec[NAME], 0) + 1
        incl[rec[NAME]] = incl.get(rec[NAME], 0.0) + rec[END] - rec[START]

    def under(name: str, parent: str) -> list[list]:
        return [rec for _, rec in items
                if rec[NAME] == name and rec[PARENT] >= 0
                and spans[rec[PARENT]][NAME] == parent]

    def self_of(pred) -> float:
        return sum(own[i] for i, rec in items if pred(rec[NAME]))

    m: dict[str, float] = {}
    m["fem.assembly_s"] = self_of(lambda n: n in ASSEMBLY)
    m["fem.assembly_calls"] = sum(count.get(n, 0) for n in ASSEMBLY)
    m["constitutive.gp_eval_s"] = self_of(lambda n: n.startswith("constitutive."))
    m["constitutive.gp_eval_calls"] = sum(
        1 for _, rec in items if rec[NAME].startswith("constitutive.")
        and not spans[rec[PARENT]][NAME].startswith("constitutive."))

    m["state.forward_s"] = incl.get("state.System.solve_state", 0.0)
    m["state.nutrient_step_s"] = incl.get("state.System.step_nutrient", 0.0)
    m["state.ch_step_s"] = incl.get("state.System.step_cahn_hilliard", 0.0)
    m["state.elasticity_s"] = incl.get("state.System.solve_elasticity", 0.0)
    newton = len(under("state.System.ch_jacobian", "state.System.step_cahn_hilliard"))
    m["state.newton_iters"] = newton
    m["state.newton_per_step"] = newton / max(count.get("state.System.step_cahn_hilliard", 0), 1)
    advance = count.get("state.System.advance", 0)
    stored = len(under("state.System.advance", "state.System.solve_state"))
    m["state.advance_calls"] = advance
    m["state.regen_ratio"] = advance / stored if stored else 1.0

    factors = {"ch": [], "scalar": []}
    for i, rec in items:
        if rec[NAME] == "splu.factor":
            n, fill = rec[EXTRA]
            kind = "ch" if n == 2 * n_nodes else "scalar" if n == n_nodes else None
            if kind:
                factors[kind].append((own[i], fill))
    for kind, rows in factors.items():
        m[f"splu.{kind}.count"] = len(rows)
        m[f"splu.{kind}.s"] = sum(t for t, _ in rows)
        m[f"splu.{kind}.fill_nnz"] = (sum(f for _, f in rows) / len(rows)) if rows else 0.0
    m["splu.solve.count"] = count.get("splu.solve", 0)
    m["splu.solve.s"] = incl.get("splu.solve", 0.0)

    m["linearized.sweep_s"] = incl.get("linearized.solve_linearised", 0.0)
    m["adjoint.sweep_s"] = incl.get("adjoint.solve_adjoint", 0.0)
    m["adjoint.gradient_s"] = incl.get("adjoint.reduced_gradient", 0.0)
    m["cost.eval_s"] = self_of(lambda n: n.startswith("cost."))
    m["cost.eval_calls"] = count.get("cost.eval_cost", 0)

    # optimizer: the first cost and gradient of ``optimize`` are its start
    # point, every further cost is a line-search trial, every further
    # gradient an accepted iterate
    trials = max(len(under("optimize.ControlProblem.cost", "optimize.optimize")) - 1, 0)
    accepted = max(len(under("optimize.ControlProblem.gradient", "optimize.optimize")) - 1, 0)
    m["optimize.iterations"] = accepted
    m["optimize.cost_evals"] = trials
    m["optimize.halvings"] = trials - accepted
    m["optimize.accept_ratio"] = accepted / trials if trials else 0.0
    m["optimize.gate_s"] = incl.get("optimize.gradient_fd_gate", 0.0)
    gates = {i for i, rec in items if rec[NAME] == "optimize.gradient_fd_gate"}
    m["optimize.gate_solves"] = sum(
        1 for _, rec in items if rec[NAME] == "state.System.solve_state"
        and _has_ancestor(spans, rec, gates))
    m["experiments.post_s"] = (incl.get("experiments.run_experiment", 0.0)
                               - incl.get("optimize.optimize", 0.0))

    m["io.write_fld_s"] = incl.get("io.write_fld", 0.0)
    m["io.read_fld_s"] = incl.get("io.read_fld", 0.0)
    m["io.bytes_written"] = sum(rec[EXTRA] for _, rec in items if rec[NAME] == "io.write_fld")
    m["io.bytes_read"] = sum(rec[EXTRA] for _, rec in items if rec[NAME] == "io.read_fld")
    return m


def inclusive(spans: list[list], unit: str, name: str) -> float:
    """Total duration of the spans called ``name`` in ``unit``."""
    return sum(rec[END] - rec[START] for _, rec in unit_spans(spans, unit)
               if rec[NAME] == name)


def layer_self_times(spans: list[list], unit: str) -> dict[str, float]:
    """Self time per layer (first component of the span name)."""
    items = unit_spans(spans, unit)
    own = self_times(items)
    out: dict[str, float] = {}
    for i, rec in items:
        layer = rec[NAME].split(".")[0]
        out[layer] = out.get(layer, 0.0) + own[i]
    return out


def _has_ancestor(spans: list[list], rec: list, targets: set[int]) -> bool:
    p = rec[PARENT]
    while p >= 0:
        if p in targets:
            return True
        p = spans[p][PARENT]
    return False


def median_metrics(per_unit: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(u[k] for u in per_unit) for k in per_unit[0]}
