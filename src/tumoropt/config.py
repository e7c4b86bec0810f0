"""Run configuration: flat ``section.key = value`` text files.

Every key has a typed schema entry with a default; unknown or duplicate keys
and non-finite numbers are rejected with their line number, and constraint
violations name the validation rule (A1, A5, A7) they break.
``dumps(load(path))`` is canonical: loading the dump reproduces the
configuration exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import io
from .constitutive import DrugSchedule, ModelConfigError, ModelParams, Nonlinearities
from .cost import CostConfigError, CostWeights
from .fem import ElasticityTensor
from .grid import Grid, build_grid
from .state import (ControlBounds, ControlTriple, InputRuleError,
                    System, check_time_grid)


class ConfigError(ValueError):
    pass


def _float(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _floats(text: str) -> tuple[float, ...]:
    return tuple(_float(v) for v in text.replace(",", " ").split())


def _fmt(value) -> str:
    if isinstance(value, tuple):
        return ",".join(repr(float(v)) for v in value)
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


# key -> (parser, default)
SCHEMA: dict[str, tuple] = {
    "grid.nx": (int, 32),
    "grid.ny": (int, 32),
    "grid.Lx": (_float, 1.0),
    "grid.Ly": (_float, 1.0),
    "grid.dirichlet": (str, "left"),
    "time.T": (_float, 1.0),
    "time.steps": (int, 64),
    "model.beta": (_float, 1.0),
    "model.B": (_float, 0.5),
    "model.kappa": (_float, 1.0),
    "model.chi": (_float, 0.05),
    "model.lambda_p": (_float, 0.5),
    "model.lambda_a": (_float, 0.1),
    "model.lambda_c": (_float, 1.0),
    "model.sigma_c": (_float, 1.0),
    "model.elasticity_voigt": (_floats, (3.0, 1.0, 0.0, 1.0, 3.0, 0.0, 0.0, 0.0, 2.0)),
    "model.bar_strain": (_floats, (0.0, 0.0, 0.0)),
    "model.misfit_strain": (_floats, (0.05, 0.05, 0.0)),
    "model.g_load": (_floats, (0.0, 0.0)),
    "model.well_scale": (_float, 1.0),
    "ic.phi": (str, "circle:0.5,0.5,0.3,0.25"),
    "ic.sigma": (str, "constant:1.0"),
    "cost.alpha_Q": (_float, 0.0),
    "cost.alpha_Omega": (_float, 1.0),
    "cost.alpha_E": (_float, 0.0),
    "cost.gamma1": (_float, 0.1),
    "cost.gamma2": (_float, 0.1),
    "cost.gamma3": (_float, 0.1),
    "cost.gamma4": (_float, 0.0),
    "cost.gamma5": (_float, 0.0),
    "cost.phi_Q": (str, "constant:0.0"),
    "cost.phi_Omega": (str, "constant:0.0"),
    "control.w1_min": (_float, 0.0),
    "control.w1_max": (_float, 1.0),
    "control.w2_min": (_float, 0.0),
    "control.w2_max": (_float, 0.8),
    "control.w3_min": (_float, 0.0),
    "control.w3_max": (_float, 0.8),
    "control.initial": (str, "schedule"),
    "drug.dosage": (_float, 0.5),
    "drug.times": (_floats, (0.0, 0.35, 0.7)),
    "drug.lifetime": (_float, 0.2),
    "solver.checkpoint_every": (int, 0),
    "opt.max_iterations": (int, 200),
    "opt.tol": (_float, 1e-8),
    "experiment.name": (str, "forward"),
    "experiment.seed": (int, 0),
    "experiment.trials": (int, 1),
    "experiment.gamma4_values": (_floats, (0.01, 0.1, 1.0, 10.0, 100.0)),
    "experiment.vtk_every": (int, 0),
}

# the config key of each run input whose rule the library checks: the
# control bounds, which build_bounds reads from here, and the time grid
BOUND_KEYS = {"w1_lo": "control.w1_min", "w1_hi": "control.w1_max",
              "w2_lo": "control.w2_min", "w2_hi": "control.w2_max",
              "w3_lo": "control.w3_min", "w3_hi": "control.w3_max"}
INPUT_KEYS = {**BOUND_KEYS, "T": "time.T", "n_steps": "time.steps",
              "phi0": "ic.phi", "sigma0": "ic.sigma",
              "phi_Q": "cost.phi_Q", "phi_Omega": "cost.phi_Omega"}

EXPERIMENTS = ("forward", "frechet", "gradcheck", "optimize", "gamma_sweep")

# the spec kinds of a key, each with the number of values it takes: None
# takes a path, and a kind taking no value is written bare
FIELD_SPECS = {"constant": 1, "circle": 4, "file": None}
SPEC_KINDS = {"control.initial": {"schedule": 0, "constant": 3},
              **dict.fromkeys(("ic.phi", "ic.sigma", "cost.phi_Q", "cost.phi_Omega"),
                              FIELD_SPECS)}


@dataclass
class RunConfig:
    """Typed view of one configuration; values keyed exactly as in the file."""
    values: dict

    def __getitem__(self, key: str):
        return self.values[key]

    # -- object builders -----------------------------------------------------

    def build_grid(self) -> Grid:
        return build_grid(self["grid.nx"], self["grid.ny"], self["grid.Lx"],
                          self["grid.Ly"], self["grid.dirichlet"])

    def build_bounds(self) -> ControlBounds:
        return ControlBounds(**{name: self[key] for name, key in BOUND_KEYS.items()})

    def build_params(self) -> ModelParams:
        voigt = self["model.elasticity_voigt"]
        if len(voigt) != 9:
            raise ModelConfigError(f"model.elasticity_voigt takes 9 values, got {len(voigt)}")
        return ModelParams(
            beta=self["model.beta"], B=self["model.B"], kappa=self["model.kappa"],
            chi=self["model.chi"], lambda_p=self["model.lambda_p"],
            lambda_a=self["model.lambda_a"], lambda_c=self["model.lambda_c"],
            sigma_c=self["model.sigma_c"],
            C=ElasticityTensor(np.reshape(voigt, (3, 3))),
            bar_strain=np.asarray(self["model.bar_strain"]),
            misfit_strain=np.asarray(self["model.misfit_strain"]),
            g_load=np.asarray(self["model.g_load"]),
            supply_bound=self["control.w1_max"])

    def build_nonlinearities(self) -> Nonlinearities:
        return Nonlinearities(well_scale=self["model.well_scale"])

    def build_system(self) -> System:
        return System(self.build_grid(), self.build_params(),
                      self.build_nonlinearities())

    def drug_schedule(self) -> DrugSchedule:
        return DrugSchedule(dosage=self["drug.dosage"],
                            times=tuple(self["drug.times"]),
                            lifetime=self["drug.lifetime"])

    def initial_fields(self, system: System) -> tuple[np.ndarray, np.ndarray]:
        phi0, sigma0 = (generate_field(self[key], system.grid)
                        for key in ("ic.phi", "ic.sigma"))
        try:
            system.check_initial_state(phi0, sigma0)
        except InputRuleError as exc:
            raise self._named(exc) from exc
        return phi0, sigma0

    def _named(self, exc: InputRuleError) -> ConfigError:
        """The error of a field spec's rule, naming its config key and spec."""
        key = INPUT_KEYS[exc.name]
        return ConfigError(f"{key} = {self[key]}: {exc}")

    def initial_controls(self, system: System) -> ControlTriple:
        n = self["time.steps"]
        bounds = self.build_bounds()
        w = system.zero_controls(n, bounds)
        kind, values = _parse_spec(self["control.initial"],
                                   SPEC_KINDS["control.initial"])
        if kind == "schedule":
            sched = self.drug_schedule()
            t = (np.arange(n) + 1) * self["time.T"] / n
            w.w1[:] = system.params.sigma_c
            w.w2[:] = sched(t)
            w.w3[:] = sched(t)
        else:
            w.w1[:], w.w2[:], w.w3[:] = values
        return w.clipped()

    def build_weights(self, system: System) -> CostWeights:
        grid = system.grid
        try:
            return CostWeights(
                **_scalar_weights(self),
                phi_Q=generate_field(self["cost.phi_Q"], grid),
                phi_Omega=generate_field(self["cost.phi_Omega"], grid))
        except InputRuleError as exc:
            raise self._named(exc) from exc


def _scalar_weights(cfg: RunConfig) -> dict[str, float]:
    names = ("alpha_Q", "alpha_Omega", "alpha_E",
             "gamma1", "gamma2", "gamma3", "gamma4", "gamma5")
    return {name: cfg[f"cost.{name}"] for name in names}


def load_config(path) -> RunConfig:
    """Parse and validate a configuration file."""
    text = Path(path).read_text()
    return parse_config(text, source=str(path))


def parse_config(text: str, source: str = "<string>") -> RunConfig:
    values = {k: default for k, (_, default) in SCHEMA.items()}
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'section.key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        seen.add(key)
        parser = SCHEMA[key][0]
        try:
            values[key] = parser(val)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key}: {exc}") from exc
    cfg = RunConfig(values)
    validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    if cfg["experiment.name"] not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {cfg['experiment.name']!r}; "
                          f"expected one of {EXPERIMENTS}")
    for key, kinds in SPEC_KINDS.items():
        try:
            _parse_spec(cfg[key], kinds)
        except ConfigError as exc:
            raise ConfigError(f"{key} = {cfg[key]}: {exc}") from exc
    if cfg["opt.tol"] <= 0:
        raise ConfigError("opt.tol must be positive")
    for key in ("opt.max_iterations", "experiment.trials"):
        if cfg[key] < 1:
            raise ConfigError(f"{key} must be >= 1")
    for key in ("solver.checkpoint_every", "experiment.vtk_every"):
        if cfg[key] < 0:
            raise ConfigError(f"{key} must be >= 0")
    if not cfg["experiment.gamma4_values"]:
        raise ConfigError("experiment.gamma4_values must list at least one "
                          "cost.gamma4 weight (A7)")
    # the library's rules on the time grid, the model and the control box,
    # raised eagerly so errors name the config key rather than a solver stack
    try:
        check_time_grid(cfg["time.T"], cfg["time.steps"])
        cfg.build_grid()
        params = cfg.build_params()
        cfg.build_nonlinearities()
        cfg.drug_schedule()
        cfg.build_bounds().check(params)
    except InputRuleError as exc:
        raise ConfigError(f"{INPUT_KEYS[exc.name]}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"invalid model parameters: {exc}") from exc
    try:
        CostWeights(**_scalar_weights(cfg))
    except CostConfigError as exc:
        raise ConfigError(f"invalid cost weights: {exc}") from exc
    if cfg["experiment.name"] == "gamma_sweep":
        # fail before the first optimisation if any swept weight set breaks A7
        for g4 in cfg["experiment.gamma4_values"]:
            try:
                CostWeights(**{**_scalar_weights(cfg), "gamma4": g4})
            except CostConfigError as exc:
                raise ConfigError(f"invalid cost weights at experiment.gamma4_values "
                                  f"entry {g4!r}: {exc}") from exc


def dumps(cfg: RunConfig) -> str:
    """Canonical text form; parsing it reproduces the configuration."""
    lines = [f"{key} = {_fmt(cfg.values[key])}" for key in SCHEMA]
    return "\n".join(lines) + "\n"


def default_config(**overrides) -> RunConfig:
    """The defaults with ``section__key=value`` overrides, parsed as file lines."""
    text = "".join(f"{key.replace('__', '.')} = {_fmt(val)}\n"
                   for key, val in overrides.items())
    return parse_config(text, source="<overrides>")


# ---------------------------------------------------------------------------
# field generators
# ---------------------------------------------------------------------------

def _parse_spec(spec: str, kinds: dict) -> tuple[str, tuple | str]:
    """(kind, values) of a ``kind:v1,v2,...`` spec, or (kind, path) of a kind
    taking a path; ``kinds`` maps each allowed kind to its value count."""
    kind, colon, arg = spec.partition(":")
    if kind not in kinds or bool(colon) != (kinds[kind] != 0):
        raise ConfigError(f"unknown spec {spec!r}; its kind must be one of "
                          f"{', '.join(kinds)}")
    if kinds[kind] is None:
        if not arg:
            raise ConfigError(f"{kind} takes a path")
        return kind, arg
    try:
        values = _floats(arg)
    except ValueError as exc:
        raise ConfigError(f"bad value in {spec!r}: {exc}") from exc
    if len(values) != kinds[kind]:
        raise ConfigError(f"{kind} takes {kinds[kind]} values, got {len(values)}")
    return kind, values


def generate_field(spec: str, grid: Grid) -> np.ndarray:
    """Build a nodal field from a generator spec or a field container.

    Specs: ``constant:<v>``, ``circle:<cx>,<cy>,<radius>,<width>`` and
    ``file:<path>``.
    """
    kind, arg = _parse_spec(spec, FIELD_SPECS)
    if kind == "constant":
        return np.full(grid.n_nodes, arg[0])
    if kind == "circle":
        cx, cy, radius, width = arg
        dist = np.hypot(grid.nodes[:, 0] - cx, grid.nodes[:, 1] - cy)
        return np.tanh((radius - dist) / (np.sqrt(2.0) * width))
    arrays = io.read_fld(arg)
    io.check_grid_shape(grid, arrays, spec)
    if "field" not in arrays:
        raise ConfigError(f"{spec}: container has no 'field' array")
    field = arrays["field"]
    if field.shape[-1] != grid.n_nodes:
        raise ConfigError(
            f"{spec}: field has {field.shape[-1]} nodes, expected {grid.n_nodes}")
    return field
