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
from .constitutive import DrugSchedule, ModelParams, Nonlinearities
from .cost import CostConfigError, CostWeights
from .fem import ElasticityTensor
from .grid import Grid, build_grid
from .state import ControlBounds, ControlTriple, System


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
    if isinstance(value, bool):
        return "1" if value else "0"
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
    "model.elasticity": (str, "isotropic"),
    "model.lame_lambda": (_float, 1.0),
    "model.lame_mu": (_float, 1.0),
    "model.elasticity_voigt": (_floats, (3.0, 1.0, 0.0, 1.0, 3.0, 0.0, 0.0, 0.0, 2.0)),
    "model.bar_strain": (_floats, (0.0, 0.0, 0.0)),
    "model.misfit_strain": (_floats, (0.05, 0.05, 0.0)),
    "model.g_load": (_floats, (0.0, 0.0)),
    "model.psi": (str, "quartic"),
    "model.well_scale": (_float, 1.0),
    "model.response_g": (str, "inverse_sqrt"),
    "model.weight_n": (str, "ramp"),
    "model.weight_region": (_floats, (0.0, 1.0, 0.0, 1.0)),
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
    "solver.newton_tol": (_float, 1e-12),
    "solver.newton_max_iter": (int, 50),
    "solver.lin_rtol": (_float, 1e-10),
    "solver.checkpoint_every": (int, 0),
    "opt.max_iterations": (int, 200),
    "opt.tol": (_float, 1e-8),
    "opt.step0": (_float, 0.0),
    "opt.armijo": (_float, 1e-4),
    "opt.max_halvings": (int, 40),
    "opt.gate": (int, 1),
    "experiment.name": (str, "forward"),
    "experiment.seed": (int, 0),
    "experiment.trials": (int, 1),
    "experiment.directions": (int, 3),
    "experiment.fd_eps": (_float, 1e-4),
    "experiment.eps_values": (_floats, (1e-1, 10 ** -1.5, 1e-2, 10 ** -2.5, 1e-3)),
    "experiment.gamma4_values": (_floats, (0.01, 0.1, 1.0, 10.0, 100.0)),
    "experiment.vtk_every": (int, 0),
}

EXPERIMENTS = ("forward", "frechet", "gradcheck", "optimize", "gamma_sweep")


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
        b = ControlBounds(
            w1_lo=self["control.w1_min"], w1_hi=self["control.w1_max"],
            w2_lo=self["control.w2_min"], w2_hi=self["control.w2_max"],
            w3_lo=self["control.w3_min"], w3_hi=self["control.w3_max"])
        for name, lo, hi in (("w1", b.w1_lo, b.w1_hi), ("w2", b.w2_lo, b.w2_hi),
                             ("w3", b.w3_lo, b.w3_hi)):
            if np.any(np.asarray(lo) > np.asarray(hi)):
                raise ConfigError(f"control bounds for {name} are empty (min > max)")
        return b

    def build_elasticity(self) -> ElasticityTensor:
        kind = self["model.elasticity"]
        if kind == "isotropic":
            return ElasticityTensor.isotropic(self["model.lame_lambda"],
                                              self["model.lame_mu"])
        if kind == "voigt":
            return ElasticityTensor(np.asarray(self["model.elasticity_voigt"],
                                               dtype=float).reshape(3, 3))
        raise ConfigError(f"unknown elasticity kind {kind!r}")

    def build_params(self) -> ModelParams:
        return ModelParams(
            beta=self["model.beta"], B=self["model.B"], kappa=self["model.kappa"],
            chi=self["model.chi"], lambda_p=self["model.lambda_p"],
            lambda_a=self["model.lambda_a"], lambda_c=self["model.lambda_c"],
            sigma_c=self["model.sigma_c"], C=self.build_elasticity(),
            bar_strain=np.asarray(self["model.bar_strain"]),
            misfit_strain=np.asarray(self["model.misfit_strain"]),
            g_load=np.asarray(self["model.g_load"]),
            supply_bound=self.build_bounds().sup_w1())

    def build_nonlinearities(self) -> Nonlinearities:
        return Nonlinearities(psi=self["model.psi"],
                              well_scale=self["model.well_scale"],
                              g=self["model.response_g"],
                              weight_n=self["model.weight_n"],
                              region=tuple(self["model.weight_region"]))

    def build_system(self) -> System:
        return System(self.build_grid(), self.build_params(),
                      self.build_nonlinearities(),
                      newton_tol=self["solver.newton_tol"],
                      newton_max_iter=self["solver.newton_max_iter"],
                      lin_rtol=self["solver.lin_rtol"])

    def drug_schedule(self) -> DrugSchedule:
        return DrugSchedule(dosage=self["drug.dosage"],
                            times=tuple(self["drug.times"]),
                            lifetime=self["drug.lifetime"])

    def initial_fields(self, system: System) -> tuple[np.ndarray, np.ndarray]:
        grid = system.grid
        phi0 = generate_field(self["ic.phi"], grid, self, allow_forward=False)
        sigma0 = generate_field(self["ic.sigma"], grid, self, allow_forward=False)
        # the nutrient start is clipped into its admissible band (A5)
        sigma0 = np.clip(sigma0, 0.0, system.params.nutrient_cap)
        return phi0, sigma0

    def initial_controls(self, system: System) -> ControlTriple:
        n = self["time.steps"]
        bounds = self.build_bounds()
        w = system.zero_controls(n, bounds)
        kind = self["control.initial"]
        if kind == "zero":
            pass
        elif kind == "schedule":
            sched = self.drug_schedule()
            t = (np.arange(n) + 1) * self["time.T"] / n
            w.w1[:] = system.params.sigma_c
            w.w2[:] = sched(t)
            w.w3[:] = sched(t)
        elif kind.startswith("constant:"):
            vals = _floats(kind.split(":", 1)[1])
            if len(vals) != 3:
                raise ConfigError("control.initial constant needs three values")
            w.w1[:], w.w2[:], w.w3[:] = vals
        else:
            raise ConfigError(f"unknown initial-control source {kind!r}")
        return w.clipped()

    def build_weights(self, system: System) -> CostWeights:
        grid = system.grid
        return CostWeights(
            **_scalar_weights(self),
            phi_Q=ingest_target(self["cost.phi_Q"], grid, self),
            phi_Omega=ingest_target(self["cost.phi_Omega"], grid, self))


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
    if cfg["time.steps"] < 1 or cfg["time.T"] <= 0:
        raise ConfigError("time block needs steps >= 1 and T > 0")
    if cfg["experiment.name"] not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {cfg['experiment.name']!r}; "
                          f"expected one of {EXPERIMENTS}")
    if cfg["solver.checkpoint_every"] < 0:
        raise ConfigError("solver.checkpoint_every must be >= 0")
    for key in ("solver.newton_tol", "solver.lin_rtol"):
        if cfg[key] <= 0:
            raise ConfigError(f"{key} must be positive")
    # constraint rules of the parameter and weight bundles, raised eagerly so
    # errors carry the config context rather than a solver stack
    try:
        cfg.build_grid()
        cfg.build_params()
        cfg.build_nonlinearities()
        cfg.build_bounds()
    except ValueError as exc:
        raise ConfigError(f"invalid model parameters: {exc}") from exc
    try:
        CostWeights(**_scalar_weights(cfg))
    except CostConfigError as exc:
        raise ConfigError(f"invalid cost weights: {exc}") from exc


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
# field generators / target ingestion
# ---------------------------------------------------------------------------

def generate_field(spec: str, grid: Grid, cfg: RunConfig | None = None,
                   allow_forward: bool = True) -> np.ndarray:
    """Build a nodal field from a generator spec or a field container.

    Specs: ``constant:<v>``, ``circle:<cx>,<cy>,<radius>,<width>``,
    ``file:<path>`` and ``forward-final`` (final composition of a forward run
    of the configuration with its initial-guess controls).
    """
    if spec.startswith("constant:"):
        return np.full(grid.n_nodes, float(spec.split(":", 1)[1]))
    if spec.startswith("circle:"):
        vals = _floats(spec.split(":", 1)[1])
        if len(vals) != 4:
            raise ConfigError("circle generator needs cx,cy,radius,width")
        cx, cy, radius, width = vals
        dist = np.hypot(grid.nodes[:, 0] - cx, grid.nodes[:, 1] - cy)
        return np.tanh((radius - dist) / (np.sqrt(2.0) * width))
    if spec.startswith("file:"):
        arrays = io.read_fld(spec.split(":", 1)[1])
        io.check_grid_shape(grid, arrays, spec)
        if "field" not in arrays:
            raise ConfigError(f"{spec}: container has no 'field' array")
        field = arrays["field"]
        if field.shape[-1] != grid.n_nodes:
            raise ConfigError(
                f"{spec}: field has {field.shape[-1]} nodes, expected {grid.n_nodes}")
        return field
    if spec == "forward-final":
        if not allow_forward or cfg is None:
            raise ConfigError("forward-final generator is not allowed here")
        system = cfg.build_system()
        phi0, sigma0 = cfg.initial_fields(system)
        traj = system.solve_state(cfg.initial_controls(system), phi0, sigma0,
                                  cfg["time.T"], cfg["time.steps"])
        return traj.final().phi.copy()
    raise ConfigError(f"unknown field generator {spec!r}")


def ingest_target(spec: str, grid: Grid, cfg: RunConfig | None = None) -> np.ndarray:
    """Target field(s) for the tracking terms; a single field is broadcast
    in time by the cost evaluation."""
    return generate_field(spec, grid, cfg, allow_forward=True)


def save_target(path, grid: Grid, field: np.ndarray) -> None:
    io.write_fld(path, {
        "grid_dims": np.array([grid.nx, grid.ny], dtype=float),
        "lengths": np.array([grid.Lx, grid.Ly]),
        "field": np.asarray(field, dtype=float),
    })
