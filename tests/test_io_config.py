import dataclasses
import math
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tumoropt import io
from tumoropt.config import (EXPERIMENTS, SCHEMA, ConfigError, default_config, dumps,
                             generate_field, load_config, parse_config)
from tumoropt.constitutive import DrugSchedule, ModelParams, Nonlinearities
from tumoropt.cost import CostWeights
from tumoropt.experiments import RUNNERS, _optimize_options
from tumoropt.fem import ElasticityTensor
from tumoropt.optimize import OptimizeOptions
from tumoropt.state import ControlBounds
from tumoropt.grid import build_grid


# -- field containers -----------------------------------------------------------

def test_fld_round_trip(tmp_path, rng):
    arrays = {
        "scalar": np.array(3.5),
        "vec": rng.standard_normal(7),
        "mat": rng.standard_normal((3, 4)),
    }
    path = tmp_path / "t.fld"
    io.write_fld(path, arrays)
    back = io.read_fld(path)
    assert set(back) == set(arrays)
    for k in arrays:
        assert np.array_equal(back[k], np.asarray(arrays[k], dtype=float))


def test_fld_rejects_garbage(tmp_path):
    path = tmp_path / "bad.fld"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(io.FieldFormatError):
        io.read_fld(path)
    # a header announcing 2**60 values fails on the length, before reading
    path.write_bytes(b"FLD1" + struct.pack("<III", 1, 1, 1) + b"x"
                     + struct.pack("<Iq", 1, 2 ** 60))
    with pytest.raises(io.FieldFormatError, match="truncated"):
        io.read_fld(path)


_EXTREME_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072e-308 / 3,
                                   1.7976931348623157e308, -1.7976931348623157e308,
                                   math.nan])


@st.composite
def _containers(draw):
    names = draw(st.lists(st.text(max_size=5), max_size=4, unique=True))
    shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)
    elements = st.one_of(st.floats(width=64), _EXTREME_FLOATS)
    return {name: draw(hnp.arrays(np.float64, shapes, elements=elements))
            for name in names}


@settings(max_examples=40, deadline=None)
@given(_containers())
def test_fld_round_trip_bitwise_and_every_prefix_rejected(arrays):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.fld"
        io.write_fld(path, arrays)
        back = io.read_fld(path)
        assert list(back) == list(arrays)
        for name, arr in arrays.items():
            assert back[name].shape == arr.shape
            assert back[name].tobytes() == arr.tobytes()
        blob = path.read_bytes()
        for n in range(len(blob)):
            path.write_bytes(blob[:n])
            with pytest.raises(io.FieldFormatError, match=re.escape(str(path))):
                io.read_fld(path)
        path.write_bytes(blob + b"\0")
        with pytest.raises(io.FieldFormatError, match="trailing"):
            io.read_fld(path)


def test_truncated_checkpoint_names_the_file(tmp_path):
    cfg = default_config(grid__nx=3, grid__ny=3, time__steps=4)
    sysd = cfg.build_system()
    phi0, sig0 = cfg.initial_fields(sysd)
    traj = sysd.solve_state(cfg.initial_controls(sysd), phi0, sig0,
                            cfg["time.T"], cfg["time.steps"], storage="disk",
                            every=2, directory=tmp_path)
    path = tmp_path / "snapshot_00002.fld"
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(io.FieldFormatError, match="snapshot_00002"):
        traj.snapshot(3)


def test_vtk_writer_structure(tmp_path):
    g = build_grid(2, 2, 1.0, 1.0, "left")
    path = tmp_path / "snap.vtk"
    io.write_vtk(path, g, {"phi": np.arange(9.0)},
                 {"displacement": np.zeros((9, 2))})
    text = path.read_text().splitlines()
    assert text[0].startswith("# vtk DataFile")
    assert "DATASET STRUCTURED_GRID" in text
    assert f"POINTS {g.n_nodes} double" in text
    assert "SCALARS phi double 1" in text
    assert "VECTORS displacement double" in text


# -- config parsing ---------------------------------------------------------------

def test_config_defaults_round_trip():
    cfg = default_config()
    text = dumps(cfg)
    again = parse_config(text)
    assert dumps(again) == text
    assert again.values == cfg.values


def test_config_defaults_equal_library_defaults():
    # every default is written in SCHEMA and in a library class; the objects
    # the config builds from its defaults equal the classes' own defaults
    cfg = default_config()
    built = {ModelParams: cfg.build_params(),
             Nonlinearities: cfg.build_nonlinearities(),
             DrugSchedule: cfg.drug_schedule(),
             ControlBounds: cfg.build_bounds(),
             CostWeights: cfg.build_weights(cfg.build_system()),
             OptimizeOptions: _optimize_options(cfg, cfg["experiment.seed"])}
    for cls, obj in built.items():
        lib = cls()
        for f in dataclasses.fields(cls):
            got, want = getattr(obj, f.name), getattr(lib, f.name)
            if isinstance(want, ElasticityTensor):
                got, want = got.voigt, want.voigt
            # a constant target is one value in the library, one per node here
            assert np.array_equal(got, np.broadcast_to(want, np.shape(got))), \
                f"{cls.__name__}.{f.name}: config {got!r}, library {want!r}"
    assert EXPERIMENTS == tuple(RUNNERS)


def test_config_file_round_trip(tmp_path):
    cfg = default_config(grid__nx=12, cost__gamma4=0.25, cost__gamma2=0.3,
                         model__beta=0.0, model__B=0.7)
    p = tmp_path / "run.cfg"
    p.write_text(dumps(cfg))
    loaded = load_config(p)
    assert loaded.values == cfg.values


_any_finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1.7976931348623157e308]))


@settings(max_examples=200, deadline=None)
@given(tol=_any_finite.filter(lambda v: v > 0),  # opt.tol must be positive
       g_load=st.tuples(_any_finite, _any_finite))
def test_finite_floats_survive_dumps_parse_bitwise(tol, g_load):
    cfg = default_config()
    cfg.values["opt.tol"] = tol
    cfg.values["model.g_load"] = g_load
    again = parse_config(dumps(cfg))
    for got, want in zip((again["opt.tol"], *again["model.g_load"]),
                         (tol, *g_load)):
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


# all but the first were config keys once: optimiser, diagnostic and solver
# constants, the second spelling of the elasticity tensor, and the selectors
# of the stress response and stress weight
@pytest.mark.parametrize("key", ["nope.key", "opt.step0", "opt.armijo",
                                 "opt.max_halvings", "opt.gate",
                                 "experiment.directions", "experiment.fd_eps",
                                 "experiment.eps_values", "solver.lin_rtol",
                                 "solver.newton_tol", "solver.newton_max_iter",
                                 "model.elasticity", "model.lame_lambda",
                                 "model.lame_mu", "model.response_g", "model.weight_n",
                                 "model.weight_region"])
def test_unknown_key_has_line_number(key):
    with pytest.raises(ConfigError, match=f":3: unknown key '{re.escape(key)}'"):
        parse_config(f"# c\ngrid.nx = 4\n{key} = 2\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("grid.nx = 4\ngrid.nx = 5\n")


def test_bad_value_reported():
    with pytest.raises(ConfigError, match="grid.nx"):
        parse_config("grid.nx = four\n")


@pytest.mark.parametrize("line", ["cost.gamma4 = nan", "model.kappa = nan",
                                  "time.T = inf", "time.T = 0", "time.T = -1",
                                  "time.steps = 0", "opt.tol = nan", "opt.tol = 0",
                                  "opt.max_iterations = 0", "experiment.trials = 0",
                                  "experiment.vtk_every = -1"])
def test_non_finite_or_non_positive_value_rejected(line):
    key, _, value = line.partition(" = ")
    with pytest.raises(ConfigError, match=re.escape(key)) as exc:
        parse_config(f"grid.nx = 4\n{line}\n", source="run.cfg")
    if not math.isfinite(float(value)):
        assert "run.cfg:2:" in str(exc.value)
    # an integer key takes an int override, so it meets the rule, not the parser
    number = int(value) if SCHEMA[key][0] is int else float(value)
    rule = "must be" if math.isfinite(number) else "not a finite number"
    with pytest.raises(ConfigError, match=f"{re.escape(key)}.*{rule}"):
        default_config(**{key.replace(".", "__"): number})


@pytest.mark.parametrize("lines, name", [
    pytest.param("model.g_load = 1,2,3", "g_load", id="g_load-three"),
    pytest.param("model.g_load = 1.0", "g_load", id="g_load-one"),
    pytest.param("model.elasticity_voigt = 1,2,3,4,5,6,7,8", "elasticity_voigt",
                 id="elasticity_voigt-eight"),
])
def test_model_value_of_wrong_shape_rejected(lines, name):
    # each parsed before and then failed in the solver, or ran with a
    # value silently dropped
    with pytest.raises(ConfigError, match=f"invalid model parameters: .*{name}"):
        parse_config(lines + "\n")


@pytest.mark.parametrize("line", ["drug.lifetime = 0", "drug.dosage = -1",
                                  "drug.times = 0.5,0.2"])
def test_drug_schedule_rule_refused_at_parse_time(line):
    # each parsed before and then stopped the run with exit status 1
    key = line.partition(" = ")[0]
    with pytest.raises(ConfigError, match=f"invalid model parameters: {re.escape(key)} "):
        parse_config(line + "\n")


def test_degenerate_nutrient_cited():
    with pytest.raises(ConfigError, match="A1"):
        default_config(model__beta=0.0, model__B=0.0, model__kappa=0.0)


def test_dosage_above_nutrient_band_cited():
    # an antiangiogenic dosage above lambda_c * cap drives the nutrient above cap
    with pytest.raises(ConfigError, match=r"control\.w3_max.*A5"):
        default_config(control__w3_max=5.0)
    with pytest.raises(ConfigError, match=r"control\.w3_max.*A5"):
        default_config(model__lambda_c=0.5)
    # the cap is max(sigma_c, sup |w1|), so a wider supply box admits more
    default_config(control__w3_max=2.0, control__w1_max=2.0)


def test_negative_dosage_cited():
    with pytest.raises(ConfigError, match=r"control\.w3_min.*A5"):
        default_config(control__w3_min=-1.0)


def test_negative_supply_cited():
    # a negative boundary supply drives the nutrient below 0
    with pytest.raises(ConfigError, match=r"control\.w1_min.*A5"):
        default_config(control__w1_min=-1.0)


@pytest.mark.parametrize("name", ["w1", "w2", "w3"])
def test_empty_control_box_named(name):
    with pytest.raises(ConfigError, match=f"control bounds for {name} are empty"):
        default_config(**{f"control__{name}_min": 0.5, f"control__{name}_max": 0.25})


def test_l1_without_l2_cited():
    with pytest.raises(ConfigError, match="A7"):
        default_config(cost__gamma4=1.0, cost__gamma2=0.0)


def test_all_weights_zero_cited():
    with pytest.raises(ConfigError, match="A7"):
        default_config(cost__alpha_Q=0.0, cost__alpha_Omega=0.0,
                       cost__alpha_E=0.0, cost__gamma1=0.0, cost__gamma2=0.0,
                       cost__gamma3=0.0)


def test_empty_gamma_sweep_rejected():
    with pytest.raises(ConfigError, match=r"experiment\.gamma4_values.*A7"):
        parse_config("experiment.name = gamma_sweep\nexperiment.gamma4_values =\n")
    # a swept gamma4 > 0 needs gamma2 > 0 as well
    with pytest.raises(ConfigError, match=r"experiment\.gamma4_values.*A7"):
        parse_config("experiment.name = gamma_sweep\ncost.gamma2 = 0\n"
                     "experiment.gamma4_values = 0, 0.1\n")


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError, match="experiment"):
        default_config(experiment__name="explore")


# -- target ingestion -----------------------------------------------------------

def test_constant_generator():
    g = build_grid(4, 4, 1.0, 1.0, "left")
    f = generate_field("constant:0.75", g)
    assert f.shape == (g.n_nodes,)
    assert (f == 0.75).all()


def test_circle_generator_sign_structure():
    g = build_grid(16, 16, 1.0, 1.0, "left")
    f = generate_field("circle:0.5,0.5,0.3,0.05", g)
    centre = np.argmin(np.hypot(g.nodes[:, 0] - 0.5, g.nodes[:, 1] - 0.5))
    corner = 0
    assert f[centre] > 0.9
    assert f[corner] < -0.9


def _write_target(path, grid, field):
    io.write_fld(path, {"grid_dims": np.array([grid.nx, grid.ny], dtype=float),
                        "lengths": np.array([grid.Lx, grid.Ly]),
                        "field": field})


def test_file_target_round_trip(tmp_path, rng):
    g = build_grid(5, 4, 1.0, 1.0, "left")
    field = rng.standard_normal(g.n_nodes)
    p = tmp_path / "target.fld"
    _write_target(p, g, field)
    back = generate_field(f"file:{p}", g)
    assert np.array_equal(back, field)


def test_file_target_grid_mismatch(tmp_path, rng):
    g16 = build_grid(16, 16, 1.0, 1.0, "left")
    g32 = build_grid(32, 32, 1.0, 1.0, "left")
    p = tmp_path / "t16.fld"
    _write_target(p, g16, rng.standard_normal(g16.n_nodes))
    with pytest.raises(io.FieldFormatError, match="mismatch"):
        generate_field(f"file:{p}", g32)


@pytest.mark.parametrize("key", ["ic.phi", "ic.sigma"])
def test_multi_row_initial_field_rejected(tmp_path, key):
    # it failed in the first solve with numpy's matmul dimension mismatch
    p = tmp_path / "rows.fld"
    cfg = default_config(grid__nx=4, grid__ny=4, **{key.replace(".", "__"): f"file:{p}"})
    system = cfg.build_system()
    _write_target(p, system.grid, np.zeros((2, system.grid.n_nodes)))
    with pytest.raises(ConfigError, match=f"{re.escape(key)} = file:.*one value per node"):
        cfg.initial_fields(system)


@pytest.mark.parametrize("key", ["ic.phi", "ic.sigma", "cost.phi_Omega", "cost.phi_Q"])
def test_non_finite_file_field_refused(tmp_path, key):
    # a NaN ran until a solve failed on a NaN residual, or passed the nutrient
    # band check, whose comparisons are false for NaN
    p = tmp_path / "nan.fld"
    cfg = default_config(grid__nx=4, grid__ny=4, **{key.replace(".", "__"): f"file:{p}"})
    system = cfg.build_system()
    field = np.full(system.grid.n_nodes, 0.5)
    field[3] = np.nan
    _write_target(p, system.grid, field)
    with pytest.raises(ConfigError, match=f"^{re.escape(key)} = file:.*must hold finite values"):
        cfg.initial_fields(system)
        cfg.build_weights(system)


@pytest.mark.parametrize("key, spec", [
    ("control.initial", "zero"), ("control.initial", "constant:0.5,0.4"),
    ("ic.phi", "forward-final"), ("ic.sigma", "constnat:1.0"),
    ("cost.phi_Q", "circle:0.5,0.5,0.3"), ("cost.phi_Omega", "constant:nan"),
    ("ic.phi", "file:")])
def test_spec_refused_at_parse_time(key, spec):
    # a typo parsed and failed only after the System was built
    with pytest.raises(ConfigError, match=f"^{re.escape(key)} = {re.escape(spec)}: "):
        parse_config(f"{key} = {spec}\n")


def test_unknown_generator_rejected():
    g = build_grid(4, 4, 1.0, 1.0, "left")
    with pytest.raises(ConfigError):
        generate_field("mystery:1", g)


@pytest.mark.parametrize("spec", ["constant:5.0", "constant:-0.5"])
def test_initial_sigma_outside_band_refused(spec):
    # the nutrient start was clipped into [0, cap] silently
    cfg = default_config(grid__nx=4, grid__ny=4, ic__sigma=spec)
    system = cfg.build_system()
    with pytest.raises(ConfigError, match=rf"^ic\.sigma = {re.escape(spec)}: .*\(A5\)"):
        cfg.initial_fields(system)


def test_default_elasticity_is_unit_isotropic():
    C = default_config().build_params().C
    assert np.array_equal(C.voigt, ElasticityTensor.isotropic(1.0, 1.0).voigt)


def test_full_voigt_elasticity_config():
    voigt = (2.5, 0.8, 0.0, 0.8, 2.5, 0.0, 0.0, 0.0, 1.4)
    cfg = default_config(grid__nx=4, grid__ny=4, time__steps=2, time__T=0.1,
                         model__elasticity_voigt=voigt)
    system = cfg.build_system()
    assert system.params.C.c0 > 0
    phi0, sigma0 = cfg.initial_fields(system)
    traj = system.solve_state(cfg.initial_controls(system), phi0, sigma0,
                              0.1, 2)
    assert np.isfinite(traj.final().phi).all()


def test_indefinite_voigt_rejected():
    bad = (1.0, 2.0, 0.0, 2.0, 1.0, 0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ConfigError, match="positive definite"):
        default_config(model__elasticity_voigt=bad)
