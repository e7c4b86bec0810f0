import math
import re

import numpy as np
import pytest

from tumoropt import io
from tumoropt.config import (ConfigError, default_config, dumps, generate_field,
                             ingest_target, load_config, parse_config,
                             save_target)
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


def test_adjoint_snapshot_export(tmp_path, rng):
    from tumoropt.adjoint import AdjointSnapshot

    g = build_grid(3, 3, 1.0, 1.0, "left")
    snap = AdjointSnapshot(p=rng.standard_normal(g.n_nodes),
                           q=rng.standard_normal(g.n_nodes),
                           r=rng.standard_normal(g.n_nodes),
                           s=rng.standard_normal(2 * g.n_nodes), t=0.5)
    path = tmp_path / "adj.fld"
    io.write_fld(path, io.adjoint_arrays(g, snap))
    back = io.read_fld(path)
    assert np.array_equal(back["p"], snap.p)
    assert np.array_equal(back["s"].ravel(), snap.s)
    io.write_vtk(tmp_path / "adj.vtk", g,
                 {"p": snap.p, "q": snap.q, "r": snap.r},
                 {"s": snap.s.reshape(-1, 2)})
    assert (tmp_path / "adj.vtk").exists()


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


def test_config_file_round_trip(tmp_path):
    cfg = default_config(grid__nx=12, cost__gamma4=0.25, cost__gamma2=0.3,
                         model__beta=0.0, model__B=0.7)
    p = tmp_path / "run.cfg"
    p.write_text(dumps(cfg))
    loaded = load_config(p)
    assert loaded.values == cfg.values


def test_unknown_key_has_line_number():
    with pytest.raises(ConfigError, match=":3"):
        parse_config("# c\ngrid.nx = 4\nnope.key = 2\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("grid.nx = 4\ngrid.nx = 5\n")


def test_bad_value_reported():
    with pytest.raises(ConfigError, match="grid.nx"):
        parse_config("grid.nx = four\n")


@pytest.mark.parametrize("line", ["cost.gamma4 = nan", "model.kappa = nan",
                                  "time.T = inf", "opt.tol = nan",
                                  "solver.newton_tol = -1"])
def test_non_finite_or_non_positive_value_rejected(line):
    key, _, value = line.partition(" = ")
    with pytest.raises(ConfigError, match=re.escape(key)) as exc:
        parse_config(f"grid.nx = 4\n{line}\n", source="run.cfg")
    if not math.isfinite(float(value)):
        assert "run.cfg:2:" in str(exc.value)
    with pytest.raises(ConfigError, match=re.escape(key)):
        default_config(**{key.replace(".", "__"): float(value)})


def test_degenerate_nutrient_cited():
    with pytest.raises(ConfigError, match="A1"):
        default_config(model__beta=0.0, model__B=0.0, model__kappa=0.0)


def test_l1_without_l2_cited():
    with pytest.raises(ConfigError, match="A7"):
        default_config(cost__gamma4=1.0, cost__gamma2=0.0)


def test_all_weights_zero_cited():
    with pytest.raises(ConfigError, match="A7"):
        default_config(cost__alpha_Q=0.0, cost__alpha_Omega=0.0,
                       cost__alpha_E=0.0, cost__gamma1=0.0, cost__gamma2=0.0,
                       cost__gamma3=0.0)


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


def test_file_target_round_trip(tmp_path, rng):
    g = build_grid(5, 4, 1.0, 1.0, "left")
    field = rng.standard_normal(g.n_nodes)
    p = tmp_path / "target.fld"
    save_target(p, g, field)
    back = ingest_target(f"file:{p}", g)
    assert np.array_equal(back, field)


def test_file_target_grid_mismatch(tmp_path, rng):
    g16 = build_grid(16, 16, 1.0, 1.0, "left")
    g32 = build_grid(32, 32, 1.0, 1.0, "left")
    p = tmp_path / "t16.fld"
    save_target(p, g16, rng.standard_normal(g16.n_nodes))
    with pytest.raises(io.FieldFormatError, match="mismatch"):
        ingest_target(f"file:{p}", g32)


def test_forward_final_target_matches_forward_run():
    cfg = default_config(grid__nx=5, grid__ny=5, time__steps=4, time__T=0.2)
    system = cfg.build_system()
    phi0, sigma0 = cfg.initial_fields(system)
    traj = system.solve_state(cfg.initial_controls(system), phi0, sigma0,
                              cfg["time.T"], cfg["time.steps"])
    target = generate_field("forward-final", system.grid, cfg)
    assert np.allclose(target, traj.final().phi, rtol=0, atol=1e-14)


def test_unknown_generator_rejected():
    g = build_grid(4, 4, 1.0, 1.0, "left")
    with pytest.raises(ConfigError):
        generate_field("mystery:1", g)


def test_initial_sigma_clipped_to_band():
    cfg = default_config(grid__nx=4, grid__ny=4, ic__sigma="constant:5.0")
    system = cfg.build_system()
    _, sigma0 = cfg.initial_fields(system)
    assert sigma0.max() <= system.params.nutrient_cap
    assert sigma0.min() >= 0.0


def test_full_voigt_elasticity_config():
    voigt = (2.5, 0.8, 0.0, 0.8, 2.5, 0.0, 0.0, 0.0, 1.4)
    cfg = default_config(grid__nx=4, grid__ny=4, time__steps=2, time__T=0.1,
                         model__elasticity="voigt",
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
        default_config(model__elasticity="voigt", model__elasticity_voigt=bad)
