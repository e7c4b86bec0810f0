import numpy as np
import pytest

from tumoropt.constitutive import ModelParams, Nonlinearities
from tumoropt.grid import build_grid
from tumoropt.state import ControlBounds, StateSnapshot, System


def make_system(nx=6, ny=6, Lx=1.0, Ly=1.0, dirichlet="left", **params):
    grid = build_grid(nx, ny, Lx, Ly, dirichlet)
    nl_kwargs = {"well_scale": params.pop("well_scale")} if "well_scale" in params else {}
    return System(grid, ModelParams(**params), Nonlinearities(**nl_kwargs))


def coefficients_at(system, phi):
    """Gauss-point coefficients of phi and its equilibrium displacement."""
    snap = StateSnapshot(phi=phi, mu=None, sigma=None,
                         u=system.solve_elasticity(phi), t=0.0)
    return system.coefficients(snap)


def tumour_ic(grid, cx=0.5, cy=0.5, radius=0.3, width=0.25):
    dist = np.hypot(grid.nodes[:, 0] - cx, grid.nodes[:, 1] - cy)
    return np.tanh((radius - dist) / (np.sqrt(2.0) * width))


def interior_controls(system, n_steps, bounds=None):
    b = bounds or ControlBounds()
    w = system.zero_controls(n_steps, b)
    w.w1[:] = 0.5 * (b.w1_lo + b.w1_hi)
    w.w2[:] = 0.5 * (b.w2_lo + b.w2_hi)
    w.w3[:] = 0.5 * (b.w3_lo + b.w3_hi)
    return w


class OffFactor:
    """A factor whose solutions are ``scale`` times too large.  The default
    error, 1e-6, fails a direct solve's residual rule; an iterated solve
    corrects it, so it needs a scale whose corrections do not contract,
    such as 3."""

    def __init__(self, lu, scale=1.0 + 1e-6):
        self.lu = lu
        self.scale = scale

    def solve(self, b, trans="N"):
        return self.lu.solve(b, trans=trans) * self.scale


@pytest.fixture
def small_system():
    return make_system(6, 6)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
