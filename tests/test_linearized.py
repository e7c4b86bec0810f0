import numpy as np
import pytest

from tumoropt.linearized import frechet_check, solve_linearised
from tumoropt.state import ControlBounds, ControlTriple, PreconditionError

from conftest import interior_controls, make_system, tumour_ic


def _setup(nx=6, ny=6, N=6, T=0.5):
    sysd = make_system(nx, ny, chi=0.1)
    grid = sysd.grid
    phi0 = tumour_ic(grid)
    sig0 = np.full(grid.n_nodes, 1.0)
    w = interior_controls(sysd, N)
    traj = sysd.solve_state(w, phi0, sig0, T, N)
    return sysd, phi0, sig0, w, traj, T, N


def test_zero_direction_zero_solution():
    sysd, _, _, w, traj, T, N = _setup()
    lin = solve_linearised(sysd, traj, w, sysd.zero_controls(N))
    for s in lin:
        assert np.abs(s.xi).max() == 0.0
        assert np.abs(s.eta).max() == 0.0
        assert np.abs(s.psi).max() == 0.0
        assert np.abs(s.v).max() == 0.0


def test_superposition_in_directions(rng):
    sysd, _, _, w, traj, T, N = _setup()
    space = sysd.control_space(T, N)
    for _ in range(3):
        d1 = space.random_direction(rng)
        d2 = space.random_direction(rng)
        la = solve_linearised(sysd, traj, w, d1)
        lb = solve_linearised(sysd, traj, w, d2)
        lc = solve_linearised(sysd, traj, w,
                              ControlTriple(d1.w1 + d2.w1, d1.w2 + d2.w2, d1.w3 + d2.w3))
        scale = max(np.abs(lc[n].xi).max() for n in range(N + 1))
        err = max(np.abs(lc[n].xi - la[n].xi - lb[n].xi).max()
                  for n in range(N + 1))
        assert err <= 1e-8 * max(scale, 1e-12)


def test_initial_conditions_of_direction():
    sysd, _, _, w, traj, T, N = _setup()
    space = sysd.control_space(T, N)
    rng = np.random.default_rng(0)
    lin = solve_linearised(sysd, traj, w, space.random_direction(rng))
    assert np.abs(lin[0].xi).max() == 0.0
    assert np.abs(lin[0].psi).max() == 0.0
    assert np.abs(lin[0].v).max() == 0.0


def test_layout_mismatch_rejected(rng):
    sysd, _, _, w, traj, T, N = _setup()
    bad = ControlTriple(rng.standard_normal((3, N)), rng.standard_normal(N),
                        rng.standard_normal(N))
    with pytest.raises(PreconditionError):
        solve_linearised(sysd, traj, w, bad)


def test_per_step_directional_derivative(rng):
    # one-step linearisation vs forward differences of one discrete step
    sysd, phi0, sig0, w, _, _, _ = _setup(N=1, T=0.05)
    N, T = 1, 0.05
    space = sysd.control_space(T, N)
    h = space.random_direction(rng)
    base = sysd.solve_state(w, phi0, sig0, T, N)
    lin = solve_linearised(sysd, base, w, h)

    def fd_error(eps):
        pert = sysd.solve_state(w.axpy(eps, h), phi0, sig0, T, N)
        dphi = (pert.snapshot(1).phi - base.snapshot(1).phi) / eps
        dsig = (pert.snapshot(1).sigma - base.snapshot(1).sigma) / eps
        return (np.abs(dphi - lin[1].xi).max()
                + np.abs(dsig - lin[1].psi).max())

    e1, e2 = fd_error(1e-3), fd_error(5e-4)
    assert e2 <= 0.6 * e1 + 1e-12  # first-order in the step size


def test_frechet_quadratic_slope(rng):
    sysd, phi0, sig0, w, _, T, N = _setup(nx=6, ny=6, N=5, T=0.4)
    space = sysd.control_space(T, N)
    h = space.random_direction(rng)
    rep = frechet_check(sysd, phi0, sig0, T, N, w, h,
                        eps_list=np.logspace(-1, -3, 5))
    assert 1.8 <= rep.slope <= 2.2
    ratio = rep.remainders[0] / rep.remainders[1]  # adjacent eps differ by sqrt(10)
    assert 5.0 <= ratio <= 20.0


def test_frechet_zero_direction_zero_remainder():
    sysd, phi0, sig0, w, _, T, N = _setup(nx=5, ny=5, N=3, T=0.2)
    rep = frechet_check(sysd, phi0, sig0, T, N, w, sysd.zero_controls(N),
                        eps_list=[1e-1, 1e-2])
    assert np.abs(rep.remainders).max() == 0.0


def test_frechet_remainder_doubling_ratio(rng):
    sysd, phi0, sig0, w, _, T, N = _setup(nx=5, ny=5, N=4, T=0.3)
    space = sysd.control_space(T, N)
    h = space.random_direction(rng)
    eps = np.array([4e-2, 2e-2, 1e-2])
    rep = frechet_check(sysd, phi0, sig0, T, N, w, h, eps_list=eps)
    for i in range(2):
        ratio = rep.remainders[i] / rep.remainders[i + 1]
        assert 3.5 <= ratio <= 4.5


def test_direction_shrinks_to_stay_admissible(rng):
    sysd, phi0, sig0, _, _, T, N = _setup(nx=5, ny=5, N=3, T=0.2)
    b = ControlBounds()
    w = interior_controls(sysd, N, b)
    w.w2[:] = np.asarray(b.w2_hi) - 1e-3  # nearly active box
    space = sysd.control_space(T, N)
    h = space.random_direction(rng)
    rep = frechet_check(sysd, phi0, sig0, T, N, w, h, eps_list=[1e-1, 1e-2])
    assert np.isfinite(rep.remainders).all()
