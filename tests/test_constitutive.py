import numpy as np
import pytest

from tumoropt import constitutive as con
from tumoropt import cost
from tumoropt.constitutive import DrugSchedule, ModelConfigError, ModelParams, Nonlinearities
from tumoropt.cost import stress_load_density, stress_load_partials
from tumoropt.fem import ElasticityTensor, tensor_dot


@pytest.fixture
def nl():
    return Nonlinearities()


@pytest.fixture
def params():
    return ModelParams()


def central(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2 * h)


def psi_prime(nl, r):
    return nl.psi1_prime(r) + nl.psi2_prime(r)


# -- double-well potential ----------------------------------------------------

def test_psi_double_well_minima(nl):
    assert nl.psi_value(1.0) == 0.0
    assert nl.psi_value(-1.0) == 0.0
    assert psi_prime(nl, 1.0) == 0.0
    assert psi_prime(nl, -1.0) == 0.0


def test_psi_origin_values(nl):
    assert psi_prime(nl, 0.0) == 0.0
    assert nl.psi1_second(0.0) + nl.psi2_second(0.0) == -1.0


def test_psi_derivative_chain(nl, rng):
    for r in rng.uniform(-3, 3, size=100):
        first = psi_prime(nl, r)
        assert abs(central(nl.psi_value, r) - first) < 1e-6 * max(1, abs(first))
        second = nl.psi1_second(r) + nl.psi2_second(r)
        assert abs(central(lambda x: psi_prime(nl, x), r) - second) < 1e-6 * max(1, abs(second))


def test_psi_split_consistent_and_convex(nl):
    r = np.linspace(-3, 3, 121)
    assert np.allclose(psi_prime(nl, r), (r * r - 1.0) * r)
    assert (nl.psi1_second(r) >= 0).all()


# -- stress response ----------------------------------------------------------

def test_g_at_zero_and_unit():
    assert con.g_stress(np.zeros(3)) == 1.0
    assert np.abs(con.g_stress_grad(np.zeros(3))).max() == 0.0
    # |A|^2 = 3: entries (1, 1, sqrt(1/2)) with the doubled shear slot
    a = np.array([1.0, 1.0, np.sqrt(0.5)])
    assert abs(con.g_stress(a) - 0.5) < 1e-15


def test_g_range_and_monotonicity(rng):
    scales = np.linspace(0.0, 10.0, 50)
    a = rng.standard_normal(3)
    vals = con.g_stress(scales[:, None] * a)
    assert (vals <= 1.0).all() and (vals > 0.0).all()
    assert (np.diff(vals) <= 0).all()


def test_g_grad_matches_finite_differences(rng):
    for _ in range(100):
        a = rng.standard_normal(3)
        grad = con.g_stress_grad(a)
        for i in range(3):
            d = np.zeros(3)
            d[i] = 1e-5
            fd = (con.g_stress(a + d) - con.g_stress(a - d)) / 2e-5
            # a Voigt shear perturbation moves both off-diagonal entries
            expect = (2.0 if i == 2 else 1.0) * grad[i]
            assert abs(fd - expect) < 1e-6 * max(1.0, abs(expect))


# -- ramps ---------------------------------------------------------------------

def test_ramp_interpolation_values():
    assert con.smoothstep(1.0) == 1.0
    assert con.smoothstep(-1.0) == 0.0


def test_ramp_bounds_and_lipschitz():
    r = np.linspace(-2.5, 2.5, 2001)
    assert (np.abs(con.smoothstep(r)) <= 1.0).all()
    assert (con.smoothstep(r) >= 0.0).all()
    assert np.abs(con.smoothstep_prime(r)).max() <= 15.0 / 16.0 + 1e-12


def test_ramp_derivatives_match_fd(rng):
    for r in rng.uniform(-1.5, 1.5, size=100):
        assert abs(central(con.smoothstep, r) - con.smoothstep_prime(r)) < 1e-6


# -- weight n -------------------------------------------------------------------

def test_weight_ramp_endpoints():
    assert cost.stress_weight(1.0) == 0.0
    assert cost.stress_weight(-1.0) == 1.0
    assert (cost.stress_weight(np.linspace(-2, 2, 41)) >= 0).all()


def test_weight_ramp_derivative_fd(rng):
    # stay away from the blend junctions at phi in {1, 0.8, -0.8, -1}
    for phi in rng.uniform(-0.7, 0.7, size=50):
        fd = (cost.stress_weight(phi + 1e-5) - cost.stress_weight(phi - 1e-5)) / 2e-5
        assert abs(fd - cost.stress_weight_prime(phi)) < 1e-6


# -- stress/energy -------------------------------------------------------------

def test_stress_free_states(params):
    assert np.abs(con.stress(params, 0.0, params.bar_strain)).max() == 0.0
    full = params.bar_strain + params.misfit_strain
    assert np.abs(con.stress(params, 1.0, full)).max() < 1e-15


def test_stress_linear_in_arguments(params, rng):
    e1, e2 = rng.standard_normal(3), rng.standard_normal(3)
    p1, p2 = rng.standard_normal(2)
    lhs = con.stress(params, p1 + p2, e1 + e2) + con.stress(params, 0.0, np.zeros(3))
    rhs = con.stress(params, p1, e1) + con.stress(params, p2, e2)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_w_phi_is_energy_derivative(params, rng):
    for _ in range(100):
        phi = rng.uniform(-1, 1)
        e = rng.standard_normal(3)
        fd = (con.elastic_energy_density(params, phi + 1e-6, e)
              - con.elastic_energy_density(params, phi - 1e-6, e)) / 2e-6
        val = _coefficients(params, phi, e).w_phi
        assert abs(fd - val) < 1e-6 * max(1.0, abs(val))


def test_w_phi_degenerate_cases(params):
    p0 = ModelParams(misfit_strain=np.zeros(3))
    assert _coefficients(p0, 0.7, np.array([0.1, -0.2, 0.3])).w_phi == 0.0
    assert _coefficients(params, 0.0, params.bar_strain).w_phi == 0.0


# -- sources -------------------------------------------------------------------

def _coefficients(params, phi, strain_v):
    return con.gauss_coefficients(params, phi, strain_v)


def test_source_U_zero_rates():
    p = ModelParams(lambda_p=0.0, lambda_a=0.0)
    assert _coefficients(p, 0.3, np.zeros(3)).growth(0.8, 0.0) == 0.0


def test_source_U_host_tissue_inactive(params):
    # f(-1) = k(-1) = 0: the host phase neither proliferates nor dies
    assert _coefficients(params, -1.0, np.zeros(3)).growth(0.9, 0.4) == 0.0


def test_source_U_unit_growth():
    p = ModelParams(lambda_p=1.0, lambda_a=0.0)
    coef = _coefficients(p, 1.0, p.bar_strain + p.misfit_strain)
    assert abs(coef.growth(1.0, 0.0) - 1.0) < 1e-15  # stress-free, f(1) = 1, g(0) = 1


def test_source_S_balances():
    p = ModelParams(lambda_c=1.0, B=0.7)
    # at sigma = sigma_c with no consumption the exchange term vanishes
    assert _coefficients(p, -1.0, np.zeros(3)).nutrient(p.sigma_c, 0.0) == 0.0
    p0 = ModelParams(B=0.0, lambda_c=1.0)
    assert abs(_coefficients(p0, 1.0, np.zeros(3)).nutrient(0.37, 0.0) + 0.37) < 1e-15


def test_source_S_partials_fd(params, rng):
    """Every partial of the growth and nutrient sources, and of the stress
    load, against central differences of its value formula."""
    m, eps, w2, w3 = 50, 1e-6, 0.3, 0.2
    # inside the linear part of the weight ramp n, away from its blends
    phi = rng.uniform(-0.85, 0.85, size=m)
    strain_v = 0.3 * rng.standard_normal((m, 3))
    sig = rng.uniform(0.0, 1.0, size=m)
    de = rng.standard_normal((m, 3))

    def at(dphi=0.0, dstrain=0.0):
        return con.gauss_coefficients(params, phi + dphi, strain_v + dstrain)

    def central_diff(value):
        return (value(eps) - value(-eps)) / (2 * eps)

    c = at()
    d_load_phi, d_load_stress = stress_load_partials(c)
    cases = {
        "growth_dsigma": (c.growth_dsigma,
                          central_diff(lambda e: c.growth(sig + e, w2))),
        "growth_dw2": (c.growth_dw2, central_diff(lambda e: c.growth(sig, w2 + e))),
        "growth_dphi": (c.growth_dphi(sig, w2),
                        central_diff(lambda e: at(dphi=e).growth(sig, w2))),
        "growth_dstress": (tensor_dot(c.growth_dstress(sig), params.C.apply(de)),
                           central_diff(lambda e: at(dstrain=e * de).growth(sig, w2))),
        "nutrient_dsigma": (c.nutrient_dsigma,
                            central_diff(lambda e: c.nutrient(sig + e, w3))),
        "nutrient_dphi": (c.nutrient_dphi(sig, w3),
                          central_diff(lambda e: at(dphi=e).nutrient(sig, w3))),
        "nutrient_dw3": (c.nutrient_dw3, central_diff(lambda e: c.nutrient(sig, w3 + e))),
        "stress_load_dphi": (d_load_phi, central_diff(
            lambda e: 0.5 * stress_load_density(at(dphi=e)))),
        "stress_load_dstress": (tensor_dot(d_load_stress, params.C.apply(de)), central_diff(
            lambda e: 0.5 * stress_load_density(at(dstrain=e * de)))),
    }
    for name, (partial, fd) in cases.items():
        assert np.abs(partial - fd).max() < 1e-6, name


# -- drug schedule ---------------------------------------------------------------

def test_schedule_before_first_dose():
    s = DrugSchedule(dosage=2.0, times=(0.5,), lifetime=0.3)
    assert s(0.2) == 0.0


def test_schedule_dose_at_infusion():
    s = DrugSchedule(dosage=2.0, times=(0.5,), lifetime=0.3)
    assert s(0.5) == 2.0


def test_schedule_superposition():
    s = DrugSchedule(dosage=1.0, times=(0.0, 5.0), lifetime=1.0)
    assert abs(s(5.0) - (np.exp(-5.0) + 1.0)) < 1e-15


def test_schedule_validation():
    with pytest.raises(ModelConfigError):
        DrugSchedule(times=(0.5, 0.2))
    with pytest.raises(ModelConfigError):
        DrugSchedule(lifetime=0.0)
    with pytest.raises(ModelConfigError):
        DrugSchedule(dosage=-1.0)


# -- parameter validation ----------------------------------------------------------

def test_params_negative_rate_rejected():
    with pytest.raises(ModelConfigError, match="A1"):
        ModelParams(lambda_p=-0.1)


def test_params_degenerate_nutrient_rejected():
    with pytest.raises(ModelConfigError, match="A1"):
        ModelParams(beta=0.0, B=0.0, kappa=0.0)


def test_params_beta_zero_allowed_with_exchange():
    p = ModelParams(beta=0.0, B=0.5, kappa=0.0)
    assert p.nutrient_cap == max(p.sigma_c, p.supply_bound)


def test_positive_definiteness_constant():
    C = ElasticityTensor.isotropic(1.0, 1.0)
    rng = np.random.default_rng(5)
    for _ in range(50):
        e = rng.standard_normal(3)
        quad_form = float(e @ (np.diag([1, 1, 2]) @ C.voigt) @ e)
        norm2 = e[0] ** 2 + e[1] ** 2 + 2 * e[2] ** 2
        assert quad_form >= C.c0 * norm2 - 1e-12
