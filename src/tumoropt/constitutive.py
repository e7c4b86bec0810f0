"""Model functions: double-well potential, response functions, sources.

Everything here is a pure function of value arrays (typically Gauss-point
samples), vectorised over the leading axes.  Derivatives are hand-coded and
unit-checked against central differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fem import ElasticityTensor, tensor_dot, tensor_norm2


class ModelConfigError(ValueError):
    """Raised when model constants violate their admissibility rules."""


# ---------------------------------------------------------------------------
# smoothed ramps for f, h, k (C^2 quintic smoothstep of (r+1)/2)
# ---------------------------------------------------------------------------

def smoothstep(r):
    """Quintic smoothstep of (r+1)/2: 0 at r<=-1, 1 at r>=1, C^2 throughout."""
    t = np.clip((np.asarray(r, dtype=float) + 1.0) * 0.5, 0.0, 1.0)
    return t ** 3 * (10.0 + t * (-15.0 + 6.0 * t))


def smoothstep_prime(r):
    t = np.clip((np.asarray(r, dtype=float) + 1.0) * 0.5, 0.0, 1.0)
    return 0.5 * 30.0 * t ** 2 * (1.0 - t) ** 2


# ---------------------------------------------------------------------------
# stress response g
# ---------------------------------------------------------------------------

def g_stress(stress_v: np.ndarray) -> np.ndarray:
    """g(A) = 1 / sqrt(1 + |A|^2) on Voigt tensors (leading axes free)."""
    return 1.0 / np.sqrt(1.0 + tensor_norm2(np.asarray(stress_v, dtype=float)))


def g_stress_grad(stress_v: np.ndarray) -> np.ndarray:
    """Tensor derivative of g, returned in Voigt form (same shape as input)."""
    a = np.asarray(stress_v, dtype=float)
    scale = (1.0 + tensor_norm2(a)) ** (-1.5)
    return -a * scale[..., None]


# ---------------------------------------------------------------------------
# parameter bundles
# ---------------------------------------------------------------------------

@dataclass
class DrugSchedule:
    """Exponentially decaying bolus train used for reference dosages."""
    dosage: float = 0.5
    times: tuple[float, ...] = (0.0, 0.35, 0.7)
    lifetime: float = 0.2

    def __post_init__(self):
        if self.dosage < 0:
            raise ModelConfigError("drug.dosage must be non-negative")
        if self.lifetime <= 0:
            raise ModelConfigError("drug.lifetime must be positive")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ModelConfigError("drug.times must be strictly increasing")

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for ti in self.times:
            # dose takes effect at the infusion instant itself
            active = t >= ti
            out = out + np.where(active, self.dosage * np.exp(-(t - ti) / self.lifetime), 0.0)
        return out


@dataclass
class ModelParams:
    """Physical constants of the coupled model.

    ``nutrient_cap`` is max(sigma_c, sup |boundary supply|); the boundary
    supply bound is taken from the control box when the problem is set up.
    """
    beta: float = 1.0
    B: float = 0.5
    kappa: float = 1.0
    chi: float = 0.05
    lambda_p: float = 0.5
    lambda_a: float = 0.1
    lambda_c: float = 1.0
    sigma_c: float = 1.0
    C: ElasticityTensor = field(default_factory=lambda: ElasticityTensor.isotropic(1.0, 1.0))
    bar_strain: np.ndarray = field(default_factory=lambda: np.zeros(3))
    misfit_strain: np.ndarray = field(default_factory=lambda: np.array([0.05, 0.05, 0.0]))
    g_load: np.ndarray = field(default_factory=lambda: np.zeros(2))
    supply_bound: float = 1.0      # sup of |w1| over its admissible box

    def __post_init__(self):
        for name in ("beta", "B", "kappa", "chi", "lambda_p", "lambda_a",
                     "lambda_c", "sigma_c"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ModelConfigError(
                    f"rate constant {name} must be finite and non-negative (A1)")
        if self.beta == 0 and self.B == 0 and self.kappa == 0:
            raise ModelConfigError(
                "beta = 0 requires B > 0 or kappa > 0 (A1), otherwise the "
                "nutrient equation is singular")
        self.bar_strain = np.asarray(self.bar_strain, dtype=float)
        self.misfit_strain = np.asarray(self.misfit_strain, dtype=float)
        self.g_load = np.asarray(self.g_load, dtype=float)
        if self.bar_strain.shape != (3,) or self.misfit_strain.shape != (3,):
            raise ModelConfigError("strain tensors must be Voigt triples (xx, yy, xy)")
        if self.g_load.shape != (2,):
            raise ModelConfigError("the body load g_load must be a pair (gx, gy)")

    @property
    def nutrient_cap(self) -> float:
        return max(self.sigma_c, self.supply_bound)

    @property
    def misfit_stress(self) -> np.ndarray:
        """C E*: minus the composition derivative of the stress W_E."""
        return self.C.apply(self.misfit_strain)


@dataclass
class Nonlinearities:
    """The quartic double well scaled by ``well_scale``."""
    well_scale: float = 1.0

    def __post_init__(self):
        if self.well_scale <= 0:
            raise ModelConfigError("well_scale must be positive")

    # potential ---------------------------------------------------------------
    # psi = (r^2 - 1)^2 / 4 = psi1 + psi2: convex psi1 = (r^4 + 1) / 4,
    # concave psi2 = -r^2 / 2
    def psi_value(self, r):
        r = np.asarray(r, dtype=float)
        return self.well_scale * 0.25 * (r * r - 1.0) ** 2

    def psi1_prime(self, r):
        r = np.asarray(r, dtype=float)
        return self.well_scale * (r * r * r)

    def psi1_second(self, r):
        r = np.asarray(r, dtype=float)
        return self.well_scale * 3.0 * r * r

    def psi2_prime(self, r):
        r = np.asarray(r, dtype=float)
        return -self.well_scale * r

    def psi2_second(self, r):
        r = np.asarray(r, dtype=float)
        return np.full_like(r, -self.well_scale)


# ---------------------------------------------------------------------------
# elastic energy density and sources
# ---------------------------------------------------------------------------

def elastic_strain(params: ModelParams, phi, strain_v) -> np.ndarray:
    """Elastic part of the strain, E - Ebar - phi E*."""
    phi = np.asarray(phi, dtype=float)
    return strain_v - params.bar_strain - phi[..., None] * params.misfit_strain


def stress(params: ModelParams, phi, strain_v) -> np.ndarray:
    """W_E = C(E - Ebar - phi E*), Voigt form."""
    return params.C.apply(elastic_strain(params, phi, strain_v))


def elastic_energy_density(params: ModelParams, phi, strain_v) -> np.ndarray:
    e = elastic_strain(params, phi, strain_v)
    return 0.5 * tensor_dot(params.C.apply(e), e)


@dataclass(frozen=True)
class GaussCoefficients:
    """The state equations' coefficients of one snapshot at the Gauss points.

    ``gauss_coefficients`` builds it once per snapshot.  The growth source
    U, the nutrient source S and their partials are written here once, and
    the forward step, the linearised step, both adjoint modes and the cost
    all read them from here, which keeps the transpose adjoint exact.  The
    nutrient and the dosages are arguments, because a step pairs the lagged
    composition and displacement with the new nutrient.  The cost's stress
    weight n(phi) is not one of them; ``cost`` evaluates it from ``phi``.
    """
    params: ModelParams
    phi: np.ndarray
    stress: np.ndarray      # W_E = C(E - Ebar - phi E*), Voigt
    w_phi: np.ndarray       # W_phi = -W_E : E*, the composition derivative of W
    ramp: np.ndarray        # f(phi) = h(phi) = k(phi)
    dramp: np.ndarray
    g: np.ndarray
    dg: np.ndarray          # tensor derivative of g at W_E, Voigt

    # growth source U = lambda_p sigma f(phi) g(W_E) - (lambda_a + w2) k(phi)
    def growth(self, sigma, w2):
        p = self.params
        return p.lambda_p * sigma * self.ramp * self.g - (p.lambda_a + w2) * self.ramp

    @property
    def growth_dsigma(self):
        return self.params.lambda_p * self.ramp * self.g

    def growth_dstress(self, sigma):
        """dU/dW_E in Voigt form; pairs with a stress increment by tensor_dot."""
        return (self.params.lambda_p * sigma * self.ramp)[..., None] * self.dg

    def growth_dphi(self, sigma, w2):
        """dU/dphi at fixed strain: through f, k and the misfit stress -C E*."""
        p = self.params
        return (p.lambda_p * sigma * (self.dramp * self.g
                                      - self.ramp * tensor_dot(self.dg, p.misfit_stress))
                - (p.lambda_a + w2) * self.dramp)

    @property
    def growth_dw2(self):
        return -self.ramp

    # nutrient source S = h(phi)(w3 - lambda_c sigma) + B(sigma_c - sigma);
    # it is affine in sigma, so an implicit step loads S(0, w3) and moves
    # -dS/dsigma into the operator
    def nutrient(self, sigma, w3):
        p = self.params
        return self.ramp * (w3 - p.lambda_c * sigma) + p.B * (p.sigma_c - sigma)

    @property
    def nutrient_dsigma(self):
        return -(self.params.lambda_c * self.ramp + self.params.B)

    def nutrient_dphi(self, sigma, w3):
        return self.dramp * (w3 - self.params.lambda_c * sigma)

    @property
    def nutrient_dw3(self):
        return self.ramp


def gauss_coefficients(params: ModelParams, phi, strain_v) -> GaussCoefficients:
    """Evaluate every coefficient at composition ``phi`` and strain ``strain_v``."""
    phi = np.asarray(phi, dtype=float)
    stress_v = stress(params, phi, strain_v)
    return GaussCoefficients(
        params=params, phi=phi, stress=stress_v,
        w_phi=-tensor_dot(stress_v, params.misfit_strain),
        ramp=smoothstep(phi), dramp=smoothstep_prime(phi),
        g=g_stress(stress_v), dg=g_stress_grad(stress_v))
