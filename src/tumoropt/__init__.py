"""Sparse optimal control of a mechanically coupled phase-field tumour model.

A structured-grid bilinear finite-element solver for a Cahn-Hilliard /
nutrient / quasistatic-elasticity system, with exact discrete adjoints and a
proximal projected-gradient optimizer for boundary nutrient supply and
L1-regularised drug dosages.
"""

from .adjoint import AdjointSnapshot, ReducedGradient, reduced_gradient, solve_adjoint
from .config import RunConfig, default_config, dumps, load_config
from .constitutive import DrugSchedule, ModelParams, Nonlinearities
from .cost import CostWeights, eval_cost
from .fem import (ElasticityTensor, assemble_boundary_mass,
                  assemble_coupling_phi_to_strain, assemble_elasticity,
                  assemble_mass, assemble_stiffness, quadrature)
from .grid import Grid, build_grid
from .linearized import FrechetReport, LinearisedSnapshot, frechet_check, solve_linearised
from .optimize import (ControlProblem, OptimizationReport, OptimizeOptions,
                       projection_formula_check, prox_project,
                       sparsity_report, stationarity_residual)
from .state import (ControlBounds, ControlSpace, ControlTriple, StateSnapshot,
                    StateTrajectory, System)

__version__ = "0.1.0"

__all__ = [
    "AdjointSnapshot", "ControlBounds", "ControlProblem", "ControlSpace",
    "ControlTriple", "CostWeights", "DrugSchedule",
    "ElasticityTensor", "FrechetReport", "Grid", "LinearisedSnapshot",
    "ModelParams", "Nonlinearities", "OptimizationReport", "OptimizeOptions",
    "ReducedGradient", "RunConfig", "StateSnapshot", "StateTrajectory",
    "System", "assemble_boundary_mass", "assemble_coupling_phi_to_strain",
    "assemble_elasticity", "assemble_mass", "assemble_stiffness",
    "build_grid", "default_config", "dumps", "eval_cost", "frechet_check",
    "load_config", "projection_formula_check", "prox_project",
    "quadrature", "reduced_gradient", "solve_adjoint", "solve_linearised",
    "sparsity_report", "stationarity_residual",
]
