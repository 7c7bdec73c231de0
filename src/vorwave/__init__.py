"""Steady periodic water waves with vorticity: solver, continuation, audit."""

__version__ = "0.1.0"

from .errors import (BifurcationNotFoundError, ConfigError, InputError,
                     NoConvergenceError, NumericsError, SolverError,
                     StagnationApproachError, StagnationError, VorwaveError)
from .vorticity import VorticityFunction
from .laminar import critical_lambda, laminar_depth, laminar_flow, \
    laminar_head
from .grid import StripGrid
from .solver import (bifurcation_mode, discrete_laminar, find_bifurcation,
                     newton_solve, seed_wave)
from .continuation import Branch, BranchPoint, continue_branch, load_point, \
    save_branch
from .fields import WaveField, reconstruct
from .audit import AuditReport, audit_wave, gamma_small_criterion, \
    gamma_smallest_criterion, pressure_normal_derivative, surface_curve
from .gerstner import TrochoidalWave

__all__ = [
    "__version__",
    "VorwaveError", "ConfigError", "InputError", "SolverError",
    "StagnationError", "StagnationApproachError", "NoConvergenceError",
    "BifurcationNotFoundError", "NumericsError",
    "VorticityFunction",
    "critical_lambda", "laminar_depth", "laminar_head", "laminar_flow",
    "gamma_small_criterion", "gamma_smallest_criterion",
    "StripGrid", "newton_solve", "discrete_laminar", "find_bifurcation",
    "bifurcation_mode", "seed_wave",
    "Branch", "BranchPoint", "continue_branch", "save_branch", "load_point",
    "WaveField", "reconstruct",
    "AuditReport", "audit_wave", "pressure_normal_derivative", "surface_curve",
    "TrochoidalWave",
]
