"""Certificates and numerics for perturbed Hammerstein integral equations
with derivative dependence: u = eta1*g1(t)*h1[u] + eta2*g2(t)*h2[u]
+ lambda * int_0^1 k(t,s) f(s, u, u') ds, solved in the cone of
non-negative non-decreasing C1 functions on [0,1]."""

from .bounds import (BoundEntry, BoundSet, FalsificationResult,
                     LinearGrowthWitness, estimate_H, estimate_f_extrema,
                     falsify_linear_growth)
from .certificate import (ExistenceCertificate, NonexistenceCertificate,
                          check_existence, check_nonexistence)
from .errors import (CheckResult, DomainError, EvaluationError, ExprError,
                     HammcertError, ParameterError, ProblemFileError, ShapeError)
from .expr import parse, to_source
from .grid import (CONE_TOL, Grid, GridFunction, c1_distance, c1_norm,
                   consistency_defect, integrate, sphere_family)
from .kernel import FocalKernel, Kernel, kernel_from_exprs
from .problem import ProblemSpec, apply_T, load_problem, loads_problem, validate_spec
from .solver import SolveResult, multistart_solve
from .sweep import SweepCell, axis_values, run_sweep

__version__ = "0.1.0"

__all__ = [
    "BoundEntry", "BoundSet", "CheckResult", "CONE_TOL", "DomainError",
    "EvaluationError", "ExistenceCertificate", "ExprError",
    "FalsificationResult", "FocalKernel", "Grid", "GridFunction",
    "HammcertError", "Kernel", "LinearGrowthWitness", "NonexistenceCertificate",
    "ParameterError", "ProblemFileError", "ProblemSpec", "ShapeError", "SolveResult", "SweepCell",
    "apply_T", "axis_values", "c1_distance", "c1_norm",
    "check_existence", "check_nonexistence", "consistency_defect",
    "estimate_H", "estimate_f_extrema",
    "falsify_linear_growth", "integrate", "kernel_from_exprs", "load_problem", "loads_problem",
    "multistart_solve", "parse", "run_sweep", "sphere_family",
    "to_source", "validate_spec",
]
