"""Greedy reduced bases and empirical interpolants for parametrized complex
time series, with conditioning and accuracy diagnostics."""

from .catalog import (FamilySpec, TimeGrid, TrainingSet, generate_family,
                      load_training_csv, make_family_spec, save_training_csv)
from .diagnostics import DiagnosticsReport, error_ratio_curve, run_comparison
from .eim import (EmpiricalInterpolant, SelectionCriterion, build_interpolant,
                  interpolate, interpolate_function, verify_determinant_identity)
from .rbm import ReducedBasis, build_reduced_basis

__version__ = "0.1.0"

__all__ = [
    "FamilySpec", "TimeGrid", "TrainingSet", "generate_family",
    "load_training_csv", "make_family_spec", "save_training_csv",
    "DiagnosticsReport", "error_ratio_curve", "run_comparison",
    "EmpiricalInterpolant", "SelectionCriterion", "build_interpolant",
    "interpolate", "interpolate_function", "verify_determinant_identity",
    "ReducedBasis", "build_reduced_basis", "__version__",
]
