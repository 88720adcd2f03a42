"""Radially symmetric magneto-elastic disk: energy minimization on the unit
disk, the linearized threshold eigenproblem, branch tracing past the
instability, and reconstruction of the midplane fields."""

__version__ = "0.1.0"

from .bifurcation import (
    BifurcationDiagram,
    BranchPoint,
    amplitude_fit_slope,
    detected_threshold,
    trace_branches,
)
from .eigen import EigenPair, smallest_eigenpair
from .fields import magnetization_grid, reconstruct_w
from .grid import RadialGrid, build_grid, integrate
from .operators import ModelParams, Profile
from .solver import SolveReport, minimize

__all__ = [
    "BifurcationDiagram",
    "BranchPoint",
    "EigenPair",
    "ModelParams",
    "Profile",
    "RadialGrid",
    "SolveReport",
    "amplitude_fit_slope",
    "build_grid",
    "detected_threshold",
    "integrate",
    "magnetization_grid",
    "minimize",
    "reconstruct_w",
    "smallest_eigenpair",
    "trace_branches",
    "__version__",
]
