"""Radially symmetric magneto-elastic disk: energy minimization on the unit
disk, the linearized threshold eigenproblem, branch tracing past the
instability, and reconstruction of the midplane fields."""

__version__ = "0.1.0"

from .bifurcation import (
    BifurcationDiagram,
    BranchPoint,
    amplitude_fit_slope,
    cbar,
    detected_threshold,
    predicted_amplitude,
    trace_branches,
)
from .eigen import EigenPair, second_eigenpair, smallest_eigenpair
from .fields import (
    check_reduction_identity,
    coupled_energy,
    displacement_equation_residual,
    magnetization_at,
    magnetization_grid,
    reconstruct_w,
)
from .grid import RadialGrid, assemble_pencil, build_grid, derivative, integrate, l2_norm
from .operators import (
    ModelParams,
    Profile,
    boundary_slope,
    energy,
    euler_residual,
    fold,
    gradient,
    nonlinear_split,
)
from .solver import SolveReport, minimize, random_profile, verify_trivial_uniqueness

__all__ = [
    "BifurcationDiagram",
    "BranchPoint",
    "EigenPair",
    "ModelParams",
    "Profile",
    "RadialGrid",
    "SolveReport",
    "amplitude_fit_slope",
    "assemble_pencil",
    "boundary_slope",
    "build_grid",
    "cbar",
    "check_reduction_identity",
    "coupled_energy",
    "derivative",
    "detected_threshold",
    "displacement_equation_residual",
    "energy",
    "euler_residual",
    "fold",
    "gradient",
    "integrate",
    "l2_norm",
    "magnetization_at",
    "magnetization_grid",
    "minimize",
    "nonlinear_split",
    "predicted_amplitude",
    "random_profile",
    "reconstruct_w",
    "second_eigenpair",
    "smallest_eigenpair",
    "trace_branches",
    "verify_trivial_uniqueness",
    "__version__",
]
