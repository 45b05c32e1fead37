"""Lowest-order virtual element solver for time-dependent Maxwell's
equations on general polyhedral meshes.

The discretization couples an edge space (electric field, constant
tangential edge DOFs) with a face space (magnetic induction, constant
normal face DOFs); backward-Euler steps solve a reduced electric-only
SPD system and update the induction exactly, which keeps its discrete
divergence at round-off level for all times.
"""

from .cases import ErrorReport, ManufacturedCase, case1, case2, l2_error
from .derham import (ElementProjectors, IncidenceOps, build_incidence,
                     build_projectors, divergence_norm, interpolate_edge,
                     interpolate_face, interpolate_node)
from .forms import CoefficientSet, StabWeights, sample_coefficients
from .geometry import QuadratureRule
from .linalg import SolveReport, SparseMatrix, cg_solve
from .mesh import (MeshError, MeshFormatError, MeshGeometryError,
                   MeshTopologyError, PolyMesh, ValidationReport,
                   derive_topology, generate_cube_mesh, load_mesh,
                   save_mesh, validate_mesh)
from .stepper import RunResult, SimulationState, StepOperators, run

__version__ = "0.1.0"

__all__ = [
    "CoefficientSet", "ElementProjectors", "ErrorReport",
    "IncidenceOps", "ManufacturedCase", "MeshError", "MeshFormatError",
    "MeshGeometryError", "MeshTopologyError", "PolyMesh",
    "QuadratureRule", "RunResult", "SimulationState", "SolveReport",
    "SparseMatrix", "StabWeights", "StepOperators", "ValidationReport",
    "build_incidence", "build_projectors", "case1", "case2", "cg_solve", "derive_topology",
    "divergence_norm", "generate_cube_mesh", "interpolate_edge",
    "interpolate_face", "interpolate_node", "l2_error", "load_mesh",
    "run", "sample_coefficients", "save_mesh", "validate_mesh",
]
