"""Structured-grid simulator for a coupled phase-field poro-elasticity model.

Subpackages follow the pipeline: grid and discrete operators, material
laws, elliptic (elasticity) solves, conjugate fluid-content/pressure
operators, nonlinear right-hand sides, the fixed-point time stepper,
dense reference oracles, diagnostics, and the command-line front end.
"""

from .grid import (
    DIRICHLET,
    NEUMANN,
    Grid,
    SymTensorField,
    VectorField2,
    divergence,
    flux_stiffness_matrix,
    laplacian_stiffness_form,
    neumann_laplacian,
    symmetric_gradient,
)
from .materials import MaterialModel

__all__ = [
    "DIRICHLET",
    "NEUMANN",
    "Grid",
    "SymTensorField",
    "VectorField2",
    "MaterialModel",
    "divergence",
    "flux_stiffness_matrix",
    "laplacian_stiffness_form",
    "neumann_laplacian",
    "symmetric_gradient",
]
