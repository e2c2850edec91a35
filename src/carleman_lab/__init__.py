"""Numerical laboratory for degenerate parabolic control problems.

Builds admissible degenerate diffusion coefficients, certifies their
degeneracy band on grids, constructs the sign-changing Carleman weight
family, solves the forward and backward problems in flux form with an
exactly transposed adjoint, sweeps the weighted observability-type
inequality, and synthesizes approximate null controls by penalized dual
minimization.

The package re-exports the core every run loads: coefficients, the solver
and the null control.  The Carleman chain (``weights``, ``functionals``,
``carleman``) is imported from its own modules, so ``import carleman_lab``
does not load it.
"""

__version__ = "0.1.0"

from .coefficients import (
    DegeneracyCoefficient,
    HypothesisReport,
    Regime,
    classify,
    coefficient_from_descriptor,
    make_example_coefficient,
    make_power_coefficient,
    make_table_coefficient,
)
from .control import ControlResult, synthesize_null_control
from .pde_solver import (
    LeftBoundary,
    Mesh,
    ProblemSpec,
    Scheme,
    Trajectory,
    WeightedNorms,
    assemble_diffusion,
    boundary_regime_for,
    build_mesh,
    energy_report,
    solve_adjoint,
    solve_forward,
)
