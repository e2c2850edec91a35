"""Numerical laboratory for degenerate parabolic control problems.

Builds admissible degenerate diffusion coefficients, certifies their
degeneracy band on grids, constructs the sign-changing Carleman weight
family, solves the forward and backward problems in flux form with an
exactly transposed adjoint, sweeps the weighted observability-type
inequality, and synthesizes approximate null controls by penalized dual
minimization.
"""

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
from .weights import (
    CarlemanWeights,
    PsiFunction,
    build_weights,
    default_omega_prime,
)
from .pde_solver import (
    LeftBoundary,
    Mesh,
    ProblemSpec,
    Scheme,
    Trajectory,
    assemble_diffusion,
    boundary_regime_for,
    build_mesh,
    energy_report,
    solve_adjoint,
    solve_forward,
)
from .functionals import (
    HardyCase,
    WeightedNorms,
    aux_hardy_b,
    aux_hardy_p,
    hardy_ratio,
    spacetime_weighted_integral,
)
from .carleman import (
    CarlemanParams,
    CarlemanReport,
    carleman_sides,
    carleman_sweep,
    identity_residual,
    observability_ratio,
    stable_s0,
    standard_identity_fields,
    transform_to_w,
)
from .control import (
    ControlResult,
    synthesize_null_control,
)

__version__ = "0.1.0"
