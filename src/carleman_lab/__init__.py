"""Numerical laboratory for degenerate parabolic control problems.

Builds admissible degenerate diffusion coefficients, certifies their
degeneracy band on grids, constructs the sign-changing Carleman weight
family, solves the forward and backward problems in flux form with an
exactly transposed adjoint, sweeps the weighted observability-type
inequality, and synthesizes approximate null controls by penalized dual
minimization.

The package exports its public names lazily (PEP 562): ``import
carleman_lab`` loads no submodule, and ``carleman_lab.<name>`` imports the
module that defines the name on first use.  The Carleman modules
(``weights``, ``functionals``, ``carleman``) load together once ``weights``
or ``carleman`` is imported, and a null-control run loads none of them.
Every lookup reads the module attribute afresh and stores nothing here, so
whatever replaces a module attribute (a tracer, a test's monkeypatch) is
seen through the package too.
"""

import importlib

__version__ = "0.1.0"

# each exported name, by the module that defines it
_EXPORTS = {
    "coefficients": (
        "DegeneracyCoefficient",
        "HypothesisReport",
        "Regime",
        "classify",
        "coefficient_from_descriptor",
        "make_example_coefficient",
        "make_power_coefficient",
        "make_table_coefficient",
    ),
    "weights": (
        "CarlemanWeights",
        "PsiFunction",
        "build_weights",
        "default_omega_prime",
    ),
    "pde_solver": (
        "LeftBoundary",
        "Mesh",
        "ProblemSpec",
        "Scheme",
        "Trajectory",
        "WeightedNorms",
        "assemble_diffusion",
        "boundary_regime_for",
        "build_mesh",
        "energy_report",
        "solve_adjoint",
        "solve_forward",
    ),
    "functionals": (
        "HardyCase",
        "aux_hardy_b",
        "aux_hardy_p",
        "hardy_ratio",
        "spacetime_weighted_integral",
    ),
    "carleman": (
        "CarlemanParams",
        "CarlemanReport",
        "carleman_sides",
        "carleman_sweep",
        "identity_residual",
        "observability_ratio",
        "stable_s0",
        "standard_identity_fields",
        "transform_to_w",
    ),
    "control": (
        "ControlResult",
        "synthesize_null_control",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        # not an export: a submodule (``from carleman_lab import weights``)
        # is then imported by the import system itself
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
