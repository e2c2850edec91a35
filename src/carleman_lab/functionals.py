"""Hardy-type ratio evaluation, and the one-integral form of the weighted
space-time quadrature.

The integrand (a/x^2) w^2 of the Hardy ratio is extended by its limit at the
degenerate node when it exists and otherwise loses the first cell.  The
weighted quadrature itself lives with the weights (``weights._integrals``);
this module loads it only when :func:`spacetime_weighted_integral` is
called, so a Hardy run loads no weight module.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

import numpy as np

from .coefficients import DegeneracyCoefficient
from .pde_solver import WeightedNorms

__all__ = [
    "HardyCase",
    "spacetime_weighted_integral",
    "hardy_ratio",
    "aux_hardy_p",
    "aux_hardy_b",
]


def spacetime_weighted_integral(
    traj,
    weights,
    s: float,
    k: float,
    integrand: str,
    interval: Optional[tuple] = None,
) -> float:
    """Tensor trapezoid of exp(2*s*phi)*sigma**k of the
    :class:`~carleman_lab.weights.CarlemanWeights` ``weights`` times a
    quadratic field over [0, T] x ``interval`` (None: [0, 1]).

    ``integrand`` selects the field: ``v_sq`` squares the nodal values,
    ``a_vx_sq`` squares the face gradients against the coefficient.
    Endpoint rows contribute nothing because the weight vanishes at
    t in {0, T}.
    """
    from .weights import _abscissae, _WeightedQuadrature  # the Carleman chain, on call

    grid = _abscissae(traj, weights)
    return _WeightedQuadrature(grid, weights, s, k, integrand, interval).integral(traj.values)


class HardyCase(Enum):
    CASE_A = "CaseA_theta_lt_1"
    CASE_B = "CaseB_theta_in_1_2"
    AUX_P = "AuxiliaryP"
    AUX_B = "AuxiliaryB"


def aux_hardy_p(coef: DegeneracyCoefficient) -> DegeneracyCoefficient:
    """Auxiliary profile (a(x) * x^4)^(1/3) used on the K = 1 path."""

    def p(x):
        x = np.asarray(x, dtype=float)
        return np.cbrt(np.asarray(coef.eval(x), dtype=float) * x**4)

    def dp(x):
        x = np.asarray(x, dtype=float)
        a = np.asarray(coef.eval(x), dtype=float)
        da = np.asarray(coef.eval_deriv(x), dtype=float)
        core = np.cbrt(a * x**4)
        return core * (da / a + 4.0 / x) / 3.0

    return DegeneracyCoefficient(
        label=f"({coef.label}*x^4)^(1/3)", eval=p, eval_deriv=dp,
        descriptor={"kind": "aux_p", "base": coef.descriptor},
    )


def aux_hardy_b(coef: DegeneracyCoefficient) -> DegeneracyCoefficient:
    """Auxiliary profile sqrt(a(x)) * x used on the K = 1 path."""

    def b(x):
        x = np.asarray(x, dtype=float)
        return np.sqrt(np.asarray(coef.eval(x), dtype=float)) * x

    def db(x):
        x = np.asarray(x, dtype=float)
        a = np.asarray(coef.eval(x), dtype=float)
        da = np.asarray(coef.eval_deriv(x), dtype=float)
        sq = np.sqrt(a)
        return sq + x * da / (2.0 * sq)

    return DegeneracyCoefficient(
        label=f"sqrt({coef.label})*x", eval=b, eval_deriv=db,
        descriptor={"kind": "aux_b", "base": coef.descriptor},
    )


def hardy_ratio(
    coef_or_aux: DegeneracyCoefficient,
    mesh,
    ws: np.ndarray,
    case: HardyCase,
) -> dict:
    """Ratio of the weighted zero-order integral to the gradient integral of
    every row of the ``(S, N+1)`` stack ``ws``, as the columns ``lhs``,
    ``rhs``, ``ratio`` and ``violation``, one entry per row.

    Case A requires w(0) = 0; case B and the auxiliary cases require
    w(1) = 0.  The coefficient values are computed once for the stack; both
    integrals are row sums over the stack.  A row with a zero gradient
    integral is a violation, ratio inf, when its left side is not zero too,
    and has nothing to evaluate otherwise, ratio NaN.
    """
    ws = np.asarray(ws, dtype=float)
    nodes = mesh.nodes
    if ws.ndim != 2 or ws.shape[1] != nodes.size:
        raise ValueError("nodal values must match the mesh")
    scale = np.max(np.abs(ws), axis=-1)
    if case is HardyCase.CASE_A:
        if np.any(np.abs(ws[:, 0]) > 1e-12 * (1.0 + scale)):
            raise ValueError("case A needs w(0) = 0")
    else:
        if np.any(np.abs(ws[:, -1]) > 1e-12 * (1.0 + scale)):
            raise ValueError(f"case {case.value} needs w(1) = 0")

    a_nodes = np.asarray(coef_or_aux.eval(nodes), dtype=float)
    norms = WeightedNorms(mesh, coef_or_aux)
    vols = norms.volumes
    with np.errstate(all="ignore"):
        f = a_nodes / nodes**2 * ws * ws
    # degenerate node: limit when the boundary constraint kills it, else drop
    # the first cell and integrate from the first interior node
    if case is HardyCase.CASE_A:
        f[:, 0] = 0.0
        lhs = np.sum(vols * f, axis=-1)
    else:
        lhs = np.sum(vols[1:] * f[:, 1:], axis=-1)
    rhs = norms.h1a_semi_sq(ws)

    dead = rhs <= 0.0
    violation = dead & (lhs > 1e-14 * (1.0 + scale) ** 2)
    # a NaN denominator gives NaN without a floating-point warning
    ratio = np.where(violation, np.inf, lhs / np.where(dead, np.nan, rhs))
    return {"lhs": lhs, "rhs": rhs, "ratio": ratio, "violation": violation}
