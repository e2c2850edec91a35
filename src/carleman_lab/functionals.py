"""Space-time quadrature against the exponential weights and Hardy-type
ratio evaluation.

Space integrals clip trapezoid cells exactly at interval ends, so any
partition of [0, 1] reproduces the full integral to rounding.  The integrand
(a/x^2) w^2 of the Hardy ratio is extended by its limit at the degenerate
node when it exists and otherwise loses the first cell.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, NamedTuple, Optional

import numpy as np

from .coefficients import DegeneracyCoefficient
from .pde_solver import WeightedNorms, block_rows, trapezoid_time_weights

# for annotations only: weights ends by importing carleman, which imports from
# this module, so a run-time import here would close that cycle too early
if TYPE_CHECKING:
    from .weights import CarlemanWeights

__all__ = [
    "HardyCase",
    "spacetime_weighted_integral",
    "hardy_ratio",
    "aux_hardy_p",
    "aux_hardy_b",
]


def _clipped_node_quadrature(nodes: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Per-node weights of the trapezoid rule restricted to [lo, hi].

    Each cell integrates its linear interpolant exactly over the clipped
    part, so complementary intervals add up to the full-interval rule.
    """
    w = np.zeros(nodes.size)
    x0 = nodes[:-1]
    x1 = nodes[1:]
    h = x1 - x0
    a = np.maximum(x0, lo)
    b = np.minimum(x1, hi)
    keep = b > a
    aa = np.where(keep, a, x0)
    bb = np.where(keep, b, x0)
    # integrals of the two hat pieces over the clipped part of each cell
    left_piece = ((x1 - aa) ** 2 - (x1 - bb) ** 2) / (2.0 * h)
    right_piece = ((bb - x0) ** 2 - (aa - x0) ** 2) / (2.0 * h)
    w[:-1] += left_piece
    w[1:] += right_piece
    return w


def _clipped_cell_lengths(nodes: np.ndarray, lo: float, hi: float) -> np.ndarray:
    a = np.maximum(nodes[:-1], lo)
    b = np.minimum(nodes[1:], hi)
    return np.maximum(b - a, 0.0)


class _Abscissae(NamedTuple):
    """The time levels, nodes and faces of a trajectory grid, and ``key``,
    the hashable part of every quadrature key on it."""

    mesh: object
    T: float
    M: int
    ts: np.ndarray
    faces: np.ndarray
    key: tuple


def _check_horizon(T: float, weights: CarlemanWeights) -> None:
    """Raise unless a trajectory on [0, T] and ``weights`` share the horizon."""
    if abs(T - weights.T) > 1e-12 * max(1.0, weights.T):
        raise ValueError("trajectory and weights disagree on the horizon")


def _abscissae(mesh, T: float, M: int, weights: CarlemanWeights) -> _Abscissae:
    """The abscissae of the ``(M+1) x (N+1)`` grid of ``mesh`` on [0, T].

    Built once per open :meth:`CarlemanWeights.shared_grids` block, so the
    quadrature requests of every sample at one sweep point share one time
    grid and one key, whose bytes are hashed once.
    """
    _check_horizon(T, weights)
    key = (float(T), M, mesh.nodes.tobytes())

    def build():
        ts = np.linspace(0.0, T, M + 1)
        faces = mesh.faces
        ts.flags.writeable = faces.flags.writeable = False
        return _Abscissae(mesh, T, M, ts, faces, key)

    return weights.shared(("abscissae",) + key, build)


class _WeightedQuadrature:
    """The sample-independent half of :func:`spacetime_weighted_integral`.

    Folds the trapezoid time weights ``tw``, the clipped space quadrature
    ``xw`` of ``interval`` (None: [0, 1]) and the weight grid ``w`` =
    exp(2*s*phi)*sigma**k for one (s, k) into one grid
    G[m, i] = tw[m]*w[m, i]*xw[i] on the
    abscissae of the integrand: nodes, or faces for ``a_vx_sq``, whose
    ``xw`` also absorbs a/h**2.  G is cut to the box ``rows`` x ``cols`` of
    its nonzero entries (the time endpoints, the underflow clamp and the
    outside of the interval drop out), and an integral is sum(G*u*u) over
    the box (see :func:`_integrals`), where u is the trajectory's values or,
    for ``a_vx_sq``, their face differences.  A ``time_constant`` quadrature
    keeps only the column sums of G and integrates the first row of a field
    that does not depend on time.  While
    :meth:`CarlemanWeights.shared_grids` is open, each folded grid is built
    once per (s, k, integrand, interval) and shared.  ``grid`` is the
    :func:`_abscissae` of the trajectories, which callers build once for all
    the requests of one call.
    """

    def __init__(
        self,
        grid: _Abscissae,
        weights: CarlemanWeights,
        s: float,
        k: float,
        integrand: str,
        interval: Optional[tuple] = None,
        time_constant: bool = False,
    ):
        lo, hi = (0.0, 1.0) if interval is None else interval
        mesh = grid.mesh
        nodes = mesh.nodes
        if integrand == "v_sq":
            xs = nodes
        elif integrand == "a_vx_sq":
            xs = grid.faces
        else:
            raise ValueError(f"unknown integrand {integrand!r}")
        self.integrand = integrand
        self.time_constant = time_constant
        wgrid = weights.weight_grid(grid.ts, xs, s, k)

        def fold():
            if integrand == "a_vx_sq":
                a_faces = np.asarray(weights.coef.eval(grid.faces), dtype=float)
                xw = _clipped_cell_lengths(nodes, lo, hi) * a_faces / mesh.spacings**2
            else:
                xw = _clipped_node_quadrature(nodes, lo, hi)
            return _fold(wgrid, trapezoid_time_weights(grid.T, grid.M), xw, time_constant,
                         weights.grid_buffer)

        key = ("quadrature", integrand, float(s), float(k), float(lo), float(hi),
               time_constant) + grid.key
        self.rows, self.cols, self.grid = weights.shared(key, fold)

    def integral(self, vals) -> float:
        return _integrals(vals, (self,))[0]


def _integrals(vals, quads) -> list:
    """sum(G*u*u) over the box of each of ``quads`` against one field's values.

    The plane quadratures are integrated in one pass over row blocks of
    ``vals``: per block, the values are squared once for all ``v_sq``
    quadratures and the face differences once for all ``a_vx_sq`` ones, and
    each folded grid meets its squares in one two-operand contraction; the
    block sums add up in row order.  Blocks start at multiples of one block
    height and the squares span every column, so each integral has the same
    bits whichever quadratures share the pass.  A time-constant quadrature
    integrates the first row alone, as the sum of G*u*u.
    """
    vals = np.asarray(vals, dtype=float)
    sums = [0.0] * len(quads)
    # per integrand (False: nodes, True: faces): the first and last + 1 row
    # of its boxes, then (index, first row, last row + 1, cols, G) of each
    spans: dict = {}
    for j, q in enumerate(quads):
        r0, r1 = q.rows.start, q.rows.stop
        if r0 == r1:
            continue
        faces = q.integrand == "a_vx_sq"
        if q.time_constant:
            if faces:
                v = vals[0, q.cols.start : q.cols.stop + 1]
                u = np.subtract(v[1:], v[:-1])
            else:
                u = vals[0, q.cols]
            sums[j] = float(np.einsum("i,i,i->", q.grid, u, u))
        elif faces in spans:
            span = spans[faces]
            span[0], span[1] = min(span[0], r0), max(span[1], r1)
            span.append((j, r0, r1, q.cols, q.grid))
        else:
            spans[faces] = [r0, r1, (j, r0, r1, q.cols, q.grid)]
    if not spans:
        return sums
    n_cols = vals.shape[1]
    step = block_rows(n_cols)
    first = min(span[0] for span in spans.values()) // step * step
    last = max(span[1] for span in spans.values())
    scratch = np.empty(min(step, last - first) * n_cols)
    for b0 in range(first, last, step):
        b1 = b0 + step
        for faces, (r0, r1, *group) in spans.items():
            a, b = max(b0, r0), min(b1, r1)
            if a >= b:
                continue
            v = vals[a:b]
            if faces:
                sq = scratch[: (b - a) * (n_cols - 1)].reshape(b - a, n_cols - 1)
                np.subtract(v[:, 1:], v[:, :-1], out=sq)
                np.square(sq, out=sq)
            else:
                sq = np.square(v, out=scratch[: (b - a) * n_cols].reshape(b - a, n_cols))
            for j, q0, q1, cols, grid in group:
                qa, qb = max(a, q0), min(b, q1)
                if qa < qb:
                    sums[j] += float(
                        np.einsum("mi,mi->", grid[qa - q0 : qb - q0], sq[qa - a : qb - a, cols])
                    )
    return sums


def _fold(wgrid: np.ndarray, tw: np.ndarray, xw: np.ndarray, time_constant: bool,
          empty=np.empty):
    """(rows, cols, G) with G = tw[:, None]*wgrid*xw[None, :] on the box
    rows x cols of its nonzero entries, or G's column sums over that box, in
    ``empty(shape)`` memory.

    Both passes over ``wgrid`` (finding the box, then folding it) go in row
    blocks; G is formed as (wgrid*tw)*xw and the column sums add the rows in
    order, so the bits are those of the whole-grid expressions.
    """
    n_rows, n_cols = wgrid.shape
    step = block_rows(n_cols)
    live_t = tw != 0.0
    live_x = xw != 0.0
    live_rows = np.empty(n_rows, dtype=bool)
    live_cols = np.zeros(n_cols, dtype=bool)
    mask = np.empty((min(step, n_rows), n_cols), dtype=bool)
    for a in range(0, n_rows, step):
        b = min(a + step, n_rows)
        live = np.not_equal(wgrid[a:b], 0.0, out=mask[: b - a])
        live &= live_t[a:b, None]
        live &= live_x
        live.any(axis=1, out=live_rows[a:b])
        live_cols |= live.any(axis=0)
    rows = np.flatnonzero(live_rows)
    cols = np.flatnonzero(live_cols)
    if rows.size == 0:
        rows = cols = slice(0, 0)
    else:
        rows = slice(rows[0], rows[-1] + 1)
        cols = slice(cols[0], cols[-1] + 1)
    n_box = cols.stop - cols.start
    step = block_rows(n_box)

    def fold_rows(a, b, out):
        np.multiply(wgrid[a:b, cols], tw[a:b, None], out=out)
        out *= xw[None, cols]

    if not time_constant:
        grid = empty((rows.stop - rows.start, n_box))
        for a in range(rows.start, rows.stop, step):
            b = min(a + step, rows.stop)
            fold_rows(a, b, grid[a - rows.start : b - rows.start])
    else:
        grid = empty((n_box,))
        # the first row of every block after the first carries the sum so far
        block = np.empty((min(step, rows.stop - rows.start) + 1, n_box))
        carry = 0
        for a in range(rows.start, rows.stop, step):
            b = min(a + step, rows.stop)
            fold_rows(a, b, block[carry : carry + b - a])
            np.add.reduce(block[: carry + b - a], axis=0, out=grid)
            block[0] = grid
            carry = 1
    grid.flags.writeable = False
    return rows, cols, grid


def spacetime_weighted_integral(
    traj,
    weights: CarlemanWeights,
    s: float,
    k: float,
    integrand: str,
    interval: Optional[tuple] = None,
) -> float:
    """Tensor trapezoid of exp(2*s*phi)*sigma**k times a quadratic field over
    [0, T] x ``interval`` (None: [0, 1]).

    ``integrand`` selects the field: ``v_sq`` squares the nodal values,
    ``a_vx_sq`` squares the face gradients against the coefficient.
    Endpoint rows contribute nothing because the weight vanishes at
    t in {0, T}.
    """
    grid = _abscissae(traj.mesh, traj.T, traj.values.shape[0] - 1, weights)
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
