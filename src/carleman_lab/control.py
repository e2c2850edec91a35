"""Approximate null-control synthesis by penalized dual minimization.

The dual functional over terminal adjoint data is quadratic and coercive:
half the control energy of the restricted adjoint, plus a penalty on the
terminal data, plus the pairing with the initial state.  Its gradient is one
backward solve followed by one forward solve, exact to rounding because the
backward march is the transpose of the forward one, so conjugate gradients
minimizes it without ever forming a matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .pde_solver import (DEGENERATE_DENOMINATOR, ProblemSpec, _adjoint_march, _require_shape,
                         _Stepper)

__all__ = [
    "ControlResult",
    "synthesize_null_control",
]

MIN_PENALTY = 1e-14


@dataclass
class ControlResult:
    sample_times: np.ndarray  # (J,) substep sample times
    values: np.ndarray  # (J, N+1) nodal control per substep, zero outside omega
    terminal_norm: float
    control_cost: float
    cg_iterations: int
    converged: bool
    v_T: np.ndarray  # optimal terminal adjoint data (full nodal vector)


class _DualOperator:
    """Matrix-free application of the control Gram operator plus penalty.

    One :meth:`gram_apply`, the work of one CG iteration, is two bare
    marches of one factored engine: the transposed march writes the pairing
    profile of every substep into a ``(J, n)`` block this operator keeps,
    the block is cut to the control region in place, and the forward march
    from rest takes the whole block as its forcing, which the engine
    weights by tau*W before the march, into a scratch block of its own.  So
    an iteration allocates no block of the schedule's size; the returned
    vector is always fresh.
    """

    def __init__(self, spec: ProblemSpec, epsilon: float):
        self.spec = spec
        self.epsilon = epsilon
        self.stepper = st = _Stepper(spec)
        self.op = st.op
        self._outside = ~st.omega
        self._pairing = np.empty((st.tau.size, self.op.n_unknowns))

    def control(self, v_unknown: np.ndarray) -> np.ndarray:
        """The control of terminal adjoint data: the per-substep pairing
        profiles, marched into the block this operator keeps and set to +0.0
        off the control-region nodes in place."""
        _adjoint_march(
            self.spec, self.op.embed(v_unknown), stepper=self.stepper, levels=range(0),
            pairing_out=self._pairing,
        )
        np.copyto(self._pairing, 0.0, where=self._outside)
        return self._pairing

    def forward_terminal(self, u0_unknown: np.ndarray, ctrl: Optional[np.ndarray]):
        # march with the (J, n) block of per-substep controls on the unknown nodes
        return self.stepper.forward(u0_unknown, ctrl)

    def gram_apply(self, v_unknown: np.ndarray) -> np.ndarray:
        lam_v = self.forward_terminal(np.zeros_like(v_unknown), self.control(v_unknown))
        return lam_v + self.epsilon * v_unknown


def _cg(apply_A, b, inner, atol: float, max_iter: int):
    """Conjugate gradients in the supplied inner product, stopped once the
    residual norm is at most ``atol``."""
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = inner(r, r)
    for it in range(1, max_iter + 1):
        Ap = apply_A(p)
        denom = inner(p, Ap)
        if denom <= 0.0:
            return x, it, False
        alpha = rs / denom
        x = x + alpha * p
        r = r - alpha * Ap
        rs_new = inner(r, r)
        if np.sqrt(rs_new) <= atol:
            return x, it, True
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x, max_iter, False


def synthesize_null_control(
    spec: ProblemSpec,
    u0: np.ndarray,
    epsilon: float,
    cg_tol: float = 1e-8,
    cg_max_iter: int = 500,
) -> ControlResult:
    """Minimize the penalized dual functional and return the closed-loop result.

    Each conjugate-gradient iteration costs one backward and one forward
    solve.  It stops at a residual of ``cg_tol`` times the smaller W-norm of
    the free terminal state and of the initial state, so a problem that
    grows cannot loosen the tolerance.  The control is the restriction of
    the optimal adjoint profile to the control-region nodes; the returned
    terminal norm comes from an explicit forward verification solve.  An
    initial or free terminal state whose energy is below
    ``DEGENERATE_DENOMINATOR`` is refused.
    """
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if epsilon < MIN_PENALTY:
        raise ValueError(
            f"penalty underflow: epsilon={epsilon} is below {MIN_PENALTY}"
        )
    dual = _DualOperator(spec, epsilon)
    op = dual.op
    row = spec.mesh.nodes.shape
    _require_shape("the initial data u0", u0, (row,), f"one nodal row {row}")
    u0_unknown = op.restrict(u0)
    if not np.all(np.isfinite(u0_unknown)):
        raise ValueError("initial data must be finite")
    rhs = -dual.forward_terminal(u0_unknown, None)  # minus the free terminal state
    for what, state in (("initial", u0_unknown), ("free terminal", rhs)):
        if op.inner(state, state) < DEGENERATE_DENOMINATOR:
            raise ValueError(f"the {what} state's energy is below {DEGENERATE_DENOMINATOR:g} "
                             f"at T={spec.T:g}, time_steps={spec.time_steps}")
    atol = cg_tol * min(np.sqrt(op.inner(rhs, rhs)), op.norm(u0_unknown))
    v_hat, iters, converged = _cg(dual.gram_apply, rhs, op.inner, atol, cg_max_iter)

    ctrl = dual.control(v_hat)
    u_T = dual.forward_terminal(u0_unknown, ctrl)
    W = op.weights
    return ControlResult(
        sample_times=dual.stepper.t_sample,
        values=op.embed(ctrl),
        terminal_norm=op.norm(u_T),
        control_cost=float(sum(
            tau * np.dot(W * row, row) for tau, row in zip(dual.stepper.tau, ctrl)
        )),
        cg_iterations=iters,
        converged=converged,
        v_T=op.embed(v_hat),
    )
