"""Reference definitions the tests compare the package against.

Each is the plain pointwise or one-sample form of something the package
computes on grids or in batches.  No run of the lab needs them, so they
live beside the tests that use them.
"""

import numpy as np

from carleman_lab.carleman import WTransform
from carleman_lab.control import _DualOperator
from carleman_lab.pde_solver import (
    ProblemSpec,
    _adjoint_march,
    _Stepper,
    trapezoid_time_weights,
)
from carleman_lab.weights import CarlemanWeights, PsiFunction, time_factor


# -- pointwise weight components (reference for weights.CarlemanWeights) ----------
def theta_time(w: CarlemanWeights, t) -> np.ndarray:
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t <= 0.0) or np.any(t >= w.T):
        raise ValueError("singular endpoint: theta_time needs t in (0, T)")
    return time_factor(t, w.T)[0]


def sigma(w: CarlemanWeights, t, x) -> np.ndarray:
    return theta_time(w, t) * w.eta(x)


def phi(w: CarlemanWeights, t, x) -> np.ndarray:
    return theta_time(w, t) * (w.eta(x) - w.c3)


# -- the profile's zero crossing (reference for weights.PsiFunction) --------------
def sign_change_location(psi: PsiFunction, n: int = 20001) -> float:
    """Abscissa where the profile turns negative (the right window edge,
    up to bridge wiggle)."""
    xs = np.linspace(psi.alpha_prime, 1.0, n)
    vals = psi.value(xs)
    neg = np.nonzero(vals < 0.0)[0]
    if neg.size == 0:
        return 1.0
    i = neg[0]
    if i == 0:
        return float(xs[0])
    x0, x1 = xs[i - 1], xs[i]
    v0, v1 = vals[i - 1], vals[i]
    return float(x0 - v0 * (x1 - x0) / (v1 - v0))


# -- one sine series (reference for sampling.sample_fields) -----------------------
def sine_series(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    n = np.arange(1, coeffs.size + 1, dtype=float)
    return np.sin(np.pi * np.outer(x, n)) @ coeffs


# -- one boundary term (reference for carleman.boundary_sign_terms) ---------------
def boundary_sign_term(wt: WTransform, weights: CarlemanWeights, s: float) -> tuple[float, float]:
    """(term, scale) at s and the lambda of ``weights``: the discrete boundary flux term
    -s * int (a^2 phi_x w_x^2) |_{x=0}^{x=1} dt from the whole conjugated
    field, and the sum of the magnitudes of its two ends.

    One-sided gradients approximate w_x at the endpoints; the profile slope is
    negative at x = 1 and the degenerate factor kills the x = 0 trace, so the
    term is nonnegative up to discretization noise.
    """
    if abs(wt.T - weights.T) > 1e-12 * max(1.0, weights.T):
        raise ValueError("trajectory and weights disagree on the horizon")
    lam = weights.lam
    xs = wt.mesh.nodes
    M = wt.w.shape[0] - 1
    ts = np.linspace(0.0, wt.T, M + 1)
    tw = trapezoid_time_weights(wt.T, M)
    h = wt.mesh.spacings
    wx0 = (wt.w[:, 1] - wt.w[:, 0]) / h[0]
    wx1 = (wt.w[:, -1] - wt.w[:, -2]) / h[-1]
    comp = weights.space_composites(np.array([xs[0], xs[-1]]))
    a, c1, eta = comp["a"], comp["c1"], comp["eta"]
    th = np.zeros(M + 1)
    inner = (ts > 0.0) & (ts < wt.T)
    g = ts[inner] * (weights.T - ts[inner])
    th[inner] = g**-4
    at1 = th * lam * eta[1] * a[1] * c1[1] * wx1 * wx1
    at0 = th * lam * eta[0] * a[0] * c1[0] * wx0 * wx0
    term = -s * float(np.dot(tw, at1 - at0))
    scale = s * float(np.dot(tw, np.abs(at1) + np.abs(at0)))
    return term, scale


# -- the penalized dual functional (reference for control.synthesize_null_control)
def dual_functional(
    spec: ProblemSpec, u0: np.ndarray, epsilon: float, v_T: np.ndarray
) -> float:
    """Value of the penalized dual functional at terminal adjoint data v_T."""
    st = _Stepper(spec)
    op = st.op
    v_unknown = op.restrict(v_T)
    pairing = np.empty((st.tau.size,) + v_unknown.shape)
    rows = _adjoint_march(spec, op.embed(v_unknown), stepper=st, pairing_out=pairing)
    v0 = op.restrict(rows[0])
    ctrl = np.where(st.omega, pairing, 0.0)
    cost = float(sum(tau * np.dot(op.weights * r, r) for tau, r in zip(st.tau, ctrl)))
    u0_unknown = op.restrict(u0)
    return (
        0.5 * cost
        + 0.5 * epsilon * op.inner(v_unknown, v_unknown)
        + op.inner(u0_unknown, v0)
    )


def dual_gradient(
    spec: ProblemSpec, u0: np.ndarray, epsilon: float, v_T: np.ndarray
) -> np.ndarray:
    """Gradient of the dual functional in the mesh-weighted inner product."""
    dual = _DualOperator(spec, epsilon)
    op = dual.op
    v_unknown = op.restrict(v_T)
    grad = dual.gram_apply(v_unknown) + dual.forward_terminal(op.restrict(u0), None)
    return op.embed(grad)
