"""Both sides of the weighted observability-type inequality, parameter sweeps
for the empirical constant, and the exactly checkable facts behind it: the
product-expansion identity of the conjugated operators and the sign of the
boundary flux term.

The conjugation replaces a backward solution v by w = exp(s*phi)*v, which
vanishes at both time endpoints; the second-order operator splits into a
symmetric part ``L+`` and a skew-ish part ``L-`` whose cross inner product
expands into seven exactly computable integrals.

Every kernel takes a trajectory, the weights and s; lambda lives in the
weights (inside eta and c3), so it cannot disagree with them.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .pde_solver import (DEGENERATE_DENOMINATOR, ProblemSpec, Trajectory, WeightedNorms,
                         _adjoint_march, _clipped_node_quadrature, _Stepper,
                         trapezoid_time_weights)
from .sampling import (
    STREAM_SOURCE,
    STREAM_TERMINAL,
    sample_fields,
)
from .weights import (CarlemanWeights, PsiFunction, _abscissae, _check_s, _integrals,
                      _WeightedQuadrature, default_omega_prime, time_factor)

__all__ = [
    "CarlemanReport",
    "WTransform",
    "SpaceTimeField",
    "SweepResult",
    "ObservabilityReport",
    "carleman_sides",
    "carleman_sweep",
    "stable_s0",
    "transform_to_w",
    "identity_residual",
    "boundary_sign_terms",
    "observability_ratio",
    "standard_identity_fields",
]


@dataclass(frozen=True)
class CarlemanReport:
    """Per-(s, lambda) decomposition of the two sides of the inequality."""

    lhs_grad: float
    lhs_zero: float
    rhs_source: float
    rhs_local: float
    ratio: float
    degenerate: bool = False


def _power(base: float, exponent: float, name: str, at: str) -> float:
    """``base**exponent``, or a ValueError naming the power ``name**exponent``
    and ``at``, the parameter values it overflows double precision at."""
    try:
        value = base**exponent
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise ValueError(f"{name}**{exponent:g} overflows double precision at {at}")
    return value


def carleman_sides(
    traj: Trajectory,
    source: Optional[np.ndarray],
    omega: tuple,
    weights: CarlemanWeights,
    s: float,
    zero_order_exponent: float = 5.0 / 3.0,
) -> CarlemanReport:
    """The four weighted integrals of a backward solution v and its source f.

    ``traj`` is v, one trajectory ``(M+1, N+1)`` marched by the caller, and
    ``source`` is f, constant in time: one nodal row ``(N+1,)``, or None for
    no source.  The left side carries (s*lam)*sigma on the gradient and
    (s*lam)**q * sigma**q (q = 5/3 by default) on the zero-order term; the
    right side carries the plain weighted source plus (s*lam)**3 * sigma**3
    localized on the control region ``omega``.
    """
    grid = (_abscissae(traj, weights), weights, s)
    if source is not None and np.shape(source) != traj.values.shape[1:]:
        raise ValueError(
            f"the source must be one nodal row {traj.values.shape[1:]}, constant in time; "
            f"got shape {np.shape(source)}"
        )
    at = f"s={s:g}, lambda={weights.lam:g}"
    sl = s * weights.lam
    q = zero_order_exponent
    grad = _WeightedQuadrature(*grid, 1.0, "a_vx_sq")
    zero = _WeightedQuadrature(*grid, q, "v_sq")
    local = _WeightedQuadrature(*grid, 3.0, "v_sq", omega)
    grad_sum, zero_sum, local_sum = _integrals(traj.values, (grad, zero, local))
    lhs_grad = sl * grad_sum
    lhs_zero = _power(sl, q, "(s*lambda)", at) * zero_sum
    # the column sums of the source's folded grid against its one row
    rhs_source = 0.0 if source is None else _WeightedQuadrature(
        *grid, 0.0, "v_sq", time_constant=True
    ).integral(np.asarray(source, dtype=float)[None])
    rhs_local = _power(sl, 3, "(s*lambda)", at) * local_sum
    denom = rhs_source + rhs_local
    degenerate = denom < DEGENERATE_DENOMINATOR
    return CarlemanReport(
        lhs_grad, lhs_zero, rhs_source, rhs_local,
        float("nan") if degenerate else (lhs_grad + lhs_zero) / denom,
        degenerate=degenerate,
    )


def stable_s0(weights: CarlemanWeights) -> float:
    """Deterministic default threshold of the stable parameter region.

    Balances two requirements of the discrete sweep: the weighted local term
    must dominate the plain source term (activation: s*lam*theta_mid*eta_max
    a few times unity, placing the grid past the ratio's crossover peak),
    while the weight exponent at the profile hump must stay representable in
    double precision across four s-doublings.  Both are controlled by
    s0 = 4 * theta(T/2)^{-1} / (lam * eta_max), for which the top-of-sweep
    exponent is 128*(exp(lam*sup)-1)/lam, bounded for every admissible
    configuration.
    """
    T, lam = weights.T, weights.lam
    try:
        theta_mid = (T * T / 4.0) ** -4
    except (ZeroDivisionError, OverflowError):
        theta_mid = math.inf
    if not 0.0 < theta_mid < math.inf:
        raise ValueError(
            f"theta(T/2) = (T*T/4)**-4 is not representable in double precision at T={T:g}"
        )
    # exp(2*lam*sup psi) < c3, which the weights hold as a finite double
    eta_max = math.exp(2.0 * lam * weights.psi_sup)
    activation = theta_mid * lam * eta_max
    s0 = 4.0 / activation if activation > 0.0 else math.inf
    if not math.isfinite(s0):
        raise ValueError(
            f"s0 = 4/(theta(T/2)*lambda*exp(2*lambda*sup psi)) overflows double "
            f"precision at T={T:g}, lambda={lam:g}"
        )
    return max(1.0, s0)


@dataclass
class SweepResult:
    # one entry per (s, lambda, sample), samples innermost: the sample index,
    # s, lambda, the four sides of carleman_sides and the ratio
    table: dict
    # one entry per (s, lambda) point: s, lambda, s0, the max and median of
    # its valid ratios, and n_valid, n_degenerate and n_nonfinite
    points: dict
    summary: dict


# the columns of carleman_sides' report that the sweep table keeps
_SIDES = ("lhs_grad", "lhs_zero", "rhs_source", "rhs_local", "ratio")


def carleman_sweep(
    spec: ProblemSpec,
    n_samples: int,
    s_grid: Sequence[float],
    lambda_grid: Sequence[float],
    seed: int,
    omega_prime: Optional[tuple] = None,
    s_relative: bool = False,
    zero_order_exponent: float = 5.0 / 3.0,
    bridge_degree: int = 5,
) -> SweepResult:
    """Cross product of seeded samples, s values and lambda values.

    With ``s_relative`` the entries of ``s_grid`` multiply the per-lambda
    stable threshold.  Backward solves are shared across (s, lambda) because
    the trajectories do not depend on the weight parameters; all samples are
    marched together in one batched backward solve, each with its sampled
    source, one nodal row constant in time.  The profile psi does
    not depend on lambda, so one is built for the whole sweep.  Conversely
    the weight grids do not depend on the sample, so each (s, lambda) point
    builds its four grids once and shares them across the samples'
    ``carleman_sides`` calls.  Degenerate samples and non-finite ratios are
    excluded from the per-point statistics; ``empirical_C`` is NaN when
    every sample at every point is excluded.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if len(s_grid) == 0 or len(lambda_grid) == 0:
        raise ValueError("parameter grids must be nonempty")
    if omega_prime is None:
        omega_prime = default_omega_prime(spec.omega)

    nodes = spec.mesh.nodes
    vt_fields = sample_fields(seed, STREAM_TERMINAL, n_samples, nodes)
    f_fields = sample_fields(seed, STREAM_SOURCE, n_samples, nodes)

    v_rows = _adjoint_march(spec, vt_fields, f_fields)
    trajectories = [Trajectory(r, spec.mesh, spec.T) for r in v_rows]

    n_points = len(lambda_grid) * len(s_grid)
    point = np.empty((3, n_points))  # s, lambda and s0 of each point
    sides = np.empty((len(_SIDES), n_points, n_samples))
    degenerate = np.empty((n_points, n_samples), dtype=bool)
    psi = PsiFunction(spec.coef, omega_prime[0], omega_prime[1], bridge_degree)
    for m, lam in enumerate(lambda_grid):
        wts = CarlemanWeights(psi, lam, spec.T)
        s0 = stable_s0(wts)
        for j, s_entry in enumerate(s_grid):
            s = s_entry * s0 if s_relative else s_entry
            if not math.isfinite(s):
                raise ValueError(
                    f"s = s_grid entry {s_entry:g} * s0 {s0:g} overflows double precision "
                    f"at lambda={lam:g}"
                )
            p = m * len(s_grid) + j
            point[:, p] = s, lam, s0
            with wts.shared_grids():
                for i, (traj, f) in enumerate(zip(trajectories, f_fields)):
                    rep = carleman_sides(traj, f, spec.omega, wts, s, zero_order_exponent)
                    sides[:, p, i] = (
                        rep.lhs_grad, rep.lhs_zero, rep.rhs_source, rep.rhs_local, rep.ratio
                    )
                    degenerate[p, i] = rep.degenerate

    ratio = sides[-1]
    valid = np.isfinite(ratio)  # a degenerate sample's ratio is NaN
    n_valid = np.count_nonzero(valid, axis=1)
    # each point's valid ratios first and in order, for the max and for
    # np.median's value without its import of numpy.ma
    ordered = np.sort(np.where(valid, ratio, np.inf), axis=1)
    at, k = np.arange(n_points), n_valid // 2
    middle = np.where(n_valid % 2, ordered[at, k], (ordered[at, k - 1] + ordered[at, k]) / 2)
    none = n_valid == 0
    n_degenerate = np.count_nonzero(degenerate, axis=1)
    table = {
        "sample": np.tile(np.arange(n_samples), n_points),
        "s": np.repeat(point[0], n_samples),
        "lambda": np.repeat(point[1], n_samples),
        **dict(zip(_SIDES, sides.reshape(len(_SIDES), -1))),
    }
    points = {
        "s": point[0],
        "lambda": point[1],
        "s0": point[2],
        "max_ratio": np.where(none, np.nan, ordered[at, n_valid - 1]),
        "median_ratio": np.where(none, np.nan, middle),
        "n_valid": n_valid,
        "n_degenerate": n_degenerate,
        "n_nonfinite": n_samples - n_valid - n_degenerate,
    }

    config = {
        "T": spec.T,
        "N": spec.mesh.n_cells,
        "M": spec.time_steps,
        "omega": list(spec.omega),
        "omega_prime": list(omega_prime),
        "coefficient": spec.coef.descriptor,
        "s_grid": list(map(float, s_grid)),
        "s_relative": s_relative,
        "lambda_grid": list(map(float, lambda_grid)),
        "n_samples": n_samples,
        "seed": seed,
        "zero_order_exponent": zero_order_exponent,
        "bridge_degree": bridge_degree,
    }
    digest = hashlib.sha256(
        json.dumps(config, sort_keys=True).encode("utf-8")
    ).hexdigest()
    summary = {
        "empirical_C": float(ratio[valid].max()) if valid.any() else float("nan"),
        "excluded_count": int(np.count_nonzero(~valid)),
        "config_sha256": digest,
        "config": config,
    }
    return SweepResult(table, points, summary)


# --------------------------------------------------------------------------------
# conjugated-operator checks


@dataclass(frozen=True)
class SpaceTimeField:
    """Smooth separable field q(t)*g(x) with analytic derivatives, used to
    manufacture test functions for the exact identity."""

    name: str
    w: Callable
    w_t: Callable
    w_x: Callable
    w_xx: Callable
    dirichlet_at_zero: bool


def _time_envelope(T: float):
    """[t(T-t)]^7 normalized to peak 1.

    The seventh power beats the cube of the time blow-up factor with two
    orders to spare, so every integrand in the identity is twice continuously
    differentiable up to the endpoints and the trapezoid rule keeps its
    second-order accuracy."""
    try:
        peak = (T * T / 4.0) ** 7
    except OverflowError:
        raise ValueError(
            f"the time envelope's peak (T*T/4)**7 overflows double precision at T={T:g}"
        ) from None

    def q(t):
        g = t * (T - t)
        return g**7 / peak

    def qp(t):
        g = t * (T - t)
        return 7.0 * g**6 * (T - 2.0 * t) / peak

    return q, qp


def standard_identity_fields(T: float, dirichlet_at_zero: bool) -> list[SpaceTimeField]:
    """Three manufactured fields per boundary family.

    The value-pinned family vanishes at both space endpoints; the flux family
    is free at x = 0 (the degenerate coefficient kills the flux there) and
    vanishes at x = 1.
    """
    q, qp = _time_envelope(T)
    pi = np.pi
    if dirichlet_at_zero:
        gs = [
            ("sin_pi", lambda x: np.sin(pi * x), lambda x: pi * np.cos(pi * x),
             lambda x: -pi * pi * np.sin(pi * x)),
            ("bump", lambda x: x * (1.0 - x), lambda x: 1.0 - 2.0 * x,
             lambda x: -2.0 * np.ones_like(x)),
            ("two_mode",
             lambda x: np.sin(pi * x) + 0.5 * np.sin(3 * pi * x),
             lambda x: pi * np.cos(pi * x) + 1.5 * pi * np.cos(3 * pi * x),
             lambda x: -pi * pi * np.sin(pi * x) - 4.5 * pi * pi * np.sin(3 * pi * x)),
        ]
    else:
        gs = [
            ("cos_half", lambda x: np.cos(0.5 * pi * x),
             lambda x: -0.5 * pi * np.sin(0.5 * pi * x),
             lambda x: -0.25 * pi * pi * np.cos(0.5 * pi * x)),
            ("sq_decay", lambda x: (1.0 - x) ** 2,
             lambda x: -2.0 * (1.0 - x),
             lambda x: 2.0 * np.ones_like(x)),
            ("two_mode_flux",
             lambda x: np.cos(0.5 * pi * x) + 0.5 * np.cos(1.5 * pi * x),
             lambda x: -0.5 * pi * np.sin(0.5 * pi * x) - 0.75 * pi * np.sin(1.5 * pi * x),
             lambda x: -0.25 * pi * pi * np.cos(0.5 * pi * x) - 1.125 * pi * pi * np.cos(1.5 * pi * x)),
        ]
    fields = []
    for name, g, gx, gxx in gs:
        fields.append(
            SpaceTimeField(
                name=name,
                w=lambda t, x, g=g: q(t) * g(x),
                w_t=lambda t, x, g=g: qp(t) * g(x),
                w_x=lambda t, x, gx=gx: q(t) * gx(x),
                w_xx=lambda t, x, gxx=gxx: q(t) * gxx(x),
                dirichlet_at_zero=dirichlet_at_zero,
            )
        )
    return fields


def _mapped_simpson(x_lo: float, x_hi: float, n: int, power: float = 1.0):
    """Composite Simpson weights for x = x_lo + (x_hi - x_lo) * u**power on a
    uniform u-grid of n cells, n even; the optional cubic map grades nodes
    toward x_lo."""
    u = np.arange(n + 1) / n
    span = x_hi - x_lo
    nodes = x_lo + span * u**power
    dxdu = span * power * u ** (power - 1.0) if power != 1.0 else np.full(u.size, span)
    S = np.ones(n + 1)
    S[1:-1:2] = 4.0
    S[2:-1:2] = 2.0
    return nodes, S * dxdu / (3.0 * n)


def _sections(resolution: int) -> tuple:
    """Even cell counts of the left, bridge and right sections of the identity x-grid."""
    n_side = max(resolution // 5, 8)
    return tuple(n + n % 2 for n in (n_side, max(resolution - 2 * n_side, 8), n_side))


def _grid_entries(resolution: int) -> int:
    """Entries of one full grid of :func:`_grids`: the time levels times the
    abscissae, n + 1 per section of n cells."""
    return (resolution + 1) * (sum(_sections(resolution)) + 3)


def _grids(weights: CarlemanWeights, resolution: int):
    """Quadrature grids for the identity check.

    The x-grid is composite: cubically graded toward the degenerate endpoint
    (resolving the root-type curvature of the exponential space factor),
    fine across the bridge (where the joined profile has its largest
    curvature), uniform beyond it; each section carries mapped composite
    Simpson weights.  The join abscissae appear once per adjacent segment,
    nudged onto the segment's side, because the third profile derivative
    jumps there and each section must integrate its own one-sided values.
    """
    ap, bp = weights.psi.alpha_prime, weights.psi.beta_prime
    n_left, n_mid, n_right = _sections(resolution)
    nudge = 1e-12
    left, wl = _mapped_simpson(0.0, ap, n_left, power=3.0)
    mid, wm = _mapped_simpson(ap * (1.0 + nudge), bp * (1.0 - nudge), n_mid)
    right, wr = _mapped_simpson(bp, 1.0, n_right)
    xs = np.concatenate([left, mid, right])
    xw = np.concatenate([wl, wm, wr])
    ts = np.linspace(0.0, weights.T, resolution + 1)
    return ts, xs, trapezoid_time_weights(weights.T, resolution), xw


def _tx(trow, xrow):
    return trow[:, None] * xrow[None, :]


# The conjugated operator parts of both checks: identity_residual feeds them
# exact derivatives, transform_to_w centered differences.  th and th1 are the
# rows of theta and theta', comp and em = eta - exp(3*lam*sup psi) the
# columns of the space composites of ``weights``, whose lambda they read.


def _l_plus(w, a_wx_x, th, th1, em, comp, weights: CarlemanWeights, s: float):
    """L+ w = -s*phi_t*w + s^2*a*phi_x^2*w + (a*w_x)_x."""
    lam = weights.lam
    eta = comp["eta"]
    return (
        -s * _tx(th1, em) * w
        + s * s * _tx(th * th, lam * lam * eta * eta * comp["c2"]) * w
        + a_wx_x
    )


def _l_minus(w, w_t, w_x, th, comp, weights: CarlemanWeights, s: float):
    """(L- w, (a*phi_x)_x) with L- w = w_t - s*(a*phi_x)_x*w - 2*s*a*phi_x*w_x."""
    lam = weights.lam
    eta = comp["eta"]
    a_phi_x_x = _tx(th, lam * eta * (lam * comp["c2"] + comp["c1p"]))
    l_minus = w_t - s * a_phi_x_x * w - 2.0 * s * _tx(th, lam * eta * comp["c1"]) * w_x
    return l_minus, a_phi_x_x


def identity_residual(
    field: SpaceTimeField,
    weights: CarlemanWeights,
    s: float,
    resolution: int = 256,
) -> float:
    """Relative quadrature residual of the exact cross-term expansion.

    The inner product of the conjugated operator parts is integrated directly
    and compared with its seven-term expansion; every weight derivative is
    analytic, so the residual isolates pure quadrature error and must shrink
    under refinement.
    """
    if weights.coef.eval_deriv2 is None:
        raise ValueError(
            "the identity check needs a coefficient with an analytic second "
            "derivative; tabulated coefficients are not smooth enough"
        )
    if resolution < 2:
        raise ValueError(
            f"the identity check needs resolution >= 2 (an interior time level), got {resolution}"
        )
    _check_s(s)
    lam = weights.lam
    at = f"s={s:g}, lambda={lam:g}"
    s3 = _power(s, 3, "s", at)
    lam3 = _power(lam, 3, "lambda", at)
    T = weights.T
    ts, xs, tw, xw = _grids(weights, resolution)
    # endpoint rows: the field's seventh-power envelope beats every blow-up, so
    # all weighted rows vanish in the limit, where theta is zero
    th, th1, th2 = time_factor(ts, T)
    # the largest factors: theta**3, which only T sets, eta**3, and
    # (s*lam*theta*eta)**3 in the s**3 term, where eta peaks at
    # exp(2*lam*sup psi) < c3
    th_sup = float(th.max())
    _power(th_sup, 3, "theta", f"T={T:g}")
    eta_sup = math.exp(2.0 * lam * weights.psi_sup)
    _power(eta_sup, 3, "eta", at)
    _power(s * lam * th_sup * eta_sup, 3, "(s*lambda*theta*eta)", at)

    wv = np.asarray(field.w(ts[:, None], xs[None, :]), dtype=float)
    scale = float(np.max(np.abs(wv))) + 1e-300
    if field.dirichlet_at_zero:
        if np.max(np.abs(wv[:, 0])) > 1e-9 * scale:
            raise ValueError("field violates the value condition at x = 0")
    if np.max(np.abs(wv[:, -1])) > 1e-9 * scale:
        raise ValueError("field violates the value condition at x = 1")
    if max(np.max(np.abs(wv[0])), np.max(np.abs(wv[-1]))) > 1e-9 * scale:
        raise ValueError("field must vanish at both time endpoints")

    wt = np.asarray(field.w_t(ts[:, None], xs[None, :]), dtype=float)
    wx = np.asarray(field.w_x(ts[:, None], xs[None, :]), dtype=float)
    wxx = np.asarray(field.w_xx(ts[:, None], xs[None, :]), dtype=float)

    comp = weights.space_composites(xs)
    eta, a, ap = comp["eta"], comp["a"], comp["ap"]
    c1, c1p, c1pp = comp["c1"], comp["c1p"], comp["c1pp"]
    c2, c3x, c4, c5 = comp["c2"], comp["c3x"], comp["c4"], comp["c5"]
    em = eta - weights.c3

    def integrate(f):
        return float(np.einsum("m,mi,i->", tw, f, xw))

    # full grids are dropped once consumed, which bounds the peak
    a_wx_x = ap[None, :] * wx + a[None, :] * wxx
    del wxx
    l_plus = _l_plus(wv, a_wx_x, th, th1, em, comp, weights, s)
    del a_wx_x
    l_minus, a_phi_x_x = _l_minus(wv, wt, wx, th, comp, weights, s)
    del wt
    lhs = integrate(l_plus * l_minus)
    del l_plus, l_minus

    t1 = 0.5 * s * integrate(_tx(th2, em) * wv * wv)
    t2 = -2.0 * s * s * integrate(_tx(th1 * th, lam * lam * eta * eta * c2) * wv * wv)
    t3 = s3 * integrate(
        _tx(th**3, lam3 * eta**3 * (2.0 * lam * c2 * c2 + c5)) * wv * wv
    )
    a_phi_x_xx_a = _tx(
        th, lam * eta * (lam * c1 * (lam * c2 + c1p) + lam * c3x + a * c1pp)
    )
    t4 = s * integrate(a_phi_x_xx_a * wv * wx)
    t5 = 2.0 * s * integrate(a_phi_x_x * a[None, :] * wx * wx)
    t6 = -s * integrate(_tx(th, lam * eta * c4) * wx * wx)
    # boundary flux term: a^2 phi_x wx^2 evaluated at the two space endpoints
    bndry = th * lam * (
        eta[-1] * a[-1] * c1[-1] * wx[:, -1] ** 2
        - eta[0] * a[0] * c1[0] * wx[:, 0] ** 2
    )
    t7 = -s * float(np.dot(tw, bndry))

    total = t1 + t2 + t3 + t4 + t5 + t6 + t7
    denom = sum(abs(v) for v in (t1, t2, t3, t4, t5, t6, t7)) + 1.0
    return abs(lhs - total) / denom


@dataclass
class WTransform:
    """Conjugated field w = exp(s*phi)*v with discrete operator parts."""

    w: np.ndarray  # (M+1, N+1)
    l_plus: np.ndarray  # (M-1, N-1) interior evaluations
    l_minus: np.ndarray
    mesh: object
    T: float


def transform_to_w(v_traj: Trajectory, weights: CarlemanWeights, s: float) -> WTransform:
    """Conjugate one backward trajectory ``(M+1, N+1)`` and evaluate the split
    operators on the interior grid (centered differences in both variables)."""
    ts = _abscissae(v_traj, weights).ts
    mesh = v_traj.mesh
    xs = mesh.nodes
    w = weights.exp_s_phi_grid(ts, xs, s) * v_traj.values

    inner = slice(1, -1)
    comp = {name: v[inner] for name, v in weights.space_composites(xs).items()}
    em = comp["eta"] - weights.c3
    th, th1, _ = (r[inner] for r in time_factor(ts, weights.T))
    k = ts[1] - ts[0]

    wt = (w[2:, inner] - w[:-2, inner]) / (2.0 * k)
    wx = (w[inner, 2:] - w[inner, :-2]) / (xs[2:] - xs[:-2])[None, :]
    a_wx_x = WeightedNorms(mesh, weights.coef).flux_laplacian(w)[inner, inner]
    l_plus = _l_plus(w[inner, inner], a_wx_x, th, th1, em, comp, weights, s)
    del a_wx_x
    l_minus, _ = _l_minus(w[inner, inner], wt, wx, th, comp, weights, s)
    return WTransform(w, l_plus, l_minus, mesh, v_traj.T)


# the columns of w that the boundary term reads
_EDGE_COLUMNS = [0, 1, -2, -1]


def boundary_sign_terms(
    traj: Trajectory, weights: CarlemanWeights, s: float
) -> tuple[np.ndarray, np.ndarray]:
    """``(term, scale)``, one entry per backward trajectory v of the
    ``(S, M+1, N+1)`` stack ``traj`` that ``solve_adjoint`` marches: the boundary flux term
    -s * int (a^2 phi_x w_x^2) |_{x=0}^{x=1} dt of w = exp(s*phi)*v from
    one-sided gradients at the ends, with the bits of the term of the whole
    conjugated field ``transform_to_w(v).w``, and the sum of the magnitudes
    of its two ends that a tolerance on its sign scales with.  The profile
    slope is negative at x = 1 and the degenerate factor kills the x = 0
    trace, so the term is nonnegative up to discretization noise.

    exp(s*phi) does not depend on the sample, so it is built once, and of
    each w only the four edge columns the term reads are formed.
    """
    grid = _abscissae(traj, weights, stack=True)
    mesh, rows, lam = traj.mesh, traj.values, weights.lam
    h = mesh.spacings
    comp = weights.space_composites(np.array([mesh.nodes[0], mesh.nodes[-1]]))
    a, c1, eta = comp["a"], comp["c1"], comp["eta"]
    th = time_factor(grid.ts, weights.T)[0]
    w = weights.exp_s_phi_grid(grid.ts, mesh.nodes, s)[:, _EDGE_COLUMNS] * rows[:, :, _EDGE_COLUMNS]
    wx0 = (w[..., 1] - w[..., 0]) / h[0]
    wx1 = (w[..., 3] - w[..., 2]) / h[-1]
    at1 = th * lam * eta[1] * a[1] * c1[1] * wx1 * wx1
    at0 = th * lam * eta[0] * a[0] * c1[0] * wx0 * wx0
    # one dot per row: a stacked product or einsum rounds differently
    term = -s * np.array([np.dot(grid.tw, d) for d in at1 - at0])
    scale = s * np.array([np.dot(grid.tw, m) for m in np.abs(at1) + np.abs(at0)])
    return term, scale


@dataclass
class ObservabilityReport:
    constant: float
    ratios: np.ndarray  # one per draw, NaN where a draw is excluded
    excluded_count: int
    # |r(v) - r(2v)| / |r(v)| for the first draw v: the ratio has degree 0
    scale_invariance_error: float


def _observability_energies(spec: ProblemSpec, vt_fields: np.ndarray) -> tuple:
    """``(initial, control)``: the initial-time energy and the control-region
    space-time energy of the source-free backward solve from each terminal
    draw in the stack."""
    st = _Stepper(spec)
    rows = _adjoint_march(spec, vt_fields, stepper=st)
    nums = st.op.norms.l2_sq(rows[:, 0])
    xw_omega = _clipped_node_quadrature(spec.mesh.nodes, *spec.omega)
    tw = trapezoid_time_weights(spec.T, spec.time_steps)
    dens = np.array([np.einsum("m,mi,i->", tw, r * r, xw_omega) for r in rows])
    return nums, dens


def observability_ratio(
    spec: ProblemSpec, n_samples: int = 20, seed: int = 0
) -> ObservabilityReport:
    """Empirical observability constant: the largest ratio of the initial-time
    energy to the control-region energy over seeded source-free backward
    solves, all marched as one batch together with twice the first draw,
    whose ratio should equal the first draw's.  A draw either of whose
    energies is below ``DEGENERATE_DENOMINATOR`` is excluded: it keeps its
    index, with ratio NaN."""
    vt_fields = sample_fields(seed, STREAM_TERMINAL, n_samples, spec.mesh.nodes)
    # each row of a stack marches with the bits it would have alone
    nums, dens = _observability_energies(spec, np.vstack([vt_fields, 2.0 * vt_fields[:1]]))
    low_num, low_den = nums < DEGENERATE_DENOMINATOR, dens < DEGENERATE_DENOMINATOR
    # a NaN operand gives NaN without a floating-point warning
    ratios = np.where(low_num, np.nan, nums) / np.where(low_den, np.nan, dens)
    ratios, doubled = ratios[:-1], ratios[-1]
    scale_err = float(abs(ratios[0] - doubled) / max(abs(ratios[0]), 1e-300))
    valid = ratios[~np.isnan(ratios)]
    if not valid.size:
        what = ("initial" if low_num[:-1].all() else
                "control-region" if low_den[:-1].all() else "initial or control-region")
        raise ValueError(
            f"every sample's {what} energy is below {DEGENERATE_DENOMINATOR:g} "
            f"at T={spec.T:g}, time_steps={spec.time_steps}"
        )
    return ObservabilityReport(float(valid.max()), ratios, ratios.size - valid.size, scale_err)
