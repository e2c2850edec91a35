"""Bit identity of the weight layer against its earlier formulas.

Each formula of the weight layer is written once: the time factor in
``weights.time_factor``, the profile's branch dispatch in
``PsiFunction._derivative`` (which also gives the bridge's joint slopes), the
branch composites in ``CarlemanWeights.space_composites`` through one sign
array, the x**t + sigma*x coefficients (the pure power at sigma = 0) through one
set of closures, the conjugated operator parts in
``carleman._l_plus``/``_l_minus`` and the flux Laplacian in
``WeightedNorms.flux_laplacian``.  The grid kernels work in row blocks: the
weight-grid build ``CarlemanWeights._build_grid`` and the fold
``weights._fold`` must keep the bits of their whole-grid bodies, and the
blocked contraction ``weights._integrals`` must stay within rounding of
the whole-grid three-operand einsum.  ``solve_forward`` takes its forcing
as nodal rows or per-substep nodal blocks and must keep the bits of the
gather it replaced, which sampled callables on the unknown nodes.  The
reference functions below are the bodies these replaced, kept verbatim in
arithmetic, and every comparison is ``np.array_equal`` on the bits unless it
says otherwise.
"""

import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from carleman_lab import pde_solver, weights
from carleman_lab.carleman import (
    _grids,
    carleman_sides,
    identity_residual,
    stable_s0,
    standard_identity_fields,
    transform_to_w,
)
from carleman_lab.coefficients import (
    DegeneracyCoefficient,
    classify,
    make_example_coefficient,
    make_power_coefficient,
    make_table_coefficient,
)
from carleman_lab.pde_solver import (
    ProblemSpec,
    Scheme,
    Trajectory,
    WeightedNorms,
    _clipped_cell_lengths,
    _clipped_node_quadrature,
    boundary_regime_for,
    build_mesh,
    solve_adjoint,
    solve_forward,
    substep_times,
    trapezoid_time_weights,
)
from carleman_lab.sampling import STREAM_TERMINAL, sample_fields
from carleman_lab.weights import (
    A_ONE_VANISHES,
    UNDERFLOW_EXPONENT,
    PsiFunction,
    _cumulative_from,
    _hermite_bridge,
    block_rows,
    build_weights,
    time_factor,
)
from oracles import theta_time

GAMMAS = [0.5, 1.0, 1.5]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# -- reference bodies -------------------------------------------------------------


def ref_theta_parts(t, T):
    g = t * (T - t)
    gp = T - 2.0 * t
    th = g**-4
    th1 = -4.0 * gp * g**-5
    th2 = 20.0 * gp * gp * g**-6 + 8.0 * g**-5
    return th, th1, th2


def ref_masks(psi, x):
    left = x <= psi.alpha_prime
    right = x >= psi.beta_prime
    return left, ~(left | right), right


def ref_value(psi, x):
    out = np.empty_like(x)
    left, mid, right = ref_masks(psi, x)
    for mask, start, singular, sign in ((left, 0.0, True, 1.0),
                                        (right, psi.beta_prime, False, -1.0)):
        if np.any(mask):
            xs = x[mask]
            order = np.argsort(xs)
            vals = _cumulative_from(psi._integrand, start, xs[order], singular)
            tmp = np.empty_like(vals)
            tmp[order] = vals
            out[mask] = tmp if sign > 0 else -tmp
    if np.any(mid):
        xi = (x[mid] - psi.alpha_prime) / (psi.beta_prime - psi.alpha_prime)
        out[mid] = P.polyval(xi, psi._bridge[0])
    return out


def ref_d1(psi, x):
    out = np.empty_like(x)
    left, mid, right = ref_masks(psi, x)
    with np.errstate(all="ignore"):
        a = np.asarray(psi.coef.eval(x), dtype=float)
        if np.any(left):
            out[left] = x[left] / a[left]
        if np.any(right):
            out[right] = -x[right] / a[right]
    if np.any(mid):
        span = psi.beta_prime - psi.alpha_prime
        xi = (x[mid] - psi.alpha_prime) / span
        out[mid] = P.polyval(xi, P.polyder(psi._bridge[0])) / span
    return out


def ref_d2(psi, x):
    out = np.empty_like(x)
    left, mid, right = ref_masks(psi, x)
    with np.errstate(all="ignore"):
        a = np.asarray(psi.coef.eval(x), dtype=float)
        da = np.asarray(psi.coef.eval_deriv(x), dtype=float)
        if np.any(left):
            out[left] = (a[left] - x[left] * da[left]) / a[left] ** 2
        if np.any(right):
            out[right] = -(a[right] - x[right] * da[right]) / a[right] ** 2
    if np.any(mid):
        span = psi.beta_prime - psi.alpha_prime
        xi = (x[mid] - psi.alpha_prime) / span
        out[mid] = P.polyval(xi, P.polyder(psi._bridge[0], 2)) / span**2
    return out


def ref_d3(psi, x):
    out = np.empty_like(x)
    left, mid, right = ref_masks(psi, x)
    with np.errstate(all="ignore"):
        a = np.asarray(psi.coef.eval(x), dtype=float)
        da = np.asarray(psi.coef.eval_deriv(x), dtype=float)
        d2a = np.asarray(psi.coef.eval_deriv2(x), dtype=float)
        core = (-x * d2a * a - 2.0 * da * (a - x * da)) / a**3
        if np.any(left):
            out[left] = core[left]
        if np.any(right):
            out[right] = -core[right]
    if np.any(mid):
        span = psi.beta_prime - psi.alpha_prime
        xi = (x[mid] - psi.alpha_prime) / span
        out[mid] = P.polyval(xi, P.polyder(psi._bridge[0], 3)) / span**3
    return out


def ref_joint_slopes(coef, alpha_prime, beta_prime):
    a_ap = float(np.asarray(coef.eval(np.array([alpha_prime]))).ravel()[0])
    da_ap = float(np.asarray(coef.eval_deriv(np.array([alpha_prime]))).ravel()[0])
    a_bp = float(np.asarray(coef.eval(np.array([beta_prime]))).ravel()[0])
    da_bp = float(np.asarray(coef.eval_deriv(np.array([beta_prime]))).ravel()[0])
    d1_l = alpha_prime / a_ap
    d2_l = (a_ap - alpha_prime * da_ap) / a_ap**2
    d1_r = -beta_prime / a_bp
    d2_r = -(a_bp - beta_prime * da_bp) / a_bp**2
    return d1_l, d2_l, d1_r, d2_r


def ref_space_composites(weights, xs):
    psi = weights.psi
    coef = weights.coef
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    n = xs.size
    eta = weights.eta(xs)
    a = np.asarray(coef.eval(xs), dtype=float)
    pos = xs > 0.0
    left, mid, right = psi._masks(xs)
    c1 = np.zeros(n)
    c1p = np.zeros(n)
    c1pp = np.zeros(n)
    c2 = np.zeros(n)
    c3x = np.zeros(n)
    c4 = np.zeros(n)
    c5 = np.zeros(n)
    ap = np.zeros(n)
    with np.errstate(all="ignore"):
        ap[pos] = np.asarray(coef.eval_deriv(xs[pos]), dtype=float)
        lb = left & pos
        c1[left] = xs[left]
        c1p[left] = 1.0
        c1pp[left] = 0.0
        c1[right] = -xs[right]
        c1p[right] = -1.0
        c1pp[right] = 0.0
        branch = (lb | right)
        c2[branch] = xs[branch] ** 2 / a[branch]
        c3x[branch] = xs[branch] * (2.0 - xs[branch] * ap[branch] / a[branch])
        c4[lb] = xs[lb] * ap[lb]
        c4[right] = -xs[right] * ap[right]
        c5[lb] = c2[lb] * (2.0 - xs[lb] * ap[lb] / a[lb])
        c5[right] = -c2[right] * (2.0 - xs[right] * ap[right] / a[right])
        if np.any(mid):
            xm = xs[mid]
            am = a[mid]
            apm = ap[mid]
            p1 = psi.d1(xm)
            p2 = psi.d2(xm)
            p3 = psi.d3(xm) if coef.eval_deriv2 is not None else None
            a2m = (
                np.asarray(coef.eval_deriv2(xm), dtype=float)
                if coef.eval_deriv2 is not None
                else None
            )
            c1[mid] = am * p1
            c1p[mid] = apm * p1 + am * p2
            if p3 is not None:
                c1pp[mid] = a2m * p1 + 2.0 * apm * p2 + am * p3
            else:
                c1pp[mid] = np.nan
            c2[mid] = am * p1 * p1
            c3x[mid] = am * (apm * p1 * p1 + 2.0 * am * p1 * p2)
            c4[mid] = apm * am * p1
            c5[mid] = (am * p1) * (apm * p1 * p1 + 2.0 * am * p1 * p2)
    at0 = ~pos
    for arr in (c1, c2, c3x, c4, c5):
        arr[at0] = 0.0
    c1p[at0] = 1.0
    c1pp[at0] = 0.0
    ap[at0] = np.where(np.isfinite(ap[at0]), ap[at0], 0.0)
    return {
        "eta": eta, "a": a, "ap": ap, "c1": c1, "c1p": c1p, "c1pp": c1pp,
        "c2": c2, "c3x": c3x, "c4": c4, "c5": c5,
    }


def ref_power(gamma):
    def a(x):
        return np.power(x, gamma)

    def da(x):
        return gamma * np.power(x, gamma - 1.0)

    def d2a(x):
        return gamma * (gamma - 1.0) * np.power(x, gamma - 2.0)

    return a, da, d2a


def ref_power_minus_x(theta):
    def a(x):
        return np.power(x, theta) - np.asarray(x, dtype=float)

    def da(x):
        return theta * np.power(x, theta - 1.0) - 1.0

    def d2a(x):
        return theta * (theta - 1.0) * np.power(x, theta - 2.0)

    return a, da, d2a


def ref_power_plus_x(theta):
    def a(x):
        return np.power(x, theta) + np.asarray(x, dtype=float)

    def da(x):
        return theta * np.power(x, theta - 1.0) + 1.0

    def d2a(x):
        return theta * (theta - 1.0) * np.power(x, theta - 2.0)

    return a, da, d2a


def ref_flux_laplacian(norms, u):
    flux = norms.a_faces * np.diff(u) / norms.spacings
    out = np.zeros_like(u)
    out[1:-1] = np.diff(flux) / norms.volumes[1:-1]
    return out


def ref_transform_parts(v_traj, weights, s):
    lam = weights.lam
    mesh = v_traj.mesh
    xs = mesh.nodes
    ts = v_traj.times
    w = weights.exp_s_phi_grid(ts, xs, s) * v_traj.values
    comp = weights.space_composites(xs)
    eta, c1, c1p, c2 = comp["eta"], comp["c1"], comp["c1p"], comp["c2"]
    em = eta - weights.c3
    inner_t = slice(1, ts.size - 1)
    th, th1, _ = ref_theta_parts(ts[inner_t], weights.T)
    k = ts[1] - ts[0]
    wt = (w[2:, :] - w[:-2, :]) / (2.0 * k)
    h = mesh.spacings
    flux = np.asarray(weights.coef.eval(mesh.faces), dtype=float)[None, :] * np.diff(
        w, axis=1
    ) / h[None, :]
    awx_x = (flux[:, 1:] - flux[:, :-1]) / mesh.volumes[1:-1][None, :]
    wx = (w[:, 2:] - w[:, :-2]) / (xs[2:] - xs[:-2])[None, :]
    ii = slice(1, xs.size - 1)
    phi_t = th1[:, None] * em[None, ii]
    aphx2 = (th**2)[:, None] * (lam * lam * eta * eta * c2)[None, ii]
    l_plus = -s * phi_t * w[inner_t, ii] + s * s * aphx2 * w[inner_t, ii] + awx_x[inner_t]
    a_phi_x = th[:, None] * (lam * eta * c1)[None, ii]
    a_phi_x_x = th[:, None] * (lam * eta * (lam * c2 + c1p))[None, ii]
    l_minus = wt[:, ii] - s * a_phi_x_x * w[inner_t, ii] - 2.0 * s * a_phi_x * wx[inner_t]
    return w, l_plus, l_minus


def ref_identity_residual(field, weights, s, resolution):
    lam = weights.lam
    T = weights.T
    ts, xs, tw, xw = _grids(weights, resolution)
    wv = np.asarray(field.w(ts[:, None], xs[None, :]), dtype=float)
    wt = np.asarray(field.w_t(ts[:, None], xs[None, :]), dtype=float)
    wx = np.asarray(field.w_x(ts[:, None], xs[None, :]), dtype=float)
    wxx = np.asarray(field.w_xx(ts[:, None], xs[None, :]), dtype=float)
    comp = weights.space_composites(xs)
    eta, a, ap = comp["eta"], comp["a"], comp["ap"]
    c1, c1p, c1pp = comp["c1"], comp["c1p"], comp["c1pp"]
    c2, c3x, c4, c5 = comp["c2"], comp["c3x"], comp["c4"], comp["c5"]
    em = eta - weights.c3
    th = np.zeros(ts.size)
    th1 = np.zeros(ts.size)
    th2 = np.zeros(ts.size)
    inner = (ts > 0.0) & (ts < T)
    th[inner], th1[inner], th2[inner] = ref_theta_parts(ts[inner], T)

    def tx(trow, xrow):
        return trow[:, None] * xrow[None, :]

    def integrate(f):
        return float(np.einsum("m,mi,i->", tw, f, xw))

    phi_t = tx(th1, em)
    phi_x_sq_a = tx(th * th, lam * lam * eta * eta * c2)
    a_wx_x = ap[None, :] * wx + a[None, :] * wxx
    l_plus = -s * phi_t * wv + s * s * phi_x_sq_a * wv + a_wx_x
    a_phi_x = tx(th, lam * eta * c1)
    a_phi_x_x = tx(th, lam * eta * (lam * c2 + c1p))
    l_minus = wt - s * a_phi_x_x * wv - 2.0 * s * a_phi_x * wx
    lhs = integrate(l_plus * l_minus)
    t1 = 0.5 * s * integrate(tx(th2, em) * wv * wv)
    t2 = -2.0 * s * s * integrate(tx(th1 * th, lam * lam * eta * eta * c2) * wv * wv)
    t3 = s**3 * integrate(tx(th**3, lam**3 * eta**3 * (2.0 * lam * c2 * c2 + c5)) * wv * wv)
    a_phi_x_xx_a = tx(th, lam * eta * (lam * c1 * (lam * c2 + c1p) + lam * c3x + a * c1pp))
    t4 = s * integrate(a_phi_x_xx_a * wv * wx)
    t5 = 2.0 * s * integrate(a_phi_x_x * a[None, :] * wx * wx)
    t6 = -s * integrate(tx(th, lam * eta * c4) * wx * wx)
    bndry = th * lam * (
        eta[-1] * a[-1] * c1[-1] * wx[:, -1] ** 2 - eta[0] * a[0] * c1[0] * wx[:, 0] ** 2
    )
    t7 = -s * float(np.dot(tw, bndry))
    total = t1 + t2 + t3 + t4 + t5 + t6 + t7
    denom = sum(abs(v) for v in (t1, t2, t3, t4, t5, t6, t7)) + 1.0
    return abs(lhs - total) / denom


def ref_build_grid(weights, ts, xs, s, k):
    out = np.zeros((ts.size, xs.size))
    rows = np.flatnonzero((ts > 0.0) & (ts < weights.T))
    if rows.size == 0:
        return out
    contiguous = rows[-1] - rows[0] + 1 == rows.size
    expo = out[rows[0] : rows[-1] + 1] if contiguous else np.empty((rows.size, xs.size))
    ti = ts[rows]
    g = ti * (weights.T - ti)
    eta = weights.eta(xs)
    np.multiply.outer(g**-4, eta - weights.c3, out=expo)
    expo *= 2.0 * s
    if k > 0.0:
        log_sigma = np.add.outer(-4.0 * np.log(g), np.log(eta))
        log_sigma *= k
        expo += log_sigma
        del log_sigma
    keep = expo > UNDERFLOW_EXPONENT
    np.exp(expo, out=expo, where=keep)
    np.logical_not(keep, out=keep)
    expo[keep] = 0.0
    if not contiguous:
        out[rows] = expo
    return out


def ref_fold(wgrid, tw, xw, time_constant):
    live = wgrid != 0.0
    live &= (tw != 0.0)[:, None]
    live &= (xw != 0.0)[None, :]
    rows = np.flatnonzero(live.any(axis=1))
    cols = np.flatnonzero(live.any(axis=0))
    if rows.size == 0:
        rows = cols = slice(0, 0)
    else:
        rows = slice(rows[0], rows[-1] + 1)
        cols = slice(cols[0], cols[-1] + 1)
    grid = wgrid[rows, cols] * tw[rows, None]
    grid *= xw[None, cols]
    if time_constant:
        grid = grid.sum(axis=0)
    grid.flags.writeable = False
    return rows, cols, grid


def ref_integral(quad, vals):
    rows = 0 if quad.time_constant else quad.rows
    if quad.integrand == "a_vx_sq":
        v = vals[rows, quad.cols.start : quad.cols.stop + 1]
        u = np.subtract(v[..., 1:], v[..., :-1])
    else:
        u = vals[rows, quad.cols]
    spec = "i,i,i->" if quad.time_constant else "mi,mi,mi->"
    return float(np.einsum(spec, quad.grid, u, u))


def ref_schedule_samples(field, t_sample, xs_unknown):
    """The ``(J, n)`` block of a field's samples at every substep of the
    schedule, from a callable (t, x) -> value; an array is taken as that
    block already."""
    if callable(field):
        xs = xs_unknown
        return np.stack([np.asarray(field(t, xs), dtype=float) * np.ones_like(xs)
                         for t in t_sample])
    return np.asarray(field, dtype=float)


def ref_solve_forward(spec, u0, control=None, source=None):
    """Trajectory rows of ``solve_forward`` with its forcing gathered into
    one ``(J, n)`` block on the unknown nodes before the march."""
    st = pde_solver._Stepper(spec)
    op = st.op
    xs_unknown = spec.mesh.nodes[op.node_index]
    u = op.restrict(u0)
    rows = np.zeros((spec.time_steps + 1, spec.mesh.nodes.size))
    rows[0, st.cols] = u

    g = None
    if control is not None or source is not None:
        g = np.zeros((st.tau.size, u.size))
        if control is not None:
            g += np.where(st.omega, ref_schedule_samples(control, st.t_sample, xs_unknown), 0.0)
        if source is not None:
            g += ref_schedule_samples(source, st.t_sample, xs_unknown)

    def closed(m, state):
        rows[m, st.cols] = state

    st.forward(u, g, closed)
    return rows


# -- comparisons ------------------------------------------------------------------


class TestTimeFactor:
    @pytest.mark.parametrize("T, M", [(1.0, 8), (2.0, 128), (0.7, 33), (10.0, 513)])
    def test_matches_the_interior_formula_and_vanishes_at_the_ends(self, T, M):
        ts = np.linspace(0.0, T, M + 1)
        inner = (ts > 0.0) & (ts < T)
        assert not inner[0] and not inner[-1]
        for got, want in zip(time_factor(ts, T), ref_theta_parts(ts[inner], T)):
            assert same_bits(got[inner], want)
            assert np.all(got[~inner] == 0.0)

    def test_points_outside_the_horizon_are_zero(self):
        ts = np.array([-1.0, 0.0, 0.3, 1.0, 3.0])
        for got in time_factor(ts, 1.0):
            assert got[2] != 0.0
            assert np.all(got[[0, 1, 3, 4]] == 0.0)

    def test_theta_time_keeps_its_values(self):
        w = build_weights(make_power_coefficient(1.0), 1.0, 2.0, 0.4, 0.6)
        t = np.linspace(0.0, 2.0, 65)[1:-1]
        assert same_bits(theta_time(w, t), (t * (2.0 - t)) ** -4)


class TestProfileDerivatives:
    @pytest.mark.parametrize("degree", [5, 7])
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_value_and_derivatives(self, gamma, degree):
        ap, bp = 0.4, 0.6
        x = np.concatenate([
            [1.0, bp, 0.0, ap],
            np.linspace(0.0, 1.0, 401)[:0:-1],
            [ap * (1.0 + 1e-12), bp * (1.0 - 1e-12), 0.5],
        ])
        psi = PsiFunction(make_power_coefficient(gamma), ap, bp, bridge_degree=degree)
        for name, ref in (("value", ref_value), ("d1", ref_d1), ("d2", ref_d2),
                          ("d3", ref_d3)):
            assert same_bits(getattr(psi, name)(x), ref(psi, x)), name


def _coefficient(name):
    """The coefficients whose branch formulas are compared: every kind, the
    table's interpolant, and one without a second derivative (c1pp = NaN in
    the bridge)."""
    kind, _, arg = name.partition(":")
    if kind == "power":
        return make_power_coefficient(float(arg))
    if kind == "table":
        xt = np.linspace(0.0, 1.0, 33)
        return make_table_coefficient(xt, xt**0.7)
    if kind == "no_d2a":
        c = make_power_coefficient(0.5)
        return DegeneracyCoefficient("x^0.5 without a''", c.eval, c.eval_deriv)
    if kind == "power_cos":
        gamma, alpha = map(float, arg.split(","))
        return make_example_coefficient(kind, gamma=gamma, alpha=alpha)
    return make_example_coefficient(kind, theta=float(arg))


COEFFICIENTS = [
    "power:0.3", "power:0.5", "power:1.0", "power:1.5", "power:1.9",
    "power_cos:0.5,1.0", "power_cos:1.5,1.0", "power_minus_x:0.5", "power_plus_x:1.5",
    "table", "no_d2a",
]
WINDOWS = [(0.4, 0.6), (0.05, 0.9)]


def _refused_at_one(name, build) -> bool:
    """Whether the coefficient ``name`` vanishes at x = 1, having checked
    that ``build`` then refuses it by name: the profile integrates y/a(y) up
    to x = 1, so no weight is built on such a coefficient."""
    if _coefficient(name).eval(np.array([1.0]))[0] != 0.0:
        return False
    with pytest.raises(ValueError, match=re.escape(A_ONE_VANISHES)):
        build()
    return True


def _abscissae(ap, bp):
    return np.concatenate([
        [0.0, 1e-12, ap, bp, 1.0],
        np.linspace(0.0, 1.0, 301)[::-1],
        [ap * (1.0 + 1e-12), ap * (1.0 - 1e-12), bp * (1.0 - 1e-12), bp * (1.0 + 1e-12)],
    ])


class TestBranchFormulas:
    @pytest.mark.parametrize("degree", [5, 7])
    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("name", COEFFICIENTS)
    def test_joint_slopes(self, name, window, degree):
        coef = _coefficient(name)
        if _refused_at_one(name, lambda: PsiFunction(coef, *window, bridge_degree=degree)):
            return
        psi = PsiFunction(coef, *window, bridge_degree=degree)
        d1_l, d2_l, d1_r, d2_r = ref_joint_slopes(coef, *window)
        joints = np.array(window)
        assert same_bits(psi.d1(joints), [d1_l, d1_r])
        assert same_bits(psi.d2(joints), [d2_l, d2_r])
        L = window[1] - window[0]
        bridge = _hermite_bridge(
            psi.psi_alpha, L * d1_l, L * L * d2_l, 0.0, L * d1_r, L * L * d2_r,
            degree=degree,
        )
        assert same_bits(psi._bridge[0], bridge)

    @pytest.mark.parametrize("degree", [5, 7])
    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("name", COEFFICIENTS)
    def test_space_composites(self, name, window, degree):
        def build():
            return build_weights(_coefficient(name), 2.0, 1.0, *window, bridge_degree=degree)

        if _refused_at_one(name, build):
            return
        weights = build()
        xs = _abscissae(*window)
        got = weights.space_composites(xs)
        want = ref_space_composites(weights, xs)
        assert got.keys() == want.keys()
        for key in want:
            assert same_bits(got[key], want[key]), key
        assert np.isnan(got["c1pp"][(xs > window[0]) & (xs < window[1])]).all() == (
            name == "no_d2a"
        )

    @pytest.mark.parametrize("kind, theta, ref, sign", [
        ("power", 0.5, ref_power, ""),
        ("power", 1.0, ref_power, ""),
        ("power", 1.5, ref_power, ""),
        ("power_minus_x", 0.2, ref_power_minus_x, "-"),
        ("power_minus_x", 0.5, ref_power_minus_x, "-"),
        ("power_minus_x", 0.9, ref_power_minus_x, "-"),
        ("power_plus_x", 1.1, ref_power_plus_x, "+"),
        ("power_plus_x", 1.5, ref_power_plus_x, "+"),
        ("power_plus_x", 1.9, ref_power_plus_x, "+"),
    ])
    def test_power_x_family(self, kind, theta, ref, sign):
        name = "gamma" if kind == "power" else "theta"
        coef = (make_power_coefficient(theta) if kind == "power"
                else make_example_coefficient(kind, theta=theta))
        assert coef.label == f"x^{theta:g}" + (f"{sign}x" if sign else "")
        assert coef.descriptor == {"kind": kind, "params": {name: theta}}
        x = _abscissae(0.4, 0.6)
        with np.errstate(all="ignore"):
            for got, want in zip((coef.eval, coef.eval_deriv, coef.eval_deriv2), ref(theta)):
                assert same_bits(got(x), want(x))
                assert got(0.3) == want(0.3)

    def test_the_three_kinds_share_one_set_of_closures(self):
        power = make_power_coefficient(0.5)
        minus = make_example_coefficient("power_minus_x", theta=0.5)
        plus = make_example_coefficient("power_plus_x", theta=1.5)
        for f, g, h in ((power.eval, minus.eval, plus.eval),
                        (power.eval_deriv, minus.eval_deriv, plus.eval_deriv),
                        (power.eval_deriv2, minus.eval_deriv2, plus.eval_deriv2)):
            assert f.__code__ is g.__code__ is h.__code__


def test_repeated_abscissae_share_one_value():
    # a repeated x = 0 once made a zero-width panel of 0/a(0) = NaN that the
    # running sum carried to every later left-branch value
    x = np.array([0.0, 0.1, 0.2, 0.5, 0.7, 0.9])
    repeat = [0, 0, 1, 2, 2, 3, 4, 5, 5]
    once = PsiFunction(make_power_coefficient(1.0), 0.4, 0.6).value(x)
    twice = PsiFunction(make_power_coefficient(1.0), 0.4, 0.6).value(x[repeat])
    assert same_bits(twice, once[repeat])
    # a = x: the left branch is psi(x) = x
    assert np.allclose(once[:3], x[:3], atol=1e-13)


class TestFluxLaplacian:
    def test_one_vector_and_a_stack(self):
        mesh = build_mesh(48, 2.0)
        norms = WeightedNorms(mesh, make_power_coefficient(1.5))
        stack = sample_fields(3, STREAM_TERMINAL, 5, mesh.nodes)
        assert same_bits(norms.flux_laplacian(stack[0]), ref_flux_laplacian(norms, stack[0]))
        got = norms.flux_laplacian(stack)
        assert got.shape == stack.shape
        for row, u in zip(got, stack):
            assert same_bits(row, ref_flux_laplacian(norms, u))


def _spec(gamma):
    coef = make_power_coefficient(gamma)
    rep = classify(coef)
    return ProblemSpec(
        T=2.0, coef=coef, regime=boundary_regime_for(rep), mesh=build_mesh(40, 2.0),
        time_steps=32, omega=(0.3, 0.7), hypothesis=rep,
    )


class TestConjugatedOperator:
    @pytest.mark.parametrize("s", [0.5, 3.0])
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_transform_to_w(self, gamma, s):
        spec = _spec(gamma)
        traj = solve_adjoint(spec, sample_fields(1, STREAM_TERMINAL, 1, spec.mesh.nodes)[0])
        weights = build_weights(spec.coef, 1.5, spec.T, 0.4, 0.6)
        got = transform_to_w(traj, weights, s)
        w, l_plus, l_minus = ref_transform_parts(traj, weights, s)
        assert same_bits(got.w, w)
        assert same_bits(got.l_plus, l_plus)
        assert same_bits(got.l_minus, l_minus)

    @pytest.mark.parametrize("s", [0.5, 3.0])
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_identity_residual(self, gamma, s):
        weights = build_weights(make_power_coefficient(gamma), 1.5, 2.0, 0.4, 0.6)
        for field in standard_identity_fields(2.0, gamma < 1.0):
            got = identity_residual(field, weights, s, 48)
            assert same_bits(got, ref_identity_residual(field, weights, s, 48))


# -- row-blocked grid kernels -----------------------------------------------------

T_SWEEP = 10.0
OMEGA = (0.02, 0.95)


def _time_grids(N):
    """The uniform time grid of N steps, and one whose interior rows are
    interleaved with endpoint and outside rows (not contiguous)."""
    uniform = np.linspace(0.0, T_SWEEP, N + 1)
    mixed = uniform[::-1].copy()
    mixed[N // 3] = 0.0
    mixed[N // 2] = T_SWEEP
    mixed[2 * N // 3] = 1.5 * T_SWEEP
    return uniform, mixed


def _space_weights(mesh, coef, faces, interval):
    lo, hi = interval
    if faces:
        return (_clipped_cell_lengths(mesh.nodes, lo, hi) * coef.eval(mesh.faces)
                / mesh.spacings**2)
    return _clipped_node_quadrature(mesh.nodes, lo, hi)


class TestGridKernels:
    @pytest.mark.parametrize("N", [16, 128, 512])
    @pytest.mark.parametrize("lam", [2.0, 4.0])
    @pytest.mark.parametrize("gamma", [0.5, 1.5])
    def test_build_and_fold_keep_their_bits(self, gamma, lam, N):
        wts = build_weights(make_power_coefficient(gamma), lam, T_SWEEP, 0.05, 0.9)
        mesh = build_mesh(N, 2.0)
        s0 = stable_s0(wts)
        tw = trapezoid_time_weights(T_SWEEP, N)
        for s_rel in (1.0, 16.0):
            s = s_rel * s0
            for ts in _time_grids(N):
                with wts.shared_grids():
                    for faces in (False, True):
                        xs = mesh.faces if faces else mesh.nodes
                        for k in (0.0, 1.0, 5.0 / 3.0, 3.0):
                            want = ref_build_grid(wts, ts, xs, s, k)
                            assert same_bits(wts.weight_grid(ts, xs, s, k), want)
                            assert same_bits(wts._build_grid(ts, xs, s, k), want)
                            if ts[0] != 0.0 or k not in (0.0, 1.0):
                                continue
                            for interval in ((0.0, 1.0), OMEGA):
                                xw = _space_weights(mesh, wts.coef, faces, interval)
                                for tc in (False, True):
                                    got = weights._fold(want, tw, xw, tc)
                                    ref = ref_fold(want, tw, xw, tc)
                                    assert got[:2] == ref[:2]
                                    assert same_bits(got[2], ref[2])
                want = ref_build_grid(wts, ts, mesh.nodes, 0.5 * s, 0.0)
                assert same_bits(wts.exp_s_phi_grid(ts, mesh.nodes, s), want)

    def test_fold_of_unusual_grids(self):
        rng = np.random.default_rng(5)
        n_rows, n_cols = 300, 2000
        wgrid = rng.uniform(0.0, 2.0, (n_rows, n_cols))
        # zero rows and columns inside the box, and a box that starts and
        # ends inside a row block
        wgrid[:7] = wgrid[250:] = 0.0
        wgrid[100:140] = 0.0
        wgrid[:, :3] = wgrid[:, 40:45] = 0.0
        tw = rng.uniform(0.5, 1.0, n_rows)
        tw[[0, 9, -1]] = 0.0
        xw = rng.uniform(0.5, 1.0, n_cols)
        xw[[5, 60, -1]] = 0.0
        assert block_rows(n_cols) < 40
        for grid in (wgrid, np.zeros_like(wgrid), wgrid[:1]):
            for tc in (False, True):
                got = weights._fold(grid, tw[: grid.shape[0]], xw, tc)
                ref = ref_fold(grid, tw[: grid.shape[0]], xw, tc)
                assert got[:2] == ref[:2]
                assert same_bits(got[2], ref[2])

    @pytest.mark.parametrize("N", [16, 512])
    def test_blocked_contraction_matches_the_whole_grid_einsum(self, N):
        wts = build_weights(make_power_coefficient(1.5), 2.0, T_SWEEP, 0.05, 0.9)
        mesh = build_mesh(N, 2.0)
        vals = sample_fields(4, STREAM_TERMINAL, N + 1, mesh.nodes)
        grid = weights._abscissae(Trajectory(vals, mesh, T_SWEEP), wts)
        source = np.broadcast_to(vals[3], vals.shape)
        for s_rel in (1.0, 16.0):
            s = s_rel * stable_s0(wts)
            quads = [
                weights._WeightedQuadrature(grid, wts, s, 1.0, "a_vx_sq"),
                weights._WeightedQuadrature(grid, wts, s, 5.0 / 3.0, "v_sq"),
                weights._WeightedQuadrature(grid, wts, s, 3.0, "v_sq", OMEGA),
                weights._WeightedQuadrature(grid, wts, s, 1.0, "a_vx_sq", OMEGA),
            ]
            got = weights._integrals(vals, quads)
            for q, value in zip(quads, got):
                assert value == pytest.approx(ref_integral(q, vals), rel=1e-13, abs=0.0)
                assert q.integral(vals) == value
            # the time-constant source keeps its bits
            q = weights._WeightedQuadrature(grid, wts, s, 0.0, "v_sq", time_constant=True)
            assert same_bits(weights._integrals(source, (q,))[0], ref_integral(q, source))

    def test_boxes_inside_row_blocks(self):
        # boxes of either integrand that start and end inside a row block,
        # overlapping ones and an empty one, against one field
        rng = np.random.default_rng(9)
        vals = rng.standard_normal((400, 1001))
        step = block_rows(1001)
        assert step < 100

        def quad(rows, cols, integrand):
            shape = (rows.stop - rows.start, cols.stop - cols.start)
            return SimpleNamespace(rows=rows, cols=cols, integrand=integrand,
                                   time_constant=False, grid=rng.uniform(0.0, 1.0, shape))

        quads = [
            quad(slice(step // 2, 3 * step + 5), slice(3, 950), "v_sq"),
            quad(slice(step + 1, step + 4), slice(10, 20), "v_sq"),
            quad(slice(7, 390), slice(0, 1000), "a_vx_sq"),
            quad(slice(2 * step - 3, 2 * step + 3), slice(955, 1001), "v_sq"),
            quad(slice(0, 0), slice(0, 0), "a_vx_sq"),
            # ends at the last face, next to the row-end entry of the flat
            # face differences, which pairs a row with the next one
            quad(slice(step - 2, 2 * step + 9), slice(990, 1000), "a_vx_sq"),
        ]
        got = weights._integrals(vals, quads)
        for q, value in zip(quads, got):
            assert value == pytest.approx(ref_integral(q, vals), rel=1e-13, abs=0.0)
            assert weights._integrals(vals, (q,)) == [value]
        assert got[-2] == 0.0

    def test_non_contiguous_values(self):
        # a column-sliced view and a Fortran-ordered copy give the sums of
        # the C-ordered values
        rng = np.random.default_rng(10)
        wide = rng.standard_normal((300, 1003))
        vals = np.ascontiguousarray(wide[:, 1:1002])
        step = block_rows(1001)
        quads = [
            SimpleNamespace(rows=rows, cols=cols, integrand=integrand, time_constant=False,
                            grid=rng.uniform(0.0, 1.0, (rows.stop - rows.start,
                                                        cols.stop - cols.start)))
            for rows, cols, integrand in (
                (slice(5, 290), slice(0, 1000), "a_vx_sq"),
                (slice(step - 1, step + 2), slice(997, 1000), "a_vx_sq"),
                (slice(3, 2 * step), slice(0, 1001), "v_sq"),
            )
        ]
        want = weights._integrals(vals, quads)
        for other in (wide[:, 1:1002], np.asfortranarray(vals)):
            assert not other.flags.c_contiguous
            assert weights._integrals(other, quads) == want

    def test_closed_block_holds_no_grid_memory(self):
        spec = ProblemSpec(
            T=T_SWEEP, coef=make_power_coefficient(1.5),
            regime=boundary_regime_for(classify(make_power_coefficient(1.5))),
            mesh=build_mesh(256, 2.0), time_steps=256, omega=OMEGA,
            hypothesis=classify(make_power_coefficient(1.5)),
        )
        wts = build_weights(spec.coef, 2.0, T_SWEEP, 0.05, 0.9)
        vals = sample_fields(2, STREAM_TERMINAL, 257, spec.mesh.nodes)
        traj = Trajectory(vals, spec.mesh, T_SWEEP)
        source = vals[0]
        s = stable_s0(wts)
        grid_bytes = vals.nbytes
        # outside a block nothing is kept, so this call fills only the
        # caches that outlive grids (the profile's values, the mesh's faces)
        want = carleman_sides(traj, source, spec.omega, wts, s)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with wts.shared_grids():
                got = carleman_sides(traj, source, spec.omega, wts, s)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak - before > 6 * grid_bytes
        assert held - before < grid_bytes // 16

    def test_held_grid_is_not_reused(self):
        wts = build_weights(make_power_coefficient(0.5), 2.0, T_SWEEP, 0.05, 0.9)
        ts, xs = np.linspace(0.0, T_SWEEP, 65), np.linspace(0.0, 1.0, 33)
        with wts.shared_grids():
            held = wts.weight_grid(ts, xs, 3.0, 1.0)
        want = held.copy()
        with wts.shared_grids():
            other = wts.weight_grid(ts, xs, 5.0, 3.0)
            assert not np.shares_memory(other, held)
        assert same_bits(held, want)


def _forward_spec(scheme):
    coef = make_power_coefficient(0.5)
    rep = classify(coef)
    return ProblemSpec(
        T=1.0, coef=coef, regime=boundary_regime_for(rep), mesh=build_mesh(40, 2.0),
        time_steps=24, omega=(0.3, 0.7), scheme=scheme, hypothesis=rep,
    )


def _control(t, x):
    return np.cos(3.0 * t) * x


def _source(t, x):
    return np.sin(np.pi * x) * (1.0 + t)


SCHEMES = [Scheme.CRANK_NICOLSON, Scheme.BACKWARD_EULER]


class TestForwardForcing:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_nodal_blocks_against_sampled_callables(self, scheme):
        spec = _forward_spec(scheme)
        x, ts = spec.mesh.nodes, substep_times(spec)[0]
        u0 = sample_fields(1, STREAM_TERMINAL, 1, x)[0]
        control, source = _control(ts[:, None], x), _source(ts[:, None], x)
        for kw, ref_kw in (
            ({"control": control, "source": source}, {"control": _control, "source": _source}),
            ({"control": control}, {"control": _control}),
            ({"source": source}, {"source": _source}),
            ({}, {}),
        ):
            assert same_bits(solve_forward(spec, u0, **kw).values,
                             ref_solve_forward(spec, u0, **ref_kw))

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_zero_rows_add_nothing(self, scheme):
        # all-zero rows, -0.0 ones among them, against the same rows gathered
        # on the unknown nodes
        spec = _forward_spec(scheme)
        x, ts = spec.mesh.nodes, substep_times(spec)[0]
        idx = pde_solver._Stepper(spec).op.node_index
        u0 = sample_fields(2, STREAM_TERMINAL, 1, x)[0]
        control, source = _control(ts[:, None], x), _source(ts[:, None], x)
        control[::3] = 0.0
        control[4] = -0.0
        source[1::3] = -0.0
        source[6] = 0.0
        for kw in ({"control": control, "source": source}, {"control": control},
                   {"source": source}, {"source": -np.zeros_like(source)}):
            ref_kw = {name: block[:, idx] for name, block in kw.items()}
            assert same_bits(solve_forward(spec, u0, **kw).values,
                             ref_solve_forward(spec, u0, **ref_kw))

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_constant_row_against_its_tiling(self, scheme):
        spec = _forward_spec(scheme)
        x, ts = spec.mesh.nodes, substep_times(spec)[0]
        idx = pde_solver._Stepper(spec).op.node_index
        u0 = sample_fields(3, STREAM_TERMINAL, 1, x)[0]
        row = sample_fields(4, STREAM_TERMINAL, 1, x)[0]
        block = _source(ts[:, None], x)
        for value in (row, np.zeros_like(row), -np.zeros_like(row)):
            tiled = np.tile(value, (ts.size, 1))
            gathered = value[idx]
            for kw, tiled_kw, ref_kw in (
                ({"control": value}, {"control": tiled},
                 {"control": lambda t, x: gathered}),
                ({"source": value}, {"source": tiled}, {"source": lambda t, x: gathered}),
                # a constant control beside a per-substep source
                ({"control": value, "source": block}, {"control": tiled, "source": block},
                 {"control": lambda t, x: gathered, "source": _source}),
            ):
                got = solve_forward(spec, u0, **kw).values
                assert same_bits(got, solve_forward(spec, u0, **tiled_kw).values)
                assert same_bits(got, ref_solve_forward(spec, u0, **ref_kw))
