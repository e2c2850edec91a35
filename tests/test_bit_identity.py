"""Bit identity of the weight layer against its earlier formulas.

Each formula of the weight layer is written once: the time factor in
``weights.time_factor``, the profile's branch dispatch in
``PsiFunction._derivative``, the conjugated operator parts in
``carleman._l_plus``/``_l_minus`` and the flux Laplacian in
``WeightedNorms.flux_laplacian``.  The reference functions below are the
bodies these replaced, kept verbatim in arithmetic, and every comparison is
``np.array_equal`` on the bits.
"""

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from carleman_lab.carleman import (
    CarlemanParams,
    _grids,
    identity_residual,
    standard_identity_fields,
    transform_to_w,
)
from carleman_lab.coefficients import classify, make_power_coefficient
from carleman_lab.functionals import WeightedNorms
from carleman_lab.pde_solver import ProblemSpec, boundary_regime_for, build_mesh, solve_adjoint
from carleman_lab.sampling import STREAM_TERMINAL, sample_fields
from carleman_lab.weights import PsiFunction, _cumulative_from, build_weights, time_factor

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


def ref_flux_laplacian(norms, u):
    flux = norms.a_faces * np.diff(u) / norms.spacings
    out = np.zeros_like(u)
    out[1:-1] = np.diff(flux) / norms.volumes[1:-1]
    return out


def ref_transform_parts(v_traj, weights, params):
    s, lam = params.s, params.lam
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


def ref_identity_residual(field, weights, params, resolution):
    s, lam = params.s, params.lam
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
        assert same_bits(w.theta_time(t), (t * (2.0 - t)) ** -4)


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
        params = CarlemanParams(s, 1.5)
        got = transform_to_w(traj, weights, params)
        w, l_plus, l_minus = ref_transform_parts(traj, weights, params)
        assert same_bits(got.w, w)
        assert same_bits(got.l_plus, l_plus)
        assert same_bits(got.l_minus, l_minus)

    @pytest.mark.parametrize("s", [0.5, 3.0])
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_identity_residual(self, gamma, s):
        weights = build_weights(make_power_coefficient(gamma), 1.5, 2.0, 0.4, 0.6)
        params = CarlemanParams(s, 1.5)
        for field in standard_identity_fields(2.0, gamma < 1.0):
            got = identity_residual(field, weights, params, 48)
            assert same_bits(got, ref_identity_residual(field, weights, params, 48))
