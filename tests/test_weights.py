import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carleman_lab.coefficients import make_example_coefficient, make_power_coefficient
from carleman_lab.pde_solver import build_mesh
from carleman_lab.weights import (
    A_ONE_VANISHES,
    UNDERFLOW_EXPONENT,
    CarlemanWeights,
    PsiFunction,
    build_weights,
    default_omega_prime,
    time_factor,
)
from oracles import phi, sigma, sign_change_location, theta_time


class TestPsiBranches:
    def test_linear_coefficient_left_branch(self):
        # integrand y/a = 1, so the profile equals x left of the window
        psi = PsiFunction(make_power_coefficient(1.0), 0.3, 0.7)
        xs = np.linspace(0.0, 0.3, 7)
        assert np.allclose(psi.value(xs), xs, atol=1e-13)

    def test_weak_power_closed_form(self):
        # closed form x^{2-gamma}/(2-gamma) against the quadrature
        psi = PsiFunction(make_power_coefficient(0.5), 0.3, 0.7)
        assert psi.value(np.array([0.25]))[0] == pytest.approx(
            0.25**1.5 / 1.5, abs=1e-9
        )

    def test_linear_coefficient_right_branch(self):
        psi = PsiFunction(make_power_coefficient(1.0), 0.3, 0.7)
        assert psi.value(np.array([1.0]))[0] == pytest.approx(-0.3, abs=1e-12)

    def test_profile_endpoints(self):
        for gamma in (0.5, 1.0, 1.5):
            psi = PsiFunction(make_power_coefficient(gamma), 0.35, 0.65)
            assert psi.value(np.array([0.0]))[0] == pytest.approx(0.0, abs=1e-14)
            assert psi.value(np.array([psi.beta_prime]))[0] == pytest.approx(0.0, abs=1e-12)
            assert psi.psi_alpha > 0.0
            assert psi.psi_one < 0.0

    def test_branch_derivative_matches_finite_difference(self):
        psi = PsiFunction(make_power_coefficient(0.5), 0.3, 0.7)
        for x in (0.1, 0.2, 0.8, 0.9):
            h = 1e-6
            fd = (psi.value(np.array([x + h]))[0] - psi.value(np.array([x - h]))[0]) / (2 * h)
            assert fd == pytest.approx(psi.d1(np.array([x]))[0], rel=1e-7)

    def test_window_validation(self):
        with pytest.raises(ValueError, match="alpha_prime"):
            PsiFunction(make_power_coefficient(0.5), 0.7, 0.3)

    def test_coefficient_vanishing_at_one_rejected(self):
        # a = x^0.5 - x: left alone, psi_one and psi_sup come out as
        # quadrature artefacts (-11.8 and 28.4 on this window)
        coef = make_example_coefficient("power_minus_x", theta=0.5)
        with pytest.raises(ValueError, match=re.escape(A_ONE_VANISHES)):
            PsiFunction(coef, 0.4, 0.6)
        with pytest.raises(ValueError, match=re.escape(A_ONE_VANISHES)):
            build_weights(coef, 2.0, 1.0, 0.4, 0.6)

    def test_nonintegrable_coefficient_rejected(self):
        from carleman_lab.coefficients import DegeneracyCoefficient

        bad = DegeneracyCoefficient(
            label="x^2",
            eval=lambda x: np.asarray(x, float) ** 2,
            eval_deriv=lambda x: 2.0 * np.asarray(x, float),
        )
        with pytest.raises(ValueError, match="not integrable"):
            PsiFunction(bad, 0.3, 0.7)


class TestSingularFirstGap:
    """The left branch at a single abscissa b is the integral of y/a(y) over
    (0, b], whose integrand is singular at 0 for a strong degeneracy."""

    @staticmethod
    def first_gap(coef, b):
        return PsiFunction(coef, 0.35, 0.65).value(np.array([b]))[0]

    @pytest.mark.parametrize("b", [0.3, 1e-3, 1.9e-6])
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 1.5, 1.9, 1.99])
    def test_power_closed_form(self, gamma, b):
        got = self.first_gap(make_power_coefficient(gamma), b)
        assert got == pytest.approx(b ** (2.0 - gamma) / (2.0 - gamma), rel=1e-13, abs=0)

    def test_linear_coefficient_is_exact(self):
        # a = x makes the integrand 1: the gap is b to the last bit
        for b in (0.3, 0.123456, 1e-3, 1.9e-6):
            assert self.first_gap(make_power_coefficient(1.0), b) == b

    @pytest.mark.parametrize("b", [0.3, 1e-3])
    @pytest.mark.parametrize(
        "kind, params",
        [
            ("power_plus_x", {"theta": 1.5}),
            ("power_plus_x", {"theta": 1.9}),
            ("power_minus_x", {"theta": 0.5}),
            ("power_cos", {"gamma": 0.5, "alpha": 1.0}),
            ("power_cos", {"gamma": 1.5, "alpha": 1.0}),
        ],
    )
    def test_extended_precision_reference(self, kind, params, b):
        coef = make_example_coefficient(kind, **params)
        if coef.eval(np.array([1.0]))[0] == 0.0:
            # the left branch is finite, but the profile integrates up to x = 1
            with pytest.raises(ValueError, match=re.escape(A_ONE_VANISHES)):
                self.first_gap(coef, b)
            return
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            p = mpmath.mpf(params.get("theta", params.get("gamma")))
            beta = mpmath.atan(mpmath.mpf(params.get("alpha", 0.0)))
            a = {
                "power_plus_x": lambda y: y**p + y,
                "power_cos": lambda y: y**p * mpmath.cos(beta * y),
            }[kind]
            top = mpmath.mpf(b)
            # breakpoints toward the singular endpoint keep tanh-sinh accurate
            expected = float(mpmath.quad(lambda y: y / a(y), [0, top / 1e6, top / 1e3, top]))
        got = self.first_gap(coef, b)
        assert got == pytest.approx(expected, rel=1e-13, abs=0)

    @pytest.mark.parametrize(
        "a, alpha_prime",
        [
            (lambda x: np.power(x, 2.0001), 0.3),
            # a 1/y singularity whose last panel ratio rounds to 1 - 1e-16:
            # without the rounding margin it would pass as integrable
            (lambda x: np.power(x, 2.0) * 1.563611050812721 * np.exp(3.392774901986161 * x),
             0.4710566131401384),
        ],
        ids=["x^2.0001", "x^2*exp(x)"],
    )
    def test_non_integrable_rejected(self, a, alpha_prime):
        from carleman_lab.coefficients import DegeneracyCoefficient

        bad = DegeneracyCoefficient(label="bad", eval=a, eval_deriv=lambda x: 2.0 * x)
        with pytest.raises(ValueError, match="not integrable"):
            PsiFunction(bad, alpha_prime, 0.7)


class TestBridgeStitching:
    @pytest.mark.parametrize("seed", range(4))
    def test_c2_matching_random_configurations(self, seed):
        # one-sided values and two derivatives agree at both joins
        rng = np.random.default_rng(seed)
        for _ in range(25):
            gamma = rng.uniform(0.2, 1.8)
            if abs(gamma - 2.0) < 0.05:
                continue
            a_p = rng.uniform(0.15, 0.45)
            b_p = rng.uniform(a_p + 0.15, 0.9)
            psi = PsiFunction(make_power_coefficient(gamma), a_p, b_p)
            eps = 1e-9
            for joint in (a_p, b_p):
                lo = np.array([joint - eps])
                hi = np.array([joint + eps])
                assert abs(psi.value(hi)[0] - psi.value(lo)[0]) < 1e-6 * (
                    1.0 + abs(psi.value(lo)[0])
                )
                assert abs(psi.d1(hi)[0] - psi.d1(lo)[0]) < 1e-5 * (1.0 + abs(psi.d1(lo)[0]))
                assert abs(psi.d2(hi)[0] - psi.d2(lo)[0]) < 1e-4 * (1.0 + abs(psi.d2(lo)[0]))

    def test_exact_join_mismatch_is_rounding_level(self):
        psi = PsiFunction(make_power_coefficient(0.5), 0.3, 0.7)
        span = psi.beta_prime - psi.alpha_prime
        from numpy.polynomial import polynomial as P

        for joint, xi in ((psi.alpha_prime, 0.0), (psi.beta_prime, 1.0)):
            x = np.array([joint])
            a = psi.coef.eval(x)[0]
            da = psi.coef.eval_deriv(x)[0]
            sign = 1.0 if joint == psi.alpha_prime else -1.0
            branch_val = psi.value(x)[0]
            branch_d1 = sign * joint / a
            branch_d2 = sign * (a - joint * da) / a**2
            assert P.polyval(xi, psi._bridge[0]) == pytest.approx(branch_val, abs=1e-10)
            assert P.polyval(xi, psi._bridge[1]) / span == pytest.approx(branch_d1, abs=1e-10)
            assert P.polyval(xi, psi._bridge[2]) / span**2 == pytest.approx(
                branch_d2, abs=1e-8
            )

    def test_sign_change_lies_at_the_window_edge(self):
        # the profile crosses zero exactly where the right branch starts
        for gamma in (0.5, 1.0, 1.5):
            psi = PsiFunction(make_power_coefficient(gamma), 0.3, 0.7)
            z = sign_change_location(psi)
            assert psi.alpha_prime < z <= psi.beta_prime + 1e-6

    def test_alternative_bridge_matches_joins(self):
        # the degree-7 joining rule also matches value and two derivatives
        # and additionally kills the third derivative at both ends
        psi = PsiFunction(make_power_coefficient(1.0), 0.4, 0.6, bridge_degree=7)
        eps = 1e-7
        for joint in (0.4, 0.6):
            lo, hi = np.array([joint - eps]), np.array([joint + eps])
            assert abs(psi.value(hi)[0] - psi.value(lo)[0]) < 1e-6
            assert abs(psi.d1(hi)[0] - psi.d1(lo)[0]) < 1e-5
            assert abs(psi.d2(hi)[0] - psi.d2(lo)[0]) < 1e-4
        with pytest.raises(ValueError, match="degree"):
            PsiFunction(make_power_coefficient(1.0), 0.4, 0.6, bridge_degree=6)

    def test_sweep_constant_insensitive_to_bridge(self):
        # the joining rule is a construction choice; the empirical sweep
        # constant must not hinge on it
        from carleman_lab.carleman import carleman_sweep
        from carleman_lab.coefficients import classify
        from carleman_lab.pde_solver import ProblemSpec, boundary_regime_for, build_mesh

        coef = make_power_coefficient(0.5)
        rep = classify(coef)
        spec = ProblemSpec(
            T=10.0, coef=coef, regime=boundary_regime_for(rep),
            mesh=build_mesh(64, 2.0), time_steps=64, omega=(0.02, 0.95),
            hypothesis=rep,
        )
        Cs = {}
        for deg in (5, 7):
            res = carleman_sweep(
                spec, 5, [1, 4, 16], [2.0], seed=42, omega_prime=(0.05, 0.9),
                s_relative=True, bridge_degree=deg,
            )
            assert res.summary["excluded_count"] == 0
            Cs[deg] = res.summary["empirical_C"]
        assert 0.5 < Cs[7] / Cs[5] < 2.0


class TestTimeFactor:
    def test_quarter_power_at_midpoint(self):
        assert time_factor(np.array([0.5]), 1.0)[0][0] == pytest.approx(256.0, rel=1e-14)

    def test_unit_product(self):
        assert time_factor(np.array([1.0]), 2.0)[0][0] == pytest.approx(1.0, rel=1e-14)

    def test_near_endpoint_value(self):
        assert time_factor(np.array([0.1]), 1.0)[0][0] == pytest.approx(0.09**-4, rel=1e-12)

    @pytest.mark.parametrize("t", [0.0, 1.0, -0.5, 2.0])
    def test_singular_endpoints(self, t):
        for part in time_factor(np.array([t]), 1.0):
            assert part[0] == 0.0

    @pytest.mark.parametrize("T", [1e300, 1e100, 1e-300])
    def test_unrepresentable_horizon_is_named(self, T):
        # at T = 1e300 t(T-t) overflows and theta'' is NaN, at 1e100 theta
        # underflows to 0 with finite derivatives, at 1e-300 t(T-t)
        # underflows and theta is infinite; each is an error naming T, with
        # no warning first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"on the time grid at T={T:g}") + "$"):
                time_factor(np.linspace(0.0, T, 33), T)


class TestWeightEvaluation:
    @pytest.fixture()
    def weights(self):
        return build_weights(make_power_coefficient(1.0), 1.0, 1.0, 0.3, 0.7)

    def test_exact_zero_at_time_endpoints(self, weights):
        xs = np.linspace(0, 1, 11)
        assert np.all(weights.weight_grid(0.0, xs, 2.0, 1.5) == 0.0)
        assert np.all(weights.weight_grid(1.0, xs, 2.0, 1.5) == 0.0)

    def test_plain_weight_lies_in_unit_interval(self, weights):
        rng = np.random.default_rng(0)
        t = rng.uniform(0.05, 0.95, 50)
        x = rng.uniform(0.0, 1.0, 50)
        for ti, xi in zip(t, x):
            v = weights.weight_grid(ti, xi, 1.0, 0.0)[0, 0]
            assert 0.0 <= v < 1.0

    def test_shared_grids_build_each_grid_once(self, weights):
        ts, xs = np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 7)
        plain = weights.weight_grid(ts, xs, 2.0, 1.5)
        with weights.shared_grids():
            first = weights.weight_grid(ts, xs, 2.0, 1.5)
            assert weights.weight_grid(ts.copy(), xs.copy(), 2.0, 1.5) is first
            assert weights.weight_grid(ts, xs, 2.0, 3.0) is not first
            assert not first.flags.writeable
        np.testing.assert_array_equal(first, plain)
        after = weights.weight_grid(ts, xs, 2.0, 1.5)
        assert after is not first and after.flags.writeable

    def test_overflowing_exponent_is_named(self):
        # at s = 1e300 the exponent 2*s*theta*(eta - c3) overflows: an error
        # naming s and lambda before any grid arithmetic, with no warning
        # first; the largest s whose exponents are finite still builds
        wts = build_weights(make_power_coefficient(1.5), 8.05, 0.0274, 0.4, 0.6)
        ts, xs = np.linspace(0.0, wts.T, 7), np.linspace(0.0, 1.0, 17)
        g = ts[1:-1] * (wts.T - ts[1:-1])
        edge = np.finfo(float).max / (g.min() ** -4 * -(wts.eta(xs) - wts.c3).min() * 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in (0.0, 1.0):
                for s in (1e300, float(np.nextafter(edge, np.inf))):
                    with pytest.raises(ValueError, match=re.escape(
                            f"overflows double precision at s={s:g}, lambda=8.05")):
                        wts.weight_grid(ts, xs, s, k)
                assert not wts.weight_grid(ts, xs, float(edge), k).any()

    def test_overflowing_weight_is_named(self):
        # at a small s the exponent 2*s*theta*(eta - c3) is tiny, but
        # k*log(sigma) passes the log of the largest double: an error naming
        # s, lambda and k, with no warning first.  The largest k that builds
        # reaches the largest double, so no weight that fits is refused.
        wts = build_weights(make_power_coefficient(1.5), 1.0, 1.0, 0.4, 0.6)
        ts, xs = np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 17)
        msg = "the weight exp(2*s*phi)*sigma**k overflows double precision at s=0.001, lambda=1, k="
        lo, hi = 0.0, 1000.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            while np.nextafter(lo, hi) < hi:
                mid = 0.5 * (lo + hi)
                try:
                    wts.weight_grid(ts, xs, 1e-3, mid)
                    lo = mid
                except ValueError as err:
                    assert str(err) == msg + f"{mid:g}"
                    hi = mid
            grid = wts.weight_grid(ts, xs, 1e-3, lo)
        assert 0.0 < lo < hi < 1000.0
        assert np.isfinite(grid).all() and grid.max() > 1e308

    def test_shared_keeps_one_value_per_key(self, weights):
        builds = []

        def build():
            builds.append(1)
            return np.arange(3.0)

        assert weights._memo("key", build) is not weights._memo("key", build)
        assert len(builds) == 2
        with weights.shared_grids():
            first = weights._memo("key", build)
            assert weights._memo("key", build) is first
            assert weights._memo("other", build) is not first
            assert not first.flags.writeable
        assert len(builds) == 4

    def test_nested_block_has_its_own_memo_and_restores_the_outer(self, weights):
        with weights.shared_grids():
            outer = weights._memo("key", lambda: np.arange(3.0))
            with weights.shared_grids():
                inner = weights._memo("key", lambda: np.arange(3.0))
                assert inner is not outer
            assert weights._memo("key", lambda: np.arange(3.0)) is outer
        assert weights._memo("key", lambda: np.arange(3.0)) is not outer

    @pytest.mark.parametrize("k", [0.0, 5.0 / 3.0, 3.0])
    @pytest.mark.parametrize("ordered", [True, False])
    def test_in_place_build_matches_formula(self, k, ordered):
        # the out-of-place chain the grid builder replaced
        def formula(w, ts, xs, s, k):
            interior = (ts > 0.0) & (ts < w.T)
            eta = w.eta(xs)
            em = eta - w.c3
            out = np.zeros((ts.size, xs.size))
            ti = ts[interior]
            g = ti * (w.T - ti)
            expo = 2.0 * s * np.outer(g**-4, em)
            if k > 0.0:
                log_sigma = -4.0 * np.log(g)[:, None] + np.log(eta)[None, :]
                expo = expo + k * log_sigma
            out[interior] = np.where(expo > -700.0, np.exp(expo), 0.0)
            return out

        w = build_weights(make_power_coefficient(1.5), 3.0, 2.0, 0.3, 0.7)
        ts = np.linspace(0.0, 2.0, 41)
        if not ordered:
            # interior rows split by an endpoint row: built in a buffer
            ts = np.concatenate([ts[20:], ts[:20]])
        xs = np.linspace(0.0, 1.0, 33)
        for s in (1e-6, 1e-4, 1e-3):
            grid = w.weight_grid(ts, xs, s, k)
            np.testing.assert_array_equal(grid, formula(w, ts, xs, s, k))
            assert not grid[ts == 0.0].any() and not grid[ts == 2.0].any()
        # the largest s clamps part, but not all, of the interior rows
        inner = grid[(ts > 0.0) & (ts < 2.0)]
        assert 0 < np.count_nonzero(inner) < inner.size

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 1.5])
    def test_exp_s_phi_grid_matches_its_own_clamp(self, gamma):
        # the body exp_s_phi_grid had before it became the weight grid of
        # s/2 and k = 0
        def own(w, ts, xs, s):
            interior = (ts > 0.0) & (ts < w.T)
            em = w.eta(xs) - w.c3
            out = np.zeros((ts.size, xs.size))
            if np.any(interior):
                ti = ts[interior]
                th = (ti * (w.T - ti)) ** -4
                expo = s * np.outer(th, em)
                out[interior] = np.where(expo > -700.0, np.exp(expo), 0.0)
            return out

        psi = PsiFunction(make_power_coefficient(gamma), 0.3, 0.7)
        for T in (0.5, 2.0, 10.0):
            for lam in (1.0, 2.0, 4.0):
                w = CarlemanWeights(psi, lam, T)
                ts = np.linspace(0.0, T, 33)
                for N in (16, 128, 512):
                    xs = (np.arange(N + 1) / N) ** 2.0
                    for s in (1e-3, 1e-1, 1.0, 1e2, 1e4, 1e6):
                        np.testing.assert_array_equal(
                            w.exp_s_phi_grid(ts, xs, s), own(w, ts, xs, s)
                        )

    def test_underflow_clamp(self, weights):
        # enormous s pushes the exponent below -700: exact zero, no subnormals
        assert weights.weight_grid(0.5, 0.5, 1e6, 0.0)[0, 0] == 0.0

    def test_extended_precision_oracle(self, weights):
        # 50-digit evaluation of the closed formula at a branch point
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        t, x, s, k = 0.5, 0.2, 1.0, 1.5
        lam = mpmath.mpf(weights.lam)
        psi_val = mpmath.mpf(0.2)  # left branch of the linear coefficient
        sup = mpmath.mpf(weights.psi_sup)
        theta = 1 / (mpmath.mpf(t) * (1 - mpmath.mpf(t))) ** 4
        eta = mpmath.e ** (lam * (sup + psi_val))
        phi = theta * (eta - mpmath.e ** (3 * lam * sup))
        sigma = theta * eta
        expected = float(mpmath.e ** (2 * s * phi) * sigma**k)
        got = weights.weight_grid(t, x, s, k)[0, 0]
        assert got == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_s(self, weights):
        # phi < 0 makes the weight nonincreasing in s pointwise
        xs = np.linspace(0, 1, 21)
        w1 = weights.weight_grid(0.4, xs, 1.0, 0.0)
        w2 = weights.weight_grid(0.4, xs, 2.0, 0.0)
        assert np.all(w2 <= w1 + 1e-300)

    def test_sigma_power_factorization(self, weights):
        # weight(k) / weight(0) = sigma^k wherever both are positive
        t, xs = 0.45, np.linspace(0.05, 0.95, 17)
        k = 1.7
        wk = weights.weight_grid(t, xs, 1.0, k)[0]
        w0 = weights.weight_grid(t, xs, 1.0, 0.0)[0]
        sig = sigma(weights, t, xs)
        mask = (wk > 0) & (w0 > 0)
        assert np.allclose(wk[mask] / w0[mask], sig[mask] ** k, rtol=1e-10)

    def test_phi_negative_everywhere(self, weights):
        rng = np.random.default_rng(3)
        t = rng.uniform(1e-3, 1.0 - 1e-3, 1000)
        x = rng.uniform(0.0, 1.0, 1000)
        for ti in (0.25, 0.5, 0.75):
            assert np.all(phi(weights, ti, x) < 0.0)
        vals = np.array(
            [phi(weights, float(ti), np.array([xi]))[0] for ti, xi in zip(t[:100], x[:100])]
        )
        assert np.all(vals < 0.0)

    def test_eta_and_sigma_bounds(self, weights):
        xs = np.linspace(0, 1, 101)
        eta = weights.eta(xs)
        assert np.all(eta >= 1.0 - 1e-12)
        t = 0.37
        sig = sigma(weights, t, xs)
        assert np.all(sig >= theta_time(weights, t) - 1e-12)

    def test_parameter_validation(self, weights):
        with pytest.raises(ValueError, match="s must be positive"):
            weights.weight_grid(0.5, 0.5, -1.0, 0.0)
        with pytest.raises(ValueError, match="k must be"):
            weights.weight_grid(0.5, 0.5, 1.0, -0.5)
        with pytest.raises(ValueError, match="lambda"):
            CarlemanWeights(weights.psi, -1.0, 1.0)


# one profile per coefficient band: the property draws lambda, T and the grids
_PROFILES = {gamma: PsiFunction(make_power_coefficient(gamma), 0.05, 0.9)
             for gamma in (0.5, 1.5)}


class TestVisibleRows:
    """``visible_rows`` is the one row test of the grid build: every row the
    build leaves nonzero is visible, so a window of the visible rows holds
    all of a grid."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        gamma=st.sampled_from([0.5, 1.5]),
        lam=st.floats(0.5, 6.0),
        T=st.floats(0.2, 20.0),
        M=st.integers(2, 64),
        faces=st.booleans(),
        k=st.one_of(st.sampled_from([0.0, 1.0, 5.0 / 3.0, 3.0]), st.floats(0.0, 4.0)),
        log_s=st.floats(-8.0, 8.0),
        # the row and the top exponent it is set to, within 1 of the clamp
        near=st.one_of(st.none(), st.tuples(st.floats(0.0, 1.0),
                                             st.floats(UNDERFLOW_EXPONENT - 2.0,
                                                       UNDERFLOW_EXPONENT + 1.0))),
    )
    def test_every_nonzero_row_is_visible(self, gamma, lam, T, M, faces, k, log_s, near):
        wts = CarlemanWeights(_PROFILES[gamma], lam, T)
        mesh = build_mesh(24, 2.0)
        xs = mesh.faces if faces else mesh.nodes
        ts = np.linspace(0.0, T, M + 1)
        s = 10.0**log_s
        if near is not None:
            # the s at which row r's top exponent, as the build forms it, is the target
            r = 1 + int(near[0] * (M - 2))
            g = ts[r] * (T - ts[r])
            eta = wts.eta(xs)
            log_part = k * (-4.0 * np.log(g) + np.log(eta).max()) if k > 0.0 else 0.0
            at = (near[1] - log_part) / (2.0 * g**-4 * (eta - wts.c3).max())
            s = at if 0.0 < at < np.inf else s
        try:
            visible = wts.visible_rows(ts, xs, s, k)
        except ValueError as err:
            # a refused request is refused by the build alike
            with pytest.raises(ValueError, match=re.escape(str(err))):
                wts.weight_grid(ts, xs, s, k)
            return
        grid = wts.weight_grid(ts, xs, s, k)
        nonzero = np.flatnonzero(grid.any(axis=1))
        assert np.isin(nonzero, visible).all()
        assert ((ts[visible] > 0.0) & (ts[visible] < T)).all()


class TestConfigRoundTrip:
    def test_default_window_placement(self):
        assert default_omega_prime((0.2, 0.6)) == (0.3, 0.5)
