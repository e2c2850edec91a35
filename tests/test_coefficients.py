import numpy as np
import pytest

from carleman_lab.coefficients import (
    Regime,
    classify,
    coefficient_from_descriptor,
    make_example_coefficient,
    make_power_coefficient,
    make_table_coefficient,
)


class TestPowerCoefficient:
    def test_vanishes_at_origin(self):
        coef = make_power_coefficient(0.5)
        assert coef.eval(np.array([0.0]))[0] == 0.0

    def test_unit_value_at_one(self):
        coef = make_power_coefficient(0.5)
        assert coef.eval(np.array([1.0]))[0] == 1.0

    def test_quarter_power_value(self):
        # 0.25**1.5 = (1/4)^(3/2) = 1/8 exactly
        coef = make_power_coefficient(1.5)
        assert coef.eval(np.array([0.25]))[0] == pytest.approx(0.125, abs=1e-15)

    @pytest.mark.parametrize("gamma", [-0.5, 0.0, 2.0, 2.2])
    def test_rejects_out_of_band_exponent(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            make_power_coefficient(gamma)

    def test_derivative_consistency_central_difference(self):
        # central differences agree with the analytic derivative at O(h^2)
        for gamma in (0.5, 1.0, 1.5):
            coef = make_power_coefficient(gamma)
            x = np.linspace(0.2, 0.9, 15)
            h = 1e-5
            fd = (coef.eval(x + h) - coef.eval(x - h)) / (2 * h)
            assert np.max(np.abs(fd - coef.eval_deriv(x))) < 1e-8


class TestExampleCoefficients:
    def test_power_cos_zero_angle_reduces_to_power(self):
        coef = make_example_coefficient("power_cos", gamma=0.5, alpha=0.0)
        x = np.linspace(0.0, 1.0, 33)
        assert np.allclose(coef.eval(x), x**0.5)

    def test_power_minus_x_classifies_weak(self):
        coef = make_example_coefficient("power_minus_x", theta=0.5)
        assert classify(coef).regime is Regime.WDC

    def test_power_plus_x_classifies_strong(self):
        coef = make_example_coefficient("power_plus_x", theta=1.5)
        assert classify(coef).regime is Regime.SDC

    @pytest.mark.parametrize(
        "kind,params,msg",
        [
            ("power_cos", {"gamma": 1.0}, "gamma"),
            ("power_cos", {"gamma": 0.5, "alpha": -1.0}, "alpha"),
            ("power_cos", {"gamma": 0.5, "alpha": float("nan")}, "a finite alpha >= 0, got nan"),
            ("power_cos", {"gamma": 0.5, "alpha": float("inf")}, "a finite alpha >= 0, got inf"),
            ("power", {"gamma": 2.2}, "power requires gamma in \\(0, 2\\), got 2.2"),
            ("power_minus_x", {"theta": 1.2}, "theta in \\(0, 1\\)"),
            ("power_plus_x", {"theta": 0.7}, "theta in \\(1, 2\\)"),
            ("no_such_kind", {}, "unknown"),
        ],
    )
    def test_rejects_out_of_range_parameters(self, kind, params, msg):
        with pytest.raises(ValueError, match=msg):
            make_example_coefficient(kind, **params)


class TestClassify:
    def test_pure_power_weak(self):
        # x a'/a = gamma exactly for pure powers
        rep = classify(make_power_coefficient(0.5))
        assert rep.regime is Regime.WDC
        assert rep.K_est == pytest.approx(0.5, abs=1e-10)
        assert rep.theta_hyp is None

    def test_pure_power_strong(self):
        rep = classify(make_power_coefficient(1.5))
        assert rep.regime is Regime.SDC
        assert rep.K_est == pytest.approx(1.5, abs=1e-9)
        assert rep.theta_hyp == pytest.approx(1.5, abs=1e-9)

    def test_linear_boundary_case(self):
        # ratio is identically 1; any bound below 1 works near zero
        rep = classify(make_power_coefficient(1.0))
        assert rep.regime is Regime.SDC
        assert rep.K_est == pytest.approx(1.0, abs=1e-12)
        assert rep.theta_hyp == pytest.approx(0.99)
        assert rep.boundary_case

    def test_validates_grid_size(self):
        with pytest.raises(ValueError, match="grid_size"):
            classify(make_power_coefficient(0.5), grid_size=32)

    def test_validates_neighborhood(self):
        with pytest.raises(ValueError, match="zero_neighborhood"):
            classify(make_power_coefficient(0.5), zero_neighborhood=0.7)

    def test_violation_for_nonintegrable_exponent(self):
        from carleman_lab.coefficients import DegeneracyCoefficient

        bad = DegeneracyCoefficient(
            label="x^2",
            eval=lambda x: np.asarray(x, float) ** 2,
            eval_deriv=lambda x: 2.0 * np.asarray(x, float),
        )
        assert classify(bad).regime is Regime.VIOLATION

    def test_regimes_match_for_random_parameters(self):
        rng = np.random.default_rng(1234)
        for _ in range(20):
            gamma = rng.uniform(0.05, 0.95)
            assert classify(make_power_coefficient(gamma)).regime is Regime.WDC
            gamma_s = rng.uniform(1.05, 1.95)
            assert classify(make_power_coefficient(gamma_s)).regime is Regime.SDC
            theta_w = rng.uniform(0.05, 0.95)
            rep = classify(make_example_coefficient("power_minus_x", theta=theta_w))
            assert rep.regime is Regime.WDC
            theta_s = rng.uniform(1.05, 1.95)
            rep = classify(make_example_coefficient("power_plus_x", theta=theta_s))
            assert rep.regime is Regime.SDC
            alpha = rng.uniform(0.0, 2.0)
            gcos = rng.uniform(0.05, 0.95)
            rep = classify(make_example_coefficient("power_cos", gamma=gcos, alpha=alpha))
            assert rep.regime is Regime.WDC
            gcos_s = rng.uniform(1.05, 1.95)
            rep = classify(make_example_coefficient("power_cos", gamma=gcos_s, alpha=alpha))
            assert rep.regime is Regime.SDC

    def test_k_estimate_grid_stable(self):
        for make in (
            lambda: make_power_coefficient(0.7),
            lambda: make_example_coefficient("power_minus_x", theta=0.5),
            lambda: make_example_coefficient("power_plus_x", theta=1.5),
            lambda: make_example_coefficient("power_cos", gamma=0.4, alpha=1.0),
        ):
            k1 = classify(make(), grid_size=2048).K_est
            k2 = classify(make(), grid_size=4096).K_est
            assert abs(k1 - k2) < 1e-6

    def test_strong_builtins_satisfy_near_zero_monotonicity(self):
        # a(x)/x^theta_hyp nondecreasing on the near-zero grid
        for coef in (
            make_power_coefficient(1.5),
            make_example_coefficient("power_plus_x", theta=1.3),
        ):
            rep = classify(coef)
            assert rep.regime is Regime.SDC
            x = np.logspace(-8, -2, 200)
            vals = coef.eval(x) / x**rep.theta_hyp
            assert np.all(np.diff(vals) >= -1e-9 * np.max(np.abs(vals)))


class TestCertifiedRatioBound:
    # K_est bounds x a'/a from above, so a(x)/x**K_est does not increase on
    # (0, 1]: the comparison the Hardy-type step draws from the certificate
    @pytest.mark.parametrize(
        "make",
        [
            lambda: make_power_coefficient(0.5),
            lambda: make_power_coefficient(1.0),
            lambda: make_power_coefficient(1.5),
            lambda: make_example_coefficient("power_minus_x", theta=0.5),
            lambda: make_example_coefficient("power_plus_x", theta=1.5),
            lambda: make_example_coefficient("power_cos", gamma=0.4, alpha=1.0),
        ],
        ids=["power_0.5", "power_1.0", "power_1.5", "power_minus_x", "power_plus_x",
             "power_cos"],
    )
    def test_a_over_power_of_bound_nonincreasing(self, make):
        coef = make()
        rep = classify(coef)
        assert rep.regime is not Regime.VIOLATION
        x = np.logspace(-8, 0, 1001)
        vals = coef.eval(x) / x**rep.K_est
        assert np.all(np.diff(vals) <= 1e-9 * np.max(np.abs(vals)))

    def test_exponent_below_the_bound_breaks_monotonicity(self):
        coef = make_power_coefficient(0.5)
        rep = classify(coef)
        x = np.logspace(-8, 0, 1001)
        vals = coef.eval(x) / x ** (0.5 * rep.K_est)
        assert np.all(np.diff(vals) > 0.0)


class TestDescriptors:
    def test_power_round_trip(self):
        coef = make_power_coefficient(0.75)
        clone = coefficient_from_descriptor(coef.descriptor)
        x = np.linspace(0, 1, 17)
        assert np.allclose(coef.eval(x), clone.eval(x))

    def test_example_round_trip(self):
        coef = make_example_coefficient("power_cos", gamma=0.4, alpha=1.5)
        clone = coefficient_from_descriptor(coef.descriptor)
        x = np.linspace(0, 1, 17)
        assert np.allclose(coef.eval(x), clone.eval(x))

    def test_table_coefficient_linear(self):
        # the interpolant reproduces a linear table exactly, including the
        # boundary-case certification of the unit ratio
        x = np.linspace(0.0, 1.0, 65)
        coef = make_table_coefficient(x, x.copy())
        rep = classify(coef)
        assert rep.regime is Regime.SDC
        assert rep.boundary_case
        assert rep.K_est == pytest.approx(1.0, abs=1e-9)

    def test_table_coefficient_interpolates_and_round_trips(self):
        # below the first knot the monotone-cubic interpolant is effectively
        # linear, so certification is about the interpolant, not the sampled
        # law; away from the origin the values match the table source
        x = (np.arange(65) / 64.0) ** 2
        coef = make_table_coefficient(x, x**0.5)
        probe = np.linspace(0.05, 0.95, 11)
        assert np.allclose(coef.eval(probe), probe**0.5, atol=2e-4)
        clone = coefficient_from_descriptor(coef.descriptor)
        assert np.allclose(coef.eval(probe), clone.eval(probe))

    def test_table_rejects_bad_input(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            make_table_coefficient([0.0, 0.5, 0.5, 1.0], [0.0, 0.1, 0.2, 0.3])
        with pytest.raises(ValueError, match="a\\(0\\) = 0"):
            make_table_coefficient([0.0, 0.3, 0.6, 1.0], [0.1, 0.2, 0.3, 0.4])
        with pytest.raises(ValueError, match="table a must hold only finite values"):
            make_table_coefficient([0.0, 0.3, 0.6, 1.0], [0.0, 1.0, np.nan, 3.0])
        with pytest.raises(ValueError, match="table x must hold only finite values"):
            make_table_coefficient([0.0, 0.3, 0.6, np.inf], [0.0, 1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="unknown coefficient descriptor"):
            coefficient_from_descriptor({"kind": "mystery"})
