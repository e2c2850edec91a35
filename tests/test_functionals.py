import math

import numpy as np
import pytest

import carleman_lab
from carleman_lab import coefficients, functionals, pde_solver
from carleman_lab.coefficients import (
    DegeneracyCoefficient,
    make_power_coefficient,
)
from carleman_lab.functionals import (
    HardyCase,
    aux_hardy_b,
    aux_hardy_p,
    hardy_ratio,
    spacetime_weighted_integral,
)
from carleman_lab.pde_solver import Trajectory, WeightedNorms, build_mesh
from carleman_lab.sampling import STREAM_TERMINAL, sample_fields
from carleman_lab.weights import build_weights


class TestWeightedNorms:
    def test_gradient_seminorm_closed_form(self):
        # a = x, u = x(1-x): integral of x (1-2x)^2 = 1/2 - 4/3 + 1 = 1/6
        mesh = build_mesh(512, 1.0)
        coef = make_power_coefficient(1.0)
        norms = WeightedNorms(mesh, coef)
        u = mesh.nodes * (1.0 - mesh.nodes)
        assert norms.h1a_semi_sq(u) == pytest.approx(1.0 / 6.0, rel=1e-4)

    def test_flux_laplacian_closed_form(self):
        # for the linear coefficient, (a u_x)_x of sin is pi cos - pi^2 x sin
        mesh = build_mesh(128, 2.0)
        norms = WeightedNorms(mesh, make_power_coefficient(1.0))
        u = np.sin(np.pi * mesh.nodes)
        lap = norms.flux_laplacian(u)
        xs = mesh.nodes[1:-1]
        exact = np.pi * np.cos(np.pi * xs) - np.pi**2 * xs * np.sin(np.pi * xs)
        assert np.max(np.abs(lap[1:-1] - exact)) < 2e-2

    @pytest.mark.parametrize("N", [2, 7, 64, 300])
    def test_stack_rows_have_the_bits_of_one_row(self, N):
        mesh = build_mesh(N, 2.0)
        norms = WeightedNorms(mesh, make_power_coefficient(0.5))
        stack = np.random.default_rng(N).standard_normal((5, mesh.nodes.size))
        for form in (norms.l2_sq, norms.h1a_semi_sq):
            got = form(stack)
            assert got.shape == (5,)
            assert got.tolist() == [float(form(row)) for row in stack]
            # a strided stack, as a column of time rows is, sums the same
            rows = np.stack([stack, stack], axis=1)[:, 0]
            assert form(rows).tolist() == got.tolist()

    def test_one_class_two_import_paths(self):
        assert carleman_lab.WeightedNorms is WeightedNorms is pde_solver.WeightedNorms
        assert "WeightedNorms" not in functionals.__all__


def _traj_of(field, mesh, T, M):
    ts = np.linspace(0.0, T, M + 1)
    vals = np.array([field(t, mesh.nodes) for t in ts])
    return Trajectory(vals, mesh, T)


class TestSpacetimeIntegral:
    # horizon 2 keeps the time factor of order one at mid-interval, so the
    # weighted masses stay far from the underflow clamp
    T = 2.0

    @pytest.fixture()
    def setup(self):
        coef = make_power_coefficient(0.5)
        weights = build_weights(coef, 1.0, self.T, 0.3, 0.7)
        mesh = build_mesh(96, 2.0)
        return coef, weights, mesh

    def test_zero_trajectory(self, setup):
        _, weights, mesh = setup
        traj = _traj_of(lambda t, x: 0.0 * x, mesh, self.T, 32)
        for integrand in ("v_sq", "a_vx_sq"):
            assert spacetime_weighted_integral(traj, weights, 1.0, 0.0, integrand) == 0.0

    def test_unit_source_positive_decreasing_in_s(self, setup):
        # oracle: refinement-converged quadrature; the plain weighted mass is
        # positive and shrinks pointwise as s grows
        _, weights, mesh = setup
        traj = _traj_of(lambda t, x: np.ones_like(x), mesh, self.T, 64)
        v1 = spacetime_weighted_integral(traj, weights, 1.0, 0.0, "v_sq")
        v2 = spacetime_weighted_integral(traj, weights, 2.0, 0.0, "v_sq")
        assert 0.0 < v2 < v1
        fine_mesh = build_mesh(192, 2.0)
        fine = _traj_of(lambda t, x: np.ones_like(x), fine_mesh, self.T, 128)
        v1f = spacetime_weighted_integral(fine, weights, 1.0, 0.0, "v_sq")
        assert v1 == pytest.approx(v1f, rel=2e-2)

    def test_region_additivity(self, setup):
        # the clipped cells make complementary intervals sum exactly
        _, weights, mesh = setup
        traj = _traj_of(lambda t, x: np.sin(np.pi * x) * (1 + t), mesh, self.T, 32)
        ap, bp = weights.psi.alpha_prime, weights.psi.beta_prime
        for integrand in ("v_sq", "a_vx_sq"):
            full = spacetime_weighted_integral(traj, weights, 1.0, 1.0, integrand)
            left, midw, right = (
                spacetime_weighted_integral(traj, weights, 1.0, 1.0, integrand, interval)
                for interval in ((0.0, ap), (ap, bp), (bp, 1.0))
            )
            assert left + midw + right == pytest.approx(full, rel=1e-12)

    @pytest.mark.parametrize("integrand", ["v_sq", "a_vx_sq"])
    def test_default_interval_is_the_unit_interval(self, setup, integrand):
        _, weights, mesh = setup
        traj = _traj_of(lambda t, x: np.sin(np.pi * x) * (1 + t), mesh, self.T, 32)
        full = spacetime_weighted_integral(traj, weights, 1.0, 1.0, integrand)
        unit = spacetime_weighted_integral(traj, weights, 1.0, 1.0, integrand, (0.0, 1.0))
        assert full == unit > 0.0

    @pytest.mark.parametrize("integrand", ["v_sq", "a_vx_sq"])
    @pytest.mark.parametrize("where", ["node", "inside_cell", "first_cell"])
    def test_cut_anywhere_adds_up(self, setup, integrand, where):
        # a cut on a node, off-centre inside a cell, or inside the cell at
        # the degenerate end splits the integral exactly
        _, weights, mesh = setup
        nodes = mesh.nodes
        cut = {
            "node": nodes[60],
            "inside_cell": 0.3 * nodes[60] + 0.7 * nodes[61],
            "first_cell": 0.4 * nodes[1],
        }[where]
        traj = _traj_of(lambda t, x: np.sin(np.pi * x) * (1 + t), mesh, self.T, 32)
        full = spacetime_weighted_integral(traj, weights, 1.0, 1.0, integrand)
        left = spacetime_weighted_integral(traj, weights, 1.0, 1.0, integrand, (0.0, cut))
        right = spacetime_weighted_integral(traj, weights, 1.0, 1.0, integrand, (cut, 1.0))
        assert left > 0.0 and right > 0.0
        assert left + right == pytest.approx(full, rel=1e-12)

    @pytest.mark.parametrize("integrand", ["v_sq", "a_vx_sq"])
    def test_empty_interval_is_zero(self, setup, integrand):
        _, weights, mesh = setup
        traj = _traj_of(lambda t, x: np.ones_like(x) * (1 + t), mesh, self.T, 16)
        c = 0.5 * (mesh.nodes[40] + mesh.nodes[41])
        assert spacetime_weighted_integral(traj, weights, 1.0, 1.0, integrand, (c, c)) == 0.0

    def test_horizon_mismatch_rejected(self, setup):
        _, weights, mesh = setup
        traj = _traj_of(lambda t, x: np.ones_like(x), mesh, 1.0, 8)
        with pytest.raises(ValueError, match="horizon"):
            spacetime_weighted_integral(traj, weights, 1.0, 0.0, "v_sq")

    def test_quadrature_converges_under_joint_refinement(self, setup):
        coef, weights, _ = setup
        vals = []
        for N in (64, 128, 256):
            mesh = build_mesh(N, 2.0)
            traj = _traj_of(lambda t, x: np.sin(np.pi * x), mesh, self.T, N)
            vals.append(spacetime_weighted_integral(traj, weights, 2.0, 1.5, "v_sq"))
        e1 = abs(vals[1] - vals[2])
        e0 = abs(vals[0] - vals[2])
        assert 0.0 < e1 < e0  # observed order >= 1


class TestHardyRatio:
    def test_analytic_unit_ratio(self):
        # a = x^{1/2}, w = x: both integrals equal 2/3
        coef = make_power_coefficient(0.5)
        mesh = build_mesh(2048, 2.0)
        rep = hardy_ratio(coef, mesh, mesh.nodes[None], HardyCase.CASE_A)
        assert rep["ratio"][0] == pytest.approx(1.0, abs=1e-6)
        assert rep["lhs"][0] == pytest.approx(2.0 / 3.0, abs=1e-5)

    def test_zero_field(self):
        coef = make_power_coefficient(0.5)
        mesh = build_mesh(64, 2.0)
        rep = hardy_ratio(coef, mesh, np.zeros((1, mesh.nodes.size)), HardyCase.CASE_A)
        # nothing to evaluate: NaN, never a ratio of 0.0
        assert rep["lhs"][0] == rep["rhs"][0] == 0.0
        assert math.isnan(rep["ratio"][0])
        assert not rep["violation"][0]

    def test_case_b_refinement_converged(self):
        # oracle: the ratio agrees across two resolutions
        coef = make_power_coefficient(1.5)
        vals = []
        for N in (256, 512):
            mesh = build_mesh(N, 2.0)
            w = 1.0 - mesh.nodes
            vals.append(hardy_ratio(coef, mesh, w[None], HardyCase.CASE_B)["ratio"][0])
        assert all(math.isfinite(v) for v in vals)
        assert vals[0] == pytest.approx(vals[1], rel=2e-2)

    def test_boundary_precondition(self):
        coef = make_power_coefficient(0.5)
        mesh = build_mesh(64, 2.0)
        with pytest.raises(ValueError, match="w\\(0\\) = 0"):
            hardy_ratio(coef, mesh, np.ones((1, mesh.nodes.size)), HardyCase.CASE_A)
        with pytest.raises(ValueError, match="w\\(1\\) = 0"):
            hardy_ratio(coef, mesh, np.ones((1, mesh.nodes.size)), HardyCase.CASE_B)

    def test_violation_flag(self):
        # contrived profile that is positive at the nodes but vanishes at
        # every face midpoint: gradient integral 0 with positive mass
        mesh = build_mesh(4, 1.0)

        def spiky(x):
            x = np.asarray(x, dtype=float)
            on_node = np.isclose(x * 4.0, np.round(x * 4.0))
            return np.where(on_node, x, 0.0)

        fake = DegeneracyCoefficient("spiky", spiky, lambda x: np.ones_like(x))
        w = np.ones(mesh.nodes.size)
        w[-1] = 0.0
        rep = hardy_ratio(fake, mesh, w[None], HardyCase.CASE_B)
        assert rep["violation"][0]
        assert math.isinf(rep["ratio"][0])

    def test_auxiliary_profiles(self):
        # K = 1 path: p = (a x^4)^(1/3) and b = sqrt(a) x for the linear
        # coefficient are x^{5/3} and x^{3/2}
        coef = make_power_coefficient(1.0)
        p = aux_hardy_p(coef)
        b = aux_hardy_b(coef)
        xs = np.linspace(0.01, 1.0, 9)
        assert np.allclose(p.eval(xs), xs ** (5.0 / 3.0))
        assert np.allclose(b.eval(xs), xs**1.5)
        mesh = build_mesh(256, 2.0)
        draws = sample_fields(11, STREAM_TERMINAL, 10, mesh.nodes)
        for rep in (hardy_ratio(p, mesh, draws, HardyCase.AUX_P),
                    hardy_ratio(b, mesh, draws, HardyCase.AUX_B)):
            assert np.isfinite(rep["ratio"]).all() and not rep["violation"].any()

    def test_square_over_coefficient_bound(self):
        # x^2/a(x) <= 1/a(1) on grids for the admissible family
        for gamma in (0.5, 1.0, 1.5):
            coef = make_power_coefficient(gamma)
            x = np.logspace(-8, 0, 300)
            assert np.all(x * x / coef.eval(x) <= 1.0 / coef.eval(np.array([1.0]))[0] + 1e-12)

    def test_empirical_max_mesh_stable(self):
        coef = make_power_coefficient(0.5)
        maxima = []
        for N in (128, 256):
            mesh = build_mesh(N, 2.0)
            draws = sample_fields(11, STREAM_TERMINAL, 30, mesh.nodes)
            maxima.append(max(hardy_ratio(coef, mesh, draws, HardyCase.CASE_A)["ratio"]))
        assert abs(maxima[1] - maxima[0]) / maxima[0] < 0.10


class TestStackedHardy:
    @pytest.mark.parametrize(
        "gamma, profile, case",
        [
            (0.5, None, HardyCase.CASE_A),
            (1.5, None, HardyCase.CASE_B),
            (1.0, aux_hardy_p, HardyCase.AUX_P),
            (1.0, aux_hardy_b, HardyCase.AUX_B),
        ],
    )
    @pytest.mark.parametrize("grading", [1.0, 2.0])
    def test_matches_per_sample_reports(self, gamma, profile, case, grading):
        coef = make_power_coefficient(gamma)
        target = coef if profile is None else profile(coef)
        mesh = build_mesh(96, grading)
        draws = sample_fields(11, STREAM_TERMINAL, 7, mesh.nodes)
        draws[3] = 0.0  # zero gradient: both integrals vanish
        stacked = hardy_ratio(target, mesh, draws, case)
        assert list(stacked) == ["lhs", "rhs", "ratio", "violation"]
        assert all(col.shape == (7,) for col in stacked.values())
        assert math.isnan(stacked["ratio"][3]) and not stacked["violation"][3]
        # each row of a stack gives the bits it would have alone
        for i in range(7):
            one = hardy_ratio(target, mesh, draws[i:i + 1], case)
            for k in stacked:
                # NaN equals NaN here: the zero row's ratio
                np.testing.assert_array_equal(stacked[k][i], one[k][0])

    def test_needs_no_certificate(self, monkeypatch):
        # classify is the one certifier of the ratio bound: the Hardy
        # ratios compute their two integrals and nothing else
        def refuse(*args, **kwargs):
            raise AssertionError("hardy_ratio must not classify")

        monkeypatch.setattr(coefficients, "classify", refuse)
        monkeypatch.setattr(functionals, "classify", refuse, raising=False)
        mesh = build_mesh(32, 2.0)
        draws = sample_fields(11, STREAM_TERMINAL, 3, mesh.nodes)
        cols = hardy_ratio(make_power_coefficient(0.5), mesh, draws, HardyCase.CASE_A)
        assert cols["ratio"].shape == (3,)
        assert np.isfinite(cols["ratio"]).all() and not cols["violation"].any()

    def test_one_bad_row_rejects_the_stack(self):
        coef = make_power_coefficient(0.5)
        mesh = build_mesh(32, 2.0)
        ws = sample_fields(11, STREAM_TERMINAL, 3, mesh.nodes)
        ws[2, 0] = 1.0
        with pytest.raises(ValueError, match="case A needs w"):
            hardy_ratio(coef, mesh, ws, HardyCase.CASE_A)
        with pytest.raises(ValueError, match="must match the mesh"):
            hardy_ratio(coef, mesh, ws[:, 1:], HardyCase.CASE_A)
