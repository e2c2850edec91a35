import contextlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from carleman_lab import carleman
from carleman_lab.carleman import (
    CarlemanReport,
    _observability_energies,
    boundary_sign_terms,
    carleman_sides,
    carleman_sweep,
    identity_residual,
    observability_ratio,
    stable_s0,
    standard_identity_fields,
    transform_to_w,
)
from carleman_lab.coefficients import classify, make_power_coefficient
from carleman_lab.pde_solver import (
    ProblemSpec,
    Trajectory,
    _adjoint_march,
    boundary_regime_for,
    build_mesh,
    _clipped_cell_lengths,
    _clipped_node_quadrature,
    solve_adjoint,
    trapezoid_time_weights,
)
from carleman_lab import functionals, weights
from carleman_lab.sampling import STREAM_SOURCE, STREAM_TERMINAL, sample_fields
from carleman_lab.weights import CarlemanWeights, PsiFunction, build_weights
from oracles import boundary_sign_term


def make_spec(gamma=0.5, N=64, M=48, T=2.0, omega=(0.3, 0.7)):
    coef = make_power_coefficient(gamma)
    rep = classify(coef)
    return ProblemSpec(
        T=T,
        coef=coef,
        regime=boundary_regime_for(rep),
        mesh=build_mesh(N, 2.0),
        time_steps=M,
        omega=omega,
        hypothesis=rep,
    )


class TestParams:
    """s is checked where the weight grids are built, and lambda where the
    weights are built, which every kernel reads it from."""

    @pytest.mark.parametrize("s", [0.0, -1.0, math.inf, math.nan])
    @pytest.mark.parametrize("kernel", ["weight_grid", "exp_s_phi_grid", "identity_residual"])
    def test_rejects_s(self, kernel, s):
        # exp_s_phi_grid once returned an all-zero grid at NaN, all-ones
        # interior rows at 0 and inf with an overflow warning at -1
        wts = build_weights(make_power_coefficient(1.0), 1.0, 2.0, 0.4, 0.6)
        ts, xs = np.linspace(0.0, 2.0, 9), np.linspace(0.0, 1.0, 9)
        call = {
            "weight_grid": lambda: wts.weight_grid(ts, xs, s, 1.0),
            "exp_s_phi_grid": lambda: wts.exp_s_phi_grid(ts, xs, s),
            "identity_residual": lambda: identity_residual(
                standard_identity_fields(2.0, True)[0], wts, s, 8
            ),
        }[kernel]
        with pytest.raises(ValueError, match=f"^s must be positive and finite, got {s}$"):
            call()

    @pytest.mark.parametrize("lam, msg", [
        (-2.0, "lambda must be positive, got -2.0"),
        (math.inf, "exp(3*lambda*sup psi) overflows double precision at lambda=inf"),
        (math.nan, "lambda must be positive, got nan"),
    ])
    def test_rejects_lambda(self, lam, msg):
        with pytest.raises(ValueError, match="^" + re.escape(msg) + "$"):
            build_weights(make_power_coefficient(1.0), lam, 2.0, 0.4, 0.6)


class TestTrajectoryRank:
    """Each kernel names the trajectory shape it takes: one (M+1, N+1)
    trajectory, or for the boundary terms a stack (S, M+1, N+1)."""

    ONE = "the values must be one trajectory (M+1, N+1), N+1 = 17; got shape "
    STACK = "the values must be a stack (S, M+1, N+1), N+1 = 17; got shape "

    def _setup(self):
        spec = make_spec(N=16, M=16)
        wts = build_weights(spec.coef, 1.0, spec.T, 0.4, 0.6)
        stack = solve_adjoint(spec, sample_fields(3, STREAM_TERMINAL, 2, spec.mesh.nodes))
        return spec, wts, stack, Trajectory(stack.values[0], spec.mesh, spec.T)

    def test_carleman_sides_refuses_a_stack(self):
        # S - 1 was read as M: four zero sides and a degenerate report
        spec, wts, stack, _ = self._setup()
        with pytest.raises(ValueError, match=re.escape(self.ONE + "(2, 17, 17)")):
            carleman_sides(stack, None, spec.omega, wts, 1.0)

    def test_transform_to_w_refuses_a_stack(self):
        # numpy's broadcast error, which named no shape the kernel takes
        _, wts, stack, _ = self._setup()
        with pytest.raises(ValueError, match=re.escape(self.ONE + "(2, 17, 17)")):
            transform_to_w(stack, wts, 1.0)

    def test_boundary_sign_terms_refuses_one_trajectory(self):
        # an IndexError on the stack axis
        _, wts, stack, one = self._setup()
        with pytest.raises(ValueError, match=re.escape(self.STACK + "(17, 17)")):
            boundary_sign_terms(one, wts, 1.0)
        term, scale = boundary_sign_terms(stack, wts, 1.0)
        assert term.shape == scale.shape == (2,)

    def test_node_axis_must_match_the_mesh(self):
        # boundary_sign_terms read the edge columns of a grid one node short
        # and returned a term
        spec, wts, stack, one = self._setup()
        short = Trajectory(stack.values[..., :-1], spec.mesh, spec.T)
        with pytest.raises(ValueError, match=re.escape(self.STACK + "(2, 17, 16)")):
            boundary_sign_terms(short, wts, 1.0)
        short = Trajectory(one.values[:, :-1], spec.mesh, spec.T)
        with pytest.raises(ValueError, match=re.escape(self.ONE + "(17, 16)")):
            carleman_sides(short, None, spec.omega, wts, 1.0)
        with pytest.raises(ValueError, match=re.escape(self.ONE + "(17, 16)")):
            transform_to_w(short, wts, 1.0)


class TestIdentityResidual:
    def test_zero_field(self):
        wts = build_weights(make_power_coefficient(1.0), 1.0, 2.0, 0.4, 0.6)
        fields = standard_identity_fields(2.0, True)
        zero = fields[0]
        from carleman_lab.carleman import SpaceTimeField

        zf = SpaceTimeField(
            name="zero",
            w=lambda t, x: 0.0 * (t + x),
            w_t=lambda t, x: 0.0 * (t + x),
            w_x=lambda t, x: 0.0 * (t + x),
            w_xx=lambda t, x: 0.0 * (t + x),
            dirichlet_at_zero=True,
        )
        assert identity_residual(zf, wts, 1.0, 32) == 0.0

    def test_decreases_under_refinement(self):
        # one representative case; the acceptance suite covers the cross
        wts = build_weights(make_power_coefficient(1.0), 1.0, 2.0, 0.4, 0.6)
        f = standard_identity_fields(2.0, True)[0]
        s = 1.0
        r64 = identity_residual(f, wts, s, 64)
        r128 = identity_residual(f, wts, s, 128)
        assert r128 < r64

    def test_boundary_violating_field_rejected(self):
        from carleman_lab.carleman import SpaceTimeField

        wts = build_weights(make_power_coefficient(1.0), 1.0, 2.0, 0.4, 0.6)
        q = lambda t: (t * (2.0 - t) / 1.0) ** 7

        bad = SpaceTimeField(
            name="bad",
            w=lambda t, x: q(t) * np.cos(np.pi * x),  # nonzero at x = 0
            w_t=lambda t, x: q(t) * np.cos(np.pi * x),
            w_x=lambda t, x: -np.pi * q(t) * np.sin(np.pi * x),
            w_xx=lambda t, x: -np.pi**2 * q(t) * np.cos(np.pi * x),
            dirichlet_at_zero=True,
        )
        with pytest.raises(ValueError, match="value condition"):
            identity_residual(bad, wts, 1.0, 32)

    def test_nonvanishing_time_endpoint_rejected(self):
        from carleman_lab.carleman import SpaceTimeField

        wts = build_weights(make_power_coefficient(1.0), 1.0, 2.0, 0.4, 0.6)
        bad = SpaceTimeField(
            name="bad_t",
            w=lambda t, x: np.sin(np.pi * x) * np.ones_like(t + x),
            w_t=lambda t, x: 0.0 * (t + x),
            w_x=lambda t, x: np.pi * np.cos(np.pi * x) * np.ones_like(t + x),
            w_xx=lambda t, x: -np.pi**2 * np.sin(np.pi * x) * np.ones_like(t + x),
            dirichlet_at_zero=True,
        )
        with pytest.raises(ValueError, match="time endpoints"):
            identity_residual(bad, wts, 1.0, 32)

    def test_needs_an_interior_time_level(self):
        # resolution 1 keeps only the two endpoint levels, where theta is
        # zero, so every term would vanish and the residual would read 0.0
        wts = build_weights(make_power_coefficient(1.0), 1.0, 2.0, 0.4, 0.6)
        f = standard_identity_fields(2.0, True)[0]
        s = 1.0
        with pytest.raises(ValueError, match="resolution >= 2"):
            identity_residual(f, wts, s, 1)
        assert identity_residual(f, wts, s, 2) > 0.0

    @pytest.mark.parametrize("T", [3e22, 1e40, 1e100])
    def test_envelope_overflow_names_T(self, T):
        msg = f"the time envelope's peak (T*T/4)**7 overflows double precision at T={T:g}"
        with pytest.raises(ValueError, match="^" + re.escape(msg) + "$"):
            standard_identity_fields(T, True)

    @pytest.mark.parametrize("T", [1e-20, 1e-18])
    def test_theta_cube_overflow_names_T_not_s_or_lambda(self, T):
        # theta is representable on the grid, its cube is not, whatever s and lambda are
        wts = build_weights(make_power_coefficient(1.0), 1.0, T, 0.4, 0.6)
        f = standard_identity_fields(T, True)[0]
        msg = f"theta**3 overflows double precision at T={T:g}"
        with pytest.raises(ValueError, match="^" + re.escape(msg) + "$"):
            identity_residual(f, wts, 1.0, 32)


class TestTransform:
    def test_zero_trajectory(self):
        spec = make_spec()
        wts = build_weights(spec.coef, 1.0, spec.T, 0.4, 0.6)
        traj = solve_adjoint(spec, np.zeros(spec.mesh.nodes.size))
        wt = transform_to_w(traj, wts, 1.0)
        assert np.all(wt.w == 0.0)
        assert np.all(wt.l_plus == 0.0)
        assert np.all(wt.l_minus == 0.0)

    def test_vanishes_at_time_endpoints(self):
        spec = make_spec()
        wts = build_weights(spec.coef, 1.0, spec.T, 0.4, 0.6)
        vt = np.sin(np.pi * spec.mesh.nodes)
        traj = solve_adjoint(spec, vt)
        wt = transform_to_w(traj, wts, 1.0)
        assert np.all(wt.w[0] == 0.0)
        assert np.all(wt.w[-1] == 0.0)

    def test_round_trip_above_underflow(self):
        spec = make_spec()
        wts = build_weights(spec.coef, 1.0, spec.T, 0.4, 0.6)
        vt = np.sin(np.pi * spec.mesh.nodes)
        traj = solve_adjoint(spec, vt)
        s = 1.0
        wt = transform_to_w(traj, wts, s)
        E = wts.exp_s_phi_grid(traj.times, spec.mesh.nodes, s)
        mask = E > 1e-250
        recovered = np.where(mask, wt.w / np.where(mask, E, 1.0), 0.0)
        assert np.allclose(recovered[mask], traj.values[mask], rtol=1e-12, atol=1e-300)

    def test_operator_sum_matches_weighted_source(self):
        # residual of the conjugated equation shrinks under refinement when
        # the trajectory solves the source-free backward problem
        norms = []
        for N in (48, 96):
            spec = make_spec(gamma=1.0, N=N, M=N)
            wts = build_weights(spec.coef, 1.0, spec.T, 0.4, 0.6)
            vt = np.sin(np.pi * spec.mesh.nodes)
            traj = solve_adjoint(spec, vt)
            wt = transform_to_w(traj, wts, 1.0)
            resid = wt.l_plus + wt.l_minus
            scale = np.max(np.abs(wt.w)) + 1e-300
            norms.append(np.sqrt(np.mean(resid**2)) / scale)
        assert norms[1] < norms[0]


class TestBoundarySign:
    def test_zero_field(self):
        spec = make_spec()
        wts = build_weights(spec.coef, 1.0, spec.T, 0.4, 0.6)
        traj = solve_adjoint(spec, np.zeros(spec.mesh.nodes.size))
        wt = transform_to_w(traj, wts, 1.0)
        term, _ = boundary_sign_term(wt, wts, 1.0)
        assert term == 0.0

    @pytest.mark.parametrize("gamma", [0.5, 1.5])
    def test_nonnegative_over_draws(self, gamma):
        spec = make_spec(gamma=gamma, N=64, M=64)
        wts = build_weights(spec.coef, 1.0, spec.T, 0.4, 0.6)
        s = 1.0
        vts = sample_fields(5, STREAM_TERMINAL, 8, spec.mesh.nodes)
        for i in range(8):
            traj = solve_adjoint(spec, vts[i])
            wt = transform_to_w(traj, wts, s)
            term, scale = boundary_sign_term(wt, wts, s)
            assert term >= -1e-8 * scale


class TestBoundarySignTerms:
    # at gamma = 1.5 exp(s*phi) underflows at both ends from s = 10 on, so
    # that case takes s = 5, where the term is still data
    @pytest.mark.parametrize("s,gamma", [
        (1.0, 0.5), (50.0, 0.5), (1.0, 1.0), (50.0, 1.0), (1.0, 1.5), (5.0, 1.5),
    ])
    @pytest.mark.parametrize("M", [16, 128, 513])
    def test_stack_equals_the_per_sample_transform(self, gamma, s, M):
        spec = make_spec(gamma=gamma, N=40, M=M)
        wts = build_weights(spec.coef, 1.0, spec.T, 0.4, 0.6)
        vts = sample_fields(11, STREAM_TERMINAL, 5, spec.mesh.nodes)
        rows = _adjoint_march(spec, vts)
        term, scale = boundary_sign_terms(Trajectory(rows, spec.mesh, spec.T), wts, s)
        assert term.shape == scale.shape == (5,)
        # no case compares terms that underflowed
        assert np.all(scale >= carleman.DEGENERATE_DENOMINATOR), scale
        for i, r in enumerate(rows):
            wt = transform_to_w(Trajectory(r, spec.mesh, spec.T), wts, s)
            assert (term[i], scale[i]) == boundary_sign_term(wt, wts, s)

    def test_transform_calls_replaced_by_one_weight(self, monkeypatch):
        # one exp(s*phi) grid for the whole stack, and no full transform
        calls = []
        original = CarlemanWeights.exp_s_phi_grid

        def counted(self, ts, xs, s):
            calls.append(s)
            return original(self, ts, xs, s)

        monkeypatch.setattr(CarlemanWeights, "exp_s_phi_grid", counted)
        spec = make_spec(N=24, M=16)
        wts = build_weights(spec.coef, 1.0, spec.T, 0.4, 0.6)
        boundary_sign_terms(
            solve_adjoint(spec, sample_fields(2, STREAM_TERMINAL, 6, spec.mesh.nodes)), wts, 1.0
        )
        assert calls == [1.0]


def _sides(spec, vt, f, wts, s):
    """carleman_sides of the backward solution from vt under the source f,
    one nodal row constant in time."""
    traj = solve_adjoint(spec, vt, F=f)
    return carleman_sides(traj, f, spec.omega, wts, s)


class TestCarlemanSides:
    def test_zero_sample_degenerate(self):
        spec = make_spec()
        wts = build_weights(spec.coef, 2.0, spec.T, 0.4, 0.6)
        rep = carleman_sides(
            solve_adjoint(spec, np.zeros(spec.mesh.nodes.size)),
            None,
            spec.omega,
            wts,
            stable_s0(wts),
        )
        assert rep.degenerate
        assert math.isnan(rep.ratio)

    def test_source_scaling_linearity(self):
        # doubling the source multiplies its square by 4 and the solution by
        # 2, leaving the ratio invariant
        spec = make_spec(N=48, M=48)
        wts = build_weights(spec.coef, 2.0, spec.T, 0.4, 0.6)
        s = stable_s0(wts)
        f_row = np.sin(2 * np.pi * spec.mesh.nodes)
        zero_vt = np.zeros(spec.mesh.nodes.size)
        r1 = _sides(spec, zero_vt, f_row, wts, s)
        r2 = _sides(spec, zero_vt, 2.0 * f_row, wts, s)
        assert r2.rhs_source == pytest.approx(4.0 * r1.rhs_source, rel=1e-12)
        assert r2.ratio == pytest.approx(r1.ratio, rel=1e-8)

    def test_finite_ratio_two_resolutions(self):
        # oracle: the full pipeline at two resolutions agrees within 10%
        vals = []
        for N in (64, 128):
            spec = make_spec(N=N, M=N, T=10.0, omega=(0.02, 0.95))
            wts = build_weights(spec.coef, 2.0, spec.T, 0.05, 0.9)
            s = stable_s0(wts)
            vt = np.sin(np.pi * spec.mesh.nodes)
            rep = _sides(spec, vt, np.sin(2 * np.pi * spec.mesh.nodes), wts, s)
            assert math.isfinite(rep.ratio)
            vals.append(rep.ratio)
        assert abs(vals[1] - vals[0]) / vals[0] < 0.10

    @pytest.mark.parametrize("gamma", [0.5, 1.5])
    def test_same_inside_and_outside_shared_grids(self, gamma):
        spec = make_spec(gamma=gamma, N=32, M=24, T=10.0, omega=(0.02, 0.95))
        wts = build_weights(spec.coef, 2.0, spec.T, 0.05, 0.9)
        vt = np.sin(np.pi * spec.mesh.nodes)
        f_row = np.cos(3.0 * spec.mesh.nodes)
        traj = solve_adjoint(spec, vt, F=f_row)
        tiled = Trajectory(np.tile(f_row, (traj.values.shape[0], 1)), spec.mesh, spec.T)
        for s_rel in (1.0, 16.0):
            s = s_rel * stable_s0(wts)
            calls = [
                lambda: _sides(spec, vt, f_row, wts, s),
                lambda: carleman_sides(traj, f_row, spec.omega, wts, s),
            ]
            outside = [call() for call in calls]
            with wts.shared_grids():
                inside = [call() for call in calls] + [call() for call in calls]
            assert inside == outside + outside
            # the source row goes through the column sums of its grid: the
            # integral of the row tiled over the time levels
            assert outside[1].rhs_source == pytest.approx(
                functionals.spacetime_weighted_integral(tiled, wts, s, 0.0, "v_sq"),
                rel=1e-13, abs=0.0,
            )
            assert outside[0] == outside[1]


    def test_source_must_share_the_trajectory_grid(self):
        spec = make_spec(N=24, M=16)
        wts = build_weights(spec.coef, 2.0, spec.T, 0.4, 0.6)
        traj = solve_adjoint(spec, np.sin(np.pi * spec.mesh.nodes))
        s = stable_s0(wts)
        for f in (spec.mesh.nodes[1:], np.ones((spec.time_steps, spec.mesh.nodes.size))):
            with pytest.raises(ValueError, match="one nodal row"):
                carleman_sides(traj, f, spec.omega, wts, s)

    def test_two_dimensional_source_raises_by_name(self):
        # a source on the trajectory's time levels, tiled or broadcast, is not
        # read: the source is one nodal row, constant in time
        spec = make_spec(N=24, M=16)
        wts = build_weights(spec.coef, 2.0, spec.T, 0.4, 0.6)
        traj = solve_adjoint(spec, np.sin(np.pi * spec.mesh.nodes))
        s = stable_s0(wts)
        row = np.cos(spec.mesh.nodes)
        for f in (np.tile(row, (17, 1)), np.broadcast_to(row, (17, 25)), row[None]):
            with pytest.raises(ValueError, match=re.escape(
                f"the source must be one nodal row (25,), constant in time; got shape {f.shape}"
            )):
                carleman_sides(traj, f, spec.omega, wts, s)


class TestSweep:
    def test_one_profile_per_sweep(self, monkeypatch):
        # psi does not depend on lambda: one profile, one weight bundle per lambda
        profiles, bundles = [], []
        original_psi, original_weights = PsiFunction.__init__, CarlemanWeights.__init__

        def psi_init(self, *args, **kwargs):
            profiles.append(args)
            original_psi(self, *args, **kwargs)

        def weights_init(self, psi, lam, T):
            bundles.append((id(psi), lam))
            original_weights(self, psi, lam, T)

        monkeypatch.setattr(PsiFunction, "__init__", psi_init)
        monkeypatch.setattr(CarlemanWeights, "__init__", weights_init)
        spec = make_spec(N=24, M=16, T=10.0, omega=(0.02, 0.95))
        carleman_sweep(spec, 2, [1.0, 2.0], [2.0, 3.0, 4.0], seed=1,
                       omega_prime=(0.05, 0.9), s_relative=True)
        assert len(profiles) == 1
        assert [lam for _, lam in bundles] == [2.0, 3.0, 4.0]
        assert len({psi for psi, _ in bundles}) == 1

    def test_single_point_single_sample(self):
        spec = make_spec(N=32, M=32, T=10.0, omega=(0.02, 0.95))
        res = carleman_sweep(
            spec, 1, [1.0], [2.0], seed=3, omega_prime=(0.05, 0.9), s_relative=True
        )
        assert all(col.shape == (1,) for col in res.table.values())
        assert all(col.shape == (1,) for col in res.points.values())
        assert res.summary["excluded_count"] == 0
        assert math.isfinite(res.summary["empirical_C"])

    def test_deterministic_given_seed(self):
        spec = make_spec(N=32, M=32, T=10.0, omega=(0.02, 0.95))
        kw = dict(s_grid=[1.0, 2.0], lambda_grid=[2.0], seed=11, omega_prime=(0.05, 0.9), s_relative=True)
        r1 = carleman_sweep(spec, 3, **kw)
        r2 = carleman_sweep(spec, 3, **kw)
        assert r1.table.keys() == r2.table.keys()
        for k in r1.table:
            assert r1.table[k].tobytes() == r2.table[k].tobytes()
        assert r1.summary["config_sha256"] == r2.summary["config_sha256"]

    @pytest.mark.parametrize("n_samples", [3, 4])
    def test_median_ratio_matches_numpy(self, n_samples):
        spec = make_spec(N=32, M=32, T=10.0, omega=(0.02, 0.95))
        res = carleman_sweep(
            spec, n_samples, [1.0, 2.0], [2.0], seed=5, omega_prime=(0.05, 0.9),
            s_relative=True,
        )
        p = res.points
        for s, n_valid, median in zip(p["s"], p["n_valid"], p["median_ratio"]):
            ratios = res.table["ratio"][res.table["s"] == s]
            assert n_valid == n_samples
            assert median == float(np.median(ratios))

    def test_validates_arguments(self):
        spec = make_spec(N=32, M=32)
        with pytest.raises(ValueError, match="sample"):
            carleman_sweep(spec, 0, [1.0], [2.0], seed=0)
        with pytest.raises(ValueError, match="nonempty"):
            carleman_sweep(spec, 1, [], [2.0], seed=0)

    def test_all_degenerate_reports_nan(self):
        # s = 1e6 at lambda = 50 flushes every weight of the strong band to
        # zero, so no sample is evaluable at the only point
        spec = make_spec(gamma=1.5, N=32, M=32)
        res = carleman_sweep(spec, 3, [1e6], [50.0], seed=0, s_relative=False)
        assert res.summary["excluded_count"] == 3
        assert res.points["n_degenerate"].tolist() == [3]
        assert math.isnan(res.summary["empirical_C"])

    def test_point_statistics_over_the_valid_samples(self, monkeypatch):
        # prescribed reports, in call order: per point the max and median
        # of the valid ratios and the three counts, as a per-point loop of
        # np.max and np.median gives them
        nan, inf = math.nan, math.inf
        ratios = [
            [3.0, nan, 1.0, inf, 2.0],  # one degenerate, one infinite
            [nan] * 5,  # every sample degenerate
            [4.0, 1.0, nan, 2.0, 5.0],  # one NaN ratio, an even count left
        ]
        degenerate = [[False, True, False, False, False], [True] * 5, [False] * 5]
        reports = iter(
            CarlemanReport(1.0, 2.0, 3.0, 4.0, r, d)
            for row, flags in zip(ratios, degenerate) for r, d in zip(row, flags)
        )
        monkeypatch.setattr(carleman, "carleman_sides", lambda *args: next(reports))
        spec = make_spec(N=16, M=8)
        res = carleman_sweep(spec, 5, [1.0, 2.0, 3.0], [2.0], seed=0, s_relative=False)
        assert next(reports, None) is None
        table, p = res.table, res.points
        assert table["sample"].tolist() == list(range(5)) * 3
        assert table["s"].tolist() == [1.0] * 5 + [2.0] * 5 + [3.0] * 5
        assert table["lambda"].tolist() == [2.0] * 15
        np.testing.assert_array_equal(table["ratio"], np.ravel(ratios))
        assert table["rhs_local"].tolist() == [4.0] * 15
        assert p["n_valid"].tolist() == [3, 0, 4]
        assert p["n_degenerate"].tolist() == [1, 5, 0]
        assert p["n_nonfinite"].tolist() == [1, 0, 1]
        np.testing.assert_array_equal(p["max_ratio"], [3.0, nan, 5.0])
        np.testing.assert_array_equal(p["median_ratio"], [2.0, nan, 3.0])
        assert p["median_ratio"][[0, 2]].tolist() == [
            float(np.median([3.0, 1.0, 2.0])), float(np.median([4.0, 1.0, 2.0, 5.0]))
        ]
        assert res.summary["empirical_C"] == 5.0
        assert res.summary["excluded_count"] == 8

    @pytest.mark.parametrize("gamma", [0.5, 1.5])
    def test_batched_matches_per_sample_formula(self, gamma):
        # reference: the per-call formula, one weight grid and one einsum per
        # sample and integral, with the source tiled over time
        spec = make_spec(gamma=gamma, N=32, M=24, T=10.0, omega=(0.02, 0.95))
        nodes, faces = spec.mesh.nodes, spec.mesh.faces
        assert not np.isin(spec.omega, nodes).any()  # omega clips its end cells
        q, n, seed = 5.0 / 3.0, 3, 4
        kw = dict(omega_prime=(0.05, 0.9), s_relative=True, zero_order_exponent=q)
        res = carleman_sweep(spec, n, [1.0, 4.0], [2.0, 3.0], seed, **kw)

        vts = sample_fields(seed, STREAM_TERMINAL, n, nodes)
        fs = sample_fields(seed, STREAM_SOURCE, n, nodes)
        vals = _adjoint_march(spec, vts, fs)
        ts = np.linspace(0.0, spec.T, spec.time_steps + 1)
        tw = trapezoid_time_weights(spec.T, spec.time_steps)
        xw_q = _clipped_node_quadrature(nodes, 0.0, 1.0)
        xw_omega = _clipped_node_quadrature(nodes, *spec.omega)
        lens = _clipped_cell_lengths(nodes, 0.0, 1.0)
        a_faces = np.asarray(spec.coef.eval(faces), dtype=float)
        ref = []
        for lam in (2.0, 3.0):
            wts = build_weights(spec.coef, lam, spec.T, 0.05, 0.9)
            for s in (1.0 * stable_s0(wts), 4.0 * stable_s0(wts)):
                sl = s * lam
                for i in range(n):
                    v = vals[i]
                    grads = np.diff(v, axis=1) / spec.mesh.spacings[None, :]
                    f = np.tile(fs[i], (spec.time_steps + 1, 1))

                    def integral(xs, k, field, xw):
                        grid = wts.weight_grid(ts, xs, s, k)
                        return float(np.einsum("m,mi,i->", tw, grid * field, xw))

                    lhs_grad = sl * integral(faces, 1.0, a_faces * grads * grads, lens)
                    lhs_zero = sl**q * integral(nodes, q, v * v, xw_q)
                    rhs_source = integral(nodes, 0.0, f * f, xw_q)
                    rhs_local = sl**3 * integral(nodes, 3.0, v * v, xw_omega)
                    ref.append({
                        "sample": i, "s": s, "lambda": lam, "lhs_grad": lhs_grad,
                        "lhs_zero": lhs_zero, "rhs_source": rhs_source,
                        "rhs_local": rhs_local,
                        "ratio": (lhs_grad + lhs_zero) / (rhs_source + rhs_local),
                    })
        assert res.summary["excluded_count"] == 0
        # the folded grids sum in another order: rounding-level drift only
        assert list(res.table) == list(ref[0])
        assert all(col.shape == (len(ref),) for col in res.table.values())
        for key in ("sample", "s", "lambda"):
            assert res.table[key].tolist() == [want[key] for want in ref]
        for key in ("lhs_grad", "lhs_zero", "rhs_source", "rhs_local", "ratio"):
            assert res.table[key] == pytest.approx([want[key] for want in ref], rel=1e-12, abs=0.0)

    def test_weight_grids_built_once_per_point(self, monkeypatch):
        # every sample still asks for its four grids, but each (s, lambda)
        # point builds them once whatever the number of samples
        calls, builds = [], []
        original_call = CarlemanWeights.weight_grid
        original_build = CarlemanWeights._build_grid

        def called(self, ts, xs, s, k):
            calls.append((s, k))
            return original_call(self, ts, xs, s, k)

        def built(self, ts, xs, s, k):
            builds.append((s, k))
            return original_build(self, ts, xs, s, k)

        monkeypatch.setattr(CarlemanWeights, "weight_grid", called)
        monkeypatch.setattr(CarlemanWeights, "_build_grid", built)
        spec = make_spec(N=24, M=16, T=10.0, omega=(0.02, 0.95))
        s_grid, lambda_grid = [1.0, 2.0, 4.0], [2.0, 3.0]
        points = len(s_grid) * len(lambda_grid)
        for n_samples in (1, 5):
            calls.clear()
            builds.clear()
            carleman_sweep(
                spec, n_samples, s_grid, lambda_grid, seed=1,
                omega_prime=(0.05, 0.9), s_relative=True,
            )
            assert len(builds) == 4 * points
            assert len(calls) == 4 * n_samples * points

    def test_folded_grids_built_once_per_point(self, monkeypatch):
        # the four folded quadrature grids of a point, one per (k, region),
        # are built once whatever the number of samples, while every sample
        # still asks for its four weight grids
        calls, folds = [], []
        original_call = CarlemanWeights.weight_grid
        original_fold = weights._fold

        def called(self, ts, xs, s, k):
            calls.append((self.lam, s, k))
            return original_call(self, ts, xs, s, k)

        def folded(wgrid, tw, xw, time_constant):
            folds.append(time_constant)
            return original_fold(wgrid, tw, xw, time_constant)

        monkeypatch.setattr(CarlemanWeights, "weight_grid", called)
        monkeypatch.setattr(weights, "_fold", folded)
        spec = make_spec(N=24, M=16, T=10.0, omega=(0.02, 0.95))
        s_grid, lambda_grid = [1.0, 2.0, 4.0], [2.0, 3.0]
        points = len(s_grid) * len(lambda_grid)
        for n_samples in (1, 5):
            calls.clear()
            folds.clear()
            carleman_sweep(
                spec, n_samples, s_grid, lambda_grid, seed=1,
                omega_prime=(0.05, 0.9), s_relative=True,
            )
            assert len(folds) == 4 * points
            # the time-constant source keeps only column sums
            assert folds.count(True) == points
            assert len(calls) == 4 * n_samples * points
            assert len(set(calls)) == 4 * points

    @pytest.mark.parametrize("integrand, on_omega, k", [
        ("v_sq", False, 5.0 / 3.0),
        ("v_sq", True, 3.0),
        ("a_vx_sq", False, 1.0),
        ("v_sq", False, 0.0),
    ])
    def test_folded_grid_unchanged(self, integrand, on_omega, k):
        # the grid folded from the shared abscissae is the grid folded from a
        # time grid and faces built for the request
        spec = make_spec(gamma=1.5, N=24, M=16, T=10.0, omega=(0.02, 0.95))
        wts = build_weights(spec.coef, 2.0, spec.T, 0.05, 0.9)
        s = stable_s0(wts)
        mesh, T, M = spec.mesh, spec.T, spec.time_steps
        interval = spec.omega if on_omega else None
        lo, hi = spec.omega if on_omega else (0.0, 1.0)
        ts = np.linspace(0.0, T, M + 1)
        if integrand == "a_vx_sq":
            xw = (_clipped_cell_lengths(mesh.nodes, lo, hi) * spec.coef.eval(mesh.faces)
                  / mesh.spacings**2)
            want = weights._fold(wts.weight_grid(ts, mesh.faces, s, k),
                                 trapezoid_time_weights(T, M), xw, False)
        else:
            want = weights._fold(wts.weight_grid(ts, mesh.nodes, s, k),
                                 trapezoid_time_weights(T, M),
                                 _clipped_node_quadrature(mesh.nodes, lo, hi), False)
        traj = Trajectory(np.zeros((M + 1, mesh.nodes.size)), mesh, T)
        for shared in (False, True):
            with wts.shared_grids() if shared else contextlib.nullcontext():
                grid = weights._abscissae(traj, wts)
                quad = weights._WeightedQuadrature(grid, wts, s, k, integrand, interval)
            assert (quad.rows, quad.cols) == want[:2]
            assert np.array_equal(quad.grid, want[2])

    def test_a_time_constant_quadrature_is_of_values_only(self):
        # only the source, one nodal row, is constant in time
        spec = make_spec(N=24, M=16, T=10.0)
        wts = build_weights(spec.coef, 2.0, spec.T, 0.05, 0.9)
        traj = solve_adjoint(spec, np.sin(np.pi * spec.mesh.nodes))
        grid = weights._abscissae(traj, wts)
        with pytest.raises(ValueError, match="a time-constant quadrature integrates v_sq only"):
            weights._WeightedQuadrature(grid, wts, 1.0, 0.0, "a_vx_sq", time_constant=True)

    def test_one_time_grid_per_point(self, monkeypatch):
        # inside a point's block every request of every sample shares one
        # abscissae bundle; outside, each call builds its own
        built = []
        original = weights._Abscissae

        def counted(*args):
            built.append(args)
            return original(*args)

        spec = make_spec(N=24, M=16, T=10.0, omega=(0.02, 0.95))
        wts = build_weights(spec.coef, 2.0, spec.T, 0.05, 0.9)
        s = stable_s0(wts)
        vt = np.sin(np.pi * spec.mesh.nodes)
        traj = solve_adjoint(spec, vt)
        monkeypatch.setattr(weights, "_Abscissae", counted)
        with wts.shared_grids():
            grids = {id(weights._abscissae(traj, wts)) for _ in range(3)}
            for _ in range(4):
                carleman_sides(traj, None, spec.omega, wts, s)
        assert len(grids) == 1 and len(built) == 1
        built.clear()
        carleman_sides(traj, None, spec.omega, wts, s)
        assert len(built) == 1

    def test_non_finite_ratio_is_not_valid(self):
        # a NaN exponent makes every ratio NaN without a degenerate
        # denominator; no such sample may count as valid
        spec = make_spec(N=24, M=16, T=10.0, omega=(0.02, 0.95))
        res = carleman_sweep(
            spec, 3, [1.0, 2.0], [2.0], seed=1, omega_prime=(0.05, 0.9),
            s_relative=True, zero_order_exponent=float("nan"),
        )
        assert np.isnan(res.table["ratio"]).all()
        assert res.summary["excluded_count"] == res.table["ratio"].size == 6
        assert res.points["n_valid"].tolist() == [0, 0]
        assert res.points["n_nonfinite"].tolist() == [3, 3]
        assert res.points["n_degenerate"].tolist() == [0, 0]
        assert np.isnan(res.points["max_ratio"]).all()
        assert np.isnan(res.points["median_ratio"]).all()
        assert math.isnan(res.summary["empirical_C"])

    def test_zero_order_exponent_variant_bounded(self):
        # quadratic zero-order exponent stays bounded away from the unit-ratio
        # band for both degeneracy bands (not asserted for the boundary case)
        for gamma in (0.5, 1.5):
            spec = make_spec(gamma=gamma, N=48, M=48, T=10.0, omega=(0.02, 0.95))
            res = carleman_sweep(
                spec, 3, [1.0, 4.0], [2.0], seed=5, omega_prime=(0.05, 0.9),
                s_relative=True, zero_order_exponent=2.0,
            )
            assert np.isfinite(res.table["ratio"]).all()


class TestSweepWindows:
    """The sweep marches the whole horizon but keeps, and weighs, only the
    step levels its weights can see, with the bits of whole trajectories."""

    OMEGA_PRIME = (0.05, 0.9)

    def _window(self, spec, s_grid, lambda_grid, s_relative):
        # the hull of the visible rows of every request of every point
        ts = np.linspace(0.0, spec.T, spec.time_steps + 1)
        mesh, seen = spec.mesh, []
        for lam in lambda_grid:
            wts = build_weights(spec.coef, lam, spec.T, *self.OMEGA_PRIME)
            for s in s_grid:
                s = s * stable_s0(wts) if s_relative else s
                for xs, k in ((mesh.faces, 1.0), (mesh.nodes, 5.0 / 3.0), (mesh.nodes, 3.0),
                              (mesh.nodes, 0.0)):
                    seen.extend(wts.visible_rows(ts, xs, s, k).tolist())
        return range(min(seen), max(seen) + 1) if seen else range(0)

    @pytest.mark.parametrize("gamma, N, M, T, s_grid, lambda_grid, s_relative", [
        # a block is 63 rows at N = 512 and the window starts at level 54
        (1.5, 512, 512, 10.0, [1.0, 16.0], [2.0, 4.0], True),
        # the levels of T = 0.7 are not palindromic, and (s, lambda) =
        # (0.1, 2) sees no level at all
        (0.5, 32, 33, 0.7, [1e-3, 1e-2, 0.1], [1.0, 2.0], False),
    ], ids=["N512", "T0.7_M33"])
    def test_sweep_matches_per_sample_sides_on_whole_trajectories(
            self, gamma, N, M, T, s_grid, lambda_grid, s_relative):
        spec = make_spec(gamma=gamma, N=N, M=M, T=T, omega=(0.02, 0.95))
        window = self._window(spec, s_grid, lambda_grid, s_relative)
        step = weights.block_rows(N + 1)
        assert 0 < window.start and window.start % step and window.stop < M + 1
        n, seed = 2, 6
        res = carleman_sweep(spec, n, s_grid, lambda_grid, seed, omega_prime=self.OMEGA_PRIME,
                             s_relative=s_relative)
        vts = sample_fields(seed, STREAM_TERMINAL, n, spec.mesh.nodes)
        fs = sample_fields(seed, STREAM_SOURCE, n, spec.mesh.nodes)
        vals = _adjoint_march(spec, vts, fs)
        want = []
        for lam in lambda_grid:
            wts = build_weights(spec.coef, lam, spec.T, *self.OMEGA_PRIME)
            for s in s_grid:
                s = s * stable_s0(wts) if s_relative else s
                for v, f in zip(vals, fs):
                    rep = carleman_sides(Trajectory(v, spec.mesh, spec.T), f, spec.omega, wts, s)
                    want.append([rep.lhs_grad, rep.lhs_zero, rep.rhs_source, rep.rhs_local,
                                 rep.ratio])
        got = np.array([res.table[key] for key in carleman._SIDES]).T
        assert got.tobytes() == np.array(want).tobytes()

    def test_march_keeps_only_the_visible_rows(self, monkeypatch):
        # the (S, M+1, N+1) block of every level was the sweep's largest array
        spec = make_spec(gamma=1.5, N=256, M=256, T=10.0, omega=(0.02, 0.95))
        s_grid, lambda_grid, n = [1.0, 2.0, 4.0, 8.0, 16.0], [2.0, 4.0], 20
        window = self._window(spec, s_grid, lambda_grid, True)
        kept = []

        def traced(*args, **kwargs):
            tracemalloc.start()
            try:
                rows = _adjoint_march(*args, **kwargs)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            kept.append((rows.shape, peak))
            return rows

        monkeypatch.setattr(carleman, "_adjoint_march", traced)
        carleman_sweep(spec, n, s_grid, lambda_grid, seed=3, omega_prime=self.OMEGA_PRIME,
                       s_relative=True)
        ((shape, peak),) = kept
        assert shape == (n, len(window), 257)
        window_bytes, full_bytes = n * len(window) * 257 * 8, n * 257 * 257 * 8
        assert window_bytes < 0.8 * full_bytes
        assert peak < window_bytes + (full_bytes - window_bytes) / 2, peak

    def test_a_sweep_that_sees_no_level_fails_its_valid_sample_invariant(self, tmp_path,
                                                                          monkeypatch):
        # at s = 1e10 every row of every weight underflows: the march keeps
        # no level, every ratio is NaN and the run fails by name
        from carleman_lab.cli import run_experiment

        levels = []

        def recorded(*args, **kwargs):
            levels.append(kwargs["levels"])
            return _adjoint_march(*args, **kwargs)

        monkeypatch.setattr(carleman, "_adjoint_march", recorded)
        cfg = {
            "experiment": "carleman_sweep",
            "coefficient": {"kind": "power", "params": {"gamma": 1.5}},
            "T": 10.0, "mesh_n": 32, "time_steps": 32, "omega": [0.02, 0.95],
            "omega_prime": list(self.OMEGA_PRIME), "lambda_grid": [2.0, 4.0],
            "s_grid": [1e10, 1e12], "s_relative": False, "n_samples": 2,
        }
        out = tmp_path / "out"
        assert run_experiment(cfg, out) == 1
        assert levels == [range(0)]
        summary = json.loads((out / "summary.json").read_text())
        assert np.isnan(summary["results"]["empirical_C"])
        assert summary["results"]["excluded_count"] == 8
        failed = [i["name"] for i in summary["invariants"] if not i["passed"]]
        assert failed == ["every (s, lambda) point has a valid sample"]
        assert (out / "run.log").read_text().splitlines()[-1].startswith(
            "invariant [every (s, lambda) point has a valid sample]: FAIL "
        )


class TestHorizonCheck:
    """A T = 2 backward trajectory with weights built for T = 1: theta
    vanishes past t = 1, so without the check w is mostly zero rows and the
    boundary term passes its sign test vacuously."""

    @pytest.mark.parametrize("check", ["transform_to_w", "boundary_sign_term", "boundary_sign_terms"])
    def test_rejects_another_horizon(self, check):
        spec = make_spec(N=32, M=32, T=2.0)
        s = 1.0
        wts = build_weights(spec.coef, 1.0, 1.0, 0.4, 0.6)
        rows = _adjoint_march(spec, sample_fields(0, STREAM_TERMINAL, 2, spec.mesh.nodes))
        traj = Trajectory(rows[0], spec.mesh, spec.T)
        with pytest.raises(ValueError, match="trajectory and weights disagree on the horizon"):
            if check == "transform_to_w":
                transform_to_w(traj, wts, s)
            elif check == "boundary_sign_term":
                own = build_weights(spec.coef, 1.0, spec.T, 0.4, 0.6)
                boundary_sign_term(transform_to_w(traj, own, s), wts, s)
            else:
                boundary_sign_terms(Trajectory(rows, spec.mesh, spec.T), wts, s)


class TestObservability:
    def test_zero_sample_excluded(self):
        spec = make_spec(N=32, M=32)
        from carleman_lab.carleman import ObservabilityReport

        rep = observability_ratio(spec, n_samples=1, seed=10**6)
        # the sine draw is almost surely nonzero; force the zero case directly
        assert isinstance(rep, ObservabilityReport)

    def test_finite_and_scale_invariant(self):
        spec = make_spec(N=48, M=48, T=1.0)
        rep = observability_ratio(spec, n_samples=5, seed=7)
        assert rep.excluded_count == 0
        assert math.isfinite(rep.constant)
        doubled = observability_ratio(spec, n_samples=5, seed=7)
        assert doubled.constant == rep.constant

    @pytest.mark.parametrize("gamma", [0.5, 1.5])
    def test_batched_matches_per_sample(self, gamma):
        # reference: one solve_adjoint per draw, the ratio formula inline
        spec = make_spec(gamma=gamma, N=48, M=40, T=1.0)
        rep = observability_ratio(spec, n_samples=6, seed=3)
        vts = sample_fields(3, STREAM_TERMINAL, 6, spec.mesh.nodes)
        xw = _clipped_node_quadrature(spec.mesh.nodes, *spec.omega)
        tw = trapezoid_time_weights(spec.T, spec.time_steps)
        ref = []
        for vt in vts:
            vals = solve_adjoint(spec, vt).values
            num = float(np.sum(spec.mesh.volumes * vals[0] * vals[0]))
            ref.append(num / float(np.einsum("m,mi,i->", tw, vals * vals, xw)))
        assert rep.ratios.tolist() == ref
        assert rep.constant == max(ref)
        assert rep.excluded_count == 0

    def test_zero_draw_is_degenerate(self):
        spec = make_spec(N=32, M=32, T=1.0)
        vt = sample_fields(0, STREAM_TERMINAL, 1, spec.mesh.nodes)[0]
        nums, dens = _observability_energies(spec, np.stack([vt, np.zeros_like(vt)]))
        assert nums[0] > 0.0 and dens[0] > 0.0
        assert nums[1] == dens[1] == 0.0
