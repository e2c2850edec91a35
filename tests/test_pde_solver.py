import math
import re
import tracemalloc
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.linalg import lapack, solve_banded

from carleman_lab import pde_solver
from carleman_lab.carleman import observability_ratio
from carleman_lab.coefficients import DegeneracyCoefficient, classify, make_power_coefficient
from carleman_lab.control import synthesize_null_control
from carleman_lab.pde_solver import (
    LeftBoundary,
    Mesh,
    ProblemSpec,
    Scheme,
    Trajectory,
    _adjoint_march,
    assemble_diffusion,
    boundary_regime_for,
    build_mesh,
    energy_report,
    omega_node_mask,
    solve_adjoint,
    solve_forward,
    trajectory_from_binary,
    trajectory_to_binary,
    trapezoid_time_weights,
)

WEAK = LeftBoundary.DIRICHLET_ZERO
STRONG = LeftBoundary.ZERO_FLUX


def formal_unit_coefficient():
    # admissible for operator assembly tests only: no degeneracy at 0
    return DegeneracyCoefficient(
        label="1",
        eval=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        eval_deriv=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )


def make_spec(gamma=0.5, N=64, M=48, T=1.0, omega=(0.3, 0.7), scheme=Scheme.CRANK_NICOLSON, c=0.0):
    """The spec of the arguments; a callable c(x) is taken at the mesh nodes."""
    coef = make_power_coefficient(gamma)
    rep = classify(coef)
    mesh = build_mesh(N, 2.0)
    return ProblemSpec(
        T=T,
        coef=coef,
        regime=boundary_regime_for(rep),
        mesh=mesh,
        time_steps=M,
        omega=omega,
        c=c(mesh.nodes) if callable(c) else c,
        scheme=scheme,
        hypothesis=rep,
    )


def _on_schedule(spec, field):
    """The ``(J, N+1)`` block of a field (t, x) -> value sampled at every
    substep time on the mesh nodes: the per-substep forcing solve_forward
    takes."""
    return np.stack([field(t, spec.mesh.nodes) for t in pde_solver.substep_times(spec)[0]])


class TestMesh:
    def test_uniform_nodes(self):
        assert np.allclose(build_mesh(4, 1.0).nodes, [0, 0.25, 0.5, 0.75, 1.0])

    def test_quadratic_grading(self):
        assert np.allclose(build_mesh(4, 2.0).nodes, [0, 0.0625, 0.25, 0.5625, 1.0])

    def test_cubic_grading_small(self):
        assert np.allclose(build_mesh(2, 3.0).nodes, [0, 0.125, 1.0])

    def test_volumes_sum_to_one(self):
        mesh = build_mesh(37, 2.5)
        assert mesh.volumes.sum() == pytest.approx(1.0, abs=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError, match="grading"):
            build_mesh(16, 5.0)
        with pytest.raises(ValueError, match="N must be"):
            build_mesh(1, 1.0)
        with pytest.raises(ValueError, match="mesh needs at least 3 nodes"):
            Mesh(np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="mesh nodes must be strictly increasing"):
            Mesh(np.array([0.0, 0.5, 0.5, 1.0]))


class TestAssembly:
    def test_classical_stencil_for_unit_coefficient(self):
        # uniform mesh, a = 1: rows are the second difference [-1, 2, -1]/h^2
        mesh = build_mesh(8, 1.0)
        op = assemble_diffusion(formal_unit_coefficient(), mesh, WEAK)
        h = 1.0 / 8.0
        e = np.zeros(op.n_unknowns)
        e[3] = 1.0
        row = op.apply(e)
        assert row[3] == pytest.approx(2.0 / h**2, rel=1e-12)
        assert row[2] == pytest.approx(-1.0 / h**2, rel=1e-12)
        assert row[4] == pytest.approx(-1.0 / h**2, rel=1e-12)

    def test_zero_flux_first_row(self):
        # under the flux condition the x = 0 node stays and only its right
        # face couples, with the coefficient evaluated at the face midpoint
        mesh = build_mesh(8, 1.0)
        coef = make_power_coefficient(1.0)
        op = assemble_diffusion(coef, mesh, STRONG)
        assert op.node_index[0] == 0
        face = 0.5 * (mesh.nodes[0] + mesh.nodes[1])
        h = mesh.nodes[1] - mesh.nodes[0]
        assert op.diag[0] == pytest.approx(face / h, rel=1e-12)
        assert op.off[0] == pytest.approx(-face / h, rel=1e-12)

    @pytest.mark.parametrize("regime", [WEAK, STRONG])
    def test_coefficient_evaluated_once_on_the_faces(self, regime):
        base = make_power_coefficient(0.5)
        calls = []
        coef = DegeneracyCoefficient(
            label="counted", eval=lambda x: calls.append(np.size(x)) or base.eval(x),
            eval_deriv=base.eval_deriv,
        )
        mesh = build_mesh(16, 2.0)
        op = assemble_diffusion(coef, mesh, regime)
        assert calls == [mesh.faces.size]
        assert np.array_equal(op.norms.a_faces, base.eval(mesh.faces))
        assert np.array_equal(op.weights, mesh.volumes[op.node_index])

    def test_weak_regime_eliminates_origin(self):
        mesh = build_mesh(8, 1.0)
        op = assemble_diffusion(make_power_coefficient(0.5), mesh, WEAK)
        assert op.node_index[0] == 1

    def test_symmetry_in_weighted_inner_product(self):
        # oracle: direct double loop over the dense operator entries
        mesh = build_mesh(12, 2.0)
        for regime in (WEAK, STRONG):
            op = assemble_diffusion(make_power_coefficient(0.5), mesh, regime)
            n = op.n_unknowns
            dense = np.zeros((n, n))
            for j in range(n):
                e = np.zeros(n)
                e[j] = 1.0
                dense[:, j] = op.apply(e)
            rng = np.random.default_rng(0)
            for _ in range(10):
                u = rng.standard_normal(n)
                w = rng.standard_normal(n)
                left = sum(
                    op.weights[i] * dense[i, j] * u[j] * w[i]
                    for i in range(n)
                    for j in range(n)
                )
                right = sum(
                    op.weights[i] * dense[i, j] * w[j] * u[i]
                    for i in range(n)
                    for j in range(n)
                )
                scale = abs(left) + abs(right) + 1e-30
                assert abs(left - right) / scale < 1e-12
                assert op.inner(op.apply(u), w) == pytest.approx(left, rel=1e-10)
                assert op.inner(u, op.apply(w)) == pytest.approx(right, rel=1e-10)

    def test_positive_semidefinite(self):
        mesh = build_mesh(24, 2.0)
        op = assemble_diffusion(make_power_coefficient(1.5), mesh, STRONG)
        rng = np.random.default_rng(5)
        for _ in range(20):
            u = rng.standard_normal(op.n_unknowns)
            assert op.inner(op.apply(u), u) >= -1e-12


class TestForwardSolve:
    def test_zero_data_zero_solution(self):
        spec = make_spec()
        traj = solve_forward(spec, np.zeros(spec.mesh.nodes.size))
        assert np.all(traj.values == 0.0)

    def test_dirichlet_rows_exact_zero(self):
        spec = make_spec()
        u0 = np.sin(np.pi * spec.mesh.nodes)
        traj = solve_forward(spec, u0)
        assert np.all(traj.values[1:, 0] == 0.0)
        assert np.all(traj.values[1:, -1] == 0.0)

    def test_energy_decay(self):
        # the diffusion operator is positive semidefinite, so the scheme is a
        # contraction in the mesh-weighted norm
        spec = make_spec()
        rng = np.random.default_rng(11)
        u0 = rng.standard_normal(spec.mesh.nodes.size)
        u0[0] = u0[-1] = 0.0
        traj = solve_forward(spec, u0)
        op = assemble_diffusion(spec.coef, spec.mesh, spec.regime)
        norms = [op.norm(op.restrict(traj.values[m])) for m in range(traj.values.shape[0])]
        assert all(norms[i + 1] <= norms[i] + 1e-13 for i in range(len(norms) - 1))

    def test_maximum_principle_backward_euler(self):
        spec = make_spec(scheme=Scheme.BACKWARD_EULER, c=0.5)
        u0 = np.sin(np.pi * spec.mesh.nodes)  # nonnegative data
        traj = solve_forward(spec, u0)
        assert traj.values.min() >= -1e-13
        assert traj.values.max() <= u0.max() + 1e-13

    def test_manufactured_linear_in_time(self):
        # u*(t,x) = t x (1-x) for the linear coefficient: the step rule is
        # exact in time, so the only error is the O(h^2) flux truncation
        coef = make_power_coefficient(1.0)
        errs = []
        for N in (32, 64):
            mesh = build_mesh(N, 2.0)
            spec = ProblemSpec(
                T=1.0, coef=coef, regime=WEAK, mesh=mesh, time_steps=16,
                omega=(0.3, 0.7),
            )

            def forcing(t, x):
                return x * (1.0 - x) - t * (1.0 - 4.0 * x)

            traj = solve_forward(
                spec, np.zeros(mesh.nodes.size), source=_on_schedule(spec, forcing)
            )
            exact = spec.T * mesh.nodes * (1.0 - mesh.nodes)
            err = np.sqrt(np.sum(mesh.volumes * (traj.values[-1] - exact) ** 2))
            errs.append(err)
        assert errs[1] < errs[0] / 3.0  # near second order

    def test_manufactured_degenerate_coefficient_order(self):
        # a = x^{1/2}: the forcing carries an integrable x^{-1/2} singularity,
        # which the graded mesh resolves at order >= 1
        coef = make_power_coefficient(0.5)
        rep = classify(coef)
        pi = np.pi

        def exact(t, x):
            return np.exp(-t) * np.sin(pi * x)

        def source(t, x):
            with np.errstate(divide="ignore"):
                flux_div = pi * (
                    0.5 * np.power(x, -0.5) * np.cos(pi * x)
                    - np.power(x, 0.5) * pi * np.sin(pi * x)
                )
            return -exact(t, x) - np.exp(-t) * flux_div

        errs = []
        for N in (32, 64, 128):
            mesh = build_mesh(N, 2.0)
            spec = ProblemSpec(
                T=1.0, coef=coef, regime=boundary_regime_for(rep), mesh=mesh,
                time_steps=256, omega=(0.3, 0.7), hypothesis=rep,
            )
            with np.errstate(divide="ignore"):  # x = 0 is pinned, not an unknown
                f = _on_schedule(spec, source)
            traj = solve_forward(spec, exact(0.0, mesh.nodes), source=f)
            tw = np.full(257, 1 / 256)
            tw[0] *= 0.5
            tw[-1] *= 0.5
            e = 0.0
            for m, t in enumerate(traj.times):
                d = traj.values[m] - exact(t, mesh.nodes)
                e += tw[m] * float(np.sum(mesh.volumes * d * d))
            errs.append(math.sqrt(e))
        orders = [math.log(errs[i] / errs[i + 1]) / math.log(2.0) for i in range(2)]
        assert min(orders) >= 1.0

    def test_control_masked_to_omega(self):
        spec = make_spec()
        x = spec.mesh.nodes
        traj = solve_forward(spec, np.zeros(x.size), control=np.ones_like(x))
        # acting only through omega: solution must not be identically zero,
        # and switching the control off outside omega changes nothing
        assert np.max(np.abs(traj.values[-1])) > 0.0
        masked = lambda t, x: np.where((x > 0.3) & (x < 0.7), 1.0, 0.0)
        traj2 = solve_forward(spec, np.zeros(x.size), control=_on_schedule(spec, masked))
        assert np.allclose(traj.values, traj2.values, atol=1e-14)

    @pytest.mark.parametrize("what", ["callable", "unknowns", "wrong-J", "3-d"])
    @pytest.mark.parametrize("name", ["control", "source"])
    def test_forcing_neither_a_row_nor_a_block_raises(self, name, what, monkeypatch):
        spec = make_spec(N=16, M=8)
        J = pde_solver.substep_times(spec)[0].size
        n = assemble_diffusion(spec.coef, spec.mesh, spec.regime).n_unknowns
        field, got = {
            "callable": (lambda t, x: np.ones_like(x), "<function"),
            "unknowns": (np.ones((J, n)), f"shape ({J}, {n})"),
            "wrong-J": (np.ones((J + 1, 17)), f"shape ({J + 1}, 17)"),
            "3-d": (np.ones((J, 2, 17)), f"shape ({J}, 2, 17)"),
        }[what]
        marched = []
        monkeypatch.setattr(pde_solver._Stepper, "forward", lambda *a: marched.append(a))
        with pytest.raises(ValueError, match=(
            rf"the forward {name} must be one nodal row \(17,\), constant in time, or one "
            rf"per substep \({J}, 17\); got {re.escape(got)}"
        )):
            solve_forward(spec, np.zeros(17), **{name: field})
        assert not marched


class TestAdjointSolve:
    def test_zero_terminal_zero_solution(self):
        spec = make_spec()
        traj = solve_adjoint(spec, np.zeros(spec.mesh.nodes.size))
        assert np.all(traj.values == 0.0)

    def test_time_reversal_consistency(self):
        # without a potential the palindromic schedule is self-adjoint, so the
        # backward solve equals the forward solve on reversed data exactly
        spec = make_spec(gamma=1.5)
        rng = np.random.default_rng(2)
        vT = rng.standard_normal(spec.mesh.nodes.size)
        vT[-1] = 0.0
        back = solve_adjoint(spec, vT)
        fwd = solve_forward(spec, back.values[-1] * 0 + vT)
        assert np.max(np.abs(fwd.values[::-1] - back.values)) < 1e-10

    @pytest.mark.parametrize("gamma", [0.5, 1.5])
    def test_discrete_duality(self, gamma):
        spec = make_spec(gamma=gamma)
        op = assemble_diffusion(spec.coef, spec.mesh, spec.regime)
        rng = np.random.default_rng(4)
        for _ in range(5):
            u0 = rng.standard_normal(spec.mesh.nodes.size)
            vT = rng.standard_normal(spec.mesh.nodes.size)
            fwd = solve_forward(spec, u0)
            adj = solve_adjoint(spec, vT)
            lhs = op.inner(op.restrict(fwd.values[-1]), op.restrict(vT))
            rhs = op.inner(op.restrict(u0), op.restrict(adj.values[0]))
            scale = abs(lhs) + abs(rhs) + 1e-30
            assert abs(lhs - rhs) / scale < 1e-12

    def test_duality_with_potential(self):
        # the transpose property is exact also with a bounded potential
        spec = make_spec(c=SPACE_POTENTIAL)
        op = assemble_diffusion(spec.coef, spec.mesh, spec.regime)
        rng = np.random.default_rng(9)
        u0 = rng.standard_normal(spec.mesh.nodes.size)
        vT = rng.standard_normal(spec.mesh.nodes.size)
        fwd = solve_forward(spec, u0)
        adj = solve_adjoint(spec, vT)
        lhs = op.inner(op.restrict(fwd.values[-1]), op.restrict(vT))
        rhs = op.inner(op.restrict(u0), op.restrict(adj.values[0]))
        assert abs(lhs - rhs) / (abs(lhs) + abs(rhs)) < 1e-12

    @pytest.mark.parametrize("shape", [(64,), (66,), (2, 65), (3, 64), (49, 65), (49, 3, 65)])
    def test_source_neither_a_row_nor_one_per_sample_raises(self, shape):
        spec = make_spec(N=64, M=48)
        vts = np.vstack([np.sin(np.pi * spec.mesh.nodes)] * 3)
        with pytest.raises(ValueError, match=(
            r"the adjoint source F must be one nodal row \(65,\) or one per sample "
            rf"\(3, 65\), constant in time; got shape {re.escape(str(shape))}"
        )):
            solve_adjoint(spec, vts, F=np.ones(shape))
        # nor is a callable, nor a stack of rows for a lone terminal vector
        for F in (lambda t, x: np.ones_like(x), np.ones((1, 65))):
            with pytest.raises(ValueError, match="the adjoint source F must be one nodal row"):
                solve_adjoint(spec, vts[0], F=F)

    def test_adjoint_source_second_order(self):
        # stationary check: with terminal data equal to the stationary profile
        # of a smooth source, interior rows stay near that profile
        coef = make_power_coefficient(1.0)
        mesh = build_mesh(96, 2.0)
        spec = ProblemSpec(
            T=1.0, coef=coef, regime=WEAK, mesh=mesh, time_steps=64,
            omega=(0.3, 0.7),
        )
        op = assemble_diffusion(coef, mesh, spec.regime)
        f = np.sin(np.pi * mesh.nodes)

        # stationary profile: -(a v_x)_x = -F  (backward equation with v_t = 0)
        n = op.n_unknowns
        dense = np.zeros((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            dense[:, j] = op.apply(e)
        v_star = np.linalg.solve(dense, -op.restrict(f))
        traj = solve_adjoint(spec, op.embed(v_star), F=f)
        mid = traj.values[spec.time_steps // 2]
        assert np.max(np.abs(op.restrict(mid) - v_star)) < 1e-8


class TestEnergyReport:
    def test_zero_data(self):
        spec = make_spec()
        # nothing to evaluate: NaN, never a ratio of 0.0
        assert math.isnan(energy_report(spec, np.zeros((1, spec.mesh.nodes.size)))[0])

    def test_finite_and_mesh_stable(self):
        vals = []
        for N in (128, 256):
            spec = make_spec(N=N, M=N)
            u0 = np.sin(np.pi * spec.mesh.nodes)
            vals.append(energy_report(spec, u0[None])[0])
        assert all(math.isfinite(v) and v > 0 for v in vals)
        assert abs(vals[1] - vals[0]) / vals[0] < 0.05

    def test_bounded_over_random_draws(self):
        from carleman_lab.sampling import STREAM_CONTROL, STREAM_INITIAL, sample_fields

        spec = make_spec(N=64, M=48)
        u0s = sample_fields(21, STREAM_INITIAL, 10, spec.mesh.nodes)
        hs = sample_fields(21, STREAM_CONTROL, 10, spec.mesh.nodes)
        ratios = energy_report(spec, u0s, hs)
        assert all(math.isfinite(r) for r in ratios)
        assert max(ratios) < 20.0


class TestStackedEnergy:
    def draws(self, spec, count=6):
        from carleman_lab.sampling import STREAM_CONTROL, STREAM_INITIAL, sample_fields

        nodes = spec.mesh.nodes
        return (sample_fields(21, STREAM_INITIAL, count, nodes),
                sample_fields(21, STREAM_CONTROL, count, nodes))

    @pytest.mark.parametrize("gamma", [0.5, 1.5])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_matches_per_sample_reports(self, gamma, scheme):
        spec = make_spec(gamma=gamma, N=40, M=24, scheme=scheme)
        u0s, hs = self.draws(spec)
        free = energy_report(spec, u0s)
        controlled = energy_report(spec, u0s, hs)
        # each row of a stack marches with the bits it would have alone
        for i in range(len(u0s)):
            assert free[i] == energy_report(spec, u0s[i:i + 1])[0]
            assert controlled[i] == energy_report(spec, u0s[i:i + 1], hs[i:i + 1])[0]

    def test_with_potential(self):
        spec = make_spec(N=32, M=16, c=0.5)
        u0s, hs = self.draws(spec, 3)
        got = energy_report(spec, u0s, hs)
        for i in range(3):
            assert got[i] == energy_report(spec, u0s[i:i + 1], hs[i:i + 1])[0]

    def test_zero_data_gives_nan_per_sample(self):
        spec = make_spec(N=32, M=16)
        u0s, hs = self.draws(spec, 3)
        u0s[1] = 0.0
        # a control that lives only outside omega carries no energy
        hs[1] = np.where(omega_node_mask(spec.mesh, spec.omega), 0.0, 1.0)
        got = energy_report(spec, u0s, hs)
        assert math.isnan(got[1])
        assert got[0] > 0.0 and got[2] > 0.0

    def test_zero_data_with_nonzero_trajectory_raises(self, monkeypatch):
        from carleman_lab import pde_solver

        spec = make_spec(N=16, M=8)
        u0s = np.zeros((2, spec.mesh.nodes.size))
        u0s[0] = np.sin(np.pi * spec.mesh.nodes)
        forward = pde_solver._Stepper.forward

        def leaky(self, u, load=None, closed=None):
            def leak(m, state):
                if m == spec.time_steps:
                    state = state.copy()
                    state[1] = 1.0  # the zero sample ends away from zero
                closed(m, state)

            return forward(self, u, load, leak)

        monkeypatch.setattr(pde_solver._Stepper, "forward", leaky)
        with pytest.raises(ValueError, match="zero data but nonzero trajectory"):
            energy_report(spec, u0s)

    def test_non_finite_data_rejected(self):
        spec = make_spec(N=16, M=8)
        u0s = np.zeros((2, spec.mesh.nodes.size))
        u0s[1, 5] = np.nan
        with pytest.raises(ValueError, match="initial data must be finite"):
            energy_report(spec, u0s)
        with pytest.raises(ValueError, match="initial data must be finite"):
            solve_forward(spec, u0s[1])
        with pytest.raises(ValueError, match="terminal data must be finite"):
            solve_adjoint(spec, u0s[1])

    @pytest.mark.parametrize("shape", [(17,), (3, 17), (2, 15), (9, 2, 17)])
    def test_controls_not_one_row_per_sample_raise(self, shape):
        spec = make_spec(N=16, M=8)
        u0s = np.ones((2, 17))
        with pytest.raises(ValueError, match=(
            r"the controls h_rows must be one nodal row per sample \(2, 17\), constant in "
            rf"time; got shape {re.escape(str(shape))}"
        )):
            energy_report(spec, u0s, np.ones(shape))

    def test_peak_memory_stays_well_under_the_rows_block(self):
        spec = make_spec(N=128, M=128)
        u0s, hs = self.draws(spec, 20)
        rows_bytes = 20 * 129 * 129 * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            energy_report(spec, u0s, hs)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # each step is reduced as the march closes it: no trajectory is kept
        assert peak < rows_bytes / 4, peak

    def test_constant_source_march_stays_well_under_the_rows_block(self):
        spec = make_spec(N=128, M=128)
        vts, fs = self.draws(spec, 20)
        rows_bytes = 20 * 129 * 129 * 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _adjoint_march(spec, vts, fs, levels=range(0))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # the source is one row per sample: a copy of it for each of the
        # substeps, a (J, 20, n) block, would be 2.6 MB alone
        assert peak < rows_bytes / 4, peak


class TestStackedStiffness:
    @pytest.mark.parametrize("regime", [WEAK, STRONG])
    def test_stack_equals_row_by_row(self, regime):
        op = assemble_diffusion(make_power_coefficient(0.5), build_mesh(20, 2.0), regime)
        u = np.random.default_rng(5).standard_normal((4, op.n_unknowns))
        stacked = op.stiffness_apply(u)
        assert stacked.shape == u.shape
        for i in range(4):
            assert np.array_equal(stacked[i], op.stiffness_apply(u[i]))
            assert np.array_equal(op.apply(u)[i], op.apply(u[i]))


class TestExportFormats:
    def test_binary_round_trip(self, tmp_path):
        spec = make_spec(N=8, M=4)
        traj = solve_forward(spec, np.sin(np.pi * spec.mesh.nodes))
        path = tmp_path / "traj.bin"
        trajectory_to_binary(traj, path)
        back = trajectory_from_binary(path)
        assert back["N"] == 8 and back["M"] == 4 and back["T"] == spec.T
        assert np.array_equal(back["values"], traj.values)

    def test_binary_refuses_a_window(self, tmp_path):
        # N and M are read off the shape: a window of levels 1..3 of M = 4
        # would be written as a whole trajectory of M = 2
        spec = make_spec(N=8, M=4)
        traj = solve_forward(spec, np.sin(np.pi * spec.mesh.nodes))
        window = Trajectory(traj.values[1:4], spec.mesh, spec.T, first=1, M=4)
        assert np.array_equal(window.times, traj.times[1:4])
        path = tmp_path / "traj.bin"
        with pytest.raises(ValueError, match=re.escape(
                "a binary trajectory holds all 5 step levels; got a window of 3 from level 1")):
            trajectory_to_binary(window, path)
        assert not path.exists()

    def test_binary_refuses_a_stack(self, tmp_path):
        # a stack of S = M + 1 samples passed the window check, and its file
        # could not be read back
        mesh = build_mesh(4, 2.0)
        stack = Trajectory(np.zeros((3, 3, 5)), mesh, 1.0)
        path = tmp_path / "traj.bin"
        with pytest.raises(ValueError, match=re.escape(
                "a binary trajectory is one trajectory (M+1, N+1); got shape (3, 3, 5)")):
            trajectory_to_binary(stack, path)
        assert not path.exists()
        with pytest.raises(ValueError, match="is one trajectory"):
            trajectory_to_binary(Trajectory(np.zeros((2, 3, 5)), mesh, 1.0), path)

    @pytest.mark.parametrize("payload", [45, 14, 16, 0])
    def test_binary_reader_refuses_a_payload_of_another_size(self, tmp_path, payload):
        path = tmp_path / "traj.bin"
        path.write_bytes(pde_solver._BIN_HEADER.pack(4, 2, 1.0) + np.zeros(payload).tobytes())
        with pytest.raises(ValueError, match=re.escape(
                "a binary trajectory of N=4, M=2 holds (M+1)(N+1) = 15 doubles, 120 bytes; "
                f"got {8 * payload} bytes")):
            trajectory_from_binary(path)
        path.write_bytes(pde_solver._BIN_HEADER.pack(4, 2, 1.0) + np.zeros(15).tobytes()[:-3])
        with pytest.raises(ValueError, match="got 117 bytes"):
            trajectory_from_binary(path)

    @pytest.mark.parametrize("T", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_binary_reader_refuses_a_horizon_not_positive_and_finite(self, tmp_path, T):
        path = tmp_path / "traj.bin"
        path.write_bytes(pde_solver._BIN_HEADER.pack(4, 2, T) + np.zeros(15).tobytes())
        with pytest.raises(ValueError, match=re.escape(
                f"a binary trajectory's horizon T must be positive and finite; got T={T}")):
            trajectory_from_binary(path)

    @pytest.mark.parametrize("size", [0, 2, 23])
    def test_binary_reader_refuses_a_file_shorter_than_its_header(self, tmp_path, size):
        path = tmp_path / "traj.bin"
        path.write_bytes(pde_solver._BIN_HEADER.pack(4, 2, 1.0)[:size])
        with pytest.raises(ValueError, match=re.escape(
                f"a binary trajectory starts with a 24-byte header; got a file of {size} bytes")):
            trajectory_from_binary(path)


_U0 = r"the initial data u0 must be one nodal row \(17,\); got shape "
_V_T = (r"the terminal data v_T must be one nodal row \(17,\) or a stack \(S, 17\) with "
        r"S >= 1; got shape ")
_U0S = r"the initial data u0s must be a stack \(S, 17\) with S >= 1; got shape "


class TestStateShapes:
    @pytest.mark.parametrize("march, shape, message", [
        (solve_forward, (16,), _U0),
        (solve_forward, (2, 17), _U0),
        (lambda spec, u0: synthesize_null_control(spec, u0, 1e-4), (16,), _U0),
        (lambda spec, u0: synthesize_null_control(spec, u0, 1e-4), (2, 17), _U0),
        (solve_adjoint, (16,), _V_T),
        (solve_adjoint, (2, 2, 17), _V_T),
        (solve_adjoint, (0, 17), _V_T),
        (energy_report, (17,), _U0S),
        (energy_report, (2, 16), _U0S),
        (energy_report, (0, 17), _U0S),
        (lambda spec, _: observability_ratio(spec, n_samples=0), None,
         "need at least one sample"),
    ], ids=["forward-short", "forward-stack", "control-short", "control-stack", "adjoint-short",
            "adjoint-3d", "adjoint-no-sample", "energy-row", "energy-short", "energy-no-sample",
            "observability-no-sample"])
    def test_wrong_shaped_state_is_refused_by_name(self, march, shape, message):
        # restrict takes the unknown nodes of whatever it is given, so a
        # short row marched silently and a stack broadcast or grew a dimension
        spec = make_spec(N=16, M=8)
        got = "" if shape is None else re.escape(str(shape))
        with pytest.raises(ValueError, match=f"^{message}{got}$"):
            march(spec, None if shape is None else np.ones(shape))


class TestSpecValidation:
    def test_boundary_regime_consistency(self):
        coef = make_power_coefficient(0.5)
        rep = classify(coef)
        with pytest.raises(ValueError, match="conflicts with the certified band"):
            ProblemSpec(
                T=1.0, coef=coef, regime=STRONG, mesh=build_mesh(16, 1.0),
                time_steps=4, omega=(0.3, 0.7), hypothesis=rep,
            )

    def test_no_hypothesis_keeps_any_regime(self):
        # the band check runs exactly when a hypothesis is given
        coef = make_power_coefficient(0.5)
        spec = ProblemSpec(
            T=1.0, coef=coef, regime=STRONG, mesh=build_mesh(16, 1.0),
            time_steps=4, omega=(0.3, 0.7),
        )
        assert spec.regime is STRONG

    def test_regime_for_bands(self):
        assert boundary_regime_for(classify(make_power_coefficient(0.5))) is LeftBoundary.DIRICHLET_ZERO
        assert boundary_regime_for(classify(make_power_coefficient(1.5))) is LeftBoundary.ZERO_FLUX

    def test_omega_validation(self):
        coef = make_power_coefficient(0.5)
        with pytest.raises(ValueError, match="omega"):
            ProblemSpec(
                T=1.0, coef=coef, regime=WEAK, mesh=build_mesh(16, 1.0),
                time_steps=4, omega=(0.0, 0.7),
            )

    @pytest.mark.parametrize("c,got", [
        (lambda t, x: 0.5, "<function"),
        (None, "None"),
        (math.inf, "inf"),
        (np.full(17, np.nan), "shape (17,)"),
        (np.ones(16), "shape (16,)"),
        (np.ones((2, 17)), "shape (2, 17)"),
    ], ids=["callable", "none", "inf", "nan-row", "short-row", "time-rows"])
    def test_potential_must_be_a_finite_nodal_constant(self, c, got):
        with pytest.raises(ValueError, match=(
            r"potential c must be a finite number or 17 finite values, one per mesh "
            rf"node, constant in time; got {re.escape(got)}"
        )):
            ProblemSpec(
                T=1.0, coef=make_power_coefficient(0.5), regime=WEAK, mesh=build_mesh(16, 1.0),
                time_steps=4, omega=(0.3, 0.7), c=c,
            )

    def test_potential_is_kept_as_checked(self):
        mesh = build_mesh(16, 1.0)
        for c in (0.0, -0.25, 2, np.float32(0.5)):
            spec = ProblemSpec(
                T=1.0, coef=make_power_coefficient(0.5), regime=WEAK, mesh=mesh,
                time_steps=4, omega=(0.3, 0.7), c=c,
            )
            assert type(spec.c) is float and spec.c == c
        # a nodal row is copied: a NaN put into the caller's array later is
        # not marched
        c = np.full(17, 0.5)
        spec = ProblemSpec(
            T=1.0, coef=make_power_coefficient(0.5), regime=WEAK, mesh=mesh,
            time_steps=4, omega=(0.3, 0.7), c=c,
        )
        c[5] = np.nan
        assert np.array_equal(spec.c, np.full(17, 0.5)) and not spec.c.flags.writeable
        assert np.all(np.isfinite(solve_forward(spec, np.sin(np.pi * mesh.nodes)).values))


# --------------------------------------------------------------------------------
# the factor-once marching engine against a per-substep solve_banded reference


def _reference_assembly(op, coef, mesh, regime):
    """(diag, off) of the stiffness, accumulated face by face."""
    cond = np.asarray(coef.eval(mesh.faces), dtype=float) / mesh.spacings
    start = 0 if regime is LeftBoundary.ZERO_FLUX else 1
    n = op.n_unknowns
    diag = np.zeros(n)
    off = np.zeros(max(n - 1, 0))
    for f in range(mesh.nodes.size - 1):
        lu, ru = f - start, f + 1 - start
        if 0 <= lu < n:
            diag[lu] += cond[f]
        if 0 <= ru < n:
            diag[ru] += cond[f]
        if 0 <= lu < n and 0 <= ru < n:
            off[lu] -= cond[f]
    return diag, off


@dataclass(frozen=True)
class _Substep:
    t0: float
    tau: float
    implicit: float  # 1.0 backward Euler, 0.5 Crank-Nicolson
    t_sample: float  # where forward controls and sources are sampled
    closes: bool = True  # ends on a step boundary t = m * dt


def _reference_schedule(spec):
    """The palindromic substep schedule as one object per substep."""
    k = spec.dt
    M = spec.time_steps
    subs = []
    for m in range(M):
        t0 = m * k
        if spec.scheme is Scheme.BACKWARD_EULER:
            subs.append(_Substep(t0, k, 1.0, t0 + k))
        elif M >= 3 and (m == 0 or m == M - 1):
            subs.append(_Substep(t0, 0.5 * k, 1.0, t0 + 0.5 * k, closes=False))
            subs.append(_Substep(t0 + 0.5 * k, 0.5 * k, 1.0, t0 + k))
        else:
            subs.append(_Substep(t0, k, 0.5, t0 + 0.5 * k))
    return subs


def _reference_steps(spec):
    """Per substep: (substep, banded L, R diagonal, R off-diagonal)."""
    op = assemble_diffusion(spec.coef, spec.mesh, spec.regime)
    W, n = op.weights, op.n_unknowns
    # the potential, constant in time, on the unknown nodes
    c = np.broadcast_to(spec.c, spec.mesh.nodes.shape)[op.node_index]
    gd = op.diag + W * c
    steps = []
    for sub in _reference_schedule(spec):
        th = sub.implicit
        Lb = np.zeros((3, n))
        Lb[0, 1:] = th * sub.tau * op.off
        Lb[1] = W + th * sub.tau * gd
        Lb[2, :-1] = th * sub.tau * op.off
        steps.append((sub, Lb, W - (1.0 - th) * sub.tau * gd, -(1.0 - th) * sub.tau * op.off))
    return op, steps


def _apply(Rd, Ro, u):
    out = Rd * u
    out[:-1] += Ro * u[1:]
    out[1:] += Ro * u[:-1]
    return out


def _reference_forward(spec, u0, control=None, source=None):
    """Forward march with one solve_banded call per substep and step ends
    found by accumulating substep lengths."""
    op, steps = _reference_steps(spec)
    W = op.weights
    xs = spec.mesh.nodes[op.node_index]
    mask = omega_node_mask(spec.mesh, spec.omega)[op.node_index]
    u = op.restrict(u0)
    rows = np.zeros((spec.time_steps + 1, spec.mesh.nodes.size))
    rows[0] = op.embed(u)
    m, t_acc = 1, 0.0
    for sub, Lb, Rd, Ro in steps:
        rhs = _apply(Rd, Ro, u)
        g = np.zeros_like(u)
        if control is not None:
            g += np.where(mask, control(sub.t_sample, xs) * np.ones_like(xs), 0.0)
        if source is not None:
            g += source(sub.t_sample, xs) * np.ones_like(xs)
        if g.any():
            rhs = rhs + sub.tau * W * g
        u = solve_banded((1, 1), Lb, rhs)
        t_acc += sub.tau
        if abs(t_acc - m * spec.dt) < 1e-12 * max(1.0, spec.T):
            rows[m] = op.embed(u)
            m += 1
    return rows


def _reference_adjoint(spec, vT, F=None):
    """Transposed march from vT under the nodal source row F, constant in
    time: (rows, pairing) with one solve_banded per solve."""
    op, steps = _reference_steps(spec)
    W = op.weights
    M = spec.time_steps
    v = op.restrict(vT)
    rows = np.zeros((M + 1, spec.mesh.nodes.size))
    rows[M] = op.embed(v)
    z = W * v
    pairing = [None] * len(steps)
    m, t_acc = M - 1, spec.T
    for j in range(len(steps) - 1, -1, -1):
        sub, Lb, Rd, Ro = steps[j]
        y = solve_banded((1, 1), Lb, z)
        pairing[j] = y
        z = _apply(Rd, Ro, y)
        if F is not None:
            z = z - sub.tau * W * solve_banded((1, 1), Lb, W * op.restrict(F))
        t_acc -= sub.tau
        if m >= 0 and abs(t_acc - m * spec.dt) < 1e-12 * max(1.0, spec.T):
            rows[m] = op.embed(z / W)
            m -= 1
    return rows, np.array(pairing)


def _draws(spec, seed, count=1):
    rng = np.random.default_rng(seed)
    out = rng.standard_normal((count, spec.mesh.nodes.size))
    out[:, -1] = 0.0
    return out


ENGINE_CASES = [
    (scheme, gamma) for scheme in (Scheme.CRANK_NICOLSON, Scheme.BACKWARD_EULER)
    for gamma in (0.5, 1.5)
]


class TestMarchingEngine:
    @pytest.mark.parametrize("N", [2, 3, 17, 64])
    @pytest.mark.parametrize("regime", [WEAK, STRONG])
    def test_assembly_matches_face_loop(self, N, regime):
        coef = make_power_coefficient(0.5)
        mesh = build_mesh(N, 2.0)
        op = assemble_diffusion(coef, mesh, regime)
        diag, off = _reference_assembly(op, coef, mesh, regime)
        assert np.array_equal(op.diag, diag) and np.array_equal(op.off, off)

    @pytest.mark.parametrize("scheme,gamma", ENGINE_CASES)
    def test_forward_bit_identical(self, scheme, gamma):
        spec = make_spec(gamma=gamma, N=40, M=24, scheme=scheme)
        u0 = _draws(spec, 1)[0]
        control = lambda t, x: np.cos(3.0 * t) * x
        source = lambda t, x: np.sin(np.pi * x) * (1.0 + t)
        got = solve_forward(
            spec, u0, control=_on_schedule(spec, control), source=_on_schedule(spec, source)
        ).values
        assert np.array_equal(got, _reference_forward(spec, u0, control, source))
        assert np.array_equal(solve_forward(spec, u0).values, _reference_forward(spec, u0))

    @pytest.mark.parametrize("scheme,gamma", ENGINE_CASES)
    def test_forward_sample_arrays_bit_identical(self, scheme, gamma):
        # per-substep nodal sample arrays, with all-zero forcing rows (one of
        # them -0.0) that must add nothing, against callables reading the same
        # rows on the unknown nodes
        spec = make_spec(gamma=gamma, N=40, M=24, scheme=scheme)
        u0 = _draws(spec, 7)[0]
        op = assemble_diffusion(spec.coef, spec.mesh, spec.regime)
        xs = spec.mesh.nodes
        ts = np.array([sub.t_sample for sub in _reference_schedule(spec)])
        control = np.cos(3.0 * ts)[:, None] * xs
        source = np.sin(np.pi * xs) * (1.0 + ts)[:, None]
        control[::3] = 0.0
        source[::3] = 0.0
        source[3] = -0.0
        row = {t: j for j, t in enumerate(ts.tolist())}
        got = solve_forward(spec, u0, control=control, source=source).values
        want = _reference_forward(
            spec, u0, lambda t, x: op.restrict(control[row[t]]),
            lambda t, x: op.restrict(source[row[t]]),
        )
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("scheme,gamma", ENGINE_CASES)
    def test_adjoint_bit_identical(self, scheme, gamma):
        spec = make_spec(gamma=gamma, N=40, M=24, scheme=scheme)
        vT = _draws(spec, 2)[0]
        F = np.cos(np.pi * spec.mesh.nodes)
        J = pde_solver.substep_times(spec)[0].size
        n = assemble_diffusion(spec.coef, spec.mesh, spec.regime).n_unknowns
        pairing = np.empty((J, n))
        rows = _adjoint_march(spec, vT, F=F, pairing_out=pairing)
        ref_rows, ref_pairing = _reference_adjoint(spec, vT, F)
        assert np.array_equal(rows, ref_rows)
        assert np.array_equal(pairing, ref_pairing)

    @pytest.mark.parametrize("scheme", [Scheme.CRANK_NICOLSON, Scheme.BACKWARD_EULER])
    def test_potential_bit_identical(self, scheme):
        spec = make_spec(N=40, M=24, scheme=scheme, c=SPACE_POTENTIAL)
        u0, vT = _draws(spec, 3, 2)
        assert np.array_equal(solve_forward(spec, u0).values, _reference_forward(spec, u0))
        assert np.array_equal(solve_adjoint(spec, vT).values, _reference_adjoint(spec, vT)[0])

    @pytest.mark.parametrize("scheme,gamma", ENGINE_CASES)
    def test_batched_adjoint_matches_per_sample(self, scheme, gamma):
        spec = make_spec(gamma=gamma, N=40, M=24, scheme=scheme)
        vTs = _draws(spec, 4, 5)
        fs = _draws(spec, 5, 5)
        rows = _adjoint_march(spec, vTs, fs)
        assert rows.shape == (5, spec.time_steps + 1, spec.mesh.nodes.size)
        for i in range(5):
            assert np.array_equal(rows[i], _reference_adjoint(spec, vTs[i], fs[i])[0])
            assert np.array_equal(rows[i], solve_adjoint(spec, vTs[i], F=fs[i]).values)

    @pytest.mark.parametrize(
        "N,regime,n_unknowns", [(2, WEAK, 1), (2, STRONG, 2), (3, WEAK, 2)]
    )
    @pytest.mark.parametrize("scheme", [Scheme.CRANK_NICOLSON, Scheme.BACKWARD_EULER])
    def test_tiny_systems(self, N, regime, n_unknowns, scheme):
        coef = make_power_coefficient(1.0)
        spec = ProblemSpec(
            T=1.0, coef=coef, regime=regime, mesh=build_mesh(N, 2.0), time_steps=6,
            omega=(0.3, 0.7), scheme=scheme,
        )
        op = assemble_diffusion(coef, spec.mesh, regime)
        assert op.n_unknowns == n_unknowns
        u0, vT = _draws(spec, 6, 2)
        F = np.ones(spec.mesh.nodes.size)
        fwd = solve_forward(spec, u0)
        adj = solve_adjoint(spec, vT)
        lhs = op.inner(op.restrict(fwd.values[-1]), op.restrict(vT))
        rhs = op.inner(op.restrict(u0), op.restrict(adj.values[0]))
        assert abs(lhs - rhs) / (abs(lhs) + abs(rhs)) < 1e-14
        assert np.array_equal(fwd.values, _reference_forward(spec, u0))
        assert np.array_equal(
            solve_adjoint(spec, vT, F=F).values, _reference_adjoint(spec, vT, F)[0]
        )

    def test_nan_source_raises(self):
        spec = make_spec(N=16, M=8)
        u0 = np.zeros(spec.mesh.nodes.size)
        late_nan = lambda t, x: np.full_like(x, np.nan if t > 0.5 else 1.0)
        with pytest.raises(ValueError, match="non-finite march: the control or source"):
            solve_forward(spec, u0, source=_on_schedule(spec, late_nan))
        with np.errstate(invalid="ignore"), pytest.raises(
            ValueError, match="non-finite march: the control or source"
        ):
            solve_forward(spec, u0, control=np.full_like(u0, np.inf))
        fs = np.ones((2, spec.mesh.nodes.size))
        fs[1, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite march: the source"):
            solve_adjoint(spec, u0, F=fs[1])
        with pytest.raises(ValueError, match="non-finite march: the source"):
            _adjoint_march(spec, np.zeros_like(fs), fs)

    def test_march_overflow_names_the_horizon(self):
        # a free march names no forcing, since it has none; every march names
        # the T and time_steps that set its substeps.  The potential, just
        # inside the backward-Euler bound, grows the state past double precision
        growing = make_spec(N=16, M=200, c=-199.9, scheme=Scheme.BACKWARD_EULER)
        u0 = np.sin(np.pi * growing.mesh.nodes)
        free = ("non-finite march: the unforced state reached NaN or inf "
                "at T=1, time_steps=200")
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match=re.escape(free)):
                solve_forward(growing, u0)
            with pytest.raises(ValueError, match=re.escape(free)):
                solve_adjoint(growing, u0)
        spec = make_spec(N=16, M=8)
        nan = np.full_like(u0, np.nan)
        with pytest.raises(ValueError, match=re.escape(
            "non-finite march: the control or source produced NaN or inf at T=1, time_steps=8"
        )):
            solve_forward(spec, np.zeros_like(u0), source=nan)
        with pytest.raises(ValueError, match=re.escape(
            "non-finite march: the source produced NaN or inf at T=1, time_steps=8"
        )):
            solve_adjoint(spec, u0, F=nan)

    def test_overflowing_step_matrix_is_refused_before_it_is_formed(self):
        huge = make_spec(N=16, M=8, T=1.7976931348623157e308)
        u0 = np.sin(np.pi * huge.mesh.nodes)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for march in (solve_forward, solve_adjoint):
                with pytest.raises(ValueError, match=r"^step matrix overflow: a substep of "
                                   r"length 2\.24712e\+307 .* at T=1\.79769e\+308, time_steps=8$"):
                    march(huge, u0)
            # a substep whose tau*G is half the largest double is formed
            op = pde_solver.assemble_diffusion(huge.coef, huge.mesh, huge.regime)
            g_max = max(np.max(np.abs(op.diag)), np.max(np.abs(op.off)))
            pde_solver._Stepper(make_spec(N=16, M=8, T=8 * (np.finfo(float).max / g_max / 2)))

    def test_nonfinite_potential_raises(self):
        with pytest.raises(ValueError, match="potential c must be a finite number"):
            make_spec(N=16, M=8, c=lambda x: np.where(x > 0.5, np.nan, 0.0))


# --------------------------------------------------------------------------------
# the in-place engine against a copy of the allocating per-substep loop it replaced


def _old_engine(spec):
    """Per substep: (substep, factored L, R diagonal, R off-diagonal, tau*W),
    and the number of padding rows, as the allocating engine built them
    (scipy's LAPACK wrappers take three unknowns or more)."""
    op, steps = _reference_steps(spec)
    pad = max(0, 3 - op.n_unknowns)
    out = []
    for sub, Lb, Rd, Ro in steps:
        Ld = np.concatenate((Lb[1], np.ones(pad)))
        Lo = np.concatenate((Lb[0, 1:], np.zeros(pad)))
        factors = lapack.dgttrf(Lo, Ld, Lo)[:5]
        out.append((sub, factors, Rd, Ro, sub.tau * op.weights))
    return out, pad


def _old_solve_L(factors, pad, rhs):
    b = rhs.T
    if pad:
        b = np.concatenate((b, np.zeros((pad,) + b.shape[1:])))
    x, _ = lapack.dgttrs(*factors, b, overwrite_b=1)
    return (x[: x.shape[0] - pad] if pad else x).T


def _old_apply_R(Rd, Ro, u):
    out = Rd * u
    out[..., :-1] += Ro * u[..., 1:]
    out[..., 1:] += Ro * u[..., :-1]
    return out


def _old_forward(spec, u, g=None):
    """(final state, rows) of the allocating forward loop; g holds per-substep
    unweighted forcing."""
    steps, pad = _old_engine(spec)
    cols = pde_solver._Stepper(spec).cols
    rows = np.zeros(u.shape[:-1] + (spec.time_steps + 1, spec.mesh.nodes.size))
    m = 1
    for j, (sub, factors, Rd, Ro, tw) in enumerate(steps):
        rhs = _old_apply_R(Rd, Ro, u)
        if g is not None:
            rhs = rhs + tw * g[j]
        u = _old_solve_L(factors, pad, rhs)
        if sub.closes:
            rows[..., m, cols] = u
            m += 1
    return u, rows


def _old_backward(spec, v, F=None):
    """(rows, pairing) of the allocating transposed loop with the deposits
    of ``_adjoint_march`` of the source rows F on the unknown nodes."""
    steps, pad = _old_engine(spec)
    st = pde_solver._Stepper(spec)
    W = st.op.weights
    M = spec.time_steps
    rows = np.zeros(v.shape[:-1] + (M + 1, spec.mesh.nodes.size))
    rows[..., M, st.cols] = v
    pairing = np.empty((len(steps),) + v.shape)
    z = W * v
    m = M - 1
    for j in range(len(steps) - 1, -1, -1):
        sub, factors, Rd, Ro, tw = steps[j]
        y = _old_solve_L(factors, pad, z)
        pairing[j] = y
        z = _old_apply_R(Rd, Ro, y)
        if F is not None:
            z = z - tw * _old_solve_L(factors, pad, W * F)
        if j == 0 or steps[j - 1][0].closes:
            rows[..., m, st.cols] = z / W
            m -= 1
    return rows, pairing


def _spec_for(N, regime, scheme, c=0.0):
    """The spec of the arguments; a callable c(x) is taken at the mesh nodes."""
    coef = make_power_coefficient(1.0 if N < 8 else 0.5)
    mesh = build_mesh(N, 2.0)
    return ProblemSpec(
        T=1.0, coef=coef, regime=regime, mesh=mesh, time_steps=7,
        omega=(0.3, 0.7), scheme=scheme, c=c(mesh.nodes) if callable(c) else c,
    )


# potentials, constant in time: the CLI's potential_const, and one that
# varies in space
CONST_POTENTIAL = 0.5
SPACE_POTENTIAL = lambda x: 0.3 + 0.2 * np.sin(2 * np.pi * x)  # noqa: E731

IN_PLACE_CASES = [
    pytest.param(24, STRONG, Scheme.CRANK_NICOLSON, 0.0, id="cn"),
    pytest.param(24, WEAK, Scheme.BACKWARD_EULER, 0.0, id="be"),
    pytest.param(24, STRONG, Scheme.CRANK_NICOLSON, SPACE_POTENTIAL, id="cn-potential"),
    pytest.param(24, WEAK, Scheme.BACKWARD_EULER, SPACE_POTENTIAL, id="be-potential"),
    pytest.param(24, STRONG, Scheme.CRANK_NICOLSON, CONST_POTENTIAL, id="cn-const-potential"),
    pytest.param(24, WEAK, Scheme.BACKWARD_EULER, CONST_POTENTIAL, id="be-const-potential"),
    pytest.param(24, WEAK, Scheme.CRANK_NICOLSON, SPACE_POTENTIAL, id="cn-space-potential"),
    pytest.param(24, STRONG, Scheme.BACKWARD_EULER, SPACE_POTENTIAL, id="be-space-potential"),
    pytest.param(2, WEAK, Scheme.CRANK_NICOLSON, 0.0, id="n1"),
    pytest.param(2, STRONG, Scheme.CRANK_NICOLSON, SPACE_POTENTIAL, id="n2-strong"),
    pytest.param(3, WEAK, Scheme.BACKWARD_EULER, 0.0, id="n2-weak"),
    pytest.param(3, STRONG, Scheme.CRANK_NICOLSON, 0.0, id="n3"),
]


class TestInPlaceEngine:
    @pytest.mark.parametrize("S", [None, 3])
    @pytest.mark.parametrize("N,regime,scheme,c", IN_PLACE_CASES)
    def test_forward_matches_allocating_loop(self, N, regime, scheme, c, S):
        spec = _spec_for(N, regime, scheme, c)
        st = pde_solver._Stepper(spec)
        n, J = st.op.n_unknowns, st.tau.size
        rng = np.random.default_rng(N + (S or 0))
        shape = (n,) if S is None else (S, n)
        u = rng.standard_normal(shape)
        g = rng.standard_normal((J,) + shape)
        const = np.broadcast_to(g[0], g.shape)
        # no forcing, forcing constant in time (one row in u's shape), and
        # forcing substep by substep
        for forcing, load in ((None, None), (const, g[0]), (g, g)):
            rows = np.zeros(shape[:-1] + (spec.time_steps + 1, spec.mesh.nodes.size))

            def closed(m, state):
                rows[..., m, st.cols] = state

            u_in = u.copy()
            got = st.forward(u_in, load, closed)
            assert np.array_equal(u_in, u)  # the input is not consumed
            want, want_rows = _old_forward(spec, u, forcing)
            assert got.shape == shape
            assert np.array_equal(got, want)
            assert np.array_equal(rows, want_rows)

    @pytest.mark.parametrize("S", [None, 3])
    @pytest.mark.parametrize("N,regime,scheme,c", IN_PLACE_CASES)
    def test_backward_matches_allocating_loop(self, N, regime, scheme, c, S):
        spec = _spec_for(N, regime, scheme, c)
        st = pde_solver._Stepper(spec)
        op = st.op
        n, J = op.n_unknowns, st.tau.size
        rng = np.random.default_rng(10 + N + (S or 0))
        shape = (n,) if S is None else (S, n)
        nodal = shape[:-1] + (spec.mesh.nodes.size,)
        vT = op.embed(rng.standard_normal(shape))
        v = op.restrict(vT)
        # a source row shared by every sample, and one row per sample
        shared = op.embed(rng.standard_normal(n))
        F = op.embed(rng.standard_normal(shape))
        for kw, ref_kw in (
            ({}, {}),
            ({"F": shared}, {"F": op.restrict(shared)}),
            ({"F": F}, {"F": op.restrict(F)}),
        ):
            pairing = np.empty((J,) + shape)
            rows = _adjoint_march(spec, vT, stepper=st, pairing_out=pairing, **kw)
            want_rows, want_pairing = _old_backward(spec, v, **ref_kw)
            assert rows.shape == shape[:-1] + (spec.time_steps + 1, nodal[-1])
            assert np.array_equal(rows, want_rows)
            assert np.array_equal(pairing, want_pairing)
            kept = np.empty((J,) + shape)
            skipped = _adjoint_march(spec, vT, stepper=st, levels=range(0), pairing_out=kept, **kw)
            assert skipped is None and np.array_equal(kept, want_pairing)

    def test_forcing_block_is_left_alone_and_reweighted_per_march(self):
        spec = _spec_for(24, STRONG, Scheme.CRANK_NICOLSON)
        st = pde_solver._Stepper(spec)
        n, J = st.op.n_unknowns, st.tau.size
        rng = np.random.default_rng(5)
        u = rng.standard_normal(n)
        g1, g2 = rng.standard_normal((2, J, n))
        keep = g1.copy()
        first = st.forward(u, g1)
        assert np.array_equal(g1, keep)
        # the kept scratch is refilled for a new block, and a new shape gets its own
        assert np.array_equal(st.forward(u, g2), _old_forward(spec, u, g2)[0])
        assert np.array_equal(st.forward(u, g1), first)
        block = rng.standard_normal((J, 2, n))
        assert np.array_equal(st.forward(np.stack([u, u]), block),
                              _old_forward(spec, np.stack([u, u]), block)[0])

    def test_solve_L_leaves_its_input(self):
        spec = _spec_for(2, WEAK, Scheme.CRANK_NICOLSON)
        st = pde_solver._Stepper(spec)
        steps, pad = _old_engine(spec)
        rhs = np.random.default_rng(7).standard_normal((4, st.op.n_unknowns))
        before = rhs.copy()
        got = st.solve_L(0, rhs)
        assert np.array_equal(rhs, before)
        assert np.array_equal(got, _old_solve_L(steps[0][1], pad, before.copy()))


def _counting_trs(monkeypatch):
    """Count the ``dgttrs`` calls of every march from here on."""
    calls = []
    trs = pde_solver._trs

    def counted(*args):
        calls.append(1)
        return trs(*args)

    monkeypatch.setattr(pde_solver, "_trs", counted)
    return calls


class TestWindowedMarch:
    """Without a pairing to fill, a march that keeps a window of levels
    stops at the window's lowest level."""

    WINDOWS = [range(1, 9), range(5, 13), range(12, 13), range(0, 4), range(3, 4)]

    @pytest.mark.parametrize("scheme", [Scheme.CRANK_NICOLSON, Scheme.BACKWARD_EULER])
    @pytest.mark.parametrize("S", [None, 3])
    def test_window_rows_are_the_full_march_rows(self, scheme, S):
        spec = make_spec(N=24, M=12, scheme=scheme)
        vT = _draws(spec, 11, 1 if S is None else S)
        vT = vT[0] if S is None else vT
        F = _draws(spec, 12, 1)[0]
        st = pde_solver._Stepper(spec)
        for kw in ({}, {"F": F}):
            full = _adjoint_march(spec, vT, stepper=st, **kw)
            for levels in self.WINDOWS:
                rows = _adjoint_march(spec, vT, stepper=st, levels=levels, **kw)
                assert np.array_equal(rows, full[..., levels.start : levels.stop, :])

    @pytest.mark.parametrize("scheme", [Scheme.CRANK_NICOLSON, Scheme.BACKWARD_EULER])
    def test_solves_only_the_substeps_at_or_above_the_window(self, scheme, monkeypatch):
        spec = make_spec(N=24, M=12, scheme=scheme)
        st = pde_solver._Stepper(spec)
        # the step that each substep belongs to
        step_of = np.concatenate([[0], np.cumsum(st.closes)[:-1]])
        vT = _draws(spec, 13, 2)
        calls = _counting_trs(monkeypatch)
        for levels in self.WINDOWS:
            calls.clear()
            _adjoint_march(spec, vT, stepper=st, levels=levels)
            assert len(calls) == np.count_nonzero(step_of >= levels.start), levels
        # a window that starts at level 0, and a march that keeps no level,
        # run every substep
        for levels in (range(0, 2), range(0)):
            calls.clear()
            _adjoint_march(spec, vT, stepper=st, levels=levels)
            assert len(calls) == st.tau.size

    def test_pairing_march_runs_every_substep(self, monkeypatch):
        spec = make_spec(N=24, M=12)
        st = pde_solver._Stepper(spec)
        vT = _draws(spec, 14, 2)
        J, n = st.tau.size, st.op.n_unknowns
        want = np.empty((J, 2, n))
        full = _adjoint_march(spec, vT, stepper=st, pairing_out=want)
        calls = _counting_trs(monkeypatch)
        for levels in (range(5, 9), range(0)):
            calls.clear()
            pairing = np.full((J, 2, n), np.nan)
            rows = _adjoint_march(spec, vT, stepper=st, levels=levels, pairing_out=pairing)
            assert len(calls) == J
            assert np.array_equal(pairing, want)
            if levels:
                assert np.array_equal(rows, full[:, 5:9])

    def test_non_finite_inside_the_window_is_refused(self):
        spec = make_spec(N=16, M=8)
        vT = _draws(spec, 15, 2)
        F = np.ones((2, spec.mesh.nodes.size))
        F[1, 3] = np.nan
        with pytest.raises(ValueError, match=re.escape(
            "non-finite march: the source produced NaN or inf at T=1, time_steps=8"
        )):
            _adjoint_march(spec, vT, F, levels=range(6, 8))
        # the unforced state that overflows on its way down names no forcing;
        # a window above the overflow stops before it, finite
        growing = make_spec(N=16, M=200, c=-199.9, scheme=Scheme.BACKWARD_EULER)
        u = np.sin(np.pi * growing.mesh.nodes)
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match=re.escape(
                "non-finite march: the unforced state reached NaN or inf at T=1, time_steps=200"
            )):
                _adjoint_march(growing, u, levels=range(1, 201))
            assert np.all(np.isfinite(_adjoint_march(growing, u, levels=range(195, 201))))


class TestConstantSource:
    @pytest.mark.parametrize("N,regime,scheme,c", IN_PLACE_CASES[:8])
    def test_deposited_once_per_distinct_L(self, N, regime, scheme, c, monkeypatch):
        spec = _spec_for(N, regime, scheme, c)
        st = pde_solver._Stepper(spec)
        J = st.tau.size
        # a potential shares the step matrices as none does
        distinct = {Scheme.CRANK_NICOLSON: 2, Scheme.BACKWARD_EULER: 1}[scheme]
        assert len(set(st.factor_of)) == len(st._factors) == distinct
        solved = []
        solve_L = st.solve_L
        monkeypatch.setattr(st, "solve_L", lambda j, rhs: solved.append(j) or solve_L(j, rhs))
        rng = np.random.default_rng(N)
        vTs, fs = st.op.embed(rng.standard_normal((2, 3, st.op.n_unknowns)))
        want = _old_backward(spec, st.op.restrict(vTs), F=st.op.restrict(fs))[0]
        rows = _adjoint_march(spec, vTs, fs, stepper=st)
        assert len(solved) == distinct and np.array_equal(rows, want)
        # a source given substep by substep is refused by name, before any solve
        solved.clear()
        with pytest.raises(ValueError, match="the adjoint source F must be one nodal row"):
            _adjoint_march(spec, vTs, np.stack([fs] * J), stepper=st)
        assert not solved


class TestScheduleTable:
    @pytest.mark.parametrize(
        "c", [0.0, CONST_POTENTIAL, SPACE_POTENTIAL],
        ids=["plain", "const-potential", "space-potential"],
    )
    @pytest.mark.parametrize("M", [1, 2, 3, 4, 97])
    @pytest.mark.parametrize("scheme", [Scheme.CRANK_NICOLSON, Scheme.BACKWARD_EULER])
    def test_columns_match_substep_objects(self, scheme, M, c):
        spec = make_spec(N=12, M=M, T=0.7, scheme=scheme, c=c)
        subs = _reference_schedule(spec)
        st = pde_solver._Stepper(spec)
        assert st.t_sample.tolist() == [sub.t_sample for sub in subs]
        assert st.tau.tolist() == [sub.tau for sub in subs]
        assert list(st.closes) == [sub.closes for sub in subs]
        # one step matrix per (tau, th): the potential does not vary in time
        keys = [(sub.tau, sub.implicit) for sub in subs]
        distinct = list(dict.fromkeys(keys))
        assert st.factor_of == [distinct.index(key) for key in keys]
        assert len(st._factors) == len(distinct)
        assert len(st.factor_of) == len(st._R) == len(st.tau_w) == len(subs)
        for tw, sub in zip(st.tau_w, subs):
            assert np.array_equal(tw, sub.tau * st.op.weights)
        ts, taus = pde_solver.substep_times(spec)
        assert np.array_equal(ts, st.t_sample) and np.array_equal(taus, st.tau)

    @pytest.mark.parametrize("regime", [WEAK, STRONG])
    def test_omega_is_the_mask_on_the_unknowns(self, regime):
        spec = _spec_for(24, regime, Scheme.CRANK_NICOLSON)
        st = pde_solver._Stepper(spec)
        want = omega_node_mask(spec.mesh, spec.omega)[st.op.node_index]
        assert st.omega.dtype == bool and np.array_equal(st.omega, want)


class TestTrapezoidTimeWeights:
    @pytest.mark.parametrize("T,M", [(1.0, 1), (2.0, 1), (2.0, 3), (0.7, 7), (10.0, 128), (1.0 / 3.0, 1000)])
    def test_matches_inline_rules(self, T, M):
        # the two inline forms the helper replaced
        halved = np.full(M + 1, T / M)
        halved[0] *= 0.5
        halved[-1] *= 0.5
        k = T / M
        assigned = np.full(M + 1, k)
        assigned[0] = assigned[-1] = 0.5 * k
        tw = trapezoid_time_weights(T, M)
        assert np.array_equal(tw, halved)
        assert np.array_equal(tw, assigned)
