import math
import re

import numpy as np
import pytest

from carleman_lab.coefficients import classify, make_power_coefficient
from carleman_lab import control
from carleman_lab.control import _DualOperator, synthesize_null_control
from carleman_lab.pde_solver import (
    LeftBoundary,
    ProblemSpec,
    Scheme,
    WeightedNorms,
    _adjoint_march,
    assemble_diffusion,
    boundary_regime_for,
    build_mesh,
    solve_forward,
)
from oracles import dual_functional, dual_gradient


def make_spec(gamma=0.5, N=64, M=64, T=0.5, omega=(0.3, 0.7)):
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


class TestSynthesis:
    def test_zero_initial_state(self):
        # nothing to steer: conjugate gradients would converge at 0 iterations
        spec = make_spec(N=32, M=32)
        with pytest.raises(ValueError, match=(
            r"the initial state's energy is below 1e-300 at T=0.5, time_steps=32"
        )):
            synthesize_null_control(spec, np.zeros(spec.mesh.nodes.size), 1e-6)

    @pytest.mark.parametrize("what,T,c,scale", [
        ("initial", 0.5, 0.0, 1e-300),
        ("free terminal", 1e308, 0.0, 1.0),
        ("free terminal", 0.5, 1e308, 1.0),
    ], ids=["tiny-data", "huge-T", "huge-potential"])
    def test_underflowed_energy_is_refused(self, what, T, c, scale):
        coef = make_power_coefficient(0.5)
        rep = classify(coef)
        spec = ProblemSpec(
            T=T, coef=coef, regime=boundary_regime_for(rep), mesh=build_mesh(32, 2.0),
            time_steps=32, omega=(0.3, 0.7), c=c, hypothesis=rep,
        )
        u0 = scale * np.sin(np.pi * spec.mesh.nodes)
        with pytest.raises(ValueError, match=re.escape(
            f"the {what} state's energy is below 1e-300 at T={T:g}, time_steps=32"
        )):
            synthesize_null_control(spec, u0, 1e-6)

    def test_steers_terminal_state_down(self):
        spec = make_spec()
        u0 = np.sin(np.pi * spec.mesh.nodes)
        res = synthesize_null_control(spec, u0, 1e-6)
        assert res.converged
        assert res.terminal_norm <= 1e-2 * math.sqrt(WeightedNorms(spec.mesh, spec.coef).l2_sq(u0))

    def test_verify_matches_result(self):
        spec = make_spec()
        u0 = np.sin(np.pi * spec.mesh.nodes)
        res = synthesize_null_control(spec, u0, 1e-6)
        op = assemble_diffusion(spec.coef, spec.mesh, spec.regime)
        # the control's nodal per-substep values, as they are
        traj = solve_forward(spec, u0, control=res.values)
        assert op.norm(op.restrict(traj.values[-1])) == pytest.approx(
            res.terminal_norm, abs=1e-12
        )

    def test_free_decay_strictly_positive(self):
        # pure decay cannot reach exact zero in finite time
        spec = make_spec()
        u0 = np.sin(np.pi * spec.mesh.nodes)
        op = assemble_diffusion(spec.coef, spec.mesh, spec.regime)
        traj = solve_forward(spec, u0)
        free = op.norm(op.restrict(traj.values[-1]))
        assert free > 0.0
        res = synthesize_null_control(spec, u0, 1e-6)
        assert res.terminal_norm < free

    def test_support_confined_to_omega(self):
        spec = make_spec()
        u0 = np.sin(np.pi * spec.mesh.nodes)
        res = synthesize_null_control(spec, u0, 1e-4)
        outside = (spec.mesh.nodes <= spec.omega[0]) | (spec.mesh.nodes >= spec.omega[1])
        assert np.all(res.values[:, outside] == 0.0)

    def test_epsilon_law_slope(self):
        # the terminal norm scales like sqrt(epsilon) under observability
        spec = make_spec()
        u0 = np.sin(np.pi * spec.mesh.nodes)
        eps = np.array([1e-4, 1e-6, 1e-8])
        terminals = [synthesize_null_control(spec, u0, e).terminal_norm for e in eps]
        slope = np.polyfit(np.log(eps), np.log(terminals), 1)[0]
        assert 0.35 <= slope <= 0.65

    def test_cost_monotone_in_penalty(self):
        spec = make_spec(N=48, M=48)
        u0 = np.sin(np.pi * spec.mesh.nodes)
        costs = [
            synthesize_null_control(spec, u0, e).control_cost
            for e in (1e-4, 1e-6, 1e-8)
        ]
        assert costs[0] <= costs[1] <= costs[2]

    def test_both_boundary_regimes_converge(self):
        for gamma in (0.5, 1.5):
            spec = make_spec(gamma=gamma, N=48, M=48)
            u0 = np.sin(np.pi * spec.mesh.nodes)
            res = synthesize_null_control(spec, u0, 1e-6)
            assert res.converged
            assert math.isfinite(res.terminal_norm)

    def test_penalty_validation(self):
        spec = make_spec(N=32, M=32)
        u0 = np.sin(np.pi * spec.mesh.nodes)
        with pytest.raises(ValueError, match="positive"):
            synthesize_null_control(spec, u0, 0.0)
        with pytest.raises(ValueError, match="penalty underflow"):
            synthesize_null_control(spec, u0, 1e-16)

    def test_nonfinite_initial_data_named(self):
        spec = make_spec(N=16, M=16)
        u0 = np.sin(np.pi * spec.mesh.nodes)
        u0[5] = np.nan
        with pytest.raises(ValueError, match="initial data must be finite"):
            synthesize_null_control(spec, u0, 1e-6)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf])
    def test_nonfinite_penalty_named(self, epsilon):
        spec = make_spec(N=16, M=16)
        u0 = np.sin(np.pi * spec.mesh.nodes)
        with pytest.raises(ValueError, match=f"epsilon must be positive and finite, got {epsilon}"):
            synthesize_null_control(spec, u0, epsilon)

    def test_stagnation_reported(self):
        spec = make_spec(N=48, M=48)
        u0 = np.sin(np.pi * spec.mesh.nodes)
        res = synthesize_null_control(spec, u0, 1e-8, cg_max_iter=3)
        assert not res.converged
        assert res.cg_iterations == 3


class TestDualFunctional:
    def test_optimality_identities(self):
        # at the minimizer, J = <b, v>/2 with b the free terminal state, and
        # the gradient residual is small against the data scale
        spec = make_spec(N=48, M=48)
        u0 = np.sin(np.pi * spec.mesh.nodes)
        eps = 1e-6
        res = synthesize_null_control(spec, u0, eps, cg_tol=1e-10)
        op = assemble_diffusion(spec.coef, spec.mesh, spec.regime)
        b = op.restrict(solve_forward(spec, u0).values[-1])
        v_hat = op.restrict(res.v_T)
        j_val = dual_functional(spec, u0, eps, res.v_T)
        assert j_val == pytest.approx(0.5 * op.inner(b, v_hat), rel=1e-8)
        grad = op.restrict(dual_gradient(spec, u0, eps, res.v_T))
        assert op.norm(grad) <= 1e-9 * op.norm(b) + 1e-14

    def test_gradient_against_central_differences(self):
        # the functional is quadratic, so central differences are exact up to
        # rounding; the tolerance matches the acceptance requirement
        spec = make_spec(N=48, M=48)
        u0 = np.sin(np.pi * spec.mesh.nodes)
        op = assemble_diffusion(spec.coef, spec.mesh, spec.regime)
        vT = 0.4 * np.sin(2 * np.pi * spec.mesh.nodes)
        grad = op.restrict(dual_gradient(spec, u0, 1e-6, vT))
        rng = np.random.default_rng(17)
        for _ in range(10):
            d = rng.standard_normal(spec.mesh.nodes.size)
            d[0] = d[-1] = 0.0
            du = op.restrict(d)
            h = 1e-4
            fd = (
                dual_functional(spec, u0, 1e-6, vT + h * d)
                - dual_functional(spec, u0, 1e-6, vT - h * d)
            ) / (2 * h)
            an = op.inner(grad, du)
            assert abs(fd - an) / (abs(an) + 1e-30) < 1e-6


def _allocating_gram(dual, v):
    """The Gram operator as one CG iteration computed it before the blocks
    were kept: a fresh pairing block, a fresh masked copy, and a forward
    march that weights the control substep by substep."""
    op, st = dual.op, dual.stepper
    pairing = np.empty((st.tau.size, v.size))
    _adjoint_march(dual.spec, op.embed(v), stepper=st, levels=range(0), pairing_out=pairing)
    ctrl = np.where(st.omega, pairing, 0.0)
    return st.forward(np.zeros_like(v), ctrl) + dual.epsilon * v


def _engine_spec(N, left, scheme):
    return ProblemSpec(
        T=0.5, coef=make_power_coefficient(0.5 if left is LeftBoundary.DIRICHLET_ZERO else 1.5),
        regime=left, mesh=build_mesh(N, 2.0), time_steps=N,
        omega=(0.3, 0.7), scheme=scheme,
    )


ENGINE_CASES = [
    pytest.param(N, left, scheme, id=f"{N}-{left.value}-{scheme.value}")
    for N in (8, 32, 96)
    for left in LeftBoundary
    for scheme in Scheme
]


class TestReusedBlocks:
    @pytest.mark.parametrize("N,left,scheme", ENGINE_CASES)
    def test_gram_apply_bitwise_equals_the_allocating_path(self, N, left, scheme):
        dual = _DualOperator(_engine_spec(N, left, scheme), 1e-6)
        rng = np.random.default_rng(N)
        for _ in range(3):  # the kept blocks are reused from the second call on
            v = rng.standard_normal(dual.op.n_unknowns)
            assert np.array_equal(dual.gram_apply(v), _allocating_gram(dual, v))

    @pytest.mark.parametrize("N,left,scheme", ENGINE_CASES)
    def test_synthesis_unchanged(self, N, left, scheme, monkeypatch):
        spec = _engine_spec(N, left, scheme)
        u0 = np.sin(np.pi * spec.mesh.nodes) + 0.3 * np.sin(2 * np.pi * spec.mesh.nodes)
        got = synthesize_null_control(spec, u0, 1e-6)
        monkeypatch.setattr(control._DualOperator, "gram_apply", _allocating_gram)
        want = synthesize_null_control(spec, u0, 1e-6)
        assert got.cg_iterations == want.cg_iterations > 0
        for name in ("terminal_norm", "control_cost", "converged"):
            assert getattr(got, name) == getattr(want, name)
        for name in ("v_T", "values", "sample_times"):
            assert np.array_equal(getattr(got, name), getattr(want, name))

    def test_results_do_not_alias_the_kept_blocks(self):
        dual = _DualOperator(_engine_spec(32, LeftBoundary.ZERO_FLUX, Scheme.CRANK_NICOLSON), 1e-4)
        rng = np.random.default_rng(3)
        v1, v2 = rng.standard_normal((2, dual.op.n_unknowns))
        first = dual.gram_apply(v1)
        kept = first.copy()
        second = dual.gram_apply(v2)
        assert np.array_equal(first, kept)  # the second call left the first result alone
        assert not np.array_equal(first, second)
        for block in (dual._pairing, dual.stepper._weighted):
            assert not np.shares_memory(first, block)
            assert not np.shares_memory(second, block)

    @pytest.mark.parametrize("left", list(LeftBoundary))
    def test_dual_functional_and_gradient_after_a_synthesis(self, left):
        spec = _engine_spec(32, left, Scheme.CRANK_NICOLSON)
        u0 = np.sin(np.pi * spec.mesh.nodes)
        eps = 1e-6
        res = synthesize_null_control(spec, u0, eps)
        dual = _DualOperator(spec, eps)
        op = dual.op
        v = op.restrict(res.v_T)
        b = dual.forward_terminal(op.restrict(u0), None)
        # the gradient is the Gram operator plus the free terminal state
        grad = op.restrict(dual_gradient(spec, u0, eps, res.v_T))
        assert np.array_equal(grad, _allocating_gram(dual, v) + b)
        assert op.norm(grad) <= 1e-7 * op.norm(b)
        # the functional at the minimizer from its definition, on fresh blocks
        st = dual.stepper
        pairing = np.empty((st.tau.size, op.n_unknowns))
        rows = _adjoint_march(spec, res.v_T, pairing_out=pairing)
        ctrl = np.where(st.omega, pairing, 0.0)
        cost = float(sum(tau * np.dot(op.weights * r, r) for tau, r in zip(st.tau, ctrl)))
        want = (
            0.5 * cost + 0.5 * eps * op.inner(v, v)
            + op.inner(op.restrict(u0), op.restrict(rows[0]))
        )
        assert dual_functional(spec, u0, eps, res.v_T) == want
        assert res.control_cost == cost
