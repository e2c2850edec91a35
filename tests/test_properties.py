"""Property tests over random admissible problems: power coefficients in both
degeneracy bands, mesh gradings, both time schemes and both left boundaries."""

import numpy as np
from hypothesis import given, settings, strategies as st

from carleman_lab.coefficients import make_power_coefficient
from carleman_lab.control import _DualOperator
from carleman_lab.pde_solver import _clipped_node_quadrature
from carleman_lab.pde_solver import (
    LeftBoundary,
    ProblemSpec,
    Scheme,
    assemble_diffusion,
    build_mesh,
    solve_adjoint,
    solve_forward,
)

# derandomized and without an example database: the same examples every run
PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None)

# power exponents of the weak band (0, 1) and of the strong band (1, 2)
gammas = st.one_of(st.floats(0.1, 0.9), st.floats(1.1, 1.9))


@st.composite
def problems(draw):
    spec = ProblemSpec(
        T=draw(st.floats(0.1, 2.0)),
        coef=make_power_coefficient(draw(gammas)),
        regime=draw(st.sampled_from(list(LeftBoundary))),
        mesh=build_mesh(draw(st.integers(4, 24)), draw(st.floats(1.0, 3.0))),
        time_steps=draw(st.integers(1, 24)),
        omega=(0.3, 0.7),
        scheme=draw(st.sampled_from(list(Scheme))),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return spec, rng


@PROPERTY
@given(problems())
def test_discrete_duality_to_rounding(problem):
    spec, rng = problem
    n_nodes = spec.mesh.nodes.size
    u0, vT = rng.standard_normal(n_nodes), rng.standard_normal(n_nodes)
    fwd = solve_forward(spec, u0)
    adj = solve_adjoint(spec, vT)
    op = assemble_diffusion(spec.coef, spec.mesh, spec.regime)
    lhs = op.inner(op.restrict(fwd.values[-1]), op.restrict(vT))
    rhs = op.inner(op.restrict(u0), op.restrict(adj.values[0]))
    scale = op.norm(op.restrict(u0)) * op.norm(op.restrict(vT))
    assert abs(lhs - rhs) <= 1e-12 * scale


@PROPERTY
@given(problems(), st.floats(1e-8, 1.0))
def test_gram_operator_is_w_symmetric(problem, epsilon):
    spec, rng = problem
    dual = _DualOperator(spec, epsilon)
    op = dual.op
    u, v = rng.standard_normal((2, op.n_unknowns))
    gu, gv = dual.gram_apply(u), dual.gram_apply(v)
    scale = op.norm(gu) * op.norm(v) + op.norm(u) * op.norm(gv)
    assert abs(op.inner(gu, v) - op.inner(u, gv)) <= 1e-12 * scale


@PROPERTY
@given(st.integers(2, 24), st.floats(1.0, 3.0), st.floats(0.0, 1.0))
def test_graded_quadrature_parts_sum_to_the_whole(N, grading, cut):
    nodes = build_mesh(N, grading).nodes
    whole = _clipped_node_quadrature(nodes, 0.0, 1.0)
    parts = _clipped_node_quadrature(nodes, 0.0, cut) + _clipped_node_quadrature(nodes, cut, 1.0)
    assert np.allclose(parts, whole, rtol=0.0, atol=1e-15)
    assert abs(whole.sum() - 1.0) <= 1e-15
