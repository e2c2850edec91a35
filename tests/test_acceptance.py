"""Acceptance gate: every verification target of the laboratory at desk scale.

Each test prints one PASS/FAIL line with the measured numbers so the suite
doubles as a report.  Tolerances are pinned here and nowhere else.
"""

import math

import numpy as np

from carleman_lab.carleman import (
    CarlemanParams,
    carleman_sweep,
    identity_residual,
    observability_ratio,
    standard_identity_fields,
    transform_to_w,
)
from carleman_lab.coefficients import classify, make_power_coefficient
from carleman_lab.control import synthesize_null_control
from carleman_lab.functionals import (
    HardyCase,
    aux_hardy_b,
    aux_hardy_p,
    hardy_ratio,
)
from carleman_lab.pde_solver import (
    ProblemSpec,
    Scheme,
    WeightedNorms,
    assemble_diffusion,
    boundary_regime_for,
    build_mesh,
    solve_adjoint,
    solve_forward,
    substep_times,
)
from carleman_lab.sampling import (
    STREAM_CONTROL,
    STREAM_INITIAL,
    STREAM_TERMINAL,
    sample_fields,
)
from carleman_lab.weights import build_weights
from oracles import boundary_sign_term, dual_functional, dual_gradient


def spec_for(gamma, N, M, T, omega=(0.3, 0.7), scheme=Scheme.CRANK_NICOLSON):
    coef = make_power_coefficient(gamma)
    rep = classify(coef)
    return ProblemSpec(
        T=T,
        coef=coef,
        regime=boundary_regime_for(rep),
        mesh=build_mesh(N, 2.0),
        time_steps=M,
        omega=omega,
        scheme=scheme,
        hypothesis=rep,
    )


def report(ok: bool, label: str, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


class TestAcceptance:
    def test_01_conjugated_operator_identity(self):
        # 3 fields x 2 coefficients x both boundary families; the relative
        # residual at resolution 256 is below 1e-3 and shrinks from 128
        T = 2.0
        params = CarlemanParams(1.0, 1.0)
        worst = 0.0
        all_ok = True
        lines = []
        for gamma in (1.0, 1.5):
            wts = build_weights(make_power_coefficient(gamma), 1.0, T, 0.4, 0.6)
            for dirichlet in (True, False):
                for f in standard_identity_fields(T, dirichlet):
                    coarse = identity_residual(f, wts, params, 128)
                    fine = identity_residual(f, wts, params, 256)
                    ok = fine < 1e-3 and (fine < coarse or fine < 1e-4)
                    all_ok = all_ok and ok
                    worst = max(worst, fine)
                    lines.append(f"{gamma}/{f.name}/{'v' if dirichlet else 'f'}={fine:.2e}")
        report(
            all_ok,
            "criterion 1 (operator product identity)",
            f"worst residual at 256 = {worst:.3e} (< 1e-3, decreasing); " + " ".join(lines),
        )

    def test_02_boundary_term_sign(self):
        params = CarlemanParams(1.0, 1.0)
        worst = math.inf
        for gamma in (0.5, 1.5):
            spec = spec_for(gamma, 128, 128, 2.0)
            wts = build_weights(spec.coef, 1.0, spec.T, 0.4, 0.6)
            vts = sample_fields(5, STREAM_TERMINAL, 50, spec.mesh.nodes)
            for i in range(50):
                traj = solve_adjoint(spec, vts[i])
                term, scale = boundary_sign_term(transform_to_w(traj, wts, params), wts, params)
                worst = min(worst, term / scale if scale > 0 else 0.0)
        report(
            worst >= -1e-8,
            "criterion 2 (boundary flux sign)",
            f"worst term/scale over 100 draws = {worst:.3e} (>= -1e-8)",
        )

    def test_03_carleman_sweep(self):
        # both degeneracy bands, 20 samples, four s-doublings above the
        # stable threshold, lambda in {2, 4}; ratios finite, non-exploding
        # per doubling, empirical constant mesh-stable within 20 percent
        all_ok = True
        details = []
        for gamma in (0.5, 1.5):
            Cs = {}
            for N in (128, 256):
                spec = spec_for(gamma, N, N, 10.0, omega=(0.02, 0.95))
                res = carleman_sweep(
                    spec,
                    n_samples=20,
                    s_grid=[1, 2, 4, 8, 16],
                    lambda_grid=[2.0, 4.0],
                    seed=42,
                    omega_prime=(0.05, 0.9),
                    s_relative=True,
                )
                finite = bool(np.isfinite(res.table["ratio"]).all()) and (
                    res.summary["excluded_count"] == 0
                )
                all_ok = all_ok and finite
                if N == 128:
                    for lam in (2.0, 4.0):
                        maxima = res.points["max_ratio"][res.points["lambda"] == lam]
                        for i in range(len(maxima) - 1):
                            if maxima[i + 1] > 1.2 * maxima[i]:
                                all_ok = False
                Cs[N] = res.summary["empirical_C"]
            drift = abs(Cs[256] - Cs[128]) / Cs[128]
            all_ok = all_ok and drift < 0.20
            details.append(f"gamma={gamma}: C128={Cs[128]:.4g} C256={Cs[256]:.4g} drift={drift:.2%}")
        report(all_ok, "criterion 3 (weighted inequality sweep)", "; ".join(details))

    def test_04_hardy_ratios(self):
        coef = make_power_coefficient(0.5)
        mesh = build_mesh(2048, 2.0)
        analytic = hardy_ratio(coef, mesh, mesh.nodes[None], HardyCase.CASE_A)["ratio"][0]
        ok = abs(analytic - 1.0) < 1e-6

        maxima = {}
        for N in (256, 512):
            m = build_mesh(N, 2.0)
            draws = sample_fields(11, STREAM_TERMINAL, 100, m.nodes)
            maxima[N] = max(hardy_ratio(coef, m, draws, HardyCase.CASE_A)["ratio"])
        drift = abs(maxima[512] - maxima[256]) / maxima[256]
        ok = ok and math.isfinite(maxima[512]) and drift < 0.10

        # auxiliary profiles on the unit-ratio path of the linear coefficient
        lin = make_power_coefficient(1.0)
        aux_detail = []
        for label, aux, case in (
            ("p", aux_hardy_p(lin), HardyCase.AUX_P),
            ("b", aux_hardy_b(lin), HardyCase.AUX_B),
        ):
            amax = {}
            for N in (256, 512):
                m = build_mesh(N, 2.0)
                draws = sample_fields(11, STREAM_TERMINAL, 100, m.nodes)
                amax[N] = max(hardy_ratio(aux, m, draws, case)["ratio"])
            adrift = abs(amax[512] - amax[256]) / amax[256]
            ok = ok and math.isfinite(amax[512]) and adrift < 0.10
            aux_detail.append(f"{label}: max={amax[512]:.4g} drift={adrift:.2%}")
        report(
            ok,
            "criterion 4 (Hardy-type ratios)",
            f"analytic |ratio-1|={abs(analytic-1):.2e}; empirical max={maxima[512]:.4g} "
            f"drift={drift:.2%}; aux " + "; ".join(aux_detail),
        )

    # regression baselines recorded on the first run of this configuration
    ENERGY_BASELINES = {0.5: 2.6195, 1.5: 2.2063}

    def test_05_energy_estimate(self):
        from carleman_lab.pde_solver import energy_report

        ok = True
        details = []
        for gamma in (0.5, 1.5):
            spec = spec_for(gamma, 128, 128, 1.0)
            u0s = sample_fields(3, STREAM_INITIAL, 20, spec.mesh.nodes)
            hs = sample_fields(3, STREAM_CONTROL, 20, spec.mesh.nodes)
            ratios = energy_report(spec, u0s, hs)
            finite = all(math.isfinite(r) for r in ratios)
            baseline = self.ENERGY_BASELINES[gamma]
            within = max(ratios) <= 1.25 * baseline
            ok = ok and finite and within
            details.append(f"gamma={gamma}: max={max(ratios):.4f} (baseline {baseline})")
        report(ok, "criterion 5 (energy estimate)", "; ".join(details))

    def test_06_solver_convergence(self):
        coef = make_power_coefficient(1.0)
        pi = np.pi

        def exact(t, x):
            return np.exp(np.sin(2.0 * t) - t) * np.sin(pi * x)

        def source(t, x):
            q = np.exp(np.sin(2.0 * t) - t)
            return q * (
                (2.0 * np.cos(2.0 * t) - 1.0) * np.sin(pi * x)
                - pi * np.cos(pi * x)
                + pi * pi * x * np.sin(pi * x)
            )

        def run(N, M):
            from carleman_lab.pde_solver import LeftBoundary

            mesh = build_mesh(N, 1.0)
            spec = ProblemSpec(
                T=1.0,
                coef=coef,
                regime=LeftBoundary.DIRICHLET_ZERO,
                mesh=mesh,
                time_steps=M,
                omega=(0.3, 0.7),
            )
            # the source at every substep time on the mesh nodes
            f = np.stack([source(t, mesh.nodes) for t in substep_times(spec)[0]])
            traj = solve_forward(spec, exact(0.0, mesh.nodes), source=f)
            tw = np.full(M + 1, 1.0 / M)
            tw[0] *= 0.5
            tw[-1] *= 0.5
            err = 0.0
            for m, t in enumerate(traj.times):
                d = traj.values[m] - exact(t, mesh.nodes)
                err += tw[m] * float(np.sum(mesh.volumes * d * d))
            return math.sqrt(err)

        sp = [run(n, 512) for n in (32, 64, 128)]
        sp_orders = [math.log(sp[i] / sp[i + 1]) / math.log(2.0) for i in range(2)]
        tm = [run(512, m) for m in (8, 16, 32)]
        tm_orders = [math.log(tm[i] / tm[i + 1]) / math.log(2.0) for i in range(2)]
        ok = min(sp_orders) >= 1.0 and min(tm_orders) >= 1.8
        report(
            ok,
            "criterion 6 (manufactured convergence)",
            f"spatial orders {['%.2f' % o for o in sp_orders]} (>= 1), "
            f"temporal orders {['%.2f' % o for o in tm_orders]} (>= 1.8)",
        )

    def test_07_discrete_duality(self):
        worst = 0.0
        for gamma in (0.5, 1.5):
            spec = spec_for(gamma, 128, 128, 1.0)
            op = assemble_diffusion(spec.coef, spec.mesh, spec.regime)
            u0s = sample_fields(13, STREAM_INITIAL, 10, spec.mesh.nodes)
            vts = sample_fields(13, STREAM_TERMINAL, 10, spec.mesh.nodes)
            for i in range(10):
                fwd = solve_forward(spec, u0s[i])
                adj = solve_adjoint(spec, vts[i])
                lhs = op.inner(op.restrict(fwd.values[-1]), op.restrict(vts[i]))
                rhs = op.inner(op.restrict(u0s[i]), op.restrict(adj.values[0]))
                worst = max(worst, abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-300))
        report(
            worst < 1e-10,
            "criterion 7 (discrete duality)",
            f"worst relative defect over 20 pairs = {worst:.3e} (< 1e-10)",
        )

    def test_08_observability(self):
        consts = {}
        for N in (128, 256):
            spec = spec_for(0.5, N, N, 1.0)
            rep = observability_ratio(spec, n_samples=20, seed=7)
            consts[N] = rep.constant
        drift = abs(consts[256] - consts[128]) / consts[128]

        # degree-zero homogeneity
        spec = spec_for(0.5, 128, 128, 1.0)
        vt = sample_fields(7, STREAM_TERMINAL, 1, spec.mesh.nodes)[0]

        def one_ratio(v):
            from carleman_lab.functionals import _clipped_node_quadrature

            traj = solve_adjoint(spec, v)
            xw = _clipped_node_quadrature(spec.mesh.nodes, *spec.omega)
            tw = np.full(spec.time_steps + 1, spec.T / spec.time_steps)
            tw[0] *= 0.5
            tw[-1] *= 0.5
            v0 = traj.values[0]
            num = float(np.sum(spec.mesh.volumes * v0 * v0))
            den = float(np.einsum("m,mi,i->", tw, traj.values**2, xw))
            return num / den

        r1, r2 = one_ratio(vt), one_ratio(2.0 * vt)
        homo = abs(r1 - r2) / abs(r1)
        ok = math.isfinite(consts[256]) and homo < 1e-10 and drift < 0.15
        report(
            ok,
            "criterion 8 (observability constant)",
            f"constant={consts[256]:.5g}, homogeneity defect={homo:.2e} (< 1e-10), "
            f"mesh drift={drift:.2%} (< 15%)",
        )

    def test_09_null_control(self):
        spec = spec_for(0.5, 96, 96, 0.5)
        u0 = np.sin(np.pi * spec.mesh.nodes)
        u0_norm = math.sqrt(WeightedNorms(spec.mesh, spec.coef).l2_sq(u0))

        eps_grid = np.array([1e-4, 1e-6, 1e-8])
        results = {e: synthesize_null_control(spec, u0, e) for e in eps_grid}
        rel = results[1e-6].terminal_norm / u0_norm
        terminals = np.array([results[e].terminal_norm for e in eps_grid])
        slope = np.polyfit(np.log(eps_grid), np.log(terminals), 1)[0]

        op = assemble_diffusion(spec.coef, spec.mesh, spec.regime)
        vT = 0.4 * np.sin(2 * np.pi * spec.mesh.nodes)
        grad = op.restrict(dual_gradient(spec, u0, 1e-6, vT))
        rng = np.random.default_rng(17)
        grad_worst = 0.0
        for _ in range(10):
            d = rng.standard_normal(spec.mesh.nodes.size)
            d[0] = d[-1] = 0.0
            h = 1e-4
            fd = (
                dual_functional(spec, u0, 1e-6, vT + h * d)
                - dual_functional(spec, u0, 1e-6, vT - h * d)
            ) / (2 * h)
            an = op.inner(grad, op.restrict(d))
            grad_worst = max(grad_worst, abs(fd - an) / (abs(an) + 1e-300))

        ok = (
            rel <= 1e-2
            and 0.35 <= slope <= 0.65
            and grad_worst < 1e-6
            and all(results[e].converged for e in eps_grid)
        )
        report(
            ok,
            "criterion 9 (penalized null control)",
            f"terminal/|u0|={rel:.3e} (<= 1e-2), eps-law slope={slope:.3f} "
            f"(0.5 +- 0.15), gradient defect={grad_worst:.2e} (< 1e-6)",
        )

    def test_10_weight_sanity(self):
        wts = build_weights(make_power_coefficient(0.5), 1.0, 1.0, 0.3, 0.7)
        rng = np.random.default_rng(23)
        t = rng.uniform(1e-6, 1.0 - 1e-6, 10_000)
        x = rng.uniform(0.0, 1.0, 10_000)
        em = wts.eta(x) - wts.c3
        th = (t * (1.0 - t)) ** -4.0
        phi_vals = th * em
        neg = bool(np.all(phi_vals < 0.0))

        xs = np.linspace(0, 1, 101)
        zero_at_ends = np.all(wts.weight_grid(0.0, xs, 2.0, 1.5) == 0.0) and np.all(
            wts.weight_grid(1.0, xs, 2.0, 1.5) == 0.0
        )

        stitch = 0.0
        from numpy.polynomial import polynomial as P

        psi = wts.psi
        span = psi.beta_prime - psi.alpha_prime
        for joint, xi, sign in ((psi.alpha_prime, 0.0, 1.0), (psi.beta_prime, 1.0, -1.0)):
            a = psi.coef.eval(np.array([joint]))[0]
            da = psi.coef.eval_deriv(np.array([joint]))[0]
            branch = [
                psi.value(np.array([joint]))[0],
                sign * joint / a,
                sign * (a - joint * da) / a**2,
            ]
            bridge = [
                P.polyval(xi, psi._bridge[0]),
                P.polyval(xi, psi._bridge[1]) / span,
                P.polyval(xi, psi._bridge[2]) / span**2,
            ]
            for b_val, g_val in zip(branch, bridge):
                stitch = max(stitch, abs(b_val - g_val) / (1.0 + abs(b_val)))

        ok = neg and bool(zero_at_ends) and stitch < 1e-6
        report(
            ok,
            "criterion 10 (weight sanity)",
            f"exponent negative at 10^4 points: {neg}; exact zeros at time endpoints: "
            f"{bool(zero_at_ends)}; stitch mismatch={stitch:.2e} (< 1e-6)",
        )
