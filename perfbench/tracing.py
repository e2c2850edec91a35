"""Span tracing of carleman_lab from outside the package.

``Tracer.install`` replaces each traced function by a wrapper wherever
callers look the name up: in every loaded ``carleman_lab`` module namespace
that holds the function (so ``from .x import f`` callers are covered), or on
the class for a method.  ``Tracer.restore`` puts every original back.  Each
call records a span ``[name, start, end, parent]`` in memory; hooks add
counts measured at the same boundary (bytes, distinct grid keys, substeps,
CG iterations).  Spans assume one thread, which holds because every workload
runs the sweep with ``jobs = 1``.

``layer_metrics`` turns the spans and counts of the traced passes into the
per-layer metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "carleman_lab"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self.keys: dict[str, set] = defaultdict(set)
        self.memo: dict = {}
        self.missing: list[str] = []
        self._open: list[int] = []
        self._patches: list[tuple] = []  # (owner, attribute, original)

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self._open
        signature = inspect.signature(fn) if hook is not None else None

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                hook(self, bound.arguments, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, targets) -> None:
        """Wrap every ``(module, qualname, span name, hook)`` target.

        A target the package no longer has is skipped and listed in
        ``missing``; its metrics then read 0.
        """
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for module_name, qualname, span_name, hook in targets:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = vars(owner).get(attr) if owner is not None else None
                if original is None:
                    self.missing.append(f"{module_name}.{qualname}")
                    continue
                setattr(owner, attr, self._wrap(span_name, original, hook))
                self._patches.append((owner, attr, original))
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{qualname}")
                continue
            wrapper = self._wrap(span_name, original, hook)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._patches.append((mod, name, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        for i, (name, start, end, _) in enumerate(self.spans):
            t = out[name]
            t["calls"] += 1
            t["busy_s"] += end - start
            t["self_s"] += end - start - child[i]
        return dict(out)


# --------------------------------------------------------------------------------
# carleman_lab layer map


def _digest(a) -> bytes:
    import numpy as np

    return hashlib.blake2b(np.ascontiguousarray(a, dtype=float).tobytes(), digest_size=16).digest()


def _weight_grid_hook(tr: Tracer, args: dict, out) -> None:
    import numpy as np

    w = args["self"]
    ts = np.atleast_1d(np.asarray(args["ts"], dtype=float))
    xs = np.atleast_1d(np.asarray(args["xs"], dtype=float))
    interior = int(np.count_nonzero((ts > 0.0) & (ts < w.T))) * xs.size
    tr.counts["weight_grid.bytes"] += out.nbytes
    tr.counts["weight_grid.interior"] += interior
    # endpoint rows are exactly zero and every kept entry exceeds exp(-700) > 0,
    # so the zeros on interior rows are exactly the clamped entries
    tr.counts["weight_grid.clamped"] += interior - int(np.count_nonzero(out))
    psi = w.psi
    tr.keys["weight_grid"].add((
        w.lam, w.T, psi.alpha_prime, psi.beta_prime, psi.quad_points,
        psi.bridge_degree, repr(sorted(w.coef.descriptor.items())),
        _digest(ts), _digest(xs), float(args["s"]), float(args["k"]),
    ))


def _contraction_hook(tr: Tracer, args: dict, out) -> None:
    # operands of the weighted contraction: the quadratic field and the
    # weight grid, each of the trajectory's shape
    tr.counts["spacetime_weighted_integral.bytes"] += 2 * args["traj"].values.nbytes


def _march_hook(tr: Tracer, args: dict, out) -> None:
    from carleman_lab.pde_solver import substep_times

    spec = args["spec"] if "spec" in args else args["self"].spec
    key = ("substeps", spec.T, spec.time_steps, spec.scheme)
    if key not in tr.memo:
        tr.memo[key] = len(substep_times(spec)[0])
    tr.counts["substeps"] += tr.memo[key]


def _control_hook(tr: Tracer, args: dict, out) -> None:
    tr.counts["cg_iterations"] += out.cg_iterations


# (module, qualname, span name, hook).  The three march primitives never call
# one another, so their spans cover each substep once.
MARCHES = ("pde_solver.solve_forward", "pde_solver._adjoint_march", "control.forward_terminal")

TARGETS = (
    ("weights", "CarlemanWeights.weight_grid", "weights.weight_grid", _weight_grid_hook),
    ("weights", "CarlemanWeights.exp_s_phi_grid", "weights.exp_s_phi_grid", None),
    ("weights", "CarlemanWeights.space_composites", "weights.space_composites", None),
    ("weights", "build_weights", "weights.build_weights", None),
    ("functionals", "spacetime_weighted_integral", "functionals.spacetime_weighted_integral",
     _contraction_hook),
    ("functionals", "hardy_ratio", "functionals.hardy_ratio", None),
    ("pde_solver", "assemble_diffusion", "pde_solver.assemble_diffusion", None),
    ("pde_solver", "solve_forward", "pde_solver.solve_forward", _march_hook),
    ("pde_solver", "solve_adjoint", "pde_solver.solve_adjoint", None),
    ("pde_solver", "_adjoint_march", "pde_solver._adjoint_march", _march_hook),
    ("pde_solver", "energy_report", "pde_solver.energy_report", None),
    ("control", "_DualOperator.forward_terminal", "control.forward_terminal", _march_hook),
    ("control", "synthesize_null_control", "control.synthesize_null_control", _control_hook),
    ("carleman", "carleman_sweep", "carleman.carleman_sweep", None),
    ("carleman", "carleman_sides", "carleman.carleman_sides", None),
    ("carleman", "identity_residual", "carleman.identity_residual", None),
    ("carleman", "transform_to_w", "carleman.transform_to_w", None),
    ("carleman", "observability_ratio", "carleman.observability_ratio", None),
    ("coefficients", "classify", "coefficients.classify", None),
    ("sampling", "sample_fields", "sampling.sample_fields", None),
    ("cli", "run_experiment", "cli.run_experiment", None),
)

# (metric, unit): span statistics, reported per pass
SPAN_METRICS = (
    ("weights.weight_grid.calls", "count"),
    ("weights.weight_grid.busy_s", "s"),
    ("weights.build_weights.calls", "count"),
    ("weights.build_weights.busy_s", "s"),
    ("weights.space_composites.calls", "count"),
    ("weights.space_composites.busy_s", "s"),
    ("weights.exp_s_phi_grid.calls", "count"),
    ("weights.exp_s_phi_grid.busy_s", "s"),
    ("functionals.spacetime_weighted_integral.calls", "count"),
    ("functionals.spacetime_weighted_integral.self_s", "s"),
    ("functionals.hardy_ratio.calls", "count"),
    ("functionals.hardy_ratio.busy_s", "s"),
    ("pde_solver.assemble_diffusion.calls", "count"),
    ("pde_solver.assemble_diffusion.busy_s", "s"),
    ("pde_solver.solve_forward.calls", "count"),
    ("pde_solver.solve_forward.busy_s", "s"),
    ("pde_solver.solve_adjoint.calls", "count"),
    ("pde_solver.solve_adjoint.busy_s", "s"),
    ("pde_solver.energy_report.calls", "count"),
    ("pde_solver.energy_report.self_s", "s"),
    ("control.synthesize_null_control.calls", "count"),
    ("control.synthesize_null_control.busy_s", "s"),
    ("carleman.carleman_sweep.self_s", "s"),
    ("carleman.carleman_sides.calls", "count"),
    ("carleman.carleman_sides.self_s", "s"),
    ("carleman.identity_residual.calls", "count"),
    ("carleman.identity_residual.busy_s", "s"),
    ("carleman.transform_to_w.calls", "count"),
    ("carleman.transform_to_w.busy_s", "s"),
    ("carleman.observability_ratio.calls", "count"),
    ("carleman.observability_ratio.busy_s", "s"),
    ("coefficients.classify.calls", "count"),
    ("coefficients.classify.busy_s", "s"),
    ("sampling.sample_fields.calls", "count"),
    ("sampling.sample_fields.busy_s", "s"),
    ("cli.run_experiment.self_s", "s"),
)

# (metric, unit): counts and ratios measured at the layer boundaries
DERIVED_METRICS = (
    ("weights.weight_grid.bytes", "bytes-computed"),
    ("weights.weight_grid.distinct_frac", "fraction"),
    ("weights.weight_grid.clamped_frac", "fraction"),
    ("functionals.spacetime_weighted_integral.bytes", "bytes-computed"),
    ("pde_solver.substeps", "count"),
    ("pde_solver.s_per_substep", "s"),
    ("control.cg_iterations", "count"),
    ("control.s_per_cg_iteration", "s"),
    ("cli.output_bytes", "bytes"),
    ("trace.run_s", "s"),
    ("trace.self_sum_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
)

PER_LAYER = SPAN_METRICS + DERIVED_METRICS

# The end-to-end metric each layer metric should move, and on which workload;
# the longest matching name prefix applies.
EXPECTED_MOVES = {
    "weights": "run_s, peak_rss_mb on sweep_strong_512; flat on control_eps_256",
    "functionals.spacetime_weighted_integral": "run_s on sweep_strong_512",
    "functionals.hardy_ratio": "run_s on desk_configs",
    "pde_solver": "run_s on sweep_strong_512 and desk_configs (per-call fixed cost)",
    "pde_solver.s_per_substep": "run_s on all three workloads",
    "control": "run_s on control_eps_256 and the null_control share of desk_configs",
    "carleman": "run_s on desk_configs",
    "carleman.carleman_sweep": "run_s on sweep_strong_512",
    "carleman.carleman_sides": "run_s on sweep_strong_512",
    "coefficients": "setup_s, run_s on desk_configs",
    "sampling": "setup_s, run_s on desk_configs",
    "cli": "run_s on control_eps_256 and desk_configs",
    "trace": "none: the tracing's own cost and coverage",
}


def expected_move(metric: str) -> str:
    prefixes = [p for p in EXPECTED_MOVES if metric == p or metric.startswith(p + ".")]
    return EXPECTED_MOVES[max(prefixes, key=len)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict, traced_run_s: float, untraced_run_s: float) -> dict[str, float]:
    """Per-layer metrics per pass from a traced worker's ``trace`` record.

    ``traced_run_s`` and ``untraced_run_s`` are the median pass times of the
    traced and of the untraced process; ``trace["run_s_total"]`` is the sum
    of the traced pass times.
    """
    passes = trace["passes"]
    totals = trace["totals"]
    counts = trace["counts"]

    def stat(span: str, key: str) -> float:
        return totals.get(span, {}).get(key, 0.0)

    out = {}
    for metric, _ in SPAN_METRICS:
        span, _, key = metric.rpartition(".")
        out[metric] = stat(span, key) / passes
    grid_calls = stat("weights.weight_grid", "calls")
    march_s = sum(stat(m, "busy_s") for m in MARCHES)
    self_sum = sum(t["self_s"] for t in totals.values())
    out.update({
        "weights.weight_grid.bytes": counts.get("weight_grid.bytes", 0.0) / passes,
        "weights.weight_grid.distinct_frac": _ratio(trace["distinct_grids"], grid_calls),
        "weights.weight_grid.clamped_frac": _ratio(
            counts.get("weight_grid.clamped", 0.0), counts.get("weight_grid.interior", 0.0)
        ),
        "functionals.spacetime_weighted_integral.bytes":
            counts.get("spacetime_weighted_integral.bytes", 0.0) / passes,
        "pde_solver.substeps": counts.get("substeps", 0.0) / passes,
        "pde_solver.s_per_substep": _ratio(march_s, counts.get("substeps", 0.0)),
        "control.cg_iterations": counts.get("cg_iterations", 0.0) / passes,
        "control.s_per_cg_iteration": _ratio(
            stat("control.synthesize_null_control", "busy_s"), counts.get("cg_iterations", 0.0)
        ),
        "cli.output_bytes": trace["output_bytes"] / passes,
        "trace.run_s": traced_run_s,
        "trace.self_sum_frac": _ratio(self_sum, trace["run_s_total"]),
        "trace.overhead_frac": traced_run_s / untraced_run_s - 1.0,
    })
    return out
