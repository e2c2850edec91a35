"""Smoke test of the benchmark: every workload at tiny sizes, untraced and
traced, in this process.

Checks that every metric named in BENCHMARK.json is emitted, that exact
counts follow their formulas, that a reference mismatch fails the pass, and
that tracing leaves every wrapped function as it found it.
"""

import json
import sys
from pathlib import Path

import pytest

import run
import tracing
import worker
import workloads

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _names(section):
    return [m["name"] for m in BENCHMARK[section]]


def _snapshot():
    """Identity of every attribute of the package's modules and traced classes."""
    from carleman_lab import cli, control, weights  # noqa: F401 (cli: load every module)

    owners = [m for n, m in sys.modules.items() if n.split(".")[0] == "carleman_lab"]
    owners += [weights.CarlemanWeights, control._DualOperator]
    return {(id(o), k): id(v) for o in owners for k, v in list(vars(o).items())}


def test_benchmark_json_matches_the_harness():
    assert _names("end_to_end") == [n for n, _ in run.END_TO_END]
    assert _names("per_layer") == [n for n, _ in tracing.PER_LAYER]
    assert _names("workloads") == list(workloads.WORKLOADS)
    assert {m["unit"] for m in BENCHMARK["per_layer"] if m["name"].endswith(".bytes")} == {
        "bytes-computed"
    }


@pytest.fixture
def measured(tmp_path, monkeypatch):
    monkeypatch.delenv("CARLEMAN_LAB_SEED", raising=False)

    def go(workload, **kw):
        return worker.measure(workload, 3, 0.0, tmp_path, tiny=True, **kw)

    return go


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_workload_emits_every_metric_with_exact_counts(workload, measured):
    cfgs = workloads.configs(workload, 3, tiny=True)
    assert all(c["seed"] == 3 for c in cfgs)
    before = _snapshot()
    plain = measured(workload)
    traced = measured(workload, trace=True)
    assert _snapshot() == before, "tracing left a wrapper installed"
    assert [p["errors"] for p in plain["passes"] + traced["passes"]] == [[], []]

    e2e = run.end_to_end(plain, [plain["setup_s"]])
    assert list(e2e) == _names("end_to_end")
    assert all(v > 0 for v in e2e.values())
    run_s = run.median_of(traced, "run_s")
    m = tracing.layer_metrics(traced["trace"], run_s, run.median_of(plain, "run_s"))
    assert list(m) == _names("per_layer")
    assert traced["trace"]["missing"] == []
    assert traced["trace"]["totals"]["cli.run_experiment"]["calls"] == len(cfgs)

    sweeps = [c for c in cfgs if c["experiment"] == "carleman_sweep"]
    points = sum(len(c["s_grid"]) * len(c["lambda_grid"]) for c in sweeps)
    assert m["weights.weight_grid.calls"] == 4 * sum(
        c["n_samples"] * len(c["s_grid"]) * len(c["lambda_grid"]) for c in sweeps
    )
    assert m["carleman.carleman_sides.calls"] == m["weights.weight_grid.calls"] / 4
    if workload == "sweep_strong_512":
        assert m["weights.weight_grid.distinct_frac"] == 4 * points / m["weights.weight_grid.calls"]
    headline = traced["passes"][0]["headline"]
    iterations = sum(h.get("cg_iterations", 0) for h in headline)
    assert m["control.cg_iterations"] == iterations
    if workload == "control_eps_256":
        assert all(v == 0 for k, v in m.items() if k.startswith("weights."))
        assert m["functionals.spacetime_weighted_integral.calls"] == 0
        # one forward march, then an adjoint and a forward march per CG
        # iteration, then a final adjoint and forward march; Crank-Nicolson
        # splits the first and last step, so M + 2 substeps per march
        substeps = sum((2 * h["cg_iterations"] + 3) * (c["time_steps"] + 2)
                       for h, c in zip(headline, cfgs))
        assert m["pde_solver.substeps"] == substeps
    assert m["pde_solver.s_per_substep"] > 0
    assert m["cli.output_bytes"] > 0
    assert m["trace.self_sum_frac"] == pytest.approx(1.0, abs=0.05)


def test_reference_mismatch_fails_the_pass(measured):
    good = measured("control_eps_256")["passes"][0]["headline"]
    bad = [dict(h, control_cost=h["control_cost"] * (1 + 1e-6)) for h in good]
    p = measured("control_eps_256", reference=(bad, 1e-9))["passes"][0]
    assert any("differs from the reference" in e for e in p["errors"])
    assert measured("control_eps_256", reference=(good, 1e-9))["passes"][0]["errors"] == []
