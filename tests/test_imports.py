"""Import cost: a run of a shipped config loads no scipy, and takes LAPACK's
tridiagonal routines from the OpenBLAS numpy already runs on; a run loads no
Carleman module it does not call.  And every exported name resolves, so a
deletion cannot leave a stale export."""

import ctypes
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import carleman_lab
from carleman_lab import pde_solver

SRC = str(Path(carleman_lab.__file__).resolve().parent.parent)
MODULES = sorted(m.name for m in pkgutil.iter_modules(carleman_lab.__path__))

# pinned: every name the package exports, by the core module that defines
# it; an export dropped or moved changes the table
EXPORTS = {
    **dict.fromkeys(
        ["DegeneracyCoefficient", "HypothesisReport", "Regime", "classify",
         "coefficient_from_descriptor", "make_example_coefficient", "make_power_coefficient",
         "make_table_coefficient"], "coefficients"),
    **dict.fromkeys(
        ["LeftBoundary", "Mesh", "ProblemSpec", "Scheme", "Trajectory", "WeightedNorms",
         "assemble_diffusion", "boundary_regime_for", "build_mesh", "energy_report",
         "solve_adjoint", "solve_forward"], "pde_solver"),
    **dict.fromkeys(["ControlResult", "synthesize_null_control"], "control"),
}
CARLEMAN_MODULES = ("carleman_lab.carleman", "carleman_lab.weights", "carleman_lab.functionals",
                    "numpy.polynomial")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"carleman_lab.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_every_package_import_resolves():
    assert len(EXPORTS) == 22
    public = {k: v for k, v in vars(carleman_lab).items()
              if not k.startswith("_") and not isinstance(v, type(carleman_lab))}
    assert sorted(public) == sorted(EXPORTS)
    for name, module in EXPORTS.items():
        assert public[name] is getattr(
            importlib.import_module(f"carleman_lab.{module}"), name), (module, name)


SCRIPT = r"""
import json, sys, tempfile
from pathlib import Path

from carleman_lab import cli

codes = []
with tempfile.TemporaryDirectory() as tmp:
    for i, path in enumerate(sys.argv[1:]):
        cfg = json.loads(Path(path).read_text(encoding="utf-8"))
        assert cli.validate_config(cfg) == [], path
        codes.append(cli.run_experiment(cfg, Path(tmp) / str(i)))
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "numpy"))

from carleman_lab.coefficients import classify, make_table_coefficient

x = [0.0, 0.25, 0.5, 0.75, 1.0]
table = make_table_coefficient(x, [v**1.5 for v in x])
print(json.dumps({
    "codes": codes,
    "loaded": loaded,
    "table": classify(table).regime.value,
    "interpolate": "scipy.interpolate" in sys.modules,
}))
"""
CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


def _run(script, pythonpath, args=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(pythonpath + [env.get("PYTHONPATH", "")])
    env.pop("CARLEMAN_LAB_SEED", None)
    return subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True,
        timeout=300,
    )


def test_shipped_configs_leave_scipy_unloaded():
    # no shipped config uses a tabulated coefficient, the one kind that needs scipy
    assert len(CONFIGS) == 11
    assert not any('"table"' in path.read_text(encoding="utf-8") for path in CONFIGS)
    proc = _run(SCRIPT, [SRC], [str(path) for path in CONFIGS])
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["codes"] == [0] * len(CONFIGS)
    assert [m for m in report["loaded"] if m.split(".")[0] == "scipy"] == []
    # nor what an import of scipy.linalg would drag in
    for name in ("numpy.f2py", "numpy.testing", "numpy.ma"):
        assert name not in report["loaded"]
    # a tabulated coefficient still loads its interpolant on demand
    assert report["interpolate"]
    assert report["table"] == "SDC"


FOOTPRINT = r"""
import json, sys
from pathlib import Path

import carleman_lab
bare = sorted(m for m in sys.modules if m.startswith("carleman_lab."))
from carleman_lab import cli
errors = cli.validate_config(json.loads(Path(sys.argv[1]).read_text(encoding="utf-8")))
validated = sorted(sys.modules)
code = cli.main(["run", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps({"bare": bare, "errors": errors, "validated": validated, "code": code,
                  "loaded": sorted(sys.modules)}))
"""


@pytest.mark.parametrize("name, change, loads", [
    ("null_control.json", {}, False),
    ("classify_weak.json", {}, False),
    ("carleman_sweep_weak.json", {"n_samples": 2, "s_grid": [1.0], "lambda_grid": [2.0]}, True),
], ids=["null_control", "classify", "carleman_sweep"])
def test_a_run_loads_the_carleman_modules_only_if_it_calls_them(tmp_path, name, change, loads):
    cfg = json.loads((CONFIGS[0].parent / name).read_text(encoding="utf-8"))
    cfg.update({k: 16 for k in ("mesh_n", "time_steps") if k in cfg}, **change)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    proc = _run(FOOTPRINT, [SRC], [str(path), str(tmp_path / "out")])
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["errors"] == [] and report["code"] == 0
    # the package loads its core alone, never the Carleman chain
    assert report["bare"] == ["carleman_lab.coefficients", "carleman_lab.control",
                              "carleman_lab.pde_solver"]
    # the sweep's a(1) = 0 rule imports weights, so it holds the chain from
    # validation on, before a pass (or the benchmark's tracer) starts
    for stage in ("validated", "loaded"):
        assert {m: m in report[stage] for m in CARLEMAN_MODULES} == dict.fromkeys(
            CARLEMAN_MODULES, loads), stage


def test_the_package_loads_no_carleman_module():
    proc = _run("import json, sys, carleman_lab; print(json.dumps(sorted(sys.modules)))", [SRC])
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert [m for m in CARLEMAN_MODULES if m in loaded] == []


CHAIN = {"carleman", "functionals", "weights"}


@pytest.mark.parametrize("name", MODULES)
def test_each_module_imports_first_and_the_chain_loads_together(name):
    proc = _run(f"import json, sys, carleman_lab.{name}; print(json.dumps(sorted(sys.modules)))",
                [SRC])
    assert proc.returncode == 0, proc.stderr
    loaded = {m.split(".")[1] for m in json.loads(proc.stdout) if m.startswith("carleman_lab.")}
    # weights (and carleman, which imports it) bring the whole chain; the
    # other modules, functionals included, load none of it but themselves
    assert loaded & CHAIN == (CHAIN if name in ("carleman", "weights") else CHAIN & {name})


TRACED = r"""
import importlib, json, pkgutil, sys, tempfile
from pathlib import Path

sys.path.insert(0, sys.argv[1])
import worker

if sys.argv[3] == "preload":
    import carleman_lab
    for m in pkgutil.iter_modules(carleman_lab.__path__):
        importlib.import_module(f"carleman_lab.{m.name}")
with tempfile.TemporaryDirectory() as tmp:
    out = worker.measure(sys.argv[2], 3, 0.0, Path(tmp), trace=True, tiny=True)
trace = out["trace"]
print(json.dumps({
    "errors": [p["errors"] for p in out["passes"]],
    "missing": trace["missing"],
    "calls": {name: t["calls"] for name, t in trace["totals"].items()},
}))
"""


@pytest.mark.parametrize("workload", ["sweep_strong_512", "desk_configs"])
def test_a_fresh_traced_worker_wraps_what_a_preloaded_one_does(workload):
    # the benchmark's tracer wraps functions in the modules loaded when it
    # installs, after set-up: a module first imported by a pass escapes it
    perfbench = str(Path(SRC).parent / "perfbench")
    reports = []
    for mode in ("fresh", "preload"):
        proc = _run(TRACED, [SRC], [perfbench, workload, mode])
        assert proc.returncode == 0, proc.stderr
        reports.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    fresh, preloaded = reports
    assert fresh["errors"] == [[]] and fresh["missing"] == []
    assert fresh["calls"]["carleman.carleman_sides"] > 0
    assert fresh["calls"] == preloaded["calls"]


def test_missing_lapack_library_fails_loudly(tmp_path):
    # no fallback: an ImportError naming the directory searched
    with pytest.raises(ImportError, match=re.escape(str(tmp_path))):
        pde_solver._load_lapack(str(tmp_path))


def _dominant_system(rng, n):
    off_l, off_u = rng.uniform(-1.0, 1.0, (2, n - 1))
    diag = 2.5 + rng.uniform(0.0, 1.0, n)
    return off_l, diag, off_u


@pytest.mark.parametrize("n", [1, 2, 3, 17, 255])
@pytest.mark.parametrize("nrhs", [None, 1, 7])
def test_lapack_routines_match_scipy_linalg(n, nrhs):
    from scipy.linalg import lapack

    rng = np.random.default_rng(n * 10 + (nrhs or 0))
    system = _dominant_system(rng, n)
    # None is one (n,) vector, the operand of a single-sample march
    b = rng.standard_normal((n,) if nrhs is None else (n, nrhs))
    cols = b.reshape(n, -1)
    # scipy's wrappers take three unknowns or more: below that the reference
    # solves the system padded with decoupled identity rows
    pad = max(0, 3 - n)
    padded = [np.concatenate((a, np.full(pad, float(k == 1)))) for k, a in enumerate(system)]
    ref = lapack.dgttrf(*padded)
    assert ref[-1] == 0
    x_ref, info = lapack.dgttrs(*ref[:5], np.concatenate((cols, np.zeros((pad, cols.shape[1])))))
    assert info == 0

    ours = [a.copy() for a in system] + [np.empty(max(n - 2, 1)), np.empty(n, dtype=np.int64)]
    info = ctypes.c_int64(-1)
    pde_solver._trf(pde_solver._int(n), *map(pde_solver._ref, ours), ctypes.byref(info))
    assert info.value == 0
    for got, want in zip(ours[:3], ref[:3]):
        assert np.array_equal(got, want[: got.size])
    assert np.array_equal(ours[3][: max(n - 2, 0)], ref[3][: max(n - 2, 0)])
    assert np.array_equal(ours[4], ref[4][:n])  # 1-based pivots, none taken

    # in place on a row-major (nrhs, n) block, whose memory is the Fortran
    # (n, nrhs) operand, as the marches call it
    x = np.ascontiguousarray(cols.T)
    info.value = -1
    pde_solver._trs(
        pde_solver._TRANS, pde_solver._int(n), pde_solver._int(x.shape[0]),
        *map(pde_solver._ref, ours + [x]), pde_solver._int(n), ctypes.byref(info),
    )
    assert info.value == 0
    assert np.array_equal(x.T, x_ref[:n])
