"""Import cost: a run loads only the scipy subpackages it computes with, and
takes LAPACK's tridiagonal routines from scipy's wrapper module alone.  And
every exported name resolves, so a deletion cannot leave a stale export."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import carleman_lab
from carleman_lab import pde_solver

SRC = str(Path(carleman_lab.__file__).resolve().parent.parent)
MODULES = sorted(m.name for m in pkgutil.iter_modules(carleman_lab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"carleman_lab.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_every_package_import_resolves():
    tree = ast.parse(Path(carleman_lab.__file__).read_text(encoding="utf-8"))
    imports = [(node.module, alias.name) for node in tree.body
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(imports) > 40
    for module, name in imports:
        assert hasattr(importlib.import_module(f"carleman_lab.{module}"), name), (module, name)
        assert hasattr(carleman_lab, name), name

SCRIPT = r"""
import json, sys, tempfile
from pathlib import Path

from carleman_lab import cli

common = {
    "coefficient": {"kind": "power", "params": {"gamma": 1.5}},
    "mesh_n": 16, "time_steps": 16, "n_samples": 2, "seed": 3,
}
sweep = {**common, "experiment": "carleman_sweep", "T": 10.0, "omega": [0.02, 0.95],
         "omega_prime": [0.05, 0.9], "lambda_grid": [2.0], "s_grid": [1, 2]}
lemma = {**common, "experiment": "lemma_checks", "T": 2.0, "omega": [0.3, 0.7],
         "omega_prime": [0.4, 0.6], "resolution": 32, "residual_threshold": 1.0}
control = {**common, "experiment": "null_control", "T": 0.5, "omega": [0.3, 0.7],
           "coefficient": {"kind": "power", "params": {"gamma": 0.5}}, "epsilon": 1e-4}
codes = []
with tempfile.TemporaryDirectory() as tmp:
    for i, cfg in enumerate((sweep, lemma, control)):
        assert cli.validate_config(cfg) == []
        codes.append(cli.run_experiment(cfg, Path(tmp) / str(i)))
loaded = sorted(m for m in sys.modules if m.startswith(("scipy.", "numpy.")))

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


def _run(script, pythonpath):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(pythonpath + [env.get("PYTHONPATH", "")])
    env.pop("CARLEMAN_LAB_SEED", None)
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )


def test_runs_leave_integrate_and_interpolate_unloaded():
    proc = _run(SCRIPT, [SRC])
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["codes"] == [0, 0, 0]
    for name in (
        "scipy.integrate", "scipy.interpolate", "scipy.special", "scipy.optimize",
        # the package scipy.linalg and what its import drags in
        "scipy.linalg", "scipy._lib._array_api", "numpy.f2py", "numpy.testing", "numpy.ma",
    ):
        assert name not in report["loaded"]
    # a tabulated coefficient still loads its interpolant on demand
    assert report["interpolate"]
    assert report["table"] == "SDC"


def test_missing_lapack_module_fails_loudly(tmp_path):
    # a scipy without linalg/_flapack: no fallback, an ImportError naming
    # the directory searched
    stub = tmp_path / "scipy"
    (stub / "linalg").mkdir(parents=True)
    (stub / "__init__.py").write_text("")
    proc = _run("import carleman_lab", [str(tmp_path), SRC])
    assert proc.returncode == 1
    assert "ImportError" in proc.stderr
    assert str(stub / "linalg") in proc.stderr


def _dominant_system(rng, n):
    off_l, off_u = rng.uniform(-1.0, 1.0, (2, n - 1))
    diag = 2.5 + rng.uniform(0.0, 1.0, n)
    return off_l, diag, off_u


@pytest.mark.parametrize("n", [3, 17, 255])
@pytest.mark.parametrize("nrhs", [None, 1, 7])
def test_lapack_routines_match_scipy_linalg(n, nrhs):
    from scipy.linalg import lapack

    rng = np.random.default_rng(n * 10 + (nrhs or 0))
    system = _dominant_system(rng, n)
    ours = pde_solver._dgttrf(*system)
    ref = lapack.dgttrf(*system)
    assert all(np.array_equal(a, b) for a, b in zip(ours, ref))
    shape = (n,) if nrhs is None else (n, nrhs)
    b = rng.standard_normal(shape)
    x, info = pde_solver._dgttrs(*ours[:5], b)
    x_ref, info_ref = lapack.dgttrs(*ref[:5], b)
    assert info == info_ref == 0
    assert np.array_equal(x, x_ref)
    # in place on a Fortran-ordered operand, as the marches call it
    bf = np.asfortranarray(b.reshape(n, -1))
    out, _ = pde_solver._dgttrs(*ours[:5], bf, "N", 1)
    assert np.shares_memory(out, bf)
    assert np.array_equal(bf, x_ref.reshape(n, -1))
