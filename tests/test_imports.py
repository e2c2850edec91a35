"""Import cost: a run loads only the scipy subpackages it computes with."""

import json
import os
import subprocess
import sys
from pathlib import Path

import carleman_lab

SRC = str(Path(carleman_lab.__file__).resolve().parent.parent)

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
codes = []
with tempfile.TemporaryDirectory() as tmp:
    for i, cfg in enumerate((sweep, lemma)):
        assert cli.validate_config(cfg) == []
        codes.append(cli.run_experiment(cfg, Path(tmp) / str(i)))
loaded = sorted(m for m in sys.modules if m.startswith("scipy."))

from carleman_lab.coefficients import classify, make_table_coefficient

x = [0.0, 0.25, 0.5, 0.75, 1.0]
table = make_table_coefficient(x, [v**1.5 for v in x])
print(json.dumps({"codes": codes, "loaded": loaded, "table": classify(table).regime.value}))
"""


def test_runs_leave_integrate_and_interpolate_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("CARLEMAN_LAB_SEED", None)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["codes"] == [0, 0]
    for name in ("scipy.integrate", "scipy.interpolate", "scipy.special", "scipy.optimize"):
        assert name not in report["loaded"]
    assert "scipy.linalg" in report["loaded"]
    # a tabulated coefficient still loads its interpolant on demand
    assert report["table"] == "SDC"
