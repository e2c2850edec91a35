"""Smoke test of tools/compare_outputs.py: the tree against itself on two
shrunk shipped configs, and the drift report on a perturbed table."""

import importlib.util
import json
import struct
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "compare_outputs", ROOT / "tools" / "compare_outputs.py"
)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

SHRUNK = {
    "null_control.json": {"mesh_n": 16, "time_steps": 16},
    "lemma_checks.json": {"mesh_n": 16, "time_steps": 16, "resolution": 32, "n_samples": 2,
                          "residual_threshold": 1.0},
}


def test_tree_against_itself_is_identical(tmp_path, capsys):
    configs = []
    for name, sizes in SHRUNK.items():
        cfg = json.loads((ROOT / "configs" / name).read_text(encoding="utf-8"))
        path = tmp_path / name
        path.write_text(json.dumps({**cfg, **sizes}), encoding="utf-8")
        configs.append(str(path))
    src = str(ROOT / "src")
    assert compare_outputs.main([src, src, *configs]) == 0
    out = capsys.readouterr().out
    assert "null_control.json: exit 0 / 0, identical" in out
    assert "lemma_checks.json: exit 0 / 0, identical" in out
    assert "  control.bin: identical" in out and "  boundary_sign.csv: identical" in out


def test_drift_is_reported_per_numeric_column():
    base = b"sample,case,ratio\n0,A,1.0\n1,A,2.0\n"
    new = b"sample,case,ratio\n0,A,1.0\n1,B,2.0000000002\n"
    lines = compare_outputs.compare_file("t.csv", base, new)
    assert lines == ["case: 1 cells differ", "ratio: max rel drift 1e-10"]
    assert compare_outputs.compare_file("t.csv", base, base) == ["identical"]
    summary = json.dumps({"results": {"x": 1.0, "n": 3}}).encode()
    moved = json.dumps({"results": {"x": -1.0, "n": 3}}).encode()
    assert compare_outputs.compare_file("summary.json", summary, moved) == [
        "results.x: max rel drift 2"
    ]
    header = struct.pack("<qqd", 1, 0, 1.0)
    grid = np.array([1.0, 4.0])
    assert compare_outputs.compare_file(
        "c.bin", header + grid.tobytes(), header + (grid * [1.0, 1.5]).tobytes()
    ) == ["values: max rel drift 0.333"]
    log = compare_outputs.compare_file("run.log", b"a\nb\n", b"a\nc\n")
    assert log == ["lines: 1 cells differ"]
