"""Smoke test of tools/compare_outputs.py: the tree against itself on two
shrunk shipped configs and on a shrunk benchmark workload, and the drift
report on a perturbed table."""

import importlib.util
import json
import struct
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

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


def test_workload_configs_run_under_both_trees(monkeypatch, tmp_path, capsys):
    # the control workload at seed 3, shrunk as the benchmark's smoke test
    # shrinks it: two null-control configs
    real = compare_outputs._workloads()
    shrunk = SimpleNamespace(
        WORKLOADS=real.WORKLOADS,
        configs=lambda name, seed: real.configs(name, seed, tiny=True),
    )
    monkeypatch.setattr(compare_outputs, "_workloads", lambda: shrunk)
    src = str(ROOT / "src")
    assert compare_outputs.main([src, src, "--workload", "control_eps_256", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "control_eps_256-0-null_control.json: exit 0 / 0, identical" in out
    assert "control_eps_256-1-null_control.json: exit 0 / 0, identical" in out
    paths = compare_outputs.workload_configs("control_eps_256", 3, tmp_path)
    cfgs = [json.loads(p.read_text(encoding="utf-8")) for p in paths]
    assert [(c["seed"], c["epsilon"], c["mesh_n"]) for c in cfgs] == [(3, 1e-4, 16), (3, 1e-6, 16)]


def test_workload_seed_defaults_to_the_benchmark_pairs_seed(monkeypatch):
    # no config runs: each one's seed is read as it would be handed over
    seeds = []

    def run_config(src, config, out):
        seeds.append(json.loads(config.read_text(encoding="utf-8"))["seed"])
        return 0

    monkeypatch.setattr(compare_outputs, "run_config", run_config)
    src = str(ROOT / "src")
    assert compare_outputs.main([src, src, "--workload", "control_eps_256"]) == 0
    assert seeds == [3, 3, 3, 3]


def test_workload_usage_errors(capsys):
    src = str(ROOT / "src")
    for argv in (
        [src, src, "--workload", "no_such_workload"],
        [src, src, "configs/energy.json", "--workload", "desk_configs"],
        [src, src, "--seed", "3"],
    ):
        with pytest.raises(SystemExit) as exc:
            compare_outputs.main(argv)
        assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'no_such_workload'" in err
    assert "give configs or --workload, not both" in err
    assert "--seed needs --workload" in err
