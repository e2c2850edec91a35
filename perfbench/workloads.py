"""The benchmark's workloads: the exact experiment configs each one runs.

``inputs.json`` holds the eleven configs shipped in ``configs/`` (without
their ``output_dir``), frozen so that the benchmark's inputs do not move when
the shipped examples do.  Each workload is a list of configs run one after
the other through ``carleman_lab.cli.run_experiment``; that list is one pass.
The workload seed replaces every config's ``seed``.

``tiny`` shrinks every size so that the smoke test runs each workload in well
under a second; the call structure (which functions run, how often per
sample and grid point) is unchanged.
"""

from __future__ import annotations

import json
from pathlib import Path

INPUTS = Path(__file__).resolve().parent / "inputs.json"

# Fixed order of the desk pass: the order of the shipped config files.
DESK_ORDER = (
    "carleman_sweep_strong",
    "carleman_sweep_weak",
    "classify_strong",
    "classify_weak",
    "convergence",
    "energy",
    "hardy_boundary_case",
    "hardy_weak",
    "lemma_checks",
    "null_control",
    "observability",
)

TINY_N = 16
TINY_SWEEP = {"n_samples": 2, "s_grid": [1, 2], "lambda_grid": [2.0]}
TINY_CONVERGENCE = {
    "spatial_n": [16, 32],
    "temporal_m": [8, 16],
    "spatial_time_steps": 4 * TINY_N,
    "temporal_mesh_n": 4 * TINY_N,
}


def _config(name: str) -> dict:
    return json.loads(INPUTS.read_text(encoding="utf-8"))[name]


def _shrink(cfg: dict) -> dict:
    for key in ("mesh_n", "time_steps"):
        if key in cfg:
            cfg[key] = min(cfg[key], TINY_N)
    if "resolution" in cfg:
        cfg["resolution"] = 4 * TINY_N
    if "n_samples" in cfg:
        cfg["n_samples"] = min(cfg["n_samples"], 2)
    if cfg["experiment"] == "carleman_sweep":
        cfg.update(TINY_SWEEP)
    if cfg["experiment"] == "convergence":
        cfg.update(TINY_CONVERGENCE)
    return cfg


def sweep_strong_512(tiny: bool) -> list[dict]:
    """Strong-band sweep at N = M = 512: 20 samples x s in {1,2,4,8,16}*s0 x
    lambda in {2,4}, i.e. 800 weight grids (40 distinct) and 20 adjoint
    marches with a source."""
    cfg = _config("carleman_sweep_strong")
    cfg["mesh_n"] = cfg["time_steps"] = 512
    return [_shrink(cfg) if tiny else cfg]


def control_eps_256(tiny: bool) -> list[dict]:
    """Null control at N = M = 256, first at epsilon = 1e-4, then at 1e-6:
    dependent CG marches, no weight grids."""
    cfgs = []
    for eps in (1e-4, 1e-6):
        cfg = _config("null_control")
        cfg["mesh_n"] = cfg["time_steps"] = 256
        cfg["epsilon"] = eps
        cfgs.append(_shrink(cfg) if tiny else cfg)
    return cfgs


def desk_configs(tiny: bool) -> list[dict]:
    """All eleven shipped configs once each, at their shipped sizes."""
    return [_shrink(_config(name)) if tiny else _config(name) for name in DESK_ORDER]


WORKLOADS = {
    "sweep_strong_512": sweep_strong_512,
    "control_eps_256": control_eps_256,
    "desk_configs": desk_configs,
}


def configs(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The configs of one pass of ``workload``, with ``seed`` injected."""
    cfgs = WORKLOADS[workload](tiny)
    for cfg in cfgs:
        cfg["seed"] = seed
    return cfgs
