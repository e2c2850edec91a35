"""One benchmark process: set up, run passes of one workload, check outputs.

``run.py`` starts this file in a fresh interpreter for every measurement, so
that set-up time and peak memory belong to one workload alone and tracing
wrappers never reach an untimed process:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --workdir DIR --result FILE [--trace] [--setup-only] [--no-reference]

Set-up is timed from before ``import carleman_lab`` through validating every
config, certifying its coefficient and building its mesh and problem spec.
Passes then repeat while another one is expected to end within
``--seconds`` (at least one pass runs).  A pass
runs every config of the workload through ``cli.run_experiment`` into a
fresh directory under ``--workdir``; only those calls are timed.  A pass
fails on a non-zero exit, an exception, a failed invariant, results that
differ from the first pass, or headline results that differ from the stored
reference for this seed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

# summary results compared with the reference; the well-conditioned outputs
# of each experiment (near-zero residuals and error terms are left out)
HEADLINE = (
    "empirical_C",
    "excluded_count",
    "terminal_norm",
    "control_cost",
    "cg_iterations",
    "spatial_orders",
    "temporal_orders",
    "K_est",
    "max_ratio",
    "constant",
)


def setup(cfgs: list[dict]) -> tuple[float, object]:
    """Import the package and prepare every config; returns (seconds, cli)."""
    t0 = time.perf_counter()
    import carleman_lab
    from carleman_lab import (
        ProblemSpec,
        boundary_regime_for,
        build_mesh,
        classify,
        coefficient_from_descriptor,
    )
    from carleman_lab import cli

    for cfg in cfgs:
        errors = cli.validate_config(cfg)
        if errors:
            raise ValueError(f"invalid workload config: {errors}")
        if "coefficient" not in cfg:
            continue
        coef = coefficient_from_descriptor(cfg["coefficient"])
        report = classify(coef)
        ProblemSpec(
            T=float(cfg.get("T", 1.0)),
            coef=coef,
            regime=boundary_regime_for(report),
            mesh=build_mesh(int(cfg.get("mesh_n", 128)), float(cfg.get("mesh_grading", 2.0))),
            time_steps=int(cfg.get("time_steps", 128)),
            omega=tuple(cfg.get("omega", (0.3, 0.7))),
            hypothesis=report,
        )
    elapsed = time.perf_counter() - t0
    src = (ROOT / "src").resolve()
    if src not in Path(carleman_lab.__file__).resolve().parents:
        raise RuntimeError(f"carleman_lab imported from {carleman_lab.__file__}, not from {src}")
    return elapsed, cli


def _differs(got, want, rel_tol: float) -> bool:
    if isinstance(want, list):
        return not isinstance(got, list) or len(got) != len(want) or any(
            _differs(g, w, rel_tol) for g, w in zip(got, want)
        )
    if isinstance(want, float) and isinstance(got, float):
        return not math.isclose(got, want, rel_tol=rel_tol, abs_tol=0.0)
    return got != want


def check_call(rc, outdir: Path) -> tuple[dict, list[str]]:
    """Headline results and errors of one ``run_experiment`` call."""
    if rc != 0:
        return {}, [f"exit code {rc}"]
    summary = json.loads((outdir / "summary.json").read_text(encoding="utf-8"))
    errors = [
        f"invariant FAIL: {inv['name']}" for inv in summary["invariants"] if not inv["passed"]
    ]
    results = summary["results"]
    return {k: results[k] for k in HEADLINE if k in results}, errors


def run_pass(cli, cfgs: list[dict], workdir: Path) -> dict:
    tmp = Path(tempfile.mkdtemp(prefix="pass-", dir=workdir))
    wall = cpu = 0.0
    headline, errors = [], []
    output_bytes = 0
    try:
        for i, cfg in enumerate(cfgs):
            outdir = tmp / str(i)
            with contextlib.redirect_stdout(io.StringIO()):
                c0, t0 = time.process_time(), time.perf_counter()
                try:
                    rc = cli.run_experiment(cfg, outdir)
                except Exception:  # a crash is a failed pass, not a failed benchmark
                    rc = traceback.format_exc(limit=3)
                t1, c1 = time.perf_counter(), time.process_time()
            wall += t1 - t0
            cpu += c1 - c0
            result, errs = check_call(rc, outdir)
            headline.append(result)
            errors += [f"{cfg['experiment']}[{i}]: {e}" for e in errs]
            output_bytes += sum(f.stat().st_size for f in outdir.rglob("*") if f.is_file())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "run_s": wall,
        "cpu_s": cpu,
        "headline": headline,
        "errors": errors,
        "output_bytes": output_bytes,
    }


def load_reference(workload: str, seed: int):
    """(headline list, rel_tol) stored for this workload and seed, or None."""
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))
    want = ref["workloads"].get(workload, {}).get(str(seed))
    return None if want is None else (want, ref["rel_tol"])


def env_stamp() -> dict:
    import carleman_lab
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "carleman_lab": carleman_lab.__version__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def measure(
    workload: str,
    seed: int,
    seconds: float,
    workdir: Path,
    trace: bool = False,
    tiny: bool = False,
    reference=None,
) -> dict:
    """Set up, then run passes of ``workload`` for ``seconds``.

    ``reference`` is a (headline list, rel_tol) pair the passes must match,
    or None to check invariants and pass-to-pass agreement only.
    """
    cfgs = workloads.configs(workload, seed, tiny)
    setup_s, cli = setup(cfgs)
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install(tracing.TARGETS)
    passes = []
    distinct = 0
    try:
        begin = time.perf_counter()
        while True:
            p = run_pass(cli, cfgs, workdir)
            if passes and p["headline"] != passes[0]["headline"]:
                p["errors"].append("results differ from the first pass")
            if reference is not None:
                want, rel_tol = reference
                for i, (got, exp) in enumerate(zip(p["headline"], want)):
                    bad = sorted(k for k in exp if _differs(got.get(k), exp[k], rel_tol))
                    if bad:
                        p["errors"].append(f"call {i}: differs from the reference in {bad}")
            passes.append(p)
            if tracer is not None:
                distinct += len(tracer.keys["weight_grid"])
                tracer.keys.clear()
            # stop before a pass of average length would overrun the budget
            elapsed = time.perf_counter() - begin
            if elapsed * (len(passes) + 1) / len(passes) > seconds:
                break
    finally:
        if tracer is not None:
            tracer.restore()
    out = {
        "workload": workload,
        "seed": seed,
        "setup_s": setup_s,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": env_stamp(),
    }
    if tracer is not None:
        out["trace"] = {
            "passes": len(passes),
            "totals": tracer.totals(),
            "counts": dict(tracer.counts),
            "distinct_grids": distinct,
            "output_bytes": sum(p["output_bytes"] for p in passes),
            "run_s_total": sum(p["run_s"] for p in passes),
            "missing": tracer.missing,
            "spans": tracer.spans,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--no-reference", action="store_true")
    args = parser.parse_args(argv)
    if "CARLEMAN_LAB_SEED" in os.environ:
        raise SystemExit("CARLEMAN_LAB_SEED must not be set: the workload seed is --seed")

    if args.setup_only:
        setup_s, _ = setup(workloads.configs(args.workload, args.seed))
        out = {"setup_s": setup_s}
    else:
        reference = None if args.no_reference else load_reference(args.workload, args.seed)
        out = measure(args.workload, args.seed, args.seconds, args.workdir, args.trace,
                      reference=reference)
    args.result.write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
