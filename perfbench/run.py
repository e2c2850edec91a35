"""carleman-lab benchmark: end-to-end and per-layer metrics of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
``--workload all`` runs every workload in turn.  Workloads are defined in
``workloads.py`` and listed, with why each was chosen, in ``BENCHMARK.json``.

``--trace 0`` reports the end-to-end metrics: ``run_s`` and ``cpu_s`` (median
wall and process CPU seconds per pass), ``setup_s`` (median over several
fresh processes of import, config validation, coefficient certification and
mesh/spec construction) and ``peak_rss_mb`` (peak resident memory of the
measuring process).  ``--trace 1`` runs an untraced process and a traced one
for half of ``--seconds`` each and reports the per-layer metrics of
``tracing.py``, including the tracing overhead.

Every process gets the seed only through ``--seed`` (``CARLEMAN_LAB_SEED``
is removed), BLAS threads capped at the number of usable CPUs, and a
scratch directory under ``perfbench/out/``, where each invocation also leaves
a results file with the environment stamp, every sample and the spans.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a failed pass (see ``worker.py``)
makes ``correct`` false.

``--record-reference FIRST-LAST`` stores the headline results of one pass per
workload and seed in ``reference.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
# every invocation must finish within 180 s; stop waiting for workers before
DEADLINE_S = 170.0
# fresh processes that only set up, besides the measuring one
SETUP_PROCESSES = 2
REL_TOL = 1e-9

END_TO_END = (
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("CARLEMAN_LAB_SEED", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return its result record."""
    with tempfile.TemporaryDirectory(prefix="worker-", dir=OUT) as tmp:
        result = Path(tmp) / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"), *args,
               "--workdir", tmp, "--result", str(result)]
        timeout = deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before starting a worker")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker timed out after {exc.timeout:.0f} s") from exc
        if proc.returncode != 0 or not result.is_file():
            raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
        return json.loads(result.read_text(encoding="utf-8"))


def failed_passes(record: dict) -> int:
    return sum(1 for p in record["passes"] if p["errors"])


def median_of(record: dict, key: str) -> float:
    return statistics.median(p[key] for p in record["passes"])


def end_to_end(record: dict, setup_samples: list[float]) -> dict[str, float]:
    return {
        "run_s": median_of(record, "run_s"),
        "cpu_s": median_of(record, "cpu_s"),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": record["peak_rss_mb"],
    }


def measure_plain(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    base = ["--workload", workload, "--seed", str(seed)]
    setups = [run_worker(base + ["--setup-only"], deadline)["setup_s"]
              for _ in range(SETUP_PROCESSES)]
    record = run_worker(base + ["--seconds", str(seconds)], deadline)
    setups.append(record["setup_s"])
    n = len(record["passes"])
    return {
        "records": [record],
        "metrics": end_to_end(record, setups),
        "units": dict(END_TO_END),
        "samples": {"run_s": f"{n} passes", "cpu_s": f"{n} passes",
                    "setup_s": f"{len(setups)} processes", "peak_rss_mb": "1 process"},
        "setup_samples": setups,
    }


def measure_traced(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds / 2)]
    plain = run_worker(base, deadline)
    traced = run_worker(base + ["--trace"], deadline)
    if traced["trace"]["missing"]:
        print(f"perfbench: not traced (absent): {traced['trace']['missing']}", file=sys.stderr)
    metrics = tracing.layer_metrics(
        traced["trace"], median_of(traced, "run_s"), median_of(plain, "run_s")
    )
    n = traced["trace"]["passes"]
    return {
        "records": [plain, traced],
        "metrics": metrics,
        "units": dict(tracing.PER_LAYER),
        "samples": {
            name: f"per pass of {n} traced; moves {tracing.expected_move(name)}" for name in metrics
        },
    }


def report(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    measured = (measure_traced if trace else measure_plain)(workload, seed, seconds, deadline)
    records = measured["records"]
    attempted = sum(len(r["passes"]) for r in records)
    failed = sum(failed_passes(r) for r in records)
    env = records[0]["env"]

    print(f"perfbench workload={workload} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print("env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, value in measured["metrics"].items():
        print(f"  {name:<48} {value:>14.6g} {measured['units'][name]:<15} "
              f"{measured['samples'][name]}")
    print(f"  {'failed_frac':<48} {failed / attempted:>14.6g} {'fraction':<15} "
          f"{failed}/{attempted} passes")
    for r in records:
        for i, p in enumerate(r["passes"]):
            for err in p["errors"]:
                print(f"  FAILED pass {i}: {err}")

    with open(OUT / f"{workload}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(measured | {"env": env}, fh)

    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": measured["units"][name]}
            for name, value in measured["metrics"].items()
        },
    }
    print(json.dumps(line), flush=True)
    return line


def record_reference(seeds: range) -> None:
    """Store the headline results of one pass per workload and seed."""
    ref = {"rel_tol": REL_TOL, "workloads": {}}
    for workload in workloads.WORKLOADS:
        per_seed = ref["workloads"][workload] = {}
        for seed in seeds:
            deadline = time.monotonic() + DEADLINE_S
            record = run_worker(
                ["--workload", workload, "--seed", str(seed), "--no-reference"], deadline
            )
            p = record["passes"][0]
            if p["errors"]:
                raise BenchError(f"{workload} seed {seed}: {p['errors']}")
            per_seed[str(seed)] = p["headline"]
            print(f"recorded {workload} seed {seed}", file=sys.stderr)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="carleman-lab benchmark")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", metavar="FIRST-LAST")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "carleman_lab" / "__init__.py").is_file():
        print(f"perfbench: no carleman_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        if args.record_reference:
            first, _, last = args.record_reference.partition("-")
            record_reference(range(int(first), int(last or first) + 1))
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        for name in names:
            report(name, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
