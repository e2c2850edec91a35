"""Run the benchmark in two checkouts in alternating pairs and compare them.

    python tools/bench_pairs.py PARENT CHILD [--pairs 10] [--seconds 6] [--workload all]
                                [--seed 3]

PARENT and CHILD are the roots of two checkouts.  Each pair runs
``perfbench/run.py --workload W --trace 0 --seed N --seconds S`` once in each
checkout, in turn: the parent first in odd pairs (1, 3, ...), the child first
in even ones.  Each run's last JSON line on standard output is its result.
``--workload all`` takes every workload of the parent's ``BENCHMARK.json``;
``--seed`` (default 3) picks the inputs, so a round at another seed checks a
result on inputs it was not tuned on.

Per workload and end-to-end metric of the parent's ``BENCHMARK.json`` the
report gives the parent's median and interquartile range, the child's
median, their ratio, the pairs the child won (a strictly better value than
the parent's in the same pair), ``GAIN`` when the row meets the claim rule
(at least ten pairs, the child won at least 9 in 10 of them, ties counting
for neither, and its median is better than the parent's by more than the parent's
interquartile range), ``UNRESOLVED`` when the parent's interquartile range
is wider than the metric's relative ``bound`` of its median and not every
child run is better than every parent run, so the spread hides a change of
the size the bound allows, and ``PAST`` when the child's median is worse
than the parent's by more than the metric's relative ``bound``.

Exit status: 0 when every run reported ``correct: true``; 1 when a run
reported ``correct: false`` or gave no result; 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SEED = 3


def run_once(root: Path, workload: str, seconds: float, seed: int = SEED) -> dict:
    """The last JSON line of one benchmark run in the checkout ``root``, or
    ``{"correct": False}`` when the run printed none."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "0",
           "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = [line for line in done.stdout.splitlines() if line.startswith("{")]
    if not lines:
        print(f"{root}: {workload}: no result (exit {done.returncode}): {done.stderr[-500:]}",
              file=sys.stderr)
        return {"correct": False, "metrics": {}}
    return json.loads(lines[-1])


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(results: dict, end_to_end: list) -> list:
    """One row per workload and end-to-end metric.

    ``results`` maps a workload to its ``parent`` and ``child`` lists of run
    results, entry i of each from pair i; ``end_to_end`` is the
    ``end_to_end`` list of ``BENCHMARK.json``.
    """
    rows = []
    for workload, runs in results.items():
        for metric in end_to_end:
            name, lower = metric["name"], metric["better"] == "lower"
            parent = [r["metrics"][name]["value"] for r in runs["parent"]]
            child = [r["metrics"][name]["value"] for r in runs["child"]]
            q1, p_med, q3 = quartiles(parent)
            c_med = statistics.median(child)
            wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, child))
            limit = p_med * (1 + metric["bound"] if lower else 1 - metric["bound"])
            better_by = p_med - c_med if lower else c_med - p_med
            all_beat = max(child) < min(parent) if lower else min(child) > max(parent)
            rows.append({
                "workload": workload,
                "metric": name,
                "parent_median": p_med,
                "parent_iqr": q3 - q1,
                "child_median": c_med,
                "ratio": c_med / p_med if p_med else float("nan"),
                "wins": wins,
                "pairs": len(child),
                "gain": len(child) >= 10 and 10 * wins >= 9 * len(child) and better_by > q3 - q1,
                "unresolved": q3 - q1 > metric["bound"] * p_med and not all_beat,
                "past_bound": c_med > limit if lower else c_med < limit,
            })
    return rows


def format_rows(rows: list) -> str:
    head = (f"{'workload':<18} {'metric':<12} {'parent':>10} {'iqr':>10} {'child':>10} "
            f"{'ratio':>7} {'won':>6}")
    lines = [head]
    for r in rows:
        lines.append(
            f"{r['workload']:<18} {r['metric']:<12} {r['parent_median']:>10.4g} "
            f"{r['parent_iqr']:>10.3g} {r['child_median']:>10.4g} {r['ratio']:>7.3f} "
            f"{r['wins']:>3}/{r['pairs']:<2}" + ("  GAIN" if r["gain"] else "")
            + ("  UNRESOLVED" if r["unresolved"] else "")
            + ("  PAST" if r["past_bound"] else "")
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="alternating benchmark pairs of two checkouts")
    parser.add_argument("parent", type=Path)
    parser.add_argument("child", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=SEED)
    args = parser.parse_args(argv)
    for root in (args.parent, args.child):
        if not (root / "perfbench" / "run.py").is_file():
            parser.error(f"{root} has no perfbench/run.py")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    bench = json.loads((args.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    if args.workload != "all":
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r} (one of {', '.join(names)})")
        names = [args.workload]

    results = {w: {"parent": [], "child": []} for w in names}
    for workload in names:
        for pair in range(1, args.pairs + 1):
            order = ("parent", "child") if pair % 2 else ("child", "parent")
            for side in order:
                root = args.parent if side == "parent" else args.child
                results[workload][side].append(run_once(root, workload, args.seconds, args.seed))
            print(f"{workload}: pair {pair}/{args.pairs} done", file=sys.stderr, flush=True)

    wrong = [(w, side, i + 1) for w, runs in results.items() for side, rs in runs.items()
             for i, r in enumerate(rs) if r.get("correct") is not True]
    for workload, side, pair in wrong:
        print(f"{workload}: {side} run of pair {pair} is not correct", file=sys.stderr)
    if wrong:
        return 1
    print(f"--seed {args.seed} --pairs {args.pairs} --seconds {args.seconds:g}")
    print(format_rows(summarize(results, bench["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
