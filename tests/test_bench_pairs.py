"""tools/bench_pairs.py on canned run results: the summary per workload and
metric, and the exit status of main.  No benchmark is started."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]


def canned(run_s, setup_s=0.2, peak=40.0, correct=True):
    values = {"run_s": run_s, "cpu_s": run_s, "setup_s": setup_s, "peak_rss_mb": peak}
    return {"correct": correct, "metrics": {k: {"value": v} for k, v in values.items()}}


def test_summary_per_workload_and_metric():
    results = {
        "desk_configs": {
            "parent": [canned(r) for r in (1.0, 2.0, 3.0, 4.0, 5.0)],
            # faster in 4 of 5 pairs, setup 30 % slower, peak 10 % higher
            "child": [canned(r, 0.26, 44.0) for r in (0.9, 1.9, 3.1, 3.9, 4.9)],
        },
    }
    rows = {r["metric"]: r for r in bench_pairs.summarize(results, END_TO_END)}
    assert list(rows) == ["run_s", "cpu_s", "setup_s", "peak_rss_mb"]
    run = rows["run_s"]
    assert (run["parent_median"], run["parent_iqr"], run["child_median"]) == (3.0, 2.0, 3.1)
    assert run["ratio"] == pytest.approx(3.1 / 3.0)
    assert (run["wins"], run["pairs"], run["past_bound"]) == (4, 5, False)
    assert not any(r["gain"] for r in rows.values())
    assert rows["setup_s"]["wins"] == 0 and rows["setup_s"]["past_bound"]
    assert rows["peak_rss_mb"]["past_bound"] and rows["peak_rss_mb"]["parent_iqr"] == 0.0
    table = bench_pairs.format_rows(list(rows.values())).splitlines()
    assert len(table) == 5 and table[0].split() == [
        "workload", "metric", "parent", "iqr", "child", "ratio", "won"]
    assert table[1].split()[-2:] == ["4/5", "UNRESOLVED"]
    assert [line.endswith("PAST") for line in table[1:]] == [False, False, True, True]
    # run_s and cpu_s spread 2.0 on a median of 3.0, past the 0.25 bound
    assert [r["unresolved"] for r in rows.values()] == [True, True, False, False]
    assert [line.endswith("UNRESOLVED") for line in table[1:]] == [True, True, False, False]


PARENT_RUNS = [1.0 + 0.01 * i for i in range(10)]  # median 1.045, IQR 0.045


@pytest.mark.parametrize("child_runs, gain", [
    # 9 of 10 pairs won, median 0.1 below the parent's, IQR 0.045
    ([r - 0.1 for r in PARENT_RUNS[:9]] + [2.0], True),
    # 8 of 10 won (a tie counts for neither side), the same gap
    ([r - 0.1 for r in PARENT_RUNS[:8]] + [PARENT_RUNS[8], 2.0], False),
    # 10 of 10 won, the gap just over the IQR
    ([r - 0.046 for r in PARENT_RUNS], True),
    # 10 of 10 won, the gap not over the IQR
    ([r - 0.044 for r in PARENT_RUNS], False),
])
def test_gain_needs_nine_in_ten_wins_and_a_gap_past_the_iqr(child_runs, gain):
    results = {"w": {"parent": [canned(r) for r in PARENT_RUNS],
                     "child": [canned(r) for r in child_runs]}}
    row = bench_pairs.summarize(results, END_TO_END)[0]
    assert row["metric"] == "run_s" and row["parent_iqr"] == pytest.approx(0.045)
    assert row["gain"] is gain
    line = bench_pairs.format_rows([row]).splitlines()[1]
    assert line.endswith("GAIN") is gain and "PAST" not in line


def test_gain_of_a_higher_is_better_metric():
    higher = [{"name": "run_s", "better": "higher", "bound": 0.25}]
    up = {"w": {"parent": [canned(r) for r in PARENT_RUNS],
                "child": [canned(r + 0.1) for r in PARENT_RUNS]}}
    down = {"w": {"parent": [canned(r) for r in PARENT_RUNS],
                  "child": [canned(r - 0.1) for r in PARENT_RUNS]}}
    assert bench_pairs.summarize(up, higher)[0]["gain"]
    assert not bench_pairs.summarize(down, higher)[0]["gain"]


def test_one_pair_has_no_spread():
    rows = bench_pairs.summarize({"w": {"parent": [canned(2.0)], "child": [canned(1.0)]}},
                                 END_TO_END)
    assert rows[0]["parent_iqr"] == 0.0 and rows[0]["wins"] == 1
    assert not rows[0]["gain"]


@pytest.mark.parametrize("pairs", [1, 3, 9])
def test_gain_needs_ten_pairs(pairs):
    # every pair won, by far more than the parent's IQR, but too few pairs
    results = {"w": {"parent": [canned(r) for r in PARENT_RUNS[:pairs]],
                     "child": [canned(r - 0.5) for r in PARENT_RUNS[:pairs]]}}
    row = bench_pairs.summarize(results, END_TO_END)[0]
    assert row["wins"] == row["pairs"] == pairs
    assert row["parent_median"] - row["child_median"] > row["parent_iqr"]
    assert not row["gain"]


WIDE_PARENT = [1.0, 1.2, 1.4, 1.6, 1.8]  # median 1.4, IQR 0.4, past 0.25 * 1.4


@pytest.mark.parametrize("parent_runs, child_runs, unresolved", [
    # the spread is wider than the bound and the runs overlap
    (WIDE_PARENT, [r - 0.1 for r in WIDE_PARENT], True),
    # the same spread, but every child run beats every parent run
    (WIDE_PARENT, [r - 0.9 for r in WIDE_PARENT], False),
    # the child's best run only ties the parent's worst: not every run beats
    (WIDE_PARENT, [r - 0.8 for r in WIDE_PARENT], True),
    # a spread inside the bound resolves however the runs overlap
    (PARENT_RUNS, [r + 0.01 for r in PARENT_RUNS], False),
])
def test_unresolved_when_the_spread_is_wider_than_the_bound(parent_runs, child_runs, unresolved):
    results = {"w": {"parent": [canned(r) for r in parent_runs],
                     "child": [canned(r) for r in child_runs]}}
    row = bench_pairs.summarize(results, END_TO_END)[0]
    assert row["metric"] == "run_s" and row["unresolved"] is unresolved
    line = bench_pairs.format_rows([row]).splitlines()[1]
    assert ("UNRESOLVED" in line) is unresolved


def test_unresolved_of_a_higher_is_better_metric():
    higher = [{"name": "run_s", "better": "higher", "bound": 0.25}]
    beat = {"w": {"parent": [canned(r) for r in WIDE_PARENT],
                  "child": [canned(r + 0.9) for r in WIDE_PARENT]}}
    overlap = {"w": {"parent": [canned(r) for r in WIDE_PARENT],
                     "child": [canned(r + 0.1) for r in WIDE_PARENT]}}
    assert not bench_pairs.summarize(beat, higher)[0]["unresolved"]
    assert bench_pairs.summarize(overlap, higher)[0]["unresolved"]


def _checkout(tmp_path, name):
    root = tmp_path / name
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text("raise SystemExit('not run')\n")
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    return root


@pytest.mark.parametrize("correct, code", [(True, 0), (False, 1)])
def test_main_alternates_and_exits_1_on_an_incorrect_run(
        tmp_path, monkeypatch, capsys, correct, code):
    parent, child = _checkout(tmp_path, "parent"), _checkout(tmp_path, "child")
    calls = []

    def fake_run(root, workload, seconds, seed):
        assert seed == bench_pairs.SEED == 3
        calls.append((root.name, workload))
        return canned(1.0, correct=correct or len(calls) != 3)

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    argv = [str(parent), str(child), "--pairs", "2", "--workload", "desk_configs"]
    assert bench_pairs.main(argv) == code
    assert calls == [("parent", "desk_configs"), ("child", "desk_configs"),
                     ("child", "desk_configs"), ("parent", "desk_configs")]
    captured = capsys.readouterr()
    if correct:
        assert "desk_configs" in captured.out and "PAST" not in captured.out
        assert captured.out.splitlines()[0] == "--seed 3 --pairs 2 --seconds 6"
    else:
        assert "desk_configs: child run of pair 2 is not correct" in captured.err


@pytest.mark.parametrize("argv, seed", [([], 3), (["--seed", "11"], 11)])
def test_seed_reaches_the_benchmark_command(tmp_path, monkeypatch, capsys, argv, seed):
    parent, child = _checkout(tmp_path, "parent"), _checkout(tmp_path, "child")
    commands = []

    class Done:
        stdout = json.dumps(canned(1.0)) + "\n"
        stderr = ""
        returncode = 0

    def fake_subprocess_run(cmd, cwd, **kwargs):
        commands.append((Path(cwd).name, cmd))
        return Done()

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_subprocess_run)
    args = [str(parent), str(child), "--pairs", "1", "--workload", "desk_configs", *argv]
    assert bench_pairs.main(args) == 0
    assert [name for name, _ in commands] == ["parent", "child"]
    for _, cmd in commands:
        assert cmd[1:] == ["perfbench/run.py", "--workload", "desk_configs", "--trace", "0",
                           "--seed", str(seed), "--seconds", "6.0"]
    assert capsys.readouterr().out.splitlines()[0] == f"--seed {seed} --pairs 1 --seconds 6"
