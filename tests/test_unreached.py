"""Tests of tools/unreached.py: a smoke run on one shipped config and the
allow-list check over all of them, each in a fresh process so that the
package is imported under the trace, and the check's bookkeeping."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("unreached", ROOT / "tools" / "unreached.py")
unreached = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(unreached)


def _run(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "unreached.py"), *args],
        capture_output=True, text=True, timeout=300,
    )


def test_classify_config_reaches_classify_and_not_the_control():
    done = _run(str(ROOT / "configs" / "classify_weak.json"))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "classify_weak.json: exit 0"
    unreached = [line.split(" ") for line in lines[1:-1]]
    names = [name for _, name in unreached]
    assert "classify" not in names
    assert ["control.py", "synthesize_null_control"] in (
        [where.split(":")[0].rsplit("/", 1)[1], name] for where, name in unreached
    )
    assert lines[-1] == f"{len(unreached)} functions unreached by 1 configs"


def test_shipped_configs_leave_only_the_allowed_functions_unreached():
    done = _run("--check")
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    allowed, bad = unreached.read_allowed(unreached.ALLOWED)
    assert bad == []
    assert lines[-2] == f"{len(allowed)} functions unreached by 11 configs"
    assert lines[-1] == "unreached_allowed.txt: ok"


def test_check_names_each_mismatch(tmp_path):
    lines = ["src/m.py:3 f", "src/m.py:9 g.<locals>.a", "src/m.py:20 g.<locals>.a"]
    assert unreached.check(lines, ["src/m.py f", "src/m.py g.<locals>.a"], []) == [
        "unreached and not listed: src/m.py g.<locals>.a",
    ]
    assert unreached.check(lines[:1], ["src/m.py f", "src/m.py gone"], []) == [
        "listed but reached or gone: src/m.py gone",
    ]
    listing = tmp_path / "allowed.txt"
    listing.write_text("# comment\n\nsrc/m.py f # kept\nsrc/m.py g\nsrc/m.py h #  \n")
    allowed, bad = unreached.read_allowed(listing)
    assert allowed == ["src/m.py f"]
    assert bad == ["src/m.py g", "src/m.py h #  "]
    assert unreached.check(lines[:1], allowed, bad)[:2] == [
        "no reason given: src/m.py g", "no reason given: src/m.py h #  ",
    ]
