"""Smoke test of tools/unreached.py on one shipped config, in a fresh process
so that the package is imported under the trace."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_classify_config_reaches_classify_and_not_the_control():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "unreached.py"),
         str(ROOT / "configs" / "classify_weak.json")],
        capture_output=True, text=True, timeout=300,
    )
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
