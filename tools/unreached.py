"""List the functions of the package that no experiment run enters.

    python tools/unreached.py [CONFIG ...]

Each config (default: every ``configs/*.json`` of this checkout) runs once,
all in this one process, through ``cli.run_experiment`` with this
checkout's ``src`` first on the import path, ``CARLEMAN_LAB_SEED`` unset
and its outputs in a temporary directory.  ``sys.settrace`` records the code
object of every call while the configs run.  The report names each function
or method defined in ``src/carleman_lab`` (nested ones included, lambdas and
comprehensions left out) whose code no run entered, as ``path:line
qualified.name``, then counts them.

Exit status: 0 when every config ran (whatever the experiments' own exit
statuses), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import os
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = ROOT / "src" / "carleman_lab"


def _defined_functions(path: Path) -> list[types.CodeType]:
    """Code objects of every named function defined in one source file; class
    bodies, which run once at import, are walked but not listed."""
    found = []
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                if const.co_flags & inspect.CO_NEWLOCALS and not const.co_name.startswith("<"):
                    found.append(const)
                todo.append(const)
    return found


def _key(code: types.CodeType) -> tuple:
    return (os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name)


def unreached(configs: list[Path]) -> tuple[list[int], list[str]]:
    """(exit status per config, ``path:line qualname`` of every unreached
    package function in source order)."""
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("CARLEMAN_LAB_SEED", None)
    entered = set()

    def on_call(frame, event, arg):
        entered.add(_key(frame.f_code))
        # no line events: only entries are recorded

    codes = []
    with tempfile.TemporaryDirectory(prefix="unreached-") as tmp:
        sys.settrace(on_call)
        try:
            # imported under the trace, so what runs at import counts as
            # reached unless the package was loaded before
            from carleman_lab import cli

            with contextlib.redirect_stdout(io.StringIO()):
                for i, config in enumerate(configs):
                    cfg = json.loads(config.read_text(encoding="utf-8"))
                    codes.append(cli.run_experiment(cfg, Path(tmp) / str(i)))
        finally:
            sys.settrace(None)

    lines = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for code in sorted(_defined_functions(path), key=lambda c: c.co_firstlineno):
            if _key(code) not in entered:
                where = path.relative_to(ROOT).as_posix()
                lines.append(f"{where}:{code.co_firstlineno} {code.co_qualname}")
    return codes, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("configs", nargs="*", type=Path,
                        help="JSON configs (default: configs/*.json)")
    args = parser.parse_args(argv)
    configs = args.configs or sorted((ROOT / "configs").glob("*.json"))
    missing = [str(c) for c in configs if not c.is_file()]
    if missing:
        print(f"error: no such config: {', '.join(missing)}", file=sys.stderr)
        return 2
    codes, lines = unreached(configs)
    for config, code in zip(configs, codes):
        print(f"{config.name}: exit {code}")
    for line in lines:
        print(line)
    print(f"{len(lines)} functions unreached by {len(configs)} configs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
