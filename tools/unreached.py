"""List the functions of the package that no experiment run enters.

    python tools/unreached.py [--check] [CONFIG ...]

Each config (default: every ``configs/*.json`` of this checkout) runs once,
all in this one process, as a user runs it: through ``cli.main(["run",
CONFIG, "--out", DIR])``, which validates the config before running it, with
this checkout's ``src`` first on the import path, ``CARLEMAN_LAB_SEED``
unset and DIR in a temporary directory.  ``sys.settrace`` records the code
object of every call while the configs run.  The report names each function
or method defined in ``src/carleman_lab`` (nested ones included, lambdas and
comprehensions left out) whose code no run entered, as ``path:line
qualified.name``, then counts them.

``--check`` compares the report with ``tools/unreached_allowed.txt``, which
lists each function that may stay unreached as ``path qualified.name #
reason``, one line per definition.  It names every unreached function the
list lacks and every listed one that is now reached or gone; the list is
written for a run over all shipped configs.

Exit status: 0 when every config ran (whatever the experiments' own exit
statuses) and, with ``--check``, the report matches the list; 1 when it
does not; 2 on a usage error.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import inspect
import io
import os
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = ROOT / "src" / "carleman_lab"
ALLOWED = Path(__file__).resolve().parent / "unreached_allowed.txt"


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
                    codes.append(cli.main(["run", str(config), "--out", str(Path(tmp) / str(i))]))
        finally:
            sys.settrace(None)

    lines = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for code in sorted(_defined_functions(path), key=lambda c: c.co_firstlineno):
            if _key(code) not in entered:
                where = path.relative_to(ROOT).as_posix()
                lines.append(f"{where}:{code.co_firstlineno} {code.co_qualname}")
    return codes, lines


def read_allowed(path: Path) -> tuple[list[str], list[str]]:
    """(``path qualname`` of every entry, the lines that lack a reason)."""
    entries, bad = [], []
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        name, _, reason = line.partition(" # ")
        if len(name.split()) != 2 or not reason.strip():
            bad.append(line)
        else:
            entries.append(" ".join(name.split()))
    return entries, bad


def check(lines: list[str], allowed: list[str], bad: list[str]) -> list[str]:
    """One message per mismatch between the report and the allow list."""
    found = collections.Counter()
    for line in lines:
        where, name = line.split(" ", 1)
        found[f"{where.rsplit(':', 1)[0]} {name}"] += 1
    listed = collections.Counter(allowed)
    return (
        [f"no reason given: {line}" for line in bad]
        + [f"unreached and not listed: {name}" for name in sorted(found - listed)]
        + [f"listed but reached or gone: {name}" for name in sorted(listed - found)]
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("configs", nargs="*", type=Path,
                        help="JSON configs (default: configs/*.json)")
    parser.add_argument("--check", action="store_true",
                        help=f"compare the report with {ALLOWED.name}")
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
    if not args.check:
        return 0
    problems = check(lines, *read_allowed(ALLOWED))
    for problem in problems:
        print(problem)
    print(f"{ALLOWED.name}: {'ok' if not problems else f'{len(problems)} mismatches'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
