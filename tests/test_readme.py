"""README's code runs as written, and every `module.name` it cites is
defined in that module, so a change to an API it shows, or a move of a name
it cites, cannot leave it stale."""

import ast
import json
import pkgutil
import re
from pathlib import Path

import carleman_lab

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs(capsys):
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library tour"):]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(block, "README.md (Library tour)", "exec"), {})
    empirical_c, *_, shape = capsys.readouterr().out.splitlines()
    assert float(empirical_c) > 0.0
    assert shape == "(200,)"


PACKAGE = Path(carleman_lab.__file__).resolve().parent
BENCHMARK = README.parent / "BENCHMARK.json"
# a file name, not a module attribute: `control.bin`, `weights.py`
FILE_NAME = re.compile(r"\w+\.(bin|csv|json|log|md|py|txt)\b")


def _defined(module: str) -> set:
    """The names a module binds at top level itself: by def, class or
    assignment, not by import."""
    names = set()
    for node in ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def test_readme_module_names_are_defined_in_their_module():
    modules = {m.name for m in pkgutil.iter_modules([str(PACKAGE)])}
    metrics = {m["name"] for m in json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]}
    refs = set()
    for span in re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8")):
        ref = re.match(r"(?:carleman_lab\.)?(\w+)\.(\w+)", span)
        if ref and ref[1] in modules and span not in metrics and not FILE_NAME.match(span):
            refs.add((ref[1], ref[2]))
    assert refs
    assert [f"{m}.{name}" for m, name in sorted(refs) if name not in _defined(m)] == []
