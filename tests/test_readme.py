"""README's code runs as written, so a change to an API it shows cannot
leave it stale."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs(capsys):
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library tour"):]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(block, "README.md (Library tour)", "exec"), {})
    empirical_c, *_, shape = capsys.readouterr().out.splitlines()
    assert float(empirical_c) > 0.0
    assert shape == "(200,)"
