"""The README's library tour runs, and each value it states in a comment holds."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs_and_states_true_values():
    text = README.read_text(encoding="utf-8")
    tour = re.search(r"## Library tour\n+```python\n(.*?)```", text, re.S).group(1)
    namespace = {}
    exec(compile(tour, str(README), "exec"), namespace)
    stated = re.findall(r"^(\w+) = .*?#\s*(.+?)\s*$", tour, re.M)
    assert len(stated) == 2
    for name, value in stated:
        assert str(namespace[name]) == value, name
