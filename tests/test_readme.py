"""The README's examples run, and each value or output they state in a comment holds."""

import re
import shlex
from pathlib import Path

from boolweyl.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

# Command-line examples whose comment describes the output instead of stating it.
DESCRIBED = {
    "yes + a witness matrix",
    "graph, edge d -> c per matrix entry",
    "the full invariant battery",
}


def test_library_tour_runs_and_states_true_values():
    text = README.read_text(encoding="utf-8")
    tour = re.search(r"## Library tour\n+```python\n(.*?)```", text, re.S).group(1)
    namespace = {}
    exec(compile(tour, str(README), "exec"), namespace)
    stated = re.findall(r"^(\w+) = .*?#\s*(.+?)\s*$", tour, re.M)
    assert len(stated) == 2
    for name, value in stated:
        assert str(namespace[name]) == value, name


def test_command_line_examples_print_what_their_comments_state(capsys):
    """A comment 'out / out (exit k)' states the stdout lines and the exit code (default 0)."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\n+```sh\n(.*?)```", text, re.S).group(1)
    examples = re.findall(r"^boolweyl (.*?)\s+#\s*(.+?)\s*$", block, re.M)
    assert len(examples) == len(block.splitlines())  # every line is a commented example
    assert DESCRIBED <= {comment for _, comment in examples}
    stated = [(command, comment) for command, comment in examples if comment not in DESCRIBED]
    assert len(stated) == 8
    for command, comment in stated:
        output, code = re.fullmatch(r"(.*?)(?:\s+\(exit (\d)\))?", comment).groups()
        want = "".join(line + "\n" for line in output.split(" / "))
        assert (main(shlex.split(command)), capsys.readouterr().out) == (int(code or 0), want), command
