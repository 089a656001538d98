"""The benchmark operation lists print exactly what they printed before.

`tools/ab_ops.py` runs one workload's operation list through two copies of
the package and prints a digest of every exit code, stdout and stderr.
Here both copies are this checkout, so the digest pins the output bytes
of each list.  A change that means to alter output updates the digest
beside the workload, as test_battery_draws_what_it_drew is updated.  The
battery list is left out: each side of it makes eight `crosscheck --n 5`
calls.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
SRC = TOOLS.parent / "src"

DIGESTS = {
    "cli": "17fcedbde1712b2103a0f379528f77bd53c2252570eda786c46b4b19e675bea1",
    "classical": "52c1cbc48fb502399ee4afdeb8932010c0e9e2ce751fa8fecdb54d17395d996f",
    "quantum": "c6719f1798a090767bb25a1bed93996f29873b620cb41b1e42910f5288224988",
}


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_operation_list_output_is_unchanged(workload, monkeypatch, capsys):
    # ab_ops imports bench_values from its own directory and turns bytecode
    # writing off; both are put back when the test ends
    monkeypatch.syspath_prepend(str(TOOLS))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    spec = importlib.util.spec_from_file_location("ab_ops", TOOLS / "ab_ops.py")
    ab_ops = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab_ops)
    monkeypatch.setattr(sys, "argv", ["ab_ops.py", str(SRC), workload])
    assert ab_ops.main() == 0, capsys.readouterr().out
    lines = capsys.readouterr().out.splitlines()
    assert f"digest {DIGESTS[workload]}" in lines, lines
