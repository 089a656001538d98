"""Command line interface: subcommands, formats, exit codes."""

import io
import json
import os
import subprocess
import sys

import pytest

from boolweyl.bweyl import to_matrix
from boolweyl.cli import main
from boolweyl.gf2lin import mat_mul, matrix_from_text
from boolweyl.lang import eval_quantum, infer_context, parse_text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_classical(capsys):
    code, out, _ = run(capsys, "eval", "a b + a")
    assert code == 0
    assert out.strip() == "x{1} + x{1,2}"


def test_eval_quantum_with_basis(capsys):
    code, out, _ = run(capsys, "eval", "~a a", "--basis", "MS")
    assert code == 0
    assert out.strip() == "m{}s{1} + m{1}"


def test_eval_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "eval", "")
    assert code == 2
    assert "error" in err


def test_eval_json_format(capsys):
    code, out, _ = run(capsys, "eval", "a", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 1, "basis": "X", "support": [[1]]}


def test_eval_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("a + a b"))
    code, out, _ = run(capsys, "eval", "-", "--basis", "M")
    assert code == 0
    assert out.strip() == "m{1}"


def test_mul(capsys):
    code, out, _ = run(capsys, "mul", "x{1,2}y{1,2}", "x{1}y{1}")
    assert code == 0
    assert out.strip() == "x{1,2}y{1,2}"


def test_mul_identity(capsys):
    code, out, _ = run(capsys, "mul", "1", "x{1}y{2}", "-n", "2")
    assert code == 0
    assert out.strip() == "x{1}y{2}"


def test_mul_dimension_mismatch_exit_2(capsys):
    code, _, err = run(capsys, "mul", "x{1}", "x{3}", "-n", "1")
    assert code == 2
    assert "error" in err


def test_convert(capsys):
    code, out, _ = run(capsys, "convert", "~a", "--basis", "XS")
    assert code == 0
    assert out.strip() == "1 + s{1}"
    code, out, _ = run(capsys, "convert", "a", "--basis", "M", "-n", "1")
    assert code == 0
    assert out.strip() == "m{1}"


def test_entail_yes_no_exit_codes(capsys):
    code, out, _ = run(capsys, "entail", "a b", "a")
    assert code == 0 and out.strip() == "yes"
    code, out, _ = run(capsys, "entail", "1", "0")
    assert code == 1 and out.strip() == "no"
    code, out, _ = run(capsys, "entail", "a", "a b")
    assert code == 1


def test_entail_witness(capsys):
    code, out, _ = run(capsys, "entail", "~a a", "1", "--witness")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "yes"
    # the witness is the operator of p itself (q is the identity)
    assert lines[1:] == ["01", "01"]


@pytest.mark.parametrize(("p", "q"), (("a ~b + a", "a"), ("~a a b", "~a"), ("a b", "a")))
def test_entail_witness_solves_q_w_equals_p(capsys, p, q):
    code, out, _ = run(capsys, "entail", p, q, "--witness")
    assert code == 0
    answer, grid = out.split("\n", 1)
    assert answer == "yes"
    witness = matrix_from_text(grid)
    pe, qe = parse_text(p), parse_text(q)
    ctx = infer_context([pe, qe])
    want = to_matrix(eval_quantum(pe, ctx))
    assert mat_mul(to_matrix(eval_quantum(qe, ctx)), witness) == want


def test_equiv(capsys):
    code, out, _ = run(capsys, "equiv", "a b", "b a")
    assert code == 0 and out.strip() == "yes"
    code, out, _ = run(capsys, "equiv", "~a a", "a ~a")
    assert code == 1 and out.strip() == "no"


def test_matrix_text(capsys):
    code, out, _ = run(capsys, "matrix", "~a", "-n", "1")
    assert code == 0
    assert out.strip() == "11\n11"
    code, out, _ = run(capsys, "matrix", "1", "-n", "1")
    assert code == 0
    assert out.strip() == "10\n01"


def test_matrix_json(capsys):
    code, out, _ = run(capsys, "matrix", "1", "-n", "1", "--format", "json")
    assert json.loads(out) == {"side": 2, "rows": ["10", "01"]}


def test_dot_output(capsys):
    code, out, _ = run(capsys, "dot", "m{1,2}y{2,3}", "-n", "3")
    assert code == 0
    assert out.startswith("digraph")
    # rule: row c = {1,2} gets a 1 in column d iff d + {1,2} inside {2,3}
    want_edges = {(d, 0b011) for d in range(8) if (d ^ 0b011) & ~0b110 == 0}
    for src, dst in want_edges:
        assert f"n{src} -> n{dst};" in out
    assert out.count("->") == len(want_edges)


def test_matrix_of_mono_matches_eval(capsys):
    code, out, _ = run(capsys, "matrix", "x{1}y{1}", "-n", "1")
    assert code == 0
    assert out.strip() == "00\n11"


def test_crosscheck_small(capsys):
    code, out, _ = run(capsys, "crosscheck", "--n", "1", "--samples", "5", "--seed", "3")
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out


def test_crosscheck_deterministic(capsys):
    _, out1, _ = run(capsys, "crosscheck", "--n", "1", "--samples", "4", "--seed", "7")
    _, out2, _ = run(capsys, "crosscheck", "--n", "1", "--samples", "4", "--seed", "7")
    assert out1 == out2


def test_unknown_basis_exit_2(capsys):
    code, _, err = run(capsys, "convert", "a", "--basis", "QQ")
    assert code == 2
    assert "error" in err


def test_deep_nesting_exit_2(capsys):
    for text in ("(" * 3000 + "a" + ")" * 3000, "!" * 5000 + "a"):
        code, out, err = run(capsys, "eval", text)
        assert code == 2
        assert out == ""
        assert err == "error: expression nested too deeply\n"


def test_nested_negations_within_the_stack(capsys):
    code, out, _ = run(capsys, "eval", "!" * 900 + "a")
    assert code == 0
    assert out == "x{1}\n"


@pytest.mark.parametrize("command", (["eval", "a b"], ["mul", "a", "b"]))
def test_coefficient_commands_reject_dot_format(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--format", "dot"])
    assert exc.value.code == 2
    assert "invalid choice: 'dot'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags", (["--n", "0"], ["--n", "17"], ["--samples", "0"], ["--samples", "-5"])
)
def test_crosscheck_rejects_out_of_range_flags(capsys, flags):
    code, out, err = run(capsys, "crosscheck", *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_import_leaves_battery_unloaded():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    code = "import sys, boolweyl.cli; print('boolweyl.checks' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == "False\n"


def test_crosscheck_into_closed_pipe():
    # like `crosscheck --n 3 | head -1`: the reader leaves after one line
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "boolweyl.cli", "crosscheck", "--n", "3"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert first.startswith(b"PASS n=1 ")
    assert b"Traceback" not in err
