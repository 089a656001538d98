"""Command line interface: subcommands, formats, exit codes."""

import argparse
import ast
import collections
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from boolweyl import checks, cli, lang
from boolweyl.bweyl import OP_BASES, to_matrix
from boolweyl.cli import main
from boolweyl.gf2lin import mat_mul, matrix_from_text, matrix_text_lines
from boolweyl.lang import eval_quantum, infer_context, parse_text
from boolweyl.ring import RING_BASES


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


@pytest.mark.parametrize(
    "argv, want",
    (
        (["equiv", "-", "-"], (0, "yes\n")),
        (["entail", "-", "-"], (0, "yes\n")),
        (["mul", "-", "-"], (0, "x{1,2}\n")),
        (["mul", "-", "~a"], (0, "x{1,2}y{1}\n")),
    ),
)
def test_stdin_is_read_once_for_every_dash(capsys, monkeypatch, argv, want):
    monkeypatch.setattr("sys.stdin", io.StringIO("a b"))
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (*want, "")


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
    # two propositions answered "no" with --witness: no witness is printed
    assert run(capsys, "entail", "a", "a b", "--witness") == (1, "no\n", "")


def test_entail_at_n16_builds_no_full_matrix(capsys, monkeypatch):
    # the full matrices would be 2^16 x 2^16 bits: 512 MB each
    def refuse(f):
        raise AssertionError("to_matrix called")

    from boolweyl import bweyl

    monkeypatch.setattr(bweyl, "to_matrix", refuse)
    assert run(capsys, "entail", "~a a", "1", "-n", "16") == (0, "yes\n", "")
    assert run(capsys, "entail", "~a a", "~b", "-n", "16") == (1, "no\n", "")


def test_entail_witness_at_n12_builds_no_full_matrix(capsys, monkeypatch):
    # the witness is solved on the 2^9 equal diagonal blocks of side 8 and
    # placed on each; its text is that of the full-matrix solve
    def refuse(f):
        raise AssertionError("to_matrix called")

    from boolweyl import bweyl

    # every binding of it in the package, wherever it was imported
    orig = bweyl.to_matrix
    for name, module in list(sys.modules.items()):
        if name.startswith("boolweyl") and getattr(module, "to_matrix", None) is orig:
            monkeypatch.setattr(module, "to_matrix", refuse)
    code, out, err = run(capsys, "entail", "--witness", "~a a", "1", "-n", "12")
    assert (code, err, out[:4], len(out)) == (0, "", "yes\n", 16781316)
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "d90570a7476f99956937d235530a9bbfcc4f98ca876d287db425e9a627f87ee7"


def test_entail_with_every_coordinate_derived_stops_at_the_refuting_rows(capsys, monkeypatch):
    # the derivatives touch all 16 coordinates, so the one block is the whole
    # 2^16 x 2^16 matrix; its first row refutes containment, so only the
    # first rows are built, and no matrix at all
    from boolweyl import gf2lin

    def refuse(self, rows):
        raise AssertionError("Gf2Matrix built")

    monkeypatch.setattr(gf2lin.Gf2Matrix, "__init__", refuse)
    names = "abcdefghijklnopq"
    p = " ".join("~" + v for v in names)
    q = " ".join(names) + " " + p
    tracemalloc.start()
    try:
        start = time.perf_counter()
        result = run(capsys, "entail", p, q, "-n", "16")
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result == (1, "no\n", "")
    assert elapsed < 2.0 and peak < 32 << 20, (elapsed, peak)


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


def test_matrix_json_streamed_bytes(capsys):
    # written row by row, yet the same bytes as one json.dumps of the document
    for expr, n in (("1", 1), ("a ~b", 3), ("m{1,2}y{2,3} + x{1}s{3}", 5)):
        code, out, _ = run(capsys, "matrix", expr, "-n", str(n), "--format", "json")
        assert code == 0
        m = to_matrix(eval_quantum(parse_text(expr), infer_context([parse_text(expr)], n)))
        assert out == json.dumps({"side": m.side, "rows": list(matrix_text_lines(m))}) + "\n"


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


def test_operator_span_rank_skips_above_six():
    skipped = checks.check_operator_span_rank(7)
    assert (skipped.status, skipped.ok, skipped.skipped) == ("SKIP", False, True)
    assert checks.check_operator_span_rank(2).status == "PASS"


def test_crosscheck_tallies_skips_apart_from_passes(capsys, monkeypatch):
    held = checks.CheckResult("held", True)
    broke = checks.CheckResult("broke", False, "x=1")
    skip = checks.CheckResult("big", False, "too large", skipped=True)
    for results, want_code, tally in (
        ([held], 0, "2/2 checks passed"),
        ([held, skip], 0, "2/4 checks passed, 2 skipped"),
        ([held, broke, skip], 1, "2/6 checks passed, 2 skipped"),
    ):
        monkeypatch.setattr(checks, "run_battery", lambda n, samples, seed: results)
        code, out, _ = run(capsys, "crosscheck", "--n", "2")
        lines = [f"{r.status} n={n} {r.name}" + (f" ({r.detail})" if r.detail else "")
                 for n in (1, 2) for r in results]
        assert code == want_code
        assert out == "\n".join(lines + [tally]) + "\n"
    assert "SKIP n=1 big (too large)\n" in out
    assert "FAIL n=2 broke (x=1)\n" in out


def test_unknown_basis_exit_2(capsys):
    code, _, err = run(capsys, "convert", "a", "--basis", "QQ")
    assert code == 2
    assert "error" in err


def test_set_element_too_long_exit_2(capsys):
    digits = "9" * (sys.get_int_max_str_digits() + 1)
    assert run(capsys, "eval", "x{" + digits + "}") == (2, "", "error: set element too long at offset 2\n")


def test_deep_nesting_answers(capsys):
    for text in ("(" * 3000 + "a" + ")" * 3000, "!" * 5000 + "a"):
        assert run(capsys, "eval", text) == (0, "x{1}\n", "")


@pytest.mark.parametrize(
    "text",
    ("(" * 100_000 + "a" + ")" * 100_000, "(a " * 100_000 + "a" + ")" * 100_000, "!" * 100_000 + "a"),
    ids=("parentheses", "products", "negations"),
)
def test_no_recursion_on_the_command_line(text):
    # parsing and valuation keep their own stacks: a limit of 100 frames is
    # enough for an expression 100,000 levels deep
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    code = "import sys; sys.setrecursionlimit(100); from boolweyl.cli import main; "
    code += "sys.exit(main(['eval', '-']))"
    proc = subprocess.run(
        [sys.executable, "-c", code], input=text, capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "x{1}\n", "")


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


@pytest.mark.parametrize("fmt", ("text", "json", "dot"))
@pytest.mark.parametrize("command", (["entail", "a", "b"], ["equiv", "a", "b"], ["dot", "a"]))
def test_answer_and_graph_commands_take_no_format(capsys, command, fmt):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--format", fmt])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --format {fmt}" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("argv", "message"),
    (
        (["eval", "~a", "--basis", "M"], "operator expression cannot convert to a ring basis"),
        (["eval", "a", "--basis", "QQ"], "unknown basis 'QQ'"),
        (["eval", "a", "--basis", ""], "unknown basis ''"),
        (["mul", "a", "b", "--basis", ""], "basis '' does not name an operator basis"),
        (["mul", "a", "b", "--basis", "M"], "basis 'M' does not name an operator basis"),
    ),
)
def test_basis_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_equiv_of_propositions_in_bounded_time(capsys):
    # propositions are compared on truth functions, not on XY operator terms
    e = "(a|b|c|d|e|f|g|h)(i|j|k|l|m|n|o|p)(a|c|e|g|i|k|m|o)"
    for q, want in ((e, (0, "yes\n")), (e.replace("(a|c|", "(b|c|"), (1, "no\n"))):
        start = time.perf_counter()
        code, out, _ = run(capsys, "equiv", e, q)
        assert time.perf_counter() - start < 2.0
        assert (code, out) == want


def dense_operator(n):
    """(a|b|...)(1+~a)(1+~b)... over n variables: the OR of all n times
    the product of every 1 + d_i, one MY table at each of the 2^n right
    indices, 4^n - 2^n XY terms."""
    names = "abcdefghij"[:n]
    return "(" + "|".join(names) + ")" + "".join(f"(1+~{v})" for v in names)


def test_dense_operator_product_in_bounded_time(capsys):
    # P has 4,032 XY terms at n = 6: a term-pair product walks 16 million
    # pairs, the table product derives 64 tables along 6 coordinates
    p = dense_operator(6)
    start = time.perf_counter()
    code, out, err = run(capsys, "mul", p, p, "-n", "6")
    elapsed = time.perf_counter() - start
    assert (code, err, len(out)) == (0, "", 680)
    assert hashlib.sha256(out.encode()).hexdigest() == "3eab432237657545e10c7a2f231d0e4c2a02456d33458225d063a0ae817b49a9"
    assert elapsed < 2.0, elapsed


def test_dense_operator_equivalence_in_bounded_time(capsys):
    # P at n = 10 has 1,047,552 XY terms; compared as 1,024 MY tables
    p = dense_operator(10)
    start = time.perf_counter()
    assert run(capsys, "equiv", p, p, "-n", "10") == (0, "yes\n", "")
    assert time.perf_counter() - start < 2.0


def test_dense_operator_text_in_bounded_time(capsys):
    # P at n = 10 prints 1,047,552 XY terms, 29,340,160 bytes: written per
    # left index from the packed rows, the bytes that the term-by-term writer
    # printed
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", dense_operator(10), "-n", "10")
    elapsed = time.perf_counter() - start
    assert (code, err, len(out)) == (0, "", 29340160)
    assert hashlib.sha256(out.encode()).hexdigest() == "4f3d9d5c7c2f83a9b577693f65bb6151fc95449fab6d2165cd4000baaec0ce0c"
    assert elapsed < 3.0, elapsed


def test_many_shift_indices_in_bounded_time_and_memory(capsys):
    # s{1..14} has a table at each of its 2^14 right indices, and n times
    # it has the table of n at each: equal tables are one int (held apart,
    # the 2 KiB tables took a 77 MiB peak here)
    s14 = "s{" + ",".join(map(str, range(1, 15))) + "}"
    tracemalloc.start()
    try:
        start = time.perf_counter()
        result = run(capsys, "equiv", f"n {s14}", f"{s14} n", "-n", "14")
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result == (1, "no\n", "")
    assert elapsed < 2.0 and peak < 12 << 20, (elapsed, peak)


E16 = "(a|b|c|d|e|f|g|h)(i|j|k|l|n|o|p|q)(a|c|e|g|i|k|n|p)"


def test_propositions_inside_operators_in_bounded_time(capsys):
    # a proposition enters the operator algebra as one truth table: no
    # operator product is taken between its parts
    code, terms, _ = run(capsys, "eval", E16)
    assert code == 0
    terms = terms.split()[::2]
    calls = (
        (["eval", E16, "--basis", "XY"], (0, " + ".join(terms) + "\n")),
        (["eval", f"({E16}) ~a"], (0, " + ".join(t + "y{1}" for t in terms) + "\n")),
        (["equiv", f"({E16}) ~a", f"~a ({E16})"], (1, "no\n")),
    )
    for argv, want in calls:
        start = time.perf_counter()
        code, out, _ = run(capsys, *argv)
        assert time.perf_counter() - start < 2.0, argv
        assert (code, out) == want


@pytest.mark.parametrize(
    "flags", (["--n", "0"], ["--n", "17"], ["--samples", "0"], ["--samples", "-5"])
)
def test_crosscheck_rejects_out_of_range_flags(capsys, flags):
    code, out, err = run(capsys, "crosscheck", *flags)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_import_leaves_battery_unloaded():
    # the package re-exports nothing, so the CLI loads no oracle module
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    code = (
        "import sys, boolweyl.cli; "
        "print([m for m in ('boolweyl.checks', 'boolweyl.diffops', 'boolweyl.setfam') if m in sys.modules])"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == "[]\n"


def test_import_loads_no_code_generator():
    # dataclasses and its inspect chain cost every call start-up time; the
    # baseline is the modules of an empty program, so a site hook cannot fail it
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))

    def loaded(code):
        code += "; import sys; print(' '.join(sys.modules))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0
        return set(proc.stdout.split())

    added = loaded("import boolweyl.cli") - loaded("pass")
    assert "boolweyl.lang" in added
    assert not {"dataclasses", "inspect"} & added


def point_text(mask, n):
    return "m{%s}" % ",".join(str(i + 1) for i in range(n) if mask >> i & 1)


def long_chains():
    """(text, expected stdout of eval) for chains of 2,000 operands."""
    names = [f"v{i % 16 + 1}" for i in range(2000)]
    not_all = "1 + x{%s}\n" % ",".join(map(str, range(1, 17)))
    yield " | ".join(["a"] * 2000), "x{1}\n"
    yield " -> ".join(["a"] * 2000), "1\n"
    yield " | ".join("!" + name for name in names), not_all
    yield " -> ".join(names[:-1] + ["0"]), not_all
    # a DNF of 2,000 distinct minterms over 16 variables is true at exactly those points
    points = random.Random("dnf-chain").sample(range(1 << 16), 2000)
    minterms = (" & ".join(("" if p >> i & 1 else "!") + f"v{i + 1}" for i in range(16)) for p in points)
    yield " | ".join(minterms), " + ".join(point_text(p, 16) for p in sorted(points)) + "\n"


def test_long_connective_chains_answer(capsys):
    for text, expected in long_chains():
        basis = ["--basis", "M"] if expected.startswith("m{") else []
        code, out, err = run(capsys, "eval", text, *basis)
        assert (code, err) == (0, "")
        assert out == expected


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


def call(argv):
    """Exit code, stdout and stderr of one in-process main call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # a usage error, or help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_process(argv, *flags, redirect=None, stderr=subprocess.PIPE):
    """Exit code, stdout and stderr of one `python [flags] -m boolweyl.cli argv` process,
    started by sh with the redirection `redirect` (such as `<&-`) when one is given.
    Given a descriptor for stderr, the process writes there, and its stderr reads ''."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    env.pop("PYTHONUNBUFFERED", None)  # stdout is buffered, as in a user's call, unless flags hold -u
    cmd = [sys.executable, *flags, "-m", "boolweyl.cli", *argv]
    if redirect is not None:
        cmd = ["sh", "-c", f'exec "$@" {redirect}', "sh", *cmd]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=stderr, text=True, env=env, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr or ""


REPEATED_CALLS = (
    ["eval", "a b + a"],
    ["entail", "a"],  # usage error: a missing operand
    ["eval", "a +"],  # parse error
    ["entail", "~a a", "1", "--witness"],
    ["eval", "a b", "--format", "json"],
    ["mul", "a", "b", "--format", "dot"],  # invalid choice
    ["matrix", "~a", "-n", "2", "--format", "json"],
    ["dot", "m{1}y{1}", "-n", "2"],
    ["entail", "1", "0"],
    [],  # no subcommand
    ["crosscheck", "--n", "0"],
    ["convert", "~a", "--basis", "XS"],
)


def test_repeated_main_calls_match_fresh_processes():
    # main keeps nothing between calls: a second pass in the same process, and
    # one fresh interpreter per call (argv=None, read from sys.argv), answer alike
    passes = [[call(argv) for argv in REPEATED_CALLS] for _ in range(2)]
    assert passes[0] == passes[1]
    for argv, (code, out, _) in zip(REPEATED_CALLS, passes[0]):
        assert run_process(argv)[:2] == (code, out), argv
    assert [code for code, _, _ in passes[0]] == [
        0, 2, 2, 0, 0, 2, 0, 0, 1, 2, 2, 0,
    ]


@pytest.mark.parametrize("command", ("entail", "mul", "equiv"))
def test_a_second_double_dash_is_an_operand(command):
    # the first "--" ends the options, so the second is the text of the last operand
    want = (2, "", "error: illegal character '-' at offset 0\n")
    assert call([command, "a", "--", "--"]) == want
    assert run_process([command, "a", "--", "--"]) == want


# stderr on a pipe whose reader closed before the start, which no sh redirection makes
EARLY_CLOSED_PIPE = "2>pipe"


@pytest.mark.parametrize(
    "closed, null, argv, code",
    (
        ("<&-", "</dev/null", ["eval", "-"], 2),
        (">&-", ">/dev/null", ["eval", "a"], 0),
        ("2>&-", "2>/dev/null", ["eval", "a +"], 2),
        # a descriptor 2 open for reading only, as a wrapper script can leave it
        ("2</dev/null", "2>/dev/null", ["eval", "a +"], 2),
        # a descriptor 0 open for writing only: reading it fails
        ("0>/dev/null", "</dev/null", ["eval", "-"], 2),
        # the error message meets the closed pipe
        (EARLY_CLOSED_PIPE, "2>/dev/null", ["eval", "a +"], 2),
    ),
)
def test_a_closed_standard_stream_answers_as_dev_null(closed, null, argv, code):
    if closed == EARLY_CLOSED_PIPE:
        read, write = os.pipe()
        os.close(read)
        try:
            answer = run_process(argv, stderr=write)
        finally:
            os.close(write)
    else:
        answer = run_process(argv, redirect=closed)
    assert answer == run_process(argv, redirect=null)
    assert answer[0] == code and "Traceback" not in answer[1] + answer[2]


@pytest.mark.parametrize("flags", ((), ("-u",)), ids=("buffered", "unbuffered"))
@pytest.mark.parametrize("argv", (["--help"], ["eval", "--help"], ["eval", "a"]))
def test_output_into_a_pipe_closed_before_the_start(argv, flags):
    # buffered, the write fails at the last flush; unbuffered, at the first print
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    env.pop("PYTHONUNBUFFERED", None)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "boolweyl.cli", *argv],
            stdout=write,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (2, b"")


@pytest.mark.parametrize("argv", (["matrix", "a ~b", "-n", "9"], ["--help"], ["eval", "--help"]))
def test_process_output_arrives_whole_through_a_pipe(argv):
    # the process ends with os._exit, so what is still buffered must be flushed first
    answer = run_process(argv)
    assert answer == call(argv)
    assert len(answer[1]) > (262_000 if argv[0] == "matrix" else 100)


def test_an_exception_escaping_main_prints_its_traceback():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    code = (
        "import sys\n"
        "from boolweyl import cli\n"
        "def boom(args):\n"
        "    print('partial')\n"
        "    raise RuntimeError('boom')\n"
        "cli.COMMANDS['eval'] = (boom, *cli.COMMANDS['eval'][1:])\n"
        "sys.argv = ['boolweyl', 'eval', 'a']\n"
        "cli.entry()\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (1, "partial\n")
    assert proc.stderr.startswith("Traceback (most recent call last):\n")
    assert proc.stderr.endswith("RuntimeError: boom\n")


def test_the_script_and_the_module_run_one_entry_point():
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as f:
        scripts = f.read().partition("\n[project.scripts]\n")[2].partition("\n[")[0]
    [(module, name)] = [line.split('"')[1].split(":") for line in scripts.splitlines() if line.strip()]
    assert (module, getattr(cli, name)) == ("boolweyl.cli", cli.entry)
    with open(cli.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    [block] = [node for node in tree.body if isinstance(node, ast.If) and "__main__" in ast.unparse(node.test)]
    assert ast.unparse(block) == f"if __name__ == '__main__':\n    {name}()"


def reference_parser():
    """The command line as an argparse parser: the oracle that `cli.read_argv` is checked against."""
    parser = argparse.ArgumentParser(
        prog="boolweyl",
        description="Exact algebra of Boolean functions and their differential operators over GF(2).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *operands, **defaults):
        p = sub.add_parser(name, help=summary)
        for operand in operands:
            p.add_argument(operand)
        p.add_argument("-n", type=int, default=None, help="dimension (default: inferred)")
        p.set_defaults(func=func, **defaults)
        return p

    def coefficients(p, basis_required=False):
        p.add_argument(
            "--basis",
            required=basis_required,
            help="output basis: M/X/W for ring elements, MY/XY/WY/MS/XS/WS for operators",
        )
        p.add_argument("--format", choices=("text", "json"), default="text", help="output format")

    coefficients(command("eval", cli.cmd_eval, "evaluate an expression ('-' reads stdin)", "expr"))
    coefficients(command("mul", cli.cmd_mul, "multiply two operator expressions", "lhs", "rhs"))
    coefficients(
        command("convert", cli.cmd_eval, "rewrite an expression in another basis", "expr"),
        basis_required=True,
    )

    p = command("entail", cli.cmd_entail, "decide entailment p |- q", "p", "q")
    p.add_argument("--witness", action="store_true", help="print a witness matrix on yes")
    command("equiv", cli.cmd_equiv, "decide equivalence of two expressions", "p", "q")
    p = command("matrix", cli.cmd_matrix, "matrix of an operator expression", "expr")
    p.add_argument("--format", choices=("text", "json", "dot"), default="text", help="output format")
    command("dot", cli.cmd_matrix, "graph of an operator matrix in DOT form", "expr", format="dot")

    p = sub.add_parser("crosscheck", help="run the invariant battery")
    p.add_argument("--n", type=int, default=3, help="largest dimension (default 3)")
    p.add_argument("--samples", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cli.cmd_crosscheck)

    return parser


# Words of the differential vectors.  None is "--", whose reads differ
# between argparse versions; neither is "-hx" (argparse 3.13 prints the help,
# 3.10-3.12 refuse the "x").
DIFFERENTIAL_WORDS = (
    "a", "a b", "-", "-n", "3", "-1", "x", "-n3", "-n=4", "--basis", "M", "--basis=QQ", "--format", "json",
    "dot", "--form", "--for=json", "--witness", "--wit", "--n", "--samples", "--seed", "--s", "->", "-a",
    "-x y", "--bogus", "-h", "--help", "--he", "--witness=1", "-1.5", "-n 5", "",
)
DIFFERENTIAL_OPTIONS = (
    ["-n", "3"], ["-n", "-1"], ["-n3"], ["-n=4"], ["--basis", "M"], ["--basis=QQ"], ["--format", "json"],
    ["--format", "dot"], ["--form", "json"], ["--for=json"], ["--witness"], ["--wit"], ["--n", "3"],
    ["--samples", "3"], ["--seed", "-1"], ["--s", "3"],
)


def differential_argv(rng):
    """A command (or "evl"), operands, options with their values and a few loose words, shuffled."""
    command = rng.choice((*cli.COMMANDS, "evl"))
    units = [[rng.choice(("a", "a b", "-", "x", "-1", "-x y"))] for _ in range(ARITY.get(command, 0))]
    units += [rng.choice(DIFFERENTIAL_OPTIONS) for _ in range(rng.randrange(3))]
    units += [[rng.choice(DIFFERENTIAL_WORDS)] for _ in range(rng.choice((0, 0, 0, 1, 2)))]
    rng.shuffle(units)
    argv = [word for unit in units for word in unit]
    argv.insert(0 if rng.random() < 0.9 else rng.randrange(len(argv) + 1), command)
    return argv


def read_outcome(read, argv):
    """("parsed", the namespace's fields), ("usage", None) or ("help", None); what the read prints is dropped."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return "parsed", vars(read(argv))
        except SystemExit as exc:
            return {0: "help", 2: "usage"}[exc.code], None


def test_reader_agrees_with_the_argparse_reference():
    reference = reference_parser()
    rng = random.Random("argv-differential")
    outcomes = collections.Counter()
    for _ in range(6000):
        argv = differential_argv(rng)
        assert "--" not in argv
        want = read_outcome(reference.parse_args, argv)
        assert read_outcome(cli.read_argv, argv) == want, argv
        outcomes[want[0]] += 1
    assert outcomes["parsed"] >= 0.2 * sum(outcomes.values())
    assert outcomes["help"] and outcomes["usage"]


TOP_USAGE = "usage: boolweyl [-h] {eval,mul,convert,entail,equiv,matrix,dot,crosscheck} ...\n"
EVAL_USAGE = "usage: boolweyl eval [-h] [-n N] [--basis BASIS] [--format {text,json}] expr\n"
CROSSCHECK_USAGE = "usage: boolweyl crosscheck [-h] [--n N] [--samples SAMPLES] [--seed SEED]\n"
COMMAND_CHOICES = "'eval', 'mul', 'convert', 'entail', 'equiv', 'matrix', 'dot', 'crosscheck'"
DASH_OPERAND = (2, "", "error: illegal character '-' at offset 0\n")
# argv: (exit code, stdout, stderr), the usage errors as argparse wrote them
PINNED_CALLS = {
    (): (2, "", TOP_USAGE + "boolweyl: error: the following arguments are required: command\n"),
    ("evl", "a"): (
        2, "", TOP_USAGE + f"boolweyl: error: argument command: invalid choice: 'evl' (choose from {COMMAND_CHOICES})\n"
    ),
    ("entail", "a"): (
        2,
        "",
        "usage: boolweyl entail [-h] [-n N] [--witness] p q\n"
        "boolweyl entail: error: the following arguments are required: q\n",
    ),
    ("convert", "a"): (
        2,
        "",
        "usage: boolweyl convert [-h] [-n N] --basis BASIS [--format {text,json}] expr\n"
        "boolweyl convert: error: the following arguments are required: --basis\n",
    ),
    ("eval", "a", "--format", "dot"): (
        2, "", EVAL_USAGE + "boolweyl eval: error: argument --format: invalid choice: 'dot' (choose from 'text', 'json')\n"
    ),
    ("eval", "a", "-n", "x"): (2, "", EVAL_USAGE + "boolweyl eval: error: argument -n: invalid int value: 'x'\n"),
    ("eval", "a", "-n"): (2, "", EVAL_USAGE + "boolweyl eval: error: argument -n: expected one argument\n"),
    ("crosscheck", "--s", "1"): (
        2, "", CROSSCHECK_USAGE + "boolweyl crosscheck: error: ambiguous option: --s could match --samples, --seed\n"
    ),
    # every word is classified first: the ambiguous prefix, not --seed's missing value
    ("crosscheck", "--seed", "--s"): (
        2, "", CROSSCHECK_USAGE + "boolweyl crosscheck: error: ambiguous option: --s could match --samples, --seed\n"
    ),
    ("eval", "a", "b"): (2, "", TOP_USAGE + "boolweyl: error: unrecognized arguments: b\n"),
    ("eval", "a", "--witness=1"): (2, "", TOP_USAGE + "boolweyl: error: unrecognized arguments: --witness=1\n"),
    # the accepted forms
    ("eval", "a", "-n5"): (0, "x{1}\n", ""),
    ("eval", "a", "--basis", "X", "--basis", "M"): (0, "m{1}\n", ""),
    ("eval", "a", "--basis", "-x y"): (2, "", "error: unknown basis '-x y'\n"),
    ("eval", "a", "-n", "-1"): (2, "", "error: explicit n=-1 too small; expression needs n>=1\n"),
    ("entail", "a b", "a", "--wit"): (0, "yes\n0000\n0000\n0000\n0001\n", ""),
    # the first "--" ends the options: every later word is an operand
    ("entail", "a", "--", "--"): DASH_OPERAND,
    ("mul", "a", "--", "--"): DASH_OPERAND,
    ("equiv", "a", "--", "--"): DASH_OPERAND,
    ("eval", "--", "-n"): DASH_OPERAND,
    ("eval", "-n", "2", "--", "a b"): (0, "x{1,2}\n", ""),
    ("eval", "a", "--", "-n", "2"): (2, "", TOP_USAGE + "boolweyl: error: unrecognized arguments: -n 2\n"),
    ("crosscheck", "--", "--s"): (2, "", TOP_USAGE + "boolweyl: error: unrecognized arguments: --s\n"),
    ("eval", "-n", "--", "a"): (2, "", EVAL_USAGE + "boolweyl eval: error: argument -n: expected one argument\n"),
    ("--", "eval", "a"): (
        2, "", TOP_USAGE + f"boolweyl: error: argument command: invalid choice: '--' (choose from {COMMAND_CHOICES})\n"
    ),
}


@pytest.mark.parametrize("argv", PINNED_CALLS)
def test_pinned_answers(argv):
    assert call(list(argv)) == PINNED_CALLS[argv]


@pytest.mark.parametrize("argv", (["-h"], ["--he"], ["--bogus", "--help", "evl"], *([c, "-h"] for c in cli.COMMANDS)))
def test_help_is_written_from_the_table(argv, monkeypatch):
    name = argv[0] if argv[0] in cli.COMMANDS else None
    _, summary, operands, options, _ = cli.COMMANDS[name] if name else (None, cli.SUMMARY, (), (), None)
    code, out, err = call(argv)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == (call([name, options[0][0]])[2] if name else TOP_USAGE).splitlines()[0]  # an error's usage
    assert lines[1:4] == ["", summary, ""]
    # one line per command (at the top) or operand, then one per option, with its help
    rows = [(command, spec[1]) for command, spec in cli.COMMANDS.items()] if name is None else [(o, "") for o in operands]
    rows += [(f"{o[0]} {o[1]}".replace("/", ", ").strip(), o[4]) for o in (*options, cli.HELP)]
    assert len(lines) == 4 + len(rows)
    for line, (left, text) in zip(lines[4:], rows):
        assert line.startswith(f"  {left}") and line.endswith(text), line
    monkeypatch.setenv("COLUMNS", "20")  # the layout is fixed, whatever the terminal
    assert call(argv) == (0, out, "")


# Beyond the package, value, ring and lang, which every call loads (cli runs
# as __main__), an operator adds bweyl, and a matrix, a witness or an
# operator entailment gf2lin too; a proposition's eval, convert and entail
# load neither, and neither does a call that fails to parse.  Only the
# battery loads the oracle modules.
OPERATOR = {"boolweyl.bweyl"}
MATRIX = {"boolweyl.bweyl", "boolweyl.gf2lin"}
LOADED_BEYOND_THE_FRONT_END = {
    ("eval", "a b + a"): set(),
    ("eval", "a b", "--basis", "M", "--format", "json"): set(),
    ("eval", "a", "--basis", "XY"): OPERATOR,  # a basis outside the ring bases
    ("eval", "a", "--basis", "Q"): OPERATOR,
    ("eval", "a ~b"): OPERATOR,
    ("eval", "a +"): set(),
    ("mul", "a", "b"): OPERATOR,
    ("mul", "a", "~b", "--format", "json"): OPERATOR,
    ("mul", "a", "b +"): set(),
    ("convert", "a b", "--basis", "W"): set(),
    ("convert", "~a", "--basis", "MS"): OPERATOR,
    ("convert", "a +", "--basis", "W"): set(),
    ("entail", "a b", "a"): set(),
    ("entail", "a b", "a", "--witness"): MATRIX,
    ("entail", "~a a", "1"): MATRIX,
    ("entail", "a", "~a +"): set(),
    ("equiv", "a b", "b a"): OPERATOR,
    ("equiv", "~a", "a"): OPERATOR,
    ("equiv", "a +", "a"): set(),
    ("matrix", "a"): MATRIX,
    ("matrix", "~a", "--format", "json"): MATRIX,
    ("matrix", "a +"): set(),
    ("dot", "a"): MATRIX,
    ("dot", "~a b"): MATRIX,
    ("dot", "a +"): set(),
    ("crosscheck", "--n", "1", "--samples", "1"): {*MATRIX, "boolweyl.checks", "boolweyl.diffops", "boolweyl.setfam"},
    ("crosscheck", "--n", "x"): set(),
}


def test_each_call_loads_only_the_modules_its_command_runs():
    assert {argv[0] for argv in LOADED_BEYOND_THE_FRONT_END} == set(cli.COMMANDS)
    front_end = {"boolweyl", "boolweyl.value", "boolweyl.ring", "boolweyl.lang"}
    for argv, beyond in LOADED_BEYOND_THE_FRONT_END.items():
        code, _, err = run_process(list(argv), "-S", "-X", "importtime")
        loaded = {line.rsplit("|", 1)[1].strip() for line in err.splitlines() if line.startswith("import time:")}
        assert {name for name in loaded if name.startswith("boolweyl")} == front_end | beyond, argv
        assert code == call(list(argv))[0], argv


def test_a_call_loads_no_parser_library_and_no_json():
    # -X importtime lists every module the call imports; -S leaves out site's
    code, out, err = run_process(["eval", "a b + a"], "-S", "-X", "importtime")
    assert (code, out) == (0, "x{1} + x{1,2}\n")
    loaded = {line.rsplit("|", 1)[1].strip() for line in err.splitlines() if line.startswith("import time:")}
    assert "boolweyl.lang" in loaded
    assert not loaded & {"argparse", "json", "gettext", "locale", "shutil"}


# A proposition "a | b" and an operator "a ~b + 1" through every route that
# values an operand; the outputs are pinned from the code that still asked
# lang.is_classical first.
VALUED_CALLS = {
    ("eval", "a | b"): (0, "x{1} + x{2} + x{1,2}\n", ""),
    ("eval", "a | b", "--basis", "M"): (0, "m{1} + m{2} + m{1,2}\n", ""),
    ("eval", "a | b", "--basis", "M", "--format", "json"):
        (0, '{"n": 2, "basis": "M", "support": [[1], [2], [1, 2]]}\n', ""),
    ("eval", "a | b", "--basis", "X"): (0, "x{1} + x{2} + x{1,2}\n", ""),
    ("eval", "a | b", "--basis", "X", "--format", "json"):
        (0, '{"n": 2, "basis": "X", "support": [[1], [2], [1, 2]]}\n', ""),
    ("eval", "a | b", "--basis", "W"): (0, "1 + w{1,2}\n", ""),
    ("eval", "a | b", "--basis", "W", "--format", "json"):
        (0, '{"n": 2, "basis": "W", "support": [[], [1, 2]]}\n', ""),
    ("eval", "a | b", "--basis", "MY"): (0, "m{1} + m{2} + m{1,2}\n", ""),
    ("eval", "a | b", "--basis", "MY", "--format", "json"):
        (0, '{"n": 2, "basis": "MY", "terms": [[[1], []], [[2], []], [[1, 2], []]]}\n', ""),
    ("eval", "a | b", "--basis", "XY"): (0, "x{1} + x{2} + x{1,2}\n", ""),
    ("eval", "a | b", "--basis", "XY", "--format", "json"):
        (0, '{"n": 2, "basis": "XY", "terms": [[[1], []], [[2], []], [[1, 2], []]]}\n', ""),
    ("eval", "a | b", "--basis", "WY"): (0, "1 + w{1,2}\n", ""),
    ("eval", "a | b", "--basis", "WY", "--format", "json"):
        (0, '{"n": 2, "basis": "WY", "terms": [[[], []], [[1, 2], []]]}\n', ""),
    ("eval", "a | b", "--basis", "MS"): (0, "m{1} + m{2} + m{1,2}\n", ""),
    ("eval", "a | b", "--basis", "MS", "--format", "json"):
        (0, '{"n": 2, "basis": "MS", "terms": [[[1], []], [[2], []], [[1, 2], []]]}\n', ""),
    ("eval", "a | b", "--basis", "XS"): (0, "x{1} + x{2} + x{1,2}\n", ""),
    ("eval", "a | b", "--basis", "XS", "--format", "json"):
        (0, '{"n": 2, "basis": "XS", "terms": [[[1], []], [[2], []], [[1, 2], []]]}\n', ""),
    ("eval", "a | b", "--basis", "WS"): (0, "1 + w{1,2}\n", ""),
    ("eval", "a | b", "--basis", "WS", "--format", "json"):
        (0, '{"n": 2, "basis": "WS", "terms": [[[], []], [[1, 2], []]]}\n', ""),
    ("eval", "a ~b + 1"): (0, "1 + x{1}y{2}\n", ""),
    ("eval", "a ~b + 1", "--basis", "M"):
        (2, "", "error: operator expression cannot convert to a ring basis\n"),
    ("eval", "a ~b + 1", "--basis", "M", "--format", "json"):
        (2, "", "error: operator expression cannot convert to a ring basis\n"),
    ("eval", "a ~b + 1", "--basis", "X"):
        (2, "", "error: operator expression cannot convert to a ring basis\n"),
    ("eval", "a ~b + 1", "--basis", "X", "--format", "json"):
        (2, "", "error: operator expression cannot convert to a ring basis\n"),
    ("eval", "a ~b + 1", "--basis", "W"):
        (2, "", "error: operator expression cannot convert to a ring basis\n"),
    ("eval", "a ~b + 1", "--basis", "W", "--format", "json"):
        (2, "", "error: operator expression cannot convert to a ring basis\n"),
    ("eval", "a ~b + 1", "--basis", "MY"):
        (0, "m{} + m{1} + m{1}y{2} + m{2} + m{1,2} + m{1,2}y{2}\n", ""),
    ("eval", "a ~b + 1", "--basis", "MY", "--format", "json"):
        (0, '{"n": 2, "basis": "MY", "terms": [[[], []], [[1], []], [[1], [2]], [[2], []], [[1, 2], []], [[1, 2], [2]]]}\n', ""),
    ("eval", "a ~b + 1", "--basis", "XY"): (0, "1 + x{1}y{2}\n", ""),
    ("eval", "a ~b + 1", "--basis", "XY", "--format", "json"):
        (0, '{"n": 2, "basis": "XY", "terms": [[[], []], [[1], [2]]]}\n', ""),
    ("eval", "a ~b + 1", "--basis", "WY"): (0, "1 + y{2} + w{1}y{2}\n", ""),
    ("eval", "a ~b + 1", "--basis", "WY", "--format", "json"):
        (0, '{"n": 2, "basis": "WY", "terms": [[[], []], [[], [2]], [[1], [2]]]}\n', ""),
    ("eval", "a ~b + 1", "--basis", "MS"): (0, "m{} + m{1}s{2} + m{2} + m{1,2}s{2}\n", ""),
    ("eval", "a ~b + 1", "--basis", "MS", "--format", "json"):
        (0, '{"n": 2, "basis": "MS", "terms": [[[], []], [[1], [2]], [[2], []], [[1, 2], [2]]]}\n', ""),
    ("eval", "a ~b + 1", "--basis", "XS"): (0, "1 + x{1} + x{1}s{2}\n", ""),
    ("eval", "a ~b + 1", "--basis", "XS", "--format", "json"):
        (0, '{"n": 2, "basis": "XS", "terms": [[[], []], [[1], []], [[1], [2]]]}\n', ""),
    ("eval", "a ~b + 1", "--basis", "WS"): (0, "s{2} + w{1} + w{1}s{2}\n", ""),
    ("eval", "a ~b + 1", "--basis", "WS", "--format", "json"):
        (0, '{"n": 2, "basis": "WS", "terms": [[[], [2]], [[1], []], [[1], [2]]]}\n', ""),
    ("convert", "a | b", "--basis", "W"): (0, "1 + w{1,2}\n", ""),
    ("convert", "a ~b + 1", "--basis", "XS", "--format", "json"):
        (0, '{"n": 2, "basis": "XS", "terms": [[[], []], [[1], []], [[1], [2]]]}\n', ""),
    ("mul", "a | b", "a | b"): (0, "x{1} + x{2} + x{1,2}\n", ""),
    ("mul", "a | b", "a ~b + 1", "--basis", "MS"): (0, "m{1}s{2} + m{2} + m{1,2}s{2}\n", ""),
    ("mul", "a ~b + 1", "a | b", "--format", "json"):
        (0, '{"n": 2, "basis": "XY", "terms": [[[1], []], [[1], [2]], [[2], []], [[1, 2], []]]}\n', ""),
    ("entail", "a b", "a | b"): (0, "yes\n", ""),
    ("entail", "a b", "a | b", "--witness"): (0, "yes\n0000\n0000\n0000\n0001\n", ""),
    ("entail", "a | b", "a"): (1, "no\n", ""),
    ("entail", "a | b", "a", "--witness"): (1, "no\n", ""),
    ("entail", "(a ~b) a", "a ~b"): (0, "yes\n", ""),
    ("entail", "(a ~b) a", "a ~b", "--witness"): (0, "yes\n0000\n0000\n0000\n0101\n", ""),
    ("entail", "a", "a ~b + 1"): (0, "yes\n", ""),
    ("entail", "a", "a ~b + 1", "--witness"): (0, "yes\n0000\n0001\n0000\n0100\n", ""),
    ("entail", "~a", "a"): (1, "no\n", ""),
    ("entail", "~a", "a", "--witness"): (1, "no\n", ""),
    ("entail", "a", "a ~b"): (1, "no\n", ""),
    ("entail", "a", "a ~b", "--witness"): (1, "no\n", ""),
    ("equiv", "a | b", "b | a"): (0, "yes\n", ""),
    ("equiv", "a | b", "a"): (1, "no\n", ""),
    ("equiv", "a ~b + 1", "1 + a ~b"): (0, "yes\n", ""),
    ("equiv", "a | b", "a + b + a b + ~a ~a"): (0, "yes\n", ""),
    ("equiv", "a", "a ~b + 1"): (1, "no\n", ""),
    ("matrix", "a | b"): (0, "0000\n0100\n0010\n0001\n", ""),
    ("matrix", "a ~b + 1", "--format", "json"):
        (0, '{"side": 4, "rows": ["1000", "0001", "0010", "0100"]}\n', ""),
}


def test_the_valuation_alone_tells_propositions_from_operators(monkeypatch):
    def refuse(e):
        raise AssertionError("is_classical called")

    monkeypatch.setattr(lang, "is_classical", refuse)
    assert not hasattr(cli, "is_classical")
    for argv, want in VALUED_CALLS.items():
        assert call(list(argv)) == want, argv


@pytest.mark.parametrize("basis", RING_BASES + OP_BASES + ("QQ", ""))
def test_convert_is_eval_with_a_basis(basis):
    for expr in ("a b + a", "~a a", "x{1,2} + m{3}", "a | ~b", "a +"):
        for flags in ([], ["--format", "json"], ["-n", "3"], ["-n", "1"]):
            tail = [expr, "--basis", basis, *flags]
            assert call(["convert", *tail]) == call(["eval", *tail])


def test_dot_is_matrix_in_dot_format():
    for expr, flags in (("m{1,2}y{2,3}", ["-n", "3"]), ("a ~b", []), ("~a a + 1", ["-n", "2"]), ("a +", [])):
        assert call(["dot", expr, *flags]) == call(["matrix", expr, *flags, "--format", "dot"])


def test_huge_n_exits_2_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", "a", "-n", "50000")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "dimension must be in [1, 16]" in err


# Fuzzed text is either well formed (a random tree over a few atoms) or
# a run of grammar pieces.  Set literals come only whole (indices at most
# 4) or as a letter-led unterminated prefix, so no fuzzed text names a
# dimension in 5..16: every call stays small.
FUZZ_ATOMS = ("a", "b", "~a", "~b", "0", "1", "x{1,2}", "y{1}", "s{2}", "m{}", "w{2}")
FUZZ_PIECES = FUZZ_ATOMS + (
    "c", "ab", "~", "!", "+", ".", "&", "|", "->", "-", ">", "(", ")", " ", ",", "}",
    "x{4}", "x{0}", "x{17}", "w{50000}", "m{a}", "x{1,",
)
FUZZ_FLAGS = (
    [["-n", v] for v in ("1", "2", "3", "4", "0", "17", "-1", "50000", "x")]
    + [["--basis", b] for b in ("M", "X", "W", "MY", "XY", "WY", "MS", "XS", "WS", "QQ", "")]
    + [["--format", f] for f in ("text", "json", "dot", "xml")]
    + [["--witness"]]
)
ARITY = {"eval": 1, "mul": 2, "convert": 1, "entail": 2, "equiv": 2, "matrix": 1, "dot": 1}
fuzz_exprs = st.recursive(
    st.sampled_from(FUZZ_ATOMS),
    lambda inner: st.builds(
        "({}{}{})".format, inner, st.sampled_from((" + ", " ", ".", " & ", " | ", " -> ")), inner
    )
    | inner.map("!{}".format),
    max_leaves=6,
) | st.lists(st.sampled_from(FUZZ_PIECES), max_size=12).map("".join)


@settings(max_examples=300, deadline=None)
@given(
    command=st.sampled_from(tuple(ARITY)),
    exprs=st.lists(fuzz_exprs, min_size=1, max_size=3),
    exact_arity=st.booleans(),
    flags=st.lists(st.sampled_from(FUZZ_FLAGS), max_size=3),
    stdin=fuzz_exprs,
)
def test_cli_fuzz_exit_codes(command, exprs, exact_arity, flags, stdin):
    if exact_arity:
        exprs = (exprs * 2)[: ARITY[command]]
    argv = [command, *exprs, *(part for flag in flags for part in flag)]
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin)  # an expression "-" reads it
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # a usage error
                code = exc.code
    finally:
        sys.stdin = saved_stdin
    assert time.perf_counter() - start < 2.0, argv
    assert code in (0, 1, 2), argv
    assert code != 1 or command in ("entail", "equiv"), argv
    assert "Traceback" not in err.getvalue(), argv
