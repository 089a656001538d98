"""Command line interface: subcommands, formats, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from boolweyl import checks, cli
from boolweyl.bweyl import OP_BASES, to_matrix
from boolweyl.cli import main
from boolweyl.gf2lin import mat_mul, matrix_from_text, matrix_to_json
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
        assert out == json.dumps(matrix_to_json(m)) + "\n"


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


def call(argv):
    """Exit code, stdout and stderr of one in-process main call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the vector
            code = exc.code
    return code, out.getvalue(), err.getvalue()


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


def test_repeated_main_calls_match_a_fresh_parser(monkeypatch):
    cli._parser.cache_clear()
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    reused = [call(argv) for argv in REPEATED_CALLS * 2]
    assert len(builds) == 1
    fresh = []
    for argv in REPEATED_CALLS * 2:
        cli._parser.cache_clear()
        fresh.append(call(argv))
    assert reused == fresh
    assert [code for code, _, _ in reused[: len(REPEATED_CALLS)]] == [
        0, 2, 2, 0, 0, 2, 0, 0, 1, 2, 2, 0,
    ]


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
            except SystemExit as exc:  # argparse rejects the vector
                code = exc.code
    finally:
        sys.stdin = saved_stdin
    assert time.perf_counter() - start < 2.0, argv
    assert code in (0, 1, 2), argv
    assert code != 1 or command in ("entail", "equiv"), argv
    assert "Traceback" not in err.getvalue(), argv
