"""The benchmark's oracle against hand-worked cases.

    python3 -m pytest perfbench/test_oracle.py      (or run this file directly)
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402


def answer(*argv, stdin=""):
    return oracle.expected(list(argv), stdin)


def test_eval_a_b_plus_a():
    code, check = answer("eval", "a b + a")
    assert code == 0
    assert check("x{1} + x{1,2}\n")
    assert not check("x{1}\n")
    tree = oracle.parse("a b + a")
    names, n = oracle.context([tree])
    table = oracle.truth_table(tree, names, n)
    assert table == 0b0010  # true only at a=1, b=0
    assert oracle.ring_text(oracle.ring_coefficients(table, "M", n), "M") == "m{1}"
    assert oracle.ring_text(oracle.ring_coefficients(table, "W", n), "W") == "w{2} + w{1,2}"


def test_entailment_answers():
    assert answer("entail", "~a a", "1")[0] == 0
    assert answer("entail", "1", "0")[0] == 1
    assert answer("entail", "a b", "a")[0] == 0
    assert answer("entail", "a", "a b")[0] == 1
    assert answer("equiv", "a b", "b a")[0] == 0


def test_witness_is_checked_by_its_product():
    code, check = answer("entail", "~a a", "1", "--witness")
    assert code == 0
    # q-hat is the identity, so the only witness is p-hat itself: d x f
    # reads f at the point 1 in both rows, so both rows are 01
    assert check("yes\n01\n01\n")
    assert not check("yes\n11\n11\n")
    assert not check("no\n")


def test_matrix_of_derivative():
    rows = oracle.matrix(oracle.parse("~a"), {"a": 1}, 1)
    assert oracle.matrix_text(rows) == "11\n11"
    code, check = answer("matrix", "~a", "-n", "1")
    assert code == 0 and check("11\n11\n")
    code, check = answer("dot", "~a", "-n", "1")
    dot = 'digraph gf2matrix {\n  n0 [label="{}"];\n  n1 [label="{1}"];\n'
    assert check(dot + "  n0 -> n0;\n  n1 -> n0;\n  n0 -> n1;\n  n1 -> n1;\n}\n")
    assert not check(dot + "  n0 -> n0;\n}\n")


def test_generator_identities():
    for n in range(1, 5):
        one = oracle.identity(n)
        for i in range(1, n + 1):
            names = {"a": i}
            d = oracle.parse("~a")
            dd = oracle.apply(d, oracle.apply(d, one, names, n), names, n)
            assert dd == [0] * (1 << n)
            s = oracle.parse("s{%d}" % i)
            assert oracle.apply(s, oracle.apply(s, one, {}, n), {}, n) == one
            lhs = oracle.matrix(oracle.parse("~a a"), names, n)
            assert lhs == oracle.matrix(oracle.parse("a ~a + ~a + 1"), names, n)


def test_printed_operators_are_read_back():
    # documented examples of the package README
    code, check = answer("eval", "~a a", "--basis", "MS")
    assert code == 0 and check("m{}s{1} + m{1}\n")
    assert not check("m{1} + m{}s{1}\n")  # not in canonical order
    code, check = answer("convert", "~a", "--basis", "XS")
    assert check("1 + s{1}\n") and not check("s{1}\n")
    code, check = answer("mul", "x{1,2}y{1,2}", "x{1}y{1}")
    assert check("x{1,2}y{1,2}\n")
    code, check = answer("eval", "-", "--basis", "M", stdin="a + a b\n")
    assert check("m{1}\n")


def test_malformed_calls_expect_exit_2():
    for argv in (("eval", "a $ b"), ("eval", "(a + b"), ("eval", "~a", "--basis", "X"),
                 ("mul", "x{1}", "x{3}", "-n", "1"), ("eval", "")):
        assert answer(*argv)[0] == 2, argv
    assert oracle.check_call(["eval", "a +"], "", 2, "", "error: unexpected token\n")
    assert not oracle.check_call(["eval", "a +"], "", 1, "", "Traceback ...\n")
    # DOT is a form of a matrix, not of a ring element or an operator
    assert answer("matrix", "a", "--format", "dot")[0] == 0
    for argv in (("eval", "a b", "--format", "dot"), ("mul", "a", "b", "--format", "dot")):
        assert answer(*argv)[0] == 2, argv
    assert not oracle.check_call(["eval", "a b", "--format", "dot"], "", 0, "x{1,2}\n", "")


def test_deep_nesting_and_battery_checks():
    assert oracle.check_deep_nesting(0, "x{1}\n", "")
    assert oracle.check_deep_nesting(2, "", "error: nesting too deep\n")
    assert not oracle.check_deep_nesting(1, "", "RecursionError\n")
    # today's fault, in a child and in-process; anything else is a wrong answer
    trace = "Traceback (most recent call last):\n  ...\nRecursionError: maximum recursion depth exceeded\n"
    assert oracle.deep_nesting_fault(1, "", trace)
    assert not oracle.deep_nesting_fault(0, "x{2}\n", "")
    assert not oracle.deep_nesting_fault(1, "", "Traceback (most recent call last):\nValueError: x\n")
    out = "".join(f"PASS n=1 check-{k}\n" for k in range(20)) + "20/20 checks passed\n"
    assert oracle.check_battery(["crosscheck", "--n", "1"], 0, out)
    assert not oracle.check_battery(["crosscheck", "--n", "1"], 0, out.replace("PASS", "FAIL", 1))


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            fn()
    print("ok")
