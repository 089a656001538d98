"""Command line front end.

Exit codes: 0 for success (and entailment/equivalence "yes"), 1 for an
entailment or equivalence "no", 2 for usage, parse or evaluation errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bweyl import convert_op_basis, op_text, op_to_json, to_matrix, OP_BASES
from .gf2lin import matrix_to_dot, matrix_to_json, matrix_to_text
from .lang import (
    LangError,
    entailment_witness,
    entails_classical,
    equivalent,
    eval_classical,
    eval_quantum,
    infer_context,
    is_classical,
    parse_text,
)
from .ring import MAX_DIM, RING_BASES, convert_ring_basis, ring_text, ring_to_json


def _read_expr(arg: str) -> str:
    return sys.stdin.read() if arg == "-" else arg


def _print_ring(f, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(ring_to_json(f)))
    else:
        print(ring_text(f))


def _print_op(op, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(op_to_json(op)))
    else:
        print(op_text(op))


def cmd_eval(args) -> int:
    expr = parse_text(_read_expr(args.expr))
    ctx = infer_context([expr], args.n)
    if is_classical(expr) and args.basis in (None,) + RING_BASES:
        f = eval_classical(expr, ctx)
        _print_ring(convert_ring_basis(f, args.basis or "X"), args.format)
        return 0
    basis = args.basis or "XY"
    if basis not in OP_BASES:
        raise LangError(f"basis {basis!r} does not name an operator basis")
    op = convert_op_basis(eval_quantum(expr, ctx), basis)
    _print_op(op, args.format)
    return 0


def cmd_mul(args) -> int:
    lhs = parse_text(_read_expr(args.lhs))
    rhs = parse_text(_read_expr(args.rhs))
    ctx = infer_context([lhs, rhs], args.n)
    basis = args.basis or "XY"
    if basis not in OP_BASES:
        raise LangError(f"basis {basis!r} does not name an operator basis")
    f = convert_op_basis(eval_quantum(lhs, ctx), basis)
    g = convert_op_basis(eval_quantum(rhs, ctx), basis)
    _print_op(f * g, args.format)
    return 0


def cmd_convert(args) -> int:
    expr = parse_text(_read_expr(args.expr))
    ctx = infer_context([expr], args.n)
    target = args.basis
    if target in RING_BASES:
        if not is_classical(expr):
            raise LangError("operator expression cannot convert to a ring basis")
        _print_ring(convert_ring_basis(eval_classical(expr, ctx), target), args.format)
        return 0
    if target in OP_BASES:
        _print_op(convert_op_basis(eval_quantum(expr, ctx), target), args.format)
        return 0
    raise LangError(f"unknown basis {target!r}")


def cmd_entail(args) -> int:
    p = parse_text(_read_expr(args.p))
    q = parse_text(_read_expr(args.q))
    ctx = infer_context([p, q], args.n)
    # one elimination at most: the quantum answer is the witness search
    if is_classical(p) and is_classical(q):
        yes = entails_classical(p, q, ctx)
        witness = entailment_witness(p, q, ctx) if yes and args.witness else None
    else:
        witness = entailment_witness(p, q, ctx)
        yes = witness is not None
    print("yes" if yes else "no")
    if yes and args.witness:
        print(matrix_to_text(witness))
    return 0 if yes else 1


def cmd_equiv(args) -> int:
    p = parse_text(_read_expr(args.p))
    q = parse_text(_read_expr(args.q))
    ctx = infer_context([p, q], args.n)
    yes = equivalent(p, q, ctx)
    print("yes" if yes else "no")
    return 0 if yes else 1


def cmd_matrix(args, fmt: str | None = None) -> int:
    expr = parse_text(_read_expr(args.expr))
    ctx = infer_context([expr], args.n)
    m = to_matrix(eval_quantum(expr, ctx))
    fmt = fmt or args.format
    if fmt == "dot":
        print(matrix_to_dot(m))
    elif fmt == "json":
        print(json.dumps(matrix_to_json(m)))
    else:
        print(matrix_to_text(m))
    return 0


def cmd_dot(args) -> int:
    return cmd_matrix(args, fmt="dot")


def cmd_crosscheck(args) -> int:
    from . import checks  # imported here only: the battery module is slow to load

    n_max = args.n
    samples = args.samples
    if not 1 <= n_max <= MAX_DIM:
        raise ValueError(f"--n must be in [1, {MAX_DIM}], got {n_max}")
    if samples < 1:
        raise ValueError(f"--samples must be at least 1, got {samples}")
    failures = 0
    total = 0
    for n in range(1, n_max + 1):
        for result in checks.run_battery(n=n, samples=samples, seed=args.seed):
            total += 1
            status = "PASS" if result.ok else "FAIL"
            detail = f" ({result.detail})" if result.detail else ""
            print(f"{status} n={n} {result.name}{detail}")
            if not result.ok:
                failures += 1
    print(f"{total - failures}/{total} checks passed")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boolweyl",
        description="Exact algebra of Boolean functions and their differential operators over GF(2).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_basis=True):
        p.add_argument("-n", type=int, default=None, help="dimension (default: inferred)")
        if with_basis:
            p.add_argument(
                "--basis",
                default=None,
                help="output basis: M/X/W for ring elements, MY/XY/WY/MS/XS/WS for operators",
            )
        # coefficients in a basis have no graph form: only matrices print as DOT
        formats = ("text", "json") if with_basis else ("text", "json", "dot")
        p.add_argument("--format", choices=formats, default="text", help="output format")

    p = sub.add_parser("eval", help="evaluate an expression ('-' reads stdin)")
    p.add_argument("expr")
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("mul", help="multiply two operator expressions")
    p.add_argument("lhs")
    p.add_argument("rhs")
    common(p)
    p.set_defaults(func=cmd_mul)

    p = sub.add_parser("convert", help="rewrite an expression in another basis")
    p.add_argument("expr")
    p.add_argument("--basis", required=True, help="target basis")
    p.add_argument("-n", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("entail", help="decide entailment p |- q")
    p.add_argument("p")
    p.add_argument("q")
    common(p, with_basis=False)
    p.add_argument("--witness", action="store_true", help="print a witness matrix on yes")
    p.set_defaults(func=cmd_entail)

    p = sub.add_parser("equiv", help="decide equivalence of two expressions")
    p.add_argument("p")
    p.add_argument("q")
    common(p, with_basis=False)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("matrix", help="matrix of an operator expression")
    p.add_argument("expr")
    common(p, with_basis=False)
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("dot", help="graph of an operator matrix in DOT form")
    p.add_argument("expr")
    common(p, with_basis=False)
    p.set_defaults(func=cmd_dot)

    p = sub.add_parser("crosscheck", help="run the invariant battery")
    p.add_argument("--n", type=int, default=3, help="largest dimension (default 3)")
    p.add_argument("--samples", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_crosscheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at interpreter exit
        return code
    except (LangError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: expression nested too deeply", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed the pipe (e.g. `| head`): drop the rest of the output
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
