"""Command line front end.

Exit codes: 0 for success (and entailment/equivalence "yes"), 1 for an
entailment or equivalence "no", 2 for usage, parse or evaluation errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .bweyl import convert_op_basis, op_text, op_to_json, to_matrix, OP_BASES
from .gf2lin import matrix_dot_lines, matrix_json_chunks, matrix_text_lines
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


def _parse_operands(*args: str):
    """The parsed operands; stdin is read once, and every '-' is its text."""
    stdin = sys.stdin.read() if "-" in args else ""
    return [parse_text(stdin if arg == "-" else arg) for arg in args]


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


def _print_lines(lines) -> None:
    # one write per line: a 2^n x 2^n matrix is never joined into one string
    sys.stdout.writelines(line + "\n" for line in lines)


def cmd_eval(args) -> int:
    [expr] = _parse_operands(args.expr)
    ctx = infer_context([expr], args.n)
    classical = is_classical(expr)
    basis = args.basis
    if basis is None:
        basis = "X" if classical else "XY"
    if basis in RING_BASES:
        if not classical:
            raise LangError("operator expression cannot convert to a ring basis")
        _print_ring(convert_ring_basis(eval_classical(expr, ctx), basis), args.format)
    elif basis in OP_BASES:
        _print_op(convert_op_basis(eval_quantum(expr, ctx), basis), args.format)
    else:
        raise LangError(f"unknown basis {basis!r}")
    return 0


def cmd_mul(args) -> int:
    lhs, rhs = _parse_operands(args.lhs, args.rhs)
    ctx = infer_context([lhs, rhs], args.n)
    basis = args.basis if args.basis is not None else "XY"
    if basis not in OP_BASES:
        raise LangError(f"basis {basis!r} does not name an operator basis")
    f = convert_op_basis(eval_quantum(lhs, ctx), basis)
    g = convert_op_basis(eval_quantum(rhs, ctx), basis)
    _print_op(f * g, args.format)
    return 0


def cmd_entail(args) -> int:
    p, q = _parse_operands(args.p, args.q)
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
        _print_lines(matrix_text_lines(witness))
    return 0 if yes else 1


def cmd_equiv(args) -> int:
    p, q = _parse_operands(args.p, args.q)
    ctx = infer_context([p, q], args.n)
    yes = equivalent(p, q, ctx)
    print("yes" if yes else "no")
    return 0 if yes else 1


def cmd_matrix(args) -> int:
    [expr] = _parse_operands(args.expr)
    ctx = infer_context([expr], args.n)
    m = to_matrix(eval_quantum(expr, ctx))
    if args.format == "dot":
        _print_lines(matrix_dot_lines(m))
    elif args.format == "json":
        # the bytes of json.dumps(matrix_to_json(m)), one write per row
        sys.stdout.writelines(matrix_json_chunks(m))
        print()
    else:
        _print_lines(matrix_text_lines(m))
    return 0


def cmd_crosscheck(args) -> int:
    from . import checks  # imported here only: the battery module is slow to load

    n_max = args.n
    samples = args.samples
    if not 1 <= n_max <= MAX_DIM:
        raise ValueError(f"--n must be in [1, {MAX_DIM}], got {n_max}")
    if samples < 1:
        raise ValueError(f"--samples must be at least 1, got {samples}")
    tally = dict.fromkeys(("PASS", "FAIL", "SKIP"), 0)
    for n in range(1, n_max + 1):
        for result in checks.run_battery(n=n, samples=samples, seed=args.seed):
            tally[result.status] += 1
            detail = f" ({result.detail})" if result.detail else ""
            print(f"{result.status} n={n} {result.name}{detail}")
    skipped = f", {tally['SKIP']} skipped" if tally["SKIP"] else ""
    print(f"{tally['PASS']}/{sum(tally.values())} checks passed{skipped}")
    return 0 if tally["FAIL"] == 0 else 1


def build_parser() -> argparse.ArgumentParser:
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
        # coefficients in a basis have no graph form: only matrices print as DOT
        p.add_argument(
            "--basis",
            required=basis_required,
            help="output basis: M/X/W for ring elements, MY/XY/WY/MS/XS/WS for operators",
        )
        p.add_argument("--format", choices=("text", "json"), default="text", help="output format")

    coefficients(command("eval", cmd_eval, "evaluate an expression ('-' reads stdin)", "expr"))
    coefficients(command("mul", cmd_mul, "multiply two operator expressions", "lhs", "rhs"))
    # the same operation as eval, with the basis spelled out
    coefficients(
        command("convert", cmd_eval, "rewrite an expression in another basis", "expr"),
        basis_required=True,
    )

    p = command("entail", cmd_entail, "decide entailment p |- q", "p", "q")
    p.add_argument("--witness", action="store_true", help="print a witness matrix on yes")
    command("equiv", cmd_equiv, "decide equivalence of two expressions", "p", "q")
    p = command("matrix", cmd_matrix, "matrix of an operator expression", "expr")
    p.add_argument("--format", choices=("text", "json", "dot"), default="text", help="output format")
    command("dot", cmd_matrix, "graph of an operator matrix in DOT form", "expr", format="dot")

    p = sub.add_parser("crosscheck", help="run the invariant battery")
    p.add_argument("--n", type=int, default=3, help="largest dimension (default 3)")
    p.add_argument("--samples", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_crosscheck)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # built on the first call and reused: parse_args leaves the parser unchanged
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at interpreter exit
        return code
    except ValueError as exc:  # LangError included
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
