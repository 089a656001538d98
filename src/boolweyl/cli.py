"""Command line front end.

Exit codes: 0 for success (and entailment/equivalence "yes"), 1 for an
entailment or equivalence "no", 2 for usage, parse or evaluation errors.

The command line is read against one table, `COMMANDS` (each command's
handler, summary, operands and options), by `read_argv`, with no parser
library: it accepts the forms that the standard library's argument
parser accepted, with the same meaning, and writes its usage errors.
`main` answers one call in process; `entry` runs it as a whole process.
"""

from __future__ import annotations

import os
import re
import sys
from types import SimpleNamespace
from typing import NoReturn

from .lang import (
    LangError,
    Prod,
    as_operator,
    entailment_witness,
    entails_quantum,
    equivalent,
    eval_quantum,
    infer_context,
    parse_text,
    valuation,
)
from .ring import MAX_DIM, RING_BASES, RingElem, convert_ring_basis, ring_to_json


def _parse_operands(*args: str):
    """The parsed operands; stdin is read once, and every '-' is its text.
    A stdin that refuses reading (open for writing only) reads as os.devnull."""
    stdin = ""
    if "-" in args:
        try:
            stdin = sys.stdin.read()
        except OSError:
            pass
    return [parse_text(stdin if arg == "-" else arg) for arg in args]


def _print_value(value, fmt: str, to_json) -> None:
    """A ring element or an operator, as its text (its str) or as JSON (to_json's document)."""
    if fmt == "json":
        import json  # loaded only here: most calls write no JSON

        print(json.dumps(to_json(value)))
    else:
        print(value)


def _print_lines(lines) -> None:
    # one write per line: a 2^n x 2^n matrix is never joined into one string
    sys.stdout.writelines(line + "\n" for line in lines)


def cmd_eval(args) -> int:
    [expr] = _parse_operands(args.expr)
    value = valuation(expr, infer_context([expr], args.n))
    proposition = isinstance(value, RingElem)
    basis = args.basis
    if basis is None:
        basis = "X" if proposition else "XY"
    if basis in RING_BASES:
        if not proposition:
            raise LangError("operator expression cannot convert to a ring basis")
        _print_value(convert_ring_basis(value, basis), args.format, ring_to_json)
        return 0
    from . import bweyl  # only an operator path loads bweyl

    if basis not in bweyl.OP_BASES:
        raise LangError(f"unknown basis {basis!r}")
    _print_value(bweyl.convert_op_basis(as_operator(value), basis), args.format, bweyl.op_to_json)
    return 0


def cmd_mul(args) -> int:
    lhs, rhs = _parse_operands(args.lhs, args.rhs)
    ctx = infer_context([lhs, rhs], args.n)
    from . import bweyl

    basis = args.basis if args.basis is not None else "XY"
    if basis not in bweyl.OP_BASES:
        raise LangError(f"basis {basis!r} does not name an operator basis")
    product = bweyl.convert_op_basis(eval_quantum(Prod((lhs, rhs)), ctx), basis)
    _print_value(product, args.format, bweyl.op_to_json)
    return 0


def cmd_entail(args) -> int:
    p, q = _parse_operands(args.p, args.q)
    ctx = infer_context([p, q], args.n)
    witness = entailment_witness(p, q, ctx) if args.witness else None
    yes = witness is not None if args.witness else entails_quantum(p, q, ctx)
    print("yes" if yes else "no")
    if witness is not None:
        from . import gf2lin

        _print_lines(gf2lin.matrix_text_lines(witness))
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
    from . import bweyl, gf2lin

    m = bweyl.to_matrix(eval_quantum(expr, ctx))
    if args.format == "dot":
        _print_lines(gf2lin.matrix_dot_lines(m))
    elif args.format == "json":
        sys.stdout.writelines(gf2lin.matrix_json_chunks(m))
        print()
    else:
        _print_lines(gf2lin.matrix_text_lines(m))
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


# An option is (spelling, metavar, default, kind, help): kind is int, str, bool
# for a flag, or the tuple of its choices; a default of ... makes it required.
HELP = ("-h/--help", "", False, bool, "show this help and exit")
N = ("-n", "N", None, int, "dimension (default: inferred)")
BASIS = ("--basis", "BASIS", None, str, "output basis: M/X/W (ring elements), MY/XY/WY/MS/XS/WS (operators)")
TO_BASIS = ("--basis", "BASIS", ..., str, BASIS[4])
# coefficients in a basis have no graph form: only matrices print as DOT
FORMAT = ("--format", "{text,json}", "text", ("text", "json"), "output format")
GRAPH = ("--format", "{text,json,dot}", "text", ("text", "json", "dot"), "output format")
WITNESS = ("--witness", "", False, bool, "print a witness matrix on yes")
BATTERY = (
    ("--n", "N", 3, int, "largest dimension (default 3)"),
    ("--samples", "SAMPLES", 25, int, "samples per check (default 25)"),
    ("--seed", "SEED", 0, int, "seed of the samples (default 0)"),
)
# name: (handler, summary, operands, options, fixed fields of the namespace)
COMMANDS = {
    "eval": (cmd_eval, "evaluate an expression ('-' reads stdin)", ("expr",), (N, BASIS, FORMAT), {}),
    "mul": (cmd_mul, "multiply two operator expressions", ("lhs", "rhs"), (N, BASIS, FORMAT), {}),
    # the same operation as eval, with the basis spelled out
    "convert": (cmd_eval, "rewrite an expression in another basis", ("expr",), (N, TO_BASIS, FORMAT), {}),
    "entail": (cmd_entail, "decide entailment p |- q", ("p", "q"), (N, WITNESS), {}),
    "equiv": (cmd_equiv, "decide equivalence of two expressions", ("p", "q"), (N,), {}),
    "matrix": (cmd_matrix, "matrix of an operator expression", ("expr",), (N, GRAPH), {}),
    "dot": (cmd_matrix, "graph of an operator matrix in DOT form", ("expr",), (N,), {"format": "dot"}),
    "crosscheck": (cmd_crosscheck, "run the invariant battery", (), BATTERY, {}),
}
COMMAND = ("command", "", None, tuple(COMMANDS), "")  # the first operand, read as a choice
SUMMARY = "Exact algebra of Boolean functions and their differential operators over GF(2)."
TOP = {"-h": HELP, "--help": HELP}  # the only options before the command
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")  # a word that is an operand, not an option


def _write_error(text: str) -> None:
    """Write a usage or error message.  The call exits 2 whether or not it
    arrives: a stderr that refuses it (a pipe closed early) is left as it is."""
    try:
        sys.stderr.write(text)
        sys.stderr.flush()
    except OSError:
        pass


def _exit(name, message=None):
    """A usage error exits 2; with no message, the help is printed and exits 0."""
    _, summary, operands, options, _ = COMMANDS[name] if name else (None, SUMMARY, (), (), None)
    prog = f"boolweyl {name}" if name else "boolweyl"
    parts = [f"{o[0]} {o[1]}".rstrip() for o in options]
    parts = [part if o[2] is ... else f"[{part}]" for part, o in zip(parts, options)] + list(operands)
    usage = " ".join(("usage:", prog, "[-h]", *(parts if name else ["{%s} ..." % ",".join(COMMANDS)])))
    if message is not None:
        _write_error(f"{usage}\n{prog}: error: {message}\n")
        raise SystemExit(2)
    rows = [(c, COMMANDS[c][1]) for c in COMMANDS] if name is None else [(o, "") for o in operands]
    rows += [(f"{o[0]} {o[1]}".replace("/", ", ").rstrip(), o[4]) for o in (*options, HELP)]
    # one column for every help, past the widest option (--format {text,json,dot}); no terminal is asked
    print(usage, "", summary, "", *(f"  {left:<26}{text}".rstrip() for left, text in rows), sep="\n")
    raise SystemExit(0)


def _classify(name, table, word):
    """None for an operand, else (its option or None if unknown, the value written into the word)."""
    if word in table:
        return table[word], None
    if len(word) < 2 or word[0] != "-" or word == "--":
        return None
    if word[1] == "-":  # --name, --name=value, or a prefix of a long option
        spelling, eq, value = word.partition("=")
        hits = [spelling] if spelling in table else [s for s in table if s.startswith(spelling)]
        value = value if eq else None
    else:  # -n5 or -n=5
        hits, value = [word[:2]] if word[:2] in table else [], word[2:].removeprefix("=")
    if len(hits) > 1:
        _exit(name, f"ambiguous option: {word} could match {', '.join(hits)}")
    if hits:
        return table[hits[0]], value
    return None if _NEGATIVE_NUMBER.match(word) or " " in word else (None, None)


def _value(name, option, value):
    """The value of an option from its text: a bare flag is True; -h/--help prints the help."""
    spelling, _, _, kind, _ = option
    if kind is bool and value is not None:
        _exit(name, f"argument {spelling}: ignored explicit argument {value!r}")
    if option is HELP:
        _exit(name)
    if kind is int:
        try:
            return int(value)
        except ValueError:
            _exit(name, f"argument {spelling}: invalid int value: {value!r}")
    if isinstance(kind, tuple) and value not in kind:
        choices = ", ".join(map(repr, kind))
        _exit(name, f"argument {spelling}: invalid choice: {value!r} (choose from {choices})")
    return True if kind is bool else value


def read_argv(argv):
    """The namespace that the command's handler reads; a usage error exits 2, and help 0."""
    at = 0  # up to the command, -h/--help is the only option
    while at < len(argv) and (kind := _classify(None, TOP, argv[at])) is not None:
        if kind[0] is HELP:
            _value(None, *kind)  # prints the help, or refuses a value written into it
        at += 1
    if at == len(argv):
        _exit(None, "the following arguments are required: command")
    surplus, name = list(argv[:at]), _value(None, COMMAND, argv[at])
    handler, _, operands, options, fixed = COMMANDS[name]
    table = {**TOP, **{option[0]: option for option in options}}
    words = argv[at + 1 :]
    end = words.index("--") if "--" in words else len(words)
    # Every word is classified before any is read, so an ambiguous prefix is reported first.
    # The first "--" and the end of the words are classed "--": neither is an option's value.
    kinds = [_classify(name, table, word) for word in words[:end]] + ["--"] + [None] * len(words)
    fields, given, at = {option[0].lstrip("-"): option[2] for option in options}, [], 0
    while at < len(words):
        word, kind, at = words[at], kinds[at], at + 1
        if kind is None or kind != "--" and kind[0] is None:
            (given if kind is None and len(given) < len(operands) else surplus).append(word)
        elif kind != "--":
            option, value = kind
            if value is None and option[3] is not bool:  # the value is the next word
                if kinds[at] is not None:
                    _exit(name, f"argument {option[0]}: expected one argument")
                value, at = words[at], at + 1
            fields[option[0].lstrip("-")] = _value(name, option, value)
    missing = [*operands[len(given) :], *(o[0] for o in options if fields[o[0].lstrip("-")] is ...)]
    if missing:
        _exit(name, f"the following arguments are required: {', '.join(missing)}")
    if surplus:
        _exit(None, f"unrecognized arguments: {' '.join(surplus)}")
    return SimpleNamespace(command=name, func=handler, **fields, **dict(zip(operands, given)), **fixed)


def main(argv: list[str] | None = None) -> int:
    try:
        # help is printed inside the guard too: its reader may have gone
        args = read_argv(sys.argv[1:] if argv is None else argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at interpreter exit
        return code
    except ValueError as exc:  # LangError included
        _write_error(f"error: {exc}\n")
        return 2
    except BrokenPipeError:
        # the reader closed the pipe (e.g. `| head`): drop the rest of the output
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


def entry() -> NoReturn:
    """Run `main` as the whole process: `python -m boolweyl.cli` and the `boolweyl` script.

    A closed standard stream reads and writes as os.devnull.  Both output
    streams are flushed, and one that refuses its output exits 2.  Then
    `os._exit` ends the process with no interpreter teardown, which would
    only free what the exiting process gives back anyway.  An exception
    that escapes `main` takes the normal path: its traceback, and exit 1.
    """
    for name, mode in (("stdin", "r"), ("stdout", "w"), ("stderr", "w")):
        if getattr(sys, name) is None:  # its descriptor was closed
            setattr(sys, name, open(os.devnull, mode))
    try:
        # a wrapper script can leave a read-only file on a closed descriptor 2,
        # and such a descriptor refuses even an empty write
        os.write(sys.stderr.fileno(), b"")
    except OSError:
        sys.stderr = open(os.devnull, "w")
    try:
        code = main()
    except SystemExit as exc:  # help, or a usage error
        code = exc.code
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:  # e.g. the reader closed the pipe
        code = 2
    os._exit(code)


if __name__ == "__main__":
    entry()
