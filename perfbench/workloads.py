"""Seeded operation lists for the four workloads.

An operation is an argument list for `boolweyl` plus the text it reads
from stdin.  A run is a whole number of rounds; each round covers a
fixed grid of shapes (dimension, expression size, subcommand), and the
seed only fills in the shapes, so every seed asks for the same mix of
work.  Nothing here imports boolweyl.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

NAMES = "abcdefghijklnopq"  # no "m": keep variables apart from m{...} literals

# Nominal seconds of one round on a 2-core x86 host with Python 3.11;
# they size the lists from --seconds and never from a measurement.
ROUND_SECONDS = {"cli": 6.8, "classical": 3.4, "quantum": 2.0, "battery": 18.4}


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    stdin: str = ""
    n: int = 0
    known_fault: bool = False  # kept although it fails today: see README


def rounds_for(workload: str, seconds: int) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


# --- classical: propositions over n = 8..13 -------------------------------------


def _conj(rng, names):
    """Three distinct variables, exactly one negated: a steady cost per disjunct."""
    a, b, c = rng.sample(names, 3)
    return f"!{a} & {b} & {c}"


def dnf(rng, names, disjuncts):
    return " | ".join(_conj(rng, names) for _ in range(disjuncts))


def _clause(rng, names):
    a, b, c = rng.sample(names, 3)
    return f"({a} | !{b} | {c})" if rng.random() < 0.5 else f"(!{a} | {b} | !{c})"


def cnf(rng, names, clauses):
    return " & ".join(_clause(rng, names) for _ in range(clauses))


def implication(rng, names, depth):
    if depth == 0:
        v = rng.choice(names)
        return "!" + v if rng.random() < 0.5 else v
    left = implication(rng, names, depth - 1)
    right = implication(rng, names, depth - 1)
    op = "->" if depth % 2 else "&"
    text = f"({left}) {op} ({right})"
    return f"!({text})" if rng.random() < 0.3 else text


def _literal_text(letter, indices):
    return letter + "{" + ",".join(map(str, sorted(indices))) + "}"


def dense_literals(rng, n, count):
    """A sum of m{...} with small sets and w{...} with large ones, whose X
    supports are dense, joined by | or & to one literal of X support <= 8."""
    parts = []
    for _ in range(count):
        if rng.random() < 0.5:
            parts.append(_literal_text("m", rng.sample(range(1, n + 1), rng.randint(0, 2))))
        else:
            parts.append(_literal_text("w", rng.sample(range(1, n + 1), rng.randint(n - 4, n))))
    sparse = rng.choice(
        (
            _literal_text("x", rng.sample(range(1, n + 1), rng.randint(1, n))),
            _literal_text("w", rng.sample(range(1, n + 1), rng.randint(1, 3))),
            _literal_text("m", rng.sample(range(1, n + 1), rng.randint(n - 3, n))),
        )
    )
    return f"({' + '.join(parts)}) {rng.choice('|&')} {sparse}"


def classical_round(rng):
    ops = []
    bases = ("X", "M", "W")
    for n in range(8, 14):
        names = list(NAMES[:n])
        dim = ("-n", str(n))
        props = [dnf(rng, names, k) for k in range(2, 12)]
        props += [cnf(rng, names, 2 * n) for _ in range(2)]
        props += [implication(rng, names, 3) for _ in range(2)]
        props += [dense_literals(rng, n, 3) for _ in range(2)]
        for i, prop in enumerate(props):
            small = dnf(rng, names, 2)
            if (i + n) % 2 == 0:
                ops.append(Op(("eval", prop, "--basis", bases[(i + n) // 2 % 3]) + dim, n=n))
            elif (i + n) % 4 == 1:  # yes by construction
                ops.append(Op(("entail", f"({prop}) & ({small})", prop) + dim, n=n))
            else:
                ops.append(Op(("entail", small, prop) + dim, n=n))
    return ops


# --- quantum: operator expressions over n = 7..11 -------------------------------


def _product(rng, names, n, j):
    """The j-th product of a sum.  Its shape, and so its number of XY terms,
    is fixed by j; the variables and indices are drawn."""
    u, v = rng.sample(names, 2)
    i, k = rng.sample(range(1, n + 1), 2)
    shape = j % 5
    if shape == 0:
        return f"{u} ~{v}"
    if shape == 1:
        return f"~{u} {v}"
    if shape == 2:
        return f"{u} {_literal_text('y', [i, k])}"
    if shape == 3:
        return f"~{u} {_literal_text('s', [i])}"
    return f"{_literal_text('m', [x for x in range(1, n + 1) if x != i])} ~{u}"


def operator_sum(rng, names, n, count):
    return " + ".join(_product(rng, names, n, j) for j in range(count))


def quantum_round(rng):
    ops = []
    for n in range(7, 12):
        names = list(NAMES[:n])
        dim = ("-n", str(n))
        for count in range(2, 13):
            q_terms = [_product(rng, names, n, j) for j in range(count)]
            q = " + ".join(q_terms)
            kind = (count + n) % 3
            if kind == 1:  # equivalence with a reordered copy, or with one term redrawn
                other = q_terms[:]
                rng.shuffle(other)
                if count % 2:
                    other[0] = _product(rng, names, n, 0)
                ops.append(Op(("equiv", q, " + ".join(other)) + dim, n=n))
                continue
            if (count + kind) % 2 == 0:  # yes: a product entails its left factor
                p = f"({q}) ({operator_sum(rng, names, n, 2)})"
            else:  # a trailing derivative makes q-hat singular: mostly no
                p = operator_sum(rng, names, n, count)
                q = f"({q}) ~{rng.choice(names)}"
            witness = ("--witness",) if n <= 8 and count % 2 == 0 else ()
            ops.append(Op(("entail", p, q) + dim + witness, n=n))
    return ops


# --- cli: short calls at n <= 4 ---------------------------------------------------

DEEP_PARENS = "(" * 3000 + "a" + ")" * 3000
DEEP_BANGS = "!" * 5000 + "a"


def _cli_calls(rng, n):
    names = list(NAMES[:n])
    prop = dnf(rng, names, rng.randint(2, 3))
    prop2 = cnf(rng, names, rng.randint(1, 3))
    op1 = operator_sum(rng, names, n, rng.randint(2, 5))
    op2 = operator_sum(rng, names, n, rng.randint(1, 3))
    dim = ("-n", str(n))
    calls = [
        (("eval", prop) + dim, ""),
        (("eval", prop, "--basis", "M", "--format", "json") + dim, ""),
        (("eval", prop2, "--basis", "W") + dim, ""),
        (("eval", op1) + dim, ""),
        (("eval", op1, "--basis", "MS", "--format", "json") + dim, ""),
        (("eval", "-", "--basis", "WY") + dim, op1 + "\n"),
        (("mul", op1, op2, "--basis", "WS") + dim, ""),
        (("mul", op2, "-", "--format", "json") + dim, op1),
        (("convert", op1, "--basis", "XS") + dim, ""),
        (("convert", prop, "--basis", "M", "--format", "json") + dim, ""),
        (("entail", f"({prop}) & ({prop2})", prop) + dim, ""),
        (("entail", prop, prop2) + dim, ""),
        (("entail", f"({op2}) ({op1})", op2, "--witness") + dim, ""),
        (("entail", op1, op2) + dim, ""),
        (("equiv", op1, op1 + " + 0") + dim, ""),
        (("equiv", "-", op2) + dim, op1),
        (("matrix", op1) + dim, ""),
        (("matrix", op2, "--format", "json") + dim, ""),
        (("matrix", prop2, "--format", "dot") + dim, ""),
        (("dot", op2) + dim, ""),
        # malformed input: the correct answer is exit 2 with a message
        (("eval", prop + " $"), ""),
        (("entail", f"({op1}", op2), ""),
        (("eval", op1, "--basis", "X") + dim, ""),
        (("mul", op1, f"x{{{n + 1}}}", "-n", str(n)), ""),
    ]
    return [Op(argv, stdin, n) for argv, stdin in calls]


def cli_round(rng):
    """The calls at n = 3 and at n = 4, and the two deep-nesting calls."""
    deep = [Op(("eval", DEEP_PARENS), n=1, known_fault=True), Op(("eval", DEEP_BANGS), n=1, known_fault=True)]
    return _cli_calls(rng, 3) + _cli_calls(rng, 4) + deep


# --- battery: the crosscheck subcommand at n <= 5 -------------------------------


# One call's cost varies by about 15% with its battery seed, and a run holds
# only eight calls: with seeds drawn per run the median call moved by 17%
# between runs.  So the battery seeds are fixed and the run's seed orders them.
BATTERY_SEEDS = range(8)


def battery_round(rng):
    return [Op(("crosscheck", "--n", "5", "--seed", str(s)), n=5) for s in BATTERY_SEEDS]


ROUNDS = {
    "cli": cli_round,
    "classical": classical_round,
    "quantum": quantum_round,
    "battery": battery_round,
}


def operations(workload: str, seed: int, seconds: int) -> list[Op]:
    """The whole list of a run; the same seed and length give the same list."""
    rng = random.Random(f"{workload}:{seed}")
    make = ROUNDS[workload]
    ops = []
    for _ in range(rounds_for(workload, seconds)):
        batch = make(rng)
        rng.shuffle(batch)
        ops += batch
    return ops


def warmup(workload: str) -> list[Op]:
    """A short fixed list run before timing, so lazy set-up is paid there."""
    if workload == "battery":
        return [Op(("crosscheck", "--n", "2"), n=2)]
    ops = ROUNDS[workload](random.Random(f"warmup:{workload}"))
    return ops[:1] if workload == "cli" else sorted(ops, key=lambda op: op.n)[:6]
