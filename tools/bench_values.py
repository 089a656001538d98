"""Micro-bench of value construction and tree equality against another checkout.

    python3 tools/bench_values.py OTHER_SRC

Loads this checkout's `src/boolweyl` and the `boolweyl` package under
OTHER_SRC (for example the `src` of a copy of the parent commit) into one
process, under two names, and times the same operations on both in
ROUNDS alternating rounds, so that load on the host hits both sides alike.
Each round takes the best of three repeats of NUMBER calls; the table gives
each side's median over the rounds, the ratio of medians, and the rounds
the change won.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import statistics
import sys
import timeit

HERE = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

ROUNDS = 30
NUMBER = 2000

EXPR = "a b + ~c (a | b) + x{1,2}y{3} + !(a -> c) d + m{2}s{1,4} ~d + (a + b)(c + d) e"


def load(src: str, alias: str):
    """The boolweyl package under `src`, imported as `alias`."""
    root = os.path.join(os.path.abspath(src), "boolweyl")
    spec = importlib.util.spec_from_file_location(alias, os.path.join(root, "__init__.py"), submodule_search_locations=[root])
    package = importlib.util.module_from_spec(spec)
    sys.modules[alias] = package
    spec.loader.exec_module(package)
    return {name: importlib.import_module(f"{alias}.{name}") for name in ("ring", "bweyl", "lang")}


def operations(m):
    ring, bweyl, lang = m["ring"], m["bweyl"], m["lang"]
    terms = [(a, a ^ 5) for a in range(8)]
    left, right = lang.parse_text(EXPR), lang.parse_text(EXPR)
    assert left == right and left is not right
    return {
        "OpCoeffs(4, 'XY', list of 8 terms)": lambda: bweyl.OpCoeffs(4, "XY", terms),
        "RingElem(4, 'X', bits)": lambda: ring.RingElem(4, "X", 0xBEEF),
        "Var('a')": lambda: lang.Var("a"),
        "tree == tree (distinct parses)": lambda: left == right,
        "hash(tree)": lambda: hash(left),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_src", help="the src directory of the checkout to compare against")
    args = parser.parse_args()
    sides = {"other": operations(load(args.other_src, "boolweyl_other")), "this": operations(load(HERE, "boolweyl_this"))}
    times = {side: {op: [] for op in ops} for side, ops in sides.items()}
    for r in range(ROUNDS):
        order = ("other", "this") if r % 2 == 0 else ("this", "other")
        for op in sides["this"]:
            for side in order:
                best = min(timeit.repeat(sides[side][op], number=NUMBER, repeat=3))
                times[side][op].append(best / NUMBER * 1e9)
    print(f"{'operation':38} {'other ns':>9} {'this ns':>9} {'ratio':>6} {'wins':>7}")
    for op in sides["this"]:
        a, b = times["other"][op], times["this"][op]
        wins = sum(y < x for x, y in zip(a, b))
        ma, mb = statistics.median(a), statistics.median(b)
        print(f"{op:38} {ma:9.0f} {mb:9.0f} {mb / ma:6.2f} {wins:3}/{len(a)}")


if __name__ == "__main__":
    main()
