"""Independent oracle for the boolweyl command line.

Written apart from boolweyl and importing nothing from it: only the
README's definitions are shared.  Given an argument list and what a
`boolweyl` call printed, `check_call` says whether the output is right.

    propositions   truth tables as packed 2^n-bit masks (bit p is the
                   value at the point p); !, &, |, -> are truth functions
    ring bases     M = the truth table, X = its subset sum (Moebius),
                   W = the superset sum of X
    operators      the matrix on M-basis coordinates, built by applying
                   the expression to all 2^n unit vectors at once: row r
                   is packed over columns, so column c is the image of e_c
    entailment     p |- q iff the columns of p-hat lie in the column
                   space of q-hat: rank(Q) == rank([Q | P])
"""

from __future__ import annotations

import json
import re
from functools import lru_cache

# --- expressions --------------------------------------------------------------
# AST nodes are tuples: ("0",) ("1",) ("var", name) ("tilde", name)
# ("mono", letter, indices) ("sum", parts) ("prod", parts) ("not", p)
# ("or", p, q) ("imp", p, q)

_TOKEN = re.compile(
    r"\s*(?:(?P<mono>[mxwys])\{(?P<body>[^}]*)\}|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<arrow>->)|(?P<sym>[-+.&|!~()01]))"
)


class OracleError(ValueError):
    """The expression or call is malformed: the program must exit 2."""


def tokenize(src):
    tokens = []
    pos = 0
    src = src.rstrip()
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None or m.end() == pos:
            raise OracleError(f"bad character at {pos}")
        pos = m.end()
        if m.group("mono") is not None:
            body = m.group("body")
            items = [item.strip() for item in body.split(",")] if body else []
            if not all(item.isdigit() and int(item) >= 1 for item in items):
                raise OracleError("bad set literal")
            tokens.append(("mono", m.group("mono"), tuple(sorted({int(i) for i in items}))))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident")))
        elif m.group("arrow") is not None:
            tokens.append(("->",))
        elif m.group("sym") == "-":
            raise OracleError("lone '-'")
        else:
            tokens.append((m.group("sym"),))
    tokens.append(("eof",))
    return tokens


class _Parser:
    _STARTS = {"0", "1", "ident", "~", "mono", "(", "!"}

    def __init__(self, src):
        self.tokens = tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0]

    def take(self, kind=None):
        tok = self.tokens[self.i]
        if kind is not None and tok[0] != kind:
            raise OracleError(f"expected {kind}, found {tok[0]}")
        self.i += 1
        return tok

    def expr(self):
        left = self.disj()
        if self.peek() == "->":
            self.take()
            return ("imp", left, self.expr())
        return left

    def disj(self):
        acc = self.sum()
        while self.peek() == "|":
            self.take()
            acc = ("or", acc, self.sum())
        return acc

    def sum(self):
        parts = [self.term()]
        while self.peek() == "+":
            self.take()
            parts.append(self.term())
        return parts[0] if len(parts) == 1 else ("sum", tuple(parts))

    def term(self):
        parts = [self.unary()]
        while True:
            kind = self.peek()
            if kind in (".", "&"):
                self.take()
                parts.append(self.unary())
            elif kind in self._STARTS:
                parts.append(self.unary())
            else:
                return parts[0] if len(parts) == 1 else ("prod", tuple(parts))

    def unary(self):
        if self.peek() == "!":
            self.take()
            return ("not", self.unary())
        tok = self.take()
        kind = tok[0]
        if kind in ("0", "1"):
            return (kind,)
        if kind == "ident":
            return ("var", tok[1])
        if kind == "~":
            return ("tilde", self.take("ident")[1])
        if kind == "mono":
            return tok
        if kind == "(":
            inner = self.expr()
            self.take(")")
            return inner
        raise OracleError(f"unexpected {kind}")


def parse(src):
    parser = _Parser(src)
    tree = parser.expr()
    parser.take("eof")
    return tree


def _children(node):
    kind = node[0]
    if kind in ("sum", "prod"):
        return node[1]
    if kind == "not":
        return (node[1],)
    if kind in ("or", "imp"):
        return node[1:]
    return ()


def _nodes(node):
    stack = [node]
    while stack:
        cur = stack.pop()
        yield cur
        stack.extend(reversed(_children(cur)))


def context(trees, n=None):
    """Variable positions (first occurrence, 1-based) and the dimension."""
    names = {}
    top = 0
    for tree in trees:
        for node in _nodes(tree):
            if node[0] in ("var", "tilde") and node[1] not in names:
                names[node[1]] = len(names) + 1
            elif node[0] == "mono" and node[2]:
                top = max(top, node[2][-1])
    want = max(len(names), top, 1)
    if n is not None:
        if n < want:
            raise OracleError("explicit n too small")
        want = n
    if not 1 <= want <= 16:
        raise OracleError("dimension out of range")
    return names, want


def is_classical(tree):
    return not any(
        node[0] == "tilde" or (node[0] == "mono" and node[1] in "ys") for node in _nodes(tree)
    )


def _mask(indices):
    out = 0
    for i in indices:
        out |= 1 << (i - 1)
    return out


# --- truth tables and ring coefficients ---------------------------------------


@lru_cache(maxsize=None)
def coordinate(n, i):
    """Truth table of the i-th coordinate: bit p set iff p has bit i-1."""
    half = 1 << (i - 1)
    out, width = ((1 << half) - 1) << half, 2 * half
    while width < 1 << n:
        out |= out << width
        width *= 2
    return out


def truth_table(tree, names, n):
    full = (1 << (1 << n)) - 1

    def conj(indices, negate):
        acc = full
        for i in indices:
            col = coordinate(n, i)
            acc &= (full ^ col) if negate else col
        return acc

    def go(node):
        kind = node[0]
        if kind == "0":
            return 0
        if kind == "1":
            return full
        if kind == "var":
            return coordinate(n, names[node[1]])
        if kind == "mono":
            letter, indices = node[1], node[2]
            if letter == "m":
                return 1 << _mask(indices)
            if letter == "x":
                return conj(indices, False)
            if letter == "w":
                return conj(indices, True)
        if kind == "sum":
            acc = 0
            for part in node[1]:
                acc ^= go(part)
            return acc
        if kind == "prod":
            acc = full
            for part in node[1]:
                acc &= go(part)
            return acc
        if kind == "not":
            return full ^ go(node[1])
        if kind == "or":
            return go(node[1]) | go(node[2])
        if kind == "imp":
            return (full ^ go(node[1])) | go(node[2])
        raise OracleError("operator in a classical context")

    return go(tree)


def subset_sum(bits, n):
    """out(b) = XOR of in(a) over a subset of b."""
    for i in range(1, n + 1):
        low = ((1 << (1 << n)) - 1) ^ coordinate(n, i)
        bits ^= (bits & low) << (1 << (i - 1))
    return bits


def superset_sum(bits, n):
    """out(a) = XOR of in(b) over b superset of a."""
    for i in range(1, n + 1):
        low = ((1 << (1 << n)) - 1) ^ coordinate(n, i)
        bits ^= (bits >> (1 << (i - 1))) & low
    return bits


def ring_coefficients(table, basis, n):
    """Packed coefficients of a truth table in the M, X or W basis."""
    if basis == "M":
        return table
    xs = subset_sum(table, n)
    return xs if basis == "X" else superset_sum(xs, n)


def _set_text(mask):
    return "{%s}" % ",".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1)


def _support(bits):
    return [a for a in range(bits.bit_length()) if bits >> a & 1]


def ring_text(bits, basis):
    if not bits:
        return "0"
    letter = basis.lower()
    return " + ".join(
        "1" if a == 0 and basis != "M" else letter + _set_text(a) for a in _support(bits)
    )


def ring_json(bits, basis, n):
    support = [[i + 1 for i in range(n) if a >> i & 1] for a in _support(bits)]
    return {"n": n, "basis": basis, "support": support}


# --- operator matrices --------------------------------------------------------


def identity(n):
    return [1 << r for r in range(1 << n)]


def _keep(rows, pred):
    return [row if pred(r) else 0 for r, row in enumerate(rows)]


def _derive(rows, i):
    e = 1 << (i - 1)
    return [rows[r ^ e] ^ rows[r] for r in range(len(rows))]


def _xor(a, b):
    return [x ^ y for x, y in zip(a, b)]


def apply(tree, rows, names, n):
    """The operator's matrix times `rows`: applied to every column at once."""
    kind = tree[0]
    if kind == "0":
        return [0] * len(rows)
    if kind == "1":
        return rows
    if kind == "var":
        e = 1 << (names[tree[1]] - 1)
        return _keep(rows, lambda r: r & e)
    if kind == "tilde":
        return _derive(rows, names[tree[1]])
    if kind == "mono":
        letter, indices = tree[1], tree[2]
        if indices and indices[-1] > n:
            raise OracleError("monomial index out of range")
        a = _mask(indices)
        if letter == "m":
            return _keep(rows, lambda r: r == a)
        if letter == "x":
            return _keep(rows, lambda r: r & a == a)
        if letter == "w":
            return _keep(rows, lambda r: r & a == 0)
        if letter == "s":
            return [rows[r ^ a] for r in range(len(rows))]
        for i in indices:  # y: product of derivatives
            rows = _derive(rows, i)
        return rows
    if kind == "sum":
        acc = [0] * len(rows)
        for part in tree[1]:
            acc = _xor(acc, apply(part, rows, names, n))
        return acc
    if kind == "prod":
        for part in reversed(tree[1]):
            rows = apply(part, rows, names, n)
        return rows
    # classical connectives as operators, through the GF(2) identities
    if kind == "not":  # p + 1
        return _xor(apply(tree[1], rows, names, n), rows)
    p, q = tree[1], tree[2]
    qr = apply(q, rows, names, n)
    pqr = apply(p, qr, names, n)
    if kind == "or":  # p + q + p q
        return _xor(_xor(apply(p, rows, names, n), qr), pqr)
    return _xor(_xor(rows, apply(p, rows, names, n)), pqr)  # imp: 1 + p + p q


def matrix(tree, names, n):
    return apply(tree, identity(n), names, n)


def mat_mul(a, b):
    out = []
    for row in a:
        acc = 0
        for k in range(row.bit_length()):
            if row >> k & 1:
                acc ^= b[k]
        out.append(acc)
    return out


def rank(vectors):
    """GF(2) rank, eliminating on the lowest set bit."""
    pivots = {}
    for v in vectors:
        while v:
            low = v & -v
            other = pivots.get(low)
            if other is None:
                pivots[low] = v
                break
            v ^= other
    return len(pivots)


def contains(t, s):
    """True iff every column of s lies in the column space of t."""
    side = len(t)
    return rank(t) == rank([tr | (sr << side) for tr, sr in zip(t, s)])


def matrix_text(rows):
    side = len(rows)
    return "\n".join(format(row, f"0{side}b")[::-1] for row in rows)


# --- printed operators ----------------------------------------------------------

_TERM = re.compile(r"^(?:([mxw])(\{[\d,]*\}))?(?:([ys])(\{[\d,]*\}))?$")


def _indices(body):
    inner = body[1:-1]
    return tuple(int(i) for i in inner.split(",")) if inner else ()


def operator_terms(text, basis):
    """(left, right) masks of a printed operator; None if it is not canonical."""
    if text == "0":
        return []
    left_letter, right_letter = basis[0].lower(), basis[1].lower()
    terms = []
    for part in text.split(" + "):
        if part == "1":
            if basis[0] == "M":
                return None
            terms.append((0, 0))
            continue
        m = _TERM.match(part)
        if m is None or not part:
            return None
        left = _mask(_indices(m.group(2))) if m.group(1) else 0
        right = _mask(_indices(m.group(4))) if m.group(3) else 0
        if m.group(1) and m.group(1) != left_letter or m.group(3) and m.group(3) != right_letter:
            return None
        if basis[0] == "M" and not m.group(1):
            return None
        if m.group(1) and basis[0] != "M" and left == 0 or m.group(3) and right == 0:
            return None
        terms.append((left, right))
    if terms != sorted(set(terms)):
        return None
    return terms


def operator_matrix(terms, basis, n):
    """Matrix of a coefficient sum in one of the six operator bases."""

    def mono(letter, mask):
        return ("mono", letter, tuple(i + 1 for i in range(n) if mask >> i & 1))

    left, right = basis.lower()
    return matrix(("sum", tuple(("prod", (mono(left, a), mono(right, b))) for a, b in terms)), {}, n)


def _json_terms(data, basis, n):
    if data.get("n") != n or data.get("basis") != basis:
        return None
    terms = [(_mask(a), _mask(b)) for a, b in data["terms"]]
    return terms if terms == sorted(set(terms)) else None


def _dot_ok(text, rows):
    side = len(rows)
    lines = text.split("\n")
    if lines[0] != "digraph gf2matrix {" or lines[-1] != "}":
        return False
    labels = {f'  n{v} [label="{_set_text(v)}"];' for v in range(side)}
    edges = set()
    for line in lines[1:-1]:
        if line in labels:
            labels.discard(line)
            continue
        m = re.fullmatch(r"  n(\d+) -> n(\d+);", line)
        if m is None:
            return False
        edges.add((int(m.group(2)), int(m.group(1))))
    want = {(r, c) for r, row in enumerate(rows) for c in range(side) if row >> c & 1}
    return not labels and edges == want and len(lines) == 2 + side + len(want)


# --- whole calls --------------------------------------------------------------

RING_BASES = ("M", "X", "W")
OP_BASES = ("MY", "XY", "WY", "MS", "XS", "WS")
_ARITY = {"eval": 1, "mul": 2, "convert": 1, "entail": 2, "equiv": 2, "matrix": 1, "dot": 1}


def _options(argv):
    command = argv[0]
    if command not in _ARITY:
        raise OracleError("unknown subcommand")
    positional, opts = [], {"n": None, "basis": None, "format": "text", "witness": False}
    i = 1
    while i < len(argv):
        arg = argv[i]
        if arg == "-n":
            opts["n"] = int(argv[i + 1])
            i += 2
        elif arg in ("--basis", "--format"):
            opts[arg[2:]] = argv[i + 1]
            i += 2
        elif arg == "--witness":
            opts["witness"] = True
            i += 1
        else:
            positional.append(arg)
            i += 1
    if len(positional) != _ARITY[command]:
        raise OracleError("wrong number of arguments")
    formats = ("text", "json", "dot") if command in ("matrix", "dot") else ("text", "json")
    if opts["format"] not in formats or (command == "convert" and opts["basis"] is None):
        raise OracleError("usage")
    return command, positional, opts


def _answer(yes):
    return (0 if yes else 1), lambda out: out == ("yes\n" if yes else "no\n")


def expected(argv, stdin=""):
    """(exit code, predicate on stdout) of a correct call; (2, None) when
    the call must be refused."""
    try:
        return _expected(argv, stdin)
    except OracleError:
        return 2, None


def _expected(argv, stdin):
    command, positional, opts = _options(argv)
    texts = [stdin if p == "-" else p for p in positional]
    trees = [parse(t) for t in texts]
    names, n = context(trees, opts["n"])
    fmt, basis = opts["format"], opts["basis"]

    def ring_out(tree, basis):
        bits = ring_coefficients(truth_table(tree, names, n), basis, n)
        if fmt == "json":
            return lambda out: json.loads(out) == ring_json(bits, basis, n)
        return lambda out: out.rstrip("\n") == ring_text(bits, basis)

    def op_out(rows, basis):
        def check(out):
            if fmt == "json":
                terms = _json_terms(json.loads(out), basis, n)
            else:
                terms = operator_terms(out.rstrip("\n"), basis)
            return terms is not None and operator_matrix(terms, basis, n) == rows

        return check

    if command in ("eval", "convert"):
        tree = trees[0]
        classical = is_classical(tree)
        if command == "eval" and classical and basis in (None,) + RING_BASES:
            return 0, ring_out(tree, basis or "X")
        if basis in RING_BASES:
            if not classical:
                raise OracleError("operator expression in a ring basis")
            return 0, ring_out(tree, basis)
        basis = basis or "XY"
        if basis not in OP_BASES:
            raise OracleError("unknown basis")
        return 0, op_out(matrix(tree, names, n), basis)
    if command == "mul":
        basis = basis or "XY"
        if basis not in OP_BASES:
            raise OracleError("unknown basis")
        lhs, rhs = trees
        return 0, op_out(apply(lhs, matrix(rhs, names, n), names, n), basis)
    if command in ("matrix", "dot"):
        rows = matrix(trees[0], names, n)
        if command == "dot" or fmt == "dot":
            return 0, lambda out: _dot_ok(out.rstrip("\n"), rows)
        if fmt == "json":
            want = {"side": len(rows), "rows": matrix_text(rows).split("\n")}
            return 0, lambda out: json.loads(out) == want
        return 0, lambda out: out.rstrip("\n") == matrix_text(rows)
    p, q = trees
    if command == "equiv":
        return _answer(matrix(p, names, n) == matrix(q, names, n))
    if is_classical(p) and is_classical(q):
        yes = truth_table(p, names, n) & ~truth_table(q, names, n) == 0
    else:
        yes = contains(matrix(q, names, n), matrix(p, names, n))
    if not (yes and opts["witness"]):
        return _answer(yes)
    pm, qm = matrix(p, names, n), matrix(q, names, n)

    def witness_ok(out):
        head, _, grid = out.rstrip("\n").partition("\n")
        lines = grid.split("\n")
        side = len(pm)
        if head != "yes" or len(lines) != side:
            return False
        if any(len(line) != side or set(line) - {"0", "1"} for line in lines):
            return False
        return mat_mul(qm, [int(line[::-1], 2) for line in lines]) == pm

    return 0, witness_ok


def check_battery(argv, code, out):
    """A crosscheck call: exit 0, 20 PASS lines per dimension, then the tally."""
    n = int(argv[argv.index("--n") + 1])
    lines = out.rstrip("\n").split("\n")
    done = lines[:-1]
    return (
        code == 0
        and len(done) == 20 * n
        and all(line.startswith("PASS ") for line in done)
        and lines[-1] == f"{len(done)}/{len(done)} checks passed"
    )


def check_deep_nesting(code, out, err):
    """`a` under thousands of parentheses or an even number of `!`: either the
    answer x{1}, or a clean refusal with exit 2."""
    return (code == 0 and out == "x{1}\n") or (code == 2 and out == "" and "error:" in err)


def deep_nesting_fault(code, out, err):
    """The parser's known fault on those calls: nothing printed, exit 1 and
    a RecursionError traceback."""
    last = err.rstrip("\n").rpartition("\n")[2]
    return code == 1 and out == "" and err.startswith("Traceback") and last.startswith("RecursionError")


def check_call(argv, stdin, code, out, err):
    """True iff a call with these arguments exited and printed correctly."""
    if argv[0] == "crosscheck":
        return check_battery(argv, code, out)
    want_code, check = expected(argv, stdin)
    if code != want_code:
        return False
    if want_code == 2:
        return out == "" and ("error:" in err or "usage:" in err)
    try:
        return check(out)
    except (ValueError, KeyError, TypeError, AttributeError):  # unreadable output
        return False
