"""Proposition and operator language: lexer, parser, valuations, entailment.

Core grammar (products bind tighter than sums; products associate left;
juxtaposition and '.' both denote the product):

    expr    := term ('+' term)*
    term    := factor (('.')? factor)*
    factor  := '0' | '1' | IDENT | '~' IDENT | MONO | '(' expr ')'

'~a' is the tilde-marked (operator) copy of the variable a.  MONO is a
coefficient-monomial literal such as x{1,2}, m{}, y{1} or s{2}: one of
the letters m x w y s immediately followed by a braced list of decimal,
1-based indices, merged and sorted (x{2,1,2} is x{1,2}).  Juxtaposed
monomial literals multiply like any other factors, so operator dumps
like "x{1,2}y{1} + y{2}" read back directly.  Whitespace separates
tokens; '-' appears only in '->'; an IDENT starts with any Unicode
letter or '_' and continues with letters, digits or '_'.  Nesting has
no limit: parsing, valuation and format_expr keep their own stacks.  A
tree's ==, hash and repr still recurse, so they are not for trees deeper
than Python's recursion limit, such as the parse of a few thousand '!'.

On top of the core grammar, the classical connectives are accepted as
sugar and expand at parse time ('!' binds tightest, then products, '+',
'|', '->' loosest):

    !p               ->  p + 1
    p & q            ->  p q
    p1 | ... | pk    ->  !(!p1 & ... & !pk)  =  (p1 + 1)...(pk + 1) + 1
    p1 -> ... -> pk  ->  !(p1 & ... & p(k-1) & !pk)

Each chain expands in one loop, so each operand appears once in the
tree and its depth does not grow with k.  The values are those of the
two-operand rules, p | q = p + q + p q and p -> q = 1 + p + p q, nested
to the left for '|' and to the right for '->', with the product order kept.

Valuations: a proposition (no tilde variables, no y/s literals) denotes
a ring element, any expression an operator (variables multiply, tilde
variables derive).  The one walk decides which: it gives a proposition's
truth table, and any other expression's MY tables, the operator's one
form sum of g_b d^b with its functions left of its derivatives, a
2^n-bit truth table g_b per derivative index b.  A sum XORs tables, a
product ANDs them or is the Leibniz table product of bweyl; a sum or
product starts from its first part, never from a lifted unit.
`valuation` and `eval_quantum` give the XY operator, converted once at
the end.  Equivalence compares truth tables, or MY tables, so it builds
no matrix and no XY terms.  Quantum entailment of p by q is solvability of
p-hat = q-hat * r over GF(2), column-space containment; a proposition's
matrix is diagonal, so for two propositions it is the pointwise order
of truth functions (classical entailment), decided on truth tables.
With an operator on either side it is decided on the distinct diagonal
blocks that the coordinates touched by derivatives cut out, their rows
made from the MY tables as the elimination reads them, and each
elimination stopping at the first row that refutes containment.  The
blocks are read on x-monomials, where each term reaches only the rows it
moves, and a witness is solved from their echelon, so no entailment
builds a full matrix.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence, Union

from .ring import (
    RingElem,
    _block_mask,
    _convert_bits,
    check_dim,
    convert_ring_basis,
    iter_bits,
    mask_from_indices,
    submasks,
)
from .value import Value, setters

if TYPE_CHECKING:  # bweyl and gf2lin are imported where they are used: a proposition needs neither
    from .bweyl import OpCoeffs
    from .gf2lin import Gf2Matrix


class LangError(ValueError):
    """Base for lexing, parsing and valuation errors."""


class LexError(LangError):
    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class ParseError(LangError):
    def __init__(self, message: str, pos: int) -> None:
        super().__init__(f"{message} at offset {pos}")
        self.pos = pos


class EvalError(LangError):
    pass


# --- expression trees ---------------------------------------------------------


class Zero(Value):
    __slots__ = ()


class One(Value):
    __slots__ = ()


class Var(Value):
    __slots__ = ("name",)
    name: str

    def __init__(self, name: str) -> None:
        _set_var_name(self, name)


class TildeVar(Value):
    __slots__ = ("name",)
    name: str

    def __init__(self, name: str) -> None:
        _set_tilde_name(self, name)


class Mono(Value):
    __slots__ = ("kind", "indices")
    kind: str  # one of m x w y s
    indices: tuple[int, ...]  # sorted 1-based

    def __init__(self, kind: str, indices: tuple[int, ...]) -> None:
        _set_mono_kind(self, kind)
        _set_mono_indices(self, indices)


class Sum(Value):
    __slots__ = ("parts",)
    parts: tuple[Expr, ...]

    def __init__(self, parts: tuple[Expr, ...]) -> None:
        _set_sum_parts(self, parts)


class Prod(Value):
    __slots__ = ("parts",)
    parts: tuple[Expr, ...]

    def __init__(self, parts: tuple[Expr, ...]) -> None:
        _set_prod_parts(self, parts)


(_set_var_name,) = setters(Var)
(_set_tilde_name,) = setters(TildeVar)
_set_mono_kind, _set_mono_indices = setters(Mono)
(_set_sum_parts,) = setters(Sum)
(_set_prod_parts,) = setters(Prod)


Expr = Union[Zero, One, Var, TildeVar, Mono, Sum, Prod]


def make_sum(parts: Sequence[Expr]) -> Expr:
    if not parts:
        return Zero()
    if len(parts) == 1:
        return parts[0]
    return Sum(tuple(parts))


def make_prod(parts: Sequence[Expr]) -> Expr:
    if not parts:
        return One()
    if len(parts) == 1:
        return parts[0]
    return Prod(tuple(parts))


_ZERO, _ONE = Zero(), One()  # values are immutable: every tree may share them


def _not(e: Expr) -> Expr:
    """The '!' sugar: !e = e + 1."""
    return Sum((e, _ONE))


# --- lexer --------------------------------------------------------------------


_SYMBOL_KINDS = {
    "->": "ARROW",
    "+": "PLUS",
    ".": "DOT",
    "&": "AMP",
    "|": "PIPE",
    "!": "BANG",
    "~": "TILDE",
    "(": "LPAREN",
    ")": "RPAREN",
    "0": "ZERO",
    "1": "ONE",
}

# After optional whitespace: a symbol, a monomial literal (its closing brace optional, so
# that a missing one is reported), a word, or any other character.  \s is str.isspace and
# \w str.isalnum or '_'; the input is right-stripped, so every match holds a token.
_TOKEN = re.compile(r"\s*(?:(->|[+.&|!~()01])|([mxwys])\{([^}]*)(\}?)|(\w+)|(.))", re.S)


def read_elements(
    body: str, bad: Callable[[str, bool], Exception], tilde: bool = False
) -> Iterator[tuple[bool, int]]:
    """The elements of a comma-separated list, in order: (marked, value) per
    stripped item, where marked says that the item starts with '~', a mark
    read only when `tilde` is set.  An empty body holds none.

    An item whose unmarked rest is not decimal digits raises bad(item,
    False); one with more digits than the interpreter converts raises
    bad(item, True).  Set literals and family literals both read here.
    """
    for item in body.split(",") if body else ():
        item = item.strip()
        marked = tilde and item.startswith("~")
        digits = item[marked:]
        if not digits.isdecimal():
            raise bad(item, False)
        try:
            value = int(digits)
        except ValueError:  # more digits than the interpreter converts
            raise bad(item, True) from None
        yield marked, value


def _set_elements(body: str, offset: int) -> tuple[int, ...]:
    """The sorted distinct elements of a set literal's body, which starts at offset."""

    def bad(item: str, too_long: bool) -> LexError:
        return LexError("set element too long" if too_long else f"bad set element {item!r}", offset)

    elements = set()
    for _, element in read_elements(body, bad):
        if element < 1:
            raise LexError("set elements are 1-based", offset)
        elements.add(element)
    return tuple(sorted(elements))


def tokenize(src: str) -> list[tuple]:
    """The lexer: the token stream as plain (kind, text, pos, value) tuples,
    ending in EOF, which parse reads.

    The whole text is lexed first, so a lexing error anywhere wins over a
    parse error before it."""
    tokens = []
    for m in _TOKEN.finditer(src.rstrip()):
        group = m.lastindex  # the one alternative that matched
        if group == 1:
            symbol = m[1]
            tokens.append((_SYMBOL_KINDS[symbol], symbol, m.start(1), None))
        elif group == 4:
            start = m.start(2)
            if not m[4]:
                raise LexError("unterminated set literal", start + 1)
            value = (m[2], _set_elements(m[3], start + 2))
            tokens.append(("MONO", src[start : m.end()], start, value))
        elif group == 5 and (m[5][0].isalpha() or m[5][0] == "_"):
            tokens.append(("IDENT", m[5], m.start(5), None))
        else:
            pos = m.start(group)
            raise LexError(f"illegal character {src[pos]!r}", pos)
    tokens.append(("EOF", "", len(src), None))
    return tokens


# --- parser -------------------------------------------------------------------

_FACTOR_STARTS = frozenset({"ZERO", "ONE", "IDENT", "TILDE", "MONO", "LPAREN", "BANG"})
# each infix operator and the level it joins: 0 '->', 1 '|', 2 '+', 3 the product
_OPERATORS = {"ARROW": 0, "PIPE": 1, "PLUS": 2, "DOT": 3, "AMP": 3}
# how each level's operands combine into one expression
_COMBINE = (
    # p1 -> ... -> pk (right assoc) is !(p1 & ... & p(k-1) & !pk)
    lambda ps: _not(make_prod(ps[:-1] + [_not(ps[-1])])) if len(ps) > 1 else ps[0],
    # p1 | ... | pk is !(!p1 & ... & !pk)
    lambda ps: _not(make_prod([_not(p) for p in ps])) if len(ps) > 1 else ps[0],
    make_sum,
    make_prod,
)


def _fold(levels: list[list[Expr]], level: int) -> list[Expr]:
    """Close the open levels below `level`, the product first: the operands
    of each combine into one operand of the next.  Returns those of `level`."""
    for k in range(3, level, -1):
        levels[k - 1].append(_COMBINE[k](levels[k]))
        levels[k] = []
    return levels[level]


def parse(tokens: Sequence[tuple]) -> Expr:
    """Parse a token stream into an expression tree, in one loop.

    The tokens are (kind, text, pos, value) tuples, as tokenize gives them,
    read by position; a stream without EOF gets one just past its last
    token.  Each open parenthesis has a frame: the number of '!' pending
    before it, and the open operand lists of the four levels.  An operator
    folds the levels below its own into it; ')' folds every level, and the
    value, under the saved '!'s, is the next factor of the enclosing frame.
    EOF closes the root frame.  Each leaf is built once per parse, and
    every occurrence of it is that one object.
    """
    tokens = list(tokens)
    if not tokens or tokens[-1][0] != "EOF":
        end = tokens[-1][2] + len(tokens[-1][1]) if tokens else 0
        tokens.append(("EOF", "", end, None))
    stream = iter(tokens)
    # the leaves so far (a node is never false): a variable by name, a tilde
    # variable by '~' and name, a monomial literal by its (letter, indices)
    leaves: dict[str | tuple, Expr] = {}
    frames: list[tuple[int, list[list[Expr]]]] = []  # the enclosing frames
    bangs, levels = 0, [[], [], [], []]
    operand = True  # an operand is due: at the start, after '(', '!' or an operator
    while True:
        tok = next(stream)
        kind = tok[0]
        if not operand and kind not in _FACTOR_STARTS:  # else a juxtaposed factor follows
            if kind in _OPERATORS:
                _fold(levels, _OPERATORS[kind])
                operand = True
                continue
            if kind != ("RPAREN" if frames else "EOF"):
                message = f"expected RPAREN, found {kind}" if frames else f"unexpected token {kind}"
                raise ParseError(message, tok[2])
            expr = _COMBINE[0](_fold(levels, 0))
            if not frames:
                return expr
            bangs, levels = frames.pop()
        elif kind == "IDENT":
            expr = leaves.get(tok[1]) or leaves.setdefault(tok[1], Var(tok[1]))
        elif kind == "BANG":
            bangs, operand = bangs + 1, True
            continue
        elif kind == "LPAREN":
            frames.append((bangs, levels))
            bangs, levels, operand = 0, [[], [], [], []], True
            continue
        elif kind == "ZERO":
            expr = _ZERO
        elif kind == "ONE":
            expr = _ONE
        elif kind == "MONO":
            expr = leaves.get(tok[3]) or leaves.setdefault(tok[3], Mono(*tok[3]))
        elif kind == "TILDE":
            name = next(stream)
            if name[0] != "IDENT":
                raise ParseError(f"expected IDENT, found {name[0]}", name[2])
            key = "~" + name[1]
            expr = leaves.get(key) or leaves.setdefault(key, TildeVar(name[1]))
        else:
            raise ParseError(f"unexpected token {kind}", tok[2])
        for _ in range(bangs):
            expr = _not(expr)
        levels[3].append(expr)
        bangs, operand = 0, False


def parse_text(src: str) -> Expr:
    """The expression tree of a text: parse of the whole text's tokens."""
    return parse(tokenize(src))


def format_expr(e: Expr) -> str:
    """Canonical text, written with an explicit stack: no nesting limit.

    A tree built by parse, make_sum and make_prod parses back to an equal
    tree; the text of any tree parses to an expression of the same value.
    """
    out: list[str] = []
    end = object()  # what next() gives once a frame's parts are used up
    # one frame per open Sum or Prod, the innermost in the locals: its parts
    # left, the separator after each, the part types it parenthesizes, its close
    frames: list[tuple] = []
    parts, sep, wrap, close = iter((e,)), "", (), ""
    while True:
        node = next(parts, end)
        if node is end:
            out[-1] = close  # in place of the separator after the last part
            if not frames:
                return "".join(out)
            parts, sep, wrap, close = frames.pop()
        elif isinstance(node, (Sum, Prod)):
            frames.append((parts, sep, wrap, close))
            close = ")" if isinstance(node, wrap) else ""
            out.append("(" if close else "")
            if isinstance(node, Sum):  # an empty sum reads 0, an empty product 1
                parts, sep, wrap = iter(node.parts or (Zero(),)), " + ", Sum
            else:
                parts, sep, wrap = iter(node.parts or (One(),)), " ", (Sum, Prod)
            continue
        elif isinstance(node, (Var, TildeVar)):
            out.append(("~" if isinstance(node, TildeVar) else "") + node.name)
        elif isinstance(node, Mono):
            out.append(node.kind + "{%s}" % ",".join(str(i) for i in node.indices))
        elif isinstance(node, (Zero, One)):
            out.append("0" if isinstance(node, Zero) else "1")
        else:
            raise TypeError(f"not an expression: {node!r}")
        out.append(sep)


# --- contexts -----------------------------------------------------------------


class VarContext(Value):
    """Ordered variable names, given as any iterable and stored as a tuple;
    position i (1-based) is the i-th coordinate."""

    __slots__ = ("names",)
    names: tuple[str, ...]

    def __init__(self, names: Iterable[str]) -> None:
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        check_dim(len(names))
        _set_names(self, names)

    @property
    def n(self) -> int:
        return len(self.names)

    def position(self, name: str) -> int:
        try:
            return self.names.index(name) + 1
        except ValueError:
            raise EvalError(f"unknown variable {name!r}") from None


(_set_names,) = setters(VarContext)


def _scan(exprs: Iterable[Expr]) -> tuple[dict[str, None], int, bool]:
    """The variable names in first-occurrence order, the largest monomial
    index, and whether a tilde variable or a y or s literal appears: one
    pre-order walk of the trees in turn, with an explicit stack."""
    names: dict[str, None] = {}  # insertion-ordered set: first occurrence wins
    max_index, operator = 0, False
    stack = list(exprs)[::-1]
    pop, push = stack.pop, stack.extend
    while stack:
        node = pop()
        cls = type(node)  # the node classes are not subclassed
        if cls is Sum or cls is Prod:
            push(node.parts[::-1])
        elif cls is Var:
            names[node.name] = None
        elif cls is TildeVar:
            names[node.name], operator = None, True
        elif cls is Mono:
            operator = operator or node.kind in ("y", "s")
            if node.indices:
                max_index = max(max_index, node.indices[-1])
    return names, max_index, operator


def infer_context(exprs: Iterable[Expr], n: int | None = None) -> VarContext:
    """Context from first-occurrence order of variables.

    The dimension grows to cover the largest monomial-literal index;
    padding positions get fresh names x<i>.
    """
    names, max_index, _ = _scan(exprs)
    want = max(len(names), max_index, 1)
    if n is not None:
        if n < want:
            raise EvalError(f"explicit n={n} too small; expression needs n>={want}")
        want = n
    check_dim(want)  # before padding up to a possibly huge n
    while len(names) < want:
        filler = f"x{len(names) + 1}"
        while filler in names:
            filler += "_"
        names.setdefault(filler)
    return VarContext(names)


# --- valuations ---------------------------------------------------------------


def _mono_mask(mono: Mono, n: int) -> int:
    if mono.indices and mono.indices[-1] > n:
        raise EvalError(f"monomial index {mono.indices[-1]} out of range for n={n}")
    return mask_from_indices(mono.indices, n)


def as_operator(value: RingElem | OpCoeffs) -> OpCoeffs:
    """The XY operator of a valuation: a proposition multiplies by its truth function."""
    if isinstance(value, RingElem):
        from . import bweyl

        return bweyl.OpCoeffs(value.n, "XY", {0: convert_ring_basis(value, "X").bits})
    return value


def _value(e: Expr, ctx: VarContext) -> int | dict[int, int]:
    """The walk: a proposition's truth table, an M-basis packed int, or any
    other expression's MY tables (see bweyl.operator_tables).  Tables XOR
    in a sum and AND in a product; once an operator appears, table_sum and
    table_product combine.  A sum or product starts from its first part."""
    n = ctx.n
    size = 1 << n
    true = (1 << size) - 1  # the table of 1
    tables = None  # what the operators share: made at the first operator sum or product
    var_tables: dict[str, int] = {}  # each variable's table, made at its first occurrence

    end = object()  # what next() gives once a frame's parts are used up
    # a frame per open Sum or Prod: its parts left, its value (None before the
    # first part) and whether it multiplies; the innermost is in the locals,
    # the outermost a sum whose one part is e, and the walk ends when it closes
    frames: list[tuple] = []
    parts, value, multiplies = iter((e,)), None, False
    while True:
        node = next(parts, end)
        cls = type(node)  # the node classes are not subclassed
        if cls is Var:
            v = var_tables.get(node.name)
            if v is None:  # the points at which the variable's bit is set
                v = true ^ _block_mask(size, 1 << (ctx.position(node.name) - 1))
                var_tables[node.name] = v
        elif cls is Sum or cls is Prod:
            frames.append((parts, value, multiplies))
            parts, value, multiplies = iter(node.parts), None, cls is Prod
            continue
        elif node is end:  # the frame closes: its value is a part of the frame below
            if value is None:  # no parts: the unit
                value = true if multiplies else 0
            if not frames:
                return value
            v = value
            parts, value, multiplies = frames.pop()
        elif cls is Zero:
            v = 0
        elif cls is One:
            v = true
        elif cls is TildeVar:
            v = {1 << (ctx.position(node.name) - 1): true}
        elif cls is Mono:
            mask = _mono_mask(node, n)
            if node.kind == "y":
                v = {mask: true}
            elif node.kind == "s":  # s_i = 1 + d_i
                v = dict.fromkeys(submasks(mask), true)
            else:
                v = _convert_bits(1 << mask, size, node.kind.upper(), "M")
        else:
            raise TypeError(f"not an expression: {node!r}")
        if value is None:
            value = v
        elif type(value) is int and type(v) is int:
            value = value & v if multiplies else value ^ v
        else:
            if tables is None:  # Tables must hold this walk's true: table_product tests identity
                from . import bweyl

                tables = bweyl.Tables(n, true)
            value = (bweyl.table_product if multiplies else bweyl.table_sum)(value, v, tables)


def valuation(e: Expr, ctx: VarContext) -> RingElem | OpCoeffs:
    """The one test of proposition or operator: a proposition's truth table,
    an M-basis ring element, or anything else's XY operator (see _value)."""
    value = _value(e, ctx)
    if isinstance(value, int):
        return RingElem(ctx.n, "M", value)
    from . import bweyl

    return bweyl.convert_op_basis(bweyl.OpCoeffs(ctx.n, "MY", value), "XY")


def eval_classical(e: Expr, ctx: VarContext) -> RingElem:
    """Truth-function valuation into the Boolean ring (X-basis result)."""
    value = _value(e, ctx)
    if isinstance(value, dict):
        raise EvalError("operator expression in classical context")
    return convert_ring_basis(RingElem(ctx.n, "M", value), "X")


def eval_quantum(e: Expr, ctx: VarContext) -> OpCoeffs:
    """Operator valuation: variables multiply, tilde variables derive.

    The result is expressed in the XY basis, where it is canonical: two
    expressions denote the same operator iff their values are equal.
    """
    return as_operator(valuation(e, ctx))


def is_classical(e: Expr) -> bool:
    """True when the expression stays in the proposition language."""
    return not _scan((e,))[2]


# --- equivalence and entailment -----------------------------------------------


def equivalent(p: Expr, q: Expr, ctx: VarContext) -> bool:
    """True iff both expressions denote the same operator: equal MY tables.

    MY is a basis, and a proposition denotes multiplication by its truth
    table, so two propositions are compared on their truth tables.
    """
    from . import bweyl

    return bweyl.operator_tables(_value(p, ctx)) == bweyl.operator_tables(_value(q, ctx))


def _entails(pv: int | dict[int, int], qv: int | dict[int, int], n: int) -> bool:
    """Column-space containment of p-hat in q-hat, for two values of the walk.

    Two truth tables are compared pointwise.  Otherwise both matrices are
    block diagonal on the cosets of the coordinates that the derivatives
    touch, and containment holds iff it holds in every block.  Each
    distinct pair of blocks with a nonzero block of p-hat is eliminated
    once, on the augmented rows [q-hat | p-hat] on x-monomials that
    bweyl.table_block_rows builds from the MY tables as the elimination
    reads them.  The elimination stops at the first row that reduces into
    the p-hat half, so the first block that fails answers no, and its rows
    past the eight that hold that row are never built.
    """
    if isinstance(pv, int) and isinstance(qv, int):
        return pv & ~qv == 0
    from . import bweyl, gf2lin

    return all(
        gf2lin.ColumnSolver(side, rows).solvable()
        for side, rows, _ in bweyl.table_block_rows(n, bweyl.operator_tables(pv), bweyl.operator_tables(qv))
    )


def entails_classical(p: Expr, q: Expr, ctx: VarContext) -> bool:
    """True iff the truth function of p is pointwise below that of q."""
    pv, qv = _value(p, ctx), _value(q, ctx)
    if isinstance(pv, dict) or isinstance(qv, dict):
        raise EvalError("operator expression in classical context")
    return _entails(pv, qv, ctx.n)


def entails_quantum(p: Expr, q: Expr, ctx: VarContext) -> bool:
    """True iff p-hat = q-hat * r is solvable for some operator r.

    Two propositions have diagonal matrices, so for them this is the
    pointwise order of their truth tables, decided with no matrix.
    """
    return _entails(_value(p, ctx), _value(q, ctx), ctx.n)


def entailment_witness(p: Expr, q: Expr, ctx: VarContext) -> Gf2Matrix | None:
    """A matrix r with q-hat * r = p-hat, or None when p is not entailed.

    r, zero outside the pivot columns of q-hat, is block diagonal like
    both: each distinct block is eliminated as _entails eliminates it, so a
    no stops at the refuting row, then solved from its echelon by
    bweyl.block_witness and placed on every coset that shares it.
    """
    from . import bweyl, gf2lin

    solved = []
    pt, qt = bweyl.operator_tables(_value(p, ctx)), bweyl.operator_tables(_value(q, ctx))
    for side, rows, place in bweyl.table_block_rows(ctx.n, pt, qt):
        solver = gf2lin.ColumnSolver(side, rows)
        if not solver.solvable():
            return None
        solved.append((place, bweyl.block_witness(side, solver._pivots)))
    r = [0] * (1 << ctx.n)
    for place, block in solved:  # placed once every coset has joined its block
        place(block, r)
    return gf2lin.Gf2Matrix(r)


# --- normalization ------------------------------------------------------------


def normalize(e: Expr, ctx: VarContext) -> Expr:
    """Canonical form: sum of ordered monomials in the XY valuation.

    Terms are emitted in decreasing order of their (left, right) index
    pair; inside a term, plain variables precede tilde variables, each
    in position order.  Idempotent, and equivalent to the input.
    """
    parts: list[Expr] = []
    for a, b in sorted(eval_quantum(e, ctx).terms, reverse=True):
        plain = [Var(ctx.names[i]) for i in iter_bits(a)]
        parts.append(make_prod(plain + [TildeVar(ctx.names[i]) for i in iter_bits(b)]))
    return make_sum(parts)


# --- rewrite rules (each preserves the operator valuation) ---------------------

_REWRITE_RULES = {
    "assoc-prod": lambda p, q, r, a, b: (Prod((p, Prod((q, r)))), Prod((Prod((p, q)), r))),
    "assoc-sum": lambda p, q, r, a, b: (Sum((Sum((p, q)), r)), Sum((p, Sum((q, r))))),
    "comm-sum": lambda p, q, r, a, b: (Sum((p, q)), Sum((q, p))),
    "distrib": lambda p, q, r, a, b: (
        Prod((p, Sum((q, r)))), Sum((Prod((p, q)), Prod((p, r))))
    ),
    "unit-sum": lambda p, q, r, a, b: (Sum((Zero(), p)), p),
    "unit-prod": lambda p, q, r, a, b: (Prod((One(), p)), p),
    "nilpotent-sum": lambda p, q, r, a, b: (Sum((p, p)), Zero()),
    "idempotent-var": lambda p, q, r, a, b: (Prod((Var(a), Var(a))), Var(a)),
    "nilpotent-tilde": lambda p, q, r, a, b: (Prod((TildeVar(a), TildeVar(a))), Zero()),
    "commute-vars": lambda p, q, r, a, b: (Prod((Var(b), Var(a))), Prod((Var(a), Var(b)))),
    "commute-tildes": lambda p, q, r, a, b: (
        Prod((TildeVar(b), TildeVar(a))), Prod((TildeVar(a), TildeVar(b)))
    ),
    # distinct names only: same-name pairs obey the twisted rule instead
    "commute-mixed": lambda p, q, r, a, b: (
        Prod((TildeVar(b), Var(a))), Prod((Var(a), TildeVar(b)))
    ),
    "twisted-commutation": lambda p, q, r, a, b: (
        Prod((TildeVar(a), Var(a))), Sum((Prod((Var(a), TildeVar(a))), TildeVar(a), One()))
    ),
}

REWRITE_RULE_NAMES = tuple(_REWRITE_RULES)


def rewrite_rule_instance(name: str, p: Expr, q: Expr, r: Expr, a: str, b: str):
    """A (lhs, rhs) pair instantiating one named rewrite relation.

    p, q, r are arbitrary subexpressions; a and b are distinct variable
    names used by the variable-level rules.
    """
    rule = _REWRITE_RULES.get(name)
    if rule is None:
        raise ValueError(f"unknown rewrite rule {name!r}")
    return rule(p, q, r, a, b)
