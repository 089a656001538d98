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
no limit: parsing and valuation keep their own stacks.  format_expr and
a tree's ==, hash and repr still recurse, so they are not for trees deeper
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
variables derive).  The one walk, `valuation`, decides which: it gives
a proposition's truth table, and any other expression's XY operator.
Equivalence compares truth tables, or canonical XY coefficients, so it
builds no matrix.  Quantum entailment of p by q is solvability of
p-hat = q-hat * r over GF(2), column-space containment; a proposition's
matrix is diagonal, so for two propositions it is the pointwise order
of truth functions (classical entailment), decided on truth tables.
Only a witness, or an operator on either side, takes an elimination;
without a witness it stops at the echelon rows, with no back-substitution.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence, Union

from .bweyl import (
    OpCoeffs,
    convert_op_basis,
    op_add,
    op_monomial,
    op_mul,
    to_matrix,
)
from .gf2lin import Gf2Matrix, colspace_contains, solve_right
from .ring import (
    RingElem,
    _block_mask,
    _convert_bits,
    check_dim,
    convert_ring_basis,
    iter_bits,
    mask_from_indices,
)


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


@dataclass(frozen=True)
class Zero:
    pass


@dataclass(frozen=True)
class One:
    pass


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class TildeVar:
    name: str


@dataclass(frozen=True)
class Mono:
    kind: str  # one of m x w y s
    indices: tuple[int, ...]  # sorted 1-based


@dataclass(frozen=True)
class Sum:
    parts: tuple["Expr", ...]


@dataclass(frozen=True)
class Prod:
    parts: tuple["Expr", ...]


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


def _not(e: Expr) -> Expr:
    """The '!' sugar: !e = e + 1."""
    return Sum((e, One()))


# --- lexer --------------------------------------------------------------------


class Token(NamedTuple):
    kind: str
    text: str
    pos: int
    value: tuple[str, tuple[int, ...]] | None = None


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


def _set_elements(body: str, offset: int) -> tuple[int, ...]:
    """The sorted distinct elements of a set literal's body, which starts at offset."""
    elements = set()
    for item in body.split(",") if body else ():
        item = item.strip()
        if not item.isdecimal():
            raise LexError(f"bad set element {item!r}", offset)
        try:
            element = int(item)
        except ValueError:  # more digits than the interpreter converts
            raise LexError("set element too long", offset) from None
        if element < 1:
            raise LexError("set elements are 1-based", offset)
        elements.add(element)
    return tuple(sorted(elements))


def tokenize(src: str) -> list[Token]:
    """Token stream for the expression grammar; whitespace separates."""
    tokens: list[Token] = []
    for m in _TOKEN.finditer(src.rstrip()):
        symbol, letter, body, close, word, other = m.groups()
        if symbol:
            tokens.append(Token(_SYMBOL_KINDS[symbol], symbol, m.start(1)))
        elif letter:
            start = m.start(2)
            if not close:
                raise LexError("unterminated set literal", start + 1)
            value = (letter, _set_elements(body, start + 2))
            tokens.append(Token("MONO", src[start : m.end()], start, value))
        elif word and (word[0].isalpha() or word[0] == "_"):
            tokens.append(Token("IDENT", word, m.start(5)))
        else:
            pos = m.start(5 if word else 6)
            raise LexError(f"illegal character {src[pos]!r}", pos)
    tokens.append(Token("EOF", "", len(src)))
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


def parse(tokens: Sequence[Token]) -> Expr:
    """Parse a token stream into an expression tree, in one loop.

    Each open parenthesis has a frame: the number of '!' pending before
    it, and the open operand lists of the four levels.  An operator folds
    the levels below its own into it; ')' folds every level, and the value,
    under the saved '!'s, is the next factor of the enclosing frame.  EOF
    closes the root frame.
    """
    tokens = list(tokens)
    if not tokens or tokens[-1].kind != "EOF":
        end = tokens[-1].pos + len(tokens[-1].text) if tokens else 0
        tokens.append(Token("EOF", "", end))
    stream = iter(tokens)
    frames: list[tuple[int, list[list[Expr]]]] = []  # the enclosing frames
    bangs, levels = 0, [[], [], [], []]
    operand = True  # an operand is due: at the start, after '(', '!' or an operator
    while True:
        tok = next(stream)
        kind = tok.kind
        if not operand and kind not in _FACTOR_STARTS:  # else a juxtaposed factor follows
            if kind in _OPERATORS:
                _fold(levels, _OPERATORS[kind])
                operand = True
                continue
            if kind != ("RPAREN" if frames else "EOF"):
                message = f"expected RPAREN, found {kind}" if frames else f"unexpected token {kind}"
                raise ParseError(message, tok.pos)
            expr = _COMBINE[0](_fold(levels, 0))
            if not frames:
                return expr
            bangs, levels = frames.pop()
        elif kind == "BANG":
            bangs, operand = bangs + 1, True
            continue
        elif kind == "LPAREN":
            frames.append((bangs, levels))
            bangs, levels, operand = 0, [[], [], [], []], True
            continue
        elif kind == "ZERO":
            expr = Zero()
        elif kind == "ONE":
            expr = One()
        elif kind == "IDENT":
            expr = Var(tok.text)
        elif kind == "MONO":
            assert tok.value is not None
            expr = Mono(*tok.value)
        elif kind == "TILDE":
            name = next(stream)
            if name.kind != "IDENT":
                raise ParseError(f"expected IDENT, found {name.kind}", name.pos)
            expr = TildeVar(name.text)
        else:
            raise ParseError(f"unexpected token {kind}", tok.pos)
        for _ in range(bangs):
            expr = _not(expr)
        levels[3].append(expr)
        bangs, operand = 0, False


def parse_text(src: str) -> Expr:
    return parse(tokenize(src))


def format_expr(e: Expr) -> str:
    """Canonical text.

    A tree built by parse, make_sum and make_prod parses back to an equal
    tree; the text of any tree parses to an expression of the same value.
    """
    if isinstance(e, Zero):
        return "0"
    if isinstance(e, One):
        return "1"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, TildeVar):
        return "~" + e.name
    if isinstance(e, Mono):
        return e.kind + "{%s}" % ",".join(str(i) for i in e.indices)
    if isinstance(e, Sum):
        return " + ".join(
            f"({format_expr(p)})" if isinstance(p, Sum) else format_expr(p)
            for p in e.parts
        ) or "0"
    if isinstance(e, Prod):
        return " ".join(
            f"({format_expr(p)})" if isinstance(p, (Sum, Prod)) else format_expr(p)
            for p in e.parts
        ) or "1"
    raise TypeError(f"not an expression: {e!r}")


# --- contexts -----------------------------------------------------------------


@dataclass(frozen=True)
class VarContext:
    """Ordered variable names; position i (1-based) is the i-th coordinate."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be distinct")
        check_dim(len(self.names))

    @property
    def n(self) -> int:
        return len(self.names)

    def position(self, name: str) -> int:
        try:
            return self.names.index(name) + 1
        except ValueError:
            raise EvalError(f"unknown variable {name!r}") from None


def _walk(e: Expr):
    """Each node of the tree, in pre-order; iterative."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (Sum, Prod)):
            stack.extend(reversed(node.parts))


def infer_context(exprs: Iterable[Expr], n: int | None = None) -> VarContext:
    """Context from first-occurrence order of variables.

    The dimension grows to cover the largest monomial-literal index;
    padding positions get fresh names x<i>.
    """
    names: dict[str, None] = {}  # insertion-ordered set: first occurrence wins
    max_index = 0
    for e in exprs:
        for node in _walk(e):
            if isinstance(node, (Var, TildeVar)):
                names.setdefault(node.name)
            elif isinstance(node, Mono) and node.indices:
                max_index = max(max_index, node.indices[-1])
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
    return VarContext(tuple(names))


# --- valuations ---------------------------------------------------------------


def _mono_mask(mono: Mono, n: int) -> int:
    if mono.indices and mono.indices[-1] > n:
        raise EvalError(f"monomial index {mono.indices[-1]} out of range for n={n}")
    return mask_from_indices(mono.indices, n)


def _lift(value: int | OpCoeffs, n: int) -> OpCoeffs:
    """The XY operator of a value in the walk: a truth table is multiplication
    by it, the terms (a, 0) for each a in its X support."""
    if isinstance(value, OpCoeffs):
        return value
    x = _convert_bits(value, 1 << n, "M", "X")
    return OpCoeffs(n, "XY", frozenset((a, 0) for a in iter_bits(x)))


def as_operator(value: RingElem | OpCoeffs) -> OpCoeffs:
    """The XY operator of a valuation: a proposition multiplies by its truth function."""
    if isinstance(value, RingElem):
        return _lift(convert_ring_basis(value, "M").bits, value.n)
    return value


def valuation(e: Expr, ctx: VarContext) -> RingElem | OpCoeffs:
    """The one valuation walk, and the one test of proposition or operator.

    A proposition's value is its truth table, an M-basis ring element;
    anything else's is its XY operator.  Inside the walk a table is a
    packed int (a sum is an XOR, a product an AND), and meets an operator
    leaf (a tilde variable or a y/s literal) as the multiplication
    operator _lift gives; two tables never meet as operators.
    """
    n = ctx.n
    size = 1 << n
    true = (1 << size) - 1

    # a fold: the unit, then how two tables and how two operators combine
    sum_fold = (0, int.__xor__, op_add)
    prod_fold = (true, int.__and__, op_mul)
    end = object()  # what next() gives once a frame's parts are used up
    # one frame per open Sum or Prod: its parts left, its value so far and its
    # fold.  The innermost frame is held in the locals; the outermost is a sum
    # whose one part is e, and the walk ends when it closes.
    frames: list[tuple] = []
    parts, value, (unit, tables, operators) = iter((e,)), 0, sum_fold
    while True:
        node = next(parts, end)
        if node is end:  # the frame closes: its value is a part of the frame below
            if not frames:
                return RingElem(n, "M", value) if isinstance(value, int) else value
            v = value
            parts, value, unit, tables, operators = frames.pop()
        elif isinstance(node, Zero):
            v = 0
        elif isinstance(node, One):
            v = true
        elif isinstance(node, Var):
            # the points at which the variable's bit is set
            v = true ^ _block_mask(size, 1 << (ctx.position(node.name) - 1))
        elif isinstance(node, TildeVar):
            v = op_monomial(n, "XY", 0, 1 << (ctx.position(node.name) - 1))
        elif isinstance(node, Mono):
            mask = _mono_mask(node, n)
            if node.kind == "y":
                v = op_monomial(n, "XY", 0, mask)
            elif node.kind == "s":
                v = convert_op_basis(op_monomial(n, "XS", 0, mask), "XY")
            else:
                v = _convert_bits(1 << mask, size, node.kind.upper(), "M")
        elif isinstance(node, (Sum, Prod)):
            frames.append((parts, value, unit, tables, operators))
            unit, tables, operators = sum_fold if isinstance(node, Sum) else prod_fold
            parts, value = iter(node.parts), unit
            continue
        else:
            raise TypeError(f"not an expression: {node!r}")
        if isinstance(value, int) and isinstance(v, int):
            value = tables(value, v)
        elif value == unit:  # v is an operator, and unit a neutral table
            value = v
        else:
            value = operators(_lift(value, n), _lift(v, n))


def eval_classical(e: Expr, ctx: VarContext) -> RingElem:
    """Truth-function valuation into the Boolean ring (X-basis result)."""
    value = valuation(e, ctx)
    if isinstance(value, OpCoeffs):
        raise EvalError("operator expression in classical context")
    return convert_ring_basis(value, "X")


def eval_quantum(e: Expr, ctx: VarContext) -> OpCoeffs:
    """Operator valuation: variables multiply, tilde variables derive.

    The result is expressed in the XY basis, where it is canonical: two
    expressions denote the same operator iff their values are equal.
    """
    return as_operator(valuation(e, ctx))


def is_classical(e: Expr) -> bool:
    """True when the expression stays in the proposition language."""
    for node in _walk(e):
        if isinstance(node, TildeVar):
            return False
        if isinstance(node, Mono) and node.kind in ("y", "s"):
            return False
    return True


# --- equivalence and entailment -----------------------------------------------


def equivalent(p: Expr, q: Expr, ctx: VarContext) -> bool:
    """True iff both expressions denote the same operator: equal XY terms.

    Propositions denote multiplication operators, and f -> (g -> f g) is
    injective, so two of them are compared on their truth tables.
    """
    pv, qv = valuation(p, ctx), valuation(q, ctx)
    if isinstance(pv, RingElem) and isinstance(qv, RingElem):
        return pv == qv
    return as_operator(pv) == as_operator(qv)


def _entails(pv: RingElem | OpCoeffs, qv: RingElem | OpCoeffs) -> bool:
    if isinstance(pv, RingElem) and isinstance(qv, RingElem):
        return pv.bits & ~qv.bits == 0
    return colspace_contains(to_matrix(as_operator(qv)), to_matrix(as_operator(pv)))


def entails_classical(p: Expr, q: Expr, ctx: VarContext) -> bool:
    """True iff the truth function of p is pointwise below that of q."""
    pv, qv = valuation(p, ctx), valuation(q, ctx)
    if isinstance(pv, OpCoeffs) or isinstance(qv, OpCoeffs):
        raise EvalError("operator expression in classical context")
    return _entails(pv, qv)


def entails_quantum(p: Expr, q: Expr, ctx: VarContext) -> bool:
    """True iff p-hat = q-hat * r is solvable for some operator r.

    Two propositions have diagonal matrices, so for them this is the
    pointwise order of their truth tables, decided with no matrix.
    """
    return _entails(valuation(p, ctx), valuation(q, ctx))


def entailment_witness(p: Expr, q: Expr, ctx: VarContext) -> Gf2Matrix | None:
    """A matrix r with q-hat * r = p-hat, or None when p is not entailed."""
    s = to_matrix(eval_quantum(p, ctx))
    return solve_right(to_matrix(eval_quantum(q, ctx)), s)


# --- normalization ------------------------------------------------------------


def normalize(e: Expr, ctx: VarContext) -> Expr:
    """Canonical form: sum of ordered monomials in the XY valuation.

    Terms are emitted in decreasing order of their (left, right) index
    pair; inside a term, plain variables precede tilde variables, each
    in position order.  Idempotent, and equivalent to the input.
    """
    op = eval_quantum(e, ctx)
    terms = sorted(op.terms, reverse=True)
    if not terms:
        return Zero()
    parts: list[Expr] = []
    for a, b in terms:
        factors: list[Expr] = [Var(ctx.names[i]) for i in iter_bits(a)]
        factors += [TildeVar(ctx.names[i]) for i in iter_bits(b)]
        parts.append(make_prod(factors))
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
