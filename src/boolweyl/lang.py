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
letter or '_' and continues with letters, digits or '_'.  Through the
command line on Python 3.10-3.13, nesting up to 108 parentheses or 978
'!' parses; deeper raises LangError("expression nested too deeply").

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
        if int(item) < 1:
            raise LexError("set elements are 1-based", offset)
        elements.add(int(item))
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

_FACTOR_STARTS = frozenset(
    {"ZERO", "ONE", "IDENT", "TILDE", "MONO", "LPAREN", "BANG"}
)


class _Parser:
    def __init__(self, tokens: Sequence[Token]) -> None:
        self.tokens = list(tokens)
        if not self.tokens or self.tokens[-1].kind != "EOF":
            self.tokens.append(Token("EOF", "", self.tokens[-1].pos if self.tokens else 0))
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind}, found {tok.kind}", tok.pos)
        return self.next()

    def chain(self, parse_operand, kind: str) -> list[Expr]:
        """The operands of `p1 kind p2 kind ... pk`, collected in one loop."""
        operands = [parse_operand()]
        while self.peek().kind == kind:
            self.next()
            operands.append(parse_operand())
        return operands

    def parse_expr(self) -> Expr:
        # p1 -> ... -> pk (right assoc) is !(p1 & ... & p(k-1) & !pk)
        *premises, last = self.chain(self.parse_or, "ARROW")
        return _not(make_prod(premises + [_not(last)])) if premises else last

    def parse_or(self) -> Expr:
        # p1 | ... | pk is !(!p1 & ... & !pk)
        operands = self.chain(self.parse_sum, "PIPE")
        return _not(make_prod([_not(p) for p in operands])) if len(operands) > 1 else operands[0]

    def parse_sum(self) -> Expr:
        return make_sum(self.chain(self.parse_term, "PLUS"))

    def parse_term(self) -> Expr:
        parts = [self.parse_unary()]
        while True:
            kind = self.peek().kind
            if kind in ("DOT", "AMP"):
                self.next()
                parts.append(self.parse_unary())
            elif kind in _FACTOR_STARTS:
                parts.append(self.parse_unary())
            else:
                return make_prod(parts)

    def parse_unary(self) -> Expr:
        if self.peek().kind == "BANG":
            self.next()
            return _not(self.parse_unary())
        return self.parse_factor()

    def parse_factor(self) -> Expr:
        tok = self.next()
        if tok.kind == "ZERO":
            return Zero()
        if tok.kind == "ONE":
            return One()
        if tok.kind == "IDENT":
            return Var(tok.text)
        if tok.kind == "TILDE":
            name = self.expect("IDENT")
            return TildeVar(name.text)
        if tok.kind == "MONO":
            assert tok.value is not None
            return Mono(tok.value[0], tok.value[1])
        if tok.kind == "LPAREN":
            inner = self.parse_expr()
            self.expect("RPAREN")
            return inner
        raise ParseError(f"unexpected token {tok.kind}", tok.pos)


def parse(tokens: Sequence[Token]) -> Expr:
    """Parse a token stream into an expression tree."""
    parser = _Parser(tokens)
    try:
        expr = parser.parse_expr()
    except RecursionError:
        raise LangError("expression nested too deeply") from None
    tail = parser.peek()
    if tail.kind != "EOF":
        raise ParseError(f"unexpected token {tail.kind}", tail.pos)
    return expr


def parse_text(src: str) -> Expr:
    return parse(tokenize(src))


def format_expr(e: Expr) -> str:
    """Canonical text; parses back to an equal tree."""
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
        )
    if isinstance(e, Prod):
        return " ".join(
            f"({format_expr(p)})" if isinstance(p, (Sum, Prod)) else format_expr(p)
            for p in e.parts
        )
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

    def go(node: Expr) -> int | OpCoeffs:
        if isinstance(node, Zero):
            return 0
        if isinstance(node, One):
            return true
        if isinstance(node, Var):
            # the points at which the variable's bit is set
            return true ^ _block_mask(size, 1 << (ctx.position(node.name) - 1))
        if isinstance(node, TildeVar):
            return op_monomial(n, "XY", 0, 1 << (ctx.position(node.name) - 1))
        if isinstance(node, Mono):
            mask = _mono_mask(node, n)
            if node.kind == "y":
                return op_monomial(n, "XY", 0, mask)
            if node.kind == "s":
                return convert_op_basis(op_monomial(n, "XS", 0, mask), "XY")
            return _convert_bits(1 << mask, size, node.kind.upper(), "M")
        if isinstance(node, (Sum, Prod)):
            if isinstance(node, Sum):
                unit, tables, operators = 0, int.__xor__, op_add
            else:
                unit, tables, operators = true, int.__and__, op_mul
            value = unit
            for part in node.parts:
                v = go(part)
                if isinstance(value, int) and isinstance(v, int):
                    value = tables(value, v)
                elif value == unit:  # v is an operator, and unit a neutral table
                    value = v
                else:
                    value = operators(_lift(value, n), _lift(v, n))
            return value
        raise TypeError(f"not an expression: {node!r}")

    try:
        value = go(e)
    except RecursionError:
        raise LangError("expression nested too deeply") from None
    return RingElem(n, "M", value) if isinstance(value, int) else value


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

REWRITE_RULE_NAMES = (
    "assoc-prod",
    "assoc-sum",
    "comm-sum",
    "distrib",
    "unit-sum",
    "unit-prod",
    "nilpotent-sum",
    "idempotent-var",
    "nilpotent-tilde",
    "commute-vars",
    "commute-tildes",
    "commute-mixed",
    "twisted-commutation",
)


def rewrite_rule_instance(name: str, p: Expr, q: Expr, r: Expr, a: str, b: str):
    """A (lhs, rhs) pair instantiating one named rewrite relation.

    p, q, r are arbitrary subexpressions; a and b are distinct variable
    names used by the variable-level rules.
    """
    if name == "assoc-prod":
        return Prod((p, Prod((q, r)))), Prod((Prod((p, q)), r))
    if name == "assoc-sum":
        return Sum((Sum((p, q)), r)), Sum((p, Sum((q, r))))
    if name == "comm-sum":
        return Sum((p, q)), Sum((q, p))
    if name == "distrib":
        return Prod((p, Sum((q, r)))), Sum((Prod((p, q)), Prod((p, r))))
    if name == "unit-sum":
        return Sum((Zero(), p)), p
    if name == "unit-prod":
        return Prod((One(), p)), p
    if name == "nilpotent-sum":
        return Sum((p, p)), Zero()
    if name == "idempotent-var":
        return Prod((Var(a), Var(a))), Var(a)
    if name == "nilpotent-tilde":
        return Prod((TildeVar(a), TildeVar(a))), Zero()
    if name == "commute-vars":
        return Prod((Var(b), Var(a))), Prod((Var(a), Var(b)))
    if name == "commute-tildes":
        return Prod((TildeVar(b), TildeVar(a))), Prod((TildeVar(a), TildeVar(b)))
    if name == "commute-mixed":
        # distinct names only: same-name pairs obey the twisted rule instead
        return Prod((TildeVar(b), Var(a))), Prod((Var(a), TildeVar(b)))
    if name == "twisted-commutation":
        lhs = Prod((TildeVar(a), Var(a)))
        rhs = Sum((Prod((Var(a), TildeVar(a))), TildeVar(a), One()))
        return lhs, rhs
    raise ValueError(f"unknown rewrite rule {name!r}")
