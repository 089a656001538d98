"""Language: lexer, parser, valuations, equivalence, entailment, normal form."""

import random
import re
import sys
import time
import tracemalloc
from collections import Counter
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from boolweyl import checks
from boolweyl.bweyl import (
    OpCoeffs,
    convert_op_basis,
    op_add,
    op_identity,
    op_monomial,
    op_mul,
    op_text,
    to_matrix,
)
from boolweyl.diffops import multiplication_matrix
from boolweyl.gf2lin import solve_right
from boolweyl.lang import (
    EvalError,
    LexError,
    Mono,
    One,
    ParseError,
    Prod,
    Sum,
    TildeVar,
    Var,
    VarContext,
    Zero,
    entailment_witness,
    entails_classical,
    entails_quantum,
    equivalent,
    eval_classical,
    eval_quantum,
    format_expr,
    infer_context,
    is_classical,
    make_prod,
    make_sum,
    normalize,
    parse,
    parse_text,
    rewrite_rule_instance,
    REWRITE_RULE_NAMES,
    tokenize,
    valuation,
)
from boolweyl.ring import RingElem, convert_ring_basis, iter_bits, mask_from_indices, ring_eval, submasks


# --- lexer ----------------------------------------------------------------------


def kinds(src):
    return [t[0] for t in tokenize(src)]


def test_tokenize_basic():
    assert kinds("a(b+1)") == ["IDENT", "LPAREN", "IDENT", "PLUS", "ONE", "RPAREN", "EOF"]
    assert kinds("~a a") == ["TILDE", "IDENT", "IDENT", "EOF"]
    assert kinds("0 . 1") == ["ZERO", "DOT", "ONE", "EOF"]


def test_tokenize_error_offset():
    with pytest.raises(LexError) as err:
        tokenize("a$b")
    assert err.value.offset == 1
    with pytest.raises(LexError):
        tokenize("2")
    with pytest.raises(LexError):
        tokenize("a {1}")  # brace only valid straight after a monomial letter
    with pytest.raises(LexError, match="bad set element '²'") as err:
        tokenize("x{²}")  # a digit, yet not a decimal one
    assert err.value.offset == 2


def test_tokenize_mono_literals():
    toks = tokenize("x{1,2}y{}")
    assert [t[0] for t in toks] == ["MONO", "MONO", "EOF"]
    assert toks[0][3] == ("x", (1, 2))
    assert toks[1][3] == ("y", ())
    with pytest.raises(LexError):
        tokenize("x{1,")
    with pytest.raises(LexError):
        tokenize("x{a}")


def test_tokenize_refuses_a_set_element_too_long_to_convert():
    # int() refuses more digits than the interpreter's limit, 4,300 by default
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(LexError, match="^set element too long at offset 4$"):
        tokenize("a x{1, " + digits + "}")
    assert tokenize("x{50000}")[0][3] == ("x", (50000,))


class Token(NamedTuple):
    """A token of the reference lexer and parser; it equals the plain tuple."""

    kind: str
    text: str
    pos: int
    value: tuple[str, tuple[int, ...]] | None = None


_REFERENCE_SYMBOLS = {
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


def reference_tokenize(src):
    """The per-character lexer that `tokenize` replaced, kept as its reference."""
    tokens = []
    i = 0
    length = len(src)
    while i < length:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "-":
            if i + 1 < length and src[i + 1] == ">":
                tokens.append(Token("ARROW", "->", i))
                i += 2
                continue
            raise LexError("illegal character '-'", i)
        if ch in _REFERENCE_SYMBOLS:
            tokens.append(Token(_REFERENCE_SYMBOLS[ch], ch, i))
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < length and (src[i].isalnum() or src[i] == "_"):
                i += 1
            ident = src[start:i]
            if len(ident) == 1 and ident in "mxwys" and i < length and src[i] == "{":
                close = src.find("}", i + 1)
                if close < 0:
                    raise LexError("unterminated set literal", i)
                body = src[i + 1 : close]
                indices = []
                if body:
                    for item in body.split(","):
                        item = item.strip()
                        if not item.isdecimal():
                            raise LexError(f"bad set element {item!r}", i + 1)
                        value = int(item)
                        if value < 1:
                            raise LexError("set elements are 1-based", i + 1)
                        indices.append(value)
                value = (ident, tuple(sorted(set(indices))))
                tokens.append(Token("MONO", src[start : close + 1], start, value))
                i = close + 1
                continue
            tokens.append(Token("IDENT", ident, start))
            continue
        raise LexError(f"illegal character {ch!r}", i)
    tokens.append(Token("EOF", "", length))
    return tokens


def lex_outcome(lexer, src):
    """Each token's (kind, text, pos, value), or the error's class, message and offset."""
    try:
        return [tuple(t) for t in lexer(src)]
    except LexError as err:
        return type(err), str(err), err.offset


LEX_PINNED = [
    "",
    "   ",
    "a(b+1)",
    "~a a",
    "0 . 1",
    "a$b",
    "2",
    "a {1}",
    "x{²}",
    "x{1,2}y{}",
    "x{1,",
    "x{a}",
    "x{0}",
    "x{ 1 , 2 }",
    "x{1,,2}",
    "x{~1}",  # a '~' marks family elements, not set elements
    "x{2,1,2}",
    "x{１}",
    "xy{1}",
    "X{1}",
    "a{1}",
    "a ",
    "a\t\n\u00a0",
    "a->b -> c",
    "a - > b",
    "a-",
    "_a1 é2 Ⅻ ½",
    "01ab",
    "m{}s{1} + m{1}",
    "x{1,2}y{1,2} x{1}y{1}",
    "(a|b)->!c & d.e",
]

LEX_ALPHABET = "abxmwys{},0123456789~!&|+.()->_$ \t\n²½１éⅫ\u00a0"


def random_lexeme(rng):
    """A likely token: a word, a symbol, a set literal, a space run, or any character."""
    pick = rng.randrange(5)
    if pick == 0:
        return rng.choice("abxmwys_é") + "".join(rng.choices("abxy_19²é", k=rng.randrange(3)))
    if pick == 1:
        return rng.choice(["->", "+", ".", "&", "|", "!", "~", "(", ")", "0", "1"])
    if pick == 2:
        body = "".join(rng.choices("0123456789, ²１\u00a0", k=rng.randrange(6)))
        return rng.choice("mxwysab") + "{" + body + rng.choice(["}", "}", "}", ""])
    if pick == 3:
        return "".join(rng.choices(" \t\n\u00a0", k=rng.randint(1, 2)))
    return rng.choice(LEX_ALPHABET)


def test_tokenize_agrees_with_reference_lexer():
    rng = random.Random("tokenize-differential")
    corpus = LEX_PINNED + ["".join(rng.choices(LEX_ALPHABET, k=rng.randint(1, 10))) for _ in range(50_000)]
    corpus += ["".join(random_lexeme(rng) for _ in range(rng.randint(1, 8))) for _ in range(50_000)]
    diffs = [s for s in corpus if lex_outcome(tokenize, s) != lex_outcome(reference_tokenize, s)]
    assert diffs == [], diffs[:5]


# --- parser ---------------------------------------------------------------------


def test_parse_precedence():
    assert parse_text("a+b c") == Sum((Var("a"), Prod((Var("b"), Var("c")))))
    assert parse_text("(a+b)c") == Prod((Sum((Var("a"), Var("b"))), Var("c")))
    assert parse_text("a.b") == parse_text("a b") == Prod((Var("a"), Var("b")))
    assert parse_text("~a a") == Prod((TildeVar("a"), Var("a")))
    assert parse_text("x{1}") == Mono("x", (1,))


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_text("")
    with pytest.raises(ParseError):
        parse_text("(a + b")
    with pytest.raises(ParseError):
        parse_text("a +")
    with pytest.raises(ParseError):
        parse_text("a ) b")
    with pytest.raises(ParseError):
        parse_text("~ 1")


def test_parse_has_no_nesting_limit():
    assert parse_text("(" * 3000 + "a" + ")" * 3000) == Var("a")


def test_parse_accepts_token_stream():
    assert parse(tokenize("a + b")) == Sum((Var("a"), Var("b")))
    # without its EOF, the stream ends just past its last token
    assert parse(tokenize("a + b")[:-1]) == Sum((Var("a"), Var("b")))
    with pytest.raises(ParseError, match="^expected RPAREN, found EOF at offset 2$"):
        parse(tokenize("(a")[:-1])
    with pytest.raises(ParseError, match="^unexpected token EOF at offset 0$"):
        parse([])


def neg(e):
    return Sum((e, One()))


_REFERENCE_FACTOR_STARTS = frozenset({"ZERO", "ONE", "IDENT", "TILDE", "MONO", "LPAREN", "BANG"})


class _ReferenceParser:
    """The recursive-descent parser that `parse` replaced, kept as its reference."""

    def __init__(self, tokens):
        self.tokens = [Token._make(t) for t in tokens]
        if not self.tokens or self.tokens[-1].kind != "EOF":
            self.tokens.append(Token("EOF", "", self.tokens[-1].pos if self.tokens else 0))
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind}, found {tok.kind}", tok.pos)
        return self.next()

    def chain(self, parse_operand, kind):
        operands = [parse_operand()]
        while self.peek().kind == kind:
            self.next()
            operands.append(parse_operand())
        return operands

    def parse_expr(self):
        *premises, last = self.chain(self.parse_or, "ARROW")
        return neg(make_prod(premises + [neg(last)])) if premises else last

    def parse_or(self):
        operands = self.chain(self.parse_sum, "PIPE")
        return neg(make_prod([neg(p) for p in operands])) if len(operands) > 1 else operands[0]

    def parse_sum(self):
        return make_sum(self.chain(self.parse_term, "PLUS"))

    def parse_term(self):
        parts = [self.parse_unary()]
        while True:
            kind = self.peek().kind
            if kind in ("DOT", "AMP"):
                self.next()
                parts.append(self.parse_unary())
            elif kind in _REFERENCE_FACTOR_STARTS:
                parts.append(self.parse_unary())
            else:
                return make_prod(parts)

    def parse_unary(self):
        if self.peek().kind == "BANG":
            self.next()
            return neg(self.parse_unary())
        return self.parse_factor()

    def parse_factor(self):
        tok = self.next()
        if tok.kind == "ZERO":
            return Zero()
        if tok.kind == "ONE":
            return One()
        if tok.kind == "IDENT":
            return Var(tok.text)
        if tok.kind == "TILDE":
            return TildeVar(self.expect("IDENT").text)
        if tok.kind == "MONO":
            return Mono(tok.value[0], tok.value[1])
        if tok.kind == "LPAREN":
            inner = self.parse_expr()
            self.expect("RPAREN")
            return inner
        raise ParseError(f"unexpected token {tok.kind}", tok.pos)


def reference_parse(tokens):
    parser = _ReferenceParser(tokens)
    expr = parser.parse_expr()
    tail = parser.peek()
    if tail.kind != "EOF":
        raise ParseError(f"unexpected token {tail.kind}", tail.pos)
    return expr


def parse_outcome(parser, tokens):
    """The tree, or the error's class, message and offset."""
    try:
        return parser(tokens)
    except ParseError as err:
        return type(err), str(err), err.pos


PARSE_PINNED = [
    "", "a", "a ()", "a (b", "a !", "a ! )", "a !(b) c", "(a) ~", "~ (a)", "a ->", "a | | b", ")", "a ) b",
]
GRAMMAR_PIECES = [
    "(", "(", ")", ")", "!", "~", "~a", "a", "b", "0", "1", "x{1}", "y{2}", "+", "|", "->", "&", ".",
]


def test_parse_agrees_with_reference_parser():
    rng = random.Random("parse-differential")
    streams = [tokenize(text) for text in PARSE_PINNED]
    for i in range(4000):
        tokens = tokenize(random_text(rng, rng.randint(1, 4), rng.randint(0, 5), quantum=i % 2 == 1))
        streams.append(tokens)
        # the same stream with one token dropped: most often unbalanced
        drop = rng.randrange(len(tokens) - 1)
        streams.append(tokens[:drop] + tokens[drop + 1 :])
    for _ in range(6000):
        streams.append(tokenize(" ".join(rng.choices(GRAMMAR_PIECES, k=rng.randint(1, 12)))))
    kinds = ("tree", "unexpected token", "expected RPAREN", "expected IDENT")
    seen = set()
    for tokens in streams:
        outcome = parse_outcome(parse, tokens)
        assert outcome == parse_outcome(reference_parse, tokens), [t[1] for t in tokens]
        message = outcome[1] if isinstance(outcome, tuple) else "tree"
        seen.update(kind for kind in kinds if message.startswith(kind))
    assert seen == set(kinds)


def lexer_test_texts():
    """The texts of test_tokenize_agrees_with_reference_lexer, drawn alike."""
    rng = random.Random("tokenize-differential")
    corpus = LEX_PINNED + ["".join(rng.choices(LEX_ALPHABET, k=rng.randint(1, 10))) for _ in range(50_000)]
    corpus += ["".join(random_lexeme(rng) for _ in range(rng.randint(1, 8))) for _ in range(50_000)]
    return corpus


def parser_test_texts():
    """The texts of test_parse_agrees_with_reference_parser, drawn alike: each
    with the position of the token that test drops from it, or None."""
    rng = random.Random("parse-differential")
    texts = [(text, None) for text in PARSE_PINNED]
    for i in range(4000):
        text = random_text(rng, rng.randint(1, 4), rng.randint(0, 5), quantum=i % 2 == 1)
        texts.append((text, rng.randrange(len(tokenize(text)) - 1)))
    for _ in range(6000):
        texts.append((" ".join(rng.choices(GRAMMAR_PIECES, k=rng.randint(1, 12))), None))
    return texts


def front_end_outcome(route, src):
    """The tree of a text, or the lexing or parse error's class, message and offset."""
    try:
        return route(src)
    except LexError as err:
        return type(err), str(err), err.offset
    except ParseError as err:
        return type(err), str(err), err.pos


def test_plain_tuples_and_tokens_parse_alike():
    # parse_text parses the plain tuples of tokenize; the reference front end
    # lexes and parses Tokens
    parsed = parser_test_texts()
    seen = Counter()
    for text in lexer_test_texts() + [text for text, _ in parsed]:
        outcome = front_end_outcome(parse_text, text)
        assert outcome == front_end_outcome(lambda s: reference_parse(reference_tokenize(s)), text), text
        seen[outcome[0].__name__ if isinstance(outcome, tuple) else "tree"] += 1
    assert set(seen) == {"tree", "LexError", "ParseError"}
    dropped = 0
    for text, drop in parsed:
        if drop is not None:
            plain = tokenize(text)
            stream = plain[:drop] + plain[drop + 1 :]
            assert parse_outcome(parse, stream) == parse_outcome(reference_parse, stream), text
            dropped += 1
    assert dropped == 4000


@pytest.mark.parametrize(("text", "offset"), (("a ) $", 4), ("(a $", 3), ("~~a $", 4)))
def test_a_lexing_error_wins_over_an_earlier_parse_error(text, offset):
    with pytest.raises(LexError, match=re.escape(f"illegal character '$' at offset {offset}")) as err:
        parse_text(text)
    assert err.value.offset == offset


def dnf_text(disjuncts):
    """A DNF over the 13 variables a..l, n: three literals per disjunct, the first negated."""
    v = "abcdefghijkln"
    return " | ".join(f"!{v[i % 13]} & {v[(i * 5 + 1) % 13]} & {v[(i * 7 + 2) % 13]}" for i in range(disjuncts))


def test_the_front_end_makes_no_token():
    text = dnf_text(2000)
    tokens = tokenize(text)
    assert all(type(t) is tuple for t in tokens)
    assert parse_text(text) == parse(tokens)


def test_the_walk_places_each_variable_once(monkeypatch):
    from boolweyl import lang

    e = parse_text(dnf_text(2000))
    ctx = infer_context([e])
    assert ctx.n == 13
    calls = []
    position = VarContext.position

    def counting(self, name):
        calls.append(name)
        return position(self, name)

    monkeypatch.setattr(VarContext, "position", counting)
    value = lang._value(e, ctx)
    monkeypatch.undo()
    assert sorted(calls) == sorted(ctx.names)
    assert value == lang._value(e, ctx)
    # the first disjunct, !a & b & c, implies the DNF
    first = lang._value(parse_text("!a & b & c"), ctx)
    assert first & ~value == 0 and first != 0


def test_each_leaf_is_built_once_per_parse():
    nodes = list(reference_walk(parse_text("a b a | !a")))
    a = [node for node in nodes if node == Var("a")]
    ones = [node for node in nodes if node == One()]
    assert len(a) == 3 and len({id(node) for node in a}) == 1
    assert len(ones) == 4 and len({id(node) for node in ones}) == 1
    nodes = list(reference_walk(parse_text("~a x{2,1} ~a x{1,2} a")))
    assert len({id(node) for node in nodes if isinstance(node, TildeVar)}) == 1
    assert len({id(node) for node in nodes if isinstance(node, Mono)}) == 1
    assert Var("a") in nodes and TildeVar("a") in nodes


def test_sugar_trees_hold_each_operand_once():
    p, q = Var("p"), Prod((Var("a"), Var("b")))
    assert parse_text("p | a b") == parse_text("!(!p & !(a b))")
    assert parse_text("p | a b") == Sum((Prod((Sum((p, One())), Sum((q, One())))), One()))
    assert parse_text("p -> a b") == parse_text("!(p & !(a b))")
    assert parse_text("p -> a b") == Sum((Prod((p, Sum((q, One())))), One()))


def test_connective_sugar():
    ctx = VarContext(("a", "b"))
    assert equivalent(parse_text("a | b"), parse_text("a + b + a b"), ctx)
    assert equivalent(parse_text("a & b"), parse_text("a b"), ctx)
    assert equivalent(parse_text("!a"), parse_text("a + 1"), ctx)
    assert equivalent(parse_text("a -> b"), parse_text("!a | b"), ctx)


EXPR_LEAVES = st.sampled_from(
    [Var("a"), Var("b"), TildeVar("a"), TildeVar("b"), Zero(), One(), Mono("x", (1, 2)), Mono("s", (2,))]
)


def expr_nodes(children):
    return st.builds(
        lambda parts, is_sum: (Sum if is_sum else Prod)(tuple(parts)),
        st.lists(children, min_size=2, max_size=3),
        st.booleans(),
    )


EXPRS = st.recursive(EXPR_LEAVES, expr_nodes, max_leaves=12)


@given(EXPRS)
@settings(max_examples=200)
def test_format_parse_round_trip(expr):
    assert parse_text(format_expr(expr)) == expr


def test_format_of_empty_and_one_part_nodes_keeps_the_value():
    a, b, ta = Var("a"), Var("b"), TildeVar("a")
    trees = [
        Sum(()),
        Prod(()),
        Prod((Sum(()), a)),
        Sum((Prod(()), ta)),
        Prod((Prod(()), Sum(()))),
        Sum((Sum(()), Sum(()))),
        Sum((a,)),
        Prod((ta,)),
        Prod((Sum((a, b)),)),
        Sum((Prod((Sum((a, ta)),)), b)),
        Prod((Prod((Sum((a, b)),)), Sum((ta,)), Prod(()))),
    ]
    ctx = VarContext(("a", "b"))
    for e in trees:
        assert valuation(parse_text(format_expr(e)), ctx) == valuation(e, ctx), e
    assert [format_expr(e) for e in trees[:3]] == ["0", "1", "(0) a"]


def reference_format_expr(e):
    """The recursive writer that `format_expr` replaced, kept as its reference."""
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
        return " + ".join(_reference_part(p, Sum) for p in e.parts) or "0"
    if isinstance(e, Prod):
        return " ".join(_reference_part(p, (Sum, Prod)) for p in e.parts) or "1"
    raise TypeError(f"not an expression: {e!r}")


def _reference_part(p, wrap):
    text = reference_format_expr(p)
    return f"({text})" if isinstance(p, wrap) else text


def test_format_matches_the_recursive_writer():
    # trees of any shape: empty and one-part nodes, sums in sums, products in products
    leaves = (Zero(), One(), Var("a"), TildeVar("b"), Mono("x", (1, 2)), Mono("s", ()), Mono("m", (3,)))
    rng = random.Random(29)

    def tree(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(leaves)
        parts = tuple(tree(depth - 1) for _ in range(rng.randint(0, 3)))
        return Sum(parts) if rng.getrandbits(1) else Prod(parts)

    for _ in range(3000):
        e = tree(rng.randint(0, 6))
        assert format_expr(e) == reference_format_expr(e), e
    with pytest.raises(TypeError, match="^not an expression"):
        format_expr(Sum((Var("a"), "b")))


def test_format_of_a_tree_deeper_than_the_stack():
    # the parse of k '!' nests k sums; the writer keeps its own stack
    depth = 100_000
    text = format_expr(parse_text("!" * depth + "a"))
    assert text == "(" * (depth - 1) + "a + 1" + ") + 1" * (depth - 1)


# --- contexts -------------------------------------------------------------------


def test_var_context():
    ctx = VarContext(("p", "q"))
    assert ctx.n == 2
    assert ctx.position("q") == 2
    with pytest.raises(EvalError):
        ctx.position("r")
    with pytest.raises(ValueError):
        VarContext(("p", "p"))


def test_infer_context():
    e = parse_text("b + a b")
    assert infer_context([e]).names == ("b", "a")
    e2 = parse_text("x{3} a")
    assert infer_context([e2]).n == 3
    assert infer_context([parse_text("a")], n=3).n == 3
    with pytest.raises(EvalError):
        infer_context([parse_text("x{3}")], n=2)


def test_infer_context_rejects_huge_dimension_at_once():
    e = parse_text("x{50000}")
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"dimension must be in \[1, 16\]"):
        infer_context([e])
    assert time.perf_counter() - start < 1.0


def test_infer_context_rejects_many_names_in_linear_time():
    # a membership scan per name would make this quadratic: seconds, not ms
    e = parse_text(" ".join(f"v{i}" for i in range(20_000)))
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"dimension must be in \[1, 16\]"):
        infer_context([e])
    assert time.perf_counter() - start < 0.5


def test_infer_context_pads_around_taken_names():
    assert infer_context([parse_text("x2 b x2")], n=4).names == ("x2", "b", "x3", "x4")
    assert infer_context([parse_text("x3")], n=3).names == ("x3", "x2", "x3_")


def reference_walk(e):
    """Each node of the tree, in pre-order: the generator walk that infer_context used."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (Sum, Prod)):
            stack.extend(reversed(node.parts))


def reference_infer_context(exprs, n=None):
    """The generator-walk infer_context that the explicit-stack loop replaced, kept as its reference."""
    names = {}
    max_index = 0
    for e in exprs:
        for node in reference_walk(e):
            if isinstance(node, (Var, TildeVar)):
                names.setdefault(node.name)
            elif isinstance(node, Mono) and node.indices:
                max_index = max(max_index, node.indices[-1])
    want = max(len(names), max_index, 1)
    if n is not None:
        if n < want:
            raise EvalError(f"explicit n={n} too small; expression needs n>={want}")
        want = n
    while len(names) < want:
        filler = f"x{len(names) + 1}"
        while filler in names:
            filler += "_"
        names.setdefault(filler)
    return VarContext(names)


def reference_is_classical(e):
    return not any(
        isinstance(node, TildeVar) or isinstance(node, Mono) and node.kind in ("y", "s")
        for node in reference_walk(e)
    )


def context_outcome(infer, exprs, n):
    try:
        ctx = infer(exprs, n)
    except EvalError as err:
        return str(err)
    return ctx.names, ctx.n


def with_monos(rng, e):
    """The tree with about a quarter of its leaves replaced by random monomial literals."""
    if isinstance(e, (Sum, Prod)):
        return type(e)(tuple(with_monos(rng, part) for part in e.parts))
    if rng.random() < 0.25:
        return Mono(rng.choice("mxwys"), tuple(sorted(rng.sample(range(1, 9), rng.randint(0, 3)))))
    return e


def test_infer_context_agrees_with_reference():
    # the explicit stack must visit the trees, and each tree's parts, in order
    rng = random.Random("infer-context-reference")
    names = ("a", "b", "c", "x2", "x3", "x4_", "é")
    outcomes = Counter()
    for _ in range(3000):
        exprs = [
            with_monos(rng, checks.random_expr(rng, names, rng.randint(0, 4), quantum=rng.random() < 0.5))
            for _ in range(rng.randint(1, 3))
        ]
        n = rng.choice((None, rng.randint(1, 10)))
        outcome = context_outcome(infer_context, exprs, n)
        assert outcome == context_outcome(reference_infer_context, exprs, n), (exprs, n)
        outcomes[type(outcome)] += 1
        assert [is_classical(e) for e in exprs] == [reference_is_classical(e) for e in exprs]
    assert outcomes[str] > 100 and outcomes[tuple] > 1000
    for text in ("(" * 100_000 + "a" + ")" * 100_000, "(a " * 100_000 + "a" + ")" * 100_000, "!" * 100_000 + "a"):
        exprs = [parse_text(text)]
        for n in (None, 1, 2):
            assert context_outcome(infer_context, exprs, n) == context_outcome(reference_infer_context, exprs, n)


# --- valuations -----------------------------------------------------------------


def test_eval_classical_examples():
    ctx = VarContext(("a", "b"))
    assert eval_classical(parse_text("a+a"), ctx).bits == 0
    f = eval_classical(parse_text("a a"), ctx)
    assert f == eval_classical(parse_text("a"), ctx)
    orf = convert_ring_basis(eval_classical(parse_text("a b + a + b"), ctx), "M")
    assert [ring_eval(orf, p) for p in range(4)] == [0, 1, 1, 1]


def test_eval_classical_rejects_operators():
    ctx = VarContext(("a",))
    with pytest.raises(EvalError):
        eval_classical(parse_text("~a"), ctx)
    with pytest.raises(EvalError):
        eval_classical(parse_text("y{1}"), ctx)
    with pytest.raises(EvalError):
        eval_classical(parse_text("c"), ctx)


def test_eval_quantum_examples():
    ctx = VarContext(("a",))
    op = eval_quantum(parse_text("~a a"), ctx)
    assert op.basis == "XY"
    assert op.terms == frozenset({(1, 1), (0, 1), (0, 0)})
    assert not eval_quantum(parse_text("~a ~a"), ctx).terms
    assert op_text(eval_quantum(parse_text("1"), ctx)) == "1"
    with pytest.raises(EvalError):
        eval_quantum(parse_text("zz"), ctx)


def test_eval_quantum_mono_literals():
    ctx = infer_context([parse_text("x{1,2}y{1}")])
    op = eval_quantum(parse_text("x{1,2}y{1}"), ctx)
    assert op.terms == frozenset({(0b11, 0b01)})
    # shift literal evaluates through the shifted basis
    ctx2 = VarContext(("a",))
    op2 = eval_quantum(parse_text("s{1}"), ctx2)
    assert op2.terms == frozenset({(0, 1), (0, 0)})  # s = y + 1 in XY


def test_or_chain_costs_linear_time():
    # each operand appears once in the tree of a k-disjunct chain, so
    # every walk and valuation is linear in k
    names = "abcdefgh"
    e = parse_text(" | ".join(names[i % 8] for i in range(40)))
    start = time.perf_counter()
    assert is_classical(e)
    ctx = infer_context([e])
    f = eval_classical(e, ctx)
    op = eval_quantum(e, ctx)
    text = format_expr(e)
    assert time.perf_counter() - start < 1.0
    assert len(text) < 1000
    assert parse_text(text) == e
    assert ctx.names == tuple(names)
    # the OR of all eight variables is false only at the empty point
    assert convert_ring_basis(f, "M").bits == (1 << 256) - 2
    assert op.terms == frozenset((a, 0) for a in f.support())


def reference_eval_quantum(e, ctx):
    """The operator valuation taken literally: an operator at every node,
    and op_add and op_mul at every sum and product, propositions included."""
    n = ctx.n

    def go(node):
        if isinstance(node, Zero):
            return OpCoeffs(n, "XY", ())
        if isinstance(node, One):
            return op_identity(n, "XY")
        if isinstance(node, Var):
            return op_monomial(n, "XY", 1 << (ctx.position(node.name) - 1), 0)
        if isinstance(node, TildeVar):
            return op_monomial(n, "XY", 0, 1 << (ctx.position(node.name) - 1))
        if isinstance(node, Mono):
            mask = mask_from_indices(node.indices, n)
            if node.kind in ("y", "s"):
                return op_monomial(n, "X" + node.kind.upper(), 0, mask)
            return op_monomial(n, node.kind.upper() + "Y", mask, 0)
        value = OpCoeffs(n, "XY", ()) if isinstance(node, Sum) else op_identity(n, "XY")
        for part in node.parts:
            value = (op_add if isinstance(node, Sum) else op_mul)(value, go(part))
        return value

    return convert_op_basis(go(e), "XY")


def random_text(rng, n, depth, quantum):
    """Expression text over n variables: every literal kind (the operator
    ones only when quantum) under every connective of the grammar."""
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.35:
            return "abcdef"[rng.randrange(n)]
        if roll < 0.5 and quantum:
            return "~" + "abcdef"[rng.randrange(n)]
        if roll < 0.6:
            return rng.choice("01")
        kind = rng.choice("mxwys" if quantum else "mxw")
        indices = rng.sample(range(1, n + 1), rng.randint(0, min(n, 3)))
        return kind + "{" + ",".join(map(str, indices)) + "}"
    lhs = random_text(rng, n, depth - 1, quantum)
    op = rng.choice(("+", " ", ".", "&", "|", "->", "!"))
    if op == "!":
        return f"!({lhs})"
    return f"({lhs}) {op} ({random_text(rng, n, depth - 1, quantum)})"


def test_eval_quantum_matches_reference_walk():
    rng = random.Random("eval-quantum-reference")
    kinds = set()
    for i in range(2400):
        n = rng.randint(1, 6)
        e = parse_text(random_text(rng, n, rng.randint(1, 4), quantum=i % 2 == 1))
        ctx = infer_context([e], n)
        assert eval_quantum(e, ctx) == reference_eval_quantum(e, ctx), format_expr(e)
        kinds.add(is_classical(e))
    assert kinds == {True, False}


def depth(e):
    return 1 + max(map(depth, e.parts)) if isinstance(e, (Sum, Prod)) else 1


def test_chains_have_the_values_of_nested_two_operand_rules():
    # the reference nests the two-operand rules the way a chain groups:
    # '|' to the left, '->' to the right; the parsed chain is as deep as
    # its deepest operand plus the six levels of the two expansions
    rng = random.Random("connective-chains")
    shapes = set()  # (number of '->' operands, longest '|' chain)
    for i in range(600):
        n = rng.randint(1, 4)
        groups = [
            [random_text(rng, n, rng.randint(0, 2), quantum=i % 2 == 1) for _ in range(rng.randint(1, 5))]
            for _ in range(rng.randint(1, 4))
        ]
        text = " -> ".join(" | ".join(f"({p})" for p in group) for group in groups)
        ors = []
        for group in groups:
            acc = parse_text(group[0])
            for p in group[1:]:
                acc = neg(Prod((neg(acc), neg(parse_text(p)))))
            ors.append(acc)
        reference = ors[-1]
        for p in reversed(ors[:-1]):
            reference = neg(Prod((p, neg(reference))))
        e = parse_text(text)
        ctx = infer_context([e, reference], n)
        assert eval_quantum(e, ctx) == eval_quantum(reference, ctx), text
        assert depth(e) <= max(depth(parse_text(p)) for group in groups for p in group) + 6, text
        shapes.add((len(groups), max(map(len, groups))))
    assert {g for g, _ in shapes} == {1, 2, 3, 4} and {k for _, k in shapes} == {1, 2, 3, 4, 5}
    assert any(g == 1 < k for g, k in shapes) and any(k == 1 < g for g, k in shapes)


def test_valuation_of_a_tree_deeper_than_the_stack():
    e = Var("a")
    for _ in range(5000):
        e = neg(e)
    a, not_a = parse_text("a"), parse_text("a + 1")
    ctx = VarContext(("a",))
    assert valuation(e, ctx) == valuation(a, ctx)
    assert valuation(neg(e), ctx) == valuation(not_a, ctx)
    assert eval_quantum(e, ctx) == eval_quantum(a, ctx)
    assert equivalent(e, a, ctx) and equivalent(neg(e), not_a, ctx) and not equivalent(e, not_a, ctx)
    assert entails_quantum(e, a, ctx) and entails_quantum(a, e, ctx) and not entails_quantum(e, not_a, ctx)
    # leaves are valued left to right: the first unknown variable is the one reported
    with pytest.raises(EvalError, match="^unknown variable 'b'$"):
        valuation(Prod((e, Sum((Var("b"), e)), Var("c"))), ctx)


def test_valuation_of_empty_sums_and_products():
    ctx = VarContext(("a",))
    assert valuation(Sum(()), ctx) == valuation(Zero(), ctx)
    assert valuation(Prod(()), ctx) == valuation(One(), ctx)
    assert eval_quantum(Prod((TildeVar("a"), Sum(()))), ctx) == eval_quantum(Zero(), ctx)


@pytest.mark.parametrize(
    "e, proposition",
    [
        (Sum(()), True),
        (Prod(()), True),
        (Sum((Var("a"),)), True),
        (Prod((Sum(()),)), True),
        (Sum((TildeVar("a"),)), False),
        (Prod((Mono("s", (1,)),)), False),
        (Prod((TildeVar("a"), Var("b"))), False),
        (Sum((Sum(()), TildeVar("a"))), False),
        (Prod((Prod(()), TildeVar("a"), Zero())), False),
    ],
)
def test_edge_frames_match_the_reference_walk(e, proposition):
    # parse makes no Sum or Prod with fewer than two parts, so the random
    # texts of test_eval_quantum_matches_reference_walk never reach a frame
    # that closes on its unit or on its first part alone
    ctx = VarContext(("a", "b"))
    assert isinstance(valuation(e, ctx), RingElem) is proposition is is_classical(e)
    assert eval_quantum(e, ctx) == reference_eval_quantum(e, ctx)


@pytest.mark.parametrize(
    "text, products, sums, table_lifts",
    [
        ("~a", 0, 0, 0),
        ("a ~b", 1, 0, 1),
        ("~a b", 1, 0, 1),
        ("a ~b + ~a b", 2, 1, 2),
        ("~a + 1", 0, 1, 1),
        ("!~a", 0, 1, 1),
        ("y{1} s{2}", 1, 0, 0),
        ("(a | b) ~c", 1, 0, 1),
        ("a b + a", 0, 0, 0),
    ],
)
def test_valuation_does_only_the_arithmetic_the_text_writes(text, products, sums, table_lifts, monkeypatch):
    # a sum or product starts from its first part: no unit is lifted, and
    # no empty operator is added or identity multiplied.  Operators are MY
    # tables throughout: no term-set product, sum or basis change runs
    from boolweyl import bweyl, lang

    e = parse_text(text)
    ctx = infer_context([e])
    calls = Counter()

    def counting(module, name):
        real = getattr(module, name)

        def call(*args):
            calls[name] += 1
            calls["table lifts"] += name == "operator_tables" and isinstance(args[0], int)
            return real(*args)

        monkeypatch.setattr(module, name, call)

    def refuse(*args):
        raise AssertionError("term-set arithmetic in the walk")

    counting(bweyl, "table_product")
    counting(bweyl, "table_sum")
    counting(bweyl, "operator_tables")
    for name in ("op_mul", "op_add", "convert_op_basis"):
        monkeypatch.setattr(bweyl, name, refuse)
    value = lang._value(e, ctx)
    monkeypatch.undo()
    assert (calls["table_product"], calls["table_sum"], calls["table lifts"]) == (products, sums, table_lifts)
    operator = OpCoeffs(ctx.n, "MY", bweyl.operator_tables(value))
    assert convert_op_basis(operator, "XY") == reference_eval_quantum(e, ctx)


def test_the_walk_hands_its_table_of_1_to_the_tables(monkeypatch):
    # Tables is made at the walk's first operator sum or product, after the
    # walk has made its table of 1; it holds that object, which the table
    # product and the interning test by identity.  At n = 4 the table of 1,
    # 2^16 - 1, is no cached small int
    from boolweyl import bweyl, lang

    made = []

    class Recording(bweyl.Tables):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(bweyl, "Tables", Recording)
    value = lang._value(parse_text("~a + 1"), VarContext("abcd"))
    [tables] = made
    assert value == {0: 0xFFFF, 1: 0xFFFF}
    assert all(t is tables.true for t in value.values())


def test_the_table_product_sums_as_it_goes():
    # (P)(P) with P = (a|...|i)(1+~a)...(1+~i) at n = 9: nearly every leaf of
    # the product meets a derivative index already summed, so sums deferred
    # to the end would hold one entry per leaf and index (2.5 MiB)
    from boolweyl import lang

    names = "abcdefghi"
    p = "(" + "|".join(names) + ")" + "".join(f"(1+~{v})" for v in names)
    e = parse_text(f"({p})({p})")
    ctx = infer_context([e], 9)
    tracemalloc.start()
    try:
        lang._value(e, ctx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 << 19, peak  # 1.5 MiB


def test_is_classical():
    assert is_classical(parse_text("a b + 1"))
    assert is_classical(parse_text("m{1} x{2}"))
    assert not is_classical(parse_text("~a"))
    assert not is_classical(parse_text("s{1}"))


# --- equivalence ------------------------------------------------------------------


def test_equivalence_examples():
    ctx = VarContext(("a", "b", "c"))
    assert equivalent(parse_text("a(b+c)"), parse_text("a b+a c"), ctx)
    assert not equivalent(parse_text("~a a"), parse_text("a ~a"), VarContext(("a",)))
    assert equivalent(parse_text("a b"), parse_text("b a"), ctx)


def test_equivalence_is_matrix_equality():
    rng = random.Random(59)
    names = ("a", "b")
    ctx = VarContext(names)
    seen = set()
    for i in range(300):
        p = checks.random_expr(rng, names, 2)
        if i % 2:
            q = checks.random_expr(rng, names, 2)
        else:
            rule = rng.choice(REWRITE_RULE_NAMES)
            p, q = rewrite_rule_instance(rule, p, checks.random_expr(rng, names, 1), One(), "a", "b")
        want = to_matrix(eval_quantum(p, ctx)) == to_matrix(eval_quantum(q, ctx))
        assert equivalent(p, q, ctx) == want
        seen.add(want)
    assert seen == {True, False}


def test_classical_embedding_commutes():
    # multiplying by a classical valuation equals the operator valuation
    rng = random.Random(3)
    ctx = VarContext(("a", "b"))
    for _ in range(50):
        e = checks.random_expr(rng, ctx.names, 3, quantum=False)
        assert multiplication_matrix(eval_classical(e, ctx)) == to_matrix(
            eval_quantum(e, ctx)
        )


# --- entailment -------------------------------------------------------------------


def test_entails_classical_examples():
    ctx = VarContext(("a", "b"))
    assert entails_classical(parse_text("a b"), parse_text("a"), ctx)
    assert not entails_classical(parse_text("a"), parse_text("a b"), ctx)
    assert entails_classical(parse_text("0"), parse_text("a b + b"), ctx)
    with pytest.raises(EvalError):
        entails_classical(parse_text("~a"), parse_text("a"), ctx)


def test_entails_classical_iff_product_absorbs():
    rng = random.Random(4)
    ctx = VarContext(("a", "b"))
    for _ in range(60):
        p = checks.random_expr(rng, ctx.names, 2, quantum=False)
        q = checks.random_expr(rng, ctx.names, 2, quantum=False)
        pv = eval_classical(p, ctx)
        qv = eval_classical(q, ctx)
        from boolweyl.ring import ring_mul

        assert entails_classical(p, q, ctx) == (
            convert_ring_basis(ring_mul(pv, qv), "M").bits
            == convert_ring_basis(pv, "M").bits
        )


def test_entails_quantum_examples():
    ctx = VarContext(("a",))
    assert entails_quantum(parse_text("~a a"), parse_text("1"), ctx)
    assert not entails_quantum(parse_text("1"), parse_text("0"), ctx)
    assert entails_quantum(parse_text("0"), parse_text("~a"), ctx)


def test_entailment_witness():
    ctx = VarContext(("a", "b"))
    p = parse_text("a ~a b")
    witness = entailment_witness(p, parse_text("1"), ctx)
    assert witness is not None
    assert witness == to_matrix(eval_quantum(p, ctx))
    assert entailment_witness(parse_text("1"), parse_text("0"), ctx) is None


def test_witness_at_n14_is_cut_from_its_blocks():
    # ~a a has the derivative of one coordinate: 2^11 equal blocks of side 8,
    # solved once; the two full matrices would take some 120 MiB
    ctx = infer_context([parse_text("~a a"), parse_text("1")], 14)
    tracemalloc.start()
    try:
        witness = entailment_witness(parse_text("~a a"), parse_text("1"), ctx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # q-hat is the identity, so the witness is p-hat, the derivative along a
    # of the multiple by a: row r is the point r with a set
    assert witness is not None and witness.rows == tuple(1 << (r | 1) for r in range(1 << 14))
    assert peak < 40 << 20, peak


def test_quantum_extends_classical_entailment():
    rng = random.Random(5)
    for n in (1, 2, 3):
        names = tuple("pqr"[:n])
        ctx = VarContext(names)
        for _ in range(30):
            p = checks.random_expr(rng, names, 2, quantum=False)
            q = checks.random_expr(rng, names, 2, quantum=False)
            assert entails_classical(p, q, ctx) == entails_quantum(p, q, ctx)


def matrix_witness(p, q, ctx):
    """solve_right on the full matrices of q-hat and p-hat."""
    return solve_right(to_matrix(eval_quantum(q, ctx)), to_matrix(eval_quantum(p, ctx)))


def test_entails_quantum_matches_the_matrix_route():
    # two propositions are decided on truth tables, anything else on the
    # diagonal blocks; the full matrices are solved for every pair
    rng = random.Random(11)
    seen = set()
    for n in range(1, 6):
        names = tuple("abcde"[:n])
        ctx = VarContext(names)
        for i in range(220):
            q = checks.random_expr(rng, names, 2, quantum=i % 4 >= 2)
            r = checks.random_expr(rng, names, 2, quantum=i % 2 == 1)
            p = Prod((q, r)) if rng.getrandbits(1) else r  # q r is entailed by q
            got = entails_quantum(p, q, ctx)
            assert got == (matrix_witness(p, q, ctx) is not None), (p, q)
            seen.add((is_classical(p), is_classical(q), got))
    kinds = {(pc, qc) for pc in (True, False) for qc in (True, False)}
    assert seen == {(pc, qc, got) for pc, qc in kinds for got in (True, False)}


def operator_expr(f, names):
    """An expression whose operator valuation is the XY operator f."""
    return make_sum(
        [
            make_prod([Var(names[i]) for i in iter_bits(a)] + [TildeVar(names[i]) for i in iter_bits(b)])
            for a, b in sorted(f.terms)
        ]
    )


def test_block_witness_is_the_full_matrix_witness():
    # the witness solved block by block and placed on every coset is the
    # one that solve_right finds on the full matrices, "no" included
    rng = random.Random(31)
    counts = Counter()
    for trial in range(1400):
        n = 1 + trial % 7
        names = tuple(f"v{i}" for i in range(n))
        ctx = VarContext(names)
        touched = rng.getrandbits(n) & rng.getrandbits(n)
        if trial % 5 == 0:
            touched = (1 << n) - 1  # the derivatives touch every coordinate: one block

        def draw(size):
            terms = {(rng.getrandbits(n), rng.getrandbits(n) & touched) for _ in range(size)}
            return operator_expr(OpCoeffs(n, "XY", frozenset(terms)), names)

        q = draw(rng.randint(1, 4))
        p = Prod((q, draw(rng.randint(1, 3)))) if trial % 2 else draw(rng.randint(0, 4))
        want = matrix_witness(p, q, ctx)
        assert entailment_witness(p, q, ctx) == want, (n, p, q)
        pv, qv = eval_quantum(p, ctx), eval_quantum(q, ctx)
        low = block_coordinates(pv, qv)
        rows = to_matrix(pv).rows
        cosets = [z for z in range(1 << n) if z & low == 0]
        inside = [u for u in range(1 << n) if u & ~low == 0]
        counts[n, want is not None] += 1
        counts["p = q r"] += trial % 2
        counts["one block"] += n >= 4 and low == (1 << n) - 1
        counts["zero p block"] += any(rows) and any(not any(rows[z | u] for u in inside) for z in cosets)
    assert min(counts[n, yes] for n in range(1, 8) for yes in (False, True)) >= 20, counts
    assert min(counts["one block"], counts["zero p block"]) >= 100, counts


def block_coordinates(p, q):
    """The right indices of the terms of p and q, widened by the lowest
    coordinates outside them to at least min(n, 3)."""
    low = 0
    for _, b in p.terms | q.terms:
        low |= b
    while low.bit_count() < min(p.n, 3):
        low |= ~low & (low + 1)
    return low


def distinct_block_pairs(p, q, low):
    """The number of distinct pairs (block of p-hat, block of q-hat) over the
    cosets z of the coordinates in low, zero blocks included, cut from the
    full matrices.  Row z + s of a block diagonal matrix, s inside low, has
    its entries at the columns z + t, so shifting it right by z gives the
    row of the block of z in coordinates shared by all cosets."""
    inside = [s for s in range(1 << p.n) if s & ~low == 0]
    matrices = (to_matrix(p).rows, to_matrix(q).rows)
    blocks = {
        tuple(rows[z + s] >> z for rows in matrices for s in inside)
        for z in range(1 << p.n)
        if z & low == 0
    }
    return len(blocks)


def my_rows(f):
    """The MY rows of an operator in a Y basis: its MY tables {b: g}."""
    return convert_op_basis(f, "MY").rows


def entails_operators(p, q):
    """lang's decision on the MY tables of two operators in a Y basis."""
    from boolweyl.lang import _entails

    return _entails(my_rows(p), my_rows(q), p.n)


def test_block_route_matches_full_matrices_on_xy_pairs():
    # the derivatives of both operands touch the coordinates in `touched`;
    # the left indices are drawn over all of [n]
    from boolweyl.bweyl import table_block_rows

    rng = random.Random(17)
    counts = Counter()
    for trial in range(1200):
        n = 4 + trial % 6
        touched = rng.getrandbits(n) & rng.getrandbits(n)
        if trial % 7 == 0:
            touched = (1 << n) - 1

        def draw(size):
            terms = {(rng.getrandbits(n), rng.getrandbits(n) & touched) for _ in range(size)}
            return OpCoeffs(n, "XY", frozenset(terms))

        q = draw(rng.randint(1, 4))
        p = op_mul(q, draw(rng.randint(1, 3))) if trial % 2 else draw(rng.randint(0, 4))
        got = entails_operators(p, q)
        assert got == (solve_right(to_matrix(q), to_matrix(p)) is not None), (p, q)
        sides = [side for side, _, _ in table_block_rows(n, my_rows(p), my_rows(q))]
        cover = 0
        for a, b in p.terms | q.terms:
            cover |= b
        low = block_coordinates(p, q)
        assert set(sides) <= {1 << low.bit_count()}
        counts[got] += 1
        counts["split"] += low != (1 << n) - 1
        counts["left outside"] += any(a & ~cover for a, _ in p.terms | q.terms)
        counts["duplicates"] += distinct_block_pairs(p, q, low) < 1 << (n - low.bit_count())
    assert min(counts[True], counts[False]) >= 200, counts
    assert min(counts["split"], counts["left outside"], counts["duplicates"]) >= 200, counts


@pytest.mark.parametrize("n", [4, 5])
def test_battery_entailment_sees_split_matrices(n, monkeypatch):
    # the battery runs the check at n itself, up to 5; on the check's own
    # draws there, most block eliminations see matrices with several
    # distinct diagonal blocks, cut here from the full matrices, and many
    # eliminate several blocks of side smaller than the whole.  Only the
    # decisions count: the witnesses read the same blocks
    from boolweyl import bweyl, lang
    from boolweyl.bweyl import table_block_rows

    assert checks.run_battery(n, 1, 0)[-1].detail == f"1 samples, n={n}"
    calls = []  # (distinct block pairs, blocks eliminated, their side) per call

    def counting_blocks(dim, pt, qt):
        blocks = list(table_block_rows(dim, pt, qt))
        if sys._getframe(1).f_code is lang._entails.__code__:
            p, q = OpCoeffs(dim, "MY", pt), OpCoeffs(dim, "MY", qt)
            distinct = distinct_block_pairs(p, q, block_coordinates(p, q))
            calls.append((distinct, len(blocks), blocks[0][0] if blocks else 0))
        return iter(blocks)

    monkeypatch.setattr(bweyl, "table_block_rows", counting_blocks)
    for seed in range(8):
        result = checks.check_entailment(n, 25, random.Random(seed))
        assert result.ok, result.detail
    assert sum(distinct > 1 for distinct, _, _ in calls) >= 100, calls
    assert sum(0 < side < 1 << n for _, _, side in calls) >= 100, calls
    assert sum(count > 1 for _, count, _ in calls) >= 50, calls


def test_block_elimination_reads_rows_only_up_to_the_refuting_one(monkeypatch):
    # a "yes" reads every X row of every distinct block; a "no" reads the
    # blocks before the failing one whole, and of that one only the rows up
    # to the first that reduces into the p-hat half.  Z is unitriangular, so
    # that row is also the first on the M rows.  The witness reads the rows
    # as the decision does
    from boolweyl import bweyl
    from boolweyl.bweyl import _below, table_block_rows
    from boolweyl.gf2lin import _echelon

    reads = []  # [side, rows read] per block handed to the elimination

    def counting_rows(dim, pt, qt):
        for side, rows, place in table_block_rows(dim, pt, qt):
            read = [side, 0]
            reads.append(read)

            def counted(rows=rows, read=read):
                for row in rows:
                    read[1] += 1
                    yield row

            yield side, counted(), place

    monkeypatch.setattr(bweyl, "table_block_rows", counting_rows)
    rng = random.Random(29)
    counts = Counter()
    for trial in range(400):
        n = 3 + trial % 6
        touched = rng.getrandbits(n) & rng.getrandbits(n)
        if trial % 7 == 0:
            touched = (1 << n) - 1

        def draw(size):
            terms = {(rng.getrandbits(n), rng.getrandbits(n) & touched) for _ in range(size)}
            return OpCoeffs(n, "XY", frozenset(terms))

        q = draw(rng.randint(1, 4))
        p = op_mul(q, draw(rng.randint(1, 3))) if trial % 2 else draw(rng.randint(0, 4))
        reads.clear()
        got = entails_operators(p, q)
        decided = [read.copy() for read in reads]
        pe, qe = parse_text(op_text(p)), parse_text(op_text(q))
        reads.clear()
        assert (entailment_witness(pe, qe, infer_context([pe, qe], n)) is not None) == got, (p, q)
        assert reads == decided, (p, q)
        blocks = [(side, list(rows)) for side, rows, _ in table_block_rows(n, my_rows(p), my_rows(q))]
        if got:
            assert reads == [[side, side] for side, _ in blocks], (p, q)
            counts["yes"] += 1
            continue
        *passed, (side, last) = reads
        assert passed == [[side, side] for side, _ in blocks[: len(passed)]], (p, q)
        x_rows = blocks[len(passed)][1]
        # the M rows: Z is its own inverse, so row t is the sum of the X rows
        # inside t, and column c of each half the sum of its columns that contain c
        m_rows = []
        for t in range(side):
            row = 0
            for u in submasks(t):
                row ^= x_rows[u]
            halves = [0, 0]
            for c in iter_bits(row):
                halves[c >= side] ^= _below(c % side)
            m_rows.append(halves[1] << side | halves[0])
        for rows in (x_rows, m_rows):
            assert _echelon(rows[: last - 1], side) is not None, (p, q)
            assert _echelon(rows[:last], side) is None, (p, q)
        counts["no"] += 1
        counts["fewer than the side"] += last < side
    assert min(counts["yes"], counts["no"]) >= 100, counts
    assert counts["fewer than the side"] >= 0.8 * counts["no"], counts
    # d{1..n} has the constants as its column space, x{1..n} d{1..n} the
    # multiples of x{1..n}: the first row already refutes containment
    for n in (3, 8, 16):
        full = (1 << n) - 1
        p = OpCoeffs(n, "XY", [(0, full)])
        q = OpCoeffs(n, "XY", [(full, full)])
        reads.clear()
        assert not entails_operators(p, q)
        assert reads == [[1 << n, 1]]
        pe, qe = parse_text(op_text(p)), parse_text(op_text(q))
        reads.clear()
        assert entailment_witness(pe, qe, infer_context([pe, qe], n)) is None
        assert reads == [[1 << n, 1]]


def test_entailment_preorder():
    rng = random.Random(6)
    ctx = VarContext(("a", "b"))
    for _ in range(40):
        p = checks.random_expr(rng, ctx.names, 2)
        assert entails_quantum(p, p, ctx)
    for _ in range(60):
        p = checks.random_expr(rng, ctx.names, 2)
        q = checks.random_expr(rng, ctx.names, 2)
        r = checks.random_expr(rng, ctx.names, 2)
        if entails_quantum(p, q, ctx) and entails_quantum(q, r, ctx):
            assert entails_quantum(p, r, ctx)


# --- normalization ----------------------------------------------------------------


def test_normalize_examples():
    ctx1 = VarContext(("a",))
    assert normalize(parse_text("~a a + ~a a"), ctx1) == Zero()
    assert format_expr(normalize(parse_text("~a a"), ctx1)) == "a ~a + ~a + 1"
    ctx2 = VarContext(("a", "b"))
    assert format_expr(normalize(parse_text("b a"), ctx2)) == "a b"


def test_normalize_idempotent_and_value_preserving():
    rng = random.Random(7)
    ctx = VarContext(("a", "b"))
    for _ in range(100):
        e = checks.random_expr(rng, ctx.names, 3)
        norm = normalize(e, ctx)
        assert equivalent(e, norm, ctx)
        assert normalize(norm, ctx) == norm


# --- rewrite rules -----------------------------------------------------------------


REFERENCE_REWRITE_RULE_NAMES = (
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


def reference_rewrite_rule_instance(name, p, q, r, a, b):
    """The if-chain that the rule table replaced, kept as its reference."""
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
        return Prod((TildeVar(b), Var(a))), Prod((Var(a), TildeVar(b)))
    if name == "twisted-commutation":
        lhs = Prod((TildeVar(a), Var(a)))
        rhs = Sum((Prod((Var(a), TildeVar(a))), TildeVar(a), One()))
        return lhs, rhs
    raise ValueError(f"unknown rewrite rule {name!r}")


def test_rewrite_rules_agree_with_reference_chain():
    # the battery draws rules by position, so the order is part of its output
    assert REWRITE_RULE_NAMES == REFERENCE_REWRITE_RULE_NAMES
    rng = random.Random("rewrite-differential")
    for rule in REWRITE_RULE_NAMES:
        for _ in range(50):
            p, q, r = (checks.random_expr(rng, ("a", "b", "c"), 2) for _ in range(3))
            a, b = rng.sample(["a", "b", "c"], 2)
            got = rewrite_rule_instance(rule, p, q, r, a, b)
            assert got == reference_rewrite_rule_instance(rule, p, q, r, a, b), rule
    for name in ("", "nope", "Assoc-prod", "assoc-prod "):
        for instance in (rewrite_rule_instance, reference_rewrite_rule_instance):
            with pytest.raises(ValueError, match=f"^unknown rewrite rule {re.escape(repr(name))}$"):
                instance(name, One(), One(), One(), "a", "b")


@pytest.mark.parametrize("rule", REWRITE_RULE_NAMES)
def test_rewrite_rules_preserve_valuation(rule):
    rng = random.Random(f"rewrite:{rule}")
    ctx = VarContext(("a", "b"))
    for _ in range(40):
        p = checks.random_expr(rng, ctx.names, 2)
        q = checks.random_expr(rng, ctx.names, 2)
        r = checks.random_expr(rng, ctx.names, 2)
        lhs, rhs = rewrite_rule_instance(rule, p, q, r, "a", "b")
        assert equivalent(lhs, rhs, ctx)
