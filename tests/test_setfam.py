"""Set families over the doubled ground set and their four products."""

import random
import re

import pytest

from boolweyl import checks
from boolweyl.bweyl import op_mul
from boolweyl.diffops import apply_coeffs
from boolweyl.ring import check_dim, mask_from_indices, require_same_dim, submasks
from boolweyl.setfam import (
    PRODUCTS,
    Family,
    FamilyN,
    ast_prod,
    bullet_prod,
    circ_prod,
    fam_add,
    family_from_json,
    family_text,
    family_to_op,
    familyn_text,
    familyn_to_ring,
    hat_diagonal,
    op_to_family,
    parse_family,
    ring_to_familyn,
    star_act,
    star_prod,
    tilde_antidiagonal,
)


def fam3(text):
    return parse_family(text, 3)


def test_literal_round_trip():
    f = fam3("{{1,2,~2,~3},{1}}")
    assert f.members == frozenset({(0b011, 0b110), (0b001, 0)})
    assert parse_family(family_text(f), 3) == f
    assert family_text(Family(3, [])) == "{}"
    assert parse_family("{{}}", 3).members == frozenset({(0, 0)})
    with pytest.raises(ValueError):
        parse_family("{1,2}", 3)  # members must be braced
    with pytest.raises(ValueError):
        parse_family("{{4}}", 3)
    # an element is an optional ~ and decimal digits, spaces only around it
    assert fam3("{ {1, 2, ~3} , {1} }") == fam3("{{1,2,~3},{1}}")
    for text in ("{{1 2}}", "{{1_0}}", "{{+1}}"):
        with pytest.raises(ValueError, match="bad family element"):
            parse_family(text, 16)


def reference_parse_family(text, n):
    """The brace-depth scanner that `parse_family` replaced, kept as its reference."""
    check_dim(n)
    s = text.strip()
    if not (s.startswith("{") and s.endswith("}")):
        raise ValueError("family literal must be wrapped in braces")
    body = s[1:-1]
    members = set()
    depth = 0
    current = ""
    chunks = []
    for ch in body:
        if ch == "{":
            depth += 1
            if depth == 1:
                current = ""
                continue
        elif ch == "}":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced braces in family literal")
            if depth == 0:
                chunks.append(current)
                continue
        elif depth == 0:
            if ch != "," and not ch.isspace():
                raise ValueError(f"unexpected character {ch!r} between members")
            continue
        current += ch
    if depth != 0:
        raise ValueError("unbalanced braces in family literal")
    for chunk in chunks:
        plain = tilde = 0
        if chunk.strip():
            for item in chunk.split(","):
                item = item.strip()
                tilded = item.startswith("~")
                digits = item[tilded:]
                if not digits.isdecimal():
                    raise ValueError(f"bad family element {item!r}")
                bit = mask_from_indices([int(digits)], n)
                if tilded:
                    tilde |= bit
                else:
                    plain |= bit
        members.add((plain, tilde))
    return Family(n, frozenset(members))


def family_outcome(parser, text):
    """The members read, or None when the parser refuses the literal."""
    try:
        return parser(text, 9).members
    except ValueError:
        return None


def separators_are_single_commas(text):
    """Whether, at depth 0 of a literal's body, only single commas between
    members and whitespace appear."""
    s = text.strip()
    skeleton, depth = "", 0
    for ch in s[1:-1]:
        if ch == "{":
            depth += 1
            skeleton += "M" if depth == 1 else ""
        elif ch == "}":
            depth -= 1
        elif depth == 0 and not ch.isspace():
            skeleton += ch
    return skeleton == ",".join("M" * skeleton.count("M"))


def random_family_literal(rng):
    """A random family written out by family_text, with whitespace runs between its tokens."""
    f = Family(9, {(rng.getrandbits(9), rng.getrandbits(9)) for _ in range(rng.randrange(4))})
    tokens = re.findall(r"~?\d+|.", family_text(f))
    spaces = [rng.choice(["", "", " ", "\t", " \n ", "\u00a0"]) for _ in range(len(tokens) + 1)]
    return f, "".join(space + token for space, token in zip(spaces, tokens + [""]))


# loose pieces and whole members, so that many literals are read by one parser or both
FAMILY_PIECES = ["{", "}", ",", ",", " ", "~", "0", "1", "{1}", "{}", "{ ~2, 3 }", "{1,~1}"]


def test_parse_family_agrees_with_reference_parser():
    rng = random.Random("parse_family-differential")
    for _ in range(4000):
        f, text = random_family_literal(rng)
        assert parse_family(text, 9) == reference_parse_family(text, 9) == f, text
    corpus = ["".join(rng.choices("{}~,0123456789 ", k=rng.randrange(12))) for _ in range(3000)]
    corpus += ["{%s}" % "".join(rng.choices(FAMILY_PIECES, k=rng.randrange(8))) for _ in range(6000)]
    both = only_reference = 0
    for text in corpus:
        got, want = family_outcome(parse_family, text), family_outcome(reference_parse_family, text)
        if got is not None:
            assert got == want, text
            both += 1
        elif want is not None:
            assert not separators_are_single_commas(text), text
            only_reference += 1
    assert both > 1000 and only_reference > 500


@pytest.mark.parametrize(
    "text", ["{,}", "{{1},,{2}}", "{,{1}}", "{{1},}", "{{1}{2}}", " { , { 1 } } ", "{{1} {2}}"]
)
def test_parse_family_refuses_members_not_joined_by_single_commas(text):
    reference_parse_family(text, 3)  # read before members had to be joined by single commas
    with pytest.raises(ValueError, match="^bad family literal"):
        parse_family(text, 3)


def test_parse_family_refuses_an_element_too_long_to_convert():
    with pytest.raises(ValueError, match="^bad family element"):
        parse_family("{{" + "1" * 5000 + "}}", 16)


def test_json_round_trip():
    f = fam3("{{1,2,~2,~3},{1}}")
    from boolweyl.setfam import family_to_json

    data = family_to_json(f)
    assert data == {"n": 3, "members": [[[1], []], [[1, 2], [2, 3]]]}
    assert family_from_json(data) == f


def test_fam_add():
    a = fam3("{{1}}")
    b = fam3("{{1},{2}}")
    assert fam_add(a, b) == fam3("{{2}}")
    assert fam_add(a, a).members == frozenset()
    assert fam_add(a, Family(3, [])) == a
    with pytest.raises(ValueError):
        fam_add(a, Family(2, []))


def test_circ_product_worked_example():
    got = circ_prod(fam3("{{1,2,~2,~3}}"), fam3("{{1,3,~1,~2}}"))
    assert got == fam3("{{1,2,~1,~2},{1,2,~1,~2,~3}}")


def test_bullet_product_worked_example():
    got = bullet_prod(fam3("{{1,3,~2}}"), fam3("{{2,~1}}"))
    assert got == fam3("{{1,2,3,~1,~2},{1,3,~1,~2},{1,3,~1}}")


def test_star_product_worked_example():
    got = star_prod(fam3("{{1,2,3,~3}}"), fam3("{{1,2,~2,~3}}"))
    assert got == fam3("{{1,2,3,~2}}")


def test_ast_product_worked_example():
    got = ast_prod(fam3("{{1,~2}}"), fam3("{{2,3,~1,~2}}"))
    assert got == fam3("{{1,3,~1},{1,2,3,~1}}")


def test_hat_diagonal_star_identity():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.choice([1, 2, 3])
        size = 1 << n
        a = FamilyN(n, frozenset(x for x in range(size) if rng.getrandbits(1)))
        hat = hat_diagonal(a)
        got = star_prod(hat, hat)
        assert got == (hat if 0 in a.members else Family(n, frozenset()))


def test_tilde_antidiagonal_star_identity():
    rng = random.Random(18)
    for _ in range(40):
        n = rng.choice([1, 2, 3])
        size = 1 << n
        a = FamilyN(n, frozenset(x for x in range(size) if rng.getrandbits(1)))
        til = tilde_antidiagonal(a)
        got = star_prod(til, til)
        assert got == (til if (size - 1) in a.members else Family(n, frozenset()))


def test_hat_star_action():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.choice([1, 2, 3])
        size = 1 << n
        a = FamilyN(n, frozenset(x for x in range(size) if rng.getrandbits(1)))
        f = FamilyN(n, frozenset(x for x in range(size) if rng.getrandbits(1)))
        got = star_act(hat_diagonal(a), f)
        assert got == (a if 0 in f.members else FamilyN(n, frozenset()))


@pytest.mark.parametrize("kind", sorted(PRODUCTS))
def test_products_match_operator_route(kind):
    prod, act = PRODUCTS[kind]
    rng = random.Random(f"products:{kind}")
    # exhaustive over singleton families at n = 1
    for p1 in range(2):
        for t1 in range(2):
            for p2 in range(2):
                for t2 in range(2):
                    a = Family(1, [(p1, t1)])
                    b = Family(1, [(p2, t2)])
                    got = prod(a, b)
                    want = op_to_family(op_mul(family_to_op(a, kind), family_to_op(b, kind)))
                    assert got == want
    # random families at n = 2, 3
    for n in (2, 3):
        for _ in range(25):
            a = checks.random_family(rng, n)
            b = checks.random_family(rng, n)
            got = prod(a, b)
            want = op_to_family(op_mul(family_to_op(a, kind), family_to_op(b, kind)))
            assert got == want


# The four products as the literal loops were first written, kept verbatim
# as the reference of the indexed loops: each scans every index for each
# output pair (a1, a2) and tests membership, with no index of either family.


def reference_circ_prod(a_fam, b_fam):
    require_same_dim(a_fam, b_fam)
    n = a_fam.n
    size = 1 << n
    out = set()
    for a1 in range(size):
        for a2 in range(size):
            count = 0
            for c1, c2 in b_fam.members:
                if c2 & ~a2:
                    continue
                need = a1 ^ c1
                if (a2 & ~c2) & ~need:
                    continue
                for b in range(size):
                    if (a1, b) in a_fam.members and need & ~b == 0:
                        count ^= 1
            if count:
                out.add((a1, a2))
    return Family(n, out)


def reference_bullet_prod(a_fam, b_fam):
    require_same_dim(a_fam, b_fam)
    n = a_fam.n
    size = 1 << n
    out = set()
    for a1 in range(size):
        for a2 in range(size):
            count = 0
            for b1, b2 in a_fam.members:
                if b1 & ~a1:
                    continue
                for c1, c2 in b_fam.members:
                    if c2 & ~a2:
                        continue
                    target = a2 & ~c2
                    for k2 in submasks(b2 & c1):
                        if b1 | (c1 & ~k2) != a1:
                            continue
                        for k1 in submasks(k2):
                            if b2 & ~k1 == target:
                                count ^= 1
            if count:
                out.add((a1, a2))
    return Family(n, out)


def reference_star_prod(a_fam, b_fam):
    require_same_dim(a_fam, b_fam)
    n = a_fam.n
    size = 1 << n
    out = set()
    for a1 in range(size):
        for a2 in range(size):
            count = 0
            for b in range(size):
                if (a1, b) in a_fam.members and (a1 ^ b, a2 ^ b) in b_fam.members:
                    count ^= 1
            if count:
                out.add((a1, a2))
    return Family(n, out)


def reference_ast_prod(a_fam, b_fam):
    require_same_dim(a_fam, b_fam)
    n = a_fam.n
    size = 1 << n
    out = set()
    for a1 in range(size):
        for a2 in range(size):
            count = 0
            for b, c in a_fam.members:
                for d, v2 in b_fam.members:
                    if v2 != c ^ a2:
                        continue
                    for e in submasks(c & d):
                        if b | (d & ~e) == a1:
                            count ^= 1
            if count:
                out.add((a1, a2))
    return Family(n, out)


REFERENCE_PRODUCTS = {
    "circ": reference_circ_prod,
    "bullet": reference_bullet_prod,
    "star": reference_star_prod,
    "ast": reference_ast_prod,
}


@pytest.mark.parametrize("kind", sorted(PRODUCTS))
def test_products_match_the_literal_loops(kind):
    # random families at n <= 3, from empty to every pair, and pairs that
    # share left parts, tilde parts or both, as the indexes group them
    prod, _ = PRODUCTS[kind]
    reference = REFERENCE_PRODUCTS[kind]
    rng = random.Random(f"literal-loops:{kind}")
    seen = 0
    for n in (1, 2, 3):
        pairs = [(p, t) for p in range(1 << n) for t in range(1 << n)]
        for trial in range(60):
            cap = len(pairs) if trial % 3 else 3
            a, b = (Family(n, rng.sample(pairs, rng.randint(0, cap))) for _ in range(2))
            if trial % 10 == 0:
                a = Family(n, pairs)
            got = prod(a, b)
            assert got == reference(a, b), (n, a, b)
            seen += bool(got.members)
    assert seen >= 100


@pytest.mark.parametrize("kind", sorted(PRODUCTS))
def test_actions_match_operator_route(kind):
    prod, act = PRODUCTS[kind]
    rng = random.Random(f"actions:{kind}")
    for n in (1, 2, 3):
        for _ in range(25):
            a = checks.random_family(rng, n)
            f = checks.random_family_n(rng, n)
            got = act(a, f)
            want = ring_to_familyn(
                apply_coeffs(family_to_op(a, kind), familyn_to_ring(f, kind))
            )
            assert got == want


@pytest.mark.parametrize("kind", sorted(PRODUCTS))
def test_sum_distributes_over_products(kind):
    prod, _ = PRODUCTS[kind]
    rng = random.Random(f"sum-distributes:{kind}")
    for n in (1, 2):
        for _ in range(20):
            a = checks.random_family(rng, n)
            b = checks.random_family(rng, n)
            c = checks.random_family(rng, n)
            assert prod(a, fam_add(b, c)) == fam_add(prod(a, b), prod(a, c))
            assert prod(fam_add(a, b), c) == fam_add(prod(a, c), prod(b, c))


def test_bullet_action_of_diagonal_family():
    # the diagonal family acts on F by keeping members with odd subset count
    rng = random.Random(77)
    for _ in range(30):
        n = rng.choice([1, 2, 3])
        size = 1 << n
        a = FamilyN(n, frozenset(x for x in range(size) if rng.getrandbits(1)))
        f = FamilyN(n, frozenset(x for x in range(size) if rng.getrandbits(1)))
        _, act = PRODUCTS["bullet"]
        got = act(hat_diagonal(a), f)
        want = frozenset(
            x
            for x in f.members
            if sum(1 for b in a.members if b & ~x == 0) & 1
        )
        assert got.members == want


def test_dimension_validation():
    with pytest.raises(ValueError):
        Family(3, [(0b1000, 0)])
    with pytest.raises(ValueError):
        circ_prod(Family(2, []), Family(3, []))


def test_familyn_text_matches_per_bit_spelling():
    from boolweyl.ring import indices_from_mask

    rng = random.Random(66)
    assert familyn_text(FamilyN(2, frozenset())) == "{}"
    assert familyn_text(FamilyN(2, frozenset({0, 3}))) == "{{},{1,2}}"
    for n in (1, 3, 8, 9, 16):
        members = frozenset({(1 << n) - 1} | {rng.getrandbits(n) for _ in range(30)})
        want = "{%s}" % ",".join(
            "{%s}" % ",".join(map(str, indices_from_mask(a))) for a in sorted(members)
        )
        assert familyn_text(FamilyN(n, members)) == want
