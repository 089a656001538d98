"""Families of subsets of a doubled ground set, with four products.

A member of a family is a subset of [n] together with a subset of a
tilde-marked copy of [n]: a pair (plain, tilde) of masks, written in
text form as {1,2,~2,~3}.  Families of such pairs carry four ring
products, one per operator basis, each defined directly by an odd-count
condition over quantified tuples and each matching the corresponding
coefficient product under the bijection

    family member (a1, a2)  <->  operator term (a1, a2)

with basis MY for circ, XY for bullet, MS for star, XS for ast.
Families of plain subsets form a module under each product; the actions
mirror the coordinate formulas for applying an operator to a ring
element (M-basis coordinates for circ/star, X-basis for bullet/ast).

All products and actions here are computed by literal enumeration of the
quantified tuples, independently of the coefficient algebra, so the two
routes can be checked against each other.
"""

from __future__ import annotations

import re
from typing import Iterable

from .bweyl import OpCoeffs
from .lang import read_elements
from .ring import (
    RingElem,
    check_dim,
    check_mask,
    indices_from_mask,
    mask_from_indices,
    mask_str,
    ring_from_support,
    require_same_dim,
    submasks,
)
from .value import Value, setters

PairedMask = tuple[int, int]  # (plain part, tilde part), each a mask over [n]


class Family(Value):
    """Family of subsets of the doubled ground set [n] + tilde [n]; the
    members are given as any iterable and stored as a frozenset."""

    __slots__ = ("n", "members")
    n: int
    members: frozenset[PairedMask]

    def __init__(self, n: int, members: Iterable[PairedMask]) -> None:
        members = frozenset(members)
        check_dim(n)
        for plain, tilde in members:
            check_mask(plain, n)
            check_mask(tilde, n)
        _set_family_n(self, n)
        _set_family_members(self, members)

    def __str__(self) -> str:
        return family_text(self)


_set_family_n, _set_family_members = setters(Family)


class FamilyN(Value):
    """Family of plain subsets of [n], stored as a frozenset like Family's."""

    __slots__ = ("n", "members")
    n: int
    members: frozenset[int]

    def __init__(self, n: int, members: Iterable[int]) -> None:
        members = frozenset(members)
        check_dim(n)
        for a in members:
            check_mask(a, n)
        _set_familyn_n(self, n)
        _set_familyn_members(self, members)

    def __str__(self) -> str:
        return familyn_text(self)


_set_familyn_n, _set_familyn_members = setters(FamilyN)


def fam_add(a: Family, b: Family) -> Family:
    """Sum: symmetric difference of the member sets."""
    require_same_dim(a, b)
    return Family(a.n, a.members ^ b.members)


# --- the four products, by literal enumeration -------------------------------


def _parts_by(members: frozenset[PairedMask], side: int) -> dict[int, list[int]]:
    """The other part of each member, listed per value of its plain (side 0) or tilde (side 1) part."""
    index: dict[int, list[int]] = {}
    for member in members:
        index.setdefault(member[side], []).append(member[1 - side])
    return index


def circ_prod(a_fam: Family, b_fam: Family) -> Family:
    """Membership of (a1, a2): odd count of pairs (b, c), c in B, with
    c2 subset of a2, (a1, b) in A, and a2 - c2 subset of a1 + c1 subset of b."""
    require_same_dim(a_fam, b_fam)
    n = a_fam.n
    size = 1 << n
    out = set()
    for a1, bs in _parts_by(a_fam.members, 0).items():  # an a1 with no (a1, b) in A counts none
        for a2 in range(size):
            count = 0
            for c1, c2 in b_fam.members:
                if c2 & ~a2:
                    continue
                need = a1 ^ c1
                if (a2 & ~c2) & ~need:
                    continue
                for b in bs:
                    if need & ~b == 0:
                        count ^= 1
            if count:
                out.add((a1, a2))
    return Family(n, out)


def circ_act(a_fam: Family, f: FamilyN) -> FamilyN:
    """Membership of a: odd count of pairs b subset of c with
    (a, c) in A and a + b in F."""
    require_same_dim(a_fam, f)
    n = a_fam.n
    out = set()
    for a in range(1 << n):
        count = 0
        for c in range(1 << n):
            if (a, c) not in a_fam.members:
                continue
            for b in submasks(c):
                if (a ^ b) in f.members:
                    count ^= 1
        if count:
            out.add(a)
    return FamilyN(n, out)


def bullet_prod(a_fam: Family, b_fam: Family) -> Family:
    """Membership of (a1, a2): odd count of (b in A, c in B, k1 <= k2) with
    k2 subset of b2 & c1, b1 | (c1 - k2) == a1, b2 - k1 == a2 - c2,
    and c2 subset of a2."""
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


def bullet_act(a_fam: Family, f: FamilyN) -> FamilyN:
    """Membership of a: odd count of (b in A, c in F) with
    b2 subset of c and b1 | (c - b2) == a."""
    require_same_dim(a_fam, f)
    n = a_fam.n
    out = set()
    for a in range(1 << n):
        count = 0
        for b1, b2 in a_fam.members:
            for c in f.members:
                if b2 & ~c == 0 and b1 | (c & ~b2) == a:
                    count ^= 1
        if count:
            out.add(a)
    return FamilyN(n, out)


def star_prod(a_fam: Family, b_fam: Family) -> Family:
    """Membership of (a1, a2): odd count of b with
    (a1, b) in A and (a1 + b, a2 + b) in B."""
    require_same_dim(a_fam, b_fam)
    n = a_fam.n
    size = 1 << n
    out = set()
    for a1, bs in _parts_by(a_fam.members, 0).items():  # an a1 with no (a1, b) in A counts none
        for a2 in range(size):
            count = 0
            for b in bs:
                if (a1 ^ b, a2 ^ b) in b_fam.members:
                    count ^= 1
            if count:
                out.add((a1, a2))
    return Family(n, out)


def star_act(a_fam: Family, f: FamilyN) -> FamilyN:
    """Membership of a: odd count of b with (a, b) in A and a + b in F."""
    require_same_dim(a_fam, f)
    n = a_fam.n
    out = set()
    for a in range(1 << n):
        count = 0
        for b in range(1 << n):
            if (a, b) in a_fam.members and (a ^ b) in f.members:
                count ^= 1
        if count:
            out.add(a)
    return FamilyN(n, out)


def ast_prod(a_fam: Family, b_fam: Family) -> Family:
    """Membership of (a1, a2): odd count of (b, c, d, e) with
    e subset of c & d, b | (d - e) == a1, (b, c) in A, (d, c + a2) in B."""
    require_same_dim(a_fam, b_fam)
    n = a_fam.n
    size = 1 << n
    out = set()
    b_by_tilde = _parts_by(b_fam.members, 1)
    for a1 in range(size):
        a_below = [(b, c) for b, c in a_fam.members if not b & ~a1]  # b | (d - e) == a1 needs b in a1
        for a2 in range(size):
            count = 0
            for b, c in a_below:
                for d in b_by_tilde.get(c ^ a2, ()):
                    for e in submasks(c & d):
                        if b | (d & ~e) == a1:
                            count ^= 1
            if count:
                out.add((a1, a2))
    return Family(n, out)


def ast_act(a_fam: Family, f: FamilyN) -> FamilyN:
    """Membership of a: odd count of (b, c, d, e), e in F, with
    c subset of d & e, b | (e - c) == a, and (b, d) in A."""
    require_same_dim(a_fam, f)
    n = a_fam.n
    out = set()
    for a in range(1 << n):
        count = 0
        for b, d in a_fam.members:
            for e in f.members:
                for c in submasks(d & e):
                    if b | (e & ~c) == a:
                        count ^= 1
        if count:
            out.add(a)
    return FamilyN(n, out)


PRODUCT_BASIS = {"circ": "MY", "bullet": "XY", "star": "MS", "ast": "XS"}

PRODUCTS = {
    "circ": (circ_prod, circ_act),
    "bullet": (bullet_prod, bullet_act),
    "star": (star_prod, star_act),
    "ast": (ast_prod, ast_act),
}


def family_to_op(a_fam: Family, product: str) -> OpCoeffs:
    """The operator whose terms are the family members, in the basis
    matching the chosen product."""
    return OpCoeffs(a_fam.n, PRODUCT_BASIS[product], a_fam.members)


def op_to_family(op: OpCoeffs) -> Family:
    return Family(op.n, op.terms)


def familyn_to_ring(f: FamilyN, product: str) -> RingElem:
    """The ring element carried by a plain family under the chosen product
    (M-basis support for circ/star, X-basis for bullet/ast)."""
    basis = "M" if PRODUCT_BASIS[product][0] == "M" else "X"
    return ring_from_support(f.n, basis, f.members)


def ring_to_familyn(f: RingElem) -> FamilyN:
    return FamilyN(f.n, f.support())


def hat_diagonal(f: FamilyN) -> Family:
    """Pairs (a, a) over the members of a plain family."""
    return Family(f.n, ((a, a) for a in f.members))


def tilde_antidiagonal(f: FamilyN) -> Family:
    """Pairs (a, complement(a)) over the members of a plain family."""
    full = (1 << f.n) - 1
    return Family(f.n, ((a, a ^ full) for a in f.members))


# --- text and JSON forms -----------------------------------------------------


def _member_text(plain: int, tilde: int) -> str:
    parts = [str(i) for i in indices_from_mask(plain)]
    parts += ["~" + str(i) for i in indices_from_mask(tilde)]
    return "{%s}" % ",".join(parts)


def family_text(a_fam: Family) -> str:
    """Literal like "{{1,2,~2,~3},{1}}"; members sorted for determinism."""
    members = sorted(a_fam.members)
    return "{%s}" % ",".join(_member_text(p, t) for p, t in members)


def familyn_text(f: FamilyN) -> str:
    return "{%s}" % ",".join(mask_str(a) for a in sorted(f.members))


# a family literal: braced members joined by single commas, in braces; a member holds
# no brace, and whitespace (\s is str.isspace) may surround braces, commas and elements
_FAMILY = re.compile(r"\s*\{(\s*(?:\{[^{}]*\}\s*(?:,\s*\{[^{}]*\}\s*)*)?)\}\s*")
_MEMBER = re.compile(r"\{([^{}]*)\}")


def _bad_element(item: str, too_long: bool) -> ValueError:
    return ValueError(f"bad family element {item!r}")


def parse_family(text: str, n: int) -> Family:
    """Parse a family literal with ~i marking tilde elements.

    Each element is an optional ~ and decimal digits.
    """
    check_dim(n)
    literal = _FAMILY.fullmatch(text)
    if not literal:
        raise ValueError(f"bad family literal {text!r}")
    members: set[PairedMask] = set()
    for body in _MEMBER.findall(literal[1]):
        plain = tilde = 0
        if body.strip():
            for tilded, index in read_elements(body, _bad_element, tilde=True):
                bit = mask_from_indices([index], n)
                if tilded:
                    tilde |= bit
                else:
                    plain |= bit
        members.add((plain, tilde))
    return Family(n, members)


def family_to_json(a_fam: Family) -> dict:
    """JSON mirror of the literal: members as [plain indices, tilde indices]."""
    return {
        "n": a_fam.n,
        "members": [
            [list(indices_from_mask(p)), list(indices_from_mask(t))]
            for p, t in sorted(a_fam.members)
        ],
    }


def family_from_json(data: dict) -> Family:
    n = data["n"]
    check_dim(n)
    members = ((mask_from_indices(p, n), mask_from_indices(t, n)) for p, t in data["members"])
    return Family(n, members)
