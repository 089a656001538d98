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
from dataclasses import dataclass
from typing import Iterable

from .bweyl import OpCoeffs
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

PairedMask = tuple[int, int]  # (plain part, tilde part), each a mask over [n]


@dataclass(frozen=True)
class Family:
    """Family of subsets of the doubled ground set [n] + tilde [n]."""

    n: int
    members: frozenset[PairedMask]

    def __post_init__(self) -> None:
        check_dim(self.n)
        for plain, tilde in self.members:
            check_mask(plain, self.n)
            check_mask(tilde, self.n)

    def __str__(self) -> str:
        return family_text(self)


@dataclass(frozen=True)
class FamilyN:
    """Family of plain subsets of [n]."""

    n: int
    members: frozenset[int]

    def __post_init__(self) -> None:
        check_dim(self.n)
        for a in self.members:
            check_mask(a, self.n)

    def __str__(self) -> str:
        return familyn_text(self)


def family(n: int, members: Iterable[PairedMask]) -> Family:
    return Family(n, frozenset(members))


def family_n(n: int, members: Iterable[int]) -> FamilyN:
    return FamilyN(n, frozenset(members))


def fam_add(a: Family, b: Family) -> Family:
    """Sum: symmetric difference of the member sets."""
    require_same_dim(a, b)
    return Family(a.n, a.members ^ b.members)


# --- the four products, by literal enumeration -------------------------------


def circ_prod(a_fam: Family, b_fam: Family) -> Family:
    """Membership of (a1, a2): odd count of pairs (b, c), c in B, with
    c2 subset of a2, (a1, b) in A, and a2 - c2 subset of a1 + c1 subset of b."""
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
    return Family(n, frozenset(out))


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
    return FamilyN(n, frozenset(out))


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
    return Family(n, frozenset(out))


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
    return FamilyN(n, frozenset(out))


def star_prod(a_fam: Family, b_fam: Family) -> Family:
    """Membership of (a1, a2): odd count of b with
    (a1, b) in A and (a1 + b, a2 + b) in B."""
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
    return Family(n, frozenset(out))


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
    return FamilyN(n, frozenset(out))


def ast_prod(a_fam: Family, b_fam: Family) -> Family:
    """Membership of (a1, a2): odd count of (b, c, d, e) with
    e subset of c & d, b | (d - e) == a1, (b, c) in A, (d, c + a2) in B."""
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
    return Family(n, frozenset(out))


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
    return FamilyN(n, frozenset(out))


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
    return OpCoeffs(a_fam.n, PRODUCT_BASIS[product], frozenset(a_fam.members))


def op_to_family(op: OpCoeffs) -> Family:
    return Family(op.n, frozenset(op.terms))


def familyn_to_ring(f: FamilyN, product: str) -> RingElem:
    """The ring element carried by a plain family under the chosen product
    (M-basis support for circ/star, X-basis for bullet/ast)."""
    basis = "M" if PRODUCT_BASIS[product][0] == "M" else "X"
    return ring_from_support(f.n, basis, f.members)


def ring_to_familyn(f: RingElem) -> FamilyN:
    return FamilyN(f.n, frozenset(f.support()))


def hat_diagonal(f: FamilyN) -> Family:
    """Pairs (a, a) over the members of a plain family."""
    return Family(f.n, frozenset((a, a) for a in f.members))


def tilde_antidiagonal(f: FamilyN) -> Family:
    """Pairs (a, complement(a)) over the members of a plain family."""
    full = (1 << f.n) - 1
    return Family(f.n, frozenset((a, a ^ full) for a in f.members))


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
            for item in body.split(","):
                item = item.strip()
                tilded = item.startswith("~")
                digits = item[tilded:]
                if not digits.isdecimal():
                    raise ValueError(f"bad family element {item!r}")
                try:
                    index = int(digits)
                except ValueError:  # more digits than the interpreter converts
                    raise ValueError(f"bad family element {item!r}") from None
                bit = mask_from_indices([index], n)
                if tilded:
                    tilde |= bit
                else:
                    plain |= bit
        members.add((plain, tilde))
    return Family(n, frozenset(members))


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
    return Family(
        n,
        frozenset(
            (mask_from_indices(p, n), mask_from_indices(t, n))
            for p, t in data["members"]
        ),
    )
