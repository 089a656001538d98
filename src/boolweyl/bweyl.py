"""Quantum Boolean operator algebras in six spanning bases.

An operator on the Boolean ring is stored as a sparse set of index
pairs: a term (a, b) stands for one monomial operator whose left factor
is a ring monomial (m^a, x^a or w^a) and whose right factor is a product
of derivatives (y^b = prod of d_i, i in b) or of shifts (s^b).  The six
bases are tagged MY, XY, WY, MS, XS, WS.

Multiplication never leaves coefficient space: each basis with an M or X
left index has a closed-form structural rule.  Writing terms of the left
factor as (a, b) and of the right factor as (c, d):

    MY   toggle (a, d | t) for every t subset of (a+c) & ~d,
         provided a + c is a subset of b
    XY   toggle (a | (c - k2), (b - k1) | d) for chains k1 <= k2 <= b & c,
         provided (b - k1) and d are disjoint
    MS   toggle (a, b + d) provided c == a + b
    XS   toggle (a | (c - k), b + d) for every k subset of b & c

W-left coefficients obey the same rules as X-left ones (x and w satisfy
identical relations with the right generators), so WY and WS multiply
through the XY/XS rules with indices untouched.

to_matrix is the semantic anchor: every element maps to the matrix of
the operator it denotes on M-basis coordinates, its rows written from
closed forms, and multiplication of coefficients must match
multiplication of matrices bit for bit.  The products of generator
matrices in diffops are the oracle these rows are checked against.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .gf2lin import Gf2Matrix
from .ring import (
    DimensionMismatch,
    _convert_bits,
    _superset_sum_bits,
    check_dim,
    check_mask,
    indices_from_mask,
    iter_bits,
    mask_from_indices,
    mask_str,
    submasks,
)

OP_BASES = ("MY", "XY", "WY", "MS", "XS", "WS")

Term = tuple[int, int]


@dataclass(frozen=True)
class OpCoeffs:
    """Operator coefficients: sparse set of (left, right) index pairs."""

    n: int
    basis: str
    terms: frozenset[Term]

    def __post_init__(self) -> None:
        check_dim(self.n)
        if self.basis not in OP_BASES:
            raise ValueError(f"unknown operator basis {self.basis!r}")
        for a, b in self.terms:
            check_mask(a, self.n)
            check_mask(b, self.n)

    def sorted_terms(self) -> list[Term]:
        """Terms in the canonical order: ascending on (left, right)."""
        return sorted(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "OpCoeffs") -> "OpCoeffs":
        return op_add(self, other)

    def __mul__(self, other: "OpCoeffs") -> "OpCoeffs":
        return op_mul(self, other)

    def __str__(self) -> str:
        return op_text(self)


def op_coeffs(n: int, basis: str, terms: Iterable[Term]) -> OpCoeffs:
    return OpCoeffs(n, basis, frozenset(terms))


def op_zero(n: int, basis: str = "XY") -> OpCoeffs:
    return OpCoeffs(n, basis, frozenset())


def op_identity(n: int, basis: str = "XY") -> OpCoeffs:
    """The identity operator written in the given basis."""
    if basis[0] == "M":
        # 1 = sum of all point indicators
        return OpCoeffs(n, basis, frozenset((a, 0) for a in range(1 << n)))
    return OpCoeffs(n, basis, frozenset({(0, 0)}))


def op_monomial(n: int, basis: str, a: int, b: int) -> OpCoeffs:
    check_mask(a, n)
    check_mask(b, n)
    return OpCoeffs(n, basis, frozenset({(a, b)}))


def op_add(f: OpCoeffs, g: OpCoeffs) -> OpCoeffs:
    """Sum: symmetric difference of term sets, in the left operand's basis."""
    if f.n != g.n:
        raise DimensionMismatch(f"dimension mismatch: {f.n} vs {g.n}")
    g = convert_op_basis(g, f.basis)
    return OpCoeffs(f.n, f.basis, f.terms ^ g.terms)


def _pack_index(terms: Iterable[Term], axis: int) -> dict[int, int]:
    """Per value of the other index, the packed vector of index `axis`
    (0 left, 1 right) of the terms."""
    groups: dict[int, int] = {}
    for term in terms:
        other = term[1 - axis]
        groups[other] = groups.get(other, 0) ^ (1 << term[axis])
    return groups


def _convert_index(
    terms: frozenset[Term], axis: int, convert: Callable[[int], int]
) -> frozenset[Term]:
    """Apply convert to the packed vectors of index `axis` of the terms."""
    out = set()
    for other, bits in _pack_index(terms, axis).items():
        for i in iter_bits(convert(bits)):
            out.add((i, other) if axis == 0 else (other, i))
    return frozenset(out)


def convert_op_basis(f: OpCoeffs, target: str) -> OpCoeffs:
    """Rewrite f in the target basis; the operator it denotes is unchanged.

    The left index converts through the ring basis changes applied per
    fixed right index; the right index converts between Y and S through
    a superset sum per fixed left index (y^b = sum of s^a over a subset
    of b, and the same formula back).
    """
    if target not in OP_BASES:
        raise ValueError(f"unknown operator basis {target!r}")
    if target == f.basis:
        return f
    size = 1 << f.n
    terms = f.terms
    if f.basis[0] != target[0]:
        terms = _convert_index(
            terms, 0, lambda bits: _convert_bits(bits, size, f.basis[0], target[0])
        )
    if f.basis[1] != target[1]:
        # Y <-> S is a superset sum on the right index, both directions
        terms = _convert_index(terms, 1, lambda bits: _superset_sum_bits(bits, size))
    return OpCoeffs(f.n, target, terms)


def to_matrix(f: OpCoeffs) -> Gf2Matrix:
    """Matrix of the operator on M-basis coordinates.

    The terms sharing a right index b sum to g * P^b, where g is the ring
    element of their left coefficients and P^b the shift or derivative
    power of b.  Multiplication by g is diagonal on M coordinates, so row
    r of P^b is XORed into the result for every r in the support of g
    written in M.  Those rows have closed forms: row r of s^b is the
    point r + b, and row r of d^b the points (r - b) | t for every t
    subset of b, i.e. the submasks of b shifted by r - b.
    """
    size = 1 << f.n
    shift = f.basis[1] == "S"
    rows = [0] * size
    for b, left in _pack_index(f.terms, 0).items():
        if not shift:
            below = _superset_sum_bits(1 << b, size)  # bit t set iff t is a subset of b
        for r in iter_bits(_convert_bits(left, size, f.basis[0], "M")):
            rows[r] ^= 1 << (r ^ b) if shift else below << (r & ~b)
    return Gf2Matrix(tuple(rows))


def structural_coeff_c(a: int, b: int, c: int, d: int, e: int, h: int) -> int:
    """Multiplication constant of the XY basis.

    Parity of the chains k1 <= k2 <= b & c satisfying both
    a | (c - k2) == e and b - k1 == h - d.
    """
    count = 0
    for k2 in submasks(b & c):
        if a | (c & ~k2) != e:
            continue
        target = h & ~d
        for k1 in submasks(k2):
            if b & ~k1 == target:
                count ^= 1
    return count


def _odd_terms(keys: Iterable[Term]) -> frozenset[Term]:
    """The keys produced an odd number of times: their sum over GF(2)."""
    return frozenset(key for key, count in Counter(keys).items() if count & 1)


def _mul_my(f: frozenset[Term], g: frozenset[Term]) -> Iterator[Term]:
    for a, b in f:
        for c, d in g:
            ac = a ^ c
            if ac & ~b:
                continue
            for t in submasks(ac & ~d):
                yield a, d | t


def _mul_xy(f: frozenset[Term], g: frozenset[Term]) -> Iterator[Term]:
    for a, b in f:
        for c, d in g:
            for k2 in submasks(b & c):
                left = a | (c & ~k2)
                for k1 in submasks(k2):
                    nb = b & ~k1
                    if not nb & d:
                        yield left, nb | d


def _mul_ms(f: frozenset[Term], g: frozenset[Term]) -> Iterator[Term]:
    by_left: dict[int, list[int]] = {}
    for c, d in g:
        by_left.setdefault(c, []).append(d)
    for a, b in f:
        for d in by_left.get(a ^ b, ()):
            yield a, b ^ d


def _mul_xs(f: frozenset[Term], g: frozenset[Term]) -> Iterator[Term]:
    for a, b in f:
        for c, d in g:
            bd = b ^ d
            for k in submasks(b & c):
                yield a | (c & ~k), bd


def op_mul(f: OpCoeffs, g: OpCoeffs) -> OpCoeffs:
    """Operator product in coefficient space.

    Both operands are brought to the left operand's basis and the
    structural rule of that basis is applied; the result satisfies
    to_matrix(op_mul(f, g)) == mat_mul(to_matrix(f), to_matrix(g)).
    """
    if f.n != g.n:
        raise DimensionMismatch(f"dimension mismatch: {f.n} vs {g.n}")
    basis = f.basis
    g = convert_op_basis(g, basis)
    left, right = basis
    if right == "Y":
        kernel = _mul_my if left == "M" else _mul_xy
    else:
        kernel = _mul_ms if left == "M" else _mul_xs
    return OpCoeffs(f.n, basis, _odd_terms(kernel(f.terms, g.terms)))


def op_power(f: OpCoeffs, k: int) -> OpCoeffs:
    """k-th power, k >= 1, by binary exponentiation."""
    if k < 1:
        raise ValueError("exponent must be positive")
    acc: OpCoeffs | None = None
    base = f
    while k:
        if k & 1:
            acc = base if acc is None else op_mul(acc, base)
        k >>= 1
        if k:
            base = op_mul(base, base)
    assert acc is not None
    return acc


# --- normal ordering ---------------------------------------------------------

Factor = tuple[str, int]
# ("x", i) ("w", i) ("y", i) ("s", i) with a 1-based index, or ("m", mask)


def _factor_op(kind: str, value: int, n: int, right: str) -> OpCoeffs:
    if kind == "m":
        return op_monomial(n, "M" + right, value, 0)
    if not 1 <= value <= n:
        raise ValueError(f"generator index {value} out of range for n={n}")
    mask = 1 << (value - 1)
    if kind == "x":
        return op_monomial(n, "X" + right, mask, 0)
    if kind == "w":
        return op_monomial(n, "W" + right, mask, 0)
    if kind in ("y", "s"):
        return op_monomial(n, "X" + right, 0, mask)
    raise ValueError(f"unknown generator kind {kind!r}")


def normal_order(word: Sequence[Factor], n: int) -> OpCoeffs:
    """Rewrite a word of generators into spanning form.

    Factors are ("x", i), ("w", i), ("y", i), ("s", i) with 1-based
    index i, or ("m", mask) for a point-indicator factor.  A word may
    use derivative letters y or shift letters s but not both.  The
    result collects all left factors before all right factors, with
    repeated letters reduced (x^2 = x, y^2 = 0, s^2 = 1), and is
    expressed in the XY (or XS) basis, M-left when the word contains a
    point indicator, W-left when it mixes w letters with no x or m.
    """
    check_dim(n)
    kinds = {kind for kind, _ in word}
    bad = kinds - {"x", "w", "y", "s", "m"}
    if bad:
        raise ValueError(f"unknown generator kinds {sorted(bad)!r}")
    if "y" in kinds and "s" in kinds:
        raise ValueError("word mixes derivative and shift letters; convert afterwards instead")
    right = "S" if "s" in kinds else "Y"
    if "m" in kinds:
        left = "M"
    elif "w" in kinds and "x" not in kinds:
        left = "W"
    else:
        left = "X"
    basis = left + right
    acc = op_identity(n, basis)
    for kind, value in word:
        acc = op_mul(acc, _factor_op(kind, value, n, right))
    return acc


# --- text and JSON forms -----------------------------------------------------


def _term_text(basis: str, a: int, b: int) -> str:
    left, right = basis
    parts = []
    if a or left == "M":
        parts.append(left.lower() + mask_str(a))
    if b:
        parts.append(right.lower() + mask_str(b))
    return "".join(parts) if parts else "1"


def op_text(f: OpCoeffs) -> str:
    """Canonical text form, e.g. "x{1,2}y{1} + x{1,2}y{1,2}"."""
    if not f.terms:
        return "0"
    return " + ".join(_term_text(f.basis, a, b) for a, b in f.sorted_terms())


def op_to_json(f: OpCoeffs) -> dict:
    """JSON form: term index pairs as sorted 1-based index arrays."""
    return {
        "n": f.n,
        "basis": f.basis,
        "terms": [
            [list(indices_from_mask(a)), list(indices_from_mask(b))]
            for a, b in f.sorted_terms()
        ],
    }


def op_from_json(data: dict) -> OpCoeffs:
    n = data["n"]
    check_dim(n)
    return OpCoeffs(
        n,
        data["basis"],
        frozenset(
            (mask_from_indices(a, n), mask_from_indices(b, n)) for a, b in data["terms"]
        ),
    )
