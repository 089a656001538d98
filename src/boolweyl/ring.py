"""Boolean ring of all functions Z_2^n -> Z_2, in three bases.

A subset a of [n] = {1,...,n} is encoded as an n-bit mask whose bit i-1
stands for the element i; the same mask names the point of Z_2^n whose
i-th coordinate is 1 exactly when i is in a.  Sum of masks is XOR
(symmetric difference), product is AND (intersection), complement is
bitwise NOT within n bits.

A ring element is stored as a packed 2^n-bit integer whose bit at index
a is the coefficient of the basis element indexed by a, in one of three
bases:

    M   point indicators          m^a(b) = [a == b]
    X   monomials                 x^a(b) = [a subset of b]
    W   complemented monomials    w^a(b) = [b subset of complement(a)]

Coefficient vectors in different bases are related by self-inverse
subset/superset sums over GF(2), computed by butterfly passes:

    X-from-M and M-from-X:   out(b) = XOR over a subset of b of in(a)
    W-from-X and X-from-W:   out(a) = XOR over b superset of a of in(b)
    W-from-M and M-from-W:   through X, one subset sum and one superset sum

The pointwise product is the AND of M coefficients, so ring_mul in any
basis converts to M, ANDs and converts back.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import count
from typing import Iterable, Iterator, Sequence

MAX_DIM = 16
RING_BASES = ("M", "X", "W")


class DimensionMismatch(ValueError):
    """Operands live over different dimensions n."""


def check_dim(n: int) -> None:
    if not 1 <= n <= MAX_DIM:
        raise ValueError(f"dimension must be in [1, {MAX_DIM}], got {n}")


def check_mask(a: int, n: int) -> None:
    if not 0 <= a < (1 << n):
        raise ValueError(f"mask {a} out of range for n={n}")


def mask_from_indices(indices: Iterable[int], n: int) -> int:
    """Mask of a subset given by 1-based indices."""
    mask = 0
    for i in indices:
        if not 1 <= i <= n:
            raise ValueError(f"index {i} out of range for n={n}")
        mask |= 1 << (i - 1)
    return mask


def _byte_table(cells: Sequence) -> tuple:
    # entry i joins the cells of the set bits of the byte i, lowest bit first;
    # built by doubling over the byte's eight bits, from the empty cell up
    table = (cells[0][:0],)
    for cell in cells:
        table += tuple(t + cell for t in table)
    return table


# a mask of MAX_DIM = 16 bits is two lookups: positions 0-7, then 8-15
_LOW_BITS = _byte_table([(p,) for p in range(8)])
_HIGH_BITS = _byte_table([(p,) for p in range(8, 16)])


def iter_bits(bits: int) -> Sequence[int]:
    """Positions of the set bits of a packed int, ascending.

    One table lookup per byte from the lowest set byte to the highest, so
    the walk is linear in the width of the int.  A negative int raises
    ValueError.
    """
    if 0 <= bits < 1 << 16:
        return _LOW_BITS[bits & 255] + _HIGH_BITS[bits >> 8]
    if bits < 0:
        raise ValueError(f"negative bit vector {bits}")
    data = bits.to_bytes((bits.bit_length() + 7) >> 3, "little")
    body = data.lstrip(b"\0")
    first = (len(data) - len(body)) << 3
    return [base + p for base, byte in zip(count(first, 8), body) if byte for p in _LOW_BITS[byte]]


def indices_from_mask(mask: int) -> tuple[int, ...]:
    """Sorted 1-based indices of a subset mask."""
    return tuple(i + 1 for i in iter_bits(mask))


# mask_str's labels, each followed by a comma: 1-8 from the low byte, 9-16
# from the high; built from strings, as deriving them from the position
# tables costs about 1 ms more per import
_LOW_LABELS = _byte_table([f"{p}," for p in range(1, 9)])
_HIGH_LABELS = _byte_table([f"{p}," for p in range(9, 17)])


def mask_str(mask: int) -> str:
    """Set literal like "{1,3}"; "{}" for the empty set."""
    if not 0 <= mask < 1 << MAX_DIM:
        raise ValueError(f"mask {mask} out of range for n={MAX_DIM}")
    return "{" + (_LOW_LABELS[mask & 255] + _HIGH_LABELS[mask >> 8])[:-1] + "}"


def odd_parity(a: int) -> int:
    """1 iff the subset a has odd cardinality."""
    return a.bit_count() & 1


def submasks(mask: int) -> Iterator[int]:
    """All submasks of mask, in decreasing order, ending with 0."""
    if mask < 0:
        raise ValueError(f"negative mask {mask}")
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


@lru_cache(maxsize=None)
def _block_mask(size: int, step: int) -> int:
    # bits set at positions whose index has the `step` bit clear
    m = (1 << step) - 1
    width = step << 1
    while width < size:
        m |= m << width
        width <<= 1
    return m


def _subset_sum_bits(bits: int, size: int) -> int:
    """out(b) = XOR over a subset of b of in(a), on a packed vector."""
    step = 1
    while step < size:
        bits ^= (bits & _block_mask(size, step)) << step
        step <<= 1
    return bits


def _superset_sum_bits(bits: int, size: int) -> int:
    """out(a) = XOR over b superset of a of in(b), on a packed vector."""
    step = 1
    while step < size:
        bits ^= (bits >> step) & _block_mask(size, step)
        step <<= 1
    return bits


def _check_pow2_length(length: int) -> None:
    if length < 1 or length & (length - 1):
        raise ValueError(f"vector length must be a power of two, got {length}")


def _pack(vec: Iterable[int]) -> tuple[int, int]:
    bits = 0
    length = 0
    for v in vec:
        if v & 1:
            bits |= 1 << length
        length += 1
    return bits, length


def _unpack(bits: int, length: int) -> list[int]:
    return [(bits >> i) & 1 for i in range(length)]


def subset_sum_transform(vec: Iterable[int]) -> list[int]:
    """GF(2) subset sum: out(b) = XOR over a subset of b of vec(a).

    Self-inverse; the identity coefficients of the M <-> X basis change.
    """
    bits, length = _pack(vec)
    _check_pow2_length(length)
    return _unpack(_subset_sum_bits(bits, length), length)


def superset_sum_transform(vec: Iterable[int]) -> list[int]:
    """GF(2) superset sum: out(a) = XOR over b superset of a of vec(b).

    Self-inverse; the coefficients of the X <-> W basis change.
    """
    bits, length = _pack(vec)
    _check_pow2_length(length)
    return _unpack(_superset_sum_bits(bits, length), length)


@dataclass(frozen=True)
class RingElem:
    """Element of the Boolean ring: packed coefficients plus a basis tag."""

    n: int
    basis: str
    bits: int

    def __post_init__(self) -> None:
        check_dim(self.n)
        if self.basis not in RING_BASES:
            raise ValueError(f"unknown ring basis {self.basis!r}")
        if not 0 <= self.bits < (1 << (1 << self.n)):
            raise ValueError("coefficient vector out of range")

    def coeff(self, a: int) -> int:
        check_mask(a, self.n)
        return (self.bits >> a) & 1

    def support(self) -> tuple[int, ...]:
        """Masks with coefficient 1, ascending."""
        return tuple(iter_bits(self.bits))

    def is_zero(self) -> bool:
        return self.bits == 0

    def __add__(self, other: "RingElem") -> "RingElem":
        return ring_add(self, other)

    def __mul__(self, other: "RingElem") -> "RingElem":
        return ring_mul(self, other)

    def __str__(self) -> str:
        return ring_text(self)


# The self-inverse butterfly between X and each other basis.
_X_SUMS = {"M": _subset_sum_bits, "W": _superset_sum_bits}


def _convert_bits(bits: int, size: int, frm: str, to: str) -> int:
    if frm == to:
        return bits
    if frm != "X":
        bits = _X_SUMS[frm](bits, size)
    if to != "X":
        bits = _X_SUMS[to](bits, size)
    return bits


def convert_ring_basis(f: RingElem, target: str) -> RingElem:
    """Rewrite f in the target basis; the function it denotes is unchanged."""
    if target not in RING_BASES:
        raise ValueError(f"unknown ring basis {target!r}")
    if target == f.basis:
        return f
    return RingElem(f.n, target, _convert_bits(f.bits, 1 << f.n, f.basis, target))


def ring_monomial(kind: str, a: int, n: int) -> RingElem:
    """The basis element m^a, x^a or w^a as a ring element."""
    check_dim(n)
    check_mask(a, n)
    if kind not in RING_BASES:
        raise ValueError(f"unknown ring basis {kind!r}")
    return RingElem(n, kind, 1 << a)


def ring_zero(n: int, basis: str = "M") -> RingElem:
    return RingElem(n, basis, 0)


def ring_one(n: int, basis: str = "X") -> RingElem:
    """The constant function 1 (= x^empty = w^empty)."""
    return convert_ring_basis(RingElem(n, "X", 1), basis)


def ring_from_support(n: int, basis: str, masks: Iterable[int]) -> RingElem:
    bits = 0
    for a in masks:
        check_mask(a, n)
        bits ^= 1 << a
    return RingElem(n, basis, bits)


def require_same_dim(a, b) -> None:
    """Reject two operands (anything with an .n) over different dimensions."""
    if a.n != b.n:
        raise DimensionMismatch(f"dimension mismatch: {a.n} vs {b.n}")


def ring_add(f: RingElem, g: RingElem) -> RingElem:
    """Sum (XOR of coefficient vectors), in the basis of the left operand."""
    require_same_dim(f, g)
    g = convert_ring_basis(g, f.basis)
    return RingElem(f.n, f.basis, f.bits ^ g.bits)


def _cover_product_bits(fbits: int, gbits: int) -> int:
    # (fg)(c) = parity of pairs (a, b), a in supp f, b in supp g, a|b == c
    out = 0
    for a in iter_bits(fbits):
        for b in iter_bits(gbits):
            out ^= 1 << (a | b)
    return out


def ring_mul(f: RingElem, g: RingElem) -> RingElem:
    """Pointwise product, expressed in the basis of the left operand.

    It is computed as the AND of the M coefficient vectors, converted
    back.  In the X and W bases the result equals the cover product: the
    output coefficient at c is the parity of pairs (a, b) of supported
    masks with a union b = c (the zeta/Moebius route to the covering
    product of Bjoerklund, Husfeldt, Kaski and Koivisto).
    """
    require_same_dim(f, g)
    size = 1 << f.n
    bits = _convert_bits(f.bits, size, f.basis, "M") & _convert_bits(g.bits, size, g.basis, "M")
    return RingElem(f.n, f.basis, _convert_bits(bits, size, "M", f.basis))


def ring_eval(f: RingElem, point: int) -> int:
    """Value of f at a point of Z_2^n (a subset mask)."""
    check_mask(point, f.n)
    return (convert_ring_basis(f, "M").bits >> point) & 1


def k_cover_parity(cover_sets: Iterable[int], a: int, k: int, n: int) -> int:
    """Parity of ordered k-tuples from the family whose union is a.

    Equals membership of a in the family, for every k >= 1: the k-th
    power of sum(x^c for c in the family) has X coefficients given by
    exactly this parity, and odd powers fix every ring element.
    """
    if k < 1:
        raise ValueError("k must be positive")
    check_dim(n)
    check_mask(a, n)
    base = 0
    for c in cover_sets:
        check_mask(c, n)
        base |= 1 << c
    cur = base
    for _ in range(k - 1):
        cur = _cover_product_bits(cur, base)
    return (cur >> a) & 1


def ring_text(f: RingElem) -> str:
    """Human-readable sum of monomials, e.g. "x{1} + x{1,2}"."""
    letter = f.basis.lower()
    parts = []
    for a in f.support():
        if a == 0 and f.basis in ("X", "W"):
            parts.append("1")
        else:
            parts.append(letter + mask_str(a))
    return " + ".join(parts) if parts else "0"


def ring_to_json(f: RingElem) -> dict:
    """JSON form: supported subsets as sorted 1-based index arrays."""
    return {
        "n": f.n,
        "basis": f.basis,
        "support": [list(indices_from_mask(a)) for a in f.support()],
    }


def ring_from_json(data: dict) -> RingElem:
    n = data["n"]
    check_dim(n)
    support = {mask_from_indices(ix, n) for ix in data["support"]}
    return ring_from_support(n, data["basis"], support)
