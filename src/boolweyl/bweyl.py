"""Quantum Boolean operator algebras in six spanning bases.

A term (a, b) of an operator on the Boolean ring stands for one monomial
operator whose left factor is a ring monomial (m^a, x^a or w^a) and whose
right factor is a product of derivatives (y^b = prod of d_i, i in b) or
of shifts (s^b).  The six bases are tagged MY, XY, WY, MS, XS, WS.  An
operator is stored packed by right index, as rows {b: g}: g is the 2^n-bit
ring element, in the left basis, of the left indices of the terms (a, b).
The MY rows are the language's MY tables, whose one product is
table_product, by d_i g = (s_i g) d_i + (d_i g) for a table g.

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

The kernels sum these toggles over GF(2) without listing them: each
term pair XORs one packed int into an accumulator keyed by one index
and packed over the other.  With below(s) the packed indicator of the
submasks of s (bit t set iff t is a subset of s):

    MY   if a + c is a subset of b: acc[a] ^= below((a+c) & ~d) << d
    MS   if c == a + b: acc[b + d] ^= 1 << a
    XS   if a & b & c == 0: acc[b + d] ^= below(b & c) << (a | (c & ~b))
    XY   if b & d is a subset of c: for every r subset of b & c & ~a & ~d,
         acc[(b & ~c) | d | r] ^= below(r) << (a | (c & ~b))

MS, XS and XY are keyed by the right index, so their accumulators are the
product's rows; MY is keyed by the left, and transposed.  In XS,
the left index a | (c - k) ignores the bits of k inside a, so when
a & b & c != 0 each left index is hit 2^|a & b & c| times and the pair
cancels.  In XY, the right index (b - k1) | d fixes k1, which must
contain b & d.  The left indices a | (c - k2) of the chains above k1
ignore the bits of k2 inside a, so they cancel in pairs unless k1
already holds a & b & c; then r = (b & c) - k1, and the k2 between k1
and b & c give the left indices a | (c & ~b) | t for every t subset of r.
The literal rules stay as oracles: structural_coeff_c here, and the
battery's monomial-product-forms check for all four.

to_matrix is the semantic anchor: every element maps to the matrix of
the operator it denotes on M-basis coordinates, made by coordinate moves
on the operator's 4^n-bit table (row by row from closed forms when it has
few terms), and multiplication of coefficients must match multiplication
of matrices bit for bit.  The products of generator matrices in diffops
are the oracle it is checked against.
table_block_rows writes the same rows from MY tables with a row builder
of its own, one diagonal block at a time, each block's rows of two
operators side by side, built only as far as they are read; with all of
[n] as block coordinates its one block is the two matrices of to_matrix,
with which it shares no row code.  It also places a matrix solved block
by block back on M-basis coordinates, so a witness needs no full matrix.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache, partial
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence

from .ring import (
    _LOW_BITS,
    _block_mask,
    _convert_bits,
    check_dim,
    check_mask,
    indices_from_mask,
    iter_bits,
    mask_from_indices,
    mask_str,
    mask_texts,
    require_same_dim,
    submasks,
)
from .value import Value, setters

if TYPE_CHECKING:  # gf2lin is imported where a matrix is made
    from .gf2lin import Gf2Matrix

OP_BASES = ("MY", "XY", "WY", "MS", "XS", "WS")

Term = tuple[int, int]


class Rows(dict):
    """An operator's rows {right index: packed left}: hashed by its items, read-only."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(frozenset(self.items()))

    def __reduce__(self):
        return Rows, (dict(self),)

    def _frozen(self, *args, **kwargs):
        raise TypeError("operator rows cannot change")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _frozen


class OpCoeffs(Value):
    """Operator coefficients in one basis, packed by right index: rows maps
    each right index b to the packed int of the left indices a of the terms
    (a, b), and no row is zero.  Given a dict, it is read as these rows
    (zero rows dropped); any other iterable is read as (left, right) pairs."""

    __slots__ = ("n", "basis", "rows")
    n: int
    basis: str
    rows: Rows

    def __init__(self, n: int, basis: str, rows: dict[int, int] | Iterable[Term]) -> None:
        check_dim(n)
        if basis not in OP_BASES:
            raise ValueError(f"unknown operator basis {basis!r}")
        size = 1 << n
        if not isinstance(rows, dict):  # (left, right) pairs; a repeated pair counts once
            terms, rows = rows, {}
            for a, b in terms:
                if type(a) is not int or not 0 <= a < size:
                    check_mask(a, n)
                rows[b] = rows.get(b, 0) | 1 << a
        for b, lefts in rows.items():
            if type(b) is not int or type(lefts) is not int or not 0 <= b < size or lefts < 0 or lefts >> size:
                check_mask(b, n)
                raise ValueError(f"row {b} out of range for n={n}")
        _trusted(n, basis, rows, self)

    @property
    def terms(self) -> frozenset[Term]:
        """The (left, right) index pairs of the terms, read from the rows."""
        return frozenset(_pairs(self.rows))

    def __str__(self) -> str:
        return op_text(self)


_set_n, _set_basis, _set_rows = setters(OpCoeffs)


def _trusted(n: int, basis: str, rows: Mapping[int, int], f: OpCoeffs | None = None) -> OpCoeffs:
    """The operator (f, once checked) of rows valid by construction: zero rows dropped, no check."""
    f = object.__new__(OpCoeffs) if f is None else f
    _set_n(f, n)
    _set_basis(f, basis)
    _set_rows(f, Rows(filter(itemgetter(1), rows.items()) if 0 in rows.values() else rows))
    return f


def _pairs(rows: Mapping[int, int]) -> list[Term]:
    """The (left, right) pairs of rows {right: packed left}."""
    return [(a, b) for b, lefts in rows.items() for a in iter_bits(lefts)]


def _transpose(rows: Mapping[int, int]) -> dict[int, int]:
    """{i: packed j} as {j: packed i}: rows by right index as rows by left index, and back."""
    out: dict[int, int] = {}
    get = out.get
    for i, js in rows.items():
        bit = 1 << i
        for j in iter_bits(js):
            out[j] = get(j, 0) | bit
    return out


def op_identity(n: int, basis: str = "XY") -> OpCoeffs:
    """The identity operator written in the given basis."""
    check_dim(n)
    # in M, 1 = the sum of all point indicators
    return OpCoeffs(n, basis, {0: (1 << (1 << n)) - 1 if basis[0] == "M" else 1})


def op_monomial(n: int, basis: str, a: int, b: int) -> OpCoeffs:
    return OpCoeffs(n, basis, [(a, b)])


def op_add(f: OpCoeffs, g: OpCoeffs) -> OpCoeffs:
    """Sum: XOR of rows, in the left operand's basis."""
    require_same_dim(f, g)
    rows = dict(f.rows)
    for b, lefts in convert_op_basis(g, f.basis).rows.items():
        rows[b] = rows.get(b, 0) ^ lefts
    return _trusted(f.n, f.basis, rows)


def convert_op_basis(f: OpCoeffs, target: str) -> OpCoeffs:
    """Rewrite f in the target basis; the operator it denotes is unchanged.

    The left index converts by a ring basis change of each distinct row;
    the right index converts between Y and S by a superset sum over the
    right indices (y^b = sum of s^c over c subset of b, and back).
    """
    if target not in OP_BASES:
        raise ValueError(f"unknown operator basis {target!r}")
    if target == f.basis:
        return f
    rows = f.rows
    if f.basis[0] != target[0]:
        size, frm, to = 1 << f.n, f.basis[0], target[0]
        new = {lefts: _convert_bits(lefts, size, frm, to) for lefts in set(rows.values())}
        rows = {b: new[lefts] for b, lefts in rows.items()}
    if f.basis[1] != target[1]:
        rows = _superset_sum_rows(rows, f.n)
    return _trusted(f.n, target, rows)


def _superset_sum_rows(rows: Mapping[int, int], n: int) -> dict[int, int]:
    """out[c] = XOR of rows[b] over the b superset of c, a pass per coordinate."""
    rows = dict(rows)
    for i in range(n):
        bit = 1 << i
        for b in [b for b in rows if b & bit]:
            rows[b ^ bit] = rows.get(b ^ bit, 0) ^ rows[b]
    return rows


def _below(s: int) -> int:
    """Packed indicator of the submasks of s: bit t is set iff t is a subset
    of s.  Built by doubling over the bits of s."""
    bits = 1
    while s:
        low = s & -s
        bits |= bits << low
        s ^= low
    return bits


# --- operators as MY tables ----------------------------------------------------


class Tables:
    """What the operators of one walk share: each distinct table is held as
    one int, and each move of a table along a coordinate is made once."""

    __slots__ = ("n", "true", "_held", "_moves")

    def __init__(self, n: int, true: int) -> None:
        self.n = n
        self.true = true  # the table of 1, (1 << 2^n) - 1: the walk's own object, tested by identity
        self._held = {self.true: self.true}
        self._moves: dict[tuple[int, int], tuple[int, int]] = {}

    def hold(self, t: int) -> int:
        return self._held.setdefault(t, t)

    def move(self, t: int, i: int) -> tuple[int, int]:
        """(s_i t, d_i t): t with its halves along coordinate i swapped, so
        bit a reads t at a + e_i, and the sum of that with t."""
        moved = self._moves.get((t, i))
        if moved is None:
            step, low = 1 << i, _block_mask(1 << self.n, 1 << i)
            s = (t & low) << step | (t >> step) & low
            moved = self._moves[t, i] = (self.hold(s), self.hold(t ^ s))
        return moved


def operator_tables(value: int | dict[int, int]) -> dict[int, int]:
    """The MY tables {b: g} of a value of the walk, g the nonzero M table of
    the coefficient of y^b: a truth table t multiplies, {0: t}."""
    return value if isinstance(value, dict) else {0: value} if value else {}


def table_sum(f: int | dict[int, int], g: int | dict[int, int], tables: Tables) -> dict[int, int]:
    """f + g on MY tables: XOR key by key, zeros dropped."""
    out = dict(operator_tables(f))
    for b, t in operator_tables(g).items():
        t = tables.hold(out.pop(b) ^ t) if b in out else t
        if t:
            out[b] = t
    return out


def _derive(g: dict[int, int], i: int, tables: Tables) -> dict[int, int]:
    """d_i g on MY tables: d_i t = (s_i t) d_i + (d_i t) for a table t and
    d_i d_i = 0, so t at c gives d_i t at c and, if c lacks i, s_i t at c + i."""
    bit, out = 1 << i, {}
    for c, t in g.items():
        s, d = tables.move(t, i)
        if d:
            out[c] = tables.hold(out[c] ^ d) if c in out else d
        if not c & bit:
            out[c | bit] = tables.hold(out[c | bit] ^ s) if c | bit in out else s
    return {c: t for c, t in out.items() if t}


def table_product(f: int | dict[int, int], g: int | dict[int, int], tables: Tables) -> dict[int, int]:
    """f g on MY tables: the sum over b of f_b (d^b g), that is, over b, d and
    c inside b - d, of (f_b . s^c d^(b-c) g_d) d^(c | d).  The b run down a
    binary trie of f's right indices, highest coordinate first, and a branch
    that takes coordinate i derives with _derive, so each node derives once;
    a leaf ANDs its f_b into each table of its derivative of g, XORed into the sum at once."""
    f, g, true = operator_tables(f), operator_tables(g), tables.true
    keys = sorted(f)
    out: dict[int, int] = {}
    stack = [(0, len(keys), tables.n - 1, g)] if f else []  # keys[lo:hi] agree above i
    while stack:
        lo, hi, i, h = stack.pop()
        if hi - lo > 1:
            mid = bisect_left(keys, (keys[lo] >> i | 1) << i, lo, hi)  # the first with bit i
            if mid > lo:
                stack.append((lo, mid, i - 1, h))
            if hi > mid:
                stack.append((mid, hi, i - 1, _derive(h, i, tables)))
            continue
        for j in iter_bits(keys[lo] & ((1 << (i + 1)) - 1)):
            h = _derive(h, j, tables)
        fb = f[keys[lo]]
        for c, t in h.items():
            t = t if fb is true else fb if t is true else fb & t
            if c in out:
                t ^= out.pop(c)
            if t:
                out[c] = tables.hold(t)
    return out


def to_matrix(f: OpCoeffs) -> Gf2Matrix:
    """Matrix of the operator on M-basis coordinates.  With at least one term
    per 2^11 bits of the operator's table it is made on the table: in MS the
    term m^a s^b is the entry (a, a + b), so the table is taken to MS and
    transposed, and column bit i is flipped on the rows with bit i set.
    Below that, the table's 2n full passes cost more than writing it row by
    row: multiplication by g is diagonal there, so for each row {b: g} and
    each bit r of g's M table, row r of s^b (the point r + b) or of d^b (the
    submasks of b shifted by r & ~b) is XORed into row r."""
    from . import gf2lin

    n = f.n
    if sum(map(int.bit_count, f.rows.values())) << 11 >= 1 << 2 * n:
        t = gf2lin._table_sums(gf2lin._table(f.rows, n), n, _table_passes(f.basis, "MS"))
        return gf2lin.trusted_matrix(gf2lin._table_rows(_swap_coords(t, gf2lin._table_swaps(n)), n))
    size = 1 << n
    left, derives = f.basis[0], f.basis[1] == "Y"
    rows = [0] * size
    for b, g in f.rows.items():
        g = _convert_bits(g, size, left, "M")
        if derives:
            below, outside = _below(b), ~b
            for r in iter_bits(g):
                rows[r] ^= below << (r & outside)
        else:
            for r in iter_bits(g):
                rows[r] ^= 1 << (r ^ b)
    return gf2lin.trusted_matrix(rows)


@lru_cache(maxsize=None)
def _table_passes(frm: str, to: str) -> tuple[tuple[bool, bool], ...]:
    """The butterfly passes (along the right coordinates, superset) that rewrite
    an operator's table (its rows {b: packed a} as one gf2lin._table, the left
    coordinates low) from basis frm to basis to: the ring basis change along
    the left ones, through X, and between Y and S the superset sum along the
    right ones."""
    passes = [(False, ring == "W") for ring in (frm[0], to[0]) if ring != "X"] if frm[0] != to[0] else []
    return tuple(passes + [(True, True)] * (frm[1] != to[1]))


def _swap_coords(bits: int, swaps: Iterable[tuple[int, int]]) -> int:
    """The table with coordinates exchanged, swap by swap: a swap of i < j is (2^j - 2^i,
    the points with bit i set and bit j clear), each trading its bit with its mirror."""
    for delta, points in swaps:
        t = (bits ^ (bits >> delta)) & points
        bits ^= t ^ (t << delta)
    return bits


def table_block_rows(
    n: int, p: dict[int, int], q: dict[int, int]
) -> Iterator[tuple[int, Iterator[int], Callable]]:
    """The augmented rows [q-hat | p-hat] of two operators given as MY
    tables {b: g} at dimension n, one distinct diagonal block at a time,
    produced lazily.

    Row r of d^b has its entries at the columns c with c & ~b == r & ~b.
    So with B the union of the right indices b of p and q, widened by the
    lowest coordinates outside it to at least min(n, 3), both matrices are
    block diagonal: one block per coset z = r & ~B, of side 2^|B|.  A
    stable partition moves B's coordinates to the low bits and keeps the
    order of rows and columns inside a block; block z is then built from
    the bits [z 2^|B|, (z + 1) 2^|B|) of each table, a whole number of
    bytes (one byte, zero-padded, when n <= 2).  Blocks whose slices all agree are equal, so each
    distinct pair is given once, in the order of its lowest z, and a pair
    whose p block is zero is skipped.

    Each is (side, rows, place): rows gives (q_r << side) | p_r for r from
    0 to side - 1, with q_r and p_r row r of the two blocks.  The rows are
    built 8 at a time from one byte of each table, so a reader that stops
    early leaves the rest of the block unbuilt.  place(block, out) writes
    the rows of a side x side matrix on the block's coordinates into out,
    the 2^n rows of a matrix on M-basis coordinates: for every coset z
    that shares the block, row t, its swaps undone and shifted left by z,
    is row z | u, u the t-th submask of B.  A later coset can still join a
    block, so place is called once the generator is used up.
    """
    size, full = 1 << n, (1 << n) - 1
    low = 0
    for b in (*p, *q):
        low |= b
    while low.bit_count() < min(n, 3):
        low |= ~low & (low + 1)  # its lowest clear bit
    dim = low.bit_count()
    order = list(iter_bits(low)) + list(iter_bits(full ^ low))
    at = list(range(n))  # the coordinate at each bit position, as the swaps go
    swaps = []
    for i, c in enumerate(order):
        j = at.index(c)
        if j != i:
            at[i], at[j] = c, at[i]
            swaps.append(((1 << j) - (1 << i), _block_mask(size, 1 << j) & ~_block_mask(size, 1 << i)))
    rank = {c: i for i, c in enumerate(order)}
    side = 1 << dim
    nbytes = (size + 7) >> 3
    # per (b, g), p's first: the submasks of b moved, shifted by q's offset
    # `side`, the complement of b moved, and the bytes of g moved
    tables = []
    for gs, offset in ((p, 0), (q, side)):
        for b, left in gs.items():
            left = _swap_coords(left, swaps)
            b = sum(1 << rank[c] for c in iter_bits(b))
            tables.append((_below(b) << offset, ~b, left.to_bytes(nbytes, "little")))

    def place(cosets: list[int], block: Sequence[int], out: list[int]) -> None:
        us = [0]  # the submasks of B in ascending order, by doubling
        for c in order[:dim]:
            us += [u | 1 << c for u in us]
        zs = [sum(1 << order[dim + i] for i in iter_bits(k)) for k in cosets]
        for u, row in zip(us, block):
            row = _swap_coords(row, reversed(swaps))
            for z in zs:
                out[z | u] = row << z

    width = (side + 7) >> 3
    zero = bytes(width)
    p_count = len(p)
    cosets_of: dict[tuple[bytes, ...], list[int]] = {}  # per distinct key, the slices k that share it
    for k, start in enumerate(range(0, nbytes, width)):
        key = tuple(data[start : start + width] for _, _, data in tables)
        cosets = cosets_of.setdefault(key, [])
        cosets.append(k)
        if len(cosets) == 1 and any(part != zero for part in key[:p_count]):
            parts = [(form, outside, part) for (form, outside, _), part in zip(tables, key) if part != zero]
            yield side, _block_rows(parts, width, min(side, 8)), partial(place, cosets)


def _block_rows(parts: list[tuple[int, int, bytes]], width: int, chunk_side: int) -> Iterator[int]:
    """The rows of the sum of g d^b over the parts (form, ~b, bytes of g),
    form the submasks of b shifted to the part's half of the augmented row,
    8 rows per byte of the tables (fewer when there are fewer rows): for
    every bit r of g, form shifted by r & ~b, row r of d^b, is XORed into row r."""
    for k in range(width):
        base = k << 3
        rows = [0] * chunk_side
        for form, outside, part in parts:
            byte = part[k]
            if byte:
                for t in _LOW_BITS[byte]:
                    rows[t] ^= form << ((base + t) & outside)
        yield from rows


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


def _mul_my(f: list[Term], g: list[Term]) -> dict[int, int]:
    acc: dict[int, int] = {}  # packed right indices by left index
    for a, b in f:
        row = 0
        for c, d in g:
            ac = a ^ c
            if not ac & ~b:
                row ^= _below(ac & ~d) << d
        acc[a] = acc.get(a, 0) ^ row
    return _transpose(acc)


def _mul_xy(f: list[Term], g: list[Term]) -> dict[int, int]:
    acc: dict[int, int] = {}
    for a, b in f:
        for c, d in g:
            if b & d & ~c:
                continue
            base = (b & ~c) | d
            shift = a | (c & ~b)
            for r in submasks(b & c & ~a & ~d):
                key = base | r
                acc[key] = acc.get(key, 0) ^ (_below(r) << shift)
    return acc


def _mul_ms(f: list[Term], g: list[Term]) -> dict[int, int]:
    by_left: dict[int, list[int]] = {}
    for c, d in g:
        by_left.setdefault(c, []).append(d)
    acc: dict[int, int] = {}
    for a, b in f:
        bit = 1 << a
        for d in by_left.get(a ^ b, ()):
            acc[b ^ d] = acc.get(b ^ d, 0) ^ bit
    return acc


def _mul_xs(f: list[Term], g: list[Term]) -> dict[int, int]:
    acc: dict[int, int] = {}
    for a, b in f:
        for c, d in g:
            if a & b & c:
                continue
            key = b ^ d
            acc[key] = acc.get(key, 0) ^ (_below(b & c) << (a | (c & ~b)))
    return acc


def op_mul(f: OpCoeffs, g: OpCoeffs) -> OpCoeffs:
    """Operator product in coefficient space.

    Both operands are brought to the left operand's basis and the
    structural rule of that basis is applied; the result satisfies
    to_matrix(op_mul(f, g)) == mat_mul(to_matrix(f), to_matrix(g)).
    """
    require_same_dim(f, g)
    basis = f.basis
    g = convert_op_basis(g, basis)
    left, right = basis
    if right == "Y":
        kernel = _mul_my if left == "M" else _mul_xy
    else:
        kernel = _mul_ms if left == "M" else _mul_xs
    return _trusted(f.n, basis, kernel(_pairs(f.rows), _pairs(g.rows)))


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
    acc = None  # the first factor, in the word's basis, starts the product
    for kind, value in word:
        f = _factor_op(kind, value, n, right)
        acc = convert_op_basis(f, basis) if acc is None else op_mul(acc, f)
    return op_identity(n, basis) if acc is None else acc


# --- text and JSON forms -----------------------------------------------------


def op_text(f: OpCoeffs) -> str:
    """Canonical text form, e.g. "x{1,2}y{1} + x{1,2}y{1,2}": the terms
    ascending on (left, right), written per left index with the right
    labels of each 256-mask chunk in one join (see ring.ring_text)."""
    left, right = f.basis.lower()
    parts = []
    for a, rights in sorted(_transpose(f.rows).items()):
        prefix = left + mask_str(a) if a or left == "m" else ""
        if rights & 1:
            parts.append(prefix or "1")
        parts += mask_texts(rights & ~1, prefix + right + "{")
    return " + ".join(parts) if parts else "0"


def op_to_json(f: OpCoeffs) -> dict:
    """JSON form: term index pairs as sorted 1-based index arrays, ascending
    on (left, right).  The terms that share an index share its array, so a
    dense operator builds one list per term, not three."""
    right_ix = {b: list(indices_from_mask(b)) for b in f.rows}
    terms = []
    for a, rights in sorted(_transpose(f.rows).items()):
        ix = list(indices_from_mask(a))
        terms += [[ix, right_ix[b]] for b in iter_bits(rights)]
    return {"n": f.n, "basis": f.basis, "terms": terms}


def op_from_json(data: dict) -> OpCoeffs:
    n = data["n"]
    check_dim(n)
    terms = ((mask_from_indices(a, n), mask_from_indices(b, n)) for a, b in data["terms"])
    return OpCoeffs(n, data["basis"], terms)
