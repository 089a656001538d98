"""Bit-packed exact linear algebra over GF(2).

Matrices are square with side a power of two; rows and columns are both
indexed by subset masks.  Each row is packed into an int whose bit d is
the entry in column d.  Coefficient vectors are packed the same way, so
applying a matrix to a RingElem's coefficient bits is a single pass of
AND + popcount-parity per row.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Mapping

from .ring import DimensionMismatch, _block_mask, iter_bits, mask_str
from .value import Value, setters


class Gf2Matrix(Value):
    """Square matrix of packed rows, given as any iterable and stored as a tuple."""

    __slots__ = ("rows",)
    rows: tuple[int, ...]

    def __init__(self, rows: Iterable[int]) -> None:
        rows = tuple(rows)
        side = len(rows)
        if side < 1 or side & (side - 1):
            raise ValueError(f"side must be a power of two, got {side}")
        if min(rows) < 0 or max(rows) >> side:
            raise ValueError("row out of range for matrix side")
        _set_rows(self, rows)

    @property
    def side(self) -> int:
        return len(self.rows)

    def entry(self, r: int, c: int) -> int:
        side = self.side
        if not (0 <= r < side and 0 <= c < side):
            raise ValueError(f"entry ({r}, {c}) out of range for matrix side {side}")
        return (self.rows[r] >> c) & 1

    def __str__(self) -> str:
        return matrix_to_text(self)


(_set_rows,) = setters(Gf2Matrix)


def trusted_matrix(rows: Iterable[int]) -> Gf2Matrix:
    """A matrix of rows valid by construction, as mat_mul and to_matrix make them: unchecked."""
    m = object.__new__(Gf2Matrix)
    _set_rows(m, tuple(rows))
    return m


# --- a square matrix of side 2^n as one table on 2n coordinates ---------------
#
# Its rows laid end to end are one 4^n-bit int with bit r 2^n + c set for the
# entry (r, c): a function of 2n coordinates, the column index's low and the
# row index's high.  A sum along coordinates is a butterfly pass per
# coordinate, and a transpose a delta swap per pair of coordinates.
# bweyl.to_matrix makes an operator's matrix on it.


def _table(rows: Mapping[int, int], n: int) -> int:
    """The table of the rows {row index: packed row} (the rest zero) of side 2^n."""
    if n <= 6:  # a row of at most 64 bits is shifted into place
        t = 0
        for r, row in rows.items():
            t |= row << (r << n)
        return t
    width = 1 << n >> 3  # bytes per row
    data = b"".join([rows.get(r, 0).to_bytes(width, "little") for r in range(1 << n)])
    return int.from_bytes(data, "little")


def _table_rows(t: int, n: int) -> list[int]:
    """Every row of a table, zero rows included."""
    if n <= 6:
        low = (1 << (1 << n)) - 1
        return [t >> shift & low for shift in range(0, 1 << 2 * n, 1 << n)]
    data, width = t.to_bytes(1 << 2 * n >> 3, "little"), 1 << n >> 3
    return [int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)]


def _coords(n: int, base: int) -> Iterator[tuple[int, int]]:
    """(step, the points with its bit clear) of each of the n coordinates from
    base on: the column index's from 0, the row index's from n."""
    for i in range(base, base + n):
        yield 1 << i, _block_mask.__wrapped__(1 << 2 * n, 1 << i)


def _swaps(n: int) -> Iterator[tuple[int, int]]:
    """The delta swaps (delta, points: see bweyl._swap_coords) that exchange
    column coordinate i with row coordinate i, for every i (the transpose),
    then those that flip column coordinate i where row coordinate i is set.
    x ^ (x & y) is x & ~y, with no 4^n-bit negation."""
    for (low, low_clear), (high, high_clear) in zip(_coords(n, 0), _coords(n, n)):
        yield high - low, high_clear ^ (high_clear & low_clear)
    for (low, low_clear), (high, high_clear) in zip(_coords(n, 0), _coords(n, n)):
        yield low, low_clear ^ (low_clear & high_clear)


# Up to n = 8, where a mask is at most 8 KiB, the masks are kept; above it
# each is made as a pass reads it, so no more than three are held at once.
_kept_coords = lru_cache(maxsize=None)(lambda n, base: list(_coords(n, base)))
_kept_swaps = lru_cache(maxsize=None)(lambda n: list(_swaps(n)))


def _table_coords(n: int, base: int) -> Iterable[tuple[int, int]]:
    return _kept_coords(n, base) if n <= 8 else _coords(n, base)


def _table_swaps(n: int) -> Iterable[tuple[int, int]]:
    return _kept_swaps(n) if n <= 8 else _swaps(n)


def _table_sums(t: int, n: int, passes: Iterable[tuple[bool, bool]]) -> int:
    """The table summed pass by pass: each pass (along the row index's
    coordinates, superset) is a subset or superset sum along the column
    index's or the row index's coordinates, one butterfly pass each."""
    for rows, superset in passes:
        for step, clear in _table_coords(n, n if rows else 0):
            t ^= (t >> step) & clear if superset else (t & clear) << step
    return t


def identity(side: int) -> Gf2Matrix:
    return Gf2Matrix(1 << i for i in range(side))


def zero_matrix(side: int) -> Gf2Matrix:
    return Gf2Matrix((0,) * side)


def _require_same_side(a: Gf2Matrix, b: Gf2Matrix) -> None:
    if a.side != b.side:
        raise DimensionMismatch(f"matrix side mismatch: {a.side} vs {b.side}")


def mat_add(a: Gf2Matrix, b: Gf2Matrix) -> Gf2Matrix:
    _require_same_side(a, b)
    return Gf2Matrix(x ^ y for x, y in zip(a.rows, b.rows))


def mat_mul(a: Gf2Matrix, b: Gf2Matrix) -> Gf2Matrix:
    """(ab)_{r,c} = XOR over k of a_{r,k} b_{k,c}."""
    _require_same_side(a, b)
    brows = b.rows
    out = []
    for arow in a.rows:
        acc = 0
        for k in iter_bits(arow):
            acc ^= brows[k]
        out.append(acc)
    return trusted_matrix(out)


def mat_apply(a: Gf2Matrix, v: int) -> int:
    """Apply to a packed coefficient vector: out bit r = parity(row_r AND v)."""
    if not 0 <= v < (1 << a.side):
        raise DimensionMismatch("vector length does not match matrix side")
    out = 0
    for r, row in enumerate(a.rows):
        out |= ((row & v).bit_count() & 1) << r
    return out


def _echelon(vectors, floor: int = 0) -> dict[int, int] | None:
    """Echelon rows of packed int vectors, keyed by their highest set bit.

    None as soon as a vector reduces to one whose highest set bit lies
    below `floor`; with floor 0 that never happens.
    """
    pivots: dict[int, int] = {}
    for vec in vectors:
        while vec:
            p = vec.bit_length() - 1
            hit = pivots.get(p)
            if hit is None:
                if p < floor:
                    return None
                pivots[p] = vec
                break
            vec ^= hit
    return pivots


def gf2_rank(vectors) -> int:
    """Rank over GF(2) of packed int vectors (any iterable)."""
    return len(_echelon(vectors))


class ColumnSolver:
    """One elimination of the augmented rows [t | s] for the system t r = s.

    Row i packs row i of t above bit `side` and row i of s below it, so a
    combination y of the rows holds y t in its high half and y s in its
    low half.  The system is solvable iff no echelon row leads in the low
    half: such a row has y t = 0 but y s != 0, so the elimination stops at
    the first one.  `solvable` reads that outcome; `solve` goes on to
    back-substitute a solution.
    """

    def __init__(self, side: int, rows: Iterable[int]) -> None:
        self.side = side
        self._pivots = _echelon(rows, side)

    def solvable(self) -> bool:
        """True iff t r = s has a solution: no pivot lies below `side`."""
        return self._pivots is not None

    def solve(self) -> Gf2Matrix | None:
        """The r that is zero outside the pivot columns, or None.

        Each echelon row (u, v) says u r = v.  From the lowest pivot up,
        row c of r is v XORed with the rows of r at the lower bits of u.
        """
        if not self.solvable():
            return None
        side = self.side
        low = (1 << side) - 1
        r = [0] * side
        for p in sorted(self._pivots):
            row = self._pivots[p]
            c = p - side
            acc = row & low
            for q in iter_bits((row >> side) ^ (1 << c)):
                acc ^= r[q]
            r[c] = acc
        return Gf2Matrix(r)


def solve_right(t: Gf2Matrix, s: Gf2Matrix) -> Gf2Matrix | None:
    """A matrix r with t r = s, or None when no such r exists."""
    _require_same_side(t, s)
    side = t.side
    return ColumnSolver(side, ((tr << side) | sr for tr, sr in zip(t.rows, s.rows))).solve()


def matrix_text_lines(a: Gf2Matrix) -> Iterator[str]:
    """The lines of matrix_to_text, one per row, produced lazily."""
    spec = f"0{a.side}b"
    return (format(row, spec)[::-1] for row in a.rows)


def matrix_to_text(a: Gf2Matrix) -> str:
    """0/1 grid, one row per line, column 0 leftmost."""
    return "\n".join(matrix_text_lines(a))


def matrix_from_text(text: str) -> Gf2Matrix:
    """The matrix of a 0/1 grid; one row per line, a short line zero-padded."""
    lines = text.strip().splitlines()
    side = len(lines)
    rows = []
    for line in lines:
        line = line.strip()
        bad = line.lstrip("01")
        if bad:
            raise ValueError(f"bad matrix character {bad[0]!r}")
        if len(line) > side:
            raise ValueError(f"line of length {len(line)} is longer than the matrix side {side}")
        rows.append(int(line[::-1] or "0", 2))  # column 0 is the leftmost
    return Gf2Matrix(rows)


def matrix_dot_lines(a: Gf2Matrix) -> Iterator[str]:
    """DOT lines, produced lazily: a node per subset mask, labelled like
    "{1,3}", and an edge from b to a iff the entry (a, b) is 1."""
    yield "digraph gf2matrix {"
    for v in range(a.side):
        yield f'  n{v} [label="{mask_str(v)}"];'
    for r, row in enumerate(a.rows):
        for c in iter_bits(row):
            yield f"  n{c} -> n{r};"
    yield "}"


def matrix_json_chunks(a: Gf2Matrix) -> Iterator[str]:
    """JSON {"side": ..., "rows": [0/1 strings]}, one piece per row, produced lazily."""
    yield f'{{"side": {a.side}, "rows": ['
    sep = '"'
    for line in matrix_text_lines(a):
        yield sep + line + '"'
        sep = ', "'
    yield "]}"
