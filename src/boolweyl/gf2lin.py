"""Bit-packed exact linear algebra over GF(2).

Matrices are square with side a power of two; rows and columns are both
indexed by subset masks.  Each row is packed into an int whose bit d is
the entry in column d.  Coefficient vectors are packed the same way, so
applying a matrix to a RingElem's coefficient bits is a single pass of
AND + popcount-parity per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .ring import DimensionMismatch, iter_bits, mask_str


@dataclass(frozen=True)
class Gf2Matrix:
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        side = len(self.rows)
        if side < 1 or side & (side - 1):
            raise ValueError(f"side must be a power of two, got {side}")
        if min(self.rows) < 0 or max(self.rows) >> side:
            raise ValueError("row out of range for matrix side")

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


def identity(side: int) -> Gf2Matrix:
    return Gf2Matrix(tuple(1 << i for i in range(side)))


def zero_matrix(side: int) -> Gf2Matrix:
    return Gf2Matrix((0,) * side)


def _require_same_side(a: Gf2Matrix, b: Gf2Matrix) -> None:
    if a.side != b.side:
        raise DimensionMismatch(f"matrix side mismatch: {a.side} vs {b.side}")


def mat_add(a: Gf2Matrix, b: Gf2Matrix) -> Gf2Matrix:
    _require_same_side(a, b)
    return Gf2Matrix(tuple(x ^ y for x, y in zip(a.rows, b.rows)))


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
    return Gf2Matrix(tuple(out))


def mat_apply(a: Gf2Matrix, v: int) -> int:
    """Apply to a packed coefficient vector: out bit r = parity(row_r AND v)."""
    if not 0 <= v < (1 << a.side):
        raise DimensionMismatch("vector length does not match matrix side")
    out = 0
    for r, row in enumerate(a.rows):
        out |= ((row & v).bit_count() & 1) << r
    return out


def _echelon(vectors) -> dict[int, int]:
    """Echelon rows of packed int vectors, keyed by their highest set bit."""
    pivots: dict[int, int] = {}
    for vec in vectors:
        while vec:
            p = vec.bit_length() - 1
            hit = pivots.get(p)
            if hit is None:
                pivots[p] = vec
                break
            vec ^= hit
    return pivots


def gf2_rank(vectors) -> int:
    """Rank over GF(2) of packed int vectors (any iterable)."""
    return len(_echelon(vectors))


def rank(a: Gf2Matrix) -> int:
    """Row rank, by elimination on packed rows."""
    return gf2_rank(a.rows)


class ColumnSolver:
    """One elimination of the augmented rows [t | s] for the system t r = s.

    Row i packs row i of t above bit `side` and row i of s below it, so a
    combination y of the rows holds y t in its high half and y s in its
    low half.  The system is solvable iff no echelon row leads in the low
    half: such a row has y t = 0 but y s != 0.  `solvable` stops at that
    test; `solve` goes on to back-substitute a solution.
    """

    def __init__(self, t: Gf2Matrix, s: Gf2Matrix) -> None:
        _require_same_side(t, s)
        side = self.side = t.side
        self._pivots = _echelon((tr << side) | sr for tr, sr in zip(t.rows, s.rows))

    def solvable(self) -> bool:
        """True iff t r = s has a solution: no pivot lies below `side`."""
        return min(self._pivots, default=self.side) >= self.side

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
        return Gf2Matrix(tuple(r))


def colspace_contains(t: Gf2Matrix, s: Gf2Matrix) -> bool:
    """True iff every column of s lies in the column space of t.

    Equivalently: there exists r with s = t r.  Decided from the echelon
    rows alone, with no back-substitution.
    """
    return ColumnSolver(t, s).solvable()


def solve_right(t: Gf2Matrix, s: Gf2Matrix) -> Gf2Matrix | None:
    """A matrix r with t r = s, or None when no such r exists."""
    return ColumnSolver(t, s).solve()


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
    return Gf2Matrix(tuple(rows))


def matrix_dot_lines(a: Gf2Matrix) -> Iterator[str]:
    """The lines of matrix_to_dot, one node or edge each, produced lazily."""
    yield "digraph gf2matrix {"
    for v in range(a.side):
        yield f'  n{v} [label="{mask_str(v)}"];'
    for r, row in enumerate(a.rows):
        for c in iter_bits(row):
            yield f"  n{c} -> n{r};"
    yield "}"


def matrix_to_dot(a: Gf2Matrix) -> str:
    """Directed-graph view: an edge from b to a iff the entry (a, b) is 1.

    Nodes are all subset masks, labelled as set literals like "{1,3}".
    """
    return "\n".join(matrix_dot_lines(a))


def matrix_to_json(a: Gf2Matrix) -> dict:
    return {"side": a.side, "rows": list(matrix_text_lines(a))}


def matrix_json_chunks(a: Gf2Matrix) -> Iterator[str]:
    """json.dumps(matrix_to_json(a)) in pieces, one per row, produced
    lazily.  Rows hold only 0 and 1, so nothing needs escaping."""
    yield f'{{"side": {a.side}, "rows": ['
    sep = '"'
    for line in matrix_text_lines(a):
        yield sep + line + '"'
        sep = ', "'
    yield "]}"
