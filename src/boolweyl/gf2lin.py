"""Bit-packed exact linear algebra over GF(2).

Matrices are square with side a power of two; rows and columns are both
indexed by subset masks.  Each row is packed into an int whose bit d is
the entry in column d.  Coefficient vectors are packed the same way, so
applying a matrix to a RingElem's coefficient bits is a single pass of
AND + popcount-parity per row.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ring import DimensionMismatch, iter_bits, mask_str


@dataclass(frozen=True)
class Gf2Matrix:
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        side = len(self.rows)
        if side < 1 or side & (side - 1):
            raise ValueError(f"side must be a power of two, got {side}")
        for r in self.rows:
            if not 0 <= r < (1 << side):
                raise ValueError("row out of range for matrix side")

    @property
    def side(self) -> int:
        return len(self.rows)

    def entry(self, r: int, c: int) -> int:
        return (self.rows[r] >> c) & 1

    def __str__(self) -> str:
        return matrix_to_text(self)


def identity(side: int) -> Gf2Matrix:
    return Gf2Matrix(tuple(1 << i for i in range(side)))


def zero_matrix(side: int) -> Gf2Matrix:
    return Gf2Matrix((0,) * side)


def matrix_from_entries(side: int, entries) -> Gf2Matrix:
    """Build from an iterable of (row, col) positions holding a 1."""
    rows = [0] * side
    for r, c in entries:
        rows[r] ^= 1 << c
    return Gf2Matrix(tuple(rows))


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


def mat_pow(a: Gf2Matrix, k: int) -> Gf2Matrix:
    if k < 0:
        raise ValueError("negative power")
    acc = identity(a.side)
    base = a
    while k:
        if k & 1:
            acc = mat_mul(acc, base)
        base = mat_mul(base, base)
        k >>= 1
    return acc


def transpose(a: Gf2Matrix) -> Gf2Matrix:
    out = [0] * a.side
    for r, row in enumerate(a.rows):
        for c in iter_bits(row):
            out[c] |= 1 << r
    return Gf2Matrix(tuple(out))


def gf2_rank(vectors) -> int:
    """Rank over GF(2) of packed int vectors (any iterable)."""
    pivots: dict[int, int] = {}
    for vec in vectors:
        cur = vec
        while cur:
            p = cur.bit_length() - 1
            if p in pivots:
                cur ^= pivots[p]
            else:
                pivots[p] = cur
                break
    return len(pivots)


def rank(a: Gf2Matrix) -> int:
    """Row rank, by elimination on packed rows."""
    return gf2_rank(a.rows)


class ColumnSolver:
    """Echelon form of a matrix's column space with combination tracking.

    solve(target) returns a mask over column indices whose XOR of columns
    equals the packed target vector, or None when the target is outside
    the column space.  One elimination is shared by all solves.
    """

    def __init__(self, t: Gf2Matrix) -> None:
        self.side = t.side
        self._pivots: dict[int, tuple[int, int]] = {}
        for j, col in enumerate(transpose(t).rows):
            vec, combo = col, 1 << j
            while vec:
                p = vec.bit_length() - 1
                hit = self._pivots.get(p)
                if hit is None:
                    self._pivots[p] = (vec, combo)
                    break
                vec ^= hit[0]
                combo ^= hit[1]

    def solve(self, target: int) -> int | None:
        combo = 0
        while target:
            hit = self._pivots.get(target.bit_length() - 1)
            if hit is None:
                return None
            target ^= hit[0]
            combo ^= hit[1]
        return combo


def colspace_contains(t: Gf2Matrix, s: Gf2Matrix) -> bool:
    """True iff every column of s lies in the column space of t.

    Equivalently: there exists r with s = t r.
    """
    return solve_right(t, s) is not None


def solve_right(t: Gf2Matrix, s: Gf2Matrix) -> Gf2Matrix | None:
    """A matrix r with t r = s, or None when no such r exists."""
    _require_same_side(t, s)
    solver = ColumnSolver(t)
    rcols = []
    for col in transpose(s).rows:
        x = solver.solve(col)
        if x is None:
            return None
        rcols.append(x)
    return transpose(Gf2Matrix(tuple(rcols)))


def matrix_to_text(a: Gf2Matrix) -> str:
    """0/1 grid, one row per line, column 0 leftmost."""
    side = a.side
    return "\n".join(
        "".join("1" if (row >> c) & 1 else "0" for c in range(side)) for row in a.rows
    )


def matrix_from_text(text: str) -> Gf2Matrix:
    rows = []
    for line in text.strip().splitlines():
        line = line.strip()
        row = 0
        for c, ch in enumerate(line):
            if ch == "1":
                row |= 1 << c
            elif ch != "0":
                raise ValueError(f"bad matrix character {ch!r}")
        rows.append(row)
    return Gf2Matrix(tuple(rows))


def matrix_to_dot(a: Gf2Matrix) -> str:
    """Directed-graph view: an edge from b to a iff the entry (a, b) is 1.

    Nodes are all subset masks, labelled as set literals like "{1,3}".
    """
    side = a.side
    lines = ["digraph gf2matrix {"]
    for v in range(side):
        lines.append(f'  n{v} [label="{mask_str(v)}"];')
    for r, row in enumerate(a.rows):
        for c in iter_bits(row):
            lines.append(f"  n{c} -> n{r};")
    lines.append("}")
    return "\n".join(lines)


def matrix_to_json(a: Gf2Matrix) -> dict:
    return {"side": a.side, "rows": matrix_to_text(a).split("\n")}
