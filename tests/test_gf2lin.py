"""GF(2) matrices: products, rank, column-space containment, exports."""

import json
import random

import pytest

from boolweyl.gf2lin import (
    ColumnSolver,
    Gf2Matrix,
    gf2_rank,
    identity,
    mat_add,
    mat_apply,
    mat_mul,
    matrix_from_text,
    matrix_dot_lines,
    matrix_json_chunks,
    matrix_text_lines,
    matrix_to_text,
    solve_right,
    zero_matrix,
)


def random_matrix(rng, side):
    return Gf2Matrix(tuple(rng.getrandbits(side) for _ in range(side)))


def test_matrix_validation():
    with pytest.raises(ValueError):
        Gf2Matrix((1, 2, 3))  # side 3 not a power of two
    with pytest.raises(ValueError):
        Gf2Matrix((4, 0))  # row out of range for side 2


@pytest.mark.parametrize("bad", (-1, 1 << 8))
def test_matrix_rejects_a_bad_row_in_any_position(bad):
    for position in (0, 3, 7):
        rows = [0b1010_0101] * 8
        rows[position] = bad
        with pytest.raises(ValueError, match="row out of range for matrix side"):
            Gf2Matrix(tuple(rows))


def test_identity_and_zero():
    eye = identity(4)
    z = zero_matrix(4)
    rng = random.Random(0)
    for _ in range(10):
        a = random_matrix(rng, 4)
        assert mat_mul(a, eye) == a
        assert mat_mul(eye, a) == a
        assert mat_mul(a, z) == z
        assert mat_add(a, a) == z


def test_mat_mul_matches_entrywise_definition():
    rng = random.Random(1)
    for side in (2, 4, 8):
        for _ in range(20):
            a = random_matrix(rng, side)
            b = random_matrix(rng, side)
            prod = mat_mul(a, b)
            for r in range(side):
                for c in range(side):
                    want = 0
                    for k in range(side):
                        want ^= a.entry(r, k) & b.entry(k, c)
                    assert prod.entry(r, c) == want


def test_mat_mul_associative():
    rng = random.Random(2)
    for _ in range(25):
        a, b, c = (random_matrix(rng, 8) for _ in range(3))
        assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


def test_mat_apply():
    eye = identity(4)
    rng = random.Random(3)
    for _ in range(10):
        v = rng.getrandbits(4)
        assert mat_apply(eye, v) == v
        assert mat_apply(zero_matrix(4), v) == 0
    a = random_matrix(rng, 8)
    b = random_matrix(rng, 8)
    for _ in range(10):
        v = rng.getrandbits(8)
        assert mat_apply(mat_mul(a, b), v) == mat_apply(a, mat_apply(b, v))
    with pytest.raises(ValueError):
        mat_apply(eye, 1 << 5)


def span_size(rows, side):
    span = {0}
    for row in rows:
        span |= {row ^ v for v in span}
    return len(span)


def test_rank_matches_span_size():
    rng = random.Random(4)
    for side in (2, 4, 8):
        for _ in range(25):
            a = random_matrix(rng, side)
            assert (1 << gf2_rank(a.rows)) == span_size(a.rows, side)
    assert gf2_rank(identity(4).rows) == 4
    assert gf2_rank(Gf2Matrix((0b11, 0b11)).rows) == 1
    assert gf2_rank(zero_matrix(8).rows) == 0


def test_rank_submultiplicative():
    rng = random.Random(5)
    for _ in range(30):
        a = random_matrix(rng, 8)
        b = random_matrix(rng, 8)
        assert gf2_rank(mat_mul(a, b).rows) <= min(gf2_rank(a.rows), gf2_rank(b.rows))


def augmented(t, s):
    """(side, rows) of the system t r = s: row i packs row i of t above bit
    `side` and row i of s below it."""
    side = t.side
    return side, [(tr << side) | sr for tr, sr in zip(t.rows, s.rows)]


def brute_colspace_contains(t, s):
    side = t.side
    for packed in range(1 << (side * side)):
        r = Gf2Matrix(
            tuple((packed >> (i * side)) & ((1 << side) - 1) for i in range(side))
        )
        if mat_mul(t, r) == s:
            return True
    return False


def test_colspace_trivial_cases():
    rng = random.Random(6)
    for _ in range(10):
        s = random_matrix(rng, 4)
        assert ColumnSolver(*augmented(identity(4), s)).solvable()
    assert not ColumnSolver(*augmented(zero_matrix(2), identity(2))).solvable()
    assert ColumnSolver(*augmented(zero_matrix(2), zero_matrix(2))).solvable()


def test_colspace_matches_brute_force_n1():
    rng = random.Random(7)
    for _ in range(100):
        t = random_matrix(rng, 2)
        s = random_matrix(rng, 2)
        assert ColumnSolver(*augmented(t, s)).solvable() == brute_colspace_contains(t, s)


def test_colspace_contains_agrees_with_solve_right():
    rng = random.Random("colspace_contains")
    outcomes = set()
    for trial in range(1200):
        side = 1 << rng.randrange(5)
        t = zero_matrix(side) if trial % 10 == 0 else random_matrix(rng, side)
        s = zero_matrix(side) if trial % 10 == 1 else random_matrix(rng, side)
        if trial % 3 == 0:
            s = mat_mul(t, random_matrix(rng, side))
        contains = ColumnSolver(*augmented(t, s)).solvable()
        assert contains == (solve_right(t, s) is not None)
        outcomes.add((side, contains))
    assert outcomes == {(side, c) for side in (1, 2, 4, 8, 16) for c in (False, True)}


def test_solve_right_produces_witness():
    rng = random.Random(8)
    for side in (2, 4, 8):
        for _ in range(40):
            t = random_matrix(rng, side)
            r = random_matrix(rng, side)
            s = mat_mul(t, r)
            witness = solve_right(t, s)
            assert witness is not None
            assert mat_mul(t, witness) == s


def test_colspace_preorder():
    rng = random.Random(9)
    for _ in range(30):
        a = random_matrix(rng, 4)
        b = random_matrix(rng, 4)
        c = random_matrix(rng, 4)
        assert ColumnSolver(*augmented(a, a)).solvable()
        if ColumnSolver(*augmented(a, b)).solvable() and ColumnSolver(*augmented(b, c)).solvable():
            assert ColumnSolver(*augmented(a, c)).solvable()


def test_shape_mismatch():
    with pytest.raises(ValueError):
        mat_mul(identity(2), identity(4))
    with pytest.raises(ValueError):
        solve_right(identity(2), identity(4))


def thin_matrix(rng, side):
    """A random product of a side x k and a k x side factor, k < side."""
    k = rng.randrange(side)
    left = Gf2Matrix(tuple(rng.getrandbits(k) for _ in range(side)))
    return mat_mul(left, random_matrix(rng, side))


def combination(rows, y):
    acc = 0
    for i, row in enumerate(rows):
        if (y >> i) & 1:
            acc ^= row
    return acc


def test_solve_right_matches_fredholm_alternative():
    # t r = s is solvable iff no y has y t = 0 and y s != 0
    rng = random.Random(11)
    seen = set()
    for side in (2, 4, 8):
        for _ in range(60):
            t = thin_matrix(rng, side)
            s = mat_add(mat_mul(t, random_matrix(rng, side)), thin_matrix(rng, side))
            blocked = any(
                combination(t.rows, y) == 0 and combination(s.rows, y) != 0
                for y in range(1 << side)
            )
            r = solve_right(t, s)
            assert (r is None) == blocked
            if r is not None:
                assert mat_mul(t, r) == s
            seen.add(blocked)
    assert seen == {False, True}


def full_elimination_solve(t, s):
    """solve_right with no early stop: eliminate every row of [t | s], refuse
    when a pivot lies below the side, else back-substitute per pivot."""
    side = t.side
    pivots = {}
    for vec in ((tr << side) | sr for tr, sr in zip(t.rows, s.rows)):
        while vec:
            p = vec.bit_length() - 1
            if p not in pivots:
                pivots[p] = vec
                break
            vec ^= pivots[p]
    if min(pivots, default=side) < side:
        return None
    r = [0] * side
    for p in sorted(pivots):
        row = pivots[p]
        acc = row & ((1 << side) - 1)
        for q in range(side):
            if (row >> (side + q)) & 1 and q != p - side:
                acc ^= r[q]
        r[p - side] = acc
    return Gf2Matrix(tuple(r))


def test_early_stop_solves_as_a_full_elimination():
    rng = random.Random(13)
    outcomes = set()
    for side in (1, 2, 4, 8, 16):
        for trial in range(60):
            t = thin_matrix(rng, side) if trial % 2 else random_matrix(rng, side)
            s = mat_mul(t, random_matrix(rng, side))
            if trial % 3:
                s = mat_add(s, thin_matrix(rng, side) if trial % 5 else random_matrix(rng, side))
            solver = ColumnSolver(*augmented(t, s))
            want = full_elimination_solve(t, s)
            assert solver.solve() == want
            assert solver.solvable() == (want is not None)
            outcomes.add((side, want is None))
    assert outcomes == {(side, no) for side in (1, 2, 4, 8, 16) for no in (False, True)}


def test_elimination_stops_at_the_first_low_pivot():
    from boolweyl.gf2lin import _echelon

    # the second row reduces to bit 1, below the floor 4: the third is never read
    rows = iter([0b110000, 0b110010, 0b1000000])
    assert _echelon(rows, 4) is None
    assert next(rows) == 0b1000000
    assert _echelon([0b110000, 0b110010, 0b1000000]) == {5: 0b110000, 1: 0b10, 6: 0b1000000}


def test_text_round_trip():
    a = Gf2Matrix((0b01, 0b11))
    text = matrix_to_text(a)
    assert text == "10\n11"
    assert matrix_from_text(text) == a
    rng = random.Random(12)
    for side in (1, 64):
        for _ in range(5):
            b = random_matrix(rng, side)
            text = matrix_to_text(b)
            assert matrix_from_text(text) == b
            assert text == "\n".join(
                "".join(str(b.entry(r, c)) for c in range(side)) for r in range(side)
            )


def test_text_rejects_other_characters():
    assert matrix_from_text(" 1000 \n\n0001\n0100") == Gf2Matrix((0b0001, 0, 0b1000, 0b0010))
    for text, bad in (("10\n1x", "x"), ("1 0", " "), ("1_0", "_"), ("12", "2")):
        with pytest.raises(ValueError, match=f"^bad matrix character {bad!r}$"):
            matrix_from_text(text)


def test_text_refuses_lines_longer_than_the_side():
    # whatever their bits: the zero grid was read as a 2x2 matrix before
    for text in ("0000\n0000", "0001\n0000"):
        with pytest.raises(ValueError, match="^line of length 4 is longer than the matrix side 2$"):
            matrix_from_text(text)


@pytest.mark.parametrize("r, c", [(-1, 1), (0, 7), (0, -1)])
def test_entry_rejects_an_index_outside_the_side(r, c):
    a = Gf2Matrix((0b01, 0b11))
    assert [a.entry(i, j) for i in (0, 1) for j in (0, 1)] == [1, 0, 1, 1]
    with pytest.raises(ValueError, match=rf"^entry \({r}, {c}\) out of range for matrix side 2$"):
        a.entry(r, c)


def test_dot_output():
    a = Gf2Matrix((0b10, 0b00))  # single entry (0, 1): edge from {1} to {}
    dot = "\n".join(matrix_dot_lines(a))
    assert 'n0 [label="{}"];' in dot
    assert 'n1 [label="{1}"];' in dot
    assert "n1 -> n0;" in dot
    assert dot.count("->") == 1


def test_dot_and_json_match_per_bit_spelling():
    from boolweyl.ring import indices_from_mask

    def old_dot(a):
        lines = ["digraph gf2matrix {"]
        for v in range(a.side):
            label = ",".join(map(str, indices_from_mask(v)))
            lines.append(f'  n{v} [label="{{{label}}}"];')
        for r, row in enumerate(a.rows):
            if row:
                lines += [f"  n{c} -> n{r};" for c in range(a.side) if a.entry(r, c)]
        lines.append("}")
        return "\n".join(lines)

    rng = random.Random(67)
    for side in (1, 2, 8, 64, 512):
        a = random_matrix(rng, side)
        assert "\n".join(matrix_dot_lines(a)) == old_dot(a)
        want_json = {"side": side, "rows": matrix_to_text(a).split("\n")}
        assert "".join(matrix_json_chunks(a)) == json.dumps(want_json)
        assert list(matrix_text_lines(a)) == matrix_to_text(a).split("\n")
    # the largest side: node labels reach the high byte of every mask
    big = zero_matrix(1 << 16)
    assert "\n".join(matrix_dot_lines(big)) == old_dot(big)


def test_matrix_json_chunks_are_the_json_dumps_bytes():
    rng = random.Random(71)
    for side in (1, 2, 4, 8, 16, 32, 64):
        for a in (random_matrix(rng, side), zero_matrix(side), identity(side)):
            want = {"side": a.side, "rows": list(matrix_text_lines(a))}
            assert "".join(matrix_json_chunks(a)) == json.dumps(want)
