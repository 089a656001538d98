"""Operator algebra: basis changes, structural products, normal ordering."""

import random
import time
import tracemalloc
from collections import Counter

import pytest

from boolweyl import bweyl, checks, gf2lin, ring
from boolweyl.bweyl import (
    OP_BASES,
    OpCoeffs,
    _below,
    convert_op_basis,
    normal_order,
    op_add,
    op_from_json,
    op_identity,
    op_monomial,
    op_mul,
    op_power,
    op_text,
    op_to_json,
    structural_coeff_c,
    to_matrix,
)
from boolweyl.diffops import (
    derivative_matrix,
    derivative_power_matrix,
    multiplication_matrix,
    rep_matrix,
    shift_power_matrix,
)
from boolweyl.gf2lin import Gf2Matrix, identity, mat_add, mat_mul, zero_matrix
from boolweyl.ring import _convert_bits, iter_bits, ring_from_support, ring_monomial, submasks


def oracle_equal(f: OpCoeffs, g: OpCoeffs) -> bool:
    return to_matrix(f) == to_matrix(g)


# --- basis conversion -----------------------------------------------------------


def test_convert_derivative_to_shift_bases():
    # d = s + 1: in XS coefficients the derivative is s{1} + 1
    d_xy = op_monomial(1, "XY", 0, 1)
    d_xs = convert_op_basis(d_xy, "XS")
    assert d_xs.terms == frozenset({(0, 0), (0, 1)})
    # in MS coefficients every point indicator carries both shift letters
    d_ms = convert_op_basis(d_xy, "MS")
    assert d_ms.terms == frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})
    assert oracle_equal(d_ms, d_xy)
    assert to_matrix(d_xy) == derivative_matrix(1, 1)


def test_convert_identity_on_same_basis():
    f = op_monomial(2, "WY", 0b01, 0b10)
    assert convert_op_basis(f, "WY") is f


def test_convert_round_trips_all_bases():
    rng = random.Random(23)
    for n in (1, 2, 3):
        for _ in range(100 if n < 3 else 40):
            f = checks.random_op(rng, n)
            want = to_matrix(f)
            for target in OP_BASES:
                g = convert_op_basis(f, target)
                assert to_matrix(g) == want
                assert convert_op_basis(g, f.basis) == f


# --- to_matrix ------------------------------------------------------------------


def per_term_matrix(f: OpCoeffs):
    """Sum over terms of (left multiplication matrix) * (right power matrix)."""
    power = shift_power_matrix if f.basis[1] == "S" else derivative_power_matrix
    out = zero_matrix(1 << f.n)
    for a, b in f.terms:
        term = mat_mul(multiplication_matrix(ring_monomial(f.basis[0], a, f.n)), power(b, f.n))
        out = mat_add(out, term)
    return out


def test_to_matrix_matches_per_term_route(monkeypatch):
    # to_matrix writes its own rows: the entailment blocks' row builder is out of reach
    def refuse(*args, **kwargs):
        raise AssertionError("to_matrix reached the block row builder")

    monkeypatch.setattr(bweyl, "_block_rows", refuse)
    monkeypatch.setattr(bweyl, "table_block_rows", refuse)
    rng = random.Random(37)
    for n in range(1, 6):
        for _ in range(12 if n < 5 else 4):
            f = checks.random_op(rng, n)
            for basis in OP_BASES:
                g = convert_op_basis(f, basis)
                assert to_matrix(g) == per_term_matrix(g) == rep_matrix_sum(g)
    # larger n: operators drawn in each basis, since conversions multiply terms
    for n in (6, 7):
        for basis in OP_BASES:
            for _ in range(2):
                f = checks.random_op(rng, n, basis)
                assert to_matrix(f) == per_term_matrix(f) == rep_matrix_sum(f)


def test_to_matrix_basics():
    assert to_matrix(OpCoeffs(2, "XY", ())) == zero_matrix(4)
    assert to_matrix(op_monomial(2, "XY", 0, 0)) == identity(4)
    assert to_matrix(OpCoeffs(1, "XY", [(0, 1)])) == derivative_matrix(1, 1)
    for basis in OP_BASES:
        assert to_matrix(op_identity(3, basis)) == identity(8)


def row_by_row_matrix(f: OpCoeffs) -> Gf2Matrix:
    """to_matrix as it was first written, row by row from closed forms: for
    each row {b: g} and each bit r of g's M table, row r of s^b (the point
    r + b) or of d^b (the submasks of b shifted by r & ~b) is XORed into row r."""
    size = 1 << f.n
    left, derives = f.basis[0], f.basis[1] == "Y"
    rows = [0] * size
    for b, g in f.rows.items():
        g = _convert_bits(g, size, left, "M")
        for r in iter_bits(g):
            rows[r] ^= _below(b) << (r & ~b) if derives else 1 << (r ^ b)
    return Gf2Matrix(rows)


def test_dense_xy_matrix_at_n_10_takes_under_30_ms():
    rng = random.Random("dense n=10")
    n = 10
    f = OpCoeffs(n, "XY", {b: rng.getrandbits(1 << n) for b in range(1 << n)})
    caches = (gf2lin._kept_coords, gf2lin._kept_swaps, ring._block_mask)
    held = [cache.cache_info().currsize for cache in caches]
    seconds = []
    for _ in range(5):
        start = time.perf_counter()
        got = to_matrix(f)
        seconds.append(time.perf_counter() - start)
    assert min(seconds) < 0.030, seconds
    # above n = 8 no 4^n-bit mask is kept once the matrix is made
    assert [cache.cache_info().currsize for cache in caches] == held
    assert got == row_by_row_matrix(f)


def test_to_matrix_takes_the_table_from_one_term_per_2048_bits(monkeypatch):
    # each side of the size rule, in every basis: at n = 6, 7 and 8 the table
    # holds 2^12, 2^14 and 2^16 bits, so 2, 8 and 32 terms take it
    tabled = []
    table = gf2lin._table
    monkeypatch.setattr(gf2lin, "_table", lambda rows, n: tabled.append(n) or table(rows, n))
    rng = random.Random("size rule")
    for n, least in ((6, 2), (7, 8), (8, 32)):
        for count in (least - 1, least):
            for basis in OP_BASES:
                terms = set()
                while len(terms) < count:
                    terms.add((rng.getrandbits(n), rng.getrandbits(n)))
                f = OpCoeffs(n, basis, terms)
                tabled.clear()
                assert to_matrix(f) == rep_matrix_sum(f) == row_by_row_matrix(f), (n, basis, count)
                assert tabled == ([n] if count == least else []), (n, basis, count)


def table_convert(f: OpCoeffs, target: str) -> OpCoeffs:
    """The basis change made on f's table: its rows packed, summed by the
    passes of _table_passes and unpacked."""
    n = f.n
    t = gf2lin._table_sums(gf2lin._table(f.rows, n), n, bweyl._table_passes(f.basis, target))
    return OpCoeffs(n, target, dict(enumerate(gf2lin._table_rows(t, n))))


def test_table_basis_changes_match_the_row_route():
    # all 30 ordered pairs of bases, on the zero operator, one row, all 2^n
    # rows and random operators; rows narrower than a byte at n = 1 and 2,
    # and whole bytes, packed as bytes, at n = 7
    rng = random.Random("table basis changes")
    pairs = [(frm, to) for frm in OP_BASES for to in OP_BASES if frm != to]
    assert len(pairs) == 30
    for n in range(1, 8):
        size = 1 << n
        ops = [
            OpCoeffs(n, "XY", {}),
            OpCoeffs(n, "XY", {rng.randrange(size): rng.getrandbits(size) | 1}),
            OpCoeffs(n, "XY", {b: rng.getrandbits(size) | 1 << rng.randrange(size) for b in range(size)}),
        ]
        ops += [checks.random_op(rng, n) for _ in range(12 if n < 7 else 2)]
        for f in ops:
            assert gf2lin._table_rows(gf2lin._table(f.rows, n), n) == [f.rows.get(b, 0) for b in range(size)]
            for frm, to in pairs:
                g = OpCoeffs(n, frm, f.rows)
                assert table_convert(g, to) == convert_op_basis(g, to), (n, frm, to, g)


def test_trusted_results_equal_their_checked_rebuild():
    # kernel, conversion and sum results skip the constructor's checks: each
    # equals, and hashes as, the operator the checked constructor makes of it
    rng = random.Random("trusted results")
    for n in range(1, 6):
        for _ in range(25):
            f = checks.random_op(rng, n)
            g = checks.random_op(rng, n, rng.choice(OP_BASES))
            ops = [op_mul(f, g), op_add(f, g), op_add(f, f), convert_op_basis(g, rng.choice(OP_BASES))]
            for h in ops:
                rebuilt = OpCoeffs(h.n, h.basis, dict(h.rows))
                assert h == rebuilt and hash(h) == hash(rebuilt)
                assert type(h.rows) is bweyl.Rows and all(h.rows.values())
            for m in (to_matrix(f), mat_mul(to_matrix(f), to_matrix(g))):
                rebuilt = Gf2Matrix(m.rows)
                assert m == rebuilt and hash(m) == hash(rebuilt) and type(m.rows) is tuple


def rep_matrix_sum(f: OpCoeffs) -> Gf2Matrix:
    """f's matrix on M-basis coordinates from diffops.rep_matrix alone: the sum
    over its terms, w^a read as the sum of x^c over c subset of a, and the
    X-left sum, which acts on X-basis coordinates, conjugated by the subset
    sum z (row b of z: the points below b) to act on M-basis ones."""
    left, right = f.basis
    size = 1 << f.n
    out = zero_matrix(size)
    for a, b in f.terms:
        for c in submasks(a) if left == "W" else (a,):
            out = mat_add(out, rep_matrix("M" if left == "M" else "X", right, c, b, f.n))
    if left == "M":
        return out
    z = Gf2Matrix(sum(1 << c for c in submasks(b)) for b in range(size))
    return mat_mul(z, mat_mul(out, z))


def reference_blocks(matrices, low):
    """The distinct tuples of diagonal blocks, cut from the full matrices: the
    block of coset z holds the rows and columns of the points r with
    r & ~low == z, in ascending order; first occurrences in the order of z."""
    n = matrices[0].side.bit_length() - 1
    blocks = {}
    for z in range(1 << n):
        if z & low:
            continue
        points = [r for r in range(1 << n) if r & ~low == z]
        key = tuple(
            Gf2Matrix(
                tuple(
                    sum(((m.rows[r] >> c) & 1) << j for j, c in enumerate(points)) for r in points
                )
            )
            for m in matrices
        )
        blocks.setdefault(key)
    return list(blocks)


def reference_block_rows(blocks):
    """(side, augmented rows (q_r << side) | p_r) per pair of reference blocks
    whose p block is not zero."""
    return [
        (pb.side, [(qb.rows[r] << pb.side) | pb.rows[r] for r in range(pb.side)])
        for pb, qb in blocks
        if any(pb.rows)
    ]


def block_rows(p: OpCoeffs, q: OpCoeffs):
    """table_block_rows of two operators, from their MY rows."""
    return bweyl.table_block_rows(p.n, convert_op_basis(p, "MY").rows, convert_op_basis(q, "MY").rows)


def test_diagonal_blocks_are_the_distinct_blocks_of_the_matrices():
    # the blocks and their placement against matrices built by diffops alone,
    # on operators drawn in all six bases
    rng = random.Random(23)
    seen = Counter()
    for trial in range(300):
        n = 1 + trial % 7
        touched = rng.getrandbits(n) & rng.getrandbits(n)
        if trial % 5 == 0:
            touched = rng.getrandbits(n)
        p, q = (
            OpCoeffs(
                n,
                rng.choice(OP_BASES),
                frozenset(
                    (rng.getrandbits(n), rng.getrandbits(n) & touched)
                    for _ in range(rng.randint(0, 5))
                ),
            )
            for _ in range(2)
        )
        low = 0
        for f in (p, q):
            for b in convert_op_basis(f, "MY").rows:
                low |= b
        # widened by the lowest coordinates outside it to at least three
        while low.bit_count() < min(n, 3):
            low |= ~low & (low + 1)
        full = (rep_matrix_sum(p), rep_matrix_sum(q))
        blocks = reference_blocks(full, low)
        streamed = list(block_rows(p, q))
        got = [(side, list(rows)) for side, rows, _ in streamed]
        assert got == reference_block_rows(blocks), (p, q)
        # placed on every coset that shares it, each p block rebuilds p-hat:
        # the skipped zero blocks are its zero rows
        placed = [0] * (1 << n)
        for (side, _, place), (_, rows) in zip(streamed, got):
            place([row & ((1 << side) - 1) for row in rows], placed)
        assert placed == list(full[0].rows), (p, q)
        seen[len(blocks) > 1] += 1
        seen["duplicates"] += len(blocks) < 1 << (n - low.bit_count())
        seen["fewer than 8 rows"] += any(side < 8 for side, _ in got)
    assert min(seen[True], seen[False], seen["duplicates"]) >= 30, seen
    assert seen["fewer than 8 rows"] >= 50, seen


def test_to_matrix_is_the_one_block_of_all_coordinates():
    p = OpCoeffs(4, "XS", [(0b0011, 0b0101), (0b1000, 0b1010)])
    q = OpCoeffs(4, "MS", [(0b0110, 0b1111)])
    rows = [(to_matrix(q).rows[r] << 16) | to_matrix(p).rows[r] for r in range(16)]
    assert [(side, list(got)) for side, got, _ in block_rows(p, q)] == [(16, rows)]
    # at n <= 2 the one block has fewer than 8 rows
    for n in (1, 2):
        d = OpCoeffs(n, "XY", [(0, 1)])
        one = op_identity(n)
        side = 1 << n
        rows = [(to_matrix(one).rows[r] << side) | to_matrix(d).rows[r] for r in range(side)]
        assert [(s, list(got)) for s, got, _ in block_rows(d, one)] == [(side, rows)]
    # one right index, widened to three coordinates: two equal blocks of side 8
    g = OpCoeffs(4, "XY", [(0, 0b0100)])
    one = op_identity(4)
    block = to_matrix(OpCoeffs(3, "XY", [(0, 0b100)]))
    rows = [(1 << (r + 8)) | block.rows[r] for r in range(8)]
    assert [(side, list(got)) for side, got, _ in block_rows(g, one)] == [(8, rows)]


# --- structural coefficient -----------------------------------------------------


def test_structural_coeff_empty_intersection():
    # with b & c empty only the empty chain counts
    for a, c, d, e, h in [(0b01, 0b10, 0b10, 0b11, 0b11), (0b01, 0b10, 0b01, 0b11, 0b10)]:
        b = 0b01
        assert (b & c) == 0 or True
        want = 1 if (a | c) == e and b == (h & ~d) else 0
        if b & c == 0:
            assert structural_coeff_c(a, b, c, d, e, h) == want


def test_structural_coeff_singleton_chain():
    assert structural_coeff_c(1, 1, 1, 1, 1, 1) == 1


def test_structural_coeff_left_index_not_inside_output():
    # whenever a is not inside e the coefficient vanishes
    rng = random.Random(5)
    for _ in range(200):
        vals = [rng.randrange(8) for _ in range(6)]
        a, b, c, d, e, h = vals
        if a & ~e:
            assert structural_coeff_c(a, b, c, d, e, h) == 0


def brute_structural_coeff(a, b, c, d, e, h):
    count = 0
    for k2 in submasks(b & c):
        for k1 in submasks(k2):
            if a | (c & ~k2) == e and b & ~k1 == h & ~d:
                count ^= 1
    return count


def test_structural_coeff_matches_brute_chain_count():
    rng = random.Random(6)
    for _ in range(500):
        vals = [rng.randrange(8) for _ in range(6)]
        assert structural_coeff_c(*vals) == brute_structural_coeff(*vals)


def test_xy_product_matches_structural_sum():
    # single-monomial products expand exactly per the structural constants
    for n in (1, 2):
        size = 1 << n
        for a in range(size):
            for b in range(size):
                for c in range(size):
                    for d in range(size):
                        got = op_mul(
                            op_monomial(n, "XY", a, b), op_monomial(n, "XY", c, d)
                        )
                        want = frozenset(
                            (e, h)
                            for e in range(size)
                            for h in range(size)
                            if a & ~e == 0
                            and d & ~h == 0
                            and structural_coeff_c(a, b, c, d, e, h)
                        )
                        assert got.terms == want


def test_my_monomial_product_closed_form():
    for n in (1, 2):
        size = 1 << n
        for a in range(size):
            for b in range(size):
                for c in range(size):
                    for d in range(size):
                        got = op_mul(
                            op_monomial(n, "MY", a, b), op_monomial(n, "MY", c, d)
                        )
                        want = set()
                        if (a ^ c) & ~b == 0:
                            for e in range(size):
                                if d & ~e == 0 and (e & ~d) & ~(a ^ c) == 0:
                                    want.add((a, e))
                        assert got.terms == frozenset(want)


def test_ms_monomial_product_closed_form():
    for n in (1, 2, 3):
        size = 1 << n
        rng = random.Random(n)
        quads = (
            [(a, b, c, d) for a in range(size) for b in range(size) for c in range(size) for d in range(size)]
            if n <= 2
            else [tuple(rng.randrange(size) for _ in range(4)) for _ in range(200)]
        )
        for a, b, c, d in quads:
            got = op_mul(op_monomial(n, "MS", a, b), op_monomial(n, "MS", c, d))
            want = frozenset({(a, b ^ d)}) if a == (b ^ c) else frozenset()
            assert got.terms == want


# --- products: worked examples --------------------------------------------------


def test_product_of_x_monomial_pairs():
    # x^r y^r x^s y^s collapses to the single monomial on the union index
    rng = random.Random(9)
    for n in (1, 2, 3):
        size = 1 << n
        for _ in range(40):
            r, s = rng.randrange(size), rng.randrange(size)
            f = op_monomial(n, "XY", r, r)
            g = op_monomial(n, "XY", s, s)
            prod = op_mul(f, g)
            assert prod.terms == frozenset({(r | s, r | s)})
            assert to_matrix(prod) == mat_mul(to_matrix(f), to_matrix(g))
    # the concrete instance r={1,2}, s={1}
    prod = op_mul(op_monomial(2, "XY", 0b11, 0b11), op_monomial(2, "XY", 0b01, 0b01))
    assert op_text(prod) == "x{1,2}y{1,2}"


def test_x_monomial_pair_powers_are_fixed():
    for n in (1, 2, 3):
        size = 1 << n
        for r in range(size):
            f = op_monomial(n, "XY", r, r)
            assert op_power(f, n if n > 1 else 2) == f
            for k in (2, 3, 5):
                assert op_power(f, k) == f


def test_full_my_square_is_identity():
    for n in (1, 2, 3):
        size = 1 << n
        f = OpCoeffs(n, "MY", [(a, b) for a in range(size) for b in range(size)])
        assert op_mul(f, f) == op_identity(n, "MY")


def test_derivative_sum_power_parity():
    # f = sum of y^a over all a: odd powers give f, even powers the identity
    for n in (1, 2, 3, 4):
        size = 1 << n
        f = OpCoeffs(n, "XY", [(0, b) for b in range(size)])
        for k in range(1, 6):
            want = f if k % 2 else op_identity(n, "XY")
            assert op_power(f, k) == want


def test_xy_pair_sum_squares():
    # r = sum of x^{i}y^{i}: the cross terms cancel over GF(2), so r^2 = r;
    # the same holds for the w-left twin by the x/w substitution symmetry
    for n in (2, 3):
        r = OpCoeffs(n, "XY", [(1 << i, 1 << i) for i in range(n)])
        r2 = op_mul(r, r)
        assert r2 == r
        assert to_matrix(r2) == mat_mul(to_matrix(r), to_matrix(r))
        # XOR-accumulating the term list over ordered pairs i != j leaves
        # exactly the diagonal part: each unordered pair appears twice
        acc = set((1 << i, 1 << i) for i in range(n))
        for i in range(n):
            for j in range(n):
                if i != j:
                    pair = ((1 << i) | (1 << j),) * 2
                    acc.symmetric_difference_update({pair})
        assert frozenset(acc) == r2.terms
        s = OpCoeffs(n, "WY", [(1 << i, 1 << i) for i in range(n)])
        s2 = op_mul(s, s)
        assert s2 == s
        assert to_matrix(s2) == mat_mul(to_matrix(s), to_matrix(s))


def test_y_monomial_products_disjoint_rule():
    for n in (1, 2, 3):
        size = 1 << n
        for a in range(size):
            for b in range(size):
                got = op_mul(op_monomial(n, "XY", 0, a), op_monomial(n, "XY", 0, b))
                want = frozenset({(0, a | b)}) if a & b == 0 else frozenset()
                assert got.terms == want


def test_y_family_product_counts_disjoint_covers():
    # product of sums of y-monomials counts tuples with disjoint union b
    rng = random.Random(13)
    for n in (1, 2, 3):
        size = 1 << n
        for _ in range(20):
            fam_a = [a for a in range(size) if rng.getrandbits(1)]
            fam_b = [a for a in range(size) if rng.getrandbits(1)]
            f = OpCoeffs(n, "XY", [(0, a) for a in fam_a])
            g = OpCoeffs(n, "XY", [(0, a) for a in fam_b])
            prod = op_mul(f, g)
            for b in range(size):
                count = sum(
                    1
                    for a1 in fam_a
                    for a2 in fam_b
                    if a1 & a2 == 0 and (a1 | a2) == b
                )
                assert ((0, b) in prod.terms) == bool(count & 1)


def test_y_family_power_counts_disjoint_k_covers():
    # k-th powers count ordered k-tuples of pairwise disjoint members
    import itertools

    rng = random.Random(14)
    for n in (1, 2, 3):
        size = 1 << n
        for _ in range(10):
            fam = [a for a in range(size) if rng.getrandbits(1)]
            f = OpCoeffs(n, "XY", [(0, a) for a in fam])
            for k in (2, 3, 4):
                power = op_power(f, k)
                for b in range(size):
                    count = 0
                    for combo in itertools.product(fam, repeat=k):
                        union = 0
                        disjoint = True
                        for part in combo:
                            if union & part:
                                disjoint = False
                                break
                            union |= part
                        if disjoint and union == b:
                            count ^= 1
                    assert ((0, b) in power.terms) == bool(count)


def test_shifted_presentation_examples():
    for n in (1, 2, 3):
        size = 1 << n
        full = size - 1
        # (sum_a m^a s^(comp a)) (sum_d m^[n] s^d) covers every index pair
        f = OpCoeffs(n, "MS", [(a, a ^ full) for a in range(size)])
        g = OpCoeffs(n, "MS", [(full, d) for d in range(size)])
        assert op_mul(f, g).terms == frozenset(
            (a, b) for a in range(size) for b in range(size)
        )
        # (sum m^a s^b)(m^[n] s^[n]) keeps only the diagonal pairs
        h = OpCoeffs(n, "MS", [(a, b) for a in range(size) for b in range(size)])
        assert op_mul(h, op_monomial(n, "MS", full, full)).terms == frozenset(
            (a, a) for a in range(size)
        )
        # m^(comp c) s^[n] m^c s^d = m^(comp c) s^(comp d)
        for c in range(size):
            for d in range(size):
                prod = op_mul(
                    op_monomial(n, "MS", c ^ full, full), op_monomial(n, "MS", c, d)
                )
                assert prod.terms == frozenset({(c ^ full, d ^ full)})
        # x^a s^[n] x^c s^d = sum over k inside c of x^(a|k) s^(comp d)
        rng = random.Random(n)
        for _ in range(30):
            a, c, d = (rng.randrange(size) for _ in range(3))
            prod = op_mul(op_monomial(n, "XS", a, full), op_monomial(n, "XS", c, d))
            want = set()
            for k in submasks(c):
                want.symmetric_difference_update({(a | k, d ^ full)})
            assert prod.terms == frozenset(want)


def test_regular_functions_multiply_pointwise_in_ms():
    # shift-free coefficients multiply like plain functions
    rng = random.Random(31)
    for n in (1, 2, 3):
        size = 1 << n
        supp_f = [a for a in range(size) if rng.getrandbits(1)]
        supp_g = [a for a in range(size) if rng.getrandbits(1)]
        f = OpCoeffs(n, "MS", [(a, 0) for a in supp_f])
        g = OpCoeffs(n, "MS", [(a, 0) for a in supp_g])
        want = frozenset((a, 0) for a in set(supp_f) & set(supp_g))
        assert op_mul(f, g).terms == want


def test_op_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        op_mul(op_identity(2), op_identity(3))


@pytest.mark.parametrize(
    "build",
    [lambda: op_identity(20, "MY"), lambda: ring_from_support(30, "M", [1 << 27])],
    ids=["op_identity", "ring_from_support"],
)
def test_builders_check_the_dimension_before_allocating(build):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"dimension must be in \[1, 16\]"):
            build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_op_mul_mixed_bases_converts_to_left():
    f = op_monomial(2, "XY", 0b01, 0)
    g = op_monomial(2, "MS", 0b10, 0b01)
    prod = op_mul(f, g)
    assert prod.basis == "XY"
    assert to_matrix(prod) == mat_mul(to_matrix(f), to_matrix(g))


# --- packed kernels against the chain enumeration -------------------------------
#
# The reference lists every toggle of the structural rules (every chain
# k1 <= k2 in XY, every submask in MY and XS) and keeps the keys produced
# an odd number of times; op_mul sums the same toggles as packed XORs.


def _ref_my(f, g):
    for a, b in f:
        for c, d in g:
            ac = a ^ c
            if ac & ~b:
                continue
            for t in submasks(ac & ~d):
                yield a, d | t


def _ref_xy(f, g):
    for a, b in f:
        for c, d in g:
            for k2 in submasks(b & c):
                left = a | (c & ~k2)
                for k1 in submasks(k2):
                    nb = b & ~k1
                    if not nb & d:
                        yield left, nb | d


def _ref_ms(f, g):
    for a, b in f:
        for c, d in g:
            if c == a ^ b:
                yield a, b ^ d


def _ref_xs(f, g):
    for a, b in f:
        for c, d in g:
            for k in submasks(b & c):
                yield a | (c & ~k), b ^ d


REFERENCE_KERNELS = {"MY": _ref_my, "XY": _ref_xy, "MS": _ref_ms, "XS": _ref_xs}


def reference_mul(f: OpCoeffs, g: OpCoeffs) -> OpCoeffs:
    g = convert_op_basis(g, f.basis)
    # W-left multiplies through the X-left rules
    kernel = REFERENCE_KERNELS[f.basis.replace("W", "X")]
    counts = Counter(kernel(f.terms, g.terms))
    return OpCoeffs(f.n, f.basis, (key for key, count in counts.items() if count & 1))


def test_below_is_the_submask_indicator():
    for s in range(1 << 6):
        assert _below(s) == sum(1 << t for t in range(1 << 6) if t & ~s == 0)


@pytest.mark.parametrize("basis", OP_BASES)
def test_op_mul_matches_chain_reference_on_random_pairs(basis):
    rng = random.Random(f"kernels:{basis}")
    for _ in range(400):
        n = rng.randint(1, 6)
        f = checks.random_op(rng, n, basis)
        g = checks.random_op(rng, n, rng.choice(OP_BASES))
        assert op_mul(f, g) == reference_mul(f, g)


@pytest.mark.parametrize("basis", OP_BASES)
def test_op_mul_matches_chain_reference_on_all_monomial_pairs(basis):
    for n in (1, 2, 3):
        size = 1 << n
        for a in range(size):
            for b in range(size):
                f = op_monomial(n, basis, a, b)
                for c in range(size):
                    for d in range(size):
                        g = op_monomial(n, basis, c, d)
                        assert op_mul(f, g) == reference_mul(f, g)


def test_op_mul_dense_pairs_match_matrix_product():
    n = 7
    size = 1 << n
    rng = random.Random(77)
    for basis in OP_BASES:
        f, g = (
            OpCoeffs(n, basis, {(rng.randrange(size), rng.randrange(size)) for _ in range(400)})
            for _ in range(2)
        )
        assert len(f.terms) > 350 and len(g.terms) > 350
        assert to_matrix(op_mul(f, g)) == mat_mul(to_matrix(f), to_matrix(g))


def random_tables(rng, tables):
    """MY tables of one of three shapes, held by `tables`: a truth table
    alone (an int), more right indices than half of 2^n with one- or
    two-point tables, or a few right indices with dense tables."""
    size = 1 << tables.n
    shape = rng.randrange(3)
    if shape == 0:
        return rng.getrandbits(size)
    if shape == 1:
        keys = rng.sample(range(size), rng.randint(size // 2 + 1, size))
        drawn = {b: (1 << rng.randrange(size)) | (1 << rng.randrange(size)) * rng.getrandbits(1) for b in keys}
    else:
        drawn = {rng.randrange(size): rng.getrandbits(size) for _ in range(rng.randint(0, 3))}
    return {b: tables.hold(g) for b, g in drawn.items() if g}


def test_table_product_matches_op_mul_on_random_pairs():
    # the table product on MY tables against the MY term kernel on every
    # pair, and against the XY one, its operands converted, wherever that
    # kernel walks at most 5,000 term pairs (the one-point tables of many
    # right indices have up to 2^n X terms each)
    rng = random.Random("table-product")
    seen = Counter()
    for trial in range(2400):
        n = 1 + trial % 6
        tables = bweyl.Tables(n, (1 << (1 << n)) - 1)
        f, g = random_tables(rng, tables), random_tables(rng, tables)
        got = bweyl.table_product(f, g, tables)
        assert all(got.values())
        fm, gm = (OpCoeffs(n, "MY", bweyl.operator_tables(v)) for v in (f, g))
        assert OpCoeffs(n, "MY", got) == op_mul(fm, gm), (n, f, g)
        fx, gx = convert_op_basis(fm, "XY"), convert_op_basis(gm, "XY")
        if len(fx.terms) * len(gx.terms) <= 5000:
            assert convert_op_basis(OpCoeffs(n, "MY", got), "XY") == op_mul(fx, gx), (n, f, g)
            seen["XY"] += 1
        for v in (f, g):
            seen["many indices"] += isinstance(v, dict) and 2 * len(v) > 1 << n
            seen["dense"] += isinstance(v, dict) and any(2 * t.bit_count() > 1 << n for t in v.values())
            seen["table"] += isinstance(v, int)
    assert seen["XY"] >= 2000 and min(seen.values()) >= 400, seen



@pytest.mark.parametrize("bad", [-1, 8])
def test_op_coeffs_range_error_message(bad):
    for term in ((bad, 0), (0, bad), (bad, bad)):
        with pytest.raises(ValueError, match=rf"^mask {bad} out of range for n=3$"):
            OpCoeffs(3, "XY", frozenset({term, (1, 2)}))


def test_monomial_product_forms_catches_xs_kernel_mutants(monkeypatch):
    def no_cancellation(f, g):  # the a & b & c test dropped
        acc = {}
        for a, b in f:
            for c, d in g:
                acc[b ^ d] = acc.get(b ^ d, 0) ^ (_below(b & c) << (a | (c & ~b)))
        return acc

    def wrong_shift(f, g):  # the left index shifted by a | c
        acc = {}
        for a, b in f:
            for c, d in g:
                if not a & b & c:
                    acc[b ^ d] = acc.get(b ^ d, 0) ^ (_below(b & c) << (a | c))
        return acc

    for n in (2, 3):
        assert checks.check_monomial_product_forms(n, 25, random.Random(0)).status == "PASS"
    for mutant in (no_cancellation, wrong_shift):
        monkeypatch.setattr(bweyl, "_mul_xs", mutant)
        result = checks.check_monomial_product_forms(2, 25, random.Random(0))
        assert result.status == "FAIL" and result.detail.startswith("XS ")


# --- homomorphism and algebra laws ----------------------------------------------


@pytest.mark.parametrize("basis", OP_BASES)
def test_product_homomorphism_sampled(basis):
    rng = random.Random(f"homomorphism:{basis}")
    for n in (1, 2, 3):
        for _ in range(30):
            f = checks.random_op(rng, n, basis)
            g = checks.random_op(rng, n, basis)
            assert to_matrix(op_mul(f, g)) == mat_mul(to_matrix(f), to_matrix(g))


def test_associativity_and_unit():
    rng = random.Random(41)
    for n in (1, 2, 3):
        for _ in range(25):
            basis = rng.choice(OP_BASES)
            f = checks.random_op(rng, n, basis)
            g = checks.random_op(rng, n, basis)
            h = checks.random_op(rng, n, basis)
            assert op_mul(op_mul(f, g), h) == op_mul(f, op_mul(g, h))
            one = op_identity(n, basis)
            assert op_mul(f, one) == f
            assert op_mul(one, f) == f


def test_op_add():
    f = op_monomial(2, "XY", 1, 0)
    assert not op_add(f, f).terms
    g = op_monomial(2, "XY", 2, 1)
    assert op_add(f, g).terms == {(1, 0), (2, 1)}


def test_op_power_validation():
    with pytest.raises(ValueError):
        op_power(op_identity(1), 0)
    assert op_power(op_identity(2), 5) == op_identity(2)


# --- normal ordering -------------------------------------------------------------


def test_normal_order_defining_relations():
    # y1 x1 = x1 y1 + y1 + 1
    w = normal_order([("y", 1), ("x", 1)], 1)
    assert w.basis == "XY"
    assert w.terms == frozenset({(1, 1), (0, 1), (0, 0)})
    # s1 x1 = x1 s1 + s1
    w = normal_order([("s", 1), ("x", 1)], 1)
    assert w.basis == "XS"
    assert w.terms == frozenset({(1, 1), (0, 1)})
    # commuting pair stays put
    w = normal_order([("x", 2), ("y", 1)], 2)
    assert w.terms == frozenset({(0b10, 0b01)})


def test_normal_order_point_indicator_words():
    # y1 m{1} = m{1} + m{} + m{} y1
    w = normal_order([("y", 1), ("m", 0b1)], 1)
    assert w.basis == "MY"
    assert w.terms == frozenset({(1, 0), (0, 0), (0, 1)})
    # y1 m{1,2} = m{1,2} + m{2} + m{2} y1
    w = normal_order([("y", 1), ("m", 0b11)], 2)
    assert w.terms == frozenset({(0b11, 0), (0b10, 0), (0b10, 0b01)})
    # y{1,2} m{1,2,3} expands through all chains inside {1,2}
    w = normal_order([("y", 1), ("y", 2), ("m", 0b111)], 3)
    assert w.terms == frozenset(
        {
            (0b111, 0),
            (0b110, 0),
            (0b110, 0b001),
            (0b101, 0),
            (0b101, 0b010),
            (0b100, 0),
            (0b100, 0b001),
            (0b100, 0b010),
            (0b100, 0b011),
        }
    )


def test_normal_order_projector_pattern():
    # m^(c+b) y^b m^c y^b reproduces m^(c+b) y^b
    for n, b, c in [(1, 1, 1), (2, 0b01, 0b11), (3, 0b011, 0b111)]:
        a = b ^ c
        lhs = op_mul(op_monomial(n, "MY", a, b), op_monomial(n, "MY", c, b))
        assert lhs.terms == frozenset({(a, b)})
    # with a smaller right exponent on the second factor the chain count
    # doubles: two surviving terms instead of one
    lhs = op_mul(op_monomial(3, "MY", 0b100, 0b011), op_monomial(3, "MY", 0b111, 0b001))
    assert lhs.terms == frozenset({(0b100, 0b001), (0b100, 0b011)})


def test_normal_order_letter_reduction():
    # x^2 = x, y^2 = 0, s^2 = 1
    assert normal_order([("x", 1), ("x", 1)], 1).terms == frozenset({(1, 0)})
    assert not normal_order([("y", 1), ("y", 1)], 1).terms
    assert normal_order([("s", 1), ("s", 1)], 1) == op_identity(1, "XS")


def test_normal_order_w_words():
    w = normal_order([("y", 1), ("w", 1)], 1)
    assert w.basis == "WY"
    # w and derivative obey the same twisted rule as x
    assert w.terms == frozenset({(1, 1), (0, 1), (0, 0)})


def test_normal_order_oracle_agreement():
    rng = random.Random(55)
    letters = ["x", "w", "y", "m"]
    for _ in range(60):
        n = rng.choice([1, 2, 3])
        word = []
        mats = []
        for _ in range(rng.randint(0, 5)):
            kind = rng.choice(letters)
            if kind == "m":
                mask = rng.randrange(1 << n)
                word.append(("m", mask))
                mats.append(to_matrix(op_monomial(n, "MY", mask, 0)))
            else:
                i = rng.randint(1, n)
                word.append((kind, i))
                basis = "WY" if kind == "w" else "XY"
                term = (1 << (i - 1), 0) if kind in ("x", "w") else (0, 1 << (i - 1))
                mats.append(to_matrix(op_monomial(n, basis, *term)))
        expect = identity(1 << n)
        for m in mats:
            expect = mat_mul(expect, m)
        assert to_matrix(normal_order(word, n)) == expect


def test_normal_order_starts_from_the_first_factor(monkeypatch):
    # only the empty word is the identity: an M-left word does not build
    # the 2^n point indicators of 1 to multiply them away
    words = [
        ([("m", 1)], 16),
        ([("y", 1), ("m", 0b11)], 2),
        ([("s", 2), ("x", 1), ("s", 2)], 2),
        ([("y", 1), ("w", 1)], 1),
        ([("x", 3)], 3),
    ]
    expect = [normal_order(word, n) for word, n in words]
    assert expect[0] == op_monomial(16, "MY", 1, 0)

    def refuse(n, basis="XY"):
        raise AssertionError("op_identity called on a non-empty word")

    monkeypatch.setattr(bweyl, "op_identity", refuse)
    assert [normal_order(word, n) for word, n in words] == expect
    monkeypatch.undo()
    assert normal_order([], 2) == op_identity(2)


def test_normal_order_rejects_mixed_right_letters():
    with pytest.raises(ValueError):
        normal_order([("y", 1), ("s", 1)], 1)
    with pytest.raises(ValueError):
        normal_order([("q", 1)], 1)


# --- serialization ----------------------------------------------------------------


def test_text_form():
    f = OpCoeffs(2, "XY", [(0b11, 0b01), (0b11, 0b11)])
    assert op_text(f) == "x{1,2}y{1} + x{1,2}y{1,2}"
    assert op_text(OpCoeffs(2, "XY", ())) == "0"
    assert op_text(op_identity(2, "XY")) == "1"
    assert op_text(op_monomial(2, "MY", 0, 0)) == "m{}"
    assert op_text(op_monomial(2, "XY", 0, 0b10)) == "y{2}"
    assert op_text(op_monomial(2, "MS", 0b01, 0b10)) == "m{1}s{2}"


def test_text_form_matches_per_bit_spelling():
    from boolweyl.ring import indices_from_mask

    def literal(a):
        return "{%s}" % ",".join(map(str, indices_from_mask(a)))

    def old_term_text(basis, a, b):
        left, right = basis
        text = left.lower() + literal(a) if a or left == "M" else ""
        text += right.lower() + literal(b) if b else ""
        return text or "1"

    rng = random.Random(65)
    for basis in OP_BASES:
        for n in (1, 2, 5, 9, 13, 16):
            full = (1 << n) - 1
            terms = {(0, 0), (full, full), (0, full), (full, 0)}
            terms |= {(rng.getrandbits(n), rng.getrandbits(n)) for _ in range(40)}
            f = OpCoeffs(n, basis, terms)
            want = " + ".join(old_term_text(basis, a, b) for a, b in sorted(f.terms))
            assert op_text(f) == want
            want = [[list(indices_from_mask(a)), list(indices_from_mask(b))] for a, b in sorted(f.terms)]
            assert op_to_json(f)["terms"] == want


def test_json_round_trip():
    f = OpCoeffs(2, "WS", [(0b01, 0b11), (0, 0)])
    data = op_to_json(f)
    assert data == {"n": 2, "basis": "WS", "terms": [[[], []], [[1], [1, 2]]]}
    assert op_from_json(data) == f


def test_sorted_terms_order():
    # the text and JSON forms list the terms ascending on (left, right)
    f = OpCoeffs(2, "XY", [(2, 1), (1, 3), (1, 0)])
    assert op_text(f) == "x{1} + x{1}y{1,2} + x{2}y{1}"
    assert op_to_json(f)["terms"] == [[[1], []], [[1], [1, 2]], [[2], [1]]]


def test_text_round_trips_through_expression_parser():
    from boolweyl.lang import eval_quantum, infer_context, parse_text

    rng = random.Random(71)
    for _ in range(60):
        n = rng.choice([1, 2, 3])
        f = checks.random_op(rng, n)
        expr = parse_text(op_text(f))
        ctx = infer_context([expr], n=n)
        back = convert_op_basis(eval_quantum(expr, ctx), f.basis)
        assert back == f
