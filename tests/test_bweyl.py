"""Operator algebra: basis changes, structural products, normal ordering."""

import random

import pytest

from boolweyl import checks
from boolweyl.bweyl import (
    OP_BASES,
    OpCoeffs,
    convert_op_basis,
    normal_order,
    op_add,
    op_coeffs,
    op_from_json,
    op_identity,
    op_monomial,
    op_mul,
    op_power,
    op_text,
    op_to_json,
    op_zero,
    structural_coeff_c,
    to_matrix,
)
from boolweyl.diffops import (
    derivative_matrix,
    derivative_power_matrix,
    multiplication_matrix,
    shift_power_matrix,
)
from boolweyl.gf2lin import identity, mat_add, mat_mul, zero_matrix
from boolweyl.ring import ring_monomial, submasks


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


def test_to_matrix_matches_per_term_route():
    rng = random.Random(37)
    for n in range(1, 6):
        for _ in range(12 if n < 5 else 4):
            f = checks.random_op(rng, n)
            for basis in OP_BASES:
                g = convert_op_basis(f, basis)
                assert to_matrix(g) == per_term_matrix(g)
    # larger n: operators drawn in each basis, since conversions multiply terms
    for n in (6, 7):
        for basis in OP_BASES:
            for _ in range(2):
                f = checks.random_op(rng, n, basis)
                assert to_matrix(f) == per_term_matrix(f)


def test_to_matrix_basics():
    assert to_matrix(op_zero(2)) == zero_matrix(4)
    assert to_matrix(op_monomial(2, "XY", 0, 0)) == identity(4)
    assert to_matrix(op_coeffs(1, "XY", [(0, 1)])) == derivative_matrix(1, 1)
    for basis in OP_BASES:
        assert to_matrix(op_identity(3, basis)) == identity(8)


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
        f = op_coeffs(n, "MY", [(a, b) for a in range(size) for b in range(size)])
        assert op_mul(f, f) == op_identity(n, "MY")


def test_derivative_sum_power_parity():
    # f = sum of y^a over all a: odd powers give f, even powers the identity
    for n in (1, 2, 3, 4):
        size = 1 << n
        f = op_coeffs(n, "XY", [(0, b) for b in range(size)])
        for k in range(1, 6):
            want = f if k % 2 else op_identity(n, "XY")
            assert op_power(f, k) == want


def test_xy_pair_sum_squares():
    # r = sum of x^{i}y^{i}: the cross terms cancel over GF(2), so r^2 = r;
    # the same holds for the w-left twin by the x/w substitution symmetry
    for n in (2, 3):
        r = op_coeffs(n, "XY", [(1 << i, 1 << i) for i in range(n)])
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
        s = op_coeffs(n, "WY", [(1 << i, 1 << i) for i in range(n)])
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
            f = op_coeffs(n, "XY", [(0, a) for a in fam_a])
            g = op_coeffs(n, "XY", [(0, a) for a in fam_b])
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
            f = op_coeffs(n, "XY", [(0, a) for a in fam])
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
        f = op_coeffs(n, "MS", [(a, a ^ full) for a in range(size)])
        g = op_coeffs(n, "MS", [(full, d) for d in range(size)])
        assert op_mul(f, g).terms == frozenset(
            (a, b) for a in range(size) for b in range(size)
        )
        # (sum m^a s^b)(m^[n] s^[n]) keeps only the diagonal pairs
        h = op_coeffs(n, "MS", [(a, b) for a in range(size) for b in range(size)])
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
        f = op_coeffs(n, "MS", [(a, 0) for a in supp_f])
        g = op_coeffs(n, "MS", [(a, 0) for a in supp_g])
        want = frozenset((a, 0) for a in set(supp_f) & set(supp_g))
        assert op_mul(f, g).terms == want


def test_op_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        op_mul(op_identity(2), op_identity(3))


def test_op_mul_mixed_bases_converts_to_left():
    f = op_monomial(2, "XY", 0b01, 0)
    g = op_monomial(2, "MS", 0b10, 0b01)
    prod = op_mul(f, g)
    assert prod.basis == "XY"
    assert to_matrix(prod) == mat_mul(to_matrix(f), to_matrix(g))


# --- homomorphism and algebra laws ----------------------------------------------


@pytest.mark.parametrize("basis", OP_BASES)
def test_product_homomorphism_sampled(basis):
    rng = random.Random(hash(basis) & 0xFFFF)
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
    assert op_add(f, f).is_zero()
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
    assert normal_order([("y", 1), ("y", 1)], 1).is_zero()
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


def test_normal_order_rejects_mixed_right_letters():
    with pytest.raises(ValueError):
        normal_order([("y", 1), ("s", 1)], 1)
    with pytest.raises(ValueError):
        normal_order([("q", 1)], 1)


# --- serialization ----------------------------------------------------------------


def test_text_form():
    f = op_coeffs(2, "XY", [(0b11, 0b01), (0b11, 0b11)])
    assert op_text(f) == "x{1,2}y{1} + x{1,2}y{1,2}"
    assert op_text(op_zero(2)) == "0"
    assert op_text(op_identity(2, "XY")) == "1"
    assert op_text(op_monomial(2, "MY", 0, 0)) == "m{}"
    assert op_text(op_monomial(2, "XY", 0, 0b10)) == "y{2}"
    assert op_text(op_monomial(2, "MS", 0b01, 0b10)) == "m{1}s{2}"


def test_json_round_trip():
    f = op_coeffs(2, "WS", [(0b01, 0b11), (0, 0)])
    data = op_to_json(f)
    assert data == {"n": 2, "basis": "WS", "terms": [[[], []], [[1], [1, 2]]]}
    assert op_from_json(data) == f


def test_sorted_terms_order():
    f = op_coeffs(2, "XY", [(2, 1), (1, 3), (1, 0)])
    assert f.sorted_terms() == [(1, 0), (1, 3), (2, 1)]


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
