"""Acceptance suite: one test per criterion, exact GF(2) equality throughout.

Each test prints one PASS line on success (run with -s to see them); a
failing criterion shows up as the test's FAILED line.  Every identity is
checked bit for bit; there are no numeric tolerances in GF(2).
"""

import itertools
import random
import time

from boolweyl import checks
from boolweyl.bweyl import (
    OP_BASES,
    OpCoeffs,
    convert_op_basis,
    op_identity,
    op_monomial,
    op_mul,
    op_power,
    to_matrix,
)
from boolweyl.diffops import apply_coeffs, rep_matrix
from boolweyl.gf2lin import Gf2Matrix, gf2_rank, mat_apply, mat_mul
from boolweyl.lang import (
    REWRITE_RULE_NAMES,
    Mono,
    Sum,
    VarContext,
    entails_classical,
    entails_quantum,
    equivalent,
    eval_classical,
    eval_quantum,
    format_expr,
    normalize,
    parse_text,
    rewrite_rule_instance,
)
from boolweyl.ring import (
    _subset_sum_bits,
    _superset_sum_bits,
    convert_ring_basis,
    k_cover_parity,
)
from boolweyl.setfam import (
    PRODUCTS,
    Family,
    FamilyN,
    ast_prod,
    bullet_prod,
    circ_prod,
    family_to_op,
    familyn_to_ring,
    hat_diagonal,
    op_to_family,
    parse_family,
    ring_to_familyn,
    star_act,
    star_prod,
    tilde_antidiagonal,
)


def report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS - {text}")


def test_criterion_01_oracle_homomorphism():
    """Products in all six coefficient bases match matrix products exactly."""
    rng = random.Random(2024)
    start = time.time()
    pairs = 0
    for basis in OP_BASES:
        for n in (1, 2, 3):
            for _ in range(200):
                f = checks.random_op(rng, n, basis)
                g = checks.random_op(rng, n, basis)
                assert to_matrix(op_mul(f, g)) == mat_mul(to_matrix(f), to_matrix(g))
                pairs += 1
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(1, f"{pairs} products across 6 bases, n in 1..3, {elapsed:.1f}s")


def test_criterion_02_operator_span_rank():
    """Flattened x^a d^b matrices have full rank 2^(2n), n up to 4."""
    start = time.time()
    for n in (1, 2, 3, 4):
        size = 1 << n
        vectors = []
        for a in range(size):
            for b in range(size):
                m = rep_matrix("X", "Y", a, b, n)
                packed = 0
                for r, row in enumerate(m.rows):
                    packed |= row << (r * size)
                vectors.append(packed)
        assert gf2_rank(vectors) == size * size
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(2, f"rank 2^(2n) confirmed for n in 1..4, {elapsed:.1f}s")


def test_criterion_03_generator_identities():
    """The eight defining identities hold as matrices for every index."""
    for n in (1, 2, 3):
        result = checks.check_generator_relations(n)
        assert result.ok, result.detail
        commute = checks.check_generator_commutations(n)
        assert commute.ok, commute.detail
    report(3, "all eight identities and all commutations, n in 1..3")


def test_criterion_04_worked_examples():
    """The fixed catalogue of worked products, each verified bit-exact and
    re-verified against the matrix oracle."""

    def oracle_ok(got, *factors):
        want = to_matrix(factors[0])
        for f in factors[1:]:
            want = mat_mul(want, to_matrix(f))
        return to_matrix(got) == want

    # 1: derivative letter across a point indicator, n=1
    f, g = op_monomial(1, "XY", 0, 1), op_monomial(1, "MY", 1, 0)
    got = op_mul(convert_op_basis(f, "MY"), g)
    assert got.terms == frozenset({(1, 0), (0, 0), (0, 1)})
    assert oracle_ok(got, f, g)

    # 2: projector-style product m{1}y{1} m{1}y{1} = m{1}y{1}
    f = op_monomial(1, "MY", 1, 1)
    got = op_mul(f, f)
    assert got.terms == frozenset({(1, 1)})
    assert oracle_ok(got, f, f)

    # 3: derivative letter across m{1,2}, n=2
    f, g = op_monomial(2, "XY", 0, 1), op_monomial(2, "MY", 0b11, 0)
    got = op_mul(convert_op_basis(f, "MY"), g)
    assert got.terms == frozenset({(0b11, 0), (0b10, 0), (0b10, 0b01)})
    assert oracle_ok(got, f, g)

    # 4: m{2}y{1} m{1,2}y{1} = m{2}y{1}
    f, g = op_monomial(2, "MY", 0b10, 0b01), op_monomial(2, "MY", 0b11, 0b01)
    got = op_mul(f, g)
    assert got.terms == frozenset({(0b10, 0b01)})
    assert oracle_ok(got, f, g)

    # 5: y{1,2} across m{1,2,3}: nine spanning terms; the constant parts
    # are the four indicators m{1,2,3}, m{2,3}, m{1,3}, m{3}
    f, g = OpCoeffs(3, "MY", [(a, 0b011) for a in range(8)]), op_monomial(3, "MY", 0b111, 0)
    got = op_mul(f, g)
    want = {
        (0b111, 0), (0b110, 0), (0b110, 0b001), (0b101, 0), (0b101, 0b010),
        (0b100, 0), (0b100, 0b001), (0b100, 0b010), (0b100, 0b011),
    }
    assert got.terms == frozenset(want)
    assert oracle_ok(got, f, g)

    # 6: m{3}y{1,2} m{1,2,3}y{1,2} = m{3}y{1,2}; with the smaller right
    # exponent y{1} on the second factor a second term m{3}y{1} survives
    f = op_monomial(3, "MY", 0b100, 0b011)
    g_full = op_monomial(3, "MY", 0b111, 0b011)
    got = op_mul(f, g_full)
    assert got.terms == frozenset({(0b100, 0b011)})
    assert oracle_ok(got, f, g_full)
    g_small = op_monomial(3, "MY", 0b111, 0b001)
    got = op_mul(f, g_small)
    assert got.terms == frozenset({(0b100, 0b001), (0b100, 0b011)})
    assert oracle_ok(got, f, g_small)

    # 7: x^r y^r x^s y^s: equals the single monomial on r | s (for s = r
    # this is the one-term instance of the nested-interval sum); powers
    # of x^r y^r are fixed
    rng = random.Random(7)
    for n in (1, 2, 3):
        size = 1 << n
        for _ in range(30):
            r, s = rng.randrange(size), rng.randrange(size)
            f, g = op_monomial(n, "XY", r, r), op_monomial(n, "XY", s, s)
            got = op_mul(f, g)
            assert got.terms == frozenset({(r | s, r | s)})
            assert oracle_ok(got, f, g)
        for r in range(size):
            f = op_monomial(n, "XY", r, r)
            assert op_power(f, max(n, 2)) == f

    # 8: square of the full m/y term grid is the identity
    for n in (1, 2, 3):
        size = 1 << n
        f = OpCoeffs(n, "MY", [(a, b) for a in range(size) for b in range(size)])
        got = op_mul(f, f)
        assert got == op_identity(n, "MY")
        assert oracle_ok(got, f, f)

    # 9: r = sum x{i}y{i} squares to itself: the off-diagonal terms the
    # expansion generates come in equal ordered pairs and cancel mod 2;
    # the w-left twin behaves identically
    for n in (2, 3):
        r = OpCoeffs(n, "XY", [(1 << i, 1 << i) for i in range(n)])
        acc = set(r.terms)
        for i in range(n):
            for j in range(n):
                if i != j:
                    pair = ((1 << i) | (1 << j),) * 2
                    acc.symmetric_difference_update({pair})
        got = op_mul(r, r)
        assert got.terms == frozenset(acc) == r.terms
        assert oracle_ok(got, r, r)
        s = OpCoeffs(n, "WY", [(1 << i, 1 << i) for i in range(n)])
        got_s = op_mul(s, s)
        assert got_s == s
        assert oracle_ok(got_s, s, s)

    # 10: powers of the all-y sum alternate between itself and the identity
    for n in (1, 2, 3, 4):
        size = 1 << n
        f = OpCoeffs(n, "XY", [(0, b) for b in range(size)])
        for k in range(1, 6):
            assert op_power(f, k) == (f if k % 2 else op_identity(n, "XY"))

    # 11: shifted-presentation products
    for n in (1, 2, 3):
        size = 1 << n
        full = size - 1
        for c in range(size):
            # s^[n] m^c = m^(comp c) s^[n]
            lhs = op_mul(
                OpCoeffs(n, "MS", [(a, full) for a in range(size)]),
                op_monomial(n, "MS", c, 0),
            )
            assert lhs.terms == frozenset({(c ^ full, full)})
            for d in range(size):
                got = op_mul(
                    op_monomial(n, "MS", c ^ full, full), op_monomial(n, "MS", c, d)
                )
                assert got.terms == frozenset({(c ^ full, d ^ full)})
        f = OpCoeffs(n, "MS", [(a, a ^ full) for a in range(size)])
        g = OpCoeffs(n, "MS", [(full, d) for d in range(size)])
        got = op_mul(f, g)
        assert got.terms == frozenset((a, b) for a in range(size) for b in range(size))
        assert oracle_ok(got, f, g)
        h = OpCoeffs(n, "MS", [(a, b) for a in range(size) for b in range(size)])
        got = op_mul(h, op_monomial(n, "MS", full, full))
        assert got.terms == frozenset((a, a) for a in range(size))

    # 12: the four doubled-ground-set family products, n = 3
    got = circ_prod(parse_family("{{1,2,~2,~3}}", 3), parse_family("{{1,3,~1,~2}}", 3))
    assert got == parse_family("{{1,2,~1,~2},{1,2,~1,~2,~3}}", 3)
    got = bullet_prod(parse_family("{{1,3,~2}}", 3), parse_family("{{2,~1}}", 3))
    assert got == parse_family("{{1,2,3,~1,~2},{1,3,~1,~2},{1,3,~1}}", 3)
    got = star_prod(parse_family("{{1,2,3,~3}}", 3), parse_family("{{1,2,~2,~3}}", 3))
    assert got == parse_family("{{1,2,3,~2}}", 3)
    got = ast_prod(parse_family("{{1,~2}}", 3), parse_family("{{2,3,~1,~2}}", 3))
    assert got == parse_family("{{1,3,~1},{1,2,3,~1}}", 3)

    # 13: diagonal and antidiagonal star identities
    rng = random.Random(13)
    for _ in range(40):
        n = rng.choice([1, 2, 3])
        size = 1 << n
        a = FamilyN(n, frozenset(x for x in range(size) if rng.getrandbits(1)))
        hat = hat_diagonal(a)
        assert star_prod(hat, hat) == (hat if 0 in a.members else Family(n, frozenset()))
        til = tilde_antidiagonal(a)
        assert star_prod(til, til) == (
            til if (size - 1) in a.members else Family(n, frozenset())
        )
        f = FamilyN(n, frozenset(x for x in range(size) if rng.getrandbits(1)))
        assert star_act(hat, f) == (a if 0 in f.members else FamilyN(n, frozenset()))

    report(4, "all worked products and family examples, oracle-confirmed")


def test_criterion_05_monomial_basis_identities():
    """The ten identities relating the three monomial families, n up to 4."""
    start = time.time()
    for n in (1, 2, 3, 4):
        result = checks.check_bases_identities(n)
        assert result.ok, result.detail
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(5, f"all index pairs for n in 1..4, {elapsed:.1f}s")


def test_criterion_06_transform_involutions():
    """Subset and superset sums square to the identity."""
    for n in (1, 2, 3):
        size = 1 << n
        for bits in range(1 << size):
            assert _subset_sum_bits(_subset_sum_bits(bits, size), size) == bits
            assert _superset_sum_bits(_superset_sum_bits(bits, size), size) == bits
    rng = random.Random(6)
    for _ in range(1000):
        bits = sum(rng.getrandbits(1) << i for i in range(16))
        assert _subset_sum_bits(_subset_sum_bits(bits, 16), 16) == bits
        assert _superset_sum_bits(_superset_sum_bits(bits, 16), 16) == bits
    report(6, "exhaustive n in 1..3 plus 1000 random vectors at n=4")


def test_criterion_07_covering_parity_law():
    """Family membership equals the ordered k-tuple covering parity."""
    rng = random.Random(7)
    for n in (1, 2, 3):
        size = 1 << n
        for _ in range(100):
            fam = [c for c in range(size) if rng.getrandbits(1)]
            for k in range(1, 5):
                for a in range(size):
                    assert k_cover_parity(fam, a, k, n) == (1 if a in fam else 0)
    report(7, "100 random families per n in 1..3, every point, k in 1..4")


def test_criterion_08_coordinate_application():
    """Sparse coordinate application equals the matrix action."""
    rng = random.Random(8)
    for basis in ("MY", "XY", "MS", "XS"):
        for n in (1, 2, 3):
            for _ in range(100):
                op = checks.random_op(rng, n, basis)
                f = checks.random_ring_elem(rng, n)
                got = convert_ring_basis(apply_coeffs(op, f), "M").bits
                want = mat_apply(to_matrix(op), convert_ring_basis(f, "M").bits)
                assert got == want
    report(8, "100 random operator/function pairs per formula and n in 1..3")


def test_criterion_09_family_algebra_coherence():
    """Every family product and action agrees with the coefficient route."""
    # exhaustive at n=1: all 16 x 16 family pairs, every product
    all_families = [
        Family(1, frozenset(m))
        for m in itertools.chain.from_iterable(
            itertools.combinations([(p, t) for p in range(2) for t in range(2)], k)
            for k in range(5)
        )
    ]
    assert len(all_families) == 16
    for kind, (prod, act) in PRODUCTS.items():
        for fam_a in all_families:
            for fam_b in all_families:
                got = prod(fam_a, fam_b)
                want = op_to_family(
                    op_mul(family_to_op(fam_a, kind), family_to_op(fam_b, kind))
                )
                assert got == want, kind
        for fam_a in all_families:
            for fbits in range(4):
                fn = FamilyN(1, frozenset(x for x in range(2) if (fbits >> x) & 1))
                got = act(fam_a, fn)
                want = ring_to_familyn(
                    apply_coeffs(family_to_op(fam_a, kind), familyn_to_ring(fn, kind))
                )
                assert got == want, kind
    # 200 random pairs per product at n = 2 and 3
    rng = random.Random(9)
    for kind, (prod, act) in PRODUCTS.items():
        for n in (2, 3):
            for _ in range(200):
                fam_a = checks.random_family(rng, n, max_members=3)
                fam_b = checks.random_family(rng, n, max_members=3)
                got = prod(fam_a, fam_b)
                want = op_to_family(
                    op_mul(family_to_op(fam_a, kind), family_to_op(fam_b, kind))
                )
                assert got == want, kind
                fn = checks.random_family_n(rng, n)
                got_act = act(fam_a, fn)
                want_act = ring_to_familyn(
                    apply_coeffs(family_to_op(fam_a, kind), familyn_to_ring(fn, kind))
                )
                assert got_act == want_act, kind
    report(9, "exhaustive n=1 and 200 random pairs per product at n in 2..3")


def test_criterion_10_entailment_decisions():
    """Entailment decisions agree with exhaustive and pointwise oracles."""
    rng = random.Random(10)
    # quantum entailment vs: full scan of the 16 matrices at n=1, and at
    # n=2 a column-by-column scan of all 16 candidate columns, which
    # covers all 2^16 right factors since columns act independently
    names1 = ("a",)
    ctx1 = VarContext(names1)
    for _ in range(50):
        p = checks.random_expr(rng, names1, 2)
        q = checks.random_expr(rng, names1, 2)
        s = to_matrix(eval_quantum(p, ctx1))
        t = to_matrix(eval_quantum(q, ctx1))
        brute = any(
            mat_mul(t, Gf2Matrix(((packed & 3), (packed >> 2)))) == s
            for packed in range(16)
        )
        assert entails_quantum(p, q, ctx1) == brute
    names2 = ("a", "b")
    ctx2 = VarContext(names2)
    for _ in range(50):
        p = checks.random_expr(rng, names2, 2)
        q = checks.random_expr(rng, names2, 2)
        s = to_matrix(eval_quantum(p, ctx2))
        t = to_matrix(eval_quantum(q, ctx2))
        t_cols = [
            sum(((t.rows[r] >> c) & 1) << r for r in range(4)) for c in range(4)
        ]
        brute = True
        for c in range(4):
            s_col = sum(((s.rows[r] >> c) & 1) << r for r in range(4))
            images = set()
            for x in range(16):
                img = 0
                for j in range(4):
                    if (x >> j) & 1:
                        img ^= t_cols[j]
                images.add(img)
            if s_col not in images:
                brute = False
                break
        assert entails_quantum(p, q, ctx2) == brute
    # classical entailment vs pointwise order: exhaustive over all pairs
    # of truth functions at n <= 2 (through indicator-sum expressions),
    # all function pairs at the raw-coefficient level at n = 3
    for n in (1, 2):
        size = 1 << n
        ctx = VarContext(tuple("ab"[:n]))
        exprs = []
        for bits in range(1 << size):
            parts = tuple(
                Mono("m", tuple(i + 1 for i in range(n) if (a >> i) & 1))
                for a in range(size)
                if (bits >> a) & 1
            )
            exprs.append(Sum(parts) if len(parts) != 1 else parts[0])
        values = [convert_ring_basis(eval_classical(e, ctx), "M").bits for e in exprs]
        for i, p in enumerate(exprs):
            for j, q in enumerate(exprs):
                want = all(
                    ((values[i] >> a) & 1) <= ((values[j] >> a) & 1) for a in range(size)
                )
                assert entails_classical(p, q, ctx) == want
    size = 8
    for pv in range(256):
        for qv in range(256):
            rule = pv & ~qv == 0
            pointwise = all(((pv >> a) & 1) <= ((qv >> a) & 1) for a in range(size))
            assert rule == pointwise
    # soundness of every rewrite relation: 500 random instantiations
    ctx = VarContext(("a", "b"))
    for i in range(500):
        rule = REWRITE_RULE_NAMES[i % len(REWRITE_RULE_NAMES)]
        p = checks.random_expr(rng, ctx.names, 2)
        q = checks.random_expr(rng, ctx.names, 2)
        r = checks.random_expr(rng, ctx.names, 2)
        lhs, rhs = rewrite_rule_instance(rule, p, q, r, "a", "b")
        assert equivalent(lhs, rhs, ctx)
    report(10, "entailment vs exhaustive/pointwise oracles; 500 rewrite instances")


def test_criterion_11_parser_and_normal_form():
    """Printing inverts parsing; normalization is idempotent and value-safe."""
    rng = random.Random(11)
    ctx = VarContext(("a", "b"))
    corpus = [checks.random_expr(rng, ctx.names, 3) for _ in range(500)]
    for expr in corpus:
        assert parse_text(format_expr(expr)) == expr
    for expr in corpus:
        norm = normalize(expr, ctx)
        assert equivalent(expr, norm, ctx)
        assert normalize(norm, ctx) == norm
    report(11, "500 expressions: round-trip, idempotence, valuation preserved")
