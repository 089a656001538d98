"""Cross-check battery: every symbolic rule against the matrix oracle.

Each check returns a CheckResult and is deterministic for a fixed seed.
run_battery drives them all at a configured dimension and sample count;
the CLI crosscheck subcommand reports one line per check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import bweyl, diffops, gf2lin, lang, ring, setfam


@dataclass
class CheckResult:
    """ok: the check ran and held.  A skipped check ran nothing, so it is
    not ok, and it is not a failure either."""

    name: str
    ok: bool
    detail: str = ""
    skipped: bool = False

    @property
    def status(self) -> str:
        return "SKIP" if self.skipped else "PASS" if self.ok else "FAIL"


# --- samplers -----------------------------------------------------------------


def random_ring_elem(rng: random.Random, n: int, basis: str | None = None) -> ring.RingElem:
    basis = basis or rng.choice(ring.RING_BASES)
    return ring.RingElem(n, basis, rng.getrandbits(1 << n))


def random_op(rng: random.Random, n: int, basis: str | None = None) -> bweyl.OpCoeffs:
    """Uniform over term sets; support capped at 2^n once pairs outnumber 16.

    For n = 1 every element is equally likely.  Larger dimensions cap
    the support so the structural-rule products stay near their typical
    low-support cost.
    """
    basis = basis or rng.choice(bweyl.OP_BASES)
    size = 1 << n
    if size * size <= 16:
        terms = frozenset(
            (a, b) for a in range(size) for b in range(size) if rng.getrandbits(1)
        )
    else:
        count = rng.randint(0, size)
        pairs = set()
        while len(pairs) < count:
            pairs.add((rng.randrange(size), rng.randrange(size)))
        terms = frozenset(pairs)
    return bweyl.OpCoeffs(n, basis, terms)


def random_family(rng: random.Random, n: int, max_members: int | None = None) -> setfam.Family:
    size = 1 << n
    cap = max_members if max_members is not None else min(size, 4)
    count = rng.randint(0, cap)
    members = set()
    while len(members) < count:
        members.add((rng.randrange(size), rng.randrange(size)))
    return setfam.Family(n, frozenset(members))


def random_family_n(rng: random.Random, n: int) -> setfam.FamilyN:
    size = 1 << n
    return setfam.FamilyN(n, frozenset(a for a in range(size) if rng.getrandbits(1)))


def random_expr(rng: random.Random, names: tuple[str, ...], depth: int, quantum: bool = True) -> lang.Expr:
    if depth <= 0 or rng.random() < 0.35:
        roll = rng.random()
        if roll < 0.45:
            return lang.Var(rng.choice(names))
        if roll < 0.8 and quantum:
            return lang.TildeVar(rng.choice(names))
        if roll < 0.9:
            return lang.One()
        return lang.Zero()
    parts = tuple(
        random_expr(rng, names, depth - 1, quantum) for _ in range(rng.randint(2, 3))
    )
    return lang.Sum(parts) if rng.getrandbits(1) else lang.Prod(parts)


# --- ring ---------------------------------------------------------------------


def check_transform_involutions(n: int, samples: int, rng: random.Random) -> CheckResult:
    size = 1 << n
    vectors = (
        [list(map(int, format(v, f"0{size}b"))) for v in range(1 << size)]
        if size <= 8
        else [[rng.getrandbits(1) for _ in range(size)] for _ in range(samples)]
    )
    for vec in vectors:
        if ring.subset_sum_transform(ring.subset_sum_transform(vec)) != vec:
            return CheckResult("transform-involutions", False, f"subset sum not involutive on {vec}")
        if ring.superset_sum_transform(ring.superset_sum_transform(vec)) != vec:
            return CheckResult("transform-involutions", False, f"superset sum not involutive on {vec}")
    return CheckResult("transform-involutions", True, f"{len(vectors)} vectors, n={n}")


def check_bases_identities(n: int) -> CheckResult:
    """The ten monomial identities tying m, x and w together."""
    size = 1 << n
    full = size - 1

    def m_bits(f: ring.RingElem) -> int:
        return ring.convert_ring_basis(f, "M").bits

    for a in range(size):
        ca = a ^ full
        checks = [
            # m^a = x^a w^(comp a)
            m_bits(ring.ring_mul(ring.ring_monomial("X", a, n), ring.ring_monomial("W", ca, n)))
            == 1 << a,
            # x^a = sum of m^b over supersets, m^a = sum of x^b over supersets
            m_bits(ring.ring_monomial("X", a, n))
            == m_bits(ring.ring_from_support(n, "M", (b for b in range(size) if a & ~b == 0))),
            m_bits(ring.ring_monomial("M", a, n))
            == m_bits(ring.ring_from_support(n, "X", (b for b in range(size) if a & ~b == 0))),
            # w^a = sum of m^b over subsets of the complement
            m_bits(ring.ring_monomial("W", a, n))
            == m_bits(ring.ring_from_support(n, "M", ring.submasks(ca))),
            # m^a = sum of w^b over supersets of the complement
            m_bits(ring.ring_monomial("M", a, n))
            == m_bits(ring.ring_from_support(n, "W", (b for b in range(size) if ca & ~b == 0))),
            # w^a = sum of x^b over subsets, x^a = sum of w^b over subsets
            m_bits(ring.ring_monomial("W", a, n))
            == m_bits(ring.ring_from_support(n, "X", ring.submasks(a))),
            m_bits(ring.ring_monomial("X", a, n))
            == m_bits(ring.ring_from_support(n, "W", ring.submasks(a))),
        ]
        if not all(checks):
            return CheckResult("bases-identities", False, f"unary identity failed at a={a}")
        for b in range(size):
            prod_m = ring.ring_mul(ring.ring_monomial("M", a, n), ring.ring_monomial("M", b, n))
            if m_bits(prod_m) != ((1 << a) if a == b else 0):
                return CheckResult("bases-identities", False, f"m-product failed at {a},{b}")
            prod_x = ring.ring_mul(ring.ring_monomial("X", a, n), ring.ring_monomial("X", b, n))
            if m_bits(prod_x) != m_bits(ring.ring_monomial("X", a | b, n)):
                return CheckResult("bases-identities", False, f"x-product failed at {a},{b}")
            prod_w = ring.ring_mul(ring.ring_monomial("W", a, n), ring.ring_monomial("W", b, n))
            if m_bits(prod_w) != m_bits(ring.ring_monomial("W", a | b, n)):
                return CheckResult("bases-identities", False, f"w-product failed at {a},{b}")
    return CheckResult("bases-identities", True, f"all pairs, n={n}")


def check_ring_product(n: int, samples: int, rng: random.Random) -> CheckResult:
    one = ring.ring_one(n)
    for _ in range(samples):
        f = random_ring_elem(rng, n)
        g = random_ring_elem(rng, n)
        h = random_ring_elem(rng, n)
        same = lambda u, v: ring.convert_ring_basis(u, "M").bits == ring.convert_ring_basis(v, "M").bits
        if not same(ring.ring_mul(f, g), ring.ring_mul(g, f)):
            return CheckResult("ring-product", False, "commutativity failed")
        if not same(ring.ring_mul(ring.ring_mul(f, g), h), ring.ring_mul(f, ring.ring_mul(g, h))):
            return CheckResult("ring-product", False, "associativity failed")
        if not same(ring.ring_mul(f, f), f):
            return CheckResult("ring-product", False, "idempotency failed")
        if not same(ring.ring_mul(f, one), f):
            return CheckResult("ring-product", False, "unit failed")
        point = rng.randrange(1 << n)
        if ring.ring_eval(ring.ring_mul(f, g), point) != (
            ring.ring_eval(f, point) & ring.ring_eval(g, point)
        ):
            return CheckResult("ring-product", False, "evaluation not multiplicative")
    return CheckResult("ring-product", True, f"{samples} samples, n={n}")


def check_covering_parity(n: int, samples: int, rng: random.Random) -> CheckResult:
    size = 1 << n
    for _ in range(samples):
        family = [c for c in range(size) if rng.getrandbits(1)]
        for k in range(1, 5):
            for a in range(size):
                expected = 1 if a in family else 0
                if ring.k_cover_parity(family, a, k, n) != expected:
                    return CheckResult(
                        "covering-parity", False, f"C={family} a={a} k={k}"
                    )
    return CheckResult("covering-parity", True, f"{samples} families, k<=4, n={n}")


# --- differential operators ----------------------------------------------------


def check_generator_relations(n: int) -> CheckResult:
    """The eight defining identities of x_i, d_i and s_i, as matrices."""
    size = 1 << n
    eye = gf2lin.identity(size)
    zero = gf2lin.zero_matrix(size)
    for i in range(1, n + 1):
        x = diffops.multiplication_matrix(ring.ring_monomial("X", 1 << (i - 1), n))
        d = diffops.derivative_matrix(i, n)
        s = diffops.shift_matrix(i, n)
        mm, ma = gf2lin.mat_mul, gf2lin.mat_add
        checks = [
            mm(x, x) == x,
            mm(d, d) == zero,
            mm(s, s) == eye,
            d == ma(s, eye),
            mm(d, s) == d and mm(s, d) == d,
            s == ma(d, eye),
            mm(s, x) == ma(mm(x, s), s) and mm(s, x) == mm(ma(x, eye), s),
            mm(d, x) == ma(mm(x, d), s) and mm(d, x) == ma(ma(mm(x, d), d), eye),
        ]
        if not all(checks):
            bad = [j + 1 for j, okc in enumerate(checks) if not okc]
            return CheckResult("generator-relations", False, f"identities {bad} failed at i={i}")
    return CheckResult("generator-relations", True, f"all i, n={n}")


def check_generator_commutations(n: int) -> CheckResult:
    mm = gf2lin.mat_mul
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            xi = diffops.multiplication_matrix(ring.ring_monomial("X", 1 << (i - 1), n))
            xj = diffops.multiplication_matrix(ring.ring_monomial("X", 1 << (j - 1), n))
            di, dj = diffops.derivative_matrix(i, n), diffops.derivative_matrix(j, n)
            si, sj = diffops.shift_matrix(i, n), diffops.shift_matrix(j, n)
            if mm(xi, xj) != mm(xj, xi) or mm(di, dj) != mm(dj, di) or mm(si, sj) != mm(sj, si):
                return CheckResult("generator-commutations", False, f"i={i} j={j}")
            if i != j and (mm(di, xj) != mm(xj, di) or mm(si, xj) != mm(xj, si)):
                return CheckResult("generator-commutations", False, f"mixed i={i} j={j}")
    return CheckResult("generator-commutations", True, f"all pairs, n={n}")


def _flatten(m: gf2lin.Gf2Matrix) -> int:
    packed = 0
    side = m.side
    for r, row in enumerate(m.rows):
        packed |= row << (r * side)
    return packed


def check_operator_span_rank(n: int) -> CheckResult:
    """The monomial operators x^a d^b span the full matrix algebra."""
    if n > 6:
        return CheckResult(
            "operator-span-rank", False, f"4^n x 4^n elimination too large at n={n}", skipped=True
        )
    size = 1 << n
    vectors = [
        _flatten(diffops.rep_matrix("X", "Y", a, b, n))
        for a in range(size)
        for b in range(size)
    ]
    got = gf2lin.gf2_rank(vectors)
    want = size * size
    return CheckResult("operator-span-rank", got == want, f"rank {got} of {want}, n={n}")


def check_derivative_closed_forms(n: int) -> CheckResult:
    """d^b on each monomial family matches its closed form."""
    size = 1 << n
    for b in range(size):
        db = diffops.derivative_power_matrix(b, n)
        for a in range(size):
            got_x = gf2lin.mat_apply(db, ring.convert_ring_basis(ring.ring_monomial("X", a, n), "M").bits)
            want_x = (
                ring.convert_ring_basis(ring.ring_monomial("X", a & ~b, n), "M").bits
                if b & ~a == 0
                else 0
            )
            if got_x != want_x:
                return CheckResult("derivative-closed-forms", False, f"x-case a={a} b={b}")
            got_w = gf2lin.mat_apply(db, ring.convert_ring_basis(ring.ring_monomial("W", a, n), "M").bits)
            want_w = (
                ring.convert_ring_basis(ring.ring_monomial("W", a & ~b, n), "M").bits
                if b & ~a == 0
                else 0
            )
            if got_w != want_w:
                return CheckResult("derivative-closed-forms", False, f"w-case a={a} b={b}")
            got_m = gf2lin.mat_apply(db, 1 << a)
            want_m = 0
            for c in ring.submasks(b):
                want_m ^= 1 << (a ^ c)
            if got_m != want_m:
                return CheckResult("derivative-closed-forms", False, f"m-case a={a} b={b}")
    return CheckResult("derivative-closed-forms", True, f"all a,b, n={n}")


def _x_change_matrix(n: int) -> gf2lin.Gf2Matrix:
    # subset-sum change of basis between M and X coordinates (self-inverse)
    size = 1 << n
    rows = []
    for b in range(size):
        row = 0
        for a in ring.submasks(b):
            row |= 1 << a
        rows.append(row)
    return gf2lin.Gf2Matrix(tuple(rows))


def check_rep_matrices(n: int, rng: random.Random) -> CheckResult:
    """Closed-form monomial matrices match the generator-product route.

    X-left closed forms act on X coordinates, so the generator route is
    conjugated by the subset-sum change of basis before comparing.
    """
    size = 1 << n
    z = _x_change_matrix(n)
    if size <= 4:
        index_pairs = [(a, b) for a in range(size) for b in range(size)]
    else:
        index_pairs = [(rng.randrange(size), rng.randrange(size)) for _ in range(32)]
    families = [("M", "Y", "MY"), ("M", "S", "MS"), ("X", "Y", "XY"), ("X", "S", "XS")]
    for a, b in index_pairs:
        for left, right, basis in families:
            rep = diffops.rep_matrix(left, right, a, b, n)
            env = bweyl.to_matrix(bweyl.op_monomial(n, basis, a, b))
            if left == "X":
                env = gf2lin.mat_mul(z, gf2lin.mat_mul(env, z))
            if rep != env:
                return CheckResult("rep-matrices", False, f"{basis} a={a} b={b}")
    return CheckResult("rep-matrices", True, f"{len(index_pairs)} monomials x 4 families, n={n}")


def check_coordinate_application(n: int, samples: int, rng: random.Random) -> CheckResult:
    for basis in ("MY", "XY", "MS", "XS"):
        for _ in range(samples):
            op = random_op(rng, n, basis)
            f = random_ring_elem(rng, n)
            got = ring.convert_ring_basis(diffops.apply_coeffs(op, f), "M").bits
            want = gf2lin.mat_apply(
                bweyl.to_matrix(op), ring.convert_ring_basis(f, "M").bits
            )
            if got != want:
                return CheckResult("coordinate-application", False, f"basis {basis}")
    return CheckResult("coordinate-application", True, f"{samples} samples/basis, n={n}")


# --- operator algebra -----------------------------------------------------------


def check_product_homomorphism(n: int, samples: int, rng: random.Random) -> CheckResult:
    """to_matrix carries every basis product to the matrix product."""
    for basis in bweyl.OP_BASES:
        for _ in range(samples):
            f = random_op(rng, n, basis)
            g = random_op(rng, n, basis)
            got = bweyl.to_matrix(bweyl.op_mul(f, g))
            want = gf2lin.mat_mul(bweyl.to_matrix(f), bweyl.to_matrix(g))
            if got != want:
                return CheckResult(
                    "product-homomorphism", False, f"basis {basis}: {bweyl.op_text(f)} * {bweyl.op_text(g)}"
                )
    return CheckResult("product-homomorphism", True, f"{samples} pairs/basis, n={n}")


def check_basis_roundtrips(n: int, samples: int, rng: random.Random) -> CheckResult:
    for _ in range(samples):
        f = random_op(rng, n)
        want = bweyl.to_matrix(f)
        for target in bweyl.OP_BASES:
            g = bweyl.convert_op_basis(f, target)
            if bweyl.to_matrix(g) != want:
                return CheckResult("basis-roundtrips", False, f"{f.basis}->{target} changed semantics")
            if bweyl.convert_op_basis(g, f.basis) != f:
                return CheckResult("basis-roundtrips", False, f"{f.basis}->{target} not invertible")
    return CheckResult("basis-roundtrips", True, f"{samples} elements x 6 bases, n={n}")


def check_product_unit_associativity(n: int, samples: int, rng: random.Random) -> CheckResult:
    for _ in range(samples):
        basis = rng.choice(bweyl.OP_BASES)
        f = random_op(rng, n, basis)
        g = random_op(rng, n, basis)
        h = random_op(rng, n, basis)
        if bweyl.op_mul(bweyl.op_mul(f, g), h) != bweyl.op_mul(f, bweyl.op_mul(g, h)):
            return CheckResult("product-unit-associativity", False, f"associativity in {basis}")
        one = bweyl.op_identity(n, basis)
        if bweyl.op_mul(f, one) != f or bweyl.op_mul(one, f) != f:
            return CheckResult("product-unit-associativity", False, f"unit in {basis}")
    return CheckResult("product-unit-associativity", True, f"{samples} triples, n={n}")


def check_monomial_product_forms(n: int, samples: int, rng: random.Random) -> CheckResult:
    """Single-monomial products against the literal rules of MY, MS, XY and XS."""
    size = 1 << n
    if size <= 4:
        quads = [
            (a, b, c, d)
            for a in range(size)
            for b in range(size)
            for c in range(size)
            for d in range(size)
        ]
    else:
        quads = [tuple(rng.randrange(size) for _ in range(4)) for _ in range(samples)]
    for a, b, c, d in quads:
        got = bweyl.op_mul(bweyl.op_monomial(n, "MY", a, b), bweyl.op_monomial(n, "MY", c, d))
        want = set()
        if (a ^ c) & ~b == 0:
            for e in range(size):
                if d & ~e == 0 and (e & ~d) & ~(a ^ c) == 0:
                    want.add((a, e))
        if got.terms != frozenset(want):
            return CheckResult("monomial-product-forms", False, f"MY {a},{b},{c},{d}")
        got_s = bweyl.op_mul(bweyl.op_monomial(n, "MS", a, b), bweyl.op_monomial(n, "MS", c, d))
        want_s = frozenset({(a, b ^ d)}) if a == (b ^ c) else frozenset()
        if got_s.terms != want_s:
            return CheckResult("monomial-product-forms", False, f"MS {a},{b},{c},{d}")
        got_x = bweyl.op_mul(bweyl.op_monomial(n, "XY", a, b), bweyl.op_monomial(n, "XY", c, d))
        want_x = frozenset(
            (e, h)
            for e in range(size)
            for h in range(size)
            if a & ~e == 0 and d & ~h == 0 and bweyl.structural_coeff_c(a, b, c, d, e, h)
        )
        if got_x.terms != want_x:
            return CheckResult("monomial-product-forms", False, f"XY {a},{b},{c},{d}")
        got_xs = bweyl.op_mul(bweyl.op_monomial(n, "XS", a, b), bweyl.op_monomial(n, "XS", c, d))
        want_xs = set()
        for k in range(size):
            if k & ~(b & c) == 0:
                want_xs ^= {(a | (c & ~k), b ^ d)}
        if got_xs.terms != want_xs:
            return CheckResult("monomial-product-forms", False, f"XS {a},{b},{c},{d}")
    return CheckResult("monomial-product-forms", True, f"{len(quads)} quadruples, n={n}")


# --- set families ----------------------------------------------------------------


def check_family_coherence(n: int, samples: int, rng: random.Random) -> CheckResult:
    for kind, (prod, act) in setfam.PRODUCTS.items():
        for _ in range(samples):
            fam_a = random_family(rng, n)
            fam_b = random_family(rng, n)
            got = prod(fam_a, fam_b)
            want = setfam.op_to_family(
                bweyl.op_mul(setfam.family_to_op(fam_a, kind), setfam.family_to_op(fam_b, kind))
            )
            if got != want:
                return CheckResult("family-coherence", False, f"{kind} product diverges")
            fn = random_family_n(rng, n)
            got_act = act(fam_a, fn)
            want_act = setfam.ring_to_familyn(
                diffops.apply_coeffs(
                    setfam.family_to_op(fam_a, kind), setfam.familyn_to_ring(fn, kind)
                )
            )
            if got_act != want_act:
                return CheckResult("family-coherence", False, f"{kind} action diverges")
    return CheckResult("family-coherence", True, f"{samples} pairs/product, n={n}")


def check_family_sum_distributes(n: int, samples: int, rng: random.Random) -> CheckResult:
    for kind, (prod, _) in setfam.PRODUCTS.items():
        for _ in range(samples):
            fam_a = random_family(rng, n)
            fam_b = random_family(rng, n)
            fam_c = random_family(rng, n)
            lhs = prod(fam_a, setfam.fam_add(fam_b, fam_c))
            rhs = setfam.fam_add(prod(fam_a, fam_b), prod(fam_a, fam_c))
            if lhs != rhs:
                return CheckResult("family-sum-distributes", False, f"{kind}")
    return CheckResult("family-sum-distributes", True, f"{samples} triples/product, n={n}")


# --- language --------------------------------------------------------------------


def _same_matrix(p: lang.Expr, q: lang.Expr, ctx: lang.VarContext) -> bool:
    """Matrix equality of the operator valuations: lang.equivalent's oracle."""
    return bweyl.to_matrix(lang.eval_quantum(p, ctx)) == bweyl.to_matrix(lang.eval_quantum(q, ctx))


def check_rewrite_soundness(samples: int, rng: random.Random) -> CheckResult:
    names = ("a", "b")
    ctx = lang.VarContext(names)
    for _ in range(samples):
        rule = rng.choice(lang.REWRITE_RULE_NAMES)
        p = random_expr(rng, names, 2)
        q = random_expr(rng, names, 2)
        r = random_expr(rng, names, 2)
        lhs, rhs = lang.rewrite_rule_instance(rule, p, q, r, "a", "b")
        if not _same_matrix(lhs, rhs, ctx):
            return CheckResult("rewrite-soundness", False, f"rule {rule}")
    return CheckResult("rewrite-soundness", True, f"{samples} instantiations")


def check_parser_roundtrip(samples: int, rng: random.Random) -> CheckResult:
    names = ("a", "b", "c")
    for _ in range(samples):
        expr = random_expr(rng, names, 3)
        text = lang.format_expr(expr)
        if lang.parse_text(text) != expr:
            return CheckResult("parser-roundtrip", False, text)
    return CheckResult("parser-roundtrip", True, f"{samples} expressions")


def check_normalize(samples: int, rng: random.Random) -> CheckResult:
    names = ("a", "b")
    ctx = lang.VarContext(names)
    for _ in range(samples):
        expr = random_expr(rng, names, 2)
        norm = lang.normalize(expr, ctx)
        if not _same_matrix(expr, norm, ctx):
            return CheckResult("normalize", False, f"value changed: {lang.format_expr(expr)}")
        if lang.normalize(norm, ctx) != norm:
            return CheckResult("normalize", False, f"not idempotent: {lang.format_expr(expr)}")
    return CheckResult("normalize", True, f"{samples} expressions")


def check_entailment(n: int, samples: int, rng: random.Random) -> CheckResult:
    names = tuple("abc"[:n]) if n <= 3 else tuple(f"v{i}" for i in range(1, n + 1))
    ctx = lang.VarContext(names)
    size = 1 << n
    for _ in range(samples):
        p = random_expr(rng, names, 2, quantum=False)
        q = random_expr(rng, names, 2, quantum=False)
        got = lang.entails_classical(p, q, ctx)
        pv = ring.convert_ring_basis(lang.eval_classical(p, ctx), "M").bits
        qv = ring.convert_ring_basis(lang.eval_classical(q, ctx), "M").bits
        want = all((pv >> a) & 1 <= (qv >> a) & 1 for a in range(size))
        if got != want:
            return CheckResult("entailment", False, "classical decision wrong")
        if got != (lang.entailment_witness(p, q, ctx) is not None):  # the matrix route
            return CheckResult("entailment", False, "classical/quantum disagree on propositions")
        if not lang.entails_classical(p, p, ctx):
            return CheckResult("entailment", False, "not reflexive")
        r = random_expr(rng, names, 2)
        s = random_expr(rng, names, 2)
        t = random_expr(rng, names, 2)
        if (
            lang.entails_quantum(r, s, ctx)
            and lang.entails_quantum(s, t, ctx)
            and not lang.entails_quantum(r, t, ctx)
        ):
            return CheckResult("entailment", False, "not transitive")
    return CheckResult("entailment", True, f"{samples} samples, n={n}")


# --- battery ---------------------------------------------------------------------


def run_battery(n: int = 3, samples: int = 25, seed: int = 0) -> list[CheckResult]:
    """The full invariant battery at one dimension."""
    rng = random.Random(seed)
    lang_samples = max(samples, 50)
    return [
        check_transform_involutions(n, samples * 4, rng),
        check_bases_identities(n),
        check_ring_product(n, samples, rng),
        check_covering_parity(min(n, 3), max(samples // 2, 5), rng),
        check_generator_relations(n),
        check_generator_commutations(n),
        check_operator_span_rank(n),
        check_derivative_closed_forms(min(n, 3)),
        check_rep_matrices(min(n, 3), rng),
        check_coordinate_application(n, samples, rng),
        check_product_homomorphism(n, samples, rng),
        check_basis_roundtrips(n, samples, rng),
        check_product_unit_associativity(n, samples, rng),
        check_monomial_product_forms(n, samples, rng),
        check_family_coherence(min(n, 3), samples, rng),
        check_family_sum_distributes(min(n, 3), samples, rng),
        check_rewrite_soundness(lang_samples, rng),
        check_parser_roundtrip(lang_samples, rng),
        check_normalize(max(samples, 25), rng),
        check_entailment(min(n, 3), samples, rng),
    ]
