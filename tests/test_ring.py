"""Boolean ring: transforms, bases, products, covering parity."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from boolweyl import lang, ring
from boolweyl.bweyl import OpCoeffs, op_add, op_mul
from boolweyl.diffops import apply_coeffs
from boolweyl.ring import (
    RingElem,
    _subset_sum_bits,
    _superset_sum_bits,
    convert_ring_basis,
    k_cover_parity,
    mask_from_indices,
    ring_add,
    ring_eval,
    ring_from_json,
    ring_from_support,
    ring_monomial,
    ring_mul,
    ring_one,
    ring_text,
    ring_to_json,
)
from boolweyl.setfam import Family, FamilyN, circ_act, fam_add


def brute_subset_sum(vec):
    n_points = len(vec)
    return [
        sum(vec[a] for a in range(n_points) if a & ~b == 0) & 1 for b in range(n_points)
    ]


def brute_superset_sum(vec):
    n_points = len(vec)
    return [
        sum(vec[b] for b in range(n_points) if a & ~b == 0) & 1 for a in range(n_points)
    ]


def test_mask_helpers():
    assert mask_from_indices([1, 3], 3) == 0b101
    assert ring.indices_from_mask(0b101) == (1, 3)
    assert ring.mask_str(0) == "{}"
    assert ring.mask_str(0b101) == "{1,3}"
    with pytest.raises(ValueError):
        mask_from_indices([4], 3)


def test_subset_sum_transform_small():
    assert _subset_sum_bits(0b01, 2) == 0b11
    assert _subset_sum_bits(0b10, 2) == 0b10


def test_superset_sum_transform_small():
    assert _superset_sum_bits(0b01, 2) == 0b01
    assert _superset_sum_bits(0b10, 2) == 0b11


def bits_of(vec):
    """Pack a 0/1 list: entry i is bit i."""
    return sum(v << i for i, v in enumerate(vec))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_transforms_match_brute_force(n):
    size = 1 << n
    for packed in range(1 << size):
        vec = [(packed >> i) & 1 for i in range(size)]
        assert _subset_sum_bits(packed, size) == bits_of(brute_subset_sum(vec))
        assert _superset_sum_bits(packed, size) == bits_of(brute_superset_sum(vec))


@given(st.integers(0, (1 << 16) - 1))
def test_transforms_are_involutions(bits):
    assert _subset_sum_bits(_subset_sum_bits(bits, 16), 16) == bits
    assert _superset_sum_bits(_superset_sum_bits(bits, 16), 16) == bits


def m_bits(f: RingElem) -> int:
    return convert_ring_basis(f, "M").bits


def test_monomial_semantics_from_definitions():
    # m^a(b) = [a == b], x^a(b) = [a subset b], w^a(b) = [b subset comp(a)]
    for n in (1, 2, 3):
        size = 1 << n
        for a in range(size):
            for b in range(size):
                assert ring_eval(ring_monomial("M", a, n), b) == (1 if a == b else 0)
                assert ring_eval(ring_monomial("X", a, n), b) == (1 if a & ~b == 0 else 0)
                comp = a ^ (size - 1)
                assert ring_eval(ring_monomial("W", a, n), b) == (1 if b & ~comp == 0 else 0)


def test_monomial_coefficient_vectors():
    assert ring_monomial("M", 0, 1).bits == 0b01
    assert ring_monomial("X", 0b11, 2).bits == 0b1000
    with pytest.raises(ValueError):
        ring_monomial("M", 0b100, 2)


def test_convert_m_to_x_example():
    # the point indicator of {1} at n=2 is x{1} + x{1,2}
    f = convert_ring_basis(ring_monomial("M", 0b01, 2), "X")
    assert f.support() == (0b01, 0b11)
    # and at n=1 the point indicator of {1} is the single monomial x{1}
    g = convert_ring_basis(ring_monomial("M", 1, 1), "X")
    assert g.support() == (1,)


def test_convert_round_trips():
    rng = random.Random(7)
    for n in (1, 2, 3, 4):
        for _ in range(50):
            f = RingElem(n, rng.choice(ring.RING_BASES), rng.getrandbits(1 << n))
            for target in ring.RING_BASES:
                g = convert_ring_basis(f, target)
                assert convert_ring_basis(g, f.basis) == f
                assert m_bits(g) == m_bits(f)


def test_ring_mul_monomials():
    # x{1} x{2} = x{1,2}
    f = ring_mul(ring_monomial("X", 0b01, 2), ring_monomial("X", 0b10, 2))
    assert f.basis == "X" and f.support() == (0b11,)
    # m{1} m{2} = 0
    g = ring_mul(ring_monomial("M", 0b01, 2), ring_monomial("M", 0b10, 2))
    assert g.bits == 0


def test_ring_mul_idempotent_and_pointwise():
    rng = random.Random(3)
    for n in (1, 2, 3, 4):
        for _ in range(50):
            f = RingElem(n, rng.choice(ring.RING_BASES), rng.getrandbits(1 << n))
            g = RingElem(n, rng.choice(ring.RING_BASES), rng.getrandbits(1 << n))
            assert m_bits(ring_mul(f, f)) == m_bits(f)
            prod = ring_mul(f, g)
            assert prod.basis == f.basis
            for point in range(1 << n):
                assert ring_eval(prod, point) == (ring_eval(f, point) & ring_eval(g, point))


def test_ring_mul_unit_and_commutative_associative():
    rng = random.Random(11)
    n = 3
    one = ring_one(n)
    for _ in range(40):
        f = RingElem(n, rng.choice(ring.RING_BASES), rng.getrandbits(1 << n))
        g = RingElem(n, rng.choice(ring.RING_BASES), rng.getrandbits(1 << n))
        h = RingElem(n, rng.choice(ring.RING_BASES), rng.getrandbits(1 << n))
        assert m_bits(ring_mul(f, one)) == m_bits(f)
        assert m_bits(ring_mul(f, g)) == m_bits(ring_mul(g, f))
        assert m_bits(ring_mul(ring_mul(f, g), h)) == m_bits(ring_mul(f, ring_mul(g, h)))


def test_ring_mul_matches_literal_cover_product():
    # X and W products go through M; the paper's cover product is the oracle
    rng = random.Random(29)
    for n in range(1, 9):
        for _ in range(6):
            f = RingElem(n, rng.choice("XW"), rng.getrandbits(1 << n))
            g = RingElem(n, rng.choice(ring.RING_BASES), rng.getrandbits(1 << n))
            want = ring._cover_product_bits(f.bits, convert_ring_basis(g, f.basis).bits)
            assert ring_mul(f, g) == RingElem(n, f.basis, want)


def list_subset_sum(vec):
    # butterfly on a list of 0/1 entries, apart from the packed-int one
    vec = list(vec)
    step = 1
    while step < len(vec):
        for b in range(len(vec)):
            if b & step:
                vec[b] ^= vec[b ^ step]
        step <<= 1
    return vec


def complement_reindex(vec):
    return vec[::-1]  # index a goes to complement(a) = size - 1 - a


def test_m_w_conversion_matches_complement_reindex():
    # W-from-M is a subset sum after reindexing a -> complement(a), and
    # M-from-W the reindex after the subset sum
    rng = random.Random(31)
    for n in range(1, 13):
        for _ in range(3):
            vec = [rng.getrandbits(1) for _ in range(1 << n)]
            f = ring_from_support(n, "M", (a for a, v in enumerate(vec) if v))
            w = convert_ring_basis(f, "W")
            assert w.support() == tuple(
                a for a, v in enumerate(list_subset_sum(complement_reindex(vec))) if v
            )
            g = ring_from_support(n, "W", (a for a, v in enumerate(vec) if v))
            assert convert_ring_basis(g, "M").support() == tuple(
                a for a, v in enumerate(complement_reindex(list_subset_sum(vec))) if v
            )


def test_ring_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        ring_mul(ring_one(2), ring_one(3))


def test_ring_eval_examples():
    assert ring_eval(ring_one(2), 0b11) == 1
    assert ring_eval(ring_monomial("M", 0b11, 2), 0b01) == 0
    # x{1} w{2} at point {1}, n=2: {1} is inside the complement of {2}
    f = ring_mul(ring_monomial("X", 0b01, 2), ring_monomial("W", 0b10, 2))
    assert ring_eval(f, 0b01) == 1
    assert m_bits(f) == m_bits(ring_monomial("M", 0b01, 2))


def test_ring_add_is_xor():
    f = ring_monomial("X", 0b01, 2)
    assert ring_add(f, f).bits == 0
    assert ring_add(f, RingElem(2, "M", 0)) == f


def brute_k_cover(cover_sets, a, k):
    count = 0
    for combo in itertools.product(cover_sets, repeat=k):
        union = 0
        for c in combo:
            union |= c
        if union == a:
            count += 1
    return count & 1


def test_k_cover_examples():
    assert k_cover_parity([0], 0, 3, 2) == 1
    # C = {{1},{1,2}}, a={1,2}, k=2: three covering pairs
    assert k_cover_parity([0b01, 0b11], 0b11, 2, 2) == 1
    assert brute_k_cover([0b01, 0b11], 0b11, 2) == 1
    assert k_cover_parity([0b01], 0b11, 2, 2) == 0
    with pytest.raises(ValueError):
        k_cover_parity([0], 0, 0, 2)


def test_k_cover_matches_brute_force_and_membership():
    rng = random.Random(19)
    for n in (1, 2, 3):
        size = 1 << n
        for _ in range(20):
            family = [c for c in range(size) if rng.getrandbits(1)]
            for k in (1, 2, 3):
                for a in range(size):
                    got = k_cover_parity(family, a, k, n)
                    assert got == brute_k_cover(family, a, k)
                    assert got == (1 if a in family else 0)


def test_text_and_json_round_trip():
    f = ring_from_support(2, "X", [0b01, 0b11])
    assert ring_text(f) == "x{1} + x{1,2}"
    assert ring_text(RingElem(2, "M", 0)) == "0"
    assert ring_text(ring_one(2)) == "1"
    assert ring_text(ring_monomial("M", 0, 2)) == "m{}"
    data = ring_to_json(f)
    assert data == {"n": 2, "basis": "X", "support": [[1], [1, 2]]}
    assert ring_from_json(data) == f
    # a subset listed twice is read once, as a repeated operator term or family member is
    assert ring_from_json({"n": 2, "basis": "M", "support": [[1], [1]]}) == ring_monomial("M", 0b01, 2)


def reference_iter_bits(bits):
    """The per-bit walk that ring.iter_bits replaced, kept as its reference:
    each step isolates and clears the lowest set bit of the whole int."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def test_iter_bits_matches_reference():
    rng = random.Random("iter_bits")
    cases = [0, 255, 256, 65535, 65536, (1 << 65536) - 1, ((1 << 1000) - 1) << 3001]
    for width in (8, 16, 17, 32, 100, 1 << 11, 1 << 16):
        cases.append(rng.getrandbits(width))  # dense
        cases.append(sum(1 << rng.randrange(width) for _ in range(5)))  # sparse
        cases.append(1 << (width - 1))
    for bits in cases:
        assert list(ring.iter_bits(bits)) == list(reference_iter_bits(bits))


def test_negative_masks_are_rejected():
    for call in (ring.iter_bits, ring.indices_from_mask, lambda m: list(ring.submasks(m))):
        with pytest.raises(ValueError, match="negative"):
            call(-1)


def _set_literal(a):
    # spelled bit by bit, apart from the byte tables of mask_str and iter_bits
    return "{%s}" % ",".join(str(i + 1) for i in reference_iter_bits(a))


def test_mask_str_matches_per_bit_spelling_for_every_mask():
    for a in range(1 << ring.MAX_DIM):
        assert ring.mask_str(a) == _set_literal(a)
    for bad in (-1, 1 << ring.MAX_DIM):
        with pytest.raises(ValueError, match="out of range"):
            ring.mask_str(bad)


def test_ring_text_matches_per_term_spelling():
    def old_ring_text(f):
        parts = [
            "1" if a == 0 and f.basis in ("X", "W") else f.basis.lower() + _set_literal(a)
            for a in f.support()
        ]
        return " + ".join(parts) if parts else "0"

    rng = random.Random(64)
    for basis in ring.RING_BASES:
        for n in range(1, 11):
            f = RingElem(n, basis, rng.getrandbits(1 << n))
            assert ring_text(f) == old_ring_text(f)
        for n in (12, 16):
            masks = {0, (1 << n) - 1} | {rng.getrandbits(n) for _ in range(200)}
            f = ring_from_support(n, basis, masks)
            assert ring_text(f) == old_ring_text(f)
    # chunk edges: every element at n = 2 and 3; each one-mask element at n = 9,
    # the constant alone and chunks whose only label is the high part, as x{9};
    # at n = 16 masks in chunks 0, 17 and 255 alone, and every mask
    for basis in ring.RING_BASES:
        elems = [RingElem(n, basis, bits) for n in (2, 3) for bits in range(1 << (1 << n))]
        elems += [RingElem(9, basis, 1 << a) for a in range(1 << 9)]
        for low in ({0, 255}, {1, 128, 254}):
            masks = {c << 8 | b for c in (0, 17, 255) for b in low}
            masks |= {c << 8 | rng.getrandbits(8) for c in (0, 17, 255) for _ in range(40)}
            elems.append(ring_from_support(16, basis, masks))
        elems.append(RingElem(16, basis, (1 << (1 << 16)) - 1))
        for f in elems:
            assert ring_text(f) == old_ring_text(f)


def test_ring_text_parses_back_through_the_language():
    rng = random.Random(93)
    elems = []
    for basis in ring.RING_BASES:
        for n in (1, 2, 3, 8, 9, 13):
            elems += [RingElem(n, basis, rng.getrandbits(1 << n)) for _ in range(5)]
        masks = {0, (1 << 16) - 1} | {rng.getrandbits(16) for _ in range(100)}
        elems.append(ring_from_support(16, basis, masks))
    for f in elems:
        e = lang.parse_text(ring_text(f))
        assert lang.valuation(e, lang.infer_context([e], f.n)) == convert_ring_basis(f, "M")


def test_ring_text_spells_no_term_on_its_own(monkeypatch):
    # one join per 256-mask chunk: no mask_str call, one iter_bits per chunk
    def refuse(mask):
        raise AssertionError(f"ring_text spelled mask {mask} on its own")

    calls = []
    iter_bits = ring.iter_bits
    monkeypatch.setattr(ring, "mask_str", refuse)
    monkeypatch.setattr(ring, "iter_bits", lambda bits: calls.append(1) or iter_bits(bits))
    for basis in ring.RING_BASES:
        calls.clear()
        text = ring_text(RingElem(16, basis, (1 << (1 << 16)) - 1))
        assert text.count(" + ") == (1 << 16) - 1
        assert len(calls) <= 256


def test_dimension_bounds():
    with pytest.raises(ValueError):
        RingElem(0, "M", 0)
    with pytest.raises(ValueError):
        RingElem(17, "M", 0)
    with pytest.raises(ValueError):
        RingElem(2, "Q", 0)
    with pytest.raises(ValueError):
        RingElem(1, "M", 0b100)


def test_every_dimension_check_gives_one_message():
    f1, f2 = RingElem(1, "M", 0), RingElem(2, "M", 0)
    op1, op2 = OpCoeffs(1, "XY", ()), OpCoeffs(2, "XY", ())
    calls = (
        lambda: ring_add(f1, f2),
        lambda: ring_mul(f1, f2),
        lambda: op_add(op1, op2),
        lambda: op_mul(op1, op2),
        lambda: apply_coeffs(op1, f2),
        lambda: fam_add(Family(1, ()), Family(2, ())),
        lambda: circ_act(Family(1, ()), FamilyN(2, ())),
    )
    for call in calls:
        with pytest.raises(ring.DimensionMismatch) as exc:
            call()
        assert str(exc.value) == "dimension mismatch: 1 vs 2"
