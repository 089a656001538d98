"""Differential operators: generators, representations, coordinate application."""

import random

import pytest

from boolweyl import checks
from boolweyl.bweyl import convert_op_basis, op_monomial, to_matrix
from boolweyl.diffops import (
    apply_coeffs,
    derivative_matrix,
    derivative_power_matrix,
    multiplication_matrix,
    rep_matrix,
    shift_matrix,
    shift_power_matrix,
)
from boolweyl.gf2lin import Gf2Matrix, identity, mat_add, mat_apply, mat_mul, zero_matrix
from boolweyl.ring import RingElem, convert_ring_basis, ring_monomial, ring_one, submasks


def matrix_from_action(action, n):
    """Matrix of a truth-table map built column by column from indicators."""
    size = 1 << n
    rows = [0] * size
    for d in range(size):
        image = action(1 << d)
        for c in range(size):
            if (image >> c) & 1:
                rows[c] |= 1 << d
    return Gf2Matrix(tuple(rows))


def finite_difference(i, n):
    e = 1 << (i - 1)
    size = 1 << n

    def act(v):
        out = 0
        for p in range(size):
            out |= (((v >> (p ^ e)) ^ (v >> p)) & 1) << p
        return out

    return act


def translation(i, n):
    e = 1 << (i - 1)
    size = 1 << n

    def act(v):
        out = 0
        for p in range(size):
            out |= ((v >> (p ^ e)) & 1) << p
        return out

    return act


@pytest.mark.parametrize("n", [1, 2, 3])
def test_generator_matrices_match_definitions(n):
    for i in range(1, n + 1):
        assert derivative_matrix(i, n) == matrix_from_action(finite_difference(i, n), n)
        assert shift_matrix(i, n) == matrix_from_action(translation(i, n), n)


def test_derivative_matrix_n1():
    assert derivative_matrix(1, 1).rows == (0b11, 0b11)
    assert shift_matrix(1, 1).rows == (0b10, 0b01)


def test_index_validation():
    with pytest.raises(ValueError):
        derivative_matrix(0, 2)
    with pytest.raises(ValueError):
        shift_matrix(3, 2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_defining_identities(n):
    size = 1 << n
    eye = identity(size)
    zero = zero_matrix(size)
    for i in range(1, n + 1):
        x = multiplication_matrix(ring_monomial("X", 1 << (i - 1), n))
        d = derivative_matrix(i, n)
        s = shift_matrix(i, n)
        assert mat_mul(x, x) == x
        assert mat_mul(d, d) == zero
        assert mat_mul(s, s) == eye
        assert d == mat_add(s, eye)
        assert mat_mul(d, s) == d and mat_mul(s, d) == d
        assert s == mat_add(d, eye)
        assert mat_mul(s, x) == mat_add(mat_mul(x, s), s) == mat_mul(mat_add(x, eye), s)
        assert mat_mul(d, x) == mat_add(mat_mul(x, d), s)
        assert mat_mul(d, x) == mat_add(mat_add(mat_mul(x, d), d), eye)


def test_multiplication_matrix():
    assert multiplication_matrix(ring_one(2)) == identity(4)
    assert multiplication_matrix(ring_monomial("X", 1, 1)).rows == (0, 0b10)
    f = RingElem(2, "M", 0b1010)
    m = multiplication_matrix(f)
    assert mat_mul(m, m) == m


def test_derivative_constant_is_zero():
    n = 2
    one_bits = convert_ring_basis(ring_one(n), "M").bits
    for i in (1, 2):
        assert mat_apply(derivative_matrix(i, n), one_bits) == 0


def test_derivative_on_point_indicator():
    # image of the indicator of {1} at n=1 has coefficients (1, 1)
    assert mat_apply(derivative_matrix(1, 1), 0b10) == 0b11


def test_rep_matrix_rules():
    # M,S: single entry per index pair, at (a, a + b)
    for n in (1, 2, 3):
        size = 1 << n
        for a in range(size):
            for b in range(size):
                m = rep_matrix("M", "S", a, b, n)
                assert m.rows[a] == 1 << (a ^ b)
                assert all(m.rows[c] == 0 for c in range(size) if c != a)
    # M,Y with both indices empty: projector onto the empty set
    assert rep_matrix("M", "Y", 0, 0, 1) == multiplication_matrix(ring_monomial("M", 0, 1))
    # n=1: row {1} of rep(M,Y,{1},{1}) is (1,1), row {} is zero
    m = rep_matrix("M", "Y", 1, 1, 1)
    assert m.rows == (0, 0b11)
    with pytest.raises(ValueError):
        rep_matrix("W", "Y", 0, 0, 1)


def x_change(n):
    size = 1 << n
    rows = []
    for b in range(size):
        row = 0
        for a in submasks(b):
            row |= 1 << a
        rows.append(row)
    return Gf2Matrix(tuple(rows))


@pytest.mark.parametrize("n", [1, 2])
def test_rep_matrix_matches_generator_products(n):
    z = x_change(n)
    size = 1 << n
    for a in range(size):
        for b in range(size):
            for left, right, basis in (
                ("M", "Y", "MY"),
                ("M", "S", "MS"),
                ("X", "Y", "XY"),
                ("X", "S", "XS"),
            ):
                env = to_matrix(op_monomial(n, basis, a, b))
                if left == "X":
                    env = mat_mul(z, mat_mul(env, z))
                assert rep_matrix(left, right, a, b, n) == env


@pytest.mark.parametrize("n", [1, 2, 3])
def test_derivative_power_closed_forms(n):
    size = 1 << n
    for b in range(size):
        db = derivative_power_matrix(b, n)
        for a in range(size):
            got = mat_apply(db, convert_ring_basis(ring_monomial("X", a, n), "M").bits)
            want = (
                convert_ring_basis(ring_monomial("X", a & ~b, n), "M").bits
                if b & ~a == 0
                else 0
            )
            assert got == want
            got_w = mat_apply(db, convert_ring_basis(ring_monomial("W", a, n), "M").bits)
            want_w = (
                convert_ring_basis(ring_monomial("W", a & ~b, n), "M").bits
                if b & ~a == 0
                else 0
            )
            assert got_w == want_w
            want_m = 0
            for c in submasks(b):
                want_m ^= 1 << (a ^ c)
            assert mat_apply(db, 1 << a) == want_m
        assert shift_power_matrix(b, n) == Gf2Matrix(tuple(1 << (p ^ b) for p in range(size)))


def test_apply_coeffs_identity_and_ms_example():
    # identity term in XY fixes everything
    rng = random.Random(0)
    for n in (1, 2, 3):
        ident = op_monomial(n, "XY", 0, 0)
        for _ in range(10):
            f = checks.random_ring_elem(rng, n)
            assert convert_ring_basis(apply_coeffs(ident, f), "M").bits == convert_ring_basis(f, "M").bits
    # single m^a s^b term sends the indicator of a+b to the indicator of a
    for n in (1, 2, 3):
        size = 1 << n
        for _ in range(10):
            a, b = rng.randrange(size), rng.randrange(size)
            op = op_monomial(n, "MS", a, b)
            got = apply_coeffs(op, ring_monomial("M", a ^ b, n))
            assert convert_ring_basis(got, "M").bits == 1 << a


@pytest.mark.parametrize("basis", ["MY", "XY", "MS", "XS"])
def test_apply_coeffs_matches_matrix_oracle(basis):
    rng = random.Random(f"apply-coeffs:{basis}")
    for n in (1, 2, 3):
        for _ in range(30):
            op = checks.random_op(rng, n, basis)
            f = checks.random_ring_elem(rng, n)
            got = convert_ring_basis(apply_coeffs(op, f), "M").bits
            want = mat_apply(to_matrix(op), convert_ring_basis(f, "M").bits)
            assert got == want


def test_apply_coeffs_rejects_w_bases():
    op = op_monomial(2, "WY", 1, 1)
    f = ring_one(2)
    with pytest.raises(ValueError):
        apply_coeffs(op, f)
    # converting first is the documented route
    converted = convert_op_basis(op, "XY")
    assert convert_ring_basis(apply_coeffs(converted, f), "M").bits == mat_apply(
        to_matrix(op), convert_ring_basis(f, "M").bits
    )


def test_apply_coeffs_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_coeffs(op_monomial(2, "XY", 0, 0), ring_one(3))
