"""Boolean differential operators on Z_2^n as GF(2) matrices.

The generators, acting on M-basis coefficient vectors:

    derivative_matrix(i, n)      d_i f(x) = f(x + e_i) + f(x)
    shift_matrix(i, n)           s_i f(x) = f(x + e_i)
    multiplication_matrix(f)     g -> f g   (diagonal in the M basis)

rep_matrix gives the closed-form matrix of a single monomial operator in
four spanning families (m^a d^b, x^a d^b, m^a s^b, x^a s^b); the x-left
matrices act on X-basis coordinates.  apply_coeffs evaluates an operator
given by sparse coefficients on a ring element through the closed-form
coordinate sums, without building the matrix.

This module is the oracle the battery and the tests check bweyl
against: its power matrices are literal products of generator
matrices, while bweyl.to_matrix writes its rows from closed forms.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

from .gf2lin import Gf2Matrix, identity, mat_mul
from .ring import (
    RingElem,
    check_dim,
    check_mask,
    convert_ring_basis,
    iter_bits,
    require_same_dim,
    submasks,
)

if TYPE_CHECKING:  # pragma: no cover
    from .bweyl import OpCoeffs


def _check_index(i: int, n: int) -> None:
    check_dim(n)
    if not 1 <= i <= n:
        raise ValueError(f"generator index {i} out of range for n={n}")


def derivative_matrix(i: int, n: int) -> Gf2Matrix:
    """Matrix of the Boolean derivative d_i on M-basis coordinates."""
    _check_index(i, n)
    e = 1 << (i - 1)
    return Gf2Matrix((1 << a) | (1 << (a ^ e)) for a in range(1 << n))


def shift_matrix(i: int, n: int) -> Gf2Matrix:
    """Matrix of the shift s_i: the transposition a <-> a + e_i."""
    _check_index(i, n)
    e = 1 << (i - 1)
    return Gf2Matrix(1 << (a ^ e) for a in range(1 << n))


def multiplication_matrix(f: RingElem) -> Gf2Matrix:
    """Matrix of multiplication by f: diagonal with entries f(a)."""
    bits = convert_ring_basis(f, "M").bits
    return Gf2Matrix(((bits >> a) & 1) << a for a in range(1 << f.n))


def _generator_power(generator, b: int, n: int) -> Gf2Matrix:
    check_dim(n)
    check_mask(b, n)
    m = identity(1 << n)
    for i in iter_bits(b):
        m = mat_mul(m, generator(i + 1, n))
    return m


# The power matrices keep their caches only because the span tracer in
# perfbench/tracing.py reports their cache_info() as hit ratios.
@lru_cache(maxsize=None)
def derivative_power_matrix(b: int, n: int) -> Gf2Matrix:
    """Product of d_i over i in b, on M-basis coordinates."""
    return _generator_power(derivative_matrix, b, n)


@lru_cache(maxsize=None)
def shift_power_matrix(b: int, n: int) -> Gf2Matrix:
    """Product of s_i over i in b: the translation a -> a + b."""
    return _generator_power(shift_matrix, b, n)


def rep_matrix(left: str, right: str, a: int, b: int, n: int) -> Gf2Matrix:
    """Closed-form matrix of one monomial operator.

    left "M", right "Y":  entry (c, d) = 1 iff c == a and d + a is a subset of b
    left "X", right "Y":  entry (c, d) = 1 iff b subset of d and c == a | (d - b)
    left "M", right "S":  entry (c, d) = 1 iff c == a and d == a + b
    left "X", right "S":  entry (c, d) = parity of {e subset of b & d : c == a | (d - e)}

    M-left matrices act on M-basis coordinates, X-left ones on X-basis
    coordinates.
    """
    check_dim(n)
    check_mask(a, n)
    check_mask(b, n)
    size = 1 << n
    rows = [0] * size
    if left == "M" and right == "Y":
        for d in range(size):
            if (d ^ a) & ~b == 0:
                rows[a] ^= 1 << d
    elif left == "X" and right == "Y":
        for d in range(size):
            if b & ~d == 0:
                rows[a | (d & ~b)] ^= 1 << d
    elif left == "M" and right == "S":
        rows[a] = 1 << (a ^ b)
    elif left == "X" and right == "S":
        for d in range(size):
            for e in submasks(b & d):
                rows[a | (d & ~e)] ^= 1 << d
    else:
        raise ValueError(f"no representation for left={left!r}, right={right!r}")
    return Gf2Matrix(rows)


def apply_coeffs(op: "OpCoeffs", f: RingElem) -> RingElem:
    """Apply an operator in sparse coefficient form to a ring element.

    The coordinate formulas, per operator basis (out and in coefficients
    are in the ring basis matching the operator's left index):

        MY   out(a) = XOR over terms (a, b), e subset of b, of in(a + e)
        XY   out(a | (c - b))  toggled for terms (a, b), c in supp, b subset of c
        MS   out(a) = XOR over terms (a, b) of in(a + b)
        XS   out(a | (c - e))  toggled for terms (a, b), c in supp, e subset of b & c

    W-left coefficients have no direct formula here: convert them first.
    """
    require_same_dim(op, f)
    if op.basis not in ("MY", "XY", "MS", "XS"):
        raise ValueError(
            f"no coordinate formula for basis {op.basis!r}; convert to an M- or X-left basis first"
        )
    ring_basis = "M" if op.basis[0] == "M" else "X"
    fin = convert_ring_basis(f, ring_basis).bits
    out = 0
    if op.basis == "MY":
        for a, b in op.terms:
            acc = 0
            for e in submasks(b):
                acc ^= (fin >> (a ^ e)) & 1
            out ^= acc << a
    elif op.basis == "MS":
        for a, b in op.terms:
            out ^= ((fin >> (a ^ b)) & 1) << a
    elif op.basis == "XY":
        for a, b in op.terms:
            for c in iter_bits(fin):
                if b & ~c == 0:
                    out ^= 1 << (a | (c & ~b))
    else:  # XS
        for a, b in op.terms:
            for c in iter_bits(fin):
                for e in submasks(b & c):
                    out ^= 1 << (a | (c & ~e))
    return RingElem(f.n, ring_basis, out)
