"""Error messages and text forms of the public surface that no other test reaches."""

import pytest

from boolweyl.bweyl import OpCoeffs, convert_op_basis, normal_order, op_monomial
from boolweyl.gf2lin import identity
from boolweyl.lang import EvalError, VarContext, Zero, make_sum, parse_text, valuation
from boolweyl.ring import convert_ring_basis, ring_one
from boolweyl.setfam import Family, FamilyN


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: OpCoeffs(1, "QQ", ()), ValueError, "unknown operator basis 'QQ'"),
        (lambda: convert_op_basis(op_monomial(1, "XY", 0, 1), "QQ"), ValueError, "unknown operator basis 'QQ'"),
        (lambda: convert_ring_basis(ring_one(1), "Q"), ValueError, "unknown ring basis 'Q'"),
        (lambda: normal_order([("x", 3)], 2), ValueError, "generator index 3 out of range for n=2"),
        (
            lambda: valuation(parse_text("x{3}"), VarContext(("a",))),
            EvalError,
            "monomial index 3 out of range for n=1",
        ),
    ],
)
def test_error_messages(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "value, text",
    [
        (make_sum([]), Zero()),
        (str(identity(2)), "10\n01"),
        (str(Family(2, {(1, 2)})), "{{1,~2}}"),
        (str(FamilyN(2, {0, 3})), "{{},{1,2}}"),
    ],
)
def test_empty_sum_and_text_forms(value, text):
    assert value == text
