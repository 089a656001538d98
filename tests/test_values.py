"""Value semantics of every value class: equality, hash, repr, immutability,
pickling and copying, and the checks run on construction."""

import copy
import importlib.util
import pickle
from pathlib import Path

import pytest

from boolweyl.bweyl import OpCoeffs, Rows
from boolweyl.checks import CheckResult
from boolweyl.gf2lin import Gf2Matrix
from boolweyl.lang import Mono, One, Prod, Sum, TildeVar, Var, VarContext, Zero
from boolweyl.ring import RingElem
from boolweyl.setfam import Family, FamilyN
from boolweyl.value import Value, setters

PARTS = (Var("a"), TildeVar("b"), Mono("x", (1, 2)))

# (value, its fields in declaration order, its repr)
VALUES = [
    (RingElem(2, "X", 5), (2, "X", 5), "RingElem(n=2, basis='X', bits=5)"),
    (Gf2Matrix((1, 2)), ((1, 2),), "Gf2Matrix(rows=(1, 2))"),
    (OpCoeffs(1, "XY", {1: 1}), (1, "XY", Rows({1: 1})), "OpCoeffs(n=1, basis='XY', rows={1: 1})"),
    (VarContext(("a", "b")), (("a", "b"),), "VarContext(names=('a', 'b'))"),
    (Zero(), (), "Zero()"),
    (One(), (), "One()"),
    (Var("a"), ("a",), "Var(name='a')"),
    (TildeVar("a"), ("a",), "TildeVar(name='a')"),
    (Mono("x", (1, 2)), ("x", (1, 2)), "Mono(kind='x', indices=(1, 2))"),
    (
        Sum(PARTS),
        (PARTS,),
        "Sum(parts=(Var(name='a'), TildeVar(name='b'), Mono(kind='x', indices=(1, 2))))",
    ),
    (
        Prod((Var("a"), One())),
        ((Var("a"), One()),),
        "Prod(parts=(Var(name='a'), One()))",
    ),
    (Family(2, {(1, 2)}), (2, frozenset({(1, 2)})), "Family(n=2, members=frozenset({(1, 2)}))"),
    (FamilyN(2, {3}), (2, frozenset({3})), "FamilyN(n=2, members=frozenset({3}))"),
]
FROZEN = [value for value, _, _ in VALUES]
ALL = FROZEN + [CheckResult("held", False, "x=1", skipped=True)]


class Pair(Value):
    """A value class that declares only its slots and stores them with setters."""

    __slots__ = ("left", "right")

    def __init__(self, left, right) -> None:
        _set_left(self, left)
        _set_right(self, right)


_set_left, _set_right = setters(Pair)


def test_distinct_classes_with_equal_fields_are_unequal():
    assert Var("a") != TildeVar("a")
    assert Sum(PARTS) != Prod(PARTS)
    assert Zero() != One()
    assert Family(1, set()) != FamilyN(1, set())
    assert Var("a") != ("a",)
    assert Var("a") == Var("a") and not Var("a") != Var("a")
    assert Var("a") != Var("b")


@pytest.mark.parametrize("value, fields, text", VALUES, ids=lambda v: type(v).__name__)
def test_hash_is_the_hash_of_the_field_tuple(value, fields, text):
    assert hash(value) == hash(fields)


@pytest.mark.parametrize("value, fields, text", VALUES, ids=lambda v: type(v).__name__)
def test_repr_names_every_field(value, fields, text):
    assert repr(value) == text


def test_check_result_repr():
    assert repr(CheckResult("held", True)) == "CheckResult(name='held', ok=True, detail='', skipped=False)"


@pytest.mark.parametrize("value", FROZEN, ids=lambda v: type(v).__name__)
def test_fields_cannot_be_assigned_or_deleted(value):
    for name in ("n", "_extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)


@pytest.mark.parametrize("value", ALL, ids=lambda v: type(v).__name__)
def test_pickle_and_copy_give_back_an_equal_value(value):
    for other in (
        pickle.loads(pickle.dumps(value)),
        pickle.loads(pickle.dumps(value, protocol=0)),
        copy.copy(value),
        copy.deepcopy(value),
    ):
        assert type(other) is type(value)
        assert other == value


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: RingElem(0, "Q", -1), "dimension must be in [1, 16], got 0"),
        (lambda: RingElem(1, "Q", -1), "unknown ring basis 'Q'"),
        (lambda: RingElem(1, "M", 16), "coefficient vector out of range"),
        (lambda: RingElem(1, "M", -1), "coefficient vector out of range"),
        (lambda: RingElem(2, "X", 0.5), "coefficient vector out of range"),
        (lambda: Gf2Matrix(()), "side must be a power of two, got 0"),
        (lambda: Gf2Matrix((0, 0, 0)), "side must be a power of two, got 3"),
        (lambda: Gf2Matrix((1, 4)), "row out of range for matrix side"),
        (lambda: Gf2Matrix((1, -1)), "row out of range for matrix side"),
        (lambda: OpCoeffs(17, "QQ", {(9, 9)}), "dimension must be in [1, 16], got 17"),
        (lambda: OpCoeffs(1, "QQ", {(9, 9)}), "unknown operator basis 'QQ'"),
        (lambda: OpCoeffs(1, "XY", {(2, 0)}), "mask 2 out of range for n=1"),
        (lambda: OpCoeffs(1, "XY", {(0, -1)}), "mask -1 out of range for n=1"),
        (lambda: OpCoeffs(2, "XY", [(0.5, 1)]), "mask 0.5 out of range for n=2"),
        (lambda: OpCoeffs(2, "XY", {1: 0.5}), "row 1 out of range for n=2"),
        (lambda: OpCoeffs(2, "XY", {0.5: 1}), "mask 0.5 out of range for n=2"),
        (lambda: OpCoeffs(2, "XY", {4: 1}), "mask 4 out of range for n=2"),
        (lambda: OpCoeffs(1, "XY", {0: 0b100}), "row 0 out of range for n=1"),
        (lambda: OpCoeffs(1, "XY", {0: -1}), "row 0 out of range for n=1"),
        (lambda: VarContext(("a", "a")), "variable names must be distinct"),
        (lambda: VarContext(()), "dimension must be in [1, 16], got 0"),
        (lambda: Family(0, {(9, 9)}), "dimension must be in [1, 16], got 0"),
        (lambda: Family(1, {(0, 2)}), "mask 2 out of range for n=1"),
        (lambda: FamilyN(1, {0, 2}), "mask 2 out of range for n=1"),
    ],
)
def test_validation_messages(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_a_frozenset_argument_is_kept_as_is():
    members, plain = frozenset({(1, 0)}), frozenset({1})
    assert Family(1, members).members is members
    assert FamilyN(1, plain).members is plain


def test_operator_rows_are_read_from_a_mapping_and_cannot_change():
    # a mapping is rows {right: packed left}, zero rows dropped; anything else
    # is (left, right) pairs, a repeated pair counted once
    rows = {2: 0b10, 1: 0}
    f = OpCoeffs(2, "XY", rows)
    rows[3] = 1
    assert f == OpCoeffs(2, "XY", [(1, 2), (1, 2)]) == OpCoeffs(2, "XY", {(1, 2)})
    assert f.rows == {2: 0b10} and f.terms == {(1, 2)}
    for change in (
        lambda: f.rows.__setitem__(0, 1),
        lambda: f.rows.pop(2),
        lambda: f.rows.update({0: 1}),
        lambda: f.rows.clear(),
    ):
        with pytest.raises(TypeError, match="operator rows cannot change"):
            change()
    assert f.rows == {2: 0b10}


def test_sequence_fields_are_stored_as_tuples():
    rows = [1, 2]
    m = Gf2Matrix(rows)
    rows[0] = 2
    assert m.rows == (1, 2)
    assert hash(m) == hash(((1, 2),))
    names = ["a", "b"]
    ctx = VarContext(names)
    names.append("c")
    assert ctx.names == ("a", "b") and ctx.n == 2
    assert hash(ctx) == hash((("a", "b"),))


def test_check_results_are_frozen_values():
    result = CheckResult("held", True)
    assert hash(result) == hash(("held", True, "", False))
    with pytest.raises(AttributeError):
        result.ok = False
    assert result.status == "PASS"


def test_a_value_class_keeps_its_own_eq_and_hash():
    class Node(Value):
        __slots__ = ()

        def __eq__(self, other: object) -> bool:
            return self is other

        def __hash__(self) -> int:
            return id(self)

    a, b = Node(), Node()
    assert a == a and a != b
    assert hash(a) == id(a)


def test_a_class_that_declares_only_slots_is_a_full_value():
    pair = Pair("a", (1, 2))
    assert pair == Pair("a", (1, 2)) and pair != Pair("a", (1,))
    assert hash(pair) == hash(("a", (1, 2)))
    assert repr(pair) == "Pair(left='a', right=(1, 2))"
    for other in (pickle.loads(pickle.dumps(pair)), copy.copy(pair), copy.deepcopy(pair)):
        assert type(other) is Pair and other == pair


@pytest.mark.parametrize("value, fields, text", VALUES, ids=lambda v: type(v).__name__)
def test_the_fields_are_the_only_slots(value, fields, text):
    slots = [name for cls in type(value).__mro__ for name in cls.__dict__.get("__slots__", ())]
    assert len(slots) == len(fields)
    assert tuple(getattr(value, name) for name in slots) == fields
    assert not hasattr(value, "__dict__")


def test_the_value_micro_bench_runs_each_operation():
    # tools/bench_values.py is run by hand against another checkout; here it
    # loads this checkout under its own name and runs each operation once
    path = Path(__file__).resolve().parent.parent / "tools" / "bench_values.py"
    spec = importlib.util.spec_from_file_location("bench_values", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    operations = bench.operations(bench.load(bench.HERE, "boolweyl_bench_values_test"))
    assert operations
    for operation in operations.values():
        operation()
