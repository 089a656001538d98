"""The invariant battery: its arguments, its draws, and the faults it catches."""

import hashlib
import random

import pytest

from boolweyl import bweyl, checks, gf2lin, lang, ring
from boolweyl.cli import main


@pytest.mark.parametrize(
    "n, samples, message",
    [
        (17, 25, r"dimension must be in \[1, 16\], got 17"),
        (0, 25, r"dimension must be in \[1, 16\], got 0"),
        (3, 0, "samples must be at least 1, got 0"),
    ],
)
def test_battery_refuses_bad_arguments_before_any_check(monkeypatch, n, samples, message):
    def first_check(*args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(checks, "check_transform_involutions", first_check)
    with pytest.raises(ValueError, match=message):
        checks.run_battery(n, samples=samples)


def test_battery_draws_what_it_drew(monkeypatch):
    # PASS details such as "25 samples, n=5" hide the draws; the transcript and
    # the RNG's next 64 bits after each battery pin them.  A change that means
    # to draw differently updates the digest with it.
    made = []

    class Recording(random.Random):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(checks.random, "Random", Recording)
    digest = hashlib.sha256()
    for seed in (0, 1):
        for n in range(1, 6):
            for r in checks.run_battery(n=n, seed=seed):
                digest.update(f"{r.status} {r.name} ({r.detail})\n".encode())
            [rng] = made
            made.clear()
            digest.update(rng.getrandbits(64).to_bytes(8, "little"))
    assert digest.hexdigest() == "20e305dc80f4359763aad0e0075bb1fb3a2eeeb99e0fbdd13cde00fa6919a1de"


def _drop_lowest_term(kernel):
    # a kernel returns rows {right: packed left}; the lowest term is the
    # lowest (left, right) pair
    def mutant(f, g):
        rows = kernel(f, g)
        terms = [(a, b) for b, lefts in rows.items() for a in ring.iter_bits(lefts)]
        if not terms:
            return rows
        a, b = min(terms)
        return {**rows, b: rows[b] ^ 1 << a}

    return mutant


def _superset_sum_rows_without_step_1(rows, n):
    # the superset sum over the right indices with the pass of coordinate 0 left out
    rows = dict(rows)
    for i in range(1, n):
        bit = 1 << i
        for b in [b for b in rows if b & bit]:
            rows[b ^ bit] = rows.get(b ^ bit, 0) ^ rows[b]
    return rows


def _right_sum_without_step_1(orig):
    # the table's sums with the superset sum along right coordinate 1 (the
    # Y <-> S change) undone: each butterfly pass is an involution, and the
    # passes commute
    def mutant(t, n, passes):
        t = orig(t, n, passes)
        if (True, True) in passes:
            step, clear = next(iter(gf2lin._table_coords(n, n)))
            t ^= (t >> step) & clear
        return t

    return mutant


def _flip_off_by_one_coordinate(orig):
    # to_matrix's flip of left coordinate i keyed on right coordinate i + 1 (mod n)
    def mutant(n):
        left, right = list(gf2lin._table_coords(n, 0)), list(gf2lin._table_coords(n, n))
        flips = [(step, clear ^ (clear & right[(i + 1) % n][1])) for i, (step, clear) in enumerate(left)]
        return list(orig(n))[:n] + flips

    return mutant


def _derive_without_the_derivative_branch(g, i, tables):
    # d_i (t d^c) taken as (s_i t) d_i d^c: the term (d_i t) d^c is dropped
    return {c | 1 << i: tables.move(t, i)[0] for c, t in g.items() if not c >> i & 1}


KERNEL_MUTANTS = {
    "_derive": (lambda orig: _derive_without_the_derivative_branch, {"rewrite-soundness", "normalize"}),
    "_mul_xy": (
        lambda orig: lambda f, g: (lambda rows: {**rows, 0: rows.get(0, 0) ^ 1})(orig(f, g)),
        {
            "product-homomorphism",
            "product-unit-associativity",
            "monomial-product-forms",
            "family-coherence",
        },
    ),
    "_mul_ms": (
        _drop_lowest_term,
        {
            "product-homomorphism",
            "product-unit-associativity",
            "monomial-product-forms",
            "family-coherence",
        },
    ),
    # to_matrix is made on the operator's table and no longer reaches _below:
    # its rep-matrices, coordinate-application and basis-roundtrips lines
    # went with to_matrix to the gf2lin._table_sums and gf2lin._table_swaps entries
    "_below": (
        lambda orig: lambda s: orig(s) & ~(1 << s),
        {
            "product-homomorphism",
            "product-unit-associativity",
            "monomial-product-forms",
            "family-coherence",
            "entailment",
        },
    ),
    "_superset_sum_rows": (lambda orig: _superset_sum_rows_without_step_1, {"basis-roundtrips"}),
    "gf2lin._table_sums": (
        _right_sum_without_step_1,
        {
            "rep-matrices",
            "coordinate-application",
            "product-homomorphism",
            "basis-roundtrips",
            "normalize",
            "entailment",
        },
    ),
    # every matrix takes the same faulty last step, so basis-roundtrips,
    # which compares two matrices of one operator, cannot see this one
    "gf2lin._table_swaps": (
        _flip_off_by_one_coordinate,
        {"rep-matrices", "coordinate-application", "product-homomorphism", "normalize", "entailment"},
    ),
}


@pytest.mark.parametrize("kernel", sorted(KERNEL_MUTANTS))
def test_battery_fails_on_a_broken_kernel(monkeypatch, kernel):
    mutate, want = KERNEL_MUTANTS[kernel]
    module, name = (gf2lin, kernel[7:]) if kernel.startswith("gf2lin.") else (bweyl, kernel)
    monkeypatch.setattr(module, name, mutate(getattr(module, name)))
    failed = {r.name: r.detail for r in checks.run_battery(n=2, samples=25, seed=0) if r.status == "FAIL"}
    assert want <= failed.keys()
    assert all(failed[name] for name in want)


def test_crosscheck_exits_1_on_a_broken_kernel(monkeypatch, capsys):
    mutate, _ = KERNEL_MUTANTS["_mul_xy"]
    monkeypatch.setattr(bweyl, "_mul_xy", mutate(bweyl._mul_xy))
    assert main(["crosscheck", "--n", "2"]) == 1
    assert "FAIL n=2 product-homomorphism" in capsys.readouterr().out


def s_literal_mismatches():
    """The (n, B), n <= 4, at which the walk's closed form of s{B}, the sum
    of y^b over the b inside B, differs from the XS monomial s^B that
    convert_op_basis writes in XY."""
    bad = []
    for n in range(1, 5):
        for mask in range(1 << n):
            e = lang.Mono("s", ring.indices_from_mask(mask))
            want = bweyl.convert_op_basis(bweyl.op_monomial(n, "XS", 0, mask), "XY")
            if lang.eval_quantum(e, lang.infer_context([e], n)) != want:
                bad.append((n, mask))
    return bad


def test_shift_literals_are_the_xs_monomials():
    assert s_literal_mismatches() == []


def test_shift_literals_catch_the_superset_sum_mutant(monkeypatch):
    # the battery sees this mutant only in basis-roundtrips; the walk's s{B}
    # shares no code with convert_op_basis, so it sees it too
    monkeypatch.setattr(bweyl, "_superset_sum_rows", _superset_sum_rows_without_step_1)
    assert len(s_literal_mismatches()) >= 10
