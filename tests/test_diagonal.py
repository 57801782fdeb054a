import itertools

import pytest

from cyclosum.diagonal import (
    GoodSolution,
    NoSolution,
    _verify_solution,
    diagonal_instance,
    reduce_exponent,
    solve_good,
    witt_quadratic_check,
)
from cyclosum.errors import InternalMismatch, NotPrime, PreconditionViolated
from cyclosum.gf import build_field
from cyclosum.weights import certificate_counts, field_weight_set


@pytest.mark.parametrize("q,e,expected", [
    (11, 2, (2, 5)),
    (9, 1, (1, 8)),
    (512, 56, (7, 73)),
    (31, 30, (30, 1)),
])
def test_reduce_exponent(q, e, expected):
    assert reduce_exponent(q, e) == expected


def _assert_good(inst, result):
    assert isinstance(result, GoodSolution)
    assert len(result.values) == inst.n
    assert sum(k for _, k in result.counts) == inst.n
    assert result.exponents == tuple(v.index for v in result.values)
    assert result.exponents == tuple(x for x, k in result.counts for _ in range(k))
    # one element per distinct coordinate, repeated
    assert len({id(v) for v in result.values}) == len(result.counts)
    total = inst.table.zero()
    for v in result.values:
        assert not v.is_zero
        total = total + v**inst.e
    assert total.is_zero


def test_three_squares_mod_11():
    inst = diagonal_instance(11, 2, 3)
    result = solve_good(inst)
    _assert_good(inst, result)
    encodings = sorted(inst.table.encoding_of_index(v.index) for v in result.values)
    assert encodings == [1, 1, 8]  # squares 1, 1, 9 sum to zero


def test_full_power_map_needs_multiples_of_p():
    inst = diagonal_instance(7, 6, 7)
    result = solve_good(inst)
    _assert_good(inst, result)
    assert all(v == inst.table.one() for v in result.values)
    assert isinstance(solve_good(diagonal_instance(7, 6, 8)), NoSolution)


def test_three_squares_mod_5_impossible():
    result = solve_good(diagonal_instance(5, 2, 3))
    assert isinstance(result, NoSolution)
    assert not result.weight_set.contains(3)
    # exhaustive cross-check
    nonzero = range(1, 5)
    assert not any(
        (a * a + b * b + c * c) % 5 == 0
        for a, b, c in itertools.product(nonzero, repeat=3)
    )


def test_three_fourth_powers_in_nine_elements():
    inst = diagonal_instance(9, 4, 3)
    _assert_good(inst, solve_good(inst))


def test_unreduced_exponent_is_accepted():
    inst = diagonal_instance(512, 56, 3)
    assert (inst.d, inst.m) == (7, 73)
    _assert_good(inst, solve_good(inst))


def test_instance_on_override_modulus():
    inst = diagonal_instance(512, 7, 8, modulus=(1, 1, 0, 0, 0, 0, 0, 0, 0, 1))
    assert inst.table.modulus.coeffs == (1, 1, 0, 0, 0, 0, 0, 0, 0, 1)
    _assert_good(inst, solve_good(inst))


@pytest.mark.parametrize("q", [7, 8, 9, 11, 13])
def test_solutions_vanish_for_every_degree(q):
    # e = d*t with t != 1 mod m must still give sum x_i**e = 0, not only
    # sum x_i**d = 0; q = 7, e = 5, n = 3 once returned 1, 1, 5
    solved = 0
    for e in range(1, q):
        for n in range(1, 9):
            inst = diagonal_instance(q, e, n)
            result = solve_good(inst)
            if isinstance(result, GoodSolution):
                _assert_good(inst, result)
                solved += 1
    assert solved > 0


def test_verifier_rejects_bad_counts():
    inst = diagonal_instance(11, 2, 3)
    good = solve_good(inst).counts
    _verify_solution(inst, good)
    bad = [
        ((0, 3),),                        # 1 + 1 + 1 is not zero
        ((0, 2),),                        # two coordinates, not three
        ((inst.table.zero_index, 3),),    # zero coordinates
    ]
    for counts in bad:
        with pytest.raises(InternalMismatch):
            _verify_solution(inst, counts)


def test_far_tail_certificate_is_counted_not_listed():
    ws = field_weight_set(build_field(7), 3)
    n = 10**7
    counts = certificate_counts(ws, n)
    assert sum(counts.values()) == n
    assert counts[0] >= n - ws.layers.saturation
    assert len(counts) <= ws.layers.saturation + 1


def test_rejects_non_prime_power():
    with pytest.raises(NotPrime):
        diagonal_instance(12, 2, 3)


def test_no_solution_matches_exhaustive_search():
    # q**n small enough to enumerate every all-nonzero tuple
    cases = [(5, 2, n) for n in range(1, 7)] + [(7, 3, n) for n in range(1, 5)]
    for q, e, n in cases:
        inst = diagonal_instance(q, e, n)
        result = solve_good(inst)
        F = inst.table
        nonzero = [F.element(i) for i in range(F.order)]
        brute = any(
            sum((x**inst.d for x in combo), start=F.zero()).is_zero
            for combo in itertools.product(nonzero, repeat=n)
        )
        assert isinstance(result, GoodSolution) == brute, (q, e, n)


def test_witt_always_solves_three_or_more_squares():
    for q in (7, 9, 11, 13, 25, 27):
        result = witt_quadratic_check(q, 3)
        assert isinstance(result, GoodSolution)
        result = witt_quadratic_check(q, 4)
        assert isinstance(result, GoodSolution)


def test_witt_two_squares_depends_on_minus_one():
    assert isinstance(witt_quadratic_check(13, 2), GoodSolution)  # 13 = 1 mod 4
    assert isinstance(witt_quadratic_check(7, 2), NoSolution)     # 7 = 3 mod 4


def test_witt_preconditions():
    with pytest.raises(PreconditionViolated):
        witt_quadratic_check(5, 3)
    with pytest.raises(PreconditionViolated):
        witt_quadratic_check(8, 3)


def test_constructive_window_on_a_whole_field():
    table = build_field(2, 9)
    for d in (1, 7, 73):
        m = 511 // d
        for n in range(d + 1, d + 6):
            from cyclosum.diagonal import DiagonalInstance

            inst = DiagonalInstance(table=table, e=d, d=d, m=m, n=n)
            _assert_good(inst, solve_good(inst))
