import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclosum.errors import (
    DivisionByZero,
    DoesNotDivide,
    NotPrime,
    OverrideNotIrreducible,
    SizeCapExceeded,
)
from cyclosum import gf
from cyclosum.gf import (
    PrimePoly,
    _build_tables,
    build_field,
    is_irreducible,
    lex_least_irreducible,
)
from cyclosum.ntheory import primes_up_to
from cyclosum.weights import field_weight_set

SMALL_FIELDS = [(2, 1), (3, 1), (11, 1), (2, 4), (3, 2), (5, 3), (2, 9), (3, 5), (11, 2)]


@pytest.fixture(scope="module", params=SMALL_FIELDS, ids=lambda pk: f"F_{pk[0]}^{pk[1]}")
def field(request):
    p, k = request.param
    return build_field(p, k)


def test_build_prime_field_picks_least_primitive_root():
    F = build_field(11)
    assert F.gen_encoding == 2
    # brute-force oracle: 2 really is the least primitive root mod 11
    for g in range(2, 11):
        order = 1
        v = g
        while v != 1:
            v = (v * g) % 11
            order += 1
        if order == 10:
            assert g == 2
            break


def test_modulus_override_trinomial_accepted():
    K = build_field(2, 9, (1, 1, 0, 0, 0, 0, 0, 0, 0, 1))
    assert K.q == 512
    alpha = K.from_poly([0, 1])
    assert (alpha**9 + alpha + K.one()).is_zero


def test_build_field_rejects_composite():
    with pytest.raises(NotPrime):
        build_field(4, 1)


def test_build_field_rejects_reducible_override():
    with pytest.raises(OverrideNotIrreducible):
        build_field(2, 2, (1, 0, 1))  # X^2 + 1 = (X + 1)^2 over F_2


def test_size_cap():
    with pytest.raises(SizeCapExceeded):
        build_field(2, 30, size_cap=1 << 22)


def test_lex_least_modulus_is_deterministic():
    assert lex_least_irreducible(3, 1).coeffs == (0, 1)
    f = lex_least_irreducible(2, 9)
    assert is_irreducible(f)
    # nothing lexicographically smaller is irreducible
    assert f.coeffs == (1, 0, 0, 0, 0, 0, 0, 0, 1, 1)


def _monic_products(p, a, b):
    """Coefficients, constant first, of every product of a monic degree-a
    and a monic degree-b polynomial over F_p."""
    out = set()
    for f in itertools.product(range(p), repeat=a):
        for g in itertools.product(range(p), repeat=b):
            prod = [0] * (a + b + 1)
            for i, x in enumerate(f + (1,)):
                for j, y in enumerate(g + (1,)):
                    prod[i + j] = (prod[i + j] + x * y) % p
            out.add(tuple(prod))
    return out


@pytest.mark.parametrize("p,k", [
    (p, k) for p in (2, 3, 5, 7) for k in range(1, 13) if p**k <= 4096
])
def test_lex_least_irreducible_matches_brute_force(p, k):
    reducible = set()
    for a in range(1, k // 2 + 1):
        reducible |= _monic_products(p, a, k - a)
    # product() runs c_0 slowest, the scan's lexicographic order
    least = next(
        c + (1,) for c in itertools.product(range(p), repeat=k)
        if c + (1,) not in reducible
    )
    assert lex_least_irreducible(p, k).coeffs == least


def test_sum_of_two_and_a_square_vanishes_mod_11():
    F = build_field(11)
    one = F.from_poly([1])
    three = F.from_poly([3])
    assert (one + three * three + one).is_zero  # 1 + 9 + 1 = 0 in F_11


def test_add_zero_is_identity(field):
    z = field.zero()
    for i in range(0, field.q, max(1, field.q // 23)):
        x = field.element(i)
        assert x + z == x


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_field_axioms(data):
    p, k = data.draw(st.sampled_from(SMALL_FIELDS))
    F = build_field(p, k)
    idx = st.integers(min_value=0, max_value=F.q - 1)
    a, b, c = (F.element(data.draw(idx)) for _ in range(3))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == F.zero()
    if not a.is_zero:
        assert a * a.inverse() == F.one()


def test_division_by_zero(field):
    with pytest.raises(DivisionByZero):
        field.zero().inverse()


def test_zech_consistency_exhaustive(field):
    # adding one through the polynomial representation agrees with the table
    one = PrimePoly(field.p, (1,))
    for i in range(field.order):
        via_table = field.add_index(i, 0)
        via_poly = field.index_of_poly(field.poly_of_index(i) + one)
        assert via_table == via_poly


def test_trace_is_linear_and_surjective(field):
    p, q = field.p, field.q
    traces = np.array([field.trace_index(i) for i in range(q)], dtype=np.int64)
    assert set(traces.tolist()) == set(range(p))
    # additivity, exhaustive over all q^2 pairs
    for j in range(q):
        summed = [field.add_index(i, j) for i in range(q)]
        assert np.array_equal(traces[summed], (traces + traces[j]) % p)
    # F_p-linearity under scalar multiplication
    for c in range(p):
        scalar = field.index_of_poly((c,))
        for i in range(q):
            scaled = field.mul_index(i, scalar)
            assert traces[scaled] == (c * traces[i]) % p


def test_trace_of_one_is_degree(field):
    assert field.trace_index(0) == field.k % field.p
    assert field.one().trace() == field.k % field.p
    assert field.zero().trace() == 0


def test_roots_of_unity_exhaustive(field):
    q1 = field.order
    for m in [d for d in range(1, q1 + 1) if q1 % d == 0]:
        roots = field.roots_of_unity(m)
        assert len(roots) == m and roots.dtype == np.int64
        expected = {
            i for i in range(field.q)
            if i != field.zero_index and field.pow_index(i, m) == 0
        }
        assert set(roots.tolist()) == expected


def test_roots_of_unity_are_the_fields_one_array():
    F = build_field(3, 4)
    roots = F.roots_of_unity(16)
    assert roots is F.roots_of_unity(16)
    assert not roots.flags.writeable
    assert field_weight_set(F, 16).layers.exponents is roots


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_multiset_sum_matches_repeated_addition(data):
    p, k = data.draw(st.sampled_from(SMALL_FIELDS))
    F = build_field(p, k)
    counts = data.draw(st.dictionaries(
        st.integers(min_value=0, max_value=F.q - 1),
        st.integers(min_value=0, max_value=3 * p),
        max_size=6,
    ))
    naive = F.zero()
    for i, c in counts.items():
        for _ in range(c):
            naive = naive + F.element(i)
    assert F.multiset_sum(counts) == naive.index


@pytest.mark.parametrize("constant", [0, 1], ids=["X", "X+1"])
def test_prime_field_powers_match_scalar_rule(constant):
    for p in primes_up_to(2999):
        gen_encoding, exp, _, _ = _build_tables(p, 1, (constant % p, 1))
        expected = [1]
        for _ in range(p - 2):
            expected.append(expected[-1] * gen_encoding % p)
        assert exp.tolist() == expected, p


@pytest.mark.parametrize("fake", [(2,), (0,)], ids=["order-3", "zero"])
def test_power_table_rejects_a_non_generator(monkeypatch, fake):
    # mod 7, the powers of 2 repeat after three steps and those of 0 are 0
    monkeypatch.setattr(gf, "_find_generator", lambda p, k, modulus: fake)
    with pytest.raises(AssertionError, match="not a bijection"):
        _build_tables(7, 1, (0, 1))


def test_roots_of_unity_requires_divisor():
    F = build_field(11)
    with pytest.raises(DoesNotDivide):
        F.roots_of_unity(3)


def test_fifth_roots_mod_11():
    F = build_field(11)
    values = {F.encoding_of_index(int(e)) for e in F.roots_of_unity(5)}
    assert values == {1, 3, 9, 5, 4}


def test_third_roots_mod_31():
    F = build_field(31)
    values = {F.encoding_of_index(int(e)) for e in F.roots_of_unity(3)}
    assert values == {1, 5, 25}


def test_trivial_roots(field):
    assert field.roots_of_unity(1).tolist() == [0]


def test_json_roundtrip_description(field):
    desc = field.json_dict()
    rebuilt = build_field(desc["p"], desc["k"], tuple(desc["modulus_coeffs"]))
    assert rebuilt == field
    assert rebuilt.gen_encoding == field.gen_encoding


def test_poly_display():
    f = PrimePoly(7, (6, 0, 5, 1))
    assert str(f) == "X^3 + 5X^2 + 6"
    assert str(PrimePoly(3, ())) == "0"
