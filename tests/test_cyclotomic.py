import math

import pytest

from cyclosum.audit import _min_extension_degree_raw
from cyclosum.cyclotomic import (
    cyclotomic_cosets,
    factor_xm_minus_1,
    min_extension_degree,
    phi_m_irreducible_mod_p,
    strip_p_part,
)
from cyclosum.errors import NotCoprime
from cyclosum.gf import PrimePoly

# displayed factor lists, coefficients from the constant term up
FACTORS_3_11 = {
    (2, 1),                   # X - 1
    (2, 0, 1, 2, 1, 1),       # X^5 + X^4 + 2X^3 + X^2 + 2
    (2, 2, 1, 2, 0, 1),       # X^5 + 2X^3 + X^2 + 2X + 2
}
FACTORS_5_11 = {
    (4, 1),
    (4, 1, 1, 4, 2, 1),       # X^5 + 2X^4 + 4X^3 + X^2 + X + 4
    (4, 3, 1, 4, 4, 1),       # X^5 + 4X^4 + 4X^3 + X^2 + 3X + 4
}
FACTORS_7_19 = {
    (6, 1),
    (6, 2, 0, 1),             # X^3 + 2X + 6
    (6, 1, 4, 1),             # X^3 + 4X^2 + X + 6
    (6, 4, 4, 1),             # X^3 + 4X^2 + 4X + 6
    (6, 0, 5, 1),             # X^3 + 5X^2 + 6
    (6, 3, 3, 1),             # X^3 + 3X^2 + 3X + 6
    (6, 3, 6, 1),             # X^3 + 6X^2 + 3X + 6
}


@pytest.mark.parametrize("p,m,expected", [(3, 18, 2), (5, 4, 4), (2, 73, 73), (7, 49, 1)])
def test_strip_p_part(p, m, expected):
    assert strip_p_part(p, m) == expected


def test_cosets_partition_and_sizes():
    cosets = cyclotomic_cosets(7, 19)
    assert sorted(len(c.members) for c in cosets) == [1, 3, 3, 3, 3, 3, 3]
    assert sorted(x for c in cosets for x in c.members) == list(range(19))
    for c in cosets:
        assert c.rep == min(c.members)
        assert all((x * 7) % 19 in c.members for x in c.members)


def test_cosets_binary_73():
    cosets = cyclotomic_cosets(2, 73)
    assert sorted(len(c.members) for c in cosets) == [1] + [9] * 8


def test_cosets_trivial_modulus():
    assert [c.members for c in cyclotomic_cosets(5, 1)] == [(0,)]


def test_cosets_reject_common_factor():
    with pytest.raises(NotCoprime):
        cyclotomic_cosets(3, 12)


@pytest.mark.parametrize("p,m,expected", [
    (3, 11, FACTORS_3_11),
    (5, 11, FACTORS_5_11),
    (7, 19, FACTORS_7_19),
])
def test_displayed_factorizations(p, m, expected):
    report = factor_xm_minus_1(p, m)
    assert {f.poly.coeffs for f in report.factors} == expected


def test_factor_two_linear_pieces():
    report = factor_xm_minus_1(3, 2)
    assert [f.poly.coeffs for f in report.factors] == [(1, 1), (2, 1)]


@pytest.mark.parametrize("p,m", [(3, 11), (5, 11), (7, 19), (2, 73), (2, 15), (13, 4), (3, 2)])
def test_factor_product_reconstructs(p, m):
    report = factor_xm_minus_1(p, m)
    target = PrimePoly(p, (-1,) + (0,) * (m - 1) + (1,))
    assert report.expand() == target
    for f in report.factors:
        assert f.poly.is_monic
        assert f.degree == f.poly.degree
        assert f.trace_coeff == (-f.poly.coeffs[f.degree - 1]) % p


def test_factor_degrees_follow_cosets():
    report = factor_xm_minus_1(2, 15)
    cosets = cyclotomic_cosets(2, 15)
    assert sorted(f.degree for f in report.factors) == sorted(len(c.members) for c in cosets)


def test_factors_sorted_canonically():
    report = factor_xm_minus_1(7, 19)
    keys = [(f.degree, f.poly.coeffs) for f in report.factors]
    assert keys == sorted(keys)


@pytest.mark.parametrize("p,m,expected", [(2, 73, 9), (7, 19, 3), (5, 3, 2), (3, 11, 5), (2, 21, 2)])
def test_min_extension_degree(p, m, expected):
    assert min_extension_degree(p, m) == expected
    assert _min_extension_degree_raw(p, m) == expected


def test_min_extension_degree_matches_raw_definition_broadly():
    for p in (2, 3, 5, 7, 11):
        for m in range(2, 40):
            if math.gcd(p, m) == 1:
                assert min_extension_degree(p, m) == _min_extension_degree_raw(p, m)


@pytest.mark.parametrize("p,m,expected", [
    (11, 5, False),
    (2, 3, True),
    (2, 73, False),
    (3, 4, True),
    (2, 5, True),
])
def test_phi_m_irreducible(p, m, expected):
    assert phi_m_irreducible_mod_p(p, m) is expected
