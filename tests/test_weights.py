from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclosum.errors import EnumerationCapExceeded, NotAMember
from cyclosum.gf import build_field
from cyclosum.weights import (
    Certificate,
    certificate,
    certificate_counts,
    certificate_exponents,
    compute_weight_set,
    field_weight_set,
    membership,
    minimal_vanishing_sums,
    strip_p_part,
)

GOLDEN_SETS = {
    # (p, m): (explicit members below the tail, tail start)
    (11, 5): ((0,), 3),
    (5, 2): ((0, 2), 4),
    (5, 4): ((0,), 2),
    (31, 3): ((0, 3, 6, 7), 9),
    (2, 73): ((0,), 2),
    (5, 3): ((0, 3, 5, 6), 8),
}


def describe(ws):
    explicit = tuple(n for n in ws.members_below if n < ws.tail_start)
    return explicit, ws.tail_start


@pytest.mark.parametrize("pm,expected", sorted(GOLDEN_SETS.items()))
def test_golden_weight_sets(pm, expected):
    ws = compute_weight_set(*pm)
    assert describe(ws) == expected
    assert ws.period == 1
    # the explicit members plus the tail cover members_below entirely
    explicit, tail = expected
    assert ws.members_below == tuple(sorted(set(explicit) | set(range(tail, ws.bound))))


def test_multiples_of_p_when_all_roots_trivial():
    ws = compute_weight_set(7, 1)
    assert ws.period == 7
    assert ws.m_prime == 1
    assert [membership(ws, n) for n in (0, 1, 7, 13, 14, 700)] == [
        True, False, True, False, True, True,
    ]


def test_p_part_is_stripped():
    assert compute_weight_set(5, 15).members_below == compute_weight_set(5, 3).members_below
    assert strip_p_part(5, 15) == 3


def test_memberships_of_eleventh_roots():
    w3 = compute_weight_set(3, 11)
    assert all(membership(w3, n) for n in (5, 6, 8, 9))
    w5 = compute_weight_set(5, 11)
    assert all(membership(w5, n) for n in (5, 7, 9))
    assert membership(compute_weight_set(2, 5), 3) is False
    assert membership(w3, 0) is True


def test_tail_rule_above_bound():
    ws = compute_weight_set(11, 5)
    for n in range(ws.bound, ws.bound + 40):
        assert membership(ws, n)
    assert not membership(ws, -1)


def test_certificate_for_three_fifth_roots_mod_11():
    cert = certificate(11, 5, 3)
    assert cert == Certificate(p=11, m=5, n=3, exponents=(0, 0, 3))
    # exponents (0, 0, 3) are the roots {1, 1, 9}
    F = build_field(11)
    zeta = F.element((F.order // 5))
    values = sorted(F.encoding_of_index((zeta**e).index) for e in cert.exponents)
    assert values == [1, 1, 9]


@pytest.mark.parametrize("p,m", [(3, 11), (7, 19), (11, 5), (2, 73)])
def test_certificate_of_weight_p_is_all_ones(p, m):
    cert = certificate(p, m, p)
    assert cert.exponents == (0,) * p


def test_certificate_in_binary_field():
    cert = certificate(2, 73, 3)
    assert len(cert.exponents) == 3
    K = build_field(2, 9)
    zeta = K.element(K.order // 73)
    total = K.zero()
    for e in cert.exponents:
        total = total + zeta**e
    assert total.is_zero


def test_certificates_reevaluate_to_zero_deep_into_the_tail():
    for p, m in [(5, 3), (3, 11), (2, 5)]:
        ws = compute_weight_set(p, m)
        F = ws.field
        zeta = F.element(F.order // ws.m_prime)
        for n in [ws.tail_start, ws.bound - 1, ws.bound + 2 * p, ws.bound + 2 * p + 1]:
            if not membership(ws, n):
                continue
            cert = certificate(p, m, n)
            assert len(cert.exponents) == n
            total = F.zero()
            for e in cert.exponents:
                total = total + zeta**e
            assert total.is_zero


def test_certificate_rejects_non_members():
    with pytest.raises(NotAMember):
        certificate(2, 5, 3)
    with pytest.raises(NotAMember):
        certificate(7, 1, 8)


def _reference_certificate(ws, n):
    """The plain backtrack: every level tries the m roots in order, down to
    level 1, after weights past the bound drop blocks of p zeros."""
    if ws.m_prime == 1:
        return Counter({0: n})
    engine, table = ws.layers, ws.field
    padding = 0
    if n >= ws.bound:
        padding = ws.p * ((n - ws.bound) // ws.p + 1)
    levels = n - padding
    engine.grow_to(levels)
    top = len(engine.masks) - 1
    exps = [0] * padding
    target = table.zero_index
    for level in range(levels, 0, -1):
        below = min(level - 1, top)
        for e, root in enumerate(engine.exponents):
            rest = table.sub_index(target, int(root))
            if rest == table.zero_index:
                ok = engine.zeros[below]
            else:
                ok = engine.masks[below][rest % engine.d]
            if ok:
                exps.append(e)
                target = rest
                break
        else:
            raise AssertionError(f"no root fits at level {level}")
    return Counter(exps)


# every prime power q <= 2^10 with p <= 13: larger p make the plain
# backtrack quadratic in bounds of several hundred
SMALL_FIELDS = [(2, k) for k in range(1, 11)] + [(3, k) for k in range(1, 7)] + [
    (5, 1), (5, 2), (5, 3), (5, 4), (7, 1), (7, 2), (7, 3), (11, 1), (11, 2), (13, 1), (13, 2),
]


def test_certificates_match_the_plain_backtrack():
    seen = Counter()
    for p, k in SMALL_FIELDS:
        table = build_field(p, k)
        for m in range(1, table.order + 1):
            if table.order % m:
                continue
            ws = field_weight_set(table, m)
            saturation = ws.layers.saturation if ws.layers is not None else None
            for n in range(1, 3 * ws.bound):
                if not ws.contains(n):
                    with pytest.raises(NotAMember):
                        certificate_counts(ws, n)
                    seen["non-member"] += 1
                    continue
                counts = certificate_counts(ws, n)
                assert list(counts) == sorted(counts) and all(counts.values())
                assert Counter(counts) == _reference_certificate(ws, n), (p, k, m, n)
                assert Counter(certificate_exponents(ws, n)) == Counter(counts)
                if saturation is not None and n > saturation:
                    seen["peeled"] += 1
                if ws.layers is not None and saturation is None and n >= ws.bound:
                    seen["padded"] += 1
    # n = 1 is never a member: one root is never zero
    assert seen["non-member"] and seen["peeled"] and seen["padded"]
    assert not any(field_weight_set(build_field(p, k), 1).contains(1) for p, k in SMALL_FIELDS)


def test_layers_grow_monotonically_mod_p():
    ws = compute_weight_set(7, 19)
    engine = ws.layers
    engine.grow_to(40)
    assert engine.saturation < 40  # the comparisons run past saturation
    for n in range(1, 34):
        assert not np.any(engine.mask(n) & ~engine.mask(n + 7))
        assert engine.contains_zero(n) <= engine.contains_zero(n + 7)


# Recorded with the engine that grew every layer up to the bound: the
# members below tail_start, tail_start, period and bound_B of pairs whose
# layers saturate long before the bound (at layer 10 of 8638 and 5 of 11132).
DEEP_SETS = {
    (509, 17): ((0,), 7, 1, 8638),
    (211, 53): ((0,), 5, 1, 11132),
}


@pytest.mark.parametrize("p,m", sorted(DEEP_SETS))
def test_deep_weight_sets_unchanged_by_saturation(p, m):
    explicit, tail_start, period, bound = DEEP_SETS[(p, m)]
    ws = compute_weight_set(p, m)
    assert ws.json_dict() == {
        "p": p, "m": m, "m_prime": m, "k": 2, "period": period,
        "members_below": list(explicit) + list(range(tail_start, bound, period)),
        "tail_start": tail_start, "bound_B": bound,
    }
    engine = ws.layers
    assert engine.saturation is not None
    assert len(engine.masks) <= engine.saturation + 1
    top = engine.mask(engine.saturation)
    assert top.all() and engine.contains_zero(engine.saturation)
    assert engine.mask(bound) is top and engine.contains_zero(bound)


def test_members_closed_under_addition():
    for p, m in [(31, 3), (5, 2), (3, 11)]:
        ws = compute_weight_set(p, m)
        members = set(ws.members_below)
        for a in members:
            for b in members:
                if a and b and a + b < ws.bound:
                    assert a + b in members


def test_weight_set_contains_generated_semigroup():
    from cyclosum.ntheory import prime_factors

    for p, m in [(11, 5), (7, 19), (2, 73), (5, 4)]:
        ws = compute_weight_set(p, m)
        for g in prime_factors(m):
            for a in range(0, ws.bound, p):
                for b in range((ws.bound - a) // g + 1):
                    if a + g * b < ws.bound:
                        assert membership(ws, a + g * b)


def _naive_membership(p, k, m, upto):
    """Oracle by DP over plain coefficient tuples; no discrete logs."""
    F = build_field(p, k)

    def pad(t):
        return tuple(t) + (0,) * (k - len(t))

    roots = [pad(F.poly_of_index(int(e)).coeffs) for e in F.roots_of_unity(m)]
    zero = (0,) * k
    layer = {zero}
    out = [True]
    for _ in range(1, upto):
        layer = {tuple((a + b) % p for a, b in zip(s, r)) for s in layer for r in roots}
        out.append(zero in layer)
    return out


@pytest.mark.parametrize("p,m", [(11, 5), (5, 2), (5, 4), (31, 3), (2, 5), (3, 4), (2, 7), (13, 4)])
def test_bitset_membership_matches_naive_oracle(p, m):
    ws = compute_weight_set(p, m)
    naive = _naive_membership(p, ws.k, ws.m_prime, 2 * ws.bound)
    for n in range(2 * ws.bound):
        assert membership(ws, n) == naive[n], f"disagree at n={n}"


def test_field_weight_set_matches_minimal_field_set():
    # ninth roots inside F_81 rather than the minimal F_9
    big = build_field(3, 4)
    via_big = field_weight_set(big, 8)
    small = compute_weight_set(3, 8)
    assert via_big.members_below == small.members_below
    assert via_big.tail_start == small.tail_start


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_membership_is_stable_under_adding_p(data):
    p, m = data.draw(st.sampled_from([(3, 11), (11, 5), (5, 4), (2, 73), (7, 19)]))
    ws = compute_weight_set(p, m)
    n = data.draw(st.integers(min_value=0, max_value=3 * ws.bound))
    if membership(ws, n):
        assert membership(ws, n + p)


# -- minimal vanishing sums -------------------------------------------------

def test_minimal_sums_prime_power_cases():
    assert minimal_vanishing_sums(2, 3, 5) == [(0, 0), (0, 1, 2)]
    assert minimal_vanishing_sums(3, 5, 7) == [(0, 0, 0), (0, 1, 2, 3, 4)]
    assert minimal_vanishing_sums(2, 5, 7) == [(0, 0), (0, 1, 2, 3, 4)]


def test_minimal_sums_trivial_group():
    assert minimal_vanishing_sums(7, 1, 7) == [(0,) * 7]
    assert minimal_vanishing_sums(7, 1, 6) == []


def test_minimal_sums_include_scaled_third():
    assert (0, 0, 3) in minimal_vanishing_sums(11, 5, 3)


def test_minimal_sums_have_no_vanishing_proper_subsum():
    for p, m, wmax in [(11, 5, 4), (2, 7, 6), (3, 4, 5)]:
        sums = minimal_vanishing_sums(p, m, wmax)
        ws = compute_weight_set(p, m)
        F = ws.field
        zeta = F.element(F.order // ws.m_prime)
        for exps in sums:
            total = F.zero()
            for e in exps:
                total = total + zeta**e
            assert total.is_zero
            counts = Counter(exps)
            for sub in _proper_submultisets(counts):
                sub_total = F.zero()
                for e, c in sub.items():
                    for _ in range(c):
                        sub_total = sub_total + zeta**e
                assert not sub_total.is_zero, f"{dict(sub)} vanishes inside {exps}"


def _proper_submultisets(counts):
    keys = sorted(counts)
    def rec(i, current):
        if i == len(keys):
            if current and sum(current.values()) < sum(counts.values()):
                yield current
            return
        for c in range(counts[keys[i]] + 1):
            nxt = dict(current)
            if c:
                nxt[keys[i]] = c
            yield from rec(i + 1, nxt)
    yield from rec(0, {})


def test_minimal_sums_canonical_under_rotation():
    sums = minimal_vanishing_sums(11, 5, 4)
    for exps in sums:
        for c in range(5):
            rotated = tuple(sorted((e + c) % 5 for e in exps))
            assert exps <= rotated


def test_enumeration_cap():
    with pytest.raises(EnumerationCapExceeded):
        minimal_vanishing_sums(2, 3, 14)
