"""The field registry: one table per field, one layer engine and one weight
set per (field, m), and a size cap checked on every call."""

from collections import Counter

import pytest

from cyclosum import gf
from cyclosum.audit import sweep
from cyclosum.errors import SizeCapExceeded
from cyclosum.gf import build_field, clear_fields, lex_least_irreducible
from cyclosum.weights import compute_weight_set, field_weight_set


def test_one_table_and_one_engine_per_field():
    ws = compute_weight_set(3, 8)
    table = build_field(3, 2)
    via_table = field_weight_set(table, 8)
    assert ws.field is table and via_table.field is table
    assert ws.layers is via_table.layers
    lex = lex_least_irreducible(3, 2).coeffs
    assert build_field(3, 2) is build_field(3, 2, lex)
    assert build_field(2, 5, lex_least_irreducible(2, 5)) is build_field(2, 5)


def test_size_cap_is_checked_on_every_call():
    warm = compute_weight_set(2, 257)  # q = 2^16
    assert warm.field.q == 1 << 16
    with pytest.raises(SizeCapExceeded):
        compute_weight_set(2, 257, size_cap=1 << 10)
    with pytest.raises(SizeCapExceeded):
        build_field(2, 16, size_cap=1 << 10)


def test_sweep_builds_each_field_once(monkeypatch):
    clear_fields()
    builds = Counter()
    searches = Counter()
    build_tables, lex_least = gf._build_tables, gf.lex_least_irreducible

    def counting_build(p, k, modulus):
        builds[(p, k, modulus)] += 1
        return build_tables(p, k, modulus)

    def counting_search(p, k):
        searches[(p, k)] += 1
        return lex_least(p, k)

    monkeypatch.setattr(gf, "_build_tables", counting_build)
    monkeypatch.setattr(gf, "lex_least_irreducible", counting_search)
    report = sweep(p_max=7, m_max=30, size_cap=1 << 12)
    assert report.ok
    assert builds and set(builds.values()) == {1}
    assert searches and set(searches.values()) == {1}
    assert len(builds) == len(searches)
