import json

import pytest

from cyclosum.audit import (
    AuditReport,
    cauchy_davenport_check,
    sweep,
    verify_constructive_window,
    _oracle_membership,
)
from cyclosum.gf import build_field
from cyclosum.weights import compute_weight_set


@pytest.fixture(scope="module")
def small_report() -> AuditReport:
    return sweep(p_max=7, m_max=24, size_cap=1 << 16)


def test_small_sweep_is_clean(small_report):
    assert small_report.ok, small_report.summary_lines()
    assert small_report.counters["pairs_ok"] > 20
    assert small_report.counters["checks_failed"] == 0


def test_sweep_counts_all_coprime_pairs(small_report):
    import math

    expected = sum(
        1 for p in (2, 3, 5, 7) for m in range(3, 25) if math.gcd(p, m) == 1
    )
    assert small_report.counters["pairs_total"] == expected
    assert len(small_report.pairs) == expected


def test_skipped_pairs_are_recorded_not_failed(small_report):
    skipped = [r for r in small_report.pairs if r.status == "skipped_cap"]
    assert skipped, "some splitting field should exceed 2^16"
    assert all(r.weight_summary is None for r in skipped)


def test_exceptional_pair_is_flagged(small_report):
    rec = next(r for r in small_report.pairs if (r.p, r.m) == (2, 5))
    assert rec.checks["sharp_binary_exception"]
    assert rec.bound_summary["exception"] == "p2_d3_m5"
    rec = next(r for r in small_report.pairs if (r.p, r.m) == (3, 8))
    assert rec.checks["sharp_full_group_exception"]


def test_closed_form_checked_where_it_applies(small_report):
    applied = [r for r in small_report.pairs if "closed_form_exact" in r.checks]
    assert len(applied) >= 4
    assert all(r.checks["closed_form_exact"] for r in applied)


def test_oracle_ran_on_small_fields(small_report):
    ran = [r for r in small_report.pairs if "oracle_equivalence" in r.checks]
    assert len(ran) == small_report.counters["oracle_pairs"] > 10
    assert all(r.checks["oracle_equivalence"] for r in ran)


def test_report_serializes(tmp_path, small_report):
    jpath = tmp_path / "report.json"
    tpath = tmp_path / "report.tsv"
    small_report.write_json(str(jpath))
    small_report.write_tsv(str(tpath))
    data = json.loads(jpath.read_text())
    assert data["counters"]["pairs_total"] == small_report.counters["pairs_total"]
    lines = tpath.read_text().splitlines()
    assert lines[0].startswith("p\tm\t")
    assert len(lines) == 1 + len(small_report.pairs)


def test_cauchy_davenport_roots_mod_11():
    fifth = {1, 3, 9, 5, 4}
    assert cauchy_davenport_check(11, [fifth, fifth])
    summed = {(a + b) % 11 for a in fifth for b in fifth}
    assert len(summed) >= min(11, 2 * len(fifth) - 1)


def test_cauchy_davenport_singleton():
    assert cauchy_davenport_check(13, [{4}, {1, 2, 9}])


def test_cauchy_davenport_rejects_empty():
    assert not cauchy_davenport_check(7, [])
    assert not cauchy_davenport_check(7, [set(), {1}])


def test_fourth_roots_mod_13_fill_the_nonzero_residues():
    roots = {x for x in range(1, 13) if pow(x, 4, 13) == 1}
    assert roots == {1, 5, 8, 12}
    assert cauchy_davenport_check(13, [roots] * 3)
    triple = {(a + b + c) % 13 for a in roots for b in roots for c in roots}
    assert triple == set(range(1, 13))  # everything except zero


def test_verify_constructive_on_one_field():
    table = build_field(3, 4)
    results = verify_constructive_window(table, window=6)
    assert results and all(r["ok"] for r in results)
    ds = [r["d"] for r in results]
    assert 1 in ds and all(80 % d == 0 for d in ds)
    # m = 1 divisor excluded
    assert all(r["m"] >= 2 for r in results)


def test_oracle_membership_matches_engine():
    table = build_field(3, 2)
    ws = compute_weight_set(3, 8)
    naive = _oracle_membership(table, 8, 2 * ws.bound)
    assert [ws.contains(n) for n in range(2 * ws.bound)] == naive


def test_failures_carry_repro_commands():
    # sabotage: compare against a wrong expectation via a tiny fake failure
    report = sweep(p_max=3, m_max=8, size_cap=1 << 12)
    assert report.ok
    for f in report.failures:
        assert f.repro.startswith("cyclosum ")
