"""Acceptance suite: every criterion prints one PASS/FAIL line and is
asserted at its stated tolerance.  The default audit sweep (p <= 23,
m <= 60, field cap 2^20, solver window 2p) runs once as a fixture.
"""

import json
import time
from pathlib import Path

import pytest

from cyclosum.audit import sweep
from cyclosum.bounds import predicted_tails
from cyclosum.cyclotomic import factor_xm_minus_1, phi_m_irreducible_mod_p
from cyclosum.gf import clear_fields
from cyclosum.ntheory import factorize
from cyclosum.traces import half_order_tail, predict_trace_count, trace_profile
from cyclosum.weights import compute_weight_set, membership, minimal_vanishing_sums

SWEEP_P_MAX = 23
SWEEP_M_MAX = 60
SWEEP_CAP = 1 << 20
SWEEP_TIME_LIMIT_S = 600.0
# the default sweep's report, minus elapsed_seconds, as compact JSON with
# sorted keys; a change that alters any figure of the report fails here
SWEEP_SNAPSHOT = Path(__file__).parent / "data" / "sweep_default.json"

GOLDEN_SETS = {
    (11, 5): ((0,), 3),
    (5, 2): ((0, 2), 4),
    (5, 4): ((0,), 2),
    (31, 3): ((0, 3, 6, 7), 9),
    (2, 73): ((0,), 2),
    (5, 3): ((0, 3, 5, 6), 8),
}

FACTORS_3_11 = {
    (2, 1),
    (2, 0, 1, 2, 1, 1),
    (2, 2, 1, 2, 0, 1),
}
FACTORS_5_11 = {
    (4, 1),
    (4, 1, 1, 4, 2, 1),
    (4, 3, 1, 4, 4, 1),
}


def report_line(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {status} - {detail}")


@pytest.fixture(scope="module")
def default_sweep():
    start = time.perf_counter()
    rep = sweep(p_max=SWEEP_P_MAX, m_max=SWEEP_M_MAX, size_cap=SWEEP_CAP)
    elapsed = time.perf_counter() - start
    return rep, elapsed


def test_criterion_1_golden_weight_sets_fast_and_exact():
    clear_fields()
    worst = 0.0
    for (p, m), (explicit, tail) in sorted(GOLDEN_SETS.items()):
        start = time.perf_counter()
        ws = compute_weight_set(p, m)
        worst = max(worst, time.perf_counter() - start)
        got_explicit = tuple(n for n in ws.members_below if n < ws.tail_start)
        ok = got_explicit == explicit and ws.tail_start == tail and ws.period == 1
        if not ok:
            report_line(1, False, f"W_{p}({m}) differs")
        assert ok, f"W_{p}({m}): got {got_explicit} + [{ws.tail_start},inf)"
    report_line(1, worst < 1.0, f"6 golden weight sets exact, slowest {worst * 1000:.0f} ms")
    assert worst < 1.0


def test_criterion_2_closed_form_everywhere_it_applies(default_sweep):
    rep, _ = default_sweep
    applied = [r for r in rep.pairs if "closed_form_exact" in r.checks]
    all_ok = all(r.checks["closed_form_exact"] for r in applied)
    # the audit only attaches the check when the hypothesis holds; re-derive
    # the expected pair list independently
    expected = []
    for r in rep.pairs:
        if r.status != "ok":
            continue
        if len(factorize(r.m)) == 1 and phi_m_irreducible_mod_p(r.p, r.m):
            expected.append((r.p, r.m))
    ok = all_ok and sorted((r.p, r.m) for r in applied) == sorted(expected) and applied
    report_line(2, ok, f"closed form equals exact on {len(applied)} pairs")
    assert ok


def test_criterion_3_sharp_non_memberships():
    w134 = compute_weight_set(13, 4)
    w25 = compute_weight_set(2, 5)
    ok = (
        membership(w134, 3) is False
        and membership(w134, 4) is True
        and membership(w25, 3) is False
    )
    report_line(3, ok, "3 not in W_13(4), 4 in W_13(4), 3 not in W_2(5)")
    assert ok


def test_criterion_4_eleventh_roots_end_to_end():
    rep3 = factor_xm_minus_1(3, 11)
    rep5 = factor_xm_minus_1(5, 11)
    assert {f.poly.coeffs for f in rep3.factors} == FACTORS_3_11
    assert {f.poly.coeffs for f in rep5.factors} == FACTORS_5_11

    tp3, tp5 = trace_profile(3, 11), trace_profile(5, 11)
    assert tp3.trace_set == (0, 2)
    assert tp5.trace_set == (0, 1, 3)
    assert predict_trace_count(3, 11) == tp3.t == 2
    assert predict_trace_count(5, 11) == tp5.t == 3
    assert half_order_tail(3, 11) == half_order_tail(5, 11) == 10

    w3, w5 = compute_weight_set(3, 11), compute_weight_set(5, 11)
    assert all(membership(w3, n) for n in (5, 6, 8, 9))
    assert all(membership(w5, n) for n in (5, 7, 9))
    tail_ok = all(
        ws.tail_start <= 10 and all(membership(ws, n) for n in range(10, ws.bound + 30))
        for ws in (w3, w5)
    )
    assert tail_ok
    report_line(4, True, "factorizations, traces, predictions and memberships for m = 11")


def test_criterion_5_worked_case_p7_m19():
    tp = trace_profile(7, 19)
    assert tp.t == 5 and tp.trace_set == (0, 1, 2, 3, 4)
    report = predicted_tails(7, 19, 3)
    trace_tail = {pr.theorem: pr.tail for pr in report.predictions}["trace_sumset"]
    assert trace_tail == 6
    ws = compute_weight_set(7, 19)
    assert ws.tail_start <= 6
    assert all(membership(ws, n) for n in range(6, ws.bound + 30))
    report_line(5, True, "t = 5, trace-sumset tail 6, [6, inf) contained")


def test_criterion_6_trace_sets_nontrivial_across_sweep(default_sweep):
    rep, elapsed = default_sweep
    profiles = [r for r in rep.pairs if r.trace_summary is not None]
    ok = (
        all(r.trace_summary["t"] >= 2 for r in profiles)
        and all(r.checks.get("trace_set_nontrivial", True) for r in rep.pairs)
        and len(profiles) >= 300
        and elapsed <= SWEEP_TIME_LIMIT_S
    )
    report_line(
        6, ok,
        f"t >= 2 on {len(profiles)} profiles, sweep took {elapsed:.0f} s (limit 600)",
    )
    assert ok


def test_criterion_7_every_predicted_tail_is_sound(default_sweep):
    rep, _ = default_sweep
    tail_checks = [
        (name, ok)
        for r in rep.pairs
        for name, ok in r.checks.items()
        if name.startswith("tail_sound::")
    ]
    ok = all(flag for _, flag in tail_checks) and rep.counters["predictions_checked"] > 400
    report_line(
        7, ok,
        f"{rep.counters['predictions_checked']} tail predictions verified sound",
    )
    assert ok
    assert len(tail_checks) == rep.counters["predictions_checked"]


def test_criterion_8_constructive_solutions_on_every_small_field(default_sweep):
    rep, _ = default_sweep
    ok_fields = [f for f in rep.fields if f.ok]
    expected_fields = {
        (r.p, r.k) for r in rep.pairs
        if r.status == "ok" and r.q <= (1 << 16)
    }
    got_fields = {(f.p, f.k) for f in rep.fields}
    window_ok = all(f.window == 2 * f.p for f in rep.fields)
    ok = (
        len(ok_fields) == len(rep.fields)
        and got_fields == expected_fields
        and window_ok
        and rep.counters["solutions_verified"] > 5000
    )
    report_line(
        8, ok,
        f"{rep.counters['solutions_verified']} verified all-nonzero solutions over "
        f"{len(rep.fields)} fields",
    )
    assert ok


def test_criterion_9_minimal_vanishing_sums():
    expected = {
        (2, 3): [(0, 0), (0, 1, 2)],
        (3, 5): [(0, 0, 0), (0, 1, 2, 3, 4)],
        (2, 5): [(0, 0), (0, 1, 2, 3, 4)],
    }
    for (p, m), classes in expected.items():
        ell = max(factorize(m))
        wmax = max(p, ell) + 2
        got = minimal_vanishing_sums(p, m, wmax)
        assert got == classes, (p, m, got)
    report_line(9, True, "exactly the two rotation classes for (2,3), (3,5), (2,5)")


def test_criterion_10_property_suites(default_sweep):
    rep, _ = default_sweep
    cd_checks = [
        ok for r in rep.pairs for name, ok in r.checks.items()
        if name.startswith("cauchy_davenport")
    ]
    oracle_pairs = [r for r in rep.pairs if "oracle_equivalence" in r.checks]
    small = [
        r for r in rep.pairs
        if r.status == "ok" and r.q <= (1 << 10)
    ]
    ok = (
        cd_checks
        and all(cd_checks)
        and len(oracle_pairs) == len(small)
        and all(r.checks["oracle_equivalence"] for r in oracle_pairs)
        and all(r.checks.get("tail_stability", False) for r in rep.pairs if r.status == "ok")
        and rep.ok
    )
    report_line(
        10, ok,
        f"{len(cd_checks)} sumset-growth checks, oracle equivalence on "
        f"{len(oracle_pairs)} small fields, zero sweep failures",
    )
    assert ok


def test_sweep_report_matches_frozen_snapshot(default_sweep):
    rep, _ = default_sweep
    got = rep.json_dict()
    del got["elapsed_seconds"]
    text = json.dumps(got, sort_keys=True, separators=(",", ":")) + "\n"
    assert text == SWEEP_SNAPSHOT.read_text()
