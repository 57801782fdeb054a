"""Sweep harness: recompute weight sets exactly over a (p, m) range and
assert every predicted tail, trace property, closed form, and exception
against them.  Failures are collected, never raised, so one skipped or
broken pair cannot hide the rest of the results.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .bounds import (
    EXC_P2_D3_M5,
    GCD_EQ_1,
    closed_form_weight_set,
    predicted_tails,
)
from .cyclotomic import (
    factor_xm_minus_1,
    phi_m_irreducible_mod_p,
)
from .diagonal import DiagonalInstance, GoodSolution, solve_good
from .errors import CyclosumError, SizeCapExceeded
from .gf import FieldTable, build_field
from .ntheory import divisors, factorize, is_prime, multiplicative_order, primes_up_to
from .traces import predict_trace_count, trace_profile
from .weights import compute_weight_set

DEFAULT_P_MAX = 23
DEFAULT_M_MAX = 60
DEFAULT_SWEEP_CAP = 1 << 20
CONSTRUCTIVE_FIELD_CAP = 1 << 16
ORACLE_FIELD_CAP = 1 << 10


@dataclass
class AuditFailure:
    p: int
    m: int
    check: str
    detail: str
    repro: str

    def json_dict(self) -> dict:
        return self.__dict__.copy()


@dataclass
class PairRecord:
    p: int
    m: int
    k: int | None
    q: int | None
    status: str  # "ok" or "skipped_cap"
    checks: dict = field(default_factory=dict)
    weight_summary: dict | None = None
    bound_summary: dict | None = None
    trace_summary: dict | None = None

    def json_dict(self) -> dict:
        return {
            "p": self.p,
            "m": self.m,
            "k": self.k,
            "q": self.q,
            "status": self.status,
            "checks": self.checks,
            "weight_set": self.weight_summary,
            "bounds": self.bound_summary,
            "trace": self.trace_summary,
        }


@dataclass
class FieldRecord:
    p: int
    k: int
    q: int
    window: int
    field: dict
    divisors: list
    ok: bool

    def json_dict(self) -> dict:
        return self.__dict__.copy()


@dataclass
class AuditReport:
    p_max: int
    m_max: int
    size_cap: int
    window: int | None
    pairs: list[PairRecord]
    fields: list[FieldRecord]
    failures: list[AuditFailure]
    counters: dict
    elapsed_seconds: float

    @property
    def ok(self) -> bool:
        return not self.failures

    def json_dict(self) -> dict:
        return {
            "params": {
                "p_max": self.p_max,
                "m_max": self.m_max,
                "size_cap": self.size_cap,
                "window": self.window,
            },
            "counters": self.counters,
            "failures": [f.json_dict() for f in self.failures],
            "pairs": [r.json_dict() for r in self.pairs],
            "fields": [r.json_dict() for r in self.fields],
            "elapsed_seconds": self.elapsed_seconds,
        }

    def write_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.json_dict(), fh, indent=2)
            fh.write("\n")

    def write_tsv(self, path: str) -> None:
        cols = ["p", "m", "k", "q", "status", "tail_start", "best_tail", "t", "failed_checks"]
        with open(path, "w") as fh:
            fh.write("\t".join(cols) + "\n")
            for rec in self.pairs:
                ws = rec.weight_summary or {}
                bd = rec.bound_summary or {}
                tr = rec.trace_summary or {}
                failed = ",".join(name for name, ok in rec.checks.items() if not ok)
                row = [
                    rec.p, rec.m, rec.k, rec.q, rec.status,
                    ws.get("tail_start"), bd.get("best"), tr.get("t"), failed,
                ]
                fh.write("\t".join("" if v is None else str(v) for v in row) + "\n")

    def summary_lines(self) -> list[str]:
        c = self.counters
        lines = [
            f"pairs: {c['pairs_total']} total, {c['pairs_ok']} computed, "
            f"{c['pairs_skipped']} skipped by the size cap",
            f"checks: {c['checks_passed']} passed, {c['checks_failed']} failed",
            f"tail predictions verified: {c['predictions_checked']}",
            f"oracle-equivalence pairs: {c['oracle_pairs']}",
            f"constructive fields: {c['fields_checked']} "
            f"({c['solutions_verified']} solutions verified)",
            f"trace profiles with t == 1 + r: {c['t_equals_r_plus_1']} of {c['trace_profiles']}",
            f"elapsed: {self.elapsed_seconds:.1f} s",
        ]
        if self.failures:
            lines.append(f"FAILURES ({len(self.failures)}):")
            for f in self.failures:
                lines.append(f"  p={f.p} m={f.m} {f.check}: {f.detail}  [{f.repro}]")
        else:
            lines.append("no failures")
        return lines


def _sumset_fold(p: int, sets):
    """The sumset of the given subsets of Z/p, or None when the list or a set
    is empty or some step breaks |A + B| >= min(p, |A| + |B| - 1)."""
    sets = [frozenset(x % p for x in s) for s in sets]
    if not sets or any(not s for s in sets):
        return None
    acc = sets[0]
    for nxt in sets[1:]:
        summed = {(a + b) % p for a in acc for b in nxt}
        if len(summed) < min(p, len(acc) + len(nxt) - 1):
            return None
        acc = summed
    return acc


def cauchy_davenport_check(p: int, sets) -> bool:
    """Fold the given subsets of Z/p by sumset, verifying
    |A + B| >= min(p, |A| + |B| - 1) at every step."""
    return _sumset_fold(p, sets) is not None


def _min_extension_degree_raw(p: int, m: int) -> int:
    """Direct scan for the least e with gcd(p**e - 1, m) > 1; the audit's
    cross-check of cyclotomic.min_extension_degree."""
    pe = 1
    for e in range(1, m + 1):
        pe = (pe * p) % m
        if math.gcd((pe - 1) % m, m) > 1:
            return e
    raise AssertionError("some power of p is 1 mod a prime divisor of m")


def _oracle_membership(table: FieldTable, m: int, upto: int) -> list[bool]:
    """Naive membership oracle by DP over coefficient vectors.

    Independent route: roots are found by raw repeated squaring of every
    element, and sums use a plain base-p addition table, so none of the
    discrete-log or coset machinery is trusted.
    """
    p, k, q = table.p, table.k, table.q
    mod = table.modulus.coeffs

    def naive_mul(a, b):
        out = [0] * (2 * k)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] = (out[i + j] + x * y) % p
        for top in range(2 * k - 1, k - 1, -1):
            c = out[top]
            if c:
                out[top] = 0
                for j in range(k):
                    out[top - k + j] = (out[top - k + j] - c * mod[j]) % p
        return out[:k]

    def naive_pow(vec, e):
        result = [1] + [0] * (k - 1)
        base = list(vec)
        while e:
            if e & 1:
                result = naive_mul(result, base)
            base = naive_mul(base, base)
            e >>= 1
        return result

    def decode(enc):
        out = []
        for _ in range(k):
            out.append(enc % p)
            enc //= p
        return out

    one = [1] + [0] * (k - 1)
    group = [enc for enc in range(1, q) if naive_pow(decode(enc), m) == one]
    assert len(group) == m

    weights = p ** np.arange(k, dtype=np.int64)
    coeff_rows = np.empty((q, k), dtype=np.int64)
    tmp = np.arange(q, dtype=np.int64)
    for j in range(k):
        coeff_rows[:, j] = tmp % p
        tmp //= p
    add_enc = np.empty((q, q), dtype=np.int32)
    chunk = max(1, (1 << 16) // q)
    for start in range(0, q, chunk):
        stop = min(q, start + chunk)
        sums = (coeff_rows[start:stop, None, :] + coeff_rows[None, :, :]) % p
        add_enc[start:stop] = sums @ weights

    member = [True]
    layer = np.zeros(q, dtype=bool)
    layer[0] = True
    for _ in range(1, upto):
        idx = np.flatnonzero(layer)
        nxt = np.zeros(q, dtype=bool)
        for g_enc in group:
            nxt[add_enc[idx, g_enc]] = True
        member.append(bool(nxt[0]))
        layer = nxt
    return member


def verify_constructive_window(table: FieldTable, window: int) -> list[dict]:
    """For every admissible divisor d of q-1, solve the diagonal equation
    with all coordinates nonzero for every n in [d+1, d+1+window]."""
    q, k = table.q, table.k
    out = []
    for d in divisors(q - 1):
        m = (q - 1) // d
        if m == 1 or (m == 2 and k == 1):
            continue
        ok = True
        detail = ""
        for n in range(d + 1, d + 2 + window):
            inst = DiagonalInstance(table=table, e=d, d=d, m=m, n=n)
            try:
                result = solve_good(inst)
            except CyclosumError as exc:
                ok, detail = False, f"n={n}: {exc}"
                break
            if not isinstance(result, GoodSolution):
                ok, detail = False, f"n={n}: no good solution found"
                break
        out.append({"d": d, "m": m, "n_from": d + 1, "n_to": d + 1 + window,
                    "ok": ok, "detail": detail})
    return out


def _semigroup_below(generators, bound: int) -> set[int]:
    reachable = {0}
    for g in generators:
        frontier = set(reachable)
        while frontier:
            frontier = {x + g for x in frontier if x + g < bound}
            reachable |= frontier
    return reachable


class _PairAuditor:
    def __init__(self, report_failures, counters, size_cap, oracle_cap):
        self.failures = report_failures
        self.counters = counters
        self.size_cap = size_cap
        self.oracle_cap = oracle_cap

    def check(self, rec: PairRecord, name: str, ok: bool, detail: str, repro: str) -> None:
        rec.checks[name] = bool(ok)
        if ok:
            self.counters["checks_passed"] += 1
        else:
            self.counters["checks_failed"] += 1
            self.failures.append(AuditFailure(rec.p, rec.m, name, detail, repro))

    def audit_pair(self, p: int, m: int) -> PairRecord:
        k = multiplicative_order(p, m)
        q = p**k
        repro = f"cyclosum weights --p {p} --m {m}"
        if q > self.size_cap:
            rec = PairRecord(p=p, m=m, k=k, q=q, status="skipped_cap")
            self.counters["pairs_skipped"] += 1
            self._trace_checks(rec, p, m)
            return rec
        rec = PairRecord(p=p, m=m, k=k, q=q, status="ok")
        self.counters["pairs_ok"] += 1
        try:
            self._weight_checks(rec, p, m, k, repro)
        except CyclosumError as exc:
            self.check(rec, "weight_computation", False, str(exc), repro)
        self._trace_checks(rec, p, m)
        return rec

    # -- weight-set side ----------------------------------------------------

    def _weight_checks(self, rec, p, m, k, repro):
        ws = compute_weight_set(p, m, self.size_cap)
        rec.weight_summary = ws.json_dict()
        members = set(ws.members_below)

        semi = _semigroup_below([p] + sorted(factorize(m)), ws.bound)
        self.check(rec, "semigroup_subset", semi <= members,
                   f"{sorted(semi - members)} missing", repro)

        closed = all(
            (a + b) in members
            for a in ws.members_below if a
            for b in ws.members_below if b and a + b < ws.bound
        )
        self.check(rec, "addition_closure", closed, "members not closed", repro)

        stable = all(
            ws.layers.contains_zero(n)
            for n in range(ws.tail_start, ws.tail_start + 2 * p + 1)
            if n % ws.period == 0 and n >= 1
        )
        self.check(rec, "tail_stability", stable,
                   "tail not confirmed by direct layers", repro)

        br = predicted_tails(p, m, k, self.size_cap)
        rec.bound_summary = br.json_dict()
        for pred in br.predictions:
            if pred.tail is None:
                continue
            self.counters["predictions_checked"] += 1
            sound = pred.tail >= ws.tail_start and all(
                ws.contains(n) for n in range(pred.tail, ws.bound)
            )
            self.check(rec, f"tail_sound::{pred.theorem}", sound,
                       f"predicted tail {pred.tail} < exact {ws.tail_start}",
                       f"cyclosum bounds --p {p} --m {m} --k {k}")

        if len(factorize(m)) == 1 and phi_m_irreducible_mod_p(p, m):
            cf = closed_form_weight_set(p, m)
            self.check(rec, "closed_form_exact", cf == ws,
                       f"closed form {cf.members_below} != exact {ws.members_below}",
                       repro)

        self._sharpness_checks(rec, p, m, k, ws, br, repro)
        self._cauchy_davenport_checks(rec, p, m, k, br, repro)

        if ws.m_prime >= 2 and p**k <= self.oracle_cap:
            self.counters["oracle_pairs"] += 1
            upto = 2 * ws.bound
            naive = _oracle_membership(ws.field, ws.m_prime, upto)
            agree = all(ws.contains(n) == naive[n] for n in range(upto))
            self.check(rec, "oracle_equivalence", agree,
                       "bitset membership disagrees with the naive oracle", repro)

    def _sharpness_checks(self, rec, p, m, k, ws, br, repro):
        if (p, m) == (2, 5):
            self.check(rec, "sharp_binary_exception", not ws.contains(3),
                       "3 must not be a member", repro)
            self.check(rec, "sharp_binary_flag",
                       br.case.exception == EXC_P2_D3_M5,
                       f"exception flag is {br.case.exception}", repro)
        if p == 3 and m == 3**k - 1:
            self.check(rec, "sharp_full_group_exception",
                       br.d == 1 and not ws.contains(1),
                       "d = 1 must not be a member", repro)
        if (p, m) == (13, 4):
            self.check(rec, "sharp_prime_field", not ws.contains(3),
                       "d0 = 3 must not be a member", repro)
        if p % 4 == 3 and m == (p - 1) // 2 and m >= 3:
            self.check(rec, "sharp_prime_field_odd", not ws.contains(2),
                       "d0 = 2 must not be a member", repro)

    def _cauchy_davenport_checks(self, rec, p, m, k, br, repro):
        if br.m0 >= 3:
            roots = {x for x in range(1, p) if pow(x, br.m0, p) == 1}
            total = _sumset_fold(p, [roots] * (br.d0 + 1))
            covered = total is not None and len(total) == p
            self.check(rec, "cauchy_davenport_roots", covered,
                       "sumset growth or coverage failed in the prime field",
                       repro)
        if br.case.gcd_class == GCD_EQ_1 and br.t is not None:
            tp = trace_profile(p, m, self.size_cap)
            n_needed = -((1 - p) // (tp.t - 1))
            total = _sumset_fold(p, [tp.trace_set] * n_needed)
            covered = total is not None and len(total) == p
            self.check(rec, "cauchy_davenport_traces", covered,
                       "trace sumsets did not cover the prime field", repro)

    # -- trace side -----------------------------------------------------------

    def _trace_checks(self, rec, p, m):
        repro = f"cyclosum trace --p {p} --m {m}"
        try:
            tp = trace_profile(p, m, self.size_cap)
        except SizeCapExceeded:
            return
        except CyclosumError as exc:
            self.check(rec, "trace_profile", False, str(exc), repro)
            return
        rec.trace_summary = tp.json_dict()
        self.counters["trace_profiles"] += 1
        if tp.t == 1 + tp.r:
            self.counters["t_equals_r_plus_1"] += 1

        self.check(rec, "trace_set_nontrivial", tp.t >= 2, f"t = {tp.t}", repro)
        root_sum = (1 + sum(tp.factor_traces[1:])) % p
        self.check(rec, "trace_root_sum", root_sum == 0,
                   f"1 + sum(a_i) = {root_sum} mod {p}", repro)
        self.check(rec, "ell_raw_agree", _min_extension_degree_raw(p, m) == tp.ell,
                   "fast and raw minimal degrees disagree", repro)
        if tp.ell == 2:
            report = factor_xm_minus_1(p, tp.m_prime, self.size_cap)
            quads = [f for f in report.factors if f.degree == 2]
            shapes = all(f.poly.coeffs[0] == 1 for f in quads)
            traces = [f.trace_coeff for f in quads]
            distinct = len(set(traces)) == len(traces) and all(
                t != 2 % p for t in traces
            )
            self.check(rec, "quadratic_factor_shape", shapes and distinct,
                       "degree-2 factors are not distinct X^2 - aX + 1", repro)
            self.check(rec, "trace_count_two_case", tp.t == tp.r + 1,
                       f"t = {tp.t} != 1 + r = {1 + tp.r}", repro)
        if (
            p != 2
            and is_prime(m)
            and m != p
            and multiplicative_order(p, m) == (m - 1) // 2
        ):
            predicted = predict_trace_count(p, m)
            self.check(rec, "half_order_trace_count", predicted == tp.t,
                       f"predicted {predicted}, actual {tp.t}",
                       f"cyclosum trace --prop65 --p {p} --q {m}")


def sweep(
    p_max: int = DEFAULT_P_MAX,
    m_max: int = DEFAULT_M_MAX,
    size_cap: int = DEFAULT_SWEEP_CAP,
    window: int | None = None,
    constructive_field_cap: int = CONSTRUCTIVE_FIELD_CAP,
    oracle_field_cap: int = ORACLE_FIELD_CAP,
    log=None,
) -> AuditReport:
    """Audit every (p, m) with p <= p_max prime, 3 <= m <= m_max coprime to p.

    Fields above size_cap are recorded as skipped, not failed.  The window
    (default 2p per field) sets how far past each divisor the constructive
    solver is exercised.
    """
    started = time.perf_counter()
    counters = {
        "pairs_total": 0,
        "pairs_ok": 0,
        "pairs_skipped": 0,
        "checks_passed": 0,
        "checks_failed": 0,
        "predictions_checked": 0,
        "oracle_pairs": 0,
        "trace_profiles": 0,
        "t_equals_r_plus_1": 0,
        "fields_checked": 0,
        "divisors_checked": 0,
        "solutions_verified": 0,
    }
    failures: list[AuditFailure] = []
    auditor = _PairAuditor(failures, counters, size_cap, oracle_field_cap)
    pairs: list[PairRecord] = []
    seen_fields: dict[tuple[int, int], int] = {}

    for p in primes_up_to(p_max):
        if log:
            log(f"auditing p = {p}")
        for m in range(3, m_max + 1):
            if math.gcd(p, m) != 1:
                continue
            counters["pairs_total"] += 1
            rec = auditor.audit_pair(p, m)
            pairs.append(rec)
            if rec.status == "ok" and rec.q <= min(constructive_field_cap, size_cap):
                seen_fields[(p, rec.k)] = rec.q

    field_records: list[FieldRecord] = []
    for (p, k), q in sorted(seen_fields.items()):
        if log:
            log(f"constructive check in F_{p}^{k}")
        table = build_field(p, k, size_cap=size_cap)
        win = window if window is not None else 2 * p
        results = verify_constructive_window(table, win)
        counters["fields_checked"] += 1
        counters["divisors_checked"] += len(results)
        counters["solutions_verified"] += sum(
            r["n_to"] - r["n_from"] + 1 for r in results if r["ok"]
        )
        ok = all(r["ok"] for r in results)
        for r in results:
            if not r["ok"]:
                failures.append(AuditFailure(
                    p, (q - 1) // r["d"], "constructive_solution", r["detail"],
                    f"cyclosum solve --q {q} --e {r['d']} --n {r['n_from']}",
                ))
                counters["checks_failed"] += 1
            else:
                counters["checks_passed"] += 1
        field_records.append(FieldRecord(
            p=p, k=k, q=q, window=win, field=table.json_dict(),
            divisors=results, ok=ok,
        ))

    return AuditReport(
        p_max=p_max,
        m_max=m_max,
        size_cap=size_cap,
        window=window,
        pairs=pairs,
        fields=field_records,
        failures=failures,
        counters=counters,
        elapsed_seconds=time.perf_counter() - started,
    )
