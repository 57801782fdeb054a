"""The benchmark's workloads: inputs made from a seed, set-up, one timed round.

Each workload is a closed loop: one caller makes one program call at a
time and waits for it.  Only the program calls are timed; the checks in
checks.py run between calls, outside the timed region, and an operation
that raises or whose output fails a check counts as failed.

The program is reached through its module attributes at call time
(``audit.sweep``, ``weights.compute_weight_set``, ...), so the traced run
can replace those attributes and see the same calls.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import checks


@dataclass
class Round:
    """What one pass over a workload's operations did."""

    total_s: float = 0.0
    latencies_ms: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)  # outputs that failed a check
    errors: list = field(default_factory=list)  # calls that raised
    figures: dict = field(default_factory=dict)  # extra per-layer figures


def _timed_call(rnd: Round, fn, *args, **kwargs):
    """Call fn once, add its time to the round; None if it raised."""
    rnd.attempted += 1
    start = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # a failed operation is counted, not fatal
        rnd.total_s += time.perf_counter() - start
        rnd.failed += 1
        rnd.errors.append(f"{type(exc).__name__}: {exc}")
        return None
    elapsed = time.perf_counter() - start
    rnd.total_s += elapsed
    rnd.latencies_ms.append(elapsed * 1e3)
    return result


def _record_check(rnd: Round, problems: list, what: str) -> None:
    if problems:
        rnd.failed += 1
        rnd.problems.append(f"{what}: {'; '.join(problems)}")


# ---------------------------------------------------------------------------
# audit_default

AUDIT_GRID_FIELD_CAP = 1 << 12


class AuditDefault:
    """audit.sweep() with its defaults (p <= 23, m <= 60, cap 2^20, window
    2p): the end-to-end run, touching every layer.  The sweep takes no
    input, so the seed changes nothing.  A second sweep in the same
    process would hit the program's caches, so every round needs a fresh
    process."""

    name = "audit_default"
    repeatable = False

    def __init__(self, seed: int, **sweep_args):
        self.sweep_args = sweep_args  # empty for the benchmark: the defaults

    def setup(self) -> None:
        from cyclosum import audit

        self.audit = audit

    def run_round(self, index: int, tracer=None) -> Round:
        rnd = Round()
        args = dict(self.sweep_args)
        if tracer is not None:
            args["log"] = tracer.mark
        start = time.perf_counter()
        report = _timed_call(rnd, self.audit.sweep, **args)
        end = time.perf_counter()
        if report is None:
            return rnd
        if tracer is not None:
            split = next((t for t, msg in tracer.marks if "constructive" in msg), end)
            rnd.figures["audit.pairs_phase_s"] = split - start
            rnd.figures["audit.constructive_phase_s"] = end - split
            rnd.figures["audit.checks_passed"] = report.counters["checks_passed"]
            rnd.figures["audit.solutions_verified"] = report.counters["solutions_verified"]
        _record_check(rnd, check_audit_report(report), "audit.sweep")
        return rnd


def check_audit_report(report) -> list[str]:
    problems = []
    if not report.ok:
        problems.append(f"report lists {len(report.failures)} failures")
    c = report.counters
    total, skipped = checks.audit_pairs(report.p_max, report.m_max, report.size_cap)
    got_skipped = {(r.p, r.m) for r in report.pairs if r.status == "skipped_cap"}
    if c["pairs_total"] != total or len(report.pairs) != total:
        problems.append(f"pairs_total {c['pairs_total']}, recounted {total}")
    if got_skipped != skipped or c["pairs_skipped"] != len(skipped):
        problems.append(f"{len(got_skipped ^ skipped)} pairs differ in cap skipping")
    if c["pairs_ok"] != total - len(skipped):
        problems.append(f"pairs_ok {c['pairs_ok']}, expected {total - len(skipped)}")
    if c["checks_passed"] < 1 or c["solutions_verified"] < 1:
        problems.append("the sweep passed no checks or verified no solutions")
    for rec in report.pairs:
        if rec.status == "ok" and rec.q <= AUDIT_GRID_FIELD_CAP:
            for problem in checks.check_weight_set(rec.weight_summary):
                problems.append(f"W_{rec.p}({rec.m}): {problem}")
    return problems


# ---------------------------------------------------------------------------
# deep_layers

DEEP_P_RANGE = (60, 300)
DEEP_Q_MAX = 1 << 17
DEEP_PAIRS = 10
# Pairs whose layer work bound * (q - 1) exceeds this take 9 to 50 s each
# at this commit; one of them would make a round as long as the rest.
DEEP_WORK_MAX = 4 * 10**8
# Seconds per layer and per element visit, fitted to single calls at this
# commit (2 CPUs, Python 3.11, numpy 2.4).  Used only to balance draws.
DEEP_COST_MODEL = (3.05e-5, 1.7e-8)
# Of DEEP_DRAW_TRIES seeded draws the one kept deviates least from the
# pool's typical draw in summed layers, element visits and mask bytes, and
# in the median and 95th percentile of its modelled call times; a deviation
# is counted in units of these shares.  Seeds then vary the pairs, not the
# amount or the spread of the work.
DEEP_SUM_TOL = 0.03
DEEP_QUANTILE_TOL = 0.05
DEEP_DRAW_TRIES = 100_000


def exploration_bound(p: int, m_prime: int) -> int:
    """Layers the weight-set engine explores: (p-1)(r-1) + p + 1, with r the
    least prime factor of m'."""
    return (p - 1) * (checks.prime_divisors(m_prime)[0] - 1) + p + 1


def deep_pool() -> list[tuple[int, int]]:
    """Pairs (p, m'): p prime in the range, m' >= 7 prime with ord_{m'}(p) = 2,
    q = p^2 <= 2^17, and bounded layer work."""
    pool = []
    for p in range(DEEP_P_RANGE[0], DEEP_P_RANGE[1] + 1):
        if not checks.is_prime(p) or p * p > DEEP_Q_MAX:
            continue
        for m in checks.prime_divisors(p * p - 1):
            if m >= 7 and checks.order_mod(p, m) == 2:
                if exploration_bound(p, m) * (p * p - 1) <= DEEP_WORK_MAX:
                    pool.append((p, m))
    return pool


def deep_cost_features(pairs) -> np.ndarray:
    """Per pair: layers, element visits once layers fill (q-1 per layer),
    stored mask bytes (d per layer) and the modelled call time."""
    rows = []
    for p, m in pairs:
        b, q1 = exploration_bound(p, m), p * p - 1
        rows.append((b, b * q1, b * (q1 // m),
                     b * DEEP_COST_MODEL[0] + b * q1 * DEEP_COST_MODEL[1]))
    return np.array(rows, dtype=float)


def _draw_stats(feats: np.ndarray, picks: np.ndarray) -> np.ndarray:
    """Summed features and model-cost median and 95th percentile per draw."""
    cost = feats[picks, 3]
    return np.column_stack([feats[picks, :3].sum(axis=1),
                            np.quantile(cost, 0.5, axis=1),
                            np.quantile(cost, 0.95, axis=1)])


def draw_deep_pairs(seed: int) -> list[tuple[int, int]]:
    """DEEP_PAIRS distinct pool pairs in seeded order, the best balanced of
    DEEP_DRAW_TRIES seeded draws."""
    pool = deep_pool()
    feats = deep_cost_features(pool)
    tries = np.random.default_rng(seed).random((DEEP_DRAW_TRIES, len(pool)))
    picks = np.argsort(tries, axis=1, kind="stable")[:, :DEEP_PAIRS]
    stats = _draw_stats(feats, picks)
    target = np.median(stats, axis=0)
    target[:3] = DEEP_PAIRS * feats[:, :3].mean(axis=0)
    scale = np.array([DEEP_SUM_TOL] * 3 + [DEEP_QUANTILE_TOL] * 2)
    best = np.argmin((np.abs(stats / target - 1) / scale).max(axis=1))
    return [pool[i] for i in picks[best]]


class DeepLayers:
    """weights.compute_weight_set on about ten seeded pairs whose exploration
    bound runs to thousands of layers: the time goes to layer growth.
    Results are cached by the program, so every round needs a fresh
    process."""

    name = "deep_layers"
    repeatable = False

    def __init__(self, seed: int, pairs=None):
        self.pairs = draw_deep_pairs(seed) if pairs is None else list(pairs)

    def setup(self) -> None:
        from cyclosum import weights

        self.weights = weights

    def run_round(self, index: int, tracer=None) -> Round:
        rnd = Round()
        for p, m in self.pairs:
            ws = _timed_call(rnd, self.weights.compute_weight_set, p, m)
            if ws is not None:
                _record_check(rnd, checks.check_weight_set(ws.json_dict()),
                              f"compute_weight_set({p}, {m})")
        return rnd


# ---------------------------------------------------------------------------
# solve_window

# Six to eight fields were tried; these four keep the number of distinct
# (field, m) weight sets at 62, inside the program's 64-entry caches, so
# the timed calls read warm layers whatever the seeded order.
SOLVE_FIELDS = ((2, 16), (3, 10), (17, 3), (23, 3))


def admissible_divisors(p: int, k: int) -> list[int]:
    """Divisors d of q-1 that the audit's constructive window covers."""
    q1 = p**k - 1
    return [d for d in range(1, q1 + 1)
            if q1 % d == 0 and q1 // d != 1 and not (q1 // d == 2 and k == 1)]


def solve_inputs(seed: int, fields=SOLVE_FIELDS) -> list[tuple[int, int, int, int]]:
    """(q, e, n, m) for every n in [d+1, d+1+2p] and admissible d, with the
    degree e = d * p**j for a seeded j < k.

    Then gcd(q-1, e) = d and x**e = (x**d)**(p**j), so a solution for the
    degree d is one for e as well.  Other multiples d*t are left out: the
    solver answers them with a solution for d that does not vanish for e.
    """
    rng = random.Random(seed)
    out = []
    for p, k in fields:
        q = p**k
        for d in admissible_divisors(p, k):
            for n in range(d + 1, d + 2 + 2 * p):
                out.append((q, d * p ** rng.randrange(k), n, (q - 1) // d))
    return out


class SolveWindow:
    """diagonal.solve_good on every instance of the constructive window of a
    few fields.  Set-up builds the fields and warms their weight sets, so
    the timed calls backtrack, build long solutions and verify them, with
    almost no layer growth.  Nothing is cached per instance, so rounds
    repeat in one process, each in a fresh seeded order."""

    name = "solve_window"
    repeatable = True

    def __init__(self, seed: int, fields=SOLVE_FIELDS):
        self.seed = seed
        self.fields = fields
        self.inputs = solve_inputs(seed, fields)

    def setup(self) -> None:
        from cyclosum import diagonal, gf, weights

        self.diagonal = diagonal
        for p, k in self.fields:
            table = gf.build_field(p, k)
            for d in admissible_divisors(p, k):
                weights.field_weight_set(table, (p**k - 1) // d)
        self.instances = [diagonal.diagonal_instance(q, e, n) for q, e, n, _ in self.inputs]

    def run_round(self, index: int, tracer=None) -> Round:
        rnd = Round()
        order = list(range(len(self.instances)))
        random.Random(self.seed * 1000 + index).shuffle(order)
        for i in order:
            inst = self.instances[i]
            result = _timed_call(rnd, self.diagonal.solve_good, inst)
            if result is not None:
                _record_check(rnd, self.check(inst, result), f"solve_good{self.inputs[i][:3]}")
        return rnd

    def check(self, inst, result) -> list[str]:
        if not hasattr(result, "values"):
            return [f"no solution for n = {inst.n} inside the window of (1.3)"]
        first = {}
        counts = Counter()
        for v in result.values:
            counts[v.index] += 1
            first.setdefault(v.index, v)
        coords = {tuple(first[i].poly.coeffs): c for i, c in counts.items()}
        if len(coords) != len(counts):
            return ["two distinct coordinates share one polynomial"]
        modulus = inst.table.json_dict()["modulus_coeffs"]
        return checks.check_solution(inst.table.p, modulus, inst.e, inst.n, coords)


WORKLOADS = {w.name: w for w in (AuditDefault, DeepLayers, SolveWindow)}
