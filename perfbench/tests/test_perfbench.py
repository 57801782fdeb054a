"""Tests of the benchmark itself: reduced-size rounds of every workload, the
traced run, and checks that reject corrupted outputs.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL_FIELDS = ((2, 8), (5, 3))
SMALL_PAIRS = ((83, 7), (97, 7))


def _clean(rnd):
    assert rnd.errors == [] and rnd.problems == []
    assert rnd.failed == 0 and rnd.attempted >= 1
    assert rnd.total_s > 0


def test_audit_reduced_round_passes_checks():
    wl = workloads.AuditDefault(seed=1, p_max=5, m_max=15)
    wl.setup()
    rnd = wl.run_round(0)
    _clean(rnd)
    assert rnd.attempted == 1


def test_deep_reduced_round_passes_checks():
    wl = workloads.DeepLayers(seed=1, pairs=SMALL_PAIRS)
    wl.setup()
    rnd = wl.run_round(0)
    _clean(rnd)
    assert rnd.attempted == len(SMALL_PAIRS)


def test_solve_reduced_rounds_repeat_the_same_operations():
    wl = workloads.SolveWindow(seed=3, fields=SMALL_FIELDS)
    wl.setup()
    first, second = wl.run_round(0), wl.run_round(1)
    _clean(first)
    _clean(second)
    assert first.attempted == second.attempted == len(wl.inputs)


def test_deep_draw_depends_on_the_seed_and_is_balanced():
    a, b = workloads.draw_deep_pairs(1), workloads.draw_deep_pairs(2)
    assert a == workloads.draw_deep_pairs(1)
    assert a != b and len(set(a)) == workloads.DEEP_PAIRS
    mean = workloads.deep_cost_features(workloads.deep_pool()).mean(axis=0)
    for draw in (a, b):
        total = workloads.deep_cost_features(draw).sum(axis=0)
        share = total[:3] / (workloads.DEEP_PAIRS * mean[:3]) - 1
        assert (abs(share) <= workloads.DEEP_SUM_TOL).all()


def test_solve_inputs_keep_the_reduced_degree():
    for q, e, n, m in workloads.solve_inputs(5, SMALL_FIELDS):
        assert (q - 1) // m == math.gcd(q - 1, e)


# -- the checks reject corrupted outputs ----------------------------------------

def _solution_counts(q, e, n):
    from cyclosum import diagonal

    inst = diagonal.diagonal_instance(q, e, n)
    sol = diagonal.solve_good(inst)
    counts = {}
    for v in sol.values:
        key = tuple(v.poly.coeffs)
        counts[key] = counts.get(key, 0) + 1
    return inst.table.p, list(inst.table.modulus.coeffs), counts


def test_check_solution_accepts_a_real_solution():
    p, modulus, counts = _solution_counts(125, 31, 6)
    assert checks.check_solution(p, modulus, 31, 6, counts) == []


def test_check_solution_rejects_corruption():
    p, modulus, counts = _solution_counts(125, 31, 6)
    key = next(iter(counts))
    extra = dict(counts)
    extra[key] += 1  # one more nonzero term: the sum becomes key**e != 0
    assert any("not zero" in x for x in checks.check_solution(p, modulus, 31, 7, extra))

    zero = dict(counts)
    zero[key] -= 1
    zero[()] = 1
    assert any("zero" in x for x in checks.check_solution(p, modulus, 31, 6, zero))

    assert checks.check_solution(p, modulus, 31, 7, counts)
    reducible = [0] * len(modulus)
    reducible[-1] = 1
    assert any("irreducible" in x for x in checks.check_solution(p, reducible, 31, 6, counts))


def test_check_solution_catches_a_degree_the_solver_ignores():
    # x**5 over F_7 reduces to d = 1, but the solver's answer only vanishes for d
    p, modulus, counts = _solution_counts(7, 1, 3)
    assert checks.check_solution(p, modulus, 1, 3, counts) == []
    assert checks.check_solution(p, modulus, 5, 3, counts)


def _weight_set(p, m):
    from cyclosum import weights

    return weights.compute_weight_set(p, m).json_dict()


def test_check_weight_set_accepts_real_sets():
    for p, m in ((31, 3), (5, 3), (2, 9), (83, 7)):
        assert checks.check_weight_set(_weight_set(p, m)) == []


@pytest.mark.parametrize("corrupt", ["drop_member", "add_member", "tail", "period"])
def test_check_weight_set_rejects_corruption(corrupt):
    ws = _weight_set(31, 3)
    members = list(ws["members_below"])
    if corrupt == "drop_member":
        members.remove(6)
    elif corrupt == "add_member":
        members = sorted(members + [4])
    elif corrupt == "tail":
        ws["tail_start"] -= 1
        members = sorted(set(members) | {ws["tail_start"]})
    else:
        ws["period"] = 3
    ws["members_below"] = tuple(members)
    assert checks.check_weight_set(ws)


def test_audit_check_rejects_a_wrong_skip_set():
    from cyclosum import audit

    report = audit.sweep(p_max=3, m_max=12, size_cap=1 << 6)
    assert workloads.check_audit_report(report) == []
    report.pairs[0].status = "skipped_cap" if report.pairs[0].status == "ok" else "ok"
    assert workloads.check_audit_report(report)


def test_irreducibility_against_brute_force():
    for p, k in ((2, 4), (3, 3), (5, 2)):
        for n in range(p**k):
            f = [(n // p**i) % p for i in range(k)] + [1]
            assert checks.is_irreducible(f, p) == _brute_irreducible(f, p), (p, f)


def _brute_irreducible(f, p):
    k = len(f) - 1
    for deg in range(1, k // 2 + 1):
        for n in range(p**deg):
            g = [(n // p**i) % p for i in range(deg)] + [1]
            if checks.poly_mod(f, g, p) == []:
                return False
    return True


# -- the traced run ---------------------------------------------------------------

def test_tracer_times_nested_calls_and_restores_the_program():
    from cyclosum import diagonal, gf

    original = diagonal.solve_good
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wl = workloads.SolveWindow(seed=2, fields=((3, 4),))
        wl.setup()
        rnd = wl.run_round(0, tracer)
    finally:
        tracer.uninstall()
    assert diagonal.solve_good is original and gf.build_field.__module__ == "cyclosum.gf"
    metrics = tracer.metrics()
    assert metrics["diagonal.solve_good.calls"][0] == rnd.attempted
    assert metrics["diagonal.solved"][0] == rnd.attempted
    assert metrics["diagonal.coords"][0] == sum(n for _, _, n, _ in wl.inputs)
    for name in tracing.TRACED:
        calls, busy, self_s = (metrics[f"{name}.{x}"][0] for x in ("calls", "busy_s", "self_s"))
        assert 0 <= self_s <= busy + 1e-9 or calls == 0


def test_run_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "deep_layers",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_worker_reports_json():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", "deep_layers",
         "--seed", "1", "--mode", "setup"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["setup_s"] > 0
