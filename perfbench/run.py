"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: audit_default, deep_layers, solve_window (see workloads.py).
Every measurement is made in a fresh worker process (worker.py) with one
thread for BLAS and OpenMP and a fixed hash seed.  Timed workers run until
S seconds of program calls have been timed (no new one starts after
TIMED_WALL_S seconds of wall time), then set-up is measured again
in extra workers, at least three times and up to seven while the set-ups
total under three seconds; the medians are reported.  With --trace 1 a
traced worker runs one more round and the per-layer metrics are printed
instead of the end-to-end ones.

The last line of standard output is
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The exit code is 1, with no result line, when a worker cannot run, and 1
after the result line when an output failed a check.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("audit_default", "deep_layers", "solve_window")
SETUP_SAMPLES = (3, 7)
SETUP_SECONDS = 3.0
WORKER_TIMEOUT_S = 170
# No new timed worker starts after this much wall time: when rounds get
# short, worker start-up and checks would otherwise outgrow the run.
TIMED_WALL_S = 60
# A timed worker stops after the round that takes it past --seconds /
# TIMED_SPLIT, so the rounds of a repeatable workload come from several
# processes spread over the run: the machine's speed drifts over seconds.
TIMED_SPLIT = 4
PROGRAM_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

AUDIT_FIGURES = (
    "audit.pairs_phase_s",
    "audit.constructive_phase_s",
    "audit.checks_passed",
    "audit.solutions_verified",
)


class WorkerFailed(RuntimeError):
    pass


def run_worker(workload: str, seed: int, mode: str, budget: float = 0.0) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--budget", repr(budget)]
    env = {**os.environ, **PROGRAM_ENV}
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{mode} worker ran over {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int]:
    started = time.perf_counter()
    run_worker(workload, seed, "warm")
    timed = []
    spent = 0.0
    while not timed or (spent < seconds and time.perf_counter() - started < TIMED_WALL_S):
        timed.append(run_worker(workload, seed, "timed", seconds / TIMED_SPLIT))
        spent += sum(timed[-1]["rounds"])
    setups = [w["setup_s"] for w in timed]
    while len(setups) < SETUP_SAMPLES[0] or (
            len(setups) < SETUP_SAMPLES[1] and sum(setups) < SETUP_SECONDS):
        setups.append(run_worker(workload, seed, "setup")["setup_s"])
    workers = list(timed)
    if trace:
        traced = run_worker(workload, seed, "traced")
        workers.append(traced)

    problems = [x for w in workers for x in w["problems"]]
    for line in problems[:10] + [x for w in workers for x in w["errors"]][:10]:
        print(f"{workload}: {line}", file=sys.stderr)
    rounds = [t for w in timed for t in w["rounds"]]
    if trace:
        figures = dict(traced["figures"])
        for name in AUDIT_FIGURES:
            figures.setdefault(name, [0, "s" if name.endswith("_s") else "count"])
        figures["trace.overhead_s"] = [traced["rounds"][0] - statistics.median(rounds), "s"]
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in sorted(figures.items())}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "total_s": {"value": statistics.median(rounds), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(w["peak_rss_mb"] for w in timed),
                            "unit": "MB"},
        }
        latencies = [x for w in timed for x in w["latencies_ms"]]
        metrics["op_p50_ms"] = {"value": percentile(latencies, 50), "unit": "ms"}
        metrics["op_p95_ms"] = {"value": percentile(latencies, 95), "unit": "ms"}
    result = {
        "correct": not problems,
        "attempted": sum(w["attempted"] for w in workers),
        "failed": sum(w["failed"] for w in workers),
        "metrics": metrics,
    }
    return result, (0 if result["correct"] else 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, code = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
