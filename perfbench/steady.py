"""Steadiness check: run every workload many times and report the spread.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--pause 5]
                                [--workloads a,b] [--out FILE] [--against FILE]

Runs are interleaved (run i of every workload before run i+1 of any) with
seed first_seed + i and a pause between runs, so that slow drifts of the
machine show up as spread.  For every end-to-end metric it prints the
median, the quartiles (statistics.quantiles, n=4) and their distance as a
share of the median, next to the bound in BENCHMARK.json; spreads should
stay under a third of the bound.  --out saves the runs as JSON, and
--against FILE compares these medians with a saved set.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(runs: dict, bench: dict) -> dict:
    """{workload: {metric: (median, q1, q3, spread)}} plus failed shares."""
    out = {}
    for workload, results in runs.items():
        rows = {}
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            rows[metric["name"]] = (med, q1, q3, (q3 - q1) / med)
        shares = {r["failed"] / r["attempted"] for r in results}
        out[workload] = {"metrics": rows, "failed_shares": sorted(shares),
                         "correct": all(r["correct"] for r in results)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--pause", type=float, default=5.0)
    parser.add_argument("--workloads", help="comma separated (default: all)")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    runs = {name: [] for name in names}
    for i in range(args.runs):
        for j in range(len(names)):
            name = names[(i + j) % len(names)]
            started = time.perf_counter()
            result = one_run(name, args.first_seed + i, bench["run_seconds"])
            runs[name].append(result)
            print(f"run {i + 1}/{args.runs} {name}: {time.perf_counter() - started:.0f} s, "
                  f"correct={result['correct']} failed={result['failed']}/{result['attempted']}",
                  file=sys.stderr, flush=True)
            time.sleep(args.pause)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"first_seed": args.first_seed, "runs": runs}, indent=1))

    summary = summarize(runs, bench)
    previous = None
    if args.against:
        previous = summarize(json.loads(args.against.read_text())["runs"], bench)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"{'workload':14} {'metric':12} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}" + ("  vs saved" if previous else ""))
    for workload, summ in summary.items():
        for metric, (med, q1, q3, spread) in summ["metrics"].items():
            line = (f"{workload:14} {metric:12} {med:10.4g} {q1:10.4g} {q3:10.4g} "
                    f"{spread:7.1%} {bounds[metric]:6.0%}")
            if previous and workload in previous:
                before = previous[workload]["metrics"][metric][0]
                line += f"  {med / before - 1:+7.1%}"
            print(line)
        print(f"{workload:14} failed share {summ['failed_shares']}, correct={summ['correct']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
