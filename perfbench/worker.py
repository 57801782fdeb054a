"""One benchmark worker process: set up a workload, time rounds, check them.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE [--budget S]

MODE is one of
  warm    import the program and exit (compiles bytecode, warms the file cache)
  setup   set up the workload and report the set-up time only
  timed   set up, then time rounds until --budget seconds of program calls
          (one round for workloads whose rounds need a fresh process)
  traced  install the tracer, then set up and time one round

The last line of standard output is one JSON object.  setup_s runs from
the first statement of this file to the first timed call.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _import_program():
    import cyclosum

    where = Path(cyclosum.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"cyclosum was imported from {where}, not from this checkout")


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("warm", "setup", "timed", "traced"))
    parser.add_argument("--budget", type=float, default=0.0)
    args = parser.parse_args(argv)

    _import_program()
    if args.mode == "warm":
        print(json.dumps({}))
        return 0

    tracer = None
    if args.mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.setup()
    setup_s = time.perf_counter() - _STARTED
    out = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    rounds = []
    while True:
        rounds.append(workload.run_round(len(rounds), tracer))
        spent = sum(r.total_s for r in rounds)
        if tracer is not None or not workload.repeatable or spent >= args.budget:
            break
    if tracer is not None:
        tracer.uninstall()

    out.update(
        rounds=[r.total_s for r in rounds],
        latencies_ms=[x for r in rounds for x in r.latencies_ms],
        attempted=sum(r.attempted for r in rounds),
        failed=sum(r.failed for r in rounds),
        problems=[x for r in rounds for x in r.problems],
        errors=[x for r in rounds for x in r.errors],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        figures = {name: [value, unit] for name, (value, unit) in tracer.metrics().items()}
        for name, value in rounds[0].figures.items():
            figures[name] = [value, "s" if name.endswith("_s") else "count"]
        out["figures"] = figures
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
