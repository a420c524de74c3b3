"""Benchmark entry point.

    python3 perfbench/run.py --workload storm --seed 42 --seconds 15 --trace 0

runs one workload in this process and prints, as the last line of
standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``.  The traced run
also writes its spans to ``.bench_build/perfbench/``.

``--workload all`` runs every workload, each in a fresh process so
that its peak memory is its own, and prints one table; it exits 1 if
any workload had a failed operation.

Run it from the root of a checkout: the program is imported from
``src/``.  Without that source the run exits with status 2 and prints
no result.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("storm", "chaos_control", "shards", "paper_matrix")

#: BLAS/OpenMP pools are pinned to one thread before numpy loads, so
#: a run uses one core whatever the machine.
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_one(args) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program source at %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    if args.trace:
        out_dir = ROOT / ".bench_build" / "perfbench"
        out_dir.mkdir(parents=True, exist_ok=True)
        tally, metrics = harness.trace(
            workload, args.seed, args.seconds,
            spans_path=out_dir / ("spans-%s-seed%d.json"
                                  % (args.workload, args.seed)),
        )
    else:
        tally, metrics = harness.measure(workload, args.seed, args.seconds)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table at the end."""
    results = {}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=str(ROOT), stdout=subprocess.PIPE,
                              universal_newlines=True)
        if done.returncode != 0:
            print("perfbench: %s exited %d" % (name, done.returncode),
                  file=sys.stderr)
            return done.returncode
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    width = max(len(metric) for result in results.values()
                for metric in result["metrics"])
    print("%-*s %-6s %s" % (width, "metric", "unit",
                            " ".join("%14s" % name for name in results)))
    first = next(iter(results.values()))["metrics"]
    for metric, entry in first.items():
        print("%-*s %-6s %s" % (width, metric, entry["unit"], " ".join(
            "%14.6g" % result["metrics"][metric]["value"]
            for result in results.values())))
    print("%-*s %-6s %s" % (width, "failed/attempted", "", " ".join(
        "%14s" % ("%d/%d" % (result["failed"], result["attempted"]))
        for result in results.values())))
    return 0 if all(result["correct"] for result in results.values()) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
