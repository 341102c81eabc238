"""Command line of the repo benchmark.

    python3 -m benchmarks.e2e --workload NAME [--seed N] [--seconds S]
                              [--trace 0|1] [--out DIR] [--smoke]
    python3 -m benchmarks.e2e --check
    python3 -m benchmarks.e2e compare A B

One workload per invocation and no parallel mode: host times are only
comparable when nothing else the benchmark started shares the host.
"""

from __future__ import annotations

import argparse
import os
import sys

from benchmarks.e2e import SRC, TMP_PARENT


def _use_this_checkout() -> None:
    """Import ``repro`` from this checkout, here and in every child
    process (the server, its pool, the import probe), and keep
    anything the simulator would write on its own inside it."""
    sys.path.insert(0, SRC)
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (
        os.pathsep + inherited if inherited else "")
    os.environ["REPRO_CACHE_DIR"] = os.path.join(TMP_PARENT,
                                                 "default-cache")
    os.environ.pop("REPRO_REPORT_DIR", None)


def _workloads() -> dict:
    from benchmarks.e2e.figsweep import FigSweep
    from benchmarks.e2e.serve import Serve
    from benchmarks.e2e.sims import Paper16, Scale
    return {w.name: w for w in (Paper16, Scale, FigSweep, Serve)}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the benchmark measures the simulator in {SRC}, "
              f"which is not there", file=sys.stderr)
        return 2
    _use_this_checkout()
    if argv[:1] == ["compare"]:
        from benchmarks.e2e.compare import main as compare
        return compare(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python3 -m benchmarks.e2e", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload",
                        help="paper16, scale, figsweep or serve")
    parser.add_argument("--seed", type=int, default=0,
                        help="0 keeps the apps' built-in seeds")
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long to measure (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the per-layer metrics, from a traced "
                             "run; 0: the end-to-end metrics")
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="also write the full result (passes, "
                             "spans, per-config shares) there")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one pass: checks the "
                             "plumbing, measures nothing")
    parser.add_argument("--check", action="store_true",
                        help="smoke-run every workload and compare the "
                             "names printed with BENCHMARK.json")
    args = parser.parse_args(argv)

    if args.check:
        from benchmarks.e2e.check import main as check
        return check()
    from benchmarks.e2e.core import load_declaration, run_workload
    workloads = _workloads()
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {sorted(workloads)}")
    seconds = args.seconds if args.seconds is not None \
        else load_declaration()["run_seconds"]
    return run_workload(workloads[args.workload], seed=args.seed,
                        seconds=seconds, trace=bool(args.trace),
                        smoke=args.smoke, out_dir=args.out)


if __name__ == "__main__":
    raise SystemExit(main())
