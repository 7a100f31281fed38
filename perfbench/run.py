#!/usr/bin/env python3
"""Builds and runs loop_bench, the end-to-end benchmark of the
click -> HIFUN -> SPARQL -> answer loop.

    python3 perfbench/run.py --workload olap-distinct --seed 1 --seconds 20 --trace 0

Run it from the repository root. It configures and builds perfbench/ (which
compiles the engine from src/) into $CARGO_TARGET_DIR, or .bench_build when
that is unset; generates the seeded product KG as an RDFA3 snapshot outside
any timed window; runs the workload; and relays the benchmark's output,
whose last line is the JSON result. The exit code is the benchmark's.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("olap-distinct", "facet-sessions", "olap-rw")
RUN_TIMEOUT_S = 170


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def quiet(cmd, timeout):
    """Runs a build or preparation step with its output on stderr."""
    subprocess.run(cmd, stdout=sys.stderr, check=True, timeout=timeout)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.join(build_root(), "perfbench")
    data_dir = os.path.join(build_root(), "perfbench-data")
    os.makedirs(data_dir, exist_ok=True)
    binary = os.path.join(build_dir, "loop_bench")
    snapshot = os.path.join(data_dir, "kg-seed%d.rdfa3" % args.seed)
    try:
        quiet(["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], timeout=300)
        quiet(["cmake", "--build", build_dir, "--target", "loop_bench",
               "-j", str(min(4, os.cpu_count() or 1))], timeout=850)
        quiet([binary, "--prepare", "--seed=%d" % args.seed,
               "--snapshot=" + snapshot], timeout=60)
        bench = subprocess.run(
            [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
             "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
             "--snapshot=" + snapshot, "--out-dir=" + data_dir],
            timeout=RUN_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as err:
        print("perfbench: %s" % err, file=sys.stderr)
        return 1
    finally:
        if os.path.exists(snapshot):
            os.remove(snapshot)
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
