#!/usr/bin/env python3
"""Builds and runs the microprov service-level benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload firehose --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

The first run configures and builds the library and the benchmark in
Release under .bench_build/perfbench; later runs rebuild incrementally.
Build output goes to stderr, so the benchmark's result JSON stays the last
line of stdout. Service state lives under .bench_state/ and is removed
after each run; traced runs leave their span log in .bench_out/.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
STATE_DIR = os.path.join(ROOT, ".bench_state")
OUT_DIR = os.path.join(ROOT, ".bench_out")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
SMOKE_TIMEOUT_S = 600
# Compile jobs: enough to build in well under a minute on 4 cores
# without crowding a small machine.
BUILD_JOBS = "4"


def build():
    """Configures (first time) and builds; returns True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no microprov sources at src/; run from a full "
              "checkout", file=sys.stderr)
        return False
    configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  cwd=ROOT, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print("perfbench: build step failed: %s" % err, file=sys.stderr)
            return False
        if done.returncode != 0:
            return False
    return os.path.isfile(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=["firehose", "search_under_ingest",
                                 "flash_crowd"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload on a small stream")
    parser.add_argument("--broad-tenths", type=int, choices=range(11),
                        help="search_under_ingest's broad queries per ten "
                             "(default 3)")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in [1, 600]")

    if not build():
        return 2
    command = [BINARY, "--state-dir", STATE_DIR, "--out-dir", OUT_DIR]
    if args.smoke:
        command.append("--smoke")
    else:
        command += ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds),
                    "--trace", str(args.trace)]
        if args.broad_tenths is not None:
            command += ["--broad-tenths", str(args.broad_tenths)]
    timeout = SMOKE_TIMEOUT_S if args.smoke else RUN_TIMEOUT_S
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=timeout)
        code = done.returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print("perfbench: run exceeded %d s" % timeout, file=sys.stderr)
        code = 1
    finally:
        shutil.rmtree(STATE_DIR, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
