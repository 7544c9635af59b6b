#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
Camus libraries and the benchmark program into .bench_build/perfbench (RelWithDebInfo,
the repository's default); later calls only re-check the build. The
program's last stdout line is the result JSON; build output and the program's
diagnostics go to stderr. Exits non-zero when the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "camus_perfbench")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.stderr.write("perfbench: no src/ next to perfbench/; run from a "
                         "checkout of the repository\n")
        return 1
    if not build():
        return 1
    done = subprocess.run([BINARY] + sys.argv[1:], stdout=subprocess.PIPE,
                          stderr=sys.stderr, cwd=ROOT)
    sys.stdout.write(done.stdout.decode())
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
