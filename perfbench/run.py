#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload tune|serve|restart --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --test

The first call in a checkout configures and builds the library, kperfc,
the benchmark program and its tests from source into .bench_build/cmake;
later calls only bring that build up to date. Build output goes to standard error, so
the benchmark's JSON result stays the last line of standard output.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "cmake"


def build():
    if not (BUILD / "Makefile").exists():
        configure = subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr)
        if configure.returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    made = subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                          stdout=sys.stderr)
    return made.returncode == 0


def main(args):
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 3
    if args == ["--test"]:
        return subprocess.run([str(BUILD / "perfbench_test")]).returncode
    return subprocess.run([str(BUILD / "perfbench"), *args],
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
