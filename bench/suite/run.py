#!/usr/bin/env python3
"""Build bench_suite from this checkout's sources, then run it.

Run from anywhere inside the checkout; every argument is passed through:

    python3 bench/suite/run.py                         # all workloads
    python3 bench/suite/run.py --workload consensus-chaos --seed 5 \\
        --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR/suite (default .bench_build/suite,
relative to the checkout root) and build output goes to stderr, so stdout
carries only bench_suite's report. Without --out, the results JSON is
written to <build>/results/. The exit code is bench_suite's, or 2 when the
build fails.
"""
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "suite")


def build(directory):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: library sources (src/) not found in this checkout",
              file=sys.stderr)
        return False
    steps = []
    if not os.path.exists(os.path.join(directory, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", directory,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", directory, "--target", "bench_suite",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            print("run.py: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main(args):
    directory = build_dir()
    if not build(directory):
        return 2
    if "--out" not in args:
        results = os.path.join(directory, "results")
        os.makedirs(results, exist_ok=True)
        name = "results-%d-%d.json" % (time.time_ns(), os.getpid())
        args = args + ["--out", os.path.join(results, name)]
    binary = os.path.join(directory, "bench_suite")
    return subprocess.run([binary] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
