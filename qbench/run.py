#!/usr/bin/env python3
"""Build the qbench program from this checkout's sources and run one workload.

    python3 qbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The program and the qcache libraries it
links are built with CMake into .bench_build/qbench (the first run builds,
later runs only check that the build is current). Build output goes to
standard error; standard output carries the run's detail lines and, as its
last line, the result JSON. See qbench/README.md.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "qbench")
BINARY = os.path.join(BUILD, "qbench")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "-j", jobs]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("qbench: build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    with subprocess.Popen(command, cwd=ROOT) as proc:
        try:
            sys.exit(proc.wait(timeout=RUN_TIMEOUT_S))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            sys.exit("qbench: run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    main()
