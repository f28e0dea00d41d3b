#!/usr/bin/env python3
"""Builds and runs the fixed-work benchmark.

    python3 snapbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 snapbench/run.py --self-test

Run from anywhere inside a checkout of the repository. The first call
configures and builds the library and the snapbench binary into
.bench_build/ at the repository root (later calls rebuild incrementally);
build output goes to stderr. The binary's last stdout line is the JSON
result. Traced runs write their spans to .bench_build/spans/. --self-test
builds and runs the benchmark's own tests.
"""
import argparse
import os
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "snapbench"
SPANS = ROOT / ".bench_build" / "spans"


def build(target):
    """Configures (once) and builds `target`; returns False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", target,
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print(f"snapbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


def self_test():
    if not build("snapbench_test"):
        return 1
    if subprocess.run([str(BUILD / "snapbench_test")]).returncode:
        return 1
    suite = unittest.defaultTestLoader.discover(str(HERE), pattern="test_*.py")
    ok = unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful()
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    if not build("snapbench"):
        return 1
    SPANS.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD / "snapbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--span-dir", str(SPANS)]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
