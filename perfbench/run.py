#!/usr/bin/env python3
"""Builds the CDCL benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload train_digits --seed 1 --seconds 15 --trace 0

The build goes to .bench_build/perfbench (CMake, Release). Every run
re-invokes the build, which is a no-op once the binary is current. The
benchmark binary prints a report header and, as its last stdout line, one
JSON object with the keys correct, attempted, failed and metrics. Build
output goes to stderr so stdout carries only the report. Exits non-zero,
without a result line, when the build or the run fails.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "cdcl_perfbench")


def build():
    """Configures and builds the benchmark; returns True on success."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    jobs = str(max(1, os.cpu_count() or 1))
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")) and \
            shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    # One build at a time per checkout; concurrent runs wait here.
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in (configure,
                    ["cmake", "--build", BUILD_DIR, "-j", jobs]):
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT).returncode != 0:
                return False
    return os.path.exists(BINARY)


def git_sha():
    """The checkout's commit, or "unknown" outside a git work tree."""
    # The ceiling keeps git from walking up out of the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=ROOT, env=env, capture_output=True,
                             text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    scratch = os.path.join(BUILD_ROOT, "scratch", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha())
    try:
        proc = subprocess.run(
            [BINARY, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--scratch", scratch,
             "--trace-dir", os.path.join(BUILD_ROOT, "traces")],
            cwd=ROOT, env=env, timeout=170)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
