#!/usr/bin/env python3
"""Builds and runs the kgov end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload helpdesk-vote --seed 1 --seconds 45 --trace 0

The first run configures and builds perfbench/ (the kgov libraries from
src/ plus the load generator) into .bench_build/perfbench; later runs only
re-check the build. Build output goes to stderr. The load generator's
standard output is passed through, so the last line printed is its JSON
result. The exit code is the load generator's (non-zero when the build
fails or the correctness oracle finds a mismatch).
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("helpdesk-vote", "community-stream")
RUN_TIMEOUT_S = 170


def build(source_dir, build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", source_dir, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "kgov_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    source_dir = os.path.dirname(os.path.abspath(__file__))
    out_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(out_root, "perfbench")
    try:
        binary = build(source_dir, build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench build failed: {error}", file=sys.stderr)
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(out_root, "perfbench-runs")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
