#!/usr/bin/env python3
"""Steadiness check for the kgov benchmark.

Runs each workload several times, each with another seed, through
perfbench/run.py and prints, for every end-to-end metric, the median, the
quartiles and the spread (interquartile distance as a share of the median)
next to the metric's bound from BENCHMARK.json. The host (nproc, build
type, git revision) is recorded with the results.

Run from the repository root:

    python3 perfbench/steady.py                      # 10 seeds, all workloads
    python3 perfbench/steady.py --runs 5 --workloads community-stream
    python3 perfbench/steady.py --trace 1            # per-layer metrics

Results are written to .bench_build/perfbench-steady.json (see --out).
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time


def host_info(out_root):
    revision = "unknown"
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    build_type = "unknown"
    cache = os.path.join(out_root, "perfbench", "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
    return {"nproc": os.cpu_count(), "build_type": build_type,
            "git_revision": revision}


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed} failed "
                         f"(exit {proc.returncode})")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    result["log"] = lines[:-1]
    return result


def host_steal(log):
    """The hypervisor steal share a run printed for its measured load."""
    for line in log:
        m = re.search(r"steal during the measured load: ([\d.]+)%", line)
        if m:
            return m.group(1)
    return "?"


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=names,
                        choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
        "perfbench-steady.json"))
    args = parser.parse_args()

    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    report = {"host": None, "seconds": args.seconds, "trace": args.trace,
              "workloads": {}}
    ok = True
    for workload in args.workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: {result['wall_s']:.1f} s, "
                  f"correct={result['correct']}, host steal "
                  f"{host_steal(result['log'])}% of busy CPU time",
                  flush=True)
        report["host"] = host_info(build_root)
        rows = {}
        print(f"\n{workload} ({args.runs} runs, {args.seconds:g} s each)")
        print(f"  {'metric':30} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3, sp = spread(values) if len(values) > 1 else (
                values[0], values[0], values[0], 0.0)
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                if sp > bound:
                    flag, ok = "OVER", False
                elif sp > bound / 3:
                    flag = ">1/3"
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                               "spread": sp, "bound": bound,
                               "values": values}
            bound_text = f"{bound:6.3f}" if bound is not None else "     -"
            print(f"  {m['name']:30} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{sp:8.4f} {bound_text} {flag}")
        report["workloads"][workload] = {"runs": runs, "metrics": rows}
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
    print(f"\nhost: {report['host']}\nresults -> {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
