#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark.

    python3 holixbench/selftest.py

Runs every workload of the driver once untraced and once traced at
--scale tiny (same code paths, small inputs, every answer checked by the
oracle), including serve, which BENCHMARK.json leaves out (README.md).
Fails when a metric BENCHMARK.json names is missing from a result, or when
any operation failed (failed_frac != 0).
"""

import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = ("explore", "serve", "restart")


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    problems = []
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace),
                   "--scale", "tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=600)
            label = f"{name} --trace {trace}"
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                problems.append(f"{label}: no result (exit {proc.returncode}): "
                                f"{proc.stderr.strip()[-400:]}")
                continue
            missing = [m["name"] for m in spec[key]
                       if m["name"] not in result["metrics"]]
            if missing:
                problems.append(f"{label}: missing {', '.join(missing)}")
            if result["failed"] != 0 or proc.returncode != 0:
                problems.append(f"{label}: failed_frac = {result['failed']} / "
                                f"{result['attempted']} (exit {proc.returncode})")
            print(f"{label}: {result['attempted']} ops, {result['failed']} "
                  f"failed, {len(result['metrics'])} metrics")
    if problems:
        print("\n".join(problems))
        sys.exit(1)
    print("self-test passed")


if __name__ == "__main__":
    main()
