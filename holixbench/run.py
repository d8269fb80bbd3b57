#!/usr/bin/env python3
"""Builds the holixbench driver from this checkout and runs one workload.

    python3 holixbench/run.py --workload explore|serve|restart --seed N \
        --seconds S --trace 0|1 [--scale full|tiny]

Run it from the root of the checkout. The engine is built from the sources
beside this directory into $CARGO_TARGET_DIR (default .bench_build); build
output goes to stderr, so the last line of stdout is the driver's JSON
result. The exit code is the driver's: 0 only when every answer matched the
oracle.
"""

import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target


def build(target):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("holixbench: no engine sources next to the benchmark; "
                 "run it from a full checkout")
    bdir = target / "holixbench"
    if not (bdir / "build.ninja").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir), "-G", "Ninja",
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(bdir), "--target", "holixbench",
                    "--", "-j4"], check=True, stdout=sys.stderr)
    return bdir / "holixbench"


def main():
    target = build_dir()
    try:
        exe = build(target)
    except subprocess.CalledProcessError as e:
        sys.exit(f"holixbench: build failed ({e})")
    out_dir = target / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(exe), *sys.argv[1:], "--out-dir", str(out_dir)]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"holixbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
