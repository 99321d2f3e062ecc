#!/usr/bin/env python3
"""Build and run the end-to-end serving benchmark.

    python3 perfbench/run.py --workload fleet-tenants --seed 1 \
        --seconds 40 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The benchmark is built from source into
$CARGO_TARGET_DIR (default .bench_build) on every call; an up-to-date
build is a no-op. The last line of standard output is the benchmark's
JSON result. Build output goes to standard error.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# A run must end within 180 s; leave the rest for the build check.
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(target: str) -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("run.py: no misam sources next to perfbench/; "
                 "run from a full checkout")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "-j", jobs, "--target", target],
    ]
    if (out / "CMakeCache.txt").is_file():
        steps = steps[1:]
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"run.py: build step failed: {' '.join(step)}")
    return out / target


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="40")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the helper self-tests")
    args = parser.parse_args()

    if args.selftest:
        binary = build("perfbench_selftest")
        return subprocess.run([str(binary)], cwd=ROOT).returncode
    if not args.workload:
        parser.error("--workload is required")

    binary = build("serve_bench")
    work_dir = build_dir() / "run"
    command = [str(binary), "--workload", args.workload, "--seed",
               args.seed, "--seconds", args.seconds, "--trace", args.trace,
               "--work-dir", os.path.relpath(work_dir, ROOT)]
    sys.stdout.flush()
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills and reaps the child before raising.
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
