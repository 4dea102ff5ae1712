#!/usr/bin/env python3
"""Builds the program and the benchmark from this checkout, then runs one
workload and prints its result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The build lives in .bench_build/perfbench
(CMake, Release, the repository's default options); the traced run writes
its spans to .bench_build/traces/<workload>-<seed>.json. Build output goes
to standard error, so the last line of standard output is the result line;
the line before it is the provenance line.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
TRACE_DIR = ROOT / ".bench_build" / "traces"
WORKLOADS = ("gemm_backends", "serve_saturate", "graph_pipeline", "serve_roundtrip", "serve_roundtrip_pool")
RUN_TIMEOUT_S = 150


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_sha():
    """The git commit when there is one, else a hash of the sources built."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"program sources not found under {ROOT / 'src'}; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target", "perfbench", "perfbench_selftest"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
        except (OSError, subprocess.SubprocessError) as err:
            fail(f"build step {cmd[:2]} failed: {err}")
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd[:2])} exited {done.returncode}")


def run(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the run did not end within {RUN_TIMEOUT_S} s and was stopped", 3)
    return done.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true", help="build and run the tests of the benchmark's own parts")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build()
    if args.selftest:
        sys.exit(run([str(BUILD_DIR / "perfbench_selftest")]))
    sys.stdout.flush()
    sys.exit(
        run(
            [
                str(BUILD_DIR / "perfbench"),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", repr(args.seconds),
                "--trace", str(args.trace),
                "--trace-dir", str(TRACE_DIR),
                "--source-sha", source_sha(),
            ]
        )
    )


if __name__ == "__main__":
    main()
