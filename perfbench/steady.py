#!/usr/bin/env python3
"""Steadiness check: runs every workload N times through run.py, with a
different seed each time and the workload order alternating between passes,
then prints the median and quartiles of each end-to-end metric and flags
every metric whose spread (interquartile range over median) exceeds its
bound in BENCHMARK.json. Run r uses seed r (1..N).

    python3 perfbench/steady.py [--runs 10] [--seconds S] [--workloads a,b] [--verbose]

Run from the repository root. Exits 1 when a spread exceeds its bound, when
a run fails, or when the share of failed operations differs between runs.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}")
    return json.loads(lines[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--verbose", action="store_true", help="also print every run's value")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = {w: [] for w in workloads}
    for r in range(args.runs):
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        for w in order:
            res = run_once(w, r + 1, args.seconds)
            results[w].append(res)
            print(f"run {r + 1}/{args.runs} {w}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']}", flush=True)

    bad = False
    for w in workloads:
        runs = results[w]
        print(f"\n{w}")
        print(f"  {'metric':34} {'q1':>14} {'median':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                if spread > bound:
                    flag, bad = "OVER", True
                elif spread > bound / 3:
                    flag = "over 1/3"
            print(f"  {name:34} {q1:14.6g} {med:14.6g} {q3:14.6g} {spread:8.3f} "
                  f"{'' if bound is None else bound:>6} {flag}")
            if args.verbose:
                print("      " + " ".join(f"{v:.5g}" for v in values))
        shares = {r["failed"] / r["attempted"] if r["attempted"] else None for r in runs}
        correct = all(r["correct"] for r in runs)
        print(f"  correct in every run: {correct}; failed shares: {sorted(shares, key=str)}")
        bad = bad or not correct or len(shares) != 1 or None in shares
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
