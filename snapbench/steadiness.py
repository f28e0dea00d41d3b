#!/usr/bin/env python3
"""Steadiness report for the fixed-work benchmark.

    python3 snapbench/steadiness.py [--runs 10] [--seconds 10] [--sets 1]
                                    [--workloads a,b] [--first-seed 1]

Runs every workload --runs times per set, interleaving workloads, each run
with its own seed. For each end-to-end metric it prints the median, the
quartiles (statistics.quantiles, n=4) and the spread (Q3-Q1)/median next to
the metric's bound from BENCHMARK.json, and lists each run's host steal.
With --sets 2 it runs two sets of the same code and also reports how far the
second set's median moved against the first, in the metric's worse
direction, as a share of the first median.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) of a list of run values."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worsening(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    if not first:
        return 0.0 if second == first else float("inf")
    change = (second - first) / first
    return change if better == "lower" else -change


def run_once(workload, seed, seconds):
    """Runs one benchmark invocation; returns (result, steal_pct)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run failed: {' '.join(cmd)}")
    steal = float("nan")
    for line in lines:
        if line.startswith("# host.steal_pct "):
            steal = float(line.split()[2])
    return json.loads(lines[-1]), steal


def report(name, runs, spec):
    print(f"\n== {name}  ({len(runs)} runs)")
    print("   steal_pct per run: " +
          " ".join(f"{steal:.1f}" for _, steal in runs))
    if not all(result["correct"] for result, _ in runs):
        print("   OUTPUT CHECK FAILED in at least one run")
    medians = {}
    for metric in spec["end_to_end"]:
        values = [result["metrics"][metric["name"]]["value"]
                  for result, _ in runs]
        med, q1, q3, rel = spread(values)
        medians[metric["name"]] = med
        flag = "" if rel <= metric["bound"] / 3 else "  <-- above bound/3"
        print(f"   {metric['name']:<22} median {med:12.4f} {metric['unit']:<4}"
              f" q1 {q1:12.4f} q3 {q3:12.4f} spread {rel:7.4f}"
              f" (bound {metric['bound']}){flag}")
    return medians


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])

    set_medians = []
    seed = args.first_seed
    for set_index in range(args.sets):
        runs = {w: [] for w in workloads}
        for _ in range(args.runs):
            for w in workloads:
                runs[w].append(run_once(w, seed, seconds))
                seed += 1
        print(f"\n##### set {set_index + 1}")
        set_medians.append({w: report(w, runs[w], spec) for w in workloads})

    if args.sets == 2:
        print("\n##### set 2 median vs set 1 median (worse direction)")
        for w in workloads:
            for metric in spec["end_to_end"]:
                name = metric["name"]
                worse = worsening(set_medians[0][w][name],
                                  set_medians[1][w][name], metric["better"])
                flag = "" if worse <= metric["bound"] else "  <-- beyond bound"
                print(f"   {w:<18} {name:<22} {worse:+8.4f}"
                      f" (bound {metric['bound']}){flag}")


if __name__ == "__main__":
    main()
