#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of benchmark runs of one build.

    python3 perfbench/steady.py [--workloads pagefault,fleet] [--runs 10]
                                [--seconds N]

Run from the repository root. Builds once (as run.py does), then for each
workload makes --runs rounds; each round runs set A then set B, or B then A
on odd rounds, every run with its own --seed (set A: 1..runs, set B:
runs+1..2*runs). For each end-to-end metric of BENCHMARK.json it prints
each set's median and quartiles, the spread (q3 - q1) / median, and the gap
|B - A| / A between the two set medians (with its sign in the metric's
worse direction), each against the metric's bound. A spread must stay
within the bound (ok) and should stay within a third of it (steady); the
gap must stay within the bound either way. The share of failed operations
must be the same in both sets. Exits 1 when a rule is broken.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ beside the sources
import run as runner  # noqa: E402


def one_run(binary, workload, seed, seconds):
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("steady: %s seed %d failed (exit %d): %s" %
                 (workload, seed, done.returncode, done.stderr.strip()[-400:]))
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return statistics.quantiles(values, n=4)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", help="comma-separated (default: every workload)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args()

    with open(os.path.join(runner.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    binary = runner.build("pvmbench")

    broken = []
    for workload in workloads:
        sets = [[], []]
        for i in range(args.runs):
            for s in ((0, 1) if i % 2 == 0 else (1, 0)):
                result = one_run(binary, workload, 1 + i + s * args.runs, seconds)
                if not result["correct"]:
                    broken.append("%s: a run reported correct=false" % workload)
                sets[s].append(result)
        print("== %s: %d run(s) per set, %d s each" % (workload, args.runs, seconds))
        shares = ["%d/%d" % (sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs))
                  for rs in sets]
        share_values = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                        for rs in sets]
        print("   failed share per set: %s" % ", ".join(shares))
        if len(set(share_values)) != 1:
            broken.append("%s: failed share differs between sets" % workload)
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = []
            for s, rs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in rs]
                q1, q2, q3 = quartiles(values)
                spread = (q3 - q1) / q2
                stats.append(q2)
                verdict = "steady" if spread <= bound / 3 else ("ok" if spread <= bound else "WIDE")
                if spread > bound:
                    broken.append("%s %s: set %s spread %.3f > bound %.2f" %
                                  (workload, name, "AB"[s], spread, bound))
                print("   %-14s set %s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.3f "
                      "(bound %.2f) %s" % (name, "AB"[s], q2, q1, q3, spread, bound, verdict))
                print("   %-14s set %s runs: %s" %
                      ("", "AB"[s], " ".join("%.4g" % v for v in values)))
            worse = (stats[1] - stats[0]) / stats[0]
            if metric["better"] == "higher":
                worse = -worse
            within = abs(worse) <= bound
            if not within:
                broken.append("%s %s: set medians differ by %.3f > %.2f" %
                              (workload, name, abs(worse), bound))
            print("   %-14s gap B vs A %+.3f in the worse direction: %s" %
                  (name, worse, "within bound" if within else "OUT OF BOUND"))
    for line in broken:
        print("steady: " + line)
    print("steady: %s" % ("every rule holds" if not broken else "%d rule(s) broken" % len(broken)))
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
