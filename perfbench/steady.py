#!/usr/bin/env python3
"""Steadiness check for perfbench: two interleaved sets of runs.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--save out.json]

Run from the repository root. For every workload it makes --runs runs
in each of two sets, alternating A, B, A, B ... (each run with its own
seed), the way a before/after comparison alternates parent and change.
For each end-to-end metric it prints each set's median and its spread
(first-to-third quartile distance as a share of the median, from
statistics.quantiles(values, n=4)) and how much worse B's median is
than A's. A metric passes when its spread is within its
BENCHMARK.json bound and B is no worse than A by more than the bound;
"steady" marks spreads below a third of the bound. setup_s passes on
its medians alone, as in the benchmark's acceptance rule: a set-up
lasts under a second, so one host phase sets each run's figure. With
--runs 1 it is the one command that prints every workload's metrics,
batch counts and correctness verdicts. A run that fails is reported
with the tail of its stderr and left out of the figures. Exits 1 if
any run fails or is incorrect, or any metric fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    notes = [line for line in lines if line.startswith("#")]
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        print("run failed (exit %d): %s\n%s\nstderr, last lines:\n%s" %
              (done.returncode, " ".join(cmd), done.stdout,
               "\n".join(done.stderr.splitlines()[-20:])), flush=True)
        return None, notes
    return json.loads(lines[-1]), notes


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save", help="write every run's result here (JSON)")
    args = parser.parse_args()

    workloads = args.workloads.split(",")
    sets = {(w, s): [] for w in workloads for s in "AB"}
    ok = True
    seed = args.first_seed
    for i in range(args.runs):
        for workload in workloads:
            for side in ("A", "B") if args.runs > 1 else ("A",):
                result, notes = run_once(workload, seed,
                                         bench["run_seconds"])
                seed += 1
                if result is None:
                    ok = False
                    continue
                ok &= result["correct"] and result["failed"] == 0
                sets[(workload, side)].append(result)
                print("%s run %d%s seed %d: correct=%s attempted=%d "
                      "failed=%d" % (workload, i, side, seed - 1,
                                     result["correct"], result["attempted"],
                                     result["failed"]), flush=True)
                if args.runs == 1:
                    for note in notes:
                        print("  " + note)

    if args.save:
        with open(args.save, "w") as f:
            json.dump({"%s/%s" % key: runs for key, runs in sets.items()}, f)

    for workload in workloads:
        print("\n%s" % workload)
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in sets[(workload, "A")]]
            b = [r["metrics"][name]["value"] for r in sets[(workload, "B")]]
            unit = metric["unit"]
            if args.runs == 1:
                print("  %-26s %14.6g %s" % (name, a[0], unit) if a else
                      "  %-26s no result" % name)
                continue
            if min(len(a), len(b)) < 2:
                print("  %-26s too few successful runs" % name)
                ok = False
                continue
            bound = metric["bound"]
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a if med_a else 0.0
            if metric["better"] == "higher":
                worse = -worse
            sa, sb = spread(a), spread(b)
            line = ("  %-26s A %12.6g (spread %5.1f%%)  B %12.6g "
                    "(spread %5.1f%%)  B worse by %+5.1f%%" %
                    (name, med_a, 100 * sa, med_b, 100 * sb, 100 * worse))
            spread_ok = name == "setup_s" or max(sa, sb) <= bound
            passed = spread_ok and worse <= bound
            steady = max(sa, sb) < bound / 3
            ok &= passed
            line += "  bound %4.1f%% %s%s" % (
                100 * bound, "pass" if passed else "FAIL",
                ", steady" if steady and passed else "")
            print(line)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
