#!/usr/bin/env python3
"""Steadiness check of the benchmark.

Runs two sets of runs of the same build, alternating between the sets
(and which set goes first), each run with its own seed. For every
workload and end-to-end metric it prints each set's median and
quartiles, the spread (interquartile distance over the median), and
whether the second set's median is within the metric's bound of the
first's in the metric's worse direction. It also checks that failed
operations are the same share of attempted ones in both sets.

Run from the repository root:

    python3 jbench/steady.py                       # 10 runs per set, every workload
    python3 jbench/steady.py --runs 3 --workloads juliet-verdict   # a quicker pass
    python3 jbench/steady.py --runs 0 --traced     # traced ops_per_s beside an untraced run

Exit code 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "1" if trace else "0",
    ]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    t0 = time.time()
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env, timeout=900)
    wall = time.time() - t0
    if p.returncode != 0:
        sys.exit(f"{' '.join(cmd)}: exit {p.returncode}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    print(f"  {workload:<16} seed {seed:<4} trace {int(trace)}  {wall:6.1f} s  "
          f"attempted {result['attempted']} failed {result['failed']} correct {result['correct']}", flush=True)
    return result


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload (default 10)")
    ap.add_argument("--workloads", default="", help="comma-separated subset (default: all)")
    ap.add_argument("--traced", action="store_true", help="also make one traced run per workload")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = [w for w in workloads if w in args.workloads.split(",")]
    metrics = bench["end_to_end"]

    results = {w: [[], []] for w in workloads}
    for i in range(args.runs):
        for s in ((0, 1) if i % 2 == 0 else (1, 0)):
            for w in workloads:
                seed = 1 + i + 1000 * s
                results[w][s].append(run_once(bench, w, seed, False))

    ok = True
    for w in workloads:
        if not args.runs:
            break
        print(f"\n{w}")
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in results[w]]
        if any(not r["correct"] for rs in results[w] for r in rs):
            print("  some run reported correct=false")
            ok = False
        print(f"  failed share per set: {shares}")
        if len(set(shares)) > 1:
            ok = False
        for m in metrics:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            line = f"  {name:<20} {m['unit']:<8}"
            meds = []
            for s, rs in enumerate(results[w]):
                med, q1, q3, spread = summary([r["metrics"][name]["value"] for r in rs])
                meds.append(med)
                line += f" | set{s + 1} med {med:12.6g} q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.2%}"
                if spread > bound:
                    line += " SPREAD>BOUND"
                    ok = False
                elif spread > bound / 3:
                    line += " (over a third of the bound)"
            worse = (meds[1] - meds[0]) / meds[0] if lower else (meds[0] - meds[1]) / meds[0]
            agree = worse <= bound
            ok &= agree
            line += f" | worse by {worse:+.2%} (bound {bound:.1%}) {'agree' if agree else 'DISAGREE'}"
            print(line)

    if args.traced:
        print("\ntraced ops_per_s beside the untraced run's")
        for w in workloads:
            traced = run_once(bench, w, 1, True)["metrics"]["trace.ops_per_s"]["value"]
            plain = run_once(bench, w, 1, False)["metrics"]["ops_per_s"]["value"]
            print(f"  {w:<16} untraced {plain:10.3f}/s  traced {traced:10.3f}/s  "
                  f"tracing overhead {plain / traced - 1:+.2%}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
