#!/usr/bin/env python3
"""Steadiness check for the FedMart benchmark.

Runs two sets of ten untraced runs of one build, seeds 1..10 and
1001..1010, each for BENCHMARK.json's run_seconds, and prints per
workload and end-to-end metric both sets' medians and quartiles, the
spread (interquartile range over median) and whether the sets agree:
the two medians may differ by at most the metric's bound in
BENCHMARK.json, in either direction, and every spread but that of
setup_s must stay within the bound (setup_s is already the median of
several set-ups inside each run). Also checks that the share of failed
operations is the same in every run.

    python3 fedbench/steady.py                      # every workload
    python3 fedbench/steady.py --workloads lookup   # re-check one workload

Run it from anywhere; it runs the benchmark command from the
repository root. Exit status 1 when any check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed, seconds):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    started = time.monotonic()
    out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - started
    return result


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


RUNS = 10
FIRST_SEEDS = (1, 1001)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", help="comma-separated subset (default: all)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    runs = {}
    for w in workloads:
        for s, first in enumerate(FIRST_SEEDS):
            for seed in range(first, first + RUNS):
                r = run_once(spec, w, seed, seconds)
                runs.setdefault(w, [[] for _ in FIRST_SEEDS])[s].append(r)
                print(f"{w} set {s + 1} seed {seed}: {r['attempted']} ops, "
                      f"{r['failed']} failed, {r['wall_s']:.1f}s", file=sys.stderr)

    ok = True
    for w in workloads:
        sets = runs[w]
        print(f"\n== {w} ({RUNS} runs per set, {seconds}s each)")
        shares = [{r["failed"] / r["attempted"] for r in rs} for rs in sets]
        if any(len(s) != 1 for s in shares) or len(set().union(*shares)) != 1:
            ok = False
            print(f"  failed share differs between runs: {shares}  FAIL")
        else:
            print(f"  failed share {shares[0].pop():.6f} in every run")
        if not all(r["correct"] for rs in sets for r in rs):
            ok = False
            print("  some run reported correct=false  FAIL")
        print(f"  {'metric':<20} {'bound':>6}  " + "  ".join(
            f"{'set ' + str(i + 1) + ' median [q1, q3] spread':>44}" for i in range(len(sets))) + "  verdict")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sums = [summary([r["metrics"][name]["value"] for r in rs]) for rs in sets]
            verdict = []
            for s in sums:
                if name != "setup_s" and s["spread"] > bound:
                    verdict.append("spread>bound")
                elif name != "setup_s" and s["spread"] > bound / 3:
                    verdict.append("spread>bound/3")
            first, second = sums[0]["median"], sums[1]["median"]
            if abs(second - first) / first > bound:
                verdict.append("medians disagree")
            hard = any(v in ("spread>bound", "medians disagree") for v in verdict)
            ok &= not hard
            cells = "  ".join(
                f"{s['median']:>12.4f} [{s['q1']:>10.4f}, {s['q3']:>10.4f}] {100 * s['spread']:>5.1f}%" for s in sums)
            print(f"  {name:<20} {bound:>6.2f}  {cells}  {', '.join(verdict) or 'ok'}")
    print("\nsteady" if ok else "\nNOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
