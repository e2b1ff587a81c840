#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each end-to-end metric's
median and quartile spread (Q3 - Q1 as a share of the median) against its
bound in BENCHMARK.json. With --sets 2 it runs the seeds twice, back to
back, and also reports how far the second set's median moved from the
first's, in the metric's worse direction, against the same bound.

usage (from the repository root):
    python3 perfbench/spread.py [--seeds 1-10] [--workloads a,b] [--seconds N] [--sets N]

Exits 1 if a run fails its checks, or if a spread or a median shift
exceeds its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_set(bench, wl, seeds, seconds):
    """Runs one workload once per seed; returns {metric: [values]}."""
    values = {}
    ok = True
    for seed in seeds:
        cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True)
        result = json.loads(out.stdout.strip().splitlines()[-1]) if out.returncode == 0 else None
        if not result or not result["correct"] or result["failed"]:
            print(f"  {wl} seed {seed}: FAILED\n{out.stderr[-2000:]}")
            ok = False
            continue
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"  {wl} seed {seed}: " + " ".join(
            f"{name}={m['value']:.6g}" for name, m in result["metrics"].items()), flush=True)
    return values, ok


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--sets", type=int, default=1)
    args = ap.parse_args()
    first, last = map(int, args.seeds.split("-"))
    seeds = range(first, last + 1)
    ok = True
    for wl in args.workloads.split(","):
        medians = []
        for s in range(args.sets):
            values, ran = run_set(bench, wl, seeds, args.seconds)
            ok &= ran
            print(f"== {wl} set {s + 1} ({len(seeds)} seeds)")
            meds = {}
            for metric in bench["end_to_end"]:
                name, bound = metric["name"], metric["bound"]
                v = values.get(name, [])
                if len(v) < 2:
                    continue
                med = meds[name] = statistics.median(v)
                q1, _, q3 = statistics.quantiles(v, n=4)
                spread = (q3 - q1) / med
                flag = ""
                if spread > bound:
                    flag = "  <-- OVER THE BOUND"
                    # The contract exempts set-up time from the spread bound.
                    ok &= name == "setup_s"
                elif spread > bound / 3:
                    flag = "  <-- over a third of the bound"
                print(f"  {name:24s} median {med:12.6g}  spread {spread:6.3f}  bound {bound}{flag}")
            medians.append(meds)
        for s in range(1, len(medians)):
            print(f"== {wl} set {s + 1} against set 1, worse-direction median shift")
            for metric in bench["end_to_end"]:
                name, bound = metric["name"], metric["bound"]
                if name not in medians[0] or name not in medians[s]:
                    continue
                a, b = medians[0][name], medians[s][name]
                shift = (b - a) / a if metric["better"] == "lower" else (a - b) / a
                flag = ""
                if shift > bound:
                    flag = "  <-- OVER THE BOUND"
                    ok = False
                print(f"  {name:24s} {a:12.6g} -> {b:12.6g}  worse by {shift:+7.3f}  bound {bound}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
