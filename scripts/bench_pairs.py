#!/usr/bin/env python3
"""Runs the benchmark in alternating pairs, a base revision against the
working tree, and reports every end-to-end metric per workload and seed.

usage (from the repository root):
    python3 scripts/bench_pairs.py --base REV [--pairs 10] [--seeds 1,7919]
        [--workloads a,b] [--seconds N] [--claim METRIC:WORKLOAD]

The base side is built from `git archive REV` in a temporary directory,
the change side from the working tree; each gets its own CARGO_TARGET_DIR
there, so nothing is written under .git or into the tree's build
directories. Pair i runs the base first when i is odd and the change
first when it is even; every run is `--trace 0` for `--seconds` (default:
BENCHMARK.json's `run_seconds`).

Each workload x seed row gives, per metric, both sides' median with its
quartiles, the change in percent, and in how many pairs the change read
worse. A metric is flagged when the change's median is worse than the
base's by more than its BENCHMARK.json bound, and "unresolved" when
either side's quartile spread exceeds the bound, unless every change run
reads better than every base run. `--claim METRIC:WORKLOAD` applies the
gain rule: the change wins at least nine tenths of the pairs (ties count
for neither) and the medians differ by more than the base's quartile
spread. The row also says whether the virtual metrics and the shard
fingerprints were identical on every run of both sides.

Exits 1 if a run fails: not correct, or with failed turns.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

VIRTUAL = ["ttft_p50_s", "ttft_p99_s", "slo_attain_frac", "prefill_tok_per_gpu_s"]


def build(root, target):
    """Builds perfbench in `root` into `target`; returns the binary."""
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml")],
        check=True, env={**os.environ, "CARGO_TARGET_DIR": target})
    return os.path.join(target, "release", "perfbench")


def run(side, binary, root, wl, seed, seconds):
    """One benchmark run; returns (metrics, fingerprint) or None."""
    cmd = [binary, "--workload", wl, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if out.returncode == 0 and lines else None
    if not result or not result["correct"] or result["failed"]:
        print(f"  {side} {wl} seed {seed}: FAILED\n{out.stderr[-2000:]}", flush=True)
        return None
    fingerprint = lines[0].split("fingerprint ", 1)[1]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    print(f"  {side:6s} {wl} seed {seed}: " +
          " ".join(f"{k}={v:.6g}" for k, v in metrics.items()), flush=True)
    return metrics, fingerprint


def worse_by(base, change, better):
    """How much worse `change` reads than `base`, as a share of `base`."""
    rel = (change - base) / base
    return rel if better == "lower" else -rel


def report(bench, wl, seed, pairs, claim):
    """Prints one workload x seed row; returns whether the claim was met
    (None when this row carries no claim)."""
    print(f"== {wl} seed {seed} ({len(pairs)} pairs), median [Q1, Q3] base -> change")
    met = None
    for metric in bench["end_to_end"]:
        name, bound, better = metric["name"], metric["bound"], metric["better"]
        b = [p[0][0][name] for p in pairs]
        c = [p[1][0][name] for p in pairs]
        bq1, bmed, bq3 = statistics.quantiles(b, n=4, method="inclusive")
        cq1, cmed, cq3 = statistics.quantiles(c, n=4, method="inclusive")
        worse = sum(worse_by(x, y, better) > 0 for x, y in zip(b, c))
        flags = []
        if worse_by(bmed, cmed, better) > bound:
            flags.append("WORSE THAN ITS BOUND")
        spread = max((bq3 - bq1) / bmed, (cq3 - cq1) / cmed)
        all_better = all(worse_by(x, y, better) < 0 for x in b for y in c)
        if spread > bound and not all_better:
            flags.append("unresolved")
        print(f"  {name:22s} {bmed:.4g} [{bq1:.4g}, {bq3:.4g}] -> "
              f"{cmed:.4g} [{cq1:.4g}, {cq3:.4g}]  {100 * (cmed - bmed) / bmed:+6.1f}%  "
              f"change worse {worse}/{len(pairs)}  bound {bound}"
              + "".join(f"  <-- {f}" for f in flags))
        if claim == (name, wl):
            wins = sum(worse_by(x, y, better) < 0 for x, y in zip(b, c))
            gap = -worse_by(bmed, cmed, better) * bmed
            met = wins >= 0.9 * len(pairs) and gap > bq3 - bq1
            print(f"  claim {name}: change wins {wins}/{len(pairs)}, median gap "
                  f"{gap:.4g} vs base IQR {bq3 - bq1:.4g}: {'MET' if met else 'NOT MET'}")
    runs = [side for p in pairs for side in p]
    virtual = {json.dumps([r[0][v] for v in VIRTUAL]) for r in runs}
    prints = {r[1] for r in runs}
    same = len(virtual) == 1 and len(prints) == 1
    print(f"  virtual metrics and shard fingerprints: "
          f"{'identical on' if same else 'DIFFER across'} all {len(runs)} runs")
    return met


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--base", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seeds", default="1,7919")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--claim", default=None, help="METRIC:WORKLOAD")
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 to give quartiles")
    claim = tuple(args.claim.split(":", 1)) if args.claim else None
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = args.workloads.split(",")

    with tempfile.TemporaryDirectory(prefix="bench_pairs.") as tmp:
        base_root = os.path.join(tmp, "base")
        os.mkdir(base_root)
        archive = subprocess.run(["git", "archive", args.base], check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", base_root], input=archive, check=True)
        sides = {
            "base": (build(base_root, os.path.join(tmp, "base-target")), base_root),
            "change": (build(".", os.path.join(tmp, "change-target")), "."),
        }
        ok = True
        rows = []
        for wl in workloads:
            for seed in seeds:
                pairs = []
                for i in range(1, args.pairs + 1):
                    order = ["base", "change"] if i % 2 else ["change", "base"]
                    got = {s: run(s, *sides[s], wl, seed, args.seconds) for s in order}
                    if None in got.values():
                        ok = False
                        continue
                    pairs.append((got["base"], got["change"]))
                if len(pairs) >= 2:
                    rows.append((wl, seed, pairs))
        print()
        for wl, seed, pairs in rows:
            report(bench, wl, seed, pairs, claim)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
