#!/usr/bin/env python3
"""Checks that the round benchmark is steady across seeds.

Runs the benchmark command from BENCHMARK.json once per seed (and
--repeat times over the whole seed list), then prints, for every
end-to-end metric, the median, the quartiles and the spread (distance
between the quartiles as a share of the median) beside the metric's
bound. A spread above a third of the bound is flagged. It also prints
how many distinct report digests each seed produced across repeats.
Each run's full output is kept in .bench_build/steady/.

    python3 roundbench/steady.py --workload fleet-insitu --seeds 1-10
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench, workload, seed, trace, rep):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    keep = os.path.join(ROOT, ".bench_build", "steady")
    os.makedirs(keep, exist_ok=True)
    with open(os.path.join(keep, f"{workload}-trace{trace}-seed{seed}-pass{rep + 1}.txt"), "w") as f:
        f.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    found = re.search(r"digest (\w+)", proc.stdout)
    return json.loads(lines[-1]), found.group(1) if found else None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--repeat", type=int, default=1, help="passes over the seed list")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]

    values = {m["name"]: [] for m in metrics}
    digests = {}
    bad = 0
    for rep in range(args.repeat):
        for seed in seed_list(args.seeds):
            res, dig = run_once(bench, args.workload, seed, args.trace, rep)
            digests.setdefault(seed, set()).add(dig)
            if not res["correct"] or res["failed"]:
                bad += 1
            for name in values:
                values[name].append(res["metrics"][name]["value"])
            print(f"pass {rep + 1} seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())
                             if args.trace == 0), flush=True)

    print(f"\n{args.workload}: {len(next(iter(values.values())))} runs, {bad} not correct")
    if args.trace == 0:
        print(f"{'metric':28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for m in metrics:
            xs = values[m["name"]]
            q1, q2, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            flag = "" if spread <= m["bound"] / 3 else "  <-- above bound/3"
            print(f"{m['name']:28} {q2:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} {m['bound']:6.2f}{flag}")
    print("distinct report digests per seed:",
          {seed: len(d) for seed, d in sorted(digests.items())})


if __name__ == "__main__":
    main()
