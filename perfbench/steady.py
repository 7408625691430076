#!/usr/bin/env python3
"""Steadiness check: run workloads several times, each with its own seed,
and print for every metric the median, the quartiles, the max/min ratio and
the spread (interquartile distance as a share of the median).  A metric whose
spread exceeds its bound in BENCHMARK.json is flagged.

    python3 perfbench/steady.py [--workload NAME|all] [--runs 10] [--seed0 1]
                                [--save FILE] [--against FILE]

Each run lasts run_seconds from BENCHMARK.json.

--save writes every value to FILE (JSON); --against FILE compares this set's
medians with a saved set's: each metric's median may not be worse than the
saved one by more than its bound, and the share of failed ops must be the
same.  Run from the root of a checkout.  Exits 1 when anything is flagged.
"""
import argparse
import functools
import json
import os
import statistics
import subprocess
import sys

print = functools.partial(print, flush=True)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed, seconds):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if p.returncode != 0:
        sys.exit(f"{' '.join(cmd)}: exit {p.returncode}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", default="all")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--save")
    ap.add_argument("--against")
    a = ap.parse_args()
    spec = load_spec()
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]
    names = ([w["name"] for w in spec["workloads"]]
             if a.workload == "all" else [a.workload])
    saved = {}
    if a.against:
        with open(a.against) as f:
            saved = json.load(f)
    out = {}
    flagged = []
    for w in names:
        results = [run_once(spec, w, a.seed0 + i, seconds)
                   for i in range(a.runs)]
        share = [r["failed"] / r["attempted"] for r in results]
        vals = {m["name"]: [r["metrics"][m["name"]]["value"] for r in results]
                for m in metrics}
        out[w] = {"values": vals, "failed_share": share,
                  "correct": all(r["correct"] for r in results)}
        print(f"{w}: {a.runs} runs, seeds {a.seed0}..{a.seed0 + a.runs - 1}, "
              f"{seconds} s each, ops/run {[r['attempted'] for r in results]}")
        if not out[w]["correct"]:
            flagged.append(f"{w}: a run reported correct=false")
        if len(set(share)) > 1:
            flagged.append(f"{w}: failed share differs between runs: {share}")
        print(f"  {'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'max/min':>8} {'spread':>7} {'bound':>6}")
        for m in metrics:
            v = vals[m["name"]]
            q1, q2, q3 = quartiles(v)
            spread = (q3 - q1) / q2 if q2 else 0.0
            ratio = max(v) / min(v) if min(v) > 0 else float("nan")
            bound = m["bound"]
            flag = ""
            if spread > bound:
                flag = "  SPREAD > BOUND"
                flagged.append(f"{w}/{m['name']}: spread {spread:.3f} > {bound}")
            if w in saved:
                old = statistics.median(saved[w]["values"][m["name"]])
                worse = ((q2 - old) / old if m["better"] == "lower"
                         else (old - q2) / old) if old else 0.0
                flag += f"  vs saved {old:.4g} ({worse:+.3f})"
                if worse > bound:
                    flag += " WORSE"
                    flagged.append(f"{w}/{m['name']}: median {worse:+.3f} "
                                   f"worse than saved, bound {bound}")
            print(f"  {m['name']:<34} {q2:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                  f"{ratio:>8.3f} {spread:>7.3f} {bound:>6.3f}{flag}")
        if w in saved and saved[w]["failed_share"][0] != share[0]:
            flagged.append(f"{w}: failed share {share[0]} vs saved "
                           f"{saved[w]['failed_share'][0]}")
    if a.save:
        with open(a.save, "w") as f:
            json.dump(out, f, indent=1)
    for f in flagged:
        print("FLAG:", f)
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
