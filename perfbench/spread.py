#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs BENCHMARK.json's command once per seed for each workload named, then
prints, per metric, the median of the runs and the distance between their
first and third quartiles (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound. Run it from the repository root:

    python3 perfbench/spread.py --workloads campaign,remote --seeds 1-5

A spread above a third of the bound is flagged: the benchmark is not yet
steady enough to tell a regression of that size from noise. --digests
prints each run's output digests as lines for perfbench/digests.txt.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--digests", action="store_true")
    a = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for w in a.workloads.split(","):
        runs = []
        for seed in seeds_of(a.seeds):
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            p = subprocess.run(cmd, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {p.returncode}\n{p.stdout}{p.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= result["correct"]
            runs.append(result["metrics"])
            vals = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"{w} seed {seed}: correct={result['correct']} {vals}", flush=True)
            if a.digests:
                for line in lines:
                    if line.startswith("digest ") and " = " in line:
                        name, rest = line[len("digest "):].split(" seed=")
                        s, d = rest.split(" = ")
                        print(f"DIGEST {name} {s} {d}")
        if len(runs) < 2:
            continue
        for name in runs[0]:
            vals = [r[name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]
            flag = ""
            if spread > bound / 3:
                flag = "  <-- above a third of the bound"
            print(f"{w} {name}: median {med:.6g}, spread {spread:.4f}, bound {bound}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
