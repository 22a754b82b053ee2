#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics across seeds.

Runs BENCHMARK.json's command once per seed on each workload and prints,
per end-to-end metric, the median and the interquartile distance as a
share of the median (Python's statistics.quantiles, n=4), beside the
metric's bound.  Exits 1 when a run fails or a spread exceeds its bound.
Run from the repository root:

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME] [--verbose]
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workload", action="append")
    ap.add_argument("--verbose", action="store_true", help="print every run's value")
    a = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    metrics = bench["end_to_end"]
    workloads = a.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    for w in workloads:
        values = {m["name"]: [] for m in metrics}
        for s in seeds(a.seeds):
            args = ["--workload", w, "--seed", str(s), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(bench["command"] + args, capture_output=True, text=True, timeout=900)
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else "{}"
            res = json.loads(last)
            if out.returncode != 0 or not res.get("correct"):
                print(f"{w} seed {s}: FAILED (exit {out.returncode})\n{out.stdout[-2000:]}{out.stderr[-2000:]}")
                ok = False
                continue
            for name in values:
                values[name].append(res["metrics"][name]["value"])
        print(f"== {w} ({len(seeds(a.seeds))} seeds)")
        for m in metrics:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = m["bound"]
            flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "OVER BOUND")
            ok = ok and spread <= bound
            print(f"  {m['name']:<30} median {med:<14.6g} spread {spread:7.4f}  bound {bound}  {flag}")
            if a.verbose:
                print("    " + " ".join(f"{x:.6g}" for x in v))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
