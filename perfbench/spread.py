#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the benchmark once per seed on each named workload and prints, per
metric, the median of the runs and the quartile spread: the distance
between the first and third quartile (``statistics.quantiles(v, n=4)``)
as a share of the median. Run from the repository root:

    python3 perfbench/spread.py --workloads als-dense,serve-refit --seeds 101-110

Each run is one ``cargo run --release`` of the benchmark with the
``run_seconds`` of BENCHMARK.json (override with ``--seconds``).
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="101-110")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    worst = 0.0
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds_of(args.seeds):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", args.trace]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            result = json.loads(last)
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: failed (exit {proc.returncode})\n{proc.stderr[-2000:]}")
                sys.exit(1)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        for name, v in values.items():
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else float("nan")
            bound = bounds.get(name)
            note = "" if bound is None else f"  bound {bound}  bound/3 {bound / 3:.3f}"
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {workload:12s} {name:16s} median {med:12.4f}  spread {spread:.4f}{note}")
    print(f"worst spread/bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
