#!/usr/bin/env python3
"""Per-layer report of the production-path benchmark.

    python3 perfbench/layers.py --seeds 1,2 --seconds 30

Run it from the repository root. For each workload and seed it makes one
untraced and one traced run through run.py, then prints every per-layer
metric with its share of the traced timed phase, the self time of each
layer, the tracing overhead (traced against untraced records_per_s), and
whether the workload's intended split holds. Seeds side by side show how
far a held-out seed's shares move from the first seed's.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("batch-detect", "stream-replay", "serve-fleet")
# Seconds spent in set-up, not in the timed phase: no share.
SET_UP = {"sim.generate_s", "netflow.encode_s", "serve.recover_s"}
SELF = ("netflow.self_s", "detect.self_s", "serve.self_s", "bench.self_s")


def split(workload, m):
    """The share the workload was built around, its floor, and a label."""
    timed = m["bench.timed_s"]
    if workload == "batch-detect":
        return ((m["netflow.decode_s"] + m["netflow.aggregate_s"]) / timed, 0.85,
                "netflow.decode_s + netflow.aggregate_s")
    if workload == "stream-replay":
        return m["detect.ingest_s"] / timed, 0.80, "detect.ingest_s"
    return m["serve.rotate_s"] / timed, 1e-9, "serve.rotate_s"


def run(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit(f"layers: {' '.join(command)} failed")
    result = json.loads(out.stdout.strip().split("\n")[-1])
    return result["correct"], {k: v["value"] for k, v in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    for workload in args.workloads.split(","):
        runs = {seed: (run(workload, seed, args.seconds, 0),
                       run(workload, seed, args.seconds, 1)) for seed in seeds}
        print(f"\n== {workload}")
        print(f"{'metric':26s}" + "".join(f"{'seed ' + str(s):>26s}" for s in seeds))
        names = list(runs[seeds[0]][1][1])
        for name in names:
            cells = []
            for seed in seeds:
                m = runs[seed][1][1]
                seconds = name.endswith("_s") and not name.endswith("per_s")
                share = "" if name in SET_UP or not seconds else \
                    f" {100 * m[name] / m['bench.timed_s']:5.1f}%"
                cells.append(f"{m[name]:.6g}{share}")
            print(f"{name:26s}" + "".join(f"{c:>26s}" for c in cells))
        for seed in seeds:
            (ok0, untraced), (ok1, traced) = runs[seed]
            layers = ", ".join(
                f"{n.split('.')[0]} {100 * traced[n] / traced['bench.timed_s']:.1f}%"
                for n in SELF)
            share, floor, label = split(workload, traced)
            overhead = 1 - traced["trace.records_per_s"] / untraced["records_per_s"]
            print(f"seed {seed}: oracle and ledgers {'hold' if ok0 and ok1 else 'FAIL'}; "
                  f"self time {layers}")
            print(f"seed {seed}: tracing overhead {100 * overhead:.1f}% "
                  f"(untraced {untraced['records_per_s']:.4g}, traced "
                  f"{traced['trace.records_per_s']:.4g} records/s)")
            print(f"seed {seed}: {label} = {100 * share:.1f}% of the timed phase "
                  f"({'holds' if share >= floor else 'FAILS'} the intended split)")


if __name__ == "__main__":
    main()
