#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
median, quartiles and spread (interquartile range over median).

    python3 perfbench/spread.py --workload spd-400-rates --seeds 1-10 \\
        --seconds 60 [--out perfbench/runs/spread-spd-400-rates.json]

Runs are made one after another, from the checkout root, and each is
waited for. A bound is met when the spread stays below it; the benchmark
aims for a third of it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"),
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = []
    for seed in parse_seeds(args.seeds):
        cmd = [*spec["command"], "--workload", args.workload, "--seed",
               str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True,
                              text=True, timeout=600, check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        print(seed, json.dumps({k: round(v["value"], 6)
                                for k, v in result["metrics"].items()}),
              flush=True)

    summary = {"workload": args.workload, "seconds": seconds,
               "seeds": parse_seeds(args.seeds),
               "all_correct": all(r["correct"] for r in results),
               "metrics": {}}
    for name in results[0]["metrics"]:
        s = summarize([r["metrics"][name]["value"] for r in results])
        summary["metrics"][name] = s
        bound = bounds.get(name)
        print(f"{name:16s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
              f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}  bound {bound}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if summary["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
