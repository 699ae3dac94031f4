#!/usr/bin/env python3
"""Verify the expectation statements behind the Gaussian-scheme rate bounds
on a small instance: Monte-Carlo mean of the transformed propagator against
its integral upper bound, and exact positivity of the enumerated sketched
inverse for the coordinate partition.
"""

import argparse
import json
import sys
from pathlib import Path

from sketchsolve.cli import run_verify_expectation


def _run(config: dict) -> dict:
    run_verify_expectation(config)
    return json.loads((Path(config["output_dir"]) / "expectation.json").read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/expectation")
    parser.add_argument("--samples", type=int, default=10_000)
    args = parser.parse_args()

    for sid, block in (("K2", 1), ("K4", 2)):
        payload = _run({
            "target": "propagator",
            "problem": {"kind": "SparseNormal", "m": 10, "n": 4, "seed": 3},
            "scheme": sid,
            "block_size": block,
            "samples": args.samples,
            "seed": 5,
            "output_dir": f"{args.out}/{sid}",
        })
        rep = payload["report"]
        print(f"{sid}: max bound violation {rep['max_violation']:.2e} "
              f"(bootstrap se {rep['max_violation_se']:.2e}), "
              f"spectral contraction estimate {rep['spectral_rate']:.4f}")

    payload = _run({
        "target": "sketched_inverse",
        "problem": {"kind": "SparseNormal", "m": 10, "n": 4, "seed": 3},
        "partition_block": 1,
        "output_dir": f"{args.out}/inverse",
    })
    rep = payload["report"]
    print(f"coordinate partition: lambda_min {rep['lambda_min']:.2e}, "
          f"positive definite: {rep['positive_definite']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
