#!/usr/bin/env python3
"""Fit empirical contraction factors and compare them against the closed
forms: K1/C1 under squared-norm-proportional sampling on a rectangular
system, S1 under diagonal-proportional sampling on an SPD system.

Exits 3 if any fitted rate beats its theory value by more than the
tolerance, mirroring the `sketchsolve rates` subcommand.
"""

import argparse
import json
import sys
from pathlib import Path

from sketchsolve.cli import run_rates


def _run(config: dict) -> int:
    code = run_rates(config)
    payload = json.loads((Path(config["output_dir"]) / "rates.json").read_text())
    for report in payload["reports"]:
        print(f"{report['scheme']} ({report['norm_used']} norm): "
              f"fit {report['rho_fit']:.4f} vs theory {report['rho_theory']:.4f}")
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/rates")
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--iterations", type=int, default=500)
    args = parser.parse_args()

    rectangular = {
        "problem": {"kind": "SparseNormal", "m": 50, "n": 20, "seed": 11},
        "schemes": ["K1", "C1"],
        "trials": args.trials,
        "iterations": args.iterations,
        "seed": 7,
        "tolerance": 0.02,
        "output_dir": f"{args.out}/rectangular",
    }
    spd = {
        "problem": {"kind": "SparseSpd", "m": 50, "n": 50, "seed": 13},
        "schemes": ["S1", "S4"],
        "block_size": "sqrt",
        "trials": args.trials,
        "iterations": args.iterations,
        "seed": 9,
        "tolerance": 0.02,
        "output_dir": f"{args.out}/spd",
    }
    return max(_run(rectangular), _run(spd))


if __name__ == "__main__":
    sys.exit(main())
