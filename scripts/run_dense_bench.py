#!/usr/bin/env python3
"""Dense overdetermined benchmark: the eight unweighted row/column schemes
on a 1000x100 uniform(0,1) system, one trace CSV per scheme.

Plot res/err against iter or time_s from the CSVs to reproduce the usual
scalar-vs-block comparison figures.
"""

import argparse
import json
import sys
from pathlib import Path

from sketchsolve.cli import run_bench


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/dense_bench")
    parser.add_argument("--seed", type=int, default=424242)
    parser.add_argument("--m", type=int, default=1000)
    parser.add_argument("--n", type=int, default=100)
    args = parser.parse_args()

    config = {
        "problem": {"kind": "UniformDense", "m": args.m, "n": args.n, "seed": 2026},
        "schemes": ["K1", "K2", "K3", "K4", "C1", "C2", "C3", "C4"],
        "stop": {"itmax": 100_000, "tol": 1e-6},
        "block_size": "sqrt",
        "trials": 1,
        "seed": args.seed,
        "output_dir": args.out,
    }
    code = run_bench(config)
    if code == 0:
        summary = json.loads((Path(args.out) / "summary.json").read_text())
        for entry in summary["per_scheme"]:
            print(f"{entry['scheme']}: {entry['status']} in {entry['iters']} "
                  f"iterations ({entry['wall_s']:.2f}s)")
    return code


if __name__ == "__main__":
    sys.exit(main())
