#!/usr/bin/env python3
"""Per-call cost of the block steps' l x l solve: ``linalg.pseudoinverse``
against numpy's SVD pseudoinverse.

Times ``pseudoinverse``, ``np.linalg.pinv`` with the same cutoff (the SVD
route every call took before the inverse path) and ``np.linalg.inv`` (the
floor) on the well-conditioned PSD Gram ``Z^T G Z`` a block step solves, at
l in {1, 2, 7, 20, 22}. BLAS is pinned to one thread; each figure is the
best of ``--repeats`` timings of ``--number`` calls, the three taken in
turn. Each row also records the largest entry of
``|pseudoinverse - pinv| / max|pinv|``.

    python scripts/run_pinv_bench.py --out BENCH_10.json \\
        [--parent-runs P/perfbench/runs --change-runs C/perfbench/runs]

With ``--parent-runs`` and ``--change-runs`` the output also holds the
benchmark pairs as in ``run_gram_sweep.py``, and, from any ``--trace 1``
runs in those directories, the ``linalg.pinv_*`` layer metrics per seed.
"""

import argparse
import json
import os
import sys
import timeit
from pathlib import Path

from run_gram_sweep import paired  # also pins BLAS to one thread

import numpy as np

from sketchsolve.linalg import pseudoinverse

SIZES = (1, 2, 7, 20, 22)
PINV_METRICS = ("linalg.pinv_calls", "linalg.pinv_s", "linalg.pinv_us")


def per_call(repeats: int, number: int) -> list:
    rows = []
    eps = np.finfo(float).eps
    for l in SIZES:
        a = np.random.default_rng(l).standard_normal((4 * l + 8, l))
        m = a.T @ a
        calls = {
            "pseudoinverse": lambda: pseudoinverse(m),
            "np_pinv": lambda: np.linalg.pinv(m, rcond=l * eps),
            "np_inv": lambda: np.linalg.inv(m),
        }
        best = dict.fromkeys(calls, float("inf"))
        for _ in range(repeats):
            for name, call in calls.items():
                best[name] = min(best[name], timeit.timeit(call, number=number))
        oracle = np.linalg.pinv(m, rcond=l * eps)
        row = {"l": l, "cond": float(np.linalg.cond(m)),
               "rel_diff": float(np.abs(pseudoinverse(m) - oracle).max()
                                 / np.abs(oracle).max())}
        row.update({f"{name}_us": 1e6 * t / number for name, t in best.items()})
        rows.append(row)
        print(f"l = {l}: pseudoinverse {row['pseudoinverse_us']:.1f} us, "
              f"pinv {row['np_pinv_us']:.1f} us, inv {row['np_inv_us']:.1f} us",
              flush=True)
    return rows


def traced(directory: Path) -> dict:
    out = {}
    for path in sorted(directory.glob("*-trace1.json")):
        run = json.loads(path.read_text())
        out[f"{run['workload']}/{run['seed']}"] = {
            k: run["metrics"][k] for k in PINV_METRICS}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default="BENCH_10.json")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--number", type=int, default=2000)
    parser.add_argument("--parent-runs", type=Path, default=None)
    parser.add_argument("--change-runs", type=Path, default=None)
    args = parser.parse_args()

    payload = {
        "what": __doc__.split("\n")[0],
        "host": {"cpus": os.cpu_count(), "blas_threads": 1,
                 "numpy": np.__version__},
        "repeats": args.repeats, "number": args.number,
        "per_call": per_call(args.repeats, args.number),
    }
    if args.parent_runs and args.change_runs:
        payload["benchmark_pairs"] = paired(args.parent_runs, args.change_runs)
        payload["traced"] = {"parent": traced(args.parent_runs),
                             "change": traced(args.change_runs)}
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
