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

    python scripts/run_pinv_bench.py --out BENCH_10.json

``scripts/bench_pairs.py`` adds benchmark pairs to the same file.
"""

import argparse
import os
import sys
import timeit

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from bench_pairs import write_bench  # noqa: E402
from sketchsolve.linalg import pseudoinverse  # noqa: E402

SIZES = (1, 2, 7, 20, 22)


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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default="BENCH_10.json")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--number", type=int, default=2000)
    args = parser.parse_args()
    write_bench(args.out, __doc__.split("\n")[0], {
        "repeats": args.repeats, "number": args.number,
        "per_call": per_call(args.repeats, args.number)})
    return 0


if __name__ == "__main__":
    sys.exit(main())
