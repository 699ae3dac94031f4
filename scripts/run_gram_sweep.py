#!/usr/bin/env python3
"""Shape-policy sweep: where does using ``G = A^T A`` pay?

Times K1, K3, C1 and C3 solves on dense Gaussian consistent systems with
the solver's "use G" condition forced on (anchored K records, C1/C3 in Gram
space) and forced off (exact K records, C1/C3 carrying ``b - A x``), over
m/n in {1.5, 2, 4, 8, 40} and n in {100, 250, 500}. BLAS is pinned to one
thread. Each time is the best of ``--repeats`` solves, the sides taken in
turn. The "on" side is timed twice: ``on_cold_s`` solves a fresh
``solver.Problem`` over the same arrays (built untimed), forming ``A^T A``
and the k = 0 record as the first solve on a problem does, and
``on_warm_s`` reuses both, as later solves on the same problem do. Each
cell records the iteration counts of both sides and whether the shipped
condition (``solver.ANCHOR_MIN_RATIO``, ``solver.ANCHOR_MIN_SIZE``) picks
"on" there.

    python scripts/run_gram_sweep.py --out BENCH_8.json

``scripts/bench_pairs.py`` adds benchmark pairs to the same file.
"""

import argparse
import math
import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from bench_pairs import write_bench  # noqa: E402
from sketchsolve import schemes, solver  # noqa: E402
from sketchsolve.sketch import make_rng  # noqa: E402

RATIOS = (1.5, 2, 4, 8, 40)
NS = (100, 250, 500)
# (id, block size, itmax): fixed-work solves, as in the first anchor sweep
CELLS = (("K1", 1, 3000), ("K3", 22, 300), ("C1", 1, 3000), ("C3", 22, 300))
TOL = 1e-6


def _timed(prob, scheme, itmax, on, cold):
    # the condition is m >= RATIO * n and m n >= SIZE: 0 passes every
    # shape, inf none
    solver.ANCHOR_MIN_RATIO = 0 if on else math.inf
    solver.ANCHOR_MIN_SIZE = 0
    if cold:  # nothing formed yet: A^T A and the zero-start record
        prob = solver.Problem(a=prob.a, b=prob.b, x_star=prob.x_star)
    t0 = time.perf_counter()
    _, trace = solver.solve(prob, scheme, solver.StopRule(itmax, TOL),
                            make_rng(7))
    return time.perf_counter() - t0, trace


def _cell(prob, scheme, itmax, repeats):
    """Best times of the three sides, taken in turn so that a slow spell of
    the host hits all three, and the traces of the last off and on runs."""
    best = {"off": math.inf, "cold": math.inf, "warm": math.inf}
    traces = {}
    for _ in range(repeats):
        for side, on, cold in (("off", False, False), ("cold", True, True),
                               ("warm", True, False)):
            seconds, traces[side] = _timed(prob, scheme, itmax, on, cold)
            best[side] = min(best[side], seconds)
    return best, traces["off"], traces["cold"]


def sweep(repeats: int) -> list:
    shipped = (solver.ANCHOR_MIN_RATIO, solver.ANCHOR_MIN_SIZE)
    rows = []
    try:
        for n in NS:
            for ratio in RATIOS:
                m = int(ratio * n)
                a = np.random.default_rng(m * 1000 + n).standard_normal((m, n))
                x_star = np.ones(n)
                prob = solver.Problem(a=a, b=a @ x_star, x_star=x_star)
                _ = prob.gram, prob.zero_start  # untimed, for the warm side
                for sid, block, itmax in CELLS:
                    scheme = schemes.make_scheme(sid, block_size=block)
                    best, t_off, t_on = _cell(prob, scheme, itmax, repeats)
                    rows.append({
                        "scheme": sid, "m": m, "n": n, "ratio": ratio,
                        "block": block, "itmax": itmax,
                        "shipped_on": m >= shipped[0] * n and m * n >= shipped[1],
                        "off_s": best["off"], "on_cold_s": best["cold"],
                        "on_warm_s": best["warm"],
                        "iterations_off": t_off.iterations,
                        "iterations_on": t_on.iterations,
                        "status_off": t_off.status, "status_on": t_on.status,
                    })
                    print(f"{sid} {m}x{n}: off {best['off']:.4f} s, on "
                          f"{best['cold']:.4f} s cold / {best['warm']:.4f} s "
                          f"warm, iterations {t_off.iterations} / "
                          f"{t_on.iterations}", flush=True)
    finally:
        solver.ANCHOR_MIN_RATIO, solver.ANCHOR_MIN_SIZE = shipped
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default="BENCH_8.json")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    write_bench(args.out, __doc__.split("\n")[0], {
        "repeats": args.repeats, "tol": TOL, "sweep": sweep(args.repeats)})
    return 0


if __name__ == "__main__":
    sys.exit(main())
