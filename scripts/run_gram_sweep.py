#!/usr/bin/env python3
"""Shape-policy sweep: where does using ``G = A^T A`` pay?

Times K1, K3, C1 and C3 solves on dense Gaussian consistent systems with
the solver's "use G" condition forced on (anchored K records, C1/C3 in Gram
space) and forced off (exact K records, C1/C3 carrying ``b - A x``), over
m/n in {1.5, 2, 4, 8, 40} and n in {100, 250, 500}. BLAS is pinned to one
thread. Each time is the best of ``--repeats`` solves, the sides taken in
turn. The "on" side is timed twice: ``on_cold_s`` forms ``A^T A`` inside
every timed solve, as the first solve on a problem does, and ``on_warm_s``
reuses it, as later solves on the same problem do. Each cell records the
iteration counts of both sides and whether the shipped condition
(``solver.ANCHOR_MIN_RATIO``, ``solver.ANCHOR_MIN_SIZE``) picks "on" there.

    python scripts/run_gram_sweep.py --out BENCH_8.json \\
        [--parent-runs P/perfbench/runs --change-runs C/perfbench/runs]

With ``--parent-runs`` and ``--change-runs`` (the ``perfbench/runs``
directories of two checkouts that ran ``perfbench/run.py --trace 0`` at the
same seeds) the output also holds, per workload and end-to-end metric, the
median and quartiles of each side and the number of seeds on which the
change did better, and the per-cell iteration counts of both sides.
"""

import argparse
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from sketchsolve import schemes, solver  # noqa: E402
from sketchsolve.sketch import make_rng  # noqa: E402

RATIOS = (1.5, 2, 4, 8, 40)
NS = (100, 250, 500)
# (id, block size, itmax): fixed-work solves, as in the first anchor sweep
CELLS = (("K1", 1, 3000), ("K3", 22, 300), ("C1", 1, 3000), ("C3", 22, 300))
TOL = 1e-6
END_TO_END = ("setup_s", "solve_s.scalar", "solve_s.block", "pass_frac",
              "peak_rss_mb")


def _policy(on: bool):
    # the condition is m >= RATIO * n and m n >= SIZE: 0 passes every
    # shape, inf none
    solver.ANCHOR_MIN_RATIO = 0 if on else math.inf
    solver.ANCHOR_MIN_SIZE = 0


def _timed(prob, scheme, itmax, on, cold):
    _policy(on)
    if cold:
        prob.__dict__.pop("gram", None)
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
                for sid, block, itmax in CELLS:
                    scheme = schemes.make_scheme(sid, block_size=block)
                    best, t_off, t_on = _cell(prob, scheme, itmax, repeats)
                    off, cold, warm = best["off"], best["cold"], best["warm"]
                    row = {
                        "scheme": sid, "m": m, "n": n, "ratio": ratio,
                        "block": block, "itmax": itmax,
                        "shipped_on": m >= shipped[0] * n and m * n >= shipped[1],
                        "off_s": off, "on_cold_s": cold, "on_warm_s": warm,
                        "iterations_off": t_off.iterations,
                        "iterations_on": t_on.iterations,
                        "status_off": t_off.status, "status_on": t_on.status,
                    }
                    rows.append(row)
                    print(f"{sid} {m}x{n}: off {off:.4f} s, on {cold:.4f} s "
                          f"cold / {warm:.4f} s warm, iterations "
                          f"{t_off.iterations} / {t_on.iterations}", flush=True)
    finally:
        solver.ANCHOR_MIN_RATIO, solver.ANCHOR_MIN_SIZE = shipped
    return rows


def _runs(directory: Path) -> dict:
    out = {}
    for path in sorted(directory.glob("*-trace0.json")):
        run = json.loads(path.read_text())
        out[(run["workload"], run["seed"])] = run
    return out


def _quartiles(values):
    q = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2]}


def paired(parent_dir: Path, change_dir: Path) -> dict:
    """Per workload: each end-to-end metric's quartiles on both sides, the
    seeds where the change did better, and per-cell iteration counts."""
    parent, change = _runs(parent_dir), _runs(change_dir)
    keys = sorted(set(parent) & set(change))
    out = {}
    for workload in sorted({w for w, _ in keys}):
        seeds = [s for w, s in keys if w == workload]
        p = [parent[(workload, s)] for s in seeds]
        c = [change[(workload, s)] for s in seeds]
        metrics = {}
        for name in END_TO_END:
            pv = [run["metrics"][name] for run in p]
            cv = [run["metrics"][name] for run in c]
            higher = name == "pass_frac"
            metrics[name] = {
                "parent": _quartiles(pv), "change": _quartiles(cv),
                "change_better": sum((y > x) if higher else (y < x)
                                     for x, y in zip(pv, cv)),
            }
        out[workload] = {
            "seeds": seeds, "metrics": metrics,
            "iterations": {cell: {
                "parent": [run["cells"][cell]["iterations"] for run in p],
                "change": [run["cells"][cell]["iterations"] for run in c],
            } for cell in p[0]["cells"]},
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default="BENCH_8.json")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--parent-runs", type=Path, default=None)
    parser.add_argument("--change-runs", type=Path, default=None)
    args = parser.parse_args()

    payload = {
        "what": __doc__.split("\n")[0],
        "host": {"cpus": os.cpu_count(), "blas_threads": 1,
                 "numpy": np.__version__},
        "repeats": args.repeats, "tol": TOL,
        "sweep": sweep(args.repeats),
    }
    if args.parent_runs and args.change_runs:
        payload["benchmark_pairs"] = paired(args.parent_runs, args.change_runs)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
