#!/usr/bin/env python3
"""Sweep ``solver.SKETCH_BLOCK``: seconds of the block-drawing cells of the
SPD benchmark workload (S1, S2, S4 and the four rate fits), and peak RSS, for
each budget.

    PYTHONPATH=src python scripts/run_sketch_block_sweep.py [--reps 5] \\
        [--values 15,16,17,18,19,20] [--out BENCH_N.json]

``--values`` are powers of two (2^15 to 2^20 bytes by default). A budget of
2^v bytes holds 2^(v-3) index draws (K1, C1, S1), or that many Gaussian
entries (S2, S4). Each rep runs, for every budget in turn (the order
reverses every other rep), one child process that sets
``solver.SKETCH_BLOCK`` and runs perfbench's spd-400-rates cells to tol 1e-6
on SparseSpd 400 (rc 0.05, seed 13), two streams each: S1
(trace-proportional), S2, and S4 at l = 20. Then the rate fits, 40 trials x
500 steps each: ``fit.K1`` and ``fit.C1`` (norm-proportional, on
SparseNormal 50x20, seed 11), ``fit.S1`` (trace-proportional) and ``fit.S4``
(l = 7) on SparseSpd 50 (seed 13), with rep + 1 as the stream seed. The
child reports each cell's seconds, the solves' iteration counts, the fits'
``rho_fit`` and its own peak RSS (``ru_maxrss``). Counts and rates must not
depend on the budget: the sweep stops with an error if a rep's differ. It
prints the median seconds per budget and cell and the largest peak RSS;
``--out`` writes them through ``bench_pairs.write_bench``. BLAS is pinned to
one thread.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from bench_pairs import write_bench  # noqa: E402
from sketchsolve import problems, schemes, sketch, solver, theory  # noqa: E402

PROBLEMS = {
    "A": problems.ProblemSpec(kind="SparseSpd", m=400, n=400, rc=0.05, seed=13),
    "rect": problems.ProblemSpec(kind="SparseNormal", m=50, n=20, seed=11),
    "spd": problems.ProblemSpec(kind="SparseSpd", m=50, n=50, seed=13)}
STOP = solver.StopRule(itmax=100_000, tol=1e-6)
# solve cells on "A": id, block size, distribution
SOLVES = (("S1", 1, sketch.TRACE_PROPORTIONAL), ("S2", 1, sketch.UNIFORM),
          ("S4", 20, sketch.UNIFORM))
# fit cells: id, problem, block size, distribution, norm, offset of the seed
FITS = (("K1", "rect", 1, sketch.NORM_PROPORTIONAL, theory.NORM_EUCLID, 0),
        ("C1", "rect", 1, sketch.NORM_PROPORTIONAL, theory.NORM_GHAT, 0),
        ("S1", "spd", 1, sketch.TRACE_PROPORTIONAL, theory.NORM_A, 2),
        ("S4", "spd", 7, sketch.UNIFORM, theory.NORM_A, 2))
CELLS = tuple(c[0] for c in SOLVES) + tuple(f"fit.{c[0]}" for c in FITS)


def run_cells(budget: int, seed: int) -> dict:
    """Every cell at one budget, in this process."""
    solver.SKETCH_BLOCK = budget
    probs = {key: problems.generate(spec) for key, spec in PROBLEMS.items()}
    out = {}
    for sid, block, dist in SOLVES:
        scheme = schemes.make_scheme(sid, block_size=block, distribution=dist)
        spent, its = 0.0, 0
        for stream in range(2):
            rng = sketch.rng_from_keys(seed, schemes.ALL_SCHEMES.index(sid),
                                       stream)
            t0 = time.perf_counter()
            _, trace = solver.solve(probs["A"], scheme, STOP, rng)
            spent += time.perf_counter() - t0
            its += trace.iterations
        out[sid] = {"seconds": spent, "iterations": its}
    for sid, key, block, dist, norm, offset in FITS:
        t0 = time.perf_counter()
        report = theory.fit_empirical_rate(
            probs[key], schemes.make_scheme(sid, block_size=block,
                                            distribution=dist),
            trials=40, iterations=500, norm_used=norm, seed=seed + offset)
        out[f"fit.{sid}"] = {"seconds": time.perf_counter() - t0,
                             "rho_fit": report.rho_fit}
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def sweep(values: list, reps: int) -> dict:
    runs = {v: [] for v in values}
    for rep in range(reps):
        for value in values if rep % 2 == 0 else values[::-1]:
            done = subprocess.run(
                [sys.executable, __file__, "--child", str(2 ** value),
                 str(rep + 1)], check=True, capture_output=True, text=True)
            runs[value].append(json.loads(done.stdout))
    for cell in CELLS:  # a budget may change the time taken, nothing else
        key = "rho_fit" if cell.startswith("fit.") else "iterations"
        seen = {json.dumps([r[cell][key] for r in rs]) for rs in runs.values()}
        if len(seen) > 1:
            raise SystemExit(f"{cell}: {key} depends on SKETCH_BLOCK: {seen}")
    # per cell and budget: the median seconds, and each rep's figures
    return {str(2 ** v): {
        **{cell: {"median_s": statistics.median(r[cell]["seconds"] for r in rs),
                  **{key: [r[cell][key] for r in rs] for key in rs[0][cell]}}
           for cell in CELLS},
        "peak_rss_mb": [r["peak_rss_mb"] for r in rs]}
        for v, rs in runs.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--values", default="15,16,17,18,19,20")
    parser.add_argument("--out", default=None)
    parser.add_argument("--child", nargs=2, type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(run_cells(*args.child)))
        return 0
    out = sweep([int(v) for v in args.values.split(",")], args.reps)
    for budget, cells in out.items():
        print(f"SKETCH_BLOCK {budget}: " + ", ".join(
            f"{cell} {cells[cell]['median_s']:.3f} s" for cell in CELLS)
            + f", peak RSS {max(cells['peak_rss_mb']):.2f} MiB")
    if args.out:
        write_bench(args.out, "SKETCH_BLOCK sweep and benchmark pairs",
                    {"sketch_block_sweep": {"reps": args.reps, "values": out}})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
