#!/usr/bin/env python3
"""Sweep ``solver.READ_BATCH``: seconds of anchored K solves on the dense
benchmark problem for each batch size.

    PYTHONPATH=src python scripts/run_read_batch_sweep.py [--reps 15] \\
        [--values 1,4,8,16,32] [--out BENCH_N.json]

Each rep solves, for every value in turn (the order reverses every other
rep), K1 norm-proportional (one stream) and K3 at l = 22 (two streams) to
tol 1e-4 on perfbench's dense problem, UniformDense 20000x500 (seed 2026),
with rep + 1 as the stream seed. ``A^T A`` and the k = 0 record are formed
once, untimed, so the seconds hold what the value moves (the reads and the
steps run past a stopping record) and the exact records, but not the
~0.1 s of ``A^T A`` that a benchmark pass's K1 also pays. Iteration counts
are kept per value, and must not depend on it. It prints the median
seconds per value and cell; ``--out`` writes them through
``bench_pairs.write_bench``. BLAS is pinned to one thread.
"""

import argparse
import os
import statistics
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from bench_pairs import write_bench  # noqa: E402
from sketchsolve import problems, schemes, sketch, solver  # noqa: E402

DENSE = problems.ProblemSpec(kind="UniformDense", m=20000, n=500, seed=2026)
# (id, block size, distribution, streams), as perfbench's dense cells
CELLS = (("K1", 1, sketch.NORM_PROPORTIONAL, 1),
         ("K3", 22, sketch.UNIFORM, 2))
STOP = solver.StopRule(itmax=100_000, tol=1e-4)


def sweep(values: list, reps: int) -> dict:
    seconds = {v: {sid: [] for sid, *_ in CELLS} for v in values}
    iterations = {v: {sid: [] for sid, *_ in CELLS} for v in values}
    prob = problems.generate(DENSE)
    prob.gram, prob.zero_start  # formed here, untimed
    saved = solver.READ_BATCH
    try:
        for rep in range(reps):
            for value in values if rep % 2 == 0 else values[::-1]:
                solver.READ_BATCH = value
                for sid, block, dist, streams in CELLS:
                    scheme = schemes.make_scheme(sid, block_size=block,
                                                 distribution=dist)
                    spent, its = 0.0, 0
                    for stream in range(streams):
                        rng = sketch.rng_from_keys(
                            rep + 1, schemes.ALL_SCHEMES.index(sid), stream)
                        t0 = time.perf_counter()
                        _, trace = solver.solve(prob, scheme, STOP, rng)
                        spent += time.perf_counter() - t0
                        its += trace.iterations
                    seconds[value][sid].append(spent)
                    iterations[value][sid].append(its)
    finally:
        solver.READ_BATCH = saved
    return {str(v): {sid: {"median_s": statistics.median(seconds[v][sid]),
                           "seconds": seconds[v][sid],
                           "iterations": iterations[v][sid]}
                     for sid in seconds[v]} for v in values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--reps", type=int, default=15)
    parser.add_argument("--values", default="1,4,8,16,32")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    values = [int(v) for v in args.values.split(",")]
    out = sweep(values, args.reps)
    for value, cells in out.items():
        print(f"READ_BATCH {value}: " + ", ".join(
            f"{sid} {cell['median_s']:.4f} s" for sid, cell in cells.items()))
    if args.out:
        write_bench(args.out, "READ_BATCH sweep and benchmark pairs",
                    {"read_batch_sweep": {"reps": args.reps, "values": out}})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
