#!/usr/bin/env python3
"""Per-call cost of an exact record's products: ``b - A x`` then
``A^T (b - A x)``, against ``linalg.normal_residual``'s one pass.

Times the two products as the solver formed them before the one-pass helper
(``r = b - a @ x``, ``a.T @ r``) and ``normal_residual`` with
``linalg.NORMAL_BLOCK`` set to 2^16, 2^17 and 2^18 entries, on dense
Gaussian ``A`` in C and F order over the shapes in ``SHAPES``. BLAS is
pinned to one thread; each figure is the best of ``--repeats`` timings of
enough calls to take about ``--min-s`` seconds, the variants taken in
turn. Each row also records whether ``r`` equals ``b - a @ x`` bit for bit,
the largest ``|s - a.T @ r|`` in units of ``(m + n) eps |A|^T |r|`` and
``||s - a.T @ r|| / ||a.T @ r||``.

    python scripts/run_exact_bench.py --out BENCH_14.json

``--repeats 0`` leaves out the per-call timings.

With ``--parent-tree`` and ``--change-tree`` (source checkouts) it also
runs ``COUNT_PASSES`` benchmark passes of each workload in each tree, in
a child process that imports that tree's ``src`` and ``perfbench``, each
pass on a fresh set-up as in ``perfbench/run.py``. Per pass it records the
calls to ``solver.normal_residual`` (a counting wrapper on the module
attribute) and the offset mod 64 of every problem's A and, where the pass
formed it, G (``BENCH_15.json``; ``scripts/bench_pairs.py`` adds pairs).
"""

import argparse
import json
import os
import subprocess
import sys
import timeit
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from bench_pairs import write_bench  # noqa: E402
from sketchsolve import linalg  # noqa: E402

SHAPES = ((1310, 100), (2000, 100), (4000, 250), (8000, 500), (20000, 100),
          (20000, 500), (60000, 500), (100000, 100))
BUDGETS = (1 << 16, 1 << 17, 1 << 18)
COUNT_PASSES = 3


def _two_products(a, b, x):
    r = b - a @ x
    return r, a.T @ r


def _one_pass(budget):
    def call(a, b, x):
        linalg.NORMAL_BLOCK = budget
        return linalg.normal_residual(a, b, x)
    return call


def per_call(repeats: int, min_s: float) -> list:
    calls = {"two_products": _two_products,
             **{f"one_pass_{b}": _one_pass(b) for b in BUDGETS}}
    eps = np.finfo(float).eps
    shipped = linalg.NORMAL_BLOCK
    rows = []
    for m, n in SHAPES:
        rng = np.random.default_rng(m + n)
        c_a = rng.standard_normal((m, n))
        b, x = rng.standard_normal(m), rng.standard_normal(n)
        # (m + n) eps |A|^T |b - A x|, by row blocks: no m x n temporary
        res = np.abs(b - c_a @ x)
        bound = (m + n) * eps * sum(np.abs(c_a[i:i + 4096]).T @ res[i:i + 4096]
                                    for i in range(0, m, 4096))
        for order in "CF":
            a = c_a if order == "C" else np.asfortranarray(c_a)
            if order == "F":
                del c_a
            want = b - a @ x
            row = {"m": m, "n": n, "order": order}
            number = max(1, int(min_s / timeit.timeit(
                lambda: _two_products(a, b, x), number=1)))
            best = dict.fromkeys(calls, float("inf"))
            for _ in range(repeats):
                for name, call in calls.items():
                    best[name] = min(best[name], timeit.timeit(
                        lambda: call(a, b, x), number=number))
            s_want = a.T @ want
            for budget in BUDGETS:
                r, s = _one_pass(budget)(a, b, x)
                row[f"r_bitwise_{budget}"] = bool(np.array_equal(r, want))
                row[f"s_err_units_{budget}"] = float(
                    (np.abs(s - s_want) / bound).max())
                row[f"s_rel_err_{budget}"] = float(
                    np.linalg.norm(s - s_want) / np.linalg.norm(s_want))
            row.update({f"{name}_us": 1e6 * t / number
                        for name, t in best.items()})
            row.update({f"ratio_{budget}": row[f"one_pass_{budget}_us"]
                        / row["two_products_us"] for budget in BUDGETS})
            rows.append(row)
            print(f"{m}x{n} {order}: two products "
                  f"{row['two_products_us']:.0f} us, one pass "
                  + ", ".join(f"{row[f'ratio_{b}']:.2f}" for b in BUDGETS),
                  flush=True)
            del a
    linalg.NORMAL_BLOCK = shipped
    return rows


def count_passes() -> dict:
    """In this process: per pass of each perfbench workload (``COUNT_PASSES``
    passes, each on a fresh set-up), the ``solver.normal_residual`` calls and
    the offsets mod 64 of every problem's A and G. Needs ``perfbench`` on the
    import path."""
    import workloads
    from sketchsolve import solver

    real, calls = solver.normal_residual, []

    def counting(a, b, x):
        calls.append(1)
        return real(a, b, x)

    solver.normal_residual = counting
    out = {}
    for name, w in workloads.WORKLOADS.items():
        bench, rows = workloads.Bench(w, 1), []
        for _ in range(COUNT_PASSES):
            bench.do_setup()
            calls.clear()
            bench.run_pass("count")
            row = {"normal_residual_calls": len(calls)}
            for key, prob in bench.setup.problems.items():
                row[f"a_offset.{key}"] = prob.a.ctypes.data % 64
                if "gram" in vars(prob):
                    row[f"gram_offset.{key}"] = prob.gram.ctypes.data % 64
            rows.append(row)
        out[name] = {"passes": rows, "failed_checks": bench.failed}
    return out


def count_tree(tree: Path) -> dict:
    """:func:`count_passes` run on the sources of checkout ``tree``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        str(tree.resolve() / d) for d in ("src", "perfbench"))}
    done = subprocess.run([sys.executable, __file__, "--count-here"],
                          env=env, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default="BENCH_14.json")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--min-s", type=float, default=0.05)
    parser.add_argument("--parent-tree", type=Path, default=None)
    parser.add_argument("--change-tree", type=Path, default=None)
    parser.add_argument("--count-here", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.count_here:
        print(json.dumps(count_passes()))
        return 0

    sections = {"repeats": args.repeats, "min_s": args.min_s,
                "shipped_block": linalg.NORMAL_BLOCK}
    if args.repeats > 0:
        sections["per_call"] = per_call(args.repeats, args.min_s)
    if args.parent_tree and args.change_tree:
        sections["pass_counts"] = {
            "parent": count_tree(args.parent_tree),
            "change": count_tree(args.change_tree)}
    write_bench(args.out, __doc__.split("\n")[0], sections)
    return 0


if __name__ == "__main__":
    sys.exit(main())
