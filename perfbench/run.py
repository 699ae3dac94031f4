#!/usr/bin/env python3
"""sketchsolve benchmark: time to tolerance per scheme group on one workload.

    python3 perfbench/run.py --workload spd-400-rates --seed 1 \\
        --seconds 60 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` there, with BLAS pinned to one thread. One run:

1. sets up (problem generation plus scheme construction) a few times;
2. re-solves the workload's check cell once, untimed, as warm-up;
3. runs passes over every cell while the next one is expected to end
   within ``--seconds`` (at least one),
   timing each call to ``solver.solve`` / ``theory.fit_empirical_rate``,
   and sets up a few times more before each pass; ``setup_s`` is the median
   of all the run's set-ups;
4. checks every output (see ``checks.py``) and that every repeat of a cell
   is bit-identical to its first run.

With ``--trace 0`` the result holds the end-to-end metrics: a group's
``solve_s`` is the sum over its cells of each cell's median over passes.
With ``--trace 1`` untraced and traced passes alternate; the traced
ones go through the wrappers in ``tracing.py`` and give the per-layer
metrics (medians over traced passes) plus ``trace.overhead_frac``.

The last line of standard output is the result as one JSON object; the line
before it records the machine and library versions. The run's details, and
with ``--trace 1`` every span, are written under ``perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RUNS = HERE / "runs"

# the schemes with solve cells in some workload; per-scheme layer metrics
# of any other scheme would always read 0
SCHEME_IDS = ("K1", "K3", "C3", "S1", "S2", "S3", "S4")
GROUPS = ("scalar", "block")

END_TO_END = {
    "setup_s": "s",
    "solve_s.scalar": "s",
    "solve_s.block": "s",
    "pass_frac": "frac",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "sketch.draws": "count", "sketch.draw_s": "s", "sketch.draw_us_p99": "us",
    **{f"sketch.draw_us.{i}": "us" for i in SCHEME_IDS},
    "schemes.steps": "count", "schemes.skips": "count",
    "schemes.step_s": "s", "schemes.step_us_p99": "us",
    **{f"schemes.step_us.{i}": "us" for i in SCHEME_IDS},
    "linalg.pinv_calls": "count", "linalg.pinv_s": "s", "linalg.pinv_us": "us",
    **{f"solver.records.{i}": "count" for i in SCHEME_IDS},
    "solver.record_s": "s",
    **{f"solver.record_us.{i}": "us" for i in SCHEME_IDS},
    "solver.setup_s": "s", "solver.solves": "count",
    **{f"solver.iterations.{i}": "count" for i in SCHEME_IDS},
    "problems.generate_s": "s",
    "theory.fit_s": "s", "theory.fit_self_s": "s",
    "trace.overhead_frac": "frac",
}


def _pin_blas():
    # must run before numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _blas_info(np) -> dict:
    """OpenBLAS version and the thread count it actually uses."""
    import ctypes
    info = {"blas": None, "blas_threads": None}
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("libscipy_openblas*.so")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = int(fn())
                break
    if info["blas_threads"] is None:
        info["blas_threads"] = f"env {os.environ['OPENBLAS_NUM_THREADS']} (unverified)"
    return info


def _llc() -> str | None:
    """Size of the highest-level cache, read from sysfs."""
    best = (0, None)
    for idx in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((idx / "level").read_text())
            size = (idx / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if level > best[0]:
            best = (level, f"L{level} {size}")
    return best[1]


def environment(np, setup) -> dict:
    env = {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        **_blas_info(np),
        "llc": _llc(),
    }
    for key, prob in setup.problems.items():
        m, n = prob.a.shape
        env[f"a_bytes.{key}"] = int(prob.a.nbytes)
        # one record reads A once: 8*m*n bytes, computed, not measured
        env[f"record_bytes_computed.{key}"] = 8 * m * n
    return env


def group_seconds(cells, passes) -> dict:
    """Per group, the sum over its cells of each cell's median over passes;
    a median per cell keeps one disturbed pass from moving the sum."""
    out = {g: 0.0 for g in GROUPS}
    for i, cell in enumerate(cells):
        out[cell.group] += statistics.median(runs[i].seconds for runs in passes)
    return out


def layer_metrics(tracing, np, spans: dict, cells, runs) -> dict:
    """Per-layer numbers for one traced pass."""
    name, dur, cell_of = spans["name"], spans["dur"], spans["cell"]
    parent_name = np.full(len(name), -1)
    has_parent = spans["parent"] >= 0
    parent_name[has_parent] = name[spans["parent"][has_parent] - spans["id"][0]]

    def us(mask, q=50.0):
        return float(np.percentile(dur[mask], q)) * 1e6 if mask.any() else 0.0

    out = {}
    draw, step, pinv = name == tracing.DRAW, name == tracing.STEP, name == tracing.PINV
    out["sketch.draws"] = int(draw.sum())
    out["sketch.draw_s"] = float(dur[draw].sum())
    out["sketch.draw_us_p99"] = us(draw, 99.0)
    out["schemes.steps"] = int(step.sum())
    out["schemes.skips"] = int((step & (spans["skipped"] == 1)).sum())
    out["schemes.step_s"] = float(dur[step].sum())
    out["schemes.step_us_p99"] = us(step, 99.0)
    out["linalg.pinv_calls"] = int(pinv.sum())
    out["linalg.pinv_s"] = float(dur[pinv].sum())
    out["linalg.pinv_us"] = us(pinv)

    solve = name == tracing.SOLVE
    solve_self = tracing.self_times(spans, tracing.SOLVE)
    solve_cell = cell_of[solve]
    out["solver.record_s"] = float(solve_self.sum())
    out["solver.setup_s"] = float(
        dur[(name == tracing.SETUP) & (parent_name == tracing.SOLVE)].sum())
    out["solver.solves"] = int(solve.sum())
    fit = name == tracing.FIT
    out["theory.fit_s"] = float(dur[fit].sum())
    out["theory.fit_self_s"] = float(tracing.self_times(spans, tracing.FIT).sum())

    for sid in SCHEME_IDS:
        # per-scheme figures come from solve cells; fit cells count in the
        # totals above and in theory.fit_s / theory.fit_self_s
        idx = [i for i, c in enumerate(cells)
               if c.scheme == sid and not c.is_fit]
        mine = np.isin(cell_of, idx)
        out[f"sketch.draw_us.{sid}"] = us(draw & mine)
        out[f"schemes.step_us.{sid}"] = us(step & mine)
        records = sum(runs[i].records for i in idx)
        out[f"solver.records.{sid}"] = records
        out[f"solver.iterations.{sid}"] = sum(runs[i].iterations for i in idx)
        rec_self = float(solve_self[np.isin(solve_cell, idx)].sum())
        out[f"solver.record_us.{sid}"] = rec_self / records * 1e6 if records else 0.0
    return out


def median_metrics(dicts: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: each cell's historical seed)")
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sketchsolve" / "__init__.py").is_file():
        print(f"error: no sketchsolve sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed is not None and args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2

    _pin_blas()
    sys.path.insert(0, str(SRC))
    import numpy as np
    import sketchsolve

    if SRC not in Path(sketchsolve.__file__).resolve().parents:
        print(f"error: sketchsolve imported from {sketchsolve.__file__}, "
              f"not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    seed = "default" if args.seed is None else args.seed
    bench = workloads.Bench(w, args.seed)

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        with tracer:
            first_setups = bench.do_setup()
        setup_spans = tracer.arrays()
    else:
        bench.do_setup()

    bench.run_one(w.check_cell, "warm-up")

    start = time.perf_counter()
    untraced, traced = [], []   # (runs, wall seconds, span window)
    cycle = []
    while True:
        t_cycle = time.perf_counter()
        if untraced:
            bench.do_setup()
        untraced.append(bench.run_pass(f"pass {len(untraced) + 1}"))
        if tracer is not None:
            first = len(tracer)
            with tracer:
                runs, wall = bench.run_pass(f"traced pass {len(traced) + 1}",
                                            tracer)
            traced.append((runs, wall, (first, len(tracer))))
        cycle.append(time.perf_counter() - t_cycle)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(cycle) > args.seconds:
            break

    if tracer is None:
        metrics = {
            "setup_s": statistics.median(bench.setup_times),
            **{f"solve_s.{g}": v for g, v in group_seconds(
                w.cells, [runs for runs, _ in untraced]).items()},
            "pass_frac": 1.0 - bench.failed / bench.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    else:
        layers = median_metrics([
            layer_metrics(tracing, np, tracer.arrays(*window), w.cells, runs)
            for runs, _, window in traced])
        gen = setup_spans["name"] == tracing.GENERATE
        layers["problems.generate_s"] = float(
            np.sum(setup_spans["dur"][gen]) / len(first_setups))
        layers["trace.overhead_frac"] = (
            statistics.median(wall for _, wall, _ in traced)
            / statistics.median(wall for _, wall in untraced) - 1.0)
        metrics = {k: layers[k] for k in PER_LAYER}
        units = PER_LAYER

    env = environment(np, bench.setup)
    detail = {
        "workload": w.name, "seed": seed, "trace": args.trace,
        "passes": len(untraced), "traced_passes": len(traced),
        "setups": len(bench.setup_times),
        "cells": {c.label: {
            "seconds_median": statistics.median(runs[i].seconds
                                                for runs, _ in untraced),
            "seconds": [runs[i].seconds for runs, _ in untraced],
            "iterations": untraced[0][0][i].iterations,
            "records": untraced[0][0][i].records,
        } for i, c in enumerate(w.cells)},
        "failures": bench.messages,
        "env": env,
    }
    RUNS.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{seed}-trace{args.trace}"
    (RUNS / f"{stem}.json").write_text(json.dumps(
        {**detail, "metrics": metrics}, indent=1, sort_keys=True) + "\n")
    if tracer is not None:
        tracer.save(RUNS / f"{stem}.spans.npz")

    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
