"""Tests of the benchmark's own checks, tracing and metric names.

    python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from sketchsolve import problems, schemes, sketch, solver, theory  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

@pytest.fixture(scope="module")
def small():
    prob = problems.generate(problems.ProblemSpec(kind="UniformDense", m=60,
                                                  n=8, seed=3))
    scheme = schemes.make_scheme("K3", block_size=4)
    stop = solver.StopRule(itmax=20_000, tol=1e-6)
    x, trace = solver.solve(prob, scheme, stop, sketch.make_rng(5))
    return prob, scheme, stop, x, trace


def test_converged_solve_passes(small):
    prob, _, stop, x, trace = small
    assert checks.solve_failures(prob, x, trace, stop.tol, solver.CONVERGED) == []


def test_perturbed_x_fails_even_when_the_trace_says_converged(small):
    prob, _, stop, x, trace = small
    bad = x.copy()
    bad[0] += 1e-3
    assert trace.status == solver.CONVERGED
    assert checks.solve_failures(prob, bad, trace, stop.tol, solver.CONVERGED)


def test_unconverged_status_fails(small):
    prob, _, stop, x, trace = small
    stalled = replace(trace, status=solver.MAX_ITERS)
    assert checks.solve_failures(prob, x, stalled, stop.tol, solver.CONVERGED)


def test_perturbed_x_is_counted_as_failed_by_the_benchmark(monkeypatch):
    w = workloads.WORKLOADS["spd-400-rates"]
    bench = workloads.Bench(w, seed=1)
    bench.do_setup()
    real_solve = solver.solve

    def perturbed(*args, **kwargs):
        x, trace = real_solve(*args, **kwargs)
        return x + 1e-3, trace

    monkeypatch.setattr(solver, "solve", perturbed)
    bench.run_one(w.check_cell, "test")
    assert (bench.attempted, bench.failed) == (1, 1)


def test_repeat_that_differs_is_counted_as_failed():
    w = workloads.WORKLOADS["spd-400-rates"]
    bench = workloads.Bench(w, seed=1)
    bench.do_setup()
    bench.run_one(w.check_cell, "first")
    bench.reference[w.check_cell] = ["something else"]
    bench.run_one(w.check_cell, "repeat")
    assert (bench.attempted, bench.failed) == (2, 1)


def test_rate_cells_keep_their_historical_seeds_by_default():
    w = workloads.WORKLOADS["spd-400-rates"]
    default, seeded = workloads.Bench(w, seed=None), workloads.Bench(w, seed=5)
    assert [default.cell_seed(c) for c in w.cells] == [424242] * 4 + [7, 7, 9, 9]
    assert [seeded.cell_seed(c) for c in w.cells] == [5] * 6 + [7, 7]


def _report(**kw):
    base = dict(scheme="K1", rho_theory=0.99, rho_fit=0.95, trials=4,
                iterations=10, norm_used=theory.NORM_EUCLID)
    return theory.RateReport(**{**base, **kw})


def test_rate_report_rules():
    assert checks.report_failures(_report()) == []
    assert checks.report_failures(_report(rho_fit=0.99 + 0.021))
    assert checks.report_failures(_report(rho_fit=math.nan))
    assert checks.report_failures(_report(rho_theory=math.inf))
    assert checks.report_failures(_report(degenerate=True))


def test_fingerprint_sees_one_bit(small):
    _, _, _, x, trace = small
    flipped = x.copy()
    flipped.view(np.int64)[0] ^= 1
    assert checks.solve_fingerprint(x, trace) == checks.solve_fingerprint(x.copy(), trace)
    assert checks.solve_fingerprint(flipped, trace) != checks.solve_fingerprint(x, trace)


def test_tracer_restores_and_does_not_perturb(small):
    prob, scheme, stop, x, trace = small
    originals = (solver.solve, solver.draw_sketch, sketch.draw_sketch,
                 schemes.step, schemes.pseudoinverse, solver.check_compatible,
                 schemes.sampling_weights, problems.generate,
                 theory.fit_empirical_rate)
    tracer = tracing.Tracer()
    with tracer:
        x2, trace2 = solver.solve(prob, scheme, stop, sketch.make_rng(5))
    assert originals == (solver.solve, solver.draw_sketch, sketch.draw_sketch,
                         schemes.step, schemes.pseudoinverse,
                         solver.check_compatible, schemes.sampling_weights,
                         problems.generate, theory.fit_empirical_rate)
    assert checks.solve_fingerprint(x2, trace2) == checks.solve_fingerprint(x, trace)

    spans = tracer.arrays()
    names = spans["name"]
    assert (names == tracing.SOLVE).sum() == 1
    assert (names == tracing.DRAW).sum() == trace.iterations
    assert (names == tracing.STEP).sum() == trace.iterations
    assert (names == tracing.PINV).sum() == trace.iterations
    # pinv nests in step, step and draw in solve
    step_ids = spans["id"][names == tracing.STEP]
    assert np.isin(spans["parent"][names == tracing.PINV], step_ids).all()
    assert (spans["parent"][names == tracing.DRAW] == 0).all()
    self_s = tracing.self_times(spans, tracing.SOLVE)
    assert 0.0 < self_s[0] < spans["dur"][0]


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
