"""Acceptance suite: one test per criterion, each printing a PASS line and
enforcing its runtime budget. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import csv
import json
import time

import numpy as np
import pytest

import sketchsolve
from helpers import ls_residual, ls_solution_oracle, random_spd
from sketchsolve import schemes
from sketchsolve.cli import main as cli_main
from sketchsolve.linalg import SpdMatrix, pseudoinverse
from sketchsolve.schemes import (error_propagator, make_scheme, realize_sketch,
                                 reduction_discrepancy, step, step_generic)
from sketchsolve.sketch import (NORM_PROPORTIONAL, TRACE_PROPORTIONAL,
                                draw_sketch, make_rng)
from sketchsolve.solver import Problem, StopRule, solve
from sketchsolve.theory import (coordinate_partition, estimate_mean_propagator,
                                fit_empirical_rate, mean_sketched_inverse,
                                rate_norm_sampling, rate_trace_sampling)


class Budget:
    def __init__(self, seconds: float):
        self.limit = seconds
        self.start = time.perf_counter()

    def done(self, label: str):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.limit, f"{label} took {elapsed:.1f}s (budget {self.limit}s)"
        print(f"PASS {label} ({elapsed:.1f}s)")


def _random_instance(sid: str, rng: np.random.Generator):
    if schemes.family(sid) == "S":
        n = int(rng.integers(5, 41))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = (q * rng.uniform(0.3, 3.0, n)) @ q.T
        a = 0.5 * (a + a.T)
    else:
        m = int(rng.integers(8, 41))
        n = int(rng.integers(5, max(6, m - 2)))
        a = rng.standard_normal((m, n))
    m, n = a.shape
    g = None
    if sid in schemes.WEIGHTED_SCHEMES:
        dim = n if sid[0] == "K" else m
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        g = SpdMatrix((q * rng.uniform(0.5, 2.0, dim)) @ q.T)
    block = int(rng.integers(1, 5))
    scheme = make_scheme(sid, block_size=block, g=g)
    b = rng.standard_normal(m)
    x = rng.standard_normal(n)
    draw = draw_sketch(scheme, (m, n), rng)
    return scheme, a, b, x, draw


def test_every_export_resolves():
    # a stale name in __all__ fails only at ``from sketchsolve import *``
    assert [name for name in sketchsolve.__all__
            if not hasattr(sketchsolve, name)] == []


def test_criterion_1_projector_suite():
    budget = Budget(10.0)
    rng = make_rng(20_260_101)
    for sid in schemes.ALL_SCHEMES:
        for _ in range(50):
            scheme, a, b, x, draw = _random_instance(sid, rng)
            y, z = realize_sketch(scheme, a, draw)
            xi = z @ pseudoinverse(y.T @ a @ z) @ y.T
            t = error_propagator(scheme, a, draw)
            assert np.abs(t @ t - t).max() <= 1e-10, sid
            assert np.abs(xi @ a @ xi - xi).max() <= 1e-10, sid
            got = step(scheme, a, b, x, draw)
            want = step_generic(scheme, a, b, x, draw)
            gap = np.abs(got - want).max()
            assert gap <= 1e-10 * (1.0 + np.linalg.norm(x)), sid
    budget.done("criterion 1: projectors idempotent, specialized = generic, "
                "16 schemes x 50 instances")


def test_criterion_2_one_step_exact_solve():
    budget = Budget(1.0)
    rng = make_rng(2)
    stop = StopRule(itmax=3, tol=1e-10)
    cases = []
    for sid in ("K3", "C3", "S3"):
        if sid == "S3":
            a = random_spd(71, 24, lo=0.4, hi=3.0)
        else:
            a = rng.standard_normal((40, 25))
        prob = Problem(a=a, b=a @ np.ones(a.shape[1]), x_star=np.ones(a.shape[1]))
        m, n = a.shape
        block = m if sid == "K3" else n
        scheme = make_scheme(sid, block_size=block)
        _, trace = solve(prob, scheme, stop, make_rng(3))
        assert trace.status == "Converged", sid
        assert trace.iterations == 1, sid
        assert trace.final.rel_residual <= 1e-10, sid
        cases.append(sid)
    budget.done(f"criterion 2: one-step exact solve for {', '.join(cases)}")


def test_criterion_3_reduction_identities():
    budget = Budget(5.0)
    n = 20
    a = SpdMatrix(random_spd(73, n, lo=0.3, hi=3.0))
    g = SpdMatrix(np.linalg.inv(a.mat))
    rng = make_rng(5)
    worst = 0.0
    for i in range(100):
        b = rng.standard_normal(n)
        x = rng.standard_normal(n)
        if i % 2 == 0:
            draw = np.sort(rng.choice(n, size=4, replace=False))
        else:
            draw = rng.standard_normal((n, 4))
        worst = max(worst, reduction_discrepancy(a, draw, b, x, g=g))
    assert worst <= 1e-9
    budget.done(f"criterion 3: inverse-weighted reductions agree "
                f"(max discrepancy {worst:.2e})")


def test_criterion_4_spectral_rate_bounds():
    budget = Budget(60.0)
    a = make_rng(81).standard_normal((50, 20))
    prob = Problem(a=a, b=a @ np.ones(20), x_star=np.ones(20))
    rho_rows = rate_norm_sampling(a)[0]

    k1 = fit_empirical_rate(prob, make_scheme("K1", distribution=NORM_PROPORTIONAL),
                            trials=200, iterations=500, norm_used="euclid", seed=83)
    assert k1.rho_fit <= rho_rows + 0.02

    c1 = fit_empirical_rate(prob, make_scheme("C1", distribution=NORM_PROPORTIONAL),
                            trials=200, iterations=500, norm_used="ghat", seed=85)
    assert c1.rho_fit <= rho_rows + 0.02

    spd = random_spd(87, 50, lo=0.05, hi=2.0)
    prob_s = Problem(a=spd, b=spd @ np.ones(50), x_star=np.ones(50))
    rho_s = rate_trace_sampling(SpdMatrix(spd))
    s1 = fit_empirical_rate(prob_s, make_scheme("S1", distribution=TRACE_PROPORTIONAL),
                            trials=200, iterations=500, norm_used="a", seed=89)
    assert s1.rho_fit <= rho_s + 0.02
    budget.done(f"criterion 4: fitted contractions within +0.02 of theory "
                f"(K1 {k1.rho_fit:.4f}<={rho_rows:.4f}, C1 {c1.rho_fit:.4f}, "
                f"S1 {s1.rho_fit:.4f}<={rho_s:.4f})")


def test_criterion_5_matrix_integral_bound():
    budget = Budget(30.0)
    rng = make_rng(91)
    a = rng.standard_normal((10, 4))
    gaps = {}
    for sid, block, g in (
        ("K2", 1, None),
        ("K4", 2, None),
        ("K6", 2, SpdMatrix(random_spd(93, 4, lo=0.5, hi=2.0))),
    ):
        est = estimate_mean_propagator(a, g, sid, samples=10_000,
                                       rng=make_rng(95 + block), block_size=block)
        assert est.max_violation <= 3.0 * est.max_violation_se, sid
        gaps[sid] = est.max_violation

    closed = estimate_mean_propagator(np.eye(2), None, "K2", samples=10_000,
                                      rng=make_rng(97))
    assert np.abs(closed.matrix - 0.5 * np.eye(2)).max() <= 0.02
    assert closed.max_violation <= 3.0 * closed.max_violation_se
    budget.done("criterion 5: mean-propagator bound holds for K2/K4/K6 "
                "and the closed-form identity case")


def test_criterion_6_mean_inverse_positivity():
    budget = Budget(1.0)
    a = make_rng(99).standard_normal((8, 5))
    good = mean_sketched_inverse(a, None, coordinate_partition(5))
    assert good.positive_definite
    assert good.lambda_min > 0.0
    assert good.violated_assumptions == ()

    bad = mean_sketched_inverse(a, None, [(np.eye(5)[:, :1], 1.0)])
    assert "ii" in bad.violated_assumptions
    assert not bad.positive_definite
    budget.done("criterion 6: enumerated mean sketched inverse is positive "
                "definite; rank-deficient family flagged")


def test_criterion_7_least_squares_behavior():
    budget = Budget(30.0)
    rng = make_rng(101)
    a = rng.standard_normal((100, 10))
    b0 = a @ np.ones(10)
    z = rng.standard_normal(100)
    perp = z - a @ ls_solution_oracle(a, z)
    b = b0 + 0.5 * np.linalg.norm(b0) / np.linalg.norm(perp) * perp
    prob = Problem(a=a, b=b)
    stop = StopRule(itmax=100_000, tol=1e-6)

    x_c1, _ = solve(prob, make_scheme("C1"), stop, make_rng(103))
    neq_c1 = ls_residual(a, b, x_c1)
    assert neq_c1 <= 1e-4

    x_k1, _ = solve(prob, make_scheme("K1"), stop, make_rng(103))
    neq_k1 = ls_residual(a, b, x_k1)
    assert neq_k1 > 1e-4
    budget.done(f"criterion 7: column scheme reaches the LS solution "
                f"(neq {neq_c1:.1e}), row scheme hovers (neq {neq_k1:.1e})")


FIGURE1_SCHEMES = ["K1", "K2", "K3", "K4", "C1", "C2", "C3", "C4"]


def _figure1_config(out_dir):
    return {
        "problem": {"kind": "UniformDense", "m": 1000, "n": 100, "seed": 2026},
        "schemes": FIGURE1_SCHEMES,
        "stop": {"itmax": 100_000, "tol": 1e-6},
        "block_size": 10,
        "trials": 1,
        "seed": 424_242,
        "output_dir": str(out_dir),
    }


def _run_figure1(tmp_path, tag):
    out = tmp_path / f"fig1_{tag}"
    cfg_path = tmp_path / f"fig1_{tag}.json"
    cfg_path.write_text(json.dumps(_figure1_config(out)))
    start = time.perf_counter()
    assert cli_main(["bench", "--config", str(cfg_path)]) == 0
    elapsed = time.perf_counter() - start
    summary = json.loads((out / "summary.json").read_text())
    iters = {e["scheme"]: e["iters"] for e in summary["per_scheme"]}
    status = {e["scheme"]: e["status"] for e in summary["per_scheme"]}
    return out, iters, status, elapsed


@pytest.fixture(scope="module")
def figure1_runs(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("figure1")
    return [_run_figure1(tmp_path, tag) for tag in ("a", "b")]


def test_criterion_8_block_schemes_iterate_less(figure1_runs):
    _, iters, status, elapsed = figure1_runs[0]
    assert elapsed < 120.0, f"bench run took {elapsed:.1f}s (budget 120s)"
    assert all(status[s] == "Converged" for s in FIGURE1_SCHEMES), status
    for block, scalar in [("K3", "K1"), ("K3", "K2"), ("K4", "K1"), ("K4", "K2"),
                          ("C3", "C1"), ("C3", "C2"), ("C4", "C1"), ("C4", "C2")]:
        assert iters[block] < iters[scalar], (block, scalar, iters)
    print(f"PASS criterion 8: block schemes converge in strictly fewer "
          f"iterations ({iters}; {elapsed:.1f}s)")


def test_criterion_9_bench_determinism(figure1_runs):
    (out1, iters1, _, _), (out2, iters2, _, _) = figure1_runs
    assert iters1 == iters2
    for sid in FIGURE1_SCHEMES:
        name = f"{sid}_trial0.csv"
        with open(out1 / name, newline="") as fh:
            rows1 = list(csv.reader(fh))
        with open(out2 / name, newline="") as fh:
            rows2 = list(csv.reader(fh))
        assert [r[:3] for r in rows1] == [r[:3] for r in rows2], sid
    print("PASS criterion 9: re-run reproduces iteration counts and all "
          "CSV columns except time_s byte-for-byte")
