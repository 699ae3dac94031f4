import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from helpers import (gaussian, ls_residual, ls_solution_oracle, plain_solve,
                     random_spd)
from sketchsolve import problems, schemes, solver, theory
from sketchsolve.linalg import SpdMatrix
from sketchsolve.schemes import SkipStep, error_propagator, make_scheme, step
from sketchsolve.sketch import (INDEX, NORM_PROPORTIONAL, TRACE_PROPORTIONAL,
                                UNIFORM, draw_dim, draw_sketch, make_rng)
from sketchsolve.solver import (CONVERGED, DRIFT, EXACT_EVERY, MAX_ITERS,
                                NON_FINITE, Problem, StopRule, TraceRecord,
                                solve)


def _consistent_problem(seed: int, m: int, n: int) -> Problem:
    a = gaussian(seed, m, n)
    x_star = np.ones(n)
    return Problem(a=a, b=a @ x_star, x_star=x_star)


class TestValidation:
    def test_problem_shape_checks(self):
        with pytest.raises(ValueError):
            Problem(a=np.eye(2), b=np.ones(3))
        with pytest.raises(ValueError):
            Problem(a=np.eye(2), b=np.ones(2), x_star=np.ones(3))

    def test_problem_rejects_inconsistent_known_solution(self):
        with pytest.raises(ValueError):
            Problem(a=np.eye(2), b=np.array([1.0, 1.0]), x_star=np.array([1.0, 0.0]))

    @pytest.mark.parametrize("where", ["a", "b", "x_star"])
    def test_problem_rejects_non_finite_input_with_known_solution(self, where):
        # NaN in A or x_star gives a NaN gap, Inf in b an Inf gap against an
        # Inf bound: neither may pass the consistency check
        a, x_star = np.eye(2), np.ones(2)
        b = a @ x_star
        if where == "a":
            a[0, 1] = np.nan
        elif where == "b":
            b[1] = np.inf
        else:
            x_star[0] = np.nan
        with pytest.raises(ValueError, match="does not solve"):
            Problem(a=a, b=b, x_star=x_star)

    @pytest.mark.parametrize("where", ["a", "b"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_problem_rejects_non_finite_input_without_known_solution(
            self, where, bad):
        a, b = np.eye(2), np.ones(2)
        (a[0] if where == "a" else b)[1] = bad
        with pytest.raises(ValueError, match="must be finite"):
            Problem(a=a, b=b)

    @pytest.mark.parametrize("sid", ["K1", "C1", "S3"])
    def test_non_finite_x0_refused(self, sid):
        prob = Problem(a=random_spd(3, 4), b=np.ones(4))
        x0 = np.zeros(4)
        x0[2] = np.nan
        with pytest.raises(ValueError, match="x0 must be finite"):
            solve(prob, make_scheme(sid, block_size=2), StopRule(itmax=10),
                  make_rng(0), x0=x0)

    def test_stop_rule_checks(self):
        with pytest.raises(ValueError):
            StopRule(itmax=0)
        with pytest.raises(ValueError):
            StopRule(tol=0.0)

    def test_symmetric_scheme_needs_spd(self):
        prob = _consistent_problem(0, 4, 4)
        with pytest.raises(ValueError):
            solve(prob, make_scheme("S1"), StopRule(), make_rng(0))

    def test_weight_dimension_checked(self):
        prob = _consistent_problem(1, 6, 3)
        from sketchsolve.linalg import SpdMatrix
        bad = make_scheme("K5", block_size=2, g=SpdMatrix(np.eye(6)))  # needs 3x3
        with pytest.raises(ValueError):
            solve(prob, bad, StopRule(), make_rng(0))

    @pytest.mark.parametrize("sid", ["S1", "S2", "S3", "S4"])
    def test_symmetric_scheme_needs_square_system(self, sid):
        prob = _consistent_problem(2, 6, 3)
        with pytest.raises(ValueError,
                           match=f"scheme {sid} needs a square system, got 6x3"):
            solve(prob, make_scheme(sid, block_size=2), StopRule(), make_rng(0))

    @pytest.mark.parametrize("shape, sid, block, dist, message", [
        ((3, 6), "K1", 1, TRACE_PROPORTIONAL,
         "trace-proportional sampling needs a square system, got 3x6"),
        ((6, 6), "K1", 1, TRACE_PROPORTIONAL,
         "trace-proportional sampling needs an SPD system: matrix is not "
         "symmetric"),
        ((6, 3), "K3", 7, "uniform", "block_size 7 exceeds dimension 6"),
        ((6, 3), "C4", 4, "uniform", "block_size 4 exceeds dimension 3"),
    ])
    def test_setup_refused_before_any_step(self, monkeypatch, shape, sid,
                                           block, dist, message):
        # solve and fit_empirical_rate check the same rule before they draw
        prob = _consistent_problem(4, *shape)
        scheme = make_scheme(sid, block_size=block, distribution=dist)
        rng, seen = make_rng(0), []
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            solve(prob, scheme, StopRule(itmax=10), rng,
                  observe=lambda k, x: seen.append(k))
        assert seen == [] and rng.bit_generator.state == state
        monkeypatch.setattr(theory, "solve", lambda *args, **kw: seen.append(args))
        with pytest.raises(ValueError, match=message):
            theory.fit_empirical_rate(prob, scheme, trials=2, iterations=5,
                                      norm_used="euclid", seed=0)
        assert seen == []

    def test_trace_every_must_be_positive(self):
        prob = _consistent_problem(3, 6, 3)
        with pytest.raises(ValueError, match="trace_every must be >= 1"):
            solve(prob, make_scheme("K1"), StopRule(), make_rng(0), trace_every=0)


class TestProblemCache:
    def test_arrays_are_read_only_views(self):
        a = gaussian(23, 5, 3)
        b = a @ np.ones(3)
        prob = Problem(a=a, b=b)
        with pytest.raises(ValueError):
            prob.a[0, 0] = 1.0
        with pytest.raises(ValueError):
            prob.b[0] = 1.0
        assert np.shares_memory(prob.a, a) and np.shares_memory(prob.b, b)
        assert a.flags.writeable and b.flags.writeable

    def test_writes_to_the_callers_array_leave_the_cache_stale(self):
        # documented: the views block writes through prob.a, not through a
        a = gaussian(30, 20, 4)
        prob = Problem(a=a, b=a @ np.ones(4))
        gram = prob.gram.copy()
        a[0, 0] += 1.0
        assert prob.a[0, 0] == a[0, 0]
        assert np.array_equal(prob.gram, gram)

    def test_gram_formed_once(self):
        prob = _consistent_problem(24, 9, 4)
        gram = prob.gram
        assert prob.gram is gram
        assert not gram.flags.writeable
        assert np.array_equal(gram, prob.a.T @ prob.a)

    def test_gram_forms_one_n_by_n_array(self):
        # numpy's mirrored A^T A is left as it is; averaging it with its
        # transpose first copied the overlapping G^T, a second n x n array
        prob = _consistent_problem(27, 300, 200)
        tracemalloc.start()
        try:
            gram = prob.gram
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * gram.nbytes
        assert np.array_equal(gram, gram.T)

    def test_trace_records_have_slots(self):
        assert not hasattr(TraceRecord(1, 0.5, None, 0.0), "__dict__")

    def test_sampling_cdf_kept_per_distribution_and_axis(self):
        prob = _consistent_problem(5, 12, 4)
        k1 = make_scheme("K1", distribution=NORM_PROPORTIONAL)
        c1 = make_scheme("C1", distribution=NORM_PROPORTIONAL)
        assert prob.sampler(k1) is prob.sampler(k1)
        assert len(prob.sampler(k1).cdf) == 12
        assert len(prob.sampler(c1).cdf) == 4
        assert np.array_equal(prob.sampler(c1).cdf,
                              schemes.sampling_weights(c1, prob.a).cdf)
        assert prob.sampler(make_scheme("K3", block_size=2)) is None

    def test_spd_check_runs_once_per_problem(self, monkeypatch):
        calls = []

        def counting(mat):
            calls.append(None)
            return SpdMatrix(mat)

        monkeypatch.setattr(solver, "SpdMatrix", counting)
        a = random_spd(25, 12)
        prob = Problem(a=a, b=a @ np.ones(12), x_star=np.ones(12))
        for sid in ("S1", "S2", "S3", "S4"):
            for trial in range(2):
                solve(prob, make_scheme(sid, block_size=3),
                      StopRule(itmax=200, tol=1e-6), make_rng(trial))
        assert len(calls) == 1

    def test_non_spd_fails_every_solve(self, monkeypatch):
        calls = []

        def counting(mat):
            calls.append(None)
            return SpdMatrix(mat)

        monkeypatch.setattr(solver, "SpdMatrix", counting)
        prob = _consistent_problem(26, 5, 5)
        for sid in ("S1", "S3", "S1"):
            with pytest.raises(ValueError, match=f"scheme {sid} needs an SPD "
                               "system: matrix is not symmetric"):
                solve(prob, make_scheme(sid, block_size=2), StopRule(),
                      make_rng(0))
        assert len(calls) == 1


class TestSolve:
    def test_full_block_converges_in_one_step(self):
        prob = Problem(a=np.eye(3), b=np.ones(3), x_star=np.ones(3))
        x, trace = solve(prob, make_scheme("K3", block_size=3),
                         StopRule(itmax=10, tol=1e-6), make_rng(0))
        assert trace.status == CONVERGED
        assert trace.iterations == 1
        assert trace.final.rel_residual <= 1e-12

    def test_starting_at_solution_converges_immediately(self):
        prob = _consistent_problem(2, 8, 4)
        x, trace = solve(prob, make_scheme("K1"), StopRule(), make_rng(0),
                         x0=prob.x_star)
        assert trace.status == CONVERGED
        assert trace.iterations == 0

    def test_k1_converges_on_random_system(self):
        prob = _consistent_problem(3, 50, 20)
        scheme = make_scheme("K1")
        x, trace = solve(prob, scheme, StopRule(itmax=100_000, tol=1e-6),
                         make_rng(42))
        assert trace.status == CONVERGED
        assert trace.final.rel_error <= 1e-5

        # oracle: replaying the same draw stream through the explicit
        # pseudoinverse formula must land on the same final iterate
        rng = make_rng(42)
        x_oracle = np.zeros(20)
        for _ in range(trace.iterations):
            draw = draw_sketch(scheme, prob.shape, rng)
            x_oracle = schemes.step_generic(scheme, prob.a, prob.b, x_oracle, draw)
        assert np.abs(x - x_oracle).max() <= 1e-10 * (1 + np.linalg.norm(x))

    def test_max_iters_status(self):
        prob = _consistent_problem(4, 30, 10)
        x, trace = solve(prob, make_scheme("K1"), StopRule(itmax=5, tol=1e-12),
                         make_rng(0))
        assert trace.status == MAX_ITERS
        assert trace.iterations == 5

    def test_deterministic_given_seed(self):
        prob = _consistent_problem(5, 40, 12)
        runs = [solve(prob, make_scheme("K2"), StopRule(itmax=2000, tol=1e-8),
                      make_rng(99)) for _ in range(2)]
        assert np.array_equal(runs[0][0], runs[1][0])
        assert [r.k for r in runs[0][1].records] == [r.k for r in runs[1][1].records]
        assert [r.rel_residual for r in runs[0][1].records] == \
               [r.rel_residual for r in runs[1][1].records]

    def test_trace_monotone_in_k_and_time(self):
        prob = _consistent_problem(6, 30, 10)
        _, trace = solve(prob, make_scheme("K3", block_size=3),
                         StopRule(itmax=500, tol=1e-10), make_rng(7))
        ks = [r.k for r in trace.records]
        ts = [r.elapsed_s for r in trace.records]
        assert ks == sorted(set(ks))
        assert all(t1 <= t2 for t1, t2 in zip(ts, ts[1:]))

    def test_recorded_error_nonincreasing_for_row_schemes(self):
        prob = _consistent_problem(7, 40, 10)
        _, trace = solve(prob, make_scheme("K1"), StopRule(itmax=3000, tol=1e-10),
                         make_rng(11), trace_every=1)
        errs = [r.rel_error for r in trace.records]
        assert all(e1 <= e0 + 1e-12 for e0, e1 in zip(errs, errs[1:]))

    def test_skipped_degenerate_steps_counted(self):
        a = np.vstack([np.zeros((1, 3)), gaussian(8, 5, 3)])
        prob = Problem(a=a, b=a @ np.ones(3), x_star=np.ones(3))
        _, trace = solve(prob, make_scheme("K1"), StopRule(itmax=200, tol=1e-10),
                         make_rng(1))
        assert trace.skip_count > 0

    @pytest.mark.parametrize("sid", ["K1", "C3", "S3"])
    def test_observe_sees_every_step_and_changes_nothing(self, sid):
        a = random_spd(9, 6)
        prob = Problem(a=a, b=a @ np.ones(6), x_star=np.ones(6))
        scheme = make_scheme(sid, block_size=2)
        stop = StopRule(itmax=60, tol=1e-300)
        seen = []
        x, trace = solve(prob, scheme, stop, make_rng(3), trace_every=7,
                         observe=lambda k, x: seen.append((k, x.copy())))
        x_plain, plain = solve(prob, scheme, stop, make_rng(3), trace_every=7)
        assert [k for k, _ in seen] == list(range(1, 61))
        assert np.array_equal(seen[-1][1], x) and np.array_equal(x, x_plain)
        assert [(r.k, r.rel_residual, r.rel_error) for r in trace.records] == \
            [(r.k, r.rel_residual, r.rel_error) for r in plain.records]
        for rec in trace.records[1:]:
            err = float(np.linalg.norm(seen[rec.k - 1][1] - prob.x_star))
            assert rec.rel_error == err / float(np.linalg.norm(prob.x_star))

    def test_observe_sees_skipped_steps(self):
        a = np.vstack([np.zeros((1, 3)), gaussian(8, 5, 3)])
        prob = Problem(a=a, b=a @ np.ones(3), x_star=np.ones(3))
        ks = []
        _, trace = solve(prob, make_scheme("K1"), StopRule(itmax=200, tol=1e-300),
                         make_rng(1), observe=lambda k, x: ks.append(k))
        assert trace.skip_count > 0
        assert ks == list(range(1, 201))


class TestReplay:
    def test_trace_and_error_propagation_match_replay(self):
        """Replaying the draw stream must reproduce the recorded residuals,
        and the iterate error must equal the product of the per-draw
        propagators applied to the initial error."""
        prob = _consistent_problem(9, 6, 4)
        scheme = make_scheme("K3", block_size=2)
        stop = StopRule(itmax=15, tol=1e-14)
        seed = 123
        x0 = np.array([0.5, -1.0, 2.0, 0.0])
        _, trace = solve(prob, scheme, stop, make_rng(seed), x0=x0, trace_every=1)

        rng = make_rng(seed)
        a, b = prob.a, prob.b
        weights = schemes.sampling_weights(scheme, a)
        norm_b = np.linalg.norm(b)
        x = x0.copy()
        err_product = x0 - prob.x_star
        by_k = {rec.k: rec for rec in trace.records}
        assert np.isclose(by_k[0].rel_residual,
                          np.linalg.norm(b - a @ x) / norm_b, atol=1e-12)
        for k in range(1, trace.iterations + 1):
            draw = draw_sketch(scheme, a.shape, rng, weights)
            t = error_propagator(scheme, a, draw)
            err_product = t @ err_product
            try:
                x = step(scheme, a, b, x, draw)
            except SkipStep:
                pass
            rec = by_k[k]
            recomputed = np.linalg.norm(b - a @ x) / norm_b
            assert abs(rec.rel_residual - recomputed) <= 1e-12
            assert np.linalg.norm(x - prob.x_star - err_product) <= 1e-8

    @pytest.mark.parametrize("sid", ["C3", "S3"])
    def test_maintained_residual_records_match_replay(self, sid):
        """Records that read the maintained residual agree with a recompute
        along the replayed iterates, and the final Converged record is the
        exact residual of the returned iterate."""
        a = random_spd(10, 40) if sid == "S3" else gaussian(10, 60, 40)
        prob = Problem(a=a, b=a @ np.ones(40), x_star=np.ones(40))
        scheme = make_scheme(sid, block_size=4)
        seed = 321
        x_final, trace = solve(prob, scheme, StopRule(itmax=20_000, tol=1e-10),
                               make_rng(seed))
        assert trace.status == CONVERGED
        # periodic checks ran, yet most records read the maintained residual
        assert len(trace.records) > EXACT_EVERY
        assert 2 < trace.exact_recomputes < len(trace.records) // 10

        rng = make_rng(seed)
        b = prob.b
        norm_b = np.linalg.norm(b)
        x = np.zeros(40)
        for rec in trace.records[1:]:
            draw = draw_sketch(scheme, a.shape, rng)
            x = step(scheme, a, b, x, draw)
            recomputed = np.linalg.norm(b - a @ x) / norm_b
            assert abs(rec.rel_residual - recomputed) <= 1e-12
        assert trace.final.rel_residual == np.linalg.norm(b - a @ x_final) / norm_b

    def test_perturbed_residual_stops_with_drift(self, monkeypatch):
        prob = _consistent_problem(15, 30, 8)
        real_step = schemes.step
        calls = []

        def perturbing_step(scheme, a, b, x, draw, r=None, **kw):
            out = real_step(scheme, a, b, x, draw, r=r, **kw)
            calls.append(None)
            if len(calls) == 3:
                r[0] += 1e-6 * np.linalg.norm(b)
            return out

        monkeypatch.setattr(schemes, "step", perturbing_step)
        x, trace = solve(prob, make_scheme("C3", block_size=3),
                         StopRule(itmax=50, tol=1e-14), make_rng(0))
        assert trace.status == DRIFT
        assert trace.final.rel_residual == \
            np.linalg.norm(prob.b - prob.a @ x) / np.linalg.norm(prob.b)


def _sparse_normal(rc: float) -> Problem:
    return problems.generate(problems.ProblemSpec(
        kind="SparseNormal", m=200, n=20, rc=rc, seed=5))


def _least_squares_problem() -> Problem:
    """Tall and inconsistent: b leaves range(A) by 1e-7 ||b||, so a step onto
    all rows at once takes the residual from ||b|| to 1e-7 ||b||."""
    a = gaussian(18, 40, 6)
    b0 = a @ np.ones(6)
    z = np.random.default_rng(18).standard_normal(40)
    perp = z - a @ ls_solution_oracle(a, z)
    return Problem(a=a, b=b0 + 1e-7 * np.linalg.norm(b0) / np.linalg.norm(perp) * perp)


def _noisy_problem(seed: int, m: int, n: int, noise: float) -> Problem:
    """Tall and inconsistent: ``b = A 1 + e`` with ``||e|| = noise ||A 1||``."""
    a = gaussian(seed, m, n)
    b0 = a @ np.ones(n)
    e = np.random.default_rng(seed).standard_normal(m)
    return Problem(a=a, b=b0 + noise * np.linalg.norm(b0) / np.linalg.norm(e) * e)


class TestAnchoredRecords:
    """Row schemes, and C1-C4 in Gram space, on tall systems read their
    records from an exact anchor and A^T A; each record must still agree
    with a recompute along the A-space iteration, and the run must stop
    where exact records would have stopped it. The problems here are
    smaller than ANCHOR_MIN_SIZE, so the anchor is switched on for them."""

    @pytest.fixture(autouse=True)
    def _anchor_small_problems(self, monkeypatch):
        monkeypatch.setattr(solver, "ANCHOR_MIN_SIZE", 0)

    @pytest.mark.parametrize("sid, make, block, tol, itmax", [
        pytest.param("K1", lambda: _sparse_normal(1e-3), 1, 1e-3, 20_000,
                     id="K1-sparse-rc1e-3"),
        pytest.param("K1", lambda: _sparse_normal(1e-3), 1, 1e-4, 3000,
                     id="K1-sparse-rc1e-3-itmax"),
        pytest.param("K3", lambda: _sparse_normal(1e-3), 8, 1e-3, 20_000,
                     id="K3-sparse-rc1e-3"),
        pytest.param("K4", lambda: _sparse_normal(1e-3), 4, 1e-3, 20_000,
                     id="K4-sparse-rc1e-3"),
        pytest.param("K3", lambda: _sparse_normal(1e-1), 4, 1e-8, 20_000,
                     id="K3-sparse-rc1e-1"),
        pytest.param("K1", lambda: _consistent_problem(19, 150, 20), 1, 1e-10,
                     20_000, id="K1-gaussian"),
        # the residual falls so fast that reads from an old anchor lose their
        # digits long before tol: without the RECORD_RTOL guard they are off
        # by ~1e-10
        pytest.param("K3", lambda: _consistent_problem(27, 200, 20), 16, 1e-13,
                     100, id="K3-fast"),
        # one step leaves 1e-14 of ||r_a||^2, below the read's rounding bound
        pytest.param("K3", _least_squares_problem, 40, 1e-9, 6,
                     id="K3-all-rows-least-squares"),
        # m / n = 50 and inconsistent: A^T r shrinks near the least-squares
        # solution while the rounding of s_a = A^T r_a does not
        pytest.param("K1", lambda: _noisy_problem(28, 2000, 40, 0.3), 1,
                     0.2, 3000, id="K1-least-squares-m/n=50"),
        pytest.param("K3", lambda: _noisy_problem(28, 2000, 40, 0.3), 40,
                     0.2, 300, id="K3-least-squares-m/n=50"),
        # C1-C4 run in Gram space on these shapes, and their records read s;
        # the normal equations lose accuracy like cond(A)^2
        pytest.param("C1", lambda: _sparse_normal(1e-3), 1, 1e-3, 20_000,
                     id="C1-sparse-rc1e-3"),
        pytest.param("C1", lambda: _sparse_normal(1e-3), 1, 1e-9, 3000,
                     id="C1-sparse-rc1e-3-itmax"),
        pytest.param("C3", lambda: _sparse_normal(1e-3), 4, 1e-3, 20_000,
                     id="C3-sparse-rc1e-3"),
        pytest.param("C3", lambda: _sparse_normal(1e-3), 8, 1e-9, 600,
                     id="C3-sparse-rc1e-3-itmax"),
        pytest.param("C2", lambda: _sparse_normal(1e-3), 1, 1e-3, 20_000,
                     id="C2-sparse-rc1e-3"),
        pytest.param("C4", lambda: _sparse_normal(1e-3), 4, 1e-3, 20_000,
                     id="C4-sparse-rc1e-3"),
        pytest.param("C3", lambda: _consistent_problem(27, 200, 20), 8, 1e-13,
                     300, id="C3-fast"),
        # near the least-squares solution s = A^T r shrinks to rounding
        # while r does not
        pytest.param("C1", lambda: _noisy_problem(28, 2000, 40, 0.3), 1,
                     0.2, 3000, id="C1-least-squares-m/n=50"),
        pytest.param("C3", lambda: _noisy_problem(28, 2000, 40, 0.3), 8,
                     0.2, 300, id="C3-least-squares-m/n=50"),
    ])
    def test_records_match_replay(self, sid, make, block, tol, itmax):
        prob = make()
        scheme = make_scheme(sid, block_size=block)
        seed = 77
        stop = StopRule(itmax=itmax, tol=tol)
        x_final, trace = solve(prob, scheme, stop, make_rng(seed))
        every = solver.default_trace_every(scheme)
        # some records read the anchor, and the first and last are exact
        assert 2 <= trace.exact_recomputes < len(trace.records)
        assert "gram" in prob.__dict__

        rng = make_rng(seed)
        a, b = prob.a, prob.b
        sampler = schemes.sampling_weights(scheme, a)
        norm_b = np.linalg.norm(b)
        x = np.zeros(a.shape[1])
        replayed = [(0, np.linalg.norm(b) / norm_b)]
        for k in range(1, trace.iterations + 1):
            draw = draw_sketch(scheme, a.shape, rng, sampler)
            try:
                x = step(scheme, a, b, x, draw)
            except SkipStep:
                pass
            if k % every == 0 or k == itmax:
                replayed.append((k, np.linalg.norm(b - a @ x) / norm_b))
        assert [rec.k for rec in trace.records] == [k for k, _ in replayed]
        for rec, (_, recomputed) in zip(trace.records, replayed):
            assert abs(rec.rel_residual - recomputed) <= 1e-12
        below = [k for k, res in replayed if res < tol]
        if trace.status == CONVERGED:
            assert trace.iterations == below[0]
        else:
            assert trace.status == MAX_ITERS and not below
        assert trace.final.rel_residual == np.linalg.norm(b - a @ x_final) / norm_b

    def test_full_block_converges_in_one_step_on_exact_record(self):
        prob = _consistent_problem(20, 24, 5)
        x, trace = solve(prob, make_scheme("K3", block_size=24),
                         StopRule(itmax=10, tol=1e-10), make_rng(0))
        assert trace.status == CONVERGED
        assert trace.iterations == 1
        assert trace.exact_recomputes == 2
        assert trace.final.rel_residual == \
            np.linalg.norm(prob.b - prob.a @ x) / np.linalg.norm(prob.b)

    def test_perturbed_gram_stops_with_drift(self, monkeypatch):
        prob = _consistent_problem(21, 60, 8)
        monkeypatch.setattr(prob, "gram", prob.gram * (1.0 + 1e-6))
        x, trace = solve(prob, make_scheme("K1"),
                         StopRule(itmax=5000, tol=1e-14), make_rng(0))
        assert trace.status == DRIFT
        assert trace.final.rel_residual == \
            np.linalg.norm(prob.b - prob.a @ x) / np.linalg.norm(prob.b)

    def test_perturbed_gram_stops_c3_with_drift(self, monkeypatch):
        prob = _consistent_problem(21, 60, 8)
        monkeypatch.setattr(prob, "gram", prob.gram * (1.0 + 1e-6))
        x, trace = solve(prob, make_scheme("C3", block_size=3),
                         StopRule(itmax=5000, tol=1e-14), make_rng(0))
        assert trace.status == DRIFT
        assert trace.final.rel_residual == \
            np.linalg.norm(prob.b - prob.a @ x) / np.linalg.norm(prob.b)

    @pytest.mark.parametrize("sid, block", [("C1", 1), ("C3", 4)])
    def test_exact_records_resync_s(self, monkeypatch, sid, block):
        # the step after each exact record starts from s = A^T (b - A x),
        # formed as the solver forms it, not from the s carried to it
        prob = _noisy_problem(30, 400, 10, 0.3)
        a, b = prob.a, prob.b
        real_step = schemes.step
        resynced = []

        def spying_step(scheme, a_, b_, x, draw, r=None, gram=None):
            assert gram is prob.gram
            resynced.append(np.array_equal(r, a.T @ (b - a @ x)))
            return real_step(scheme, a_, b_, x, draw, r=r, gram=gram)

        monkeypatch.setattr(schemes, "step", spying_step)
        _, trace = solve(prob, make_scheme(sid, block_size=block),
                         StopRule(itmax=2000, tol=1e-3), make_rng(4),
                         trace_every=5)
        assert trace.status == MAX_ITERS
        # exact at k = 0 and every EXACT_EVERY records, the last of them at
        # itmax, which no step follows
        assert trace.exact_recomputes == 2000 // (5 * EXACT_EVERY) + 1
        assert sum(resynced) == trace.exact_recomputes - 1
        for j in range(0, 2000, 5 * EXACT_EVERY):
            assert resynced[j]

    @pytest.mark.parametrize("m, n", [(12, 12), (8, 12), (30, 12)])
    def test_square_wide_and_near_square_records_are_exact(self, m, n):
        prob = _consistent_problem(22, m, n)
        for sid, block in (("K1", 1), ("K3", 3)):
            _, trace = solve(prob, make_scheme(sid, block_size=block),
                             StopRule(itmax=3000, tol=1e-8), make_rng(1))
            assert len(trace.records) > 2
            assert trace.exact_recomputes == len(trace.records)


class TestAnchorPolicy:
    @pytest.mark.parametrize("m, n, anchored", [
        (120, 24, False),  # m / n = 5 but m n < ANCHOR_MIN_SIZE
        (1024, 128, True),
    ])
    def test_anchor_only_on_large_tall_systems(self, m, n, anchored):
        prob = _consistent_problem(29, m, n)
        _, trace = solve(prob, make_scheme("K1"), StopRule(tol=1e-3),
                         make_rng(2))
        assert trace.status == CONVERGED
        assert (trace.exact_recomputes < len(trace.records)) == anchored

    @pytest.mark.parametrize("sid, m, n, trace_every, gram", [
        ("C3", 120, 24, None, True),
        ("C1", 120, 24, None, True),
        ("C4", 120, 24, None, True),
        # m x m weight: no Gram-space step
        ("C5", 120, 24, None, False),
        ("C6", 120, 24, None, False),
        ("C3", 60, 24, None, False),  # m < ANCHOR_MIN_RATIO n
        # records only at k = 0 and itmax, as in a rate fit's trials
        ("C3", 120, 24, 50, False),
        ("C1", 120, 24, 60, False),
    ])
    def test_column_schemes_in_gram_space_only_where_g_is_used(
            self, monkeypatch, sid, m, n, trace_every, gram):
        monkeypatch.setattr(solver, "ANCHOR_MIN_SIZE", 0)
        prob = _consistent_problem(31, m, n)
        g = SpdMatrix(np.eye(m)) if sid in schemes.WEIGHTED_SCHEMES else None
        real_step = schemes.step
        grams = set()

        def spying_step(scheme, a, b, x, draw, r=None, gram=None):
            # r carries b - A x in A space and A^T (b - A x) in Gram space
            grams.add(gram is not None)
            want = b - a @ x if gram is None else a.T @ (b - a @ x)
            scale = np.linalg.norm(b) * (1.0 if gram is None else np.linalg.norm(a))
            assert np.linalg.norm(r - want) <= 1e-12 * scale
            return real_step(scheme, a, b, x, draw, r=r, gram=gram)

        monkeypatch.setattr(schemes, "step", spying_step)
        solve(prob, make_scheme(sid, block_size=4, g=g),
              StopRule(itmax=50, tol=1e-12), make_rng(3), trace_every=trace_every)
        assert grams == {gram}
        assert ("gram" in prob.__dict__) == gram

    @pytest.mark.parametrize("trace_every, anchored", [(50, False), (49, True)])
    def test_no_anchor_without_a_record_before_itmax(self, monkeypatch,
                                                     trace_every, anchored):
        # a run whose only records are k = 0 and the exact one at itmax, as
        # in a rate fit, reads no anchor and must not form A^T A for one
        monkeypatch.setattr(solver, "ANCHOR_MIN_SIZE", 0)
        prob = _consistent_problem(29, 120, 24)
        _, trace = solve(prob, make_scheme("K1"), StopRule(itmax=50, tol=1e-12),
                         make_rng(2), trace_every=trace_every)
        assert trace.status == MAX_ITERS
        assert ("gram" in prob.__dict__) == anchored


class _WatchedA(np.ndarray):
    """``A`` that counts every matrix product taken with all of it, of shape
    ``full`` or its transpose; products with a gathered block go uncounted."""

    full = ()
    full_products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and any(
                isinstance(v, _WatchedA) and v.shape in (self.full,
                                                         self.full[::-1])
                for v in inputs):
            _WatchedA.full_products += 1
        inputs = [np.asarray(v) if isinstance(v, _WatchedA) else v
                  for v in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


class TestExactRecordProducts:
    """Where the anchor reads G, each exact record forms ``b - A x`` and
    ``A^T (b - A x)`` in one pass (``linalg.normal_residual``, reached as
    ``solver.normal_residual``); every other exact record forms ``b - A x``
    alone."""

    @pytest.fixture
    def helper_calls(self, monkeypatch):
        calls = []
        real = solver.normal_residual

        def counting(a, b, x):
            calls.append(1)
            return real(np.asarray(a), b, x)

        def never(a, b, x):
            raise AssertionError("a step formed A^T (b - A x)")

        monkeypatch.setattr(solver, "normal_residual", counting)
        monkeypatch.setattr(schemes, "normal_residual", never)
        monkeypatch.setattr(solver, "ANCHOR_MIN_SIZE", 0)
        return calls

    @pytest.mark.parametrize("sid, block", [("K3", 4), ("C3", 4)])
    def test_one_pass_per_exact_record(self, monkeypatch, helper_calls, sid,
                                       block):
        prob = _noisy_problem(30, 400, 10, 0.3)
        prob.gram  # formed from A before A is watched
        monkeypatch.setattr(_WatchedA, "full", prob.a.shape)
        monkeypatch.setattr(_WatchedA, "full_products", 0)
        monkeypatch.setattr(prob, "a", prob.a.view(_WatchedA))
        _, trace = solve(prob, make_scheme(sid, block_size=block),
                         StopRule(itmax=2000, tol=1e-3), make_rng(4),
                         trace_every=5)
        assert trace.status == MAX_ITERS
        assert trace.exact_recomputes == 2000 // (5 * EXACT_EVERY) + 1
        assert len(helper_calls) == trace.exact_recomputes
        # nothing else takes an O(mn) product with A
        assert _WatchedA.full_products == 0

    def test_watched_a_counts_both_orientations(self, monkeypatch):
        monkeypatch.setattr(_WatchedA, "full", (6, 3))
        monkeypatch.setattr(_WatchedA, "full_products", 0)
        a = gaussian(1, 6, 3).view(_WatchedA)
        a @ np.ones(3), a.T @ np.ones(6), np.ones(6) @ a, a[:2] @ np.ones(3)
        assert _WatchedA.full_products == 3

    @pytest.mark.parametrize("sid", ["C5", "S3"])
    def test_carried_residual_records_form_b_minus_ax_alone(self, helper_calls,
                                                            sid):
        if sid == "S3":
            a = random_spd(10, 40)
            prob = Problem(a=a, b=a @ np.ones(40), x_star=np.ones(40))
            scheme = make_scheme("S3", block_size=4)
        else:
            prob = _consistent_problem(31, 120, 24)
            scheme = make_scheme("C5", block_size=4, g=SpdMatrix(np.eye(120)))
        _, trace = solve(prob, scheme, StopRule(itmax=400, tol=1e-14),
                         make_rng(3))
        assert trace.exact_recomputes >= 2
        assert helper_calls == []


class TestZeroStart:
    """An anchored run from ``x = 0`` reads its k = 0 record from
    ``Problem.zero_start``: only the first such solve on a problem forms it
    with ``solver.normal_residual``, and every solve runs as on a fresh
    problem."""

    @pytest.fixture
    def helper_calls(self, monkeypatch):
        calls = []
        real = solver.normal_residual

        def counting(a, b, x):
            calls.append(1)
            return real(a, b, x)

        monkeypatch.setattr(solver, "normal_residual", counting)
        monkeypatch.setattr(solver, "ANCHOR_MIN_SIZE", 0)
        return calls

    @staticmethod
    def _run(prob, sid, block, helper_calls, x0=None):
        del helper_calls[:]
        x, trace = solve(prob, make_scheme(sid, block_size=block),
                         StopRule(itmax=3000, tol=1e-3), make_rng(6), x0=x0,
                         trace_every=5)
        return x, trace, len(helper_calls)

    @pytest.mark.parametrize("sid, block", [("K1", 1), ("K3", 4), ("C1", 1),
                                            ("C3", 4)])
    def test_second_solve_runs_as_on_a_fresh_problem(self, helper_calls, sid,
                                                     block):
        prob = _sparse_normal(1e-3)
        solve(prob, make_scheme(sid, block_size=block),
              StopRule(itmax=50, tol=1e-3), make_rng(1))
        x, trace, calls = self._run(prob, sid, block, helper_calls)
        x_f, trace_f, calls_f = self._run(_sparse_normal(1e-3), sid, block,
                                          helper_calls)
        assert np.array_equal(x, x_f)
        assert [(r.k, r.rel_residual, r.rel_error) for r in trace.records] == \
            [(r.k, r.rel_residual, r.rel_error) for r in trace_f.records]
        assert (trace.status, trace.skip_count, trace.exact_recomputes) == \
            (trace_f.status, trace_f.skip_count, trace_f.exact_recomputes)
        assert trace.exact_recomputes >= 2
        assert calls_f == trace_f.exact_recomputes
        assert calls == trace.exact_recomputes - 1

    @pytest.mark.parametrize("sid, block", [("K3", 4), ("C3", 4)])
    def test_only_a_zero_start_reads_the_record(self, helper_calls, sid,
                                                block):
        prob = _sparse_normal(1e-3)
        x0 = np.zeros(prob.shape[1])
        x0[3] = 1e-300
        _, trace, calls = self._run(prob, sid, block, helper_calls, x0=x0)
        assert "zero_start" not in vars(prob)
        assert calls == trace.exact_recomputes
        _, trace, calls = self._run(prob, sid, block, helper_calls,
                                    x0=np.zeros(prob.shape[1]))
        assert calls == trace.exact_recomputes
        _, trace, calls = self._run(prob, sid, block, helper_calls, x0=x0)
        assert calls == trace.exact_recomputes
        _, trace, calls = self._run(prob, sid, block, helper_calls)
        assert calls == trace.exact_recomputes - 1

    def test_record_is_read_only_and_left_unchanged(self, helper_calls):
        prob = _sparse_normal(1e-3)
        r0, s0 = prob.zero_start
        assert not r0.flags.writeable and not s0.flags.writeable
        want = solver.normal_residual(prob.a, prob.b, np.zeros(prob.shape[1]))
        assert np.array_equal(r0, want[0]) and np.array_equal(s0, want[1])
        assert np.array_equal(r0, prob.b - prob.a @ np.zeros(prob.shape[1]))
        # Gram-space C3 carries its own s and writes it at every step
        _, trace, calls = self._run(prob, "C3", 4, helper_calls)
        assert calls == trace.exact_recomputes - 1
        assert prob.zero_start[0] is r0 and prob.zero_start[1] is s0
        assert np.array_equal(r0, want[0]) and np.array_equal(s0, want[1])


def _with_zero_rows() -> Problem:
    """Tall, consistent, with 10 zero rows among 200: K1 skips ~5% of its
    steps."""
    a = gaussian(32, 200, 20)
    a[::20] = 0.0
    return Problem(a=a, b=a @ np.ones(20), x_star=np.ones(20))


def _identity_weighted(sid: str, shape: tuple, block: int) -> schemes.Scheme:
    """``sid`` at ``block``, with an identity weight where it takes one."""
    g = None
    if sid in schemes.WEIGHTED_SCHEMES:
        g = SpdMatrix(np.eye(schemes.weight_dim(sid, shape)))
    return make_scheme(sid, block_size=block, g=g)


def _counting_step(monkeypatch, at: int | None = None,
                   exc: Exception | None = None):
    """Patch ``schemes.step`` to count its calls, and to add 1e300 to x at
    call ``at``, or raise ``exc`` there; returns the list of calls."""
    real_step, steps = schemes.step, []

    def step_(scheme, a, b, x, draw, r=None, gram=None):
        steps.append(1)
        if len(steps) == at and exc is not None:
            raise exc
        x = real_step(scheme, a, b, x, draw, r=r, gram=gram)
        return x + 1e300 if len(steps) == at else x

    monkeypatch.setattr(schemes, "step", step_)
    return steps


class TestBatchedReads:
    """Anchored K runs read their records in batches, one ``D G`` product
    for up to ``READ_BATCH`` of them, while steps run on past them. A run
    with ``READ_BATCH`` 1, which reads each record as it comes, is the
    oracle: the batched run must return the same x, status, counts, record
    ks, exact record values and generator state, and every other record
    value must lie within the two reads' bounds of the oracle's."""

    BATCH = solver.READ_BATCH

    @pytest.fixture(autouse=True)
    def _anchor_small_problems(self, monkeypatch):
        monkeypatch.setattr(solver, "ANCHOR_MIN_SIZE", 0)

    @staticmethod
    def _run(monkeypatch, make, scheme, stop, batch, **kw):
        prob = make()
        spied = {"exact": [], "reads": {}, "sizes": [], "steps": 0}
        real_nr, real_read = solver.normal_residual, solver._ResidualAnchor.read
        real_step = schemes.step

        def nr(a, b, x):
            r, s = real_nr(a, b, x)
            spied["exact"].append(float(np.linalg.norm(r))
                                  / float(np.linalg.norm(prob.b)))
            return r, s

        def read(self, xs):
            out = real_read(self, xs)
            spied["sizes"].append(len(xs))
            spied["reads"].update((v, rounding + floor)
                                  for v, rounding, floor in out)
            return out

        def step_(*args, **kw):
            spied["steps"] += 1
            return real_step(*args, **kw)

        with monkeypatch.context() as patch:
            patch.setattr(solver, "READ_BATCH", batch)
            patch.setattr(solver, "normal_residual", nr)
            patch.setattr(solver._ResidualAnchor, "read", read)
            patch.setattr(schemes, "step", step_)
            rng = make_rng(77)
            x, trace = solve(prob, scheme, stop, rng, **kw)
        spied["state"] = rng.bit_generator.state
        return x, trace, spied

    def _assert_as_oracle(self, monkeypatch, make, scheme, stop, **kw):
        xb, tb, sb = self._run(monkeypatch, make, scheme, stop, self.BATCH,
                               **kw)
        xo, to, so = self._run(monkeypatch, make, scheme, stop, 1, **kw)
        assert xb.tobytes() == xo.tobytes()
        assert (tb.status, tb.iterations, tb.skip_count, tb.exact_recomputes) \
            == (to.status, to.iterations, to.skip_count, to.exact_recomputes)
        assert [r.k for r in tb.records] == [r.k for r in to.records]
        assert sb["state"] == so["state"]
        assert sb["exact"] == so["exact"]
        assert max(so["sizes"], default=1) == 1 < max(sb["sizes"])
        exact = set(so["exact"])
        for rb, ro in zip(tb.records, to.records):
            assert rb.rel_error == ro.rel_error
            if ro.rel_residual in exact:
                assert rb.rel_residual == ro.rel_residual
            else:  # both reads lie within their bounds of the same value
                assert abs(rb.rel_residual - ro.rel_residual) <= \
                    sb["reads"][rb.rel_residual] + so["reads"][ro.rel_residual]
        return tb, sb

    @pytest.mark.parametrize("sid, block, make", [
        ("K1", 1, lambda: _sparse_normal(1e-3)),
        ("K1", 1, _with_zero_rows),
        ("K3", 8, lambda: _sparse_normal(1e-3)),
        ("K4", 4, lambda: _sparse_normal(1e-3)),
    ])
    def test_convergence_mid_batch(self, monkeypatch, sid, block, make):
        scheme = make_scheme(sid, block_size=block)
        trace, spied = self._assert_as_oracle(
            monkeypatch, make, scheme, StopRule(itmax=20_000, tol=1e-3))
        assert trace.status == CONVERGED
        # steps ran past the stopping record, and no further than the cap
        every = solver.default_trace_every(scheme)
        assert 0 < spied["steps"] - trace.iterations <= \
            (self.BATCH - 1) * every

    @pytest.mark.parametrize("sid, block", [("K1", 1), ("K3", 8), ("K4", 4)])
    def test_itmax(self, monkeypatch, sid, block):
        trace, spied = self._assert_as_oracle(
            monkeypatch, _with_zero_rows, make_scheme(sid, block_size=block),
            StopRule(itmax=1234, tol=1e-300))
        assert trace.status == MAX_ITERS
        assert spied["steps"] == trace.iterations == 1234

    @pytest.mark.parametrize("sid, block", [("K1", 1), ("K3", 3), ("K4", 3)])
    def test_drift(self, monkeypatch, sid, block):
        def make():
            prob = _consistent_problem(21, 60, 8)
            monkeypatch.setattr(prob, "gram", prob.gram * (1.0 + 1e-6))
            return prob

        # caught by the exact record near tol, mid-batch
        trace, spied = self._assert_as_oracle(
            monkeypatch, make, make_scheme(sid, block_size=block),
            StopRule(itmax=5000, tol=1e-3))
        assert trace.status == DRIFT
        assert spied["steps"] > trace.iterations

    @pytest.mark.parametrize("sid, block", [("K1", 1), ("K3", 3), ("K4", 3)])
    def test_non_finite(self, monkeypatch, sid, block):
        steps = _counting_step(monkeypatch, 13)

        def make():  # each run blows up at its own step 13
            steps.clear()
            return _consistent_problem(5, 120, 6)

        with np.errstate(over="ignore", invalid="ignore"):
            trace, spied = self._assert_as_oracle(
                monkeypatch, make,
                make_scheme(sid, block_size=block),
                StopRule(itmax=1000, tol=1e-14))
        assert trace.status == NON_FINITE
        assert spied["steps"] > trace.iterations

    def test_step_raising_past_the_stopping_record_does_not_escape(
            self, monkeypatch):
        scheme, stop = make_scheme("K1"), StopRule(itmax=20_000, tol=1e-3)
        make = lambda: _sparse_normal(1e-3)  # noqa: E731
        x_o, trace_o, _ = self._run(monkeypatch, make, scheme, stop, 1)
        steps = _counting_step(monkeypatch, trace_o.iterations + 1,
                            RuntimeError("past the stop"))
        x, trace, _ = self._run(monkeypatch, make, scheme, stop, self.BATCH)
        assert len(steps) == trace_o.iterations + 1
        assert x.tobytes() == x_o.tobytes()
        assert (trace.status, trace.iterations) == (CONVERGED,
                                                    trace_o.iterations)

    def test_step_raising_with_no_stopping_record_pending_raises(
            self, monkeypatch):
        steps = _counting_step(monkeypatch, 35, RuntimeError("mid-batch"))
        with pytest.raises(RuntimeError, match="mid-batch"):
            solve(_sparse_normal(1e-3), make_scheme("K1"),
                  StopRule(itmax=20_000, tol=1e-3), make_rng(77))
        assert len(steps) == 35

    @pytest.mark.parametrize("sid", ["K1", "K3"])
    def test_observe_sees_exactly_the_steps_of_the_run(self, monkeypatch, sid):
        steps, seen = _counting_step(monkeypatch), []
        _, trace = solve(_sparse_normal(1e-3), make_scheme(sid, block_size=8),
                         StopRule(itmax=20_000, tol=1e-3), make_rng(77),
                         observe=lambda k, x: seen.append(k))
        assert trace.status == CONVERGED
        assert len(steps) == trace.iterations
        assert seen == list(range(1, trace.iterations + 1))

    @pytest.mark.parametrize("sid, trace_every", [
        ("K1", None), ("K1", 5), ("K1", 100), ("K3", None), ("K3", 3),
        ("K3", 40)])
    def test_batch_cap(self, monkeypatch, sid, trace_every):
        scheme = make_scheme(sid, block_size=4)
        every = solver.default_trace_every(scheme)
        cap = max(1, self.BATCH * every // (trace_every or every))
        _, trace, spied = self._run(
            monkeypatch, lambda: _noisy_problem(30, 400, 10, 0.3), scheme,
            StopRule(itmax=6000, tol=1e-3), self.BATCH,
            trace_every=trace_every)
        assert trace.status == MAX_ITERS
        assert max(spied["sizes"]) == cap
        # exact only at k = 0, the periodic checks, which end a batch, and
        # itmax: no record is read twice
        records = len(trace.records) - 1
        assert trace.exact_recomputes == 1 + -(-records // EXACT_EVERY)
        assert sum(spied["sizes"]) == records


class TestSketchBlocks:
    """S2 and S4 draw their steps' Gaussian blocks ``B`` at a time and form
    their sketched columns in one product. The same run with one draw per
    block (``SKETCH_BLOCK`` patched) is the oracle: a block run must return
    the same x, status, counts, record ks, record values and generator
    state. Only S2, whose one-column products round as one product with
    several columns, may differ, within rounding. Blocks hold ``B`` draws
    here, and every run stops inside one."""

    B = 7
    CASES = [("S2", 1), ("S4", 4)]

    @staticmethod
    def _case(sid, block, n=30):
        a = random_spd(8, n)
        prob = Problem(a=a, b=a @ np.ones(n), x_star=np.ones(n))
        return prob, make_scheme(sid, block_size=block)

    @staticmethod
    def _spied_draws(patch, drawn):
        # solver.draw_sketch, appending each call's count and array to drawn
        real_draw = solver.draw_sketch

        def draw(*args, count=None):
            out = real_draw(*args, count=count)
            drawn.append((count, out))
            return out

        patch.setattr(solver, "draw_sketch", draw)

    @staticmethod
    def _failing_step(at, how):
        # schemes.step that, at its call ``at``, raises, perturbs the carried
        # residual or overflows x
        real_step, calls = schemes.step, []

        def step_(scheme, a, b, x, draw, r=None, **kw):
            calls.append(1)
            if len(calls) == at and how == "raise":
                raise RuntimeError("mid-block")
            x = real_step(scheme, a, b, x, draw, r=r, **kw)
            if len(calls) == at and how == "drift":
                r[0] += 1e-6 * np.linalg.norm(b)
            return x + 1e300 if len(calls) == at and how == "overflow" else x

        return step_

    def _run(self, monkeypatch, case, per_block, stop, fail=None):
        prob, scheme = self._case(*case)
        rng, drawn = make_rng(77), []
        with monkeypatch.context() as patch:
            patch.setattr(solver, "SKETCH_BLOCK",
                          per_block * 8 * scheme.block_size * prob.shape[0])
            self._spied_draws(patch, drawn)
            if fail is not None:
                patch.setattr(schemes, "step", self._failing_step(*fail))
            try:
                x, trace = solve(prob, scheme, stop, rng)
            except RuntimeError:
                x, trace = None, None
        return x, trace, rng.bit_generator.state, [c for c, _ in drawn]

    def _assert_as_oracle(self, monkeypatch, case, stop, fail=None):
        xb, tb, sb, cb = self._run(monkeypatch, case, self.B, stop, fail)
        xo, to, so, co = self._run(monkeypatch, case, 1, stop, fail)
        assert sb == so
        assert set(co) == {1} and max(cb) == self.B
        if tb is None:  # both raised
            assert to is None
            return None, cb, sb
        assert (tb.status, tb.iterations, tb.skip_count, tb.exact_recomputes) \
            == (to.status, to.iterations, to.skip_count, to.exact_recomputes)
        assert [r.k for r in tb.records] == [r.k for r in to.records]
        block_values = [(r.rel_residual, r.rel_error) for r in tb.records]
        oracle_values = [(r.rel_residual, r.rel_error) for r in to.records]
        if case[1] > 1:
            assert xb.tobytes() == xo.tobytes()
            assert block_values == oracle_values
        else:
            with np.errstate(invalid="ignore"):
                np.testing.assert_allclose(xb, xo, rtol=1e-9, atol=1e-12)
                np.testing.assert_allclose(block_values, oracle_values,
                                           rtol=1e-9, atol=1e-12)
        return tb, cb, sb

    @pytest.mark.parametrize("case", CASES)
    def test_converged(self, monkeypatch, case):
        trace, _, _ = self._assert_as_oracle(
            monkeypatch, case, StopRule(itmax=20_000, tol=1e-6))
        assert trace.status == CONVERGED
        assert trace.iterations % self.B

    @pytest.mark.parametrize("case", CASES)
    def test_itmax_not_a_multiple_of_the_block(self, monkeypatch, case):
        itmax = 30 * self.B + 3
        trace, counts, _ = self._assert_as_oracle(
            monkeypatch, case, StopRule(itmax=itmax, tol=1e-300))
        assert trace.status == MAX_ITERS and trace.iterations == itmax
        # never drawn past itmax: the last block is short, and none redrawn
        assert sum(counts) == itmax and counts[-1] == 3

    @pytest.mark.parametrize("case", CASES)
    def test_non_finite(self, monkeypatch, case):
        with np.errstate(over="ignore", invalid="ignore"):
            trace, _, _ = self._assert_as_oracle(
                monkeypatch, case, StopRule(itmax=5000, tol=1e-14),
                fail=(13, "overflow"))
        assert trace.status == NON_FINITE
        assert trace.iterations % self.B

    @pytest.mark.parametrize("case", CASES)
    def test_drift(self, monkeypatch, case):
        trace, _, _ = self._assert_as_oracle(
            monkeypatch, case, StopRule(itmax=5000, tol=1e-14),
            fail=(3, "drift"))
        assert trace.status == DRIFT
        assert trace.iterations % self.B

    @pytest.mark.parametrize("case", CASES)
    def test_step_raising_mid_block(self, monkeypatch, case):
        at = 2 * self.B + 5
        _, counts, state = self._assert_as_oracle(
            monkeypatch, case, StopRule(itmax=5000, tol=1e-14),
            fail=(at, "raise"))
        # the third block was drawn whole, then rewound to its first 5 draws
        assert counts == [self.B] * 3 + [5]
        prob, scheme = self._case(*case)
        ref = make_rng(77)
        for _ in range(at):
            draw_sketch(scheme, prob.shape, ref)
        assert state == ref.bit_generator.state

    @pytest.mark.parametrize("sid, block, n", [
        ("S2", 1, 30), ("S4", 4, 30), ("S4", 20, 400)])
    def test_blocks_stay_within_the_budget(self, monkeypatch, sid, block, n):
        # B = SKETCH_BLOCK // (8 l n): the drawn stack and its columns each
        # fit the budget, and B + 1 draws would not
        prob, scheme = self._case(sid, block, n)
        budget = 6 * 8 * block * n - 1
        drawn = []
        with monkeypatch.context() as patch:
            patch.setattr(solver, "SKETCH_BLOCK", budget)
            self._spied_draws(patch, drawn)
            solve(prob, scheme, StopRule(itmax=23, tol=1e-300), make_rng(3))
        assert [c for c, _ in drawn] == [5, 5, 5, 5, 3]
        assert all(w.shape == (c, n, block) and w.nbytes <= budget
                   for c, w in drawn)

    @pytest.mark.parametrize("how", ["zero column", "tiny columns"])
    def test_systems_lu_cannot_take_step_as_without_an_inverse(self,
                                                              monkeypatch, how):
        # the first block's third draw: a zero column makes its W^T A W
        # singular, so numpy inverts none of the block; two columns scaled by
        # 1e-9 leave it invertible, but past pseudoinverse's rule. Every step
        # given its inverse steps as without it, bit for bit
        prob, scheme = self._case("S4", 4)
        real_draw, real_step = solver.draw_sketch, schemes.step
        given = []

        def draw(*args, count=None):
            out = real_draw(*args, count=count)
            if not given:
                out[2][:, :2] *= [0.0, 1.0] if how == "zero column" else 1e-9
            return out

        def step_(scheme, a, b, x, draw, r=None, az=None, inverse=None):
            given.append(inverse is not None)
            r_plain = r.copy()
            plain = real_step(scheme, a, b, x, draw, r=r_plain, az=az)
            out = real_step(scheme, a, b, x, draw, r=r, az=az, inverse=inverse)
            assert out.tobytes() == plain.tobytes()
            assert r.tobytes() == r_plain.tobytes()
            return out

        with monkeypatch.context() as patch:
            patch.setattr(solver, "SKETCH_BLOCK",
                          self.B * 8 * scheme.block_size * prob.shape[0])
            patch.setattr(solver, "draw_sketch", draw)
            patch.setattr(schemes, "step", step_)
            trace = solve(prob, scheme, StopRule(itmax=5 * self.B, tol=1e-300),
                          make_rng(77))[1]
        first = [True] * self.B
        first[2] = False
        assert given[:self.B] == ([False] * self.B if how == "zero column"
                                  else first)
        assert all(given[self.B:]) and trace.iterations == 5 * self.B

    @pytest.mark.parametrize("sid, gram", [
        ("C2", False), ("C4", False), ("C6", False), ("C2", True)])
    def test_gaussian_column_ids_draw_one_at_a_time(self, monkeypatch, sid,
                                                    gram):
        prob = _consistent_problem(8, 120 if gram else 60, 24)
        m = prob.shape[0]
        g = SpdMatrix(np.diag(1.0 + make_rng(m).random(m))) if sid == "C6" \
            else None
        drawn = []
        with monkeypatch.context() as patch:
            patch.setattr(solver, "ANCHOR_MIN_SIZE", 0)
            self._spied_draws(patch, drawn)
            solve(prob, make_scheme(sid, block_size=4, g=g),
                  StopRule(itmax=30, tol=1e-300), make_rng(3))
        assert [c for c, _ in drawn] == [1] * 30


class TestIndexBlocks:
    """K1, C1 and S1 draw their indices in blocks. The same run with one-draw
    blocks (``SKETCH_BLOCK`` 8) and ``READ_BATCH`` 1 is the oracle: a block
    run must return the same x, status, counts, record ks and generator
    state, also when it stops, or raises, inside a block. K1 reads its
    records in batches from an anchor, C1 runs in Gram space, S1 carries its
    residual; blocks hold ``B`` draws, or as many as the default budget
    allows."""

    B = 37
    # each id on its kind of run, with its distribution and tolerance
    CASES = {"K1": (NORM_PROPORTIONAL, 1e-3), "C1": (UNIFORM, 1e-3),
             "S1": (TRACE_PROPORTIONAL, 1e-6)}

    @staticmethod
    def _problem(sid, drift=False):
        if sid == "S1":
            a = random_spd(8, 30)
            return Problem(a=a, b=a @ np.ones(30), x_star=np.ones(30))
        prob = _with_zero_rows()
        if drift:  # K1 reads its records through a wrong G
            prob.gram = prob.gram * (1.0 + 1e-6)
        return prob

    def _run(self, monkeypatch, sid, stop, oracle, fail=None):
        dist = self.CASES[sid][0]
        prob = self._problem(sid, drift=fail == "gram")
        rng, drawn, steps = make_rng(77), [], []
        with monkeypatch.context() as patch:
            patch.setattr(solver, "ANCHOR_MIN_SIZE", 0)
            if oracle:
                patch.setattr(solver, "READ_BATCH", 1)
                patch.setattr(solver, "SKETCH_BLOCK", 8)
            elif self.B is not None:
                patch.setattr(solver, "SKETCH_BLOCK", 8 * self.B * prob.shape[1])
            TestSketchBlocks._spied_draws(patch, drawn)
            step_ = (schemes.step if fail in (None, "gram")
                     else TestSketchBlocks._failing_step(*fail))

            def counted(*args, **kw):
                steps.append(1)
                return step_(*args, **kw)

            patch.setattr(schemes, "step", counted)
            try:
                x, trace = solve(prob, make_scheme(sid, distribution=dist),
                                 stop, rng)
            except RuntimeError:
                x, trace = None, None
        return x, trace, rng.bit_generator.state, [c for c, _ in drawn], \
            len(steps)

    def _assert_as_oracle(self, monkeypatch, sid, stop, fail=None):
        xb, tb, sb, cb, nb = self._run(monkeypatch, sid, stop, False, fail)
        xo, to, so, co, no = self._run(monkeypatch, sid, stop, True, fail)
        assert sb == so
        assert set(co) == {1} and max(cb) > 1
        if tb is None:  # both raised, at the same step
            assert to is None and nb == no
            return None, nb
        assert xb.tobytes() == xo.tobytes()
        assert (tb.status, tb.iterations, tb.skip_count, tb.exact_recomputes) \
            == (to.status, to.iterations, to.skip_count, to.exact_recomputes)
        assert [r.k for r in tb.records] == [r.k for r in to.records]
        assert no == to.iterations
        return tb, nb

    @pytest.fixture(params=[37, None], ids=["B37", "default"])
    def blocks(self, request, monkeypatch):
        monkeypatch.setattr(self, "B", request.param)

    @pytest.mark.parametrize("sid", CASES)
    def test_converged(self, monkeypatch, blocks, sid):
        trace, steps = self._assert_as_oracle(
            monkeypatch, sid, StopRule(itmax=20_000, tol=self.CASES[sid][1]))
        assert trace.status == CONVERGED
        assert trace.iterations % (self.B or 20_000)
        if sid == "K1":  # steps ran past the stopping record
            assert steps > trace.iterations

    @pytest.mark.parametrize("sid", CASES)
    def test_itmax(self, monkeypatch, blocks, sid):
        trace, steps = self._assert_as_oracle(
            monkeypatch, sid, StopRule(itmax=30 * 37 + 3, tol=1e-300))
        assert trace.status == MAX_ITERS
        assert steps == trace.iterations == 30 * 37 + 3

    @pytest.mark.parametrize("sid", CASES)
    def test_drift(self, monkeypatch, blocks, sid):
        trace, _ = self._assert_as_oracle(
            monkeypatch, sid, StopRule(itmax=5000, tol=1e-14),
            fail="gram" if sid == "K1" else (3, "drift"))
        assert trace.status == DRIFT
        assert trace.iterations % (self.B or 5000)

    @pytest.mark.parametrize("sid", CASES)
    def test_non_finite(self, monkeypatch, blocks, sid):
        with np.errstate(over="ignore", invalid="ignore"):
            trace, _ = self._assert_as_oracle(
                monkeypatch, sid, StopRule(itmax=5000, tol=1e-14),
                fail=(2 * 37 + 13, "overflow"))
        assert trace.status == NON_FINITE
        assert trace.iterations % (self.B or 5000)

    @pytest.mark.parametrize("sid", CASES)
    def test_step_raising(self, monkeypatch, blocks, sid):
        # K1 raises past its stopping record, while a batch waits: the run
        # still converges there. C1 and S1 judge each record as it comes, so
        # a raise mid-block escapes; rng is left after the failed step's draw
        stop = StopRule(itmax=20_000, tol=self.CASES[sid][1])
        at = 2 * 37 + 5
        if sid == "K1":
            at = self._run(monkeypatch, sid, stop, True)[1].iterations + 1
        trace, steps = self._assert_as_oracle(monkeypatch, sid, stop,
                                              fail=(at, "raise"))
        assert steps == at
        if sid == "K1":
            assert trace.status == CONVERGED and trace.iterations == at - 1
        else:
            assert trace is None
            ref = make_rng(77)
            prob = self._problem(sid)
            scheme = make_scheme(sid, distribution=self.CASES[sid][0])
            for _ in range(at):
                draw_sketch(scheme, prob.shape, ref, prob.sampler(scheme))
            assert self._run(monkeypatch, sid, stop, False,
                             (at, "raise"))[2] == ref.bit_generator.state


class _CountingPCG64(np.random.PCG64):
    """PCG64 that counts reads of its ``state``."""

    reads = 0

    @property
    def state(self):
        self.reads += 1
        return np.random.PCG64.state.__get__(self)

    @state.setter
    def state(self, value):
        np.random.PCG64.state.__set__(self, value)


class TestMarks:
    """Every id draws from a block; the generator state a rewind resets to is
    read only where a rewind can follow: at a block of several draws, or at
    the first draw of an anchored K batch of records. A state read costs
    microseconds, as much as a scalar step."""

    @staticmethod
    def _run(monkeypatch, prob, scheme, stop, anchored=False):
        bits, drawn = _CountingPCG64(77), []
        with monkeypatch.context() as patch:
            if anchored:
                patch.setattr(solver, "ANCHOR_MIN_SIZE", 0)
            TestSketchBlocks._spied_draws(patch, drawn)
            _, trace = solve(prob, scheme, stop, np.random.Generator(bits),
                             trace_every=1)
        reads = bits.reads
        ref = make_rng(77)
        for _ in range(trace.iterations):
            draw_sketch(scheme, prob.shape, ref, prob.sampler(scheme))
        assert bits.state["state"] == ref.bit_generator.state["state"]
        return trace, reads, [c for c, _ in drawn]

    @pytest.mark.parametrize("sid, gram", [("S3", False), ("C3", False),
                                           ("C3", True)])
    def test_no_read_where_no_rewind_can_follow(self, monkeypatch, sid, gram):
        # one-draw blocks, each record judged as it comes
        prob = (_consistent_problem(8, 120, 24) if gram else Problem(
            a=random_spd(8, 30), b=random_spd(8, 30) @ np.ones(30)))
        trace, reads, counts = self._run(
            monkeypatch, prob, make_scheme(sid, block_size=4),
            StopRule(itmax=20_000, tol=1e-8), anchored=gram)
        assert trace.status == CONVERGED and trace.iterations > 100
        assert reads == 0 and counts == [1] * trace.iterations

    @pytest.mark.parametrize("sid, block", [("K3", 8), ("K4", 4)])
    def test_one_read_a_batch_of_records(self, monkeypatch, sid, block):
        trace, reads, counts = self._run(
            monkeypatch, _sparse_normal(1e-3), make_scheme(sid, block_size=block),
            StopRule(itmax=20_000, tol=1e-3), anchored=True)
        assert trace.status == CONVERGED
        # a batch ends after READ_BATCH records, or at an exact-by-schedule one
        records = len(trace.records) - 1
        batches = -(-records // solver.READ_BATCH) + records // EXACT_EVERY
        assert records > 2 * solver.READ_BATCH and 1 <= reads <= batches + 1
        # one-draw blocks, then a rewind to the stopping batch's mark: a mark
        # left at step 1 would redraw every step
        assert counts[:-1] == [1] * (len(counts) - 1)
        assert len(counts) - 1 > trace.iterations
        assert counts[-1] <= solver.READ_BATCH < trace.iterations


class TestExactSchedule:
    """A record is exact by schedule at ``itmax`` and when its index, counted
    from the k = 0 record, is a multiple of ``EXACT_EVERY``: an exact record
    forced in between by its read's rounding does not move the schedule."""

    @pytest.mark.parametrize("sid", ["K3", "C3"])  # K batched, C in Gram space
    def test_forced_exact_record_does_not_move_the_schedule(self, monkeypatch,
                                                            sid):
        monkeypatch.setattr(solver, "ANCHOR_MIN_SIZE", 0)
        monkeypatch.setattr(solver, "EXACT_EVERY", 5)
        ks, exact = {}, []  # the k of each iterate; ks of exact records
        real_step, real_read = schemes.step, solver._ResidualAnchor.read
        real_nr = solver.normal_residual

        def step_(scheme, a, b, x, draw, r=None, gram=None):
            x = real_step(scheme, a, b, x, draw, r=r, gram=gram)
            ks[x.tobytes()] = len(ks) + 1
            return x

        def read(self, xs):
            # bounds of 0, so only the schedule and record 3 are exact; record
            # 3's rounding is the value read, far above RECORD_RTOL of it
            return [(v, v if ks[x.tobytes()] == 3 else 0.0, 0.0)
                    for x, (v, _, _) in zip(xs, real_read(self, xs))]

        def nr(a, b, x):
            exact.append(ks.get(x.tobytes(), 0))
            return real_nr(a, b, x)

        monkeypatch.setattr(schemes, "step", step_)
        monkeypatch.setattr(solver._ResidualAnchor, "read", read)
        monkeypatch.setattr(solver, "normal_residual", nr)
        _, trace = solve(_noisy_problem(30, 400, 10, 0.3),
                         make_scheme(sid, block_size=4),
                         StopRule(itmax=23, tol=1e-3), make_rng(4))
        assert trace.status == MAX_ITERS and len(ks) == 23
        # counted from the forced record instead: 0, 3, 8, 13, 18, 23
        assert exact == [0, 3, 5, 10, 15, 20, 23]
        assert trace.exact_recomputes == len(exact)


class TestNonFinite:
    @pytest.mark.parametrize("sid, block", [("K1", 1), ("C1", 1), ("K3", 7),
                                            ("C3", 7)])
    def test_overflowing_norm_stops_at_k0(self, sid, block):
        # finite input whose ||b|| overflows; unchecked, K1 and C1 ran all
        # 3000 iterations to a NaN residual and K3 and C3 raised LinAlgError
        a = np.random.default_rng(0).random((2000, 50)) * 1e160
        prob = Problem(a=a, b=a @ np.ones(50))
        with np.errstate(over="ignore", invalid="ignore"):
            x, trace = solve(prob, make_scheme(sid, block_size=block),
                             StopRule(itmax=3000, tol=1e-6), make_rng(1))
        assert trace.status == NON_FINITE
        assert (trace.iterations, trace.exact_recomputes) == (0, 1)
        assert np.isnan(trace.final.rel_residual)
        assert not x.any()

    @pytest.mark.parametrize("sid", ["K1", "C1"])
    def test_overflowing_denominator_skips_every_step(self, sid):
        # finite input whose squared row and column norms overflow: each 1x1
        # sketched denominator is inf, and ytr / inf made a null step, so the
        # run ended in MaxIters with skip_count 0 and x still zero
        a = np.random.default_rng(0).random((2000, 50)) * 1e160
        prob = Problem(a=a, b=np.ones(2000))
        with np.errstate(over="ignore"):
            x, trace = solve(prob, make_scheme(sid),
                             StopRule(itmax=3000, tol=1e-6), make_rng(1))
        assert trace.status == MAX_ITERS
        assert trace.skip_count == trace.iterations == 3000
        assert not x.any()

    @pytest.mark.parametrize("sid", ["K3", "K4", "K5", "K6", "C3", "C4",
                                     "C5", "C6"])
    def test_unfactorable_block_step_is_a_null_step(self, sid):
        # the sketched systems overflow; numpy's SVD failed to converge on
        # them, and its LinAlgError escaped from solve
        a = np.random.default_rng(0).random((2000, 50)) * 1e160
        prob = Problem(a=a, b=np.ones(2000))
        with np.errstate(over="ignore", invalid="ignore"):
            x, trace = solve(prob, _identity_weighted(sid, a.shape, 7),
                             StopRule(itmax=60, tol=1e-6), make_rng(1))
        assert trace.status == MAX_ITERS
        assert trace.skip_count == trace.iterations == 60
        assert not x.any()

    def test_block_step_that_hung_the_svd_ends_in_a_status(self):
        # at this seed a sketched system with inf entries reached the SVD,
        # which ran without end; other seeds raised LinAlgError
        a = np.random.default_rng(3).random((60, 8)) * 1e154
        with np.errstate(over="ignore", invalid="ignore"):
            _, trace = solve(Problem(a=a, b=np.ones(60)),
                             make_scheme("K3", block_size=3),
                             StopRule(itmax=3000, tol=1e-6), make_rng(8))
        assert trace.status == MAX_ITERS
        assert 0 < trace.skip_count < trace.iterations == 3000

    def test_overflow_mid_run_stops_on_the_next_record(self, monkeypatch):
        prob = _consistent_problem(5, 30, 6)
        real_step = schemes.step
        steps = []

        def blowing_up(scheme, a, b, x, draw, r=None, gram=None):
            steps.append(1)
            x = real_step(scheme, a, b, x, draw, r=r, gram=gram)
            return x + 1e300 if len(steps) == 13 else x

        monkeypatch.setattr(schemes, "step", blowing_up)
        with np.errstate(over="ignore", invalid="ignore"):
            _, trace = solve(prob, make_scheme("K1"),
                             StopRule(itmax=1000, tol=1e-14), make_rng(0))
        assert trace.status == NON_FINITE
        assert trace.iterations == 20
        assert trace.exact_recomputes == len(trace.records) == 3

    def test_overflow_behind_a_carried_residual_is_not_drift(self, monkeypatch):
        # the carried residual stays finite while x overflows; the exact
        # record that finds it is not finite, so the gap to it is no drift
        prob = _consistent_problem(5, 30, 6)
        real_step = schemes.step
        steps = []

        def blowing_up(scheme, a, b, x, draw, r=None, gram=None):
            steps.append(1)
            x = real_step(scheme, a, b, x, draw, r=r, gram=gram)
            return x + 1e300 if len(steps) == 3 else x

        monkeypatch.setattr(schemes, "step", blowing_up)
        with np.errstate(over="ignore", invalid="ignore"):
            _, trace = solve(prob, make_scheme("C3", block_size=2),
                             StopRule(itmax=1000, tol=1e-14), make_rng(0))
        assert trace.status == NON_FINITE
        assert trace.iterations > 3 and trace.exact_recomputes == 2
        assert not np.isfinite(trace.final.rel_residual)

    def test_infinite_read_is_recomputed(self, monkeypatch):
        # a carried residual that reads inf is checked against an exact
        # recompute, which is finite here: the run stops with Drift on it
        prob = _consistent_problem(5, 30, 6)
        real_step = schemes.step
        steps = []

        def corrupting(scheme, a, b, x, draw, r=None, gram=None):
            steps.append(1)
            x = real_step(scheme, a, b, x, draw, r=r, gram=gram)
            if len(steps) == 3:
                r[:] = 1e300
            return x

        monkeypatch.setattr(schemes, "step", corrupting)
        with np.errstate(over="ignore"):
            x, trace = solve(prob, make_scheme("C3", block_size=2),
                             StopRule(itmax=1000, tol=1e-14), make_rng(0))
        assert trace.status == DRIFT
        assert trace.iterations == 3
        assert trace.final.rel_residual == \
            np.linalg.norm(prob.b - prob.a @ x) / np.linalg.norm(prob.b)


class TestEveryFiniteInputEndsInAStatus:
    """Finite A scaled from 1 to near the float maximum, with b = ones and b =
    A 1: a solve returns a named status, or the problem refuses the input,
    whatever overflows on the way."""

    SCALES = (1e0, 1e30, 1e60, 1e100, 1e150, 1e154, 1e160, 1e200, 1e250,
              1e300, 1e307)

    @pytest.mark.parametrize("sid", schemes.ALL_SCHEMES)
    def test_grid(self, sid):
        base = (random_spd(4, 12) if sid[0] == "S"
                else np.random.default_rng(3).random((60, 8)))
        scheme = _identity_weighted(sid, base.shape, 3)
        for scale in self.SCALES:
            a = base * scale
            for b in (np.ones(a.shape[0]), a @ np.ones(a.shape[1])):
                try:
                    prob = Problem(a=a, b=b)
                except ValueError:
                    continue
                with np.errstate(over="ignore", invalid="ignore"):
                    _, trace = solve(prob, scheme,
                                     StopRule(itmax=200, tol=1e-6), make_rng(8))
                assert trace.status in (CONVERGED, MAX_ITERS, DRIFT,
                                        NON_FINITE)


class TestLeastSquares:
    def _inconsistent_problem(self, seed: int, m: int, n: int, noise: float):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, n))
        b0 = a @ np.ones(n)
        z = rng.standard_normal(m)
        perp = z - a @ ls_solution_oracle(a, z)  # component outside range(A)
        b = b0 + noise * np.linalg.norm(b0) / np.linalg.norm(perp) * perp
        return Problem(a=a, b=b), a, b

    def test_column_scheme_reaches_ls_solution(self):
        prob, a, b = self._inconsistent_problem(13, 50, 5, noise=0.3)
        x, trace = solve(prob, make_scheme("C1"), StopRule(itmax=20_000, tol=1e-12),
                         make_rng(5))
        assert ls_residual(a, b, x) <= 1e-4
        x_ls = ls_solution_oracle(a, b)
        assert np.linalg.norm(x - x_ls) <= 1e-3 * np.linalg.norm(x_ls)

    def test_row_scheme_hovers(self):
        prob, a, b = self._inconsistent_problem(13, 50, 5, noise=0.3)
        x, trace = solve(prob, make_scheme("K1"), StopRule(itmax=20_000, tol=1e-12),
                         make_rng(5))
        assert trace.status == MAX_ITERS
        assert ls_residual(a, b, x) > 1e-4

    def test_consistent_limit(self):
        prob = _consistent_problem(14, 40, 5)
        for sid in ("C1", "K1"):
            x, trace = solve(prob, make_scheme(sid),
                             StopRule(itmax=50_000, tol=1e-10), make_rng(6))
            assert trace.status == CONVERGED
            assert ls_residual(prob.a, prob.b, x) <= 1e-8


class TestPlainLoopOracle:
    """``solve`` against :func:`helpers.plain_solve`, one draw and one
    ``step_generic`` a step with exact records. Over every id with each
    sampling it accepts and a width; tall (consistent or not), wide and
    square SPD problems, the first two with a zero row or column; the run's
    ``itmax``, ``tol``, ``trace_every`` and ``x0``; and the solver's
    ``SKETCH_BLOCK``, ``READ_BATCH`` and ``ANCHOR_MIN_*``, which turn blocks,
    batched reads and use-G on and off: the same status and record ks, the
    same errors to ~1e-10 relative, the same residuals, the same final x to
    rounding, and the same generator end state, bit for bit. A record that
    reads a tracked residual may carry a rounding bound up to
    ``RECORD_RTOL`` of its value (an anchored read at a residual far below
    its anchor's cancels), so residuals are compared to that.

    Both runs stop on the first record below tol, but on values that round
    differently. So where the record one run stops on lies within rounding
    of tol, the other may stop one record later; then only the records
    before it are compared."""

    @staticmethod
    def _close(got, want, rtol=1e-10):
        return abs(got - want) <= rtol * abs(want) + 1e-12

    @settings(max_examples=300, database=None)
    @given(data=st.data())
    def test_solve_is_the_plain_loop(self, data):
        draw = data.draw
        sid = draw(st.sampled_from(schemes.ALL_SCHEMES))
        shape = draw(st.sampled_from(["spd"] if sid[0] == "S"
                                     else ["tall", "wide", "spd"]))
        seed = draw(st.integers(0, 10_000))
        rng = np.random.default_rng(seed)
        if shape == "spd":
            a = random_spd(seed, draw(st.integers(3, 10)))
        else:
            m, n = draw(st.integers(8, 40)), draw(st.integers(2, 6))
            a = rng.standard_normal((m, n) if shape == "tall" else (n, m))
            zero = draw(st.sampled_from([None, "row", "column"]))
            if zero == "row":
                a[rng.integers(a.shape[0])] = 0.0
            elif zero == "column":
                a[:, rng.integers(a.shape[1])] = 0.0
        m, n = a.shape
        x_star = np.ones(n)
        b = a @ x_star
        if shape == "tall" and draw(st.booleans()):
            b, x_star = b + 0.1 * rng.standard_normal(m), None
        dists = [UNIFORM]
        if schemes.sketch_kind(sid) == INDEX:
            dists.append(NORM_PROPORTIONAL)
            if shape == "spd" and sid != "C1":
                dists.append(TRACE_PROPORTIONAL)
        g = None
        if sid in schemes.WEIGHTED_SCHEMES and draw(st.booleans()):
            g = SpdMatrix(random_spd(seed + 1,
                                     schemes.weight_dim(sid, (m, n))))
        scheme = make_scheme(sid, distribution=draw(st.sampled_from(dists)),
                             g=g)
        if sid not in schemes.SCALAR_SCHEMES:
            width = draw(st.integers(1, min(4, draw_dim(scheme, (m, n)))))
            scheme = make_scheme(sid, block_size=width,
                                 distribution=scheme.distribution, g=g)
        stop = StopRule(itmax=draw(st.integers(1, 300)),
                        tol=10.0 ** draw(st.floats(-7.0, -1.0)))
        every = draw(st.one_of(st.none(), st.integers(1, 30)))
        x0 = rng.standard_normal(n) if draw(st.booleans()) else None
        # one-draw, short or default blocks; batches of 1, 3 or 16 records
        knobs = {"SKETCH_BLOCK": draw(st.sampled_from(
                     [8, 2 ** 10, solver.SKETCH_BLOCK])),
                 "READ_BATCH": draw(st.sampled_from([1, 3, solver.READ_BATCH]))}
        if draw(st.booleans()):  # use G wherever m >= n; never by default here
            knobs.update(ANCHOR_MIN_SIZE=0, ANCHOR_MIN_RATIO=1)

        prob = Problem(a=a, b=b, x_star=x_star)
        with pytest.MonkeyPatch.context() as patch:
            for name, value in knobs.items():
                patch.setattr(solver, name, value)
            mine = make_rng(seed)
            x, trace = solve(prob, scheme, stop, mine, x0=x0,
                             trace_every=every)
        ref = make_rng(seed)
        x_ref, status_ref, records = plain_solve(prob, scheme, stop, ref,
                                                 x0=x0, trace_every=every)

        for rec, (k, res, err) in zip(trace.records, records):
            assert rec.k == k
            assert self._close(rec.rel_residual, res, solver.RECORD_RTOL)
            assert (rec.rel_error is None) == (err is None)
            assert err is None or self._close(rec.rel_error, err)
        if len(trace.records) != len(records):  # a stop within rounding of tol
            last = min(len(trace.records), len(records)) - 1
            assert abs(len(trace.records) - len(records)) == 1
            assert self._close(records[last][1], stop.tol)
            return
        assert trace.status == status_ref
        np.testing.assert_allclose(x, x_ref, rtol=1e-9, atol=1e-10)
        assert mine.bit_generator.state == ref.bit_generator.state
