import numpy as np
import pytest

from helpers import gaussian, ls_residual, ls_solution_oracle, random_spd
from sketchsolve import problems, schemes, solver
from sketchsolve.linalg import SpdMatrix
from sketchsolve.schemes import SkipStep, error_propagator, make_scheme, step
from sketchsolve.sketch import draw_sketch, make_rng
from sketchsolve.solver import (CONVERGED, DRIFT, EXACT_EVERY, MAX_ITERS,
                                Problem, StopRule, solve)


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
            draw = draw_sketch(scheme.spec, prob.shape, rng)
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
            draw = draw_sketch(scheme.spec, a.shape, rng, weights)
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
            draw = draw_sketch(scheme.spec, a.shape, rng)
            x = step(scheme, a, b, x, draw)
            recomputed = np.linalg.norm(b - a @ x) / norm_b
            assert abs(rec.rel_residual - recomputed) <= 1e-12
        assert trace.final.rel_residual == np.linalg.norm(b - a @ x_final) / norm_b

    def test_perturbed_residual_stops_with_drift(self, monkeypatch):
        prob = _consistent_problem(15, 30, 8)
        real_step = schemes.step
        calls = []

        def perturbing_step(scheme, a, b, x, draw, r=None):
            out = real_step(scheme, a, b, x, draw, r=r)
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
    """Row schemes on tall systems read their records from an exact anchor
    and A^T A; each record must still agree with a recompute, and the run
    must stop where exact records would have stopped it. The problems here
    are smaller than ANCHOR_MIN_SIZE, so the anchor is switched on for them."""

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

        rng = make_rng(seed)
        a, b = prob.a, prob.b
        sampler = schemes.sampling_weights(scheme, a)
        norm_b = np.linalg.norm(b)
        x = np.zeros(a.shape[1])
        replayed = [(0, np.linalg.norm(b) / norm_b)]
        for k in range(1, trace.iterations + 1):
            draw = draw_sketch(scheme.spec, a.shape, rng, sampler)
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
