import numpy as np
import pytest

from helpers import gaussian, ls_solution_oracle, random_spd
from sketchsolve import schemes
from sketchsolve.schemes import SkipStep, error_propagator, make_scheme, step
from sketchsolve.sketch import draw_sketch, make_rng
from sketchsolve.solver import (CONVERGED, DRIFT, EXACT_EVERY, MAX_ITERS,
                                Problem, StopRule, solve,
                                solve_with_ls_residual)


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
        x, trace, neq = solve_with_ls_residual(
            prob, make_scheme("C1"), StopRule(itmax=20_000, tol=1e-12), make_rng(5))
        assert neq <= 1e-4
        x_ls = ls_solution_oracle(a, b)
        assert np.linalg.norm(x - x_ls) <= 1e-3 * np.linalg.norm(x_ls)

    def test_row_scheme_hovers(self):
        prob, a, b = self._inconsistent_problem(13, 50, 5, noise=0.3)
        x, trace, neq = solve_with_ls_residual(
            prob, make_scheme("K1"), StopRule(itmax=20_000, tol=1e-12), make_rng(5))
        assert trace.status == MAX_ITERS
        assert neq > 1e-4

    def test_consistent_limit(self):
        prob = _consistent_problem(14, 40, 5)
        for sid in ("C1", "K1"):
            _, trace, neq = solve_with_ls_residual(
                prob, make_scheme(sid), StopRule(itmax=50_000, tol=1e-10),
                make_rng(6))
            assert trace.status == CONVERGED
            assert neq <= 1e-8
