import math

import numpy as np
import pytest

from helpers import eigs_via_charpoly, gaussian, random_orthogonal, random_spd
from sketchsolve import schemes, solver, theory
from sketchsolve.linalg import SpdMatrix
from sketchsolve.schemes import make_scheme
from sketchsolve.sketch import (NORM_PROPORTIONAL, TRACE_PROPORTIONAL, UNIFORM,
                                draw_sketch, make_rng, rng_from_keys)
from sketchsolve.solver import Problem
from sketchsolve.theory import (ExpectationEstimate, coordinate_partition,
                                estimate_mean_propagator, fit_empirical_rate,
                                mean_sketched_inverse, rate_gaussian_bound,
                                rate_norm_sampling, rate_trace_sampling)


def _consistent(a: np.ndarray) -> Problem:
    x_star = np.ones(a.shape[1])
    return Problem(a=a, b=a @ x_star, x_star=x_star)


class TestNormSamplingRate:
    def test_identity(self):
        rho, degenerate = rate_norm_sampling(np.eye(4))
        assert rho == pytest.approx(1.0 - 1.0 / 4)
        assert not degenerate

    def test_diagonal(self):
        rho, _ = rate_norm_sampling(np.diag([1.0, 2.0]))
        assert rho == pytest.approx(1.0 - 1.0 / 5)

    def test_against_charpoly_oracle(self):
        a = gaussian(3, 30, 10)
        rho, _ = rate_norm_sampling(a)
        lam_min = eigs_via_charpoly(a.T @ a)[0]
        want = 1.0 - lam_min / float((a * a).sum())
        assert rho == pytest.approx(want, abs=1e-8)

    def test_rank_deficient_flagged(self):
        a = np.outer(np.arange(1.0, 7.0), np.ones(3))
        rho, degenerate = rate_norm_sampling(a)
        assert rho == 1.0
        assert degenerate


class TestTraceSamplingRate:
    def test_identity(self):
        assert rate_trace_sampling(SpdMatrix(np.eye(5))) == pytest.approx(1 - 1 / 5)

    def test_diagonal(self):
        assert rate_trace_sampling(SpdMatrix(np.diag([1.0, 3.0]))) == pytest.approx(0.75)

    def test_against_eig_oracle(self):
        a = random_spd(5, 6, lo=0.2, hi=4.0)
        lam = eigs_via_charpoly(a)
        want = 1.0 - lam[0] / np.trace(a)
        assert rate_trace_sampling(SpdMatrix(a)) == pytest.approx(want, abs=1e-9)


class TestGaussianBound:
    def test_row_family_with_whitening_weight(self):
        # G chosen as the inverse Gram matrix gives condition number 1
        a = gaussian(8, 12, 4)
        g = SpdMatrix(np.linalg.inv(a.T @ a))
        rho, degenerate = rate_gaussian_bound(a, "K", g)
        assert not degenerate
        assert rho == pytest.approx(1.0 - 1.0 / 12, abs=1e-9)

    def test_symmetric_family_identity(self):
        rho, _ = rate_gaussian_bound(np.eye(6), "S")
        assert rho == pytest.approx(1.0 - 1.0 / 6)

    def test_column_family_against_svd_oracle(self):
        a = gaussian(9, 20, 5)
        rho, _ = rate_gaussian_bound(a, "C")
        sv = np.linalg.svd(a, compute_uv=False)
        kappa = (sv[0] / sv[-1]) ** 2
        assert rho == pytest.approx(1.0 - 1.0 / (5 * kappa), abs=1e-10)

    def test_rank_deficient_flagged(self):
        a = np.outer(np.arange(1.0, 6.0), np.ones(3))
        rho, degenerate = rate_gaussian_bound(a, "K")
        assert (rho, degenerate) == (1.0, True)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            rate_gaussian_bound(np.eye(2), "X")


class TestMeanPropagator:
    def test_full_sketch_annihilates(self):
        a = random_orthogonal(np.random.default_rng(2), 5)
        est = estimate_mean_propagator(a, None, "K4", samples=50,
                                       rng=make_rng(1), block_size=5)
        assert np.abs(est.matrix).max() < 1e-10
        assert est.max_violation < -0.5  # bound holds with slack

    def test_single_gaussian_closed_form(self):
        # on the 2x2 identity the mean transformed propagator is I/2 exactly
        est = estimate_mean_propagator(np.eye(2), None, "K2",
                                       samples=10_000, rng=make_rng(3))
        assert np.abs(est.matrix - 0.5 * np.eye(2)).max() <= 0.02
        assert np.abs(est.bound_matrix - 0.5 * np.eye(2)).max() < 1e-14
        assert est.max_violation <= 3.0 * est.max_violation_se

    def test_weighted_scheme_respects_bound(self):
        a = gaussian(10, 10, 4)
        g = SpdMatrix(random_spd(11, 4, lo=0.5, hi=2.0))
        est = estimate_mean_propagator(a, g, "K6", samples=2000,
                                       rng=make_rng(5), block_size=2)
        assert est.max_violation <= 3.0 * est.max_violation_se
        assert est.spectral_rate < 1.0  # mean sketched projector is a contraction

    def test_rejects_other_schemes(self):
        with pytest.raises(ValueError):
            estimate_mean_propagator(np.eye(3), None, "K1", samples=10,
                                     rng=make_rng(0))

    def test_bound_holds_across_independent_repetitions(self):
        a = gaussian(30, 10, 4)
        for rep in range(5):
            est = estimate_mean_propagator(a, None, "K2", samples=2000,
                                           rng=make_rng(1000 + rep))
            assert est.max_violation <= 3.0 * est.max_violation_se, rep


class TestMeanSketchedInverse:
    def test_coordinate_family_closed_form(self):
        a = np.array([[1.0, 2.0], [0.0, 3.0], [1.0, 0.0]])
        est = mean_sketched_inverse(a, None, coordinate_partition(2))
        cols = (a * a).sum(axis=0)
        want = 0.5 * np.diag(1.0 / cols)
        assert np.abs(est.matrix - want).max() < 1e-14
        assert est.positive_definite
        assert est.violated_assumptions == ()

    def test_rank_deficient_stack_flagged(self):
        a = gaussian(12, 4, 3)
        members = [(np.eye(3)[:, :1], 1.0)]
        est = mean_sketched_inverse(a, None, members)
        assert "ii" in est.violated_assumptions
        assert not est.positive_definite

    def test_zero_column_violates_rank_assumption(self):
        a = gaussian(13, 4, 3)
        a[:, 0] = 0.0
        est = mean_sketched_inverse(a, None, coordinate_partition(3))
        assert "i" in est.violated_assumptions

    def test_matches_block_diagonal_assembly(self):
        # independent route: stack the blocks and sandwich the probability-
        # weighted inverted cores as one block-diagonal matrix
        a = gaussian(14, 6, 4)
        g = SpdMatrix(random_spd(15, 6, lo=0.5, hi=2.0))
        members = coordinate_partition(4, block=2)
        est = mean_sketched_inverse(a, g, members)

        ghat = a.T @ g.mat @ a
        stacked = np.hstack([om for om, _ in members])
        cores = [p * np.linalg.inv(om.T @ ghat @ om) for om, p in members]
        d = np.zeros((4, 4))
        d[:2, :2], d[2:, 2:] = cores
        want = stacked @ d @ stacked.T
        assert np.abs(est.matrix - want).max() <= 1e-12
        assert est.positive_definite

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            mean_sketched_inverse(np.eye(2), None, [(np.eye(2), 0.5)])


def _replay_fit(problem, scheme, trials, iterations, norm_used, seed):
    """A fit's trials written out: per step one draw and one update, with the
    residual maintained for the column and symmetric schemes; the error norm
    and the fitted contraction are the fit's own."""
    a, b, x_star = problem.a, problem.b, problem.x_star
    wmat = theory._norm_matrix(norm_used, a, scheme.g)

    def err_sq(e):
        return float(e @ e) if wmat is None else float(e @ wmat @ e)

    sampler = schemes.sampling_weights(scheme, a)
    sq = np.zeros((trials, iterations + 1))
    mean_err = np.zeros((iterations + 1, a.shape[1]))
    for t in range(trials):
        rng = rng_from_keys(seed, t)
        x = np.zeros(a.shape[1])
        r = b - a @ x if schemes.maintains_residual(scheme) else None
        for k in range(iterations + 1):
            if k > 0:
                draw = draw_sketch(scheme.spec, a.shape, rng, sampler)
                try:
                    x = schemes.step(scheme, a, b, x, draw, r=r)
                except schemes.SkipStep:
                    pass
            sq[t, k] = err_sq(x - x_star)
            mean_err[k] += x - x_star
    mean_err /= trials
    return (theory._fit_contraction(sq.mean(axis=0)),
            theory._fit_contraction(np.array([err_sq(e) for e in mean_err])))


class TestEmpiricalRate:
    def test_identity_system_exact_factor(self):
        n = 10
        prob = _consistent(np.eye(n))
        report = fit_empirical_rate(prob, make_scheme("K1"), trials=200,
                                    iterations=50, norm_used="euclid", seed=21)
        assert abs(report.rho_fit - (1.0 - 1.0 / n)) <= 0.02
        assert not report.degenerate

    def test_starting_at_solution_is_degenerate(self):
        prob = _consistent(gaussian(16, 8, 4))
        report = fit_empirical_rate(prob, make_scheme("K1"), trials=5,
                                    iterations=10, norm_used="euclid", seed=0,
                                    x0=prob.x_star)
        assert report.degenerate
        assert math.isnan(report.rho_fit)

    def test_row_sampling_bound_holds(self):
        a = gaussian(17, 50, 20)
        prob = _consistent(a)
        scheme = make_scheme("K1", distribution=NORM_PROPORTIONAL)
        report = fit_empirical_rate(prob, scheme, trials=80, iterations=300,
                                    norm_used="euclid", seed=23)
        assert report.rho_theory == pytest.approx(rate_norm_sampling(a)[0])
        assert report.rho_fit <= report.rho_theory + 0.02
        assert 0.0 < report.rho_fit_norm_of_mean < 1.0

    def test_column_sampling_bound_holds_in_gram_norm(self):
        a = gaussian(18, 40, 10)
        prob = _consistent(a)
        scheme = make_scheme("C1", distribution=NORM_PROPORTIONAL)
        report = fit_empirical_rate(prob, scheme, trials=80, iterations=300,
                                    norm_used="ghat", seed=25)
        assert report.rho_fit <= report.rho_theory + 0.02

    def test_diagonal_sampling_bound_holds_in_energy_norm(self):
        a = random_spd(19, 20, lo=0.1, hi=2.0)
        prob = _consistent(a)
        scheme = make_scheme("S1", distribution=TRACE_PROPORTIONAL)
        report = fit_empirical_rate(prob, scheme, trials=80, iterations=300,
                                    norm_used="a", seed=27)
        assert report.rho_theory == pytest.approx(
            rate_trace_sampling(SpdMatrix(a)))
        assert report.rho_fit <= report.rho_theory + 0.02

    def test_uniform_sampling_on_identity_reports_exact_theory(self):
        # on the identity every squared-norm weight is equal, so the
        # norm-proportional closed form applies verbatim: 1 - 1/n
        n = 8
        prob = _consistent(np.eye(n))
        scheme = make_scheme("K1", distribution=NORM_PROPORTIONAL)
        report = fit_empirical_rate(prob, scheme, trials=100, iterations=40,
                                    norm_used="euclid", seed=31)
        assert report.rho_theory == pytest.approx(1.0 - 1.0 / n)
        assert abs(report.rho_fit - report.rho_theory) <= 0.02

    def test_gaussian_bound_is_looser_than_observed(self):
        a = gaussian(20, 50, 20)
        prob = _consistent(a)
        report = fit_empirical_rate(prob, make_scheme("K2"), trials=60,
                                    iterations=200, norm_used="euclid", seed=29)
        assert report.rho_fit <= report.rho_theory + 0.02
        assert report.rho_theory >= report.rho_fit - 0.02  # bound is the looser one

        spd = random_spd(33, 12, lo=0.3, hi=2.0)
        prob_s = _consistent(spd)
        for sid, block in (("C2", 1), ("S4", 3)):
            rep = fit_empirical_rate(prob_s, make_scheme(sid, block_size=block),
                                     trials=60, iterations=200,
                                     norm_used="ghat" if sid == "C2" else "a",
                                     seed=35)
            assert rep.rho_fit <= rep.rho_theory + 0.02, sid
            assert rep.rho_theory >= rep.rho_fit - 0.02, sid

    @pytest.mark.parametrize("sid, dist, block, norm", [
        ("K1", NORM_PROPORTIONAL, 1, "euclid"),
        ("C1", NORM_PROPORTIONAL, 1, "ghat"),
        ("S1", TRACE_PROPORTIONAL, 1, "a"),
        ("S4", UNIFORM, 3, "a"),
    ])
    def test_matches_a_replay_of_its_trials(self, sid, dist, block, norm):
        prob = _consistent(gaussian(17, 30, 12) if sid in ("K1", "C1")
                           else random_spd(19, 12, lo=0.1, hi=2.0))
        scheme = make_scheme(sid, block_size=block, distribution=dist)
        report = fit_empirical_rate(prob, scheme, trials=3, iterations=50,
                                    norm_used=norm, seed=41)
        assert not report.degenerate
        assert (report.rho_fit, report.rho_fit_norm_of_mean) == \
            _replay_fit(prob, scheme, 3, 50, norm, 41)

    @pytest.mark.parametrize("norm", ["euclid", "a"])
    def test_symmetric_scheme_needs_spd_system(self, norm):
        prob = _consistent(gaussian(2, 6, 6))
        with pytest.raises(ValueError, match="S1 needs an SPD system"):
            fit_empirical_rate(prob, make_scheme("S1"), trials=2, iterations=5,
                               norm_used=norm, seed=0)

    def test_x0_length_checked(self):
        prob = _consistent(gaussian(16, 8, 4))
        with pytest.raises(ValueError, match="x0 has length 3"):
            fit_empirical_rate(prob, make_scheme("K1"), trials=2, iterations=5,
                               norm_used="euclid", seed=0, x0=np.zeros(3))

    def test_non_finite_x0_refused(self):
        prob = _consistent(gaussian(16, 8, 4))
        with pytest.raises(ValueError, match="x0 must be finite"):
            fit_empirical_rate(prob, make_scheme("K1"), trials=2, iterations=5,
                               norm_used="euclid", seed=0,
                               x0=np.array([0.0, np.inf, 0.0, 0.0]))

    def test_fit_forms_no_gram(self, monkeypatch):
        # a trial records only at k = 0 and, exactly, at k = iterations, so
        # a row scheme on a tall system keeps no anchor and needs no A^T A
        monkeypatch.setattr(solver, "ANCHOR_MIN_SIZE", 0)
        prob = _consistent(gaussian(17, 40, 5))
        fit_empirical_rate(prob, make_scheme("K1"), trials=2, iterations=30,
                           norm_used="euclid", seed=0)
        assert "gram" not in prob.__dict__

    def test_zero_iterations_refused(self):
        prob = _consistent(gaussian(16, 8, 4))
        with pytest.raises(ValueError, match="iterations must be >= 1"):
            fit_empirical_rate(prob, make_scheme("K1"), trials=2, iterations=0,
                               norm_used="euclid", seed=0)

    def test_zero_start_residual_is_degenerate(self):
        # b - A x0 = 0 but x0 != x_star: no step moves the iterate
        prob = Problem(a=np.array([[1.0, 0.0]]), b=np.zeros(1),
                       x_star=np.array([0.0, 1.0]))
        report = fit_empirical_rate(prob, make_scheme("K1"), trials=3,
                                    iterations=10, norm_used="euclid", seed=0)
        assert report.degenerate
        assert math.isnan(report.rho_fit)

    def test_needs_known_solution(self):
        prob = Problem(a=np.eye(2), b=np.ones(2))
        with pytest.raises(ValueError):
            fit_empirical_rate(prob, make_scheme("K1"), trials=5, iterations=5,
                               norm_used="euclid", seed=0)

    def test_json_round_trip_handles_nan(self):
        prob = _consistent(gaussian(16, 8, 4))
        report = fit_empirical_rate(prob, make_scheme("K1"), trials=5,
                                    iterations=10, norm_used="euclid", seed=0)
        payload = report.to_json_dict()
        assert payload["scheme"] == "K1"
        assert payload["rho_theory"] is None  # uniform sampling has no closed form

    def test_expectation_json_dict(self):
        est = ExpectationEstimate(matrix=np.eye(2), samples=3,
                                  bound_matrix=np.eye(2), max_violation=0.0)
        payload = est.to_json_dict()
        assert payload["samples"] == 3
        assert payload["max_violation_se"] is None
