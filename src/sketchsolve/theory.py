"""Convergence-rate formulas and Monte-Carlo verification of the
expectation bounds behind them.

Three closed-form per-step contraction factors are exposed:

* :func:`rate_norm_sampling` - single row/column updates sampled with
  probability proportional to squared norms: 1 - lam_min(A^T A) / ||A||_F^2.
* :func:`rate_trace_sampling` - diagonal-proportional sampling on SPD
  systems: 1 - lam_min(A) / trace(A).
* :func:`rate_gaussian_bound` - the condition-number bounds for Gaussian
  sketches: 1 - 1/(m*kappa) for row schemes, 1 - 1/(n*kappa) for column and
  symmetric schemes.

The bounds are statements about expectations of random projectors, so the
module also estimates those expectations directly: by Monte-Carlo with
bootstrap error bars for Gaussian sketches (:func:`estimate_mean_propagator`)
and by exact enumeration for finite sketch families
(:func:`mean_sketched_inverse`). :func:`fit_empirical_rate` closes the loop
by fitting the observed contraction of solver runs against the theory value;
its trials are :func:`solver.solve` runs, so a fit gets the same input
validation as a solve (:func:`solver.check_compatible`, the ``x0`` size).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import schemes, sketch
from .linalg import (SpdMatrix, as_matrix, extremal_eigs,
                     frobenius_norm_sq, pseudoinverse, spd_sqrt)
from .solver import (DRIFT, NON_FINITE, Problem, StopRule, check_compatible,
                     initial_iterate, solve)

NORM_EUCLID = "euclid"
NORM_GINV = "ginv"
NORM_GHAT = "ghat"
NORM_A = "a"

NORMS = (NORM_EUCLID, NORM_GINV, NORM_GHAT, NORM_A)

# the samplings whose rate has a closed form: by squared norms, by the diagonal
CLOSED_FORM_SAMPLING = {"K1": sketch.NORM_PROPORTIONAL,
                        "C1": sketch.NORM_PROPORTIONAL,
                        "S1": sketch.TRACE_PROPORTIONAL}

POSITIVITY_TOL = 1e-10
_NOISE_FLOOR = 100.0 * np.finfo(float).eps


@dataclass
class RateReport:
    """Theoretical vs fitted contraction for one (scheme, problem) pair.

    ``rho_fit`` is the geometric-mean per-step contraction of the mean
    squared error in ``norm_used``; ``rho_fit_norm_of_mean`` tracks the
    squared norm of the mean error vector instead (the two decay statements
    differ, so both are reported). ``rho_theory`` is NaN when no closed form
    applies to the sampling distribution in use.
    """

    scheme: str
    rho_theory: float
    rho_fit: float
    trials: int
    iterations: int
    norm_used: str
    rho_fit_norm_of_mean: float = math.nan
    degenerate: bool = False


@dataclass
class ExpectationEstimate:
    """An estimated (or enumerated) expectation of a random matrix, with the
    matrix it is compared against.

    For propagator estimates, ``max_violation`` is the largest eigenvalue of
    (estimate - bound); sampling noise aside it should be <= 0, and
    ``max_violation_se`` carries the bootstrap standard error to judge that.
    For enumerated sketched-inverse expectations the target is positive
    definiteness: ``max_violation`` = tolerance - lam_min(estimate), and any
    violated structural assumptions are listed instead of raised.
    """

    matrix: np.ndarray
    samples: int
    bound_matrix: np.ndarray
    max_violation: float
    max_violation_se: float = math.nan
    lambda_min: float = math.nan
    spectral_rate: float = math.nan
    positive_definite: bool | None = None
    violated_assumptions: tuple[str, ...] = field(default_factory=tuple)


def _col_gram(a: np.ndarray, g: SpdMatrix | None) -> np.ndarray:
    """``A^T G A``, the column schemes' G-hat, or ``A^T A`` without G."""
    return a.T @ (a if g is None else g @ a)


def _row_gram(a: np.ndarray, g_half: np.ndarray | None) -> np.ndarray:
    """``G^{1/2} A^T A G^{1/2}`` for the row schemes, or ``A^T A`` without
    G: n x n, with the nonzero spectrum of the m x m ``A G A^T``."""
    s = a.T @ a
    return s if g_half is None else g_half @ s @ g_half


def _rank_deficient(eig_min: float, eig_max: float, dim: int) -> bool:
    return eig_min <= (dim * np.finfo(float).eps) ** 2 * max(eig_max, 0.0)


def rate_norm_sampling(a) -> tuple[float, bool]:
    """Per-step contraction 1 - lam_min(A^T A) / ||A||_F^2 for squared-norm
    proportional single row/column sampling.

    Returns (rate, degenerate); a rank-deficient A gives (1.0, True).
    """
    a = as_matrix(a)
    lo, hi = extremal_eigs(a.T @ a)
    if _rank_deficient(lo, hi, max(a.shape)):
        return 1.0, True
    return 1.0 - lo / frobenius_norm_sq(a), False


def rate_trace_sampling(a: SpdMatrix) -> float:
    """Per-step contraction 1 - lam_min(A) / trace(A) for diagonal-weighted
    single-index sampling on an SPD system."""
    return 1.0 - a.eig_min / float(np.trace(a.mat))


def rate_gaussian_bound(a, fam: str, g: SpdMatrix | None = None
                        ) -> tuple[float, bool]:
    """Condition-number contraction bound for Gaussian-sketch schemes.

    Row family ("K"): 1 - 1/(m * kappa(G^{1/2} A^T A G^{1/2})); column
    family ("C"): 1 - 1/(n * kappa(A^T G A)); symmetric family ("S"):
    1 - 1/(n * kappa(A)) with A SPD and G ignored. kappa is computed from
    the extremal eigenvalues of the symmetric product, never by inversion.
    Returns (rate, degenerate).
    """
    a = as_matrix(a)
    m, n = a.shape
    if fam == "K":
        s, dim = _row_gram(a, spd_sqrt(g) if g is not None else None), m
    elif fam == "C":
        s, dim = _col_gram(a, g), n
    elif fam == "S":
        lo, hi = extremal_eigs(SpdMatrix(a).mat)
        return 1.0 - lo / (n * hi), False
    else:
        raise ValueError(f"unknown family {fam!r}")
    lo, hi = extremal_eigs(0.5 * (s + s.T))
    if _rank_deficient(lo, hi, max(m, n)):
        return 1.0, True
    return 1.0 - lo / (dim * hi), False


def estimate_mean_propagator(a, g: SpdMatrix | None, scheme_id: str,
                             samples: int, rng: np.random.Generator,
                             block_size: int = 1, bootstrap: int = 200
                             ) -> ExpectationEstimate:
    """Monte-Carlo estimate of the mean similarity-transformed propagator
    G^{-1/2} (I - Z E^+ Y^T A) G^{1/2} for the Gaussian row schemes
    (K2, K4, K6; G = I when ``g`` is None, and always for K2 and K4).

    The estimate is compared against the integral upper bound
    I - G^{1/2} A^T A G^{1/2} / (m * lam_max(A G A^T)); ``max_violation``
    is lam_max(estimate - bound) with a bootstrap standard error over the
    sampled propagators.
    """
    a = as_matrix(a)
    m, n = a.shape
    scheme = schemes.make_scheme(scheme_id, block_size=block_size, g=g)
    if scheme.kind != sketch.GAUSS or scheme.axis != "rows":
        raise ValueError("mean-propagator estimation covers the Gaussian row "
                         f"schemes K2/K4/K6, not {scheme_id!r}")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    dim = sketch.draw_dim(scheme, (m, n))
    if scheme.block_size > dim:  # before G's square root is formed
        raise ValueError(f"block_size {scheme.block_size} exceeds dimension {dim}")
    g_half = spd_sqrt(g) if g is not None else None
    g_half_inv = np.linalg.inv(g_half) if g is not None else None

    draws = np.empty((samples, n, n))
    for s in range(samples):
        draw = sketch.draw_sketch(scheme, (m, n), rng)
        t = schemes.error_propagator(scheme, a, draw)
        th = t if g is None else g_half_inv @ t @ g_half
        draws[s] = 0.5 * (th + th.T)

    estimate = draws.mean(axis=0)
    ghat = _row_gram(a, g_half)
    hi = extremal_eigs(ghat)[1]  # lam_max(A G A^T)
    bound = np.eye(n) - ghat / (m * hi)
    bound = 0.5 * (bound + bound.T)

    def lam_max_gap(mat: np.ndarray) -> float:
        return extremal_eigs(mat - bound)[1]

    max_violation = lam_max_gap(estimate)
    stats = np.empty(bootstrap)
    for bi in range(bootstrap):
        idx = rng.integers(0, samples, size=samples)
        stats[bi] = lam_max_gap(draws[idx].mean(axis=0))
    se = float(stats.std(ddof=1))

    lo, hi_est = extremal_eigs(estimate)
    return ExpectationEstimate(matrix=estimate, samples=samples,
                               bound_matrix=bound, max_violation=max_violation,
                               max_violation_se=se, lambda_min=lo,
                               spectral_rate=hi_est)


def mean_sketched_inverse(a, g: SpdMatrix | None,
                          members: list[tuple[np.ndarray, float]]
                          ) -> ExpectationEstimate:
    """Exact expectation sum(p_j * W_j (W_j^T A^T G A W_j)^+ W_j^T) over a
    finite family of sketch blocks with probabilities p_j.

    Positive definiteness of the result is what the column-scheme
    convergence statements rest on; it holds when (i) every A W_j has full
    column rank and (ii) the horizontally stacked blocks have full row rank.
    Violations are recorded in ``violated_assumptions``, not raised.
    """
    a = as_matrix(a)
    n = a.shape[1]
    probs = np.array([p for _, p in members], dtype=float)
    if (probs <= 0).any():
        raise ValueError("member probabilities must be positive")
    if abs(probs.sum() - 1.0) > 1e-12:
        raise ValueError(f"member probabilities sum to {probs.sum()!r}, not 1")

    ghat = _col_gram(a, g)

    violated = []
    total = np.zeros((n, n))
    for j, (omega, p) in enumerate(members):
        omega = as_matrix(omega)
        if omega.shape[0] != n:
            raise ValueError(f"member {j} has {omega.shape[0]} rows, expected {n}")
        if np.linalg.matrix_rank(a @ omega) < omega.shape[1]:
            violated.append("i")
        core = omega.T @ ghat @ omega
        total += p * (omega @ pseudoinverse(core) @ omega.T)

    stacked = np.hstack([as_matrix(om) for om, _ in members])
    if np.linalg.matrix_rank(stacked) < n:
        violated.append("ii")

    total = 0.5 * (total + total.T)
    lo, hi = extremal_eigs(total)
    return ExpectationEstimate(matrix=total, samples=len(members),
                               bound_matrix=POSITIVITY_TOL * np.eye(n),
                               max_violation=POSITIVITY_TOL - lo,
                               lambda_min=lo, spectral_rate=hi,
                               positive_definite=(lo > POSITIVITY_TOL),
                               violated_assumptions=tuple(dict.fromkeys(violated)))


def coordinate_partition(n: int, block: int = 1) -> list[tuple[np.ndarray, float]]:
    """Equal-probability partition of the identity columns into contiguous
    blocks, the canonical finite sketch family for positivity checks."""
    eye = np.eye(n)
    starts = range(0, n, block)
    blocks = [eye[:, s:min(s + block, n)] for s in starts]
    p = 1.0 / len(blocks)
    return [(blk, p) for blk in blocks]


def _norm_matrix(norm_used: str, a: np.ndarray,
                 g: SpdMatrix | None) -> np.ndarray | None:
    if norm_used == NORM_EUCLID:
        return None
    if norm_used == NORM_GINV:
        return np.linalg.inv(g.mat) if g is not None else None
    if norm_used == NORM_GHAT:
        return _col_gram(a, g)
    if norm_used == NORM_A:
        return SpdMatrix(a).mat
    raise ValueError(f"unknown norm {norm_used!r}")


def _theory_rate(scheme: schemes.Scheme, a: np.ndarray) -> float:
    sid = scheme.id
    if scheme.distribution == CLOSED_FORM_SAMPLING.get(sid):
        if scheme.distribution == sketch.TRACE_PROPORTIONAL:
            return rate_trace_sampling(SpdMatrix(a))
        return rate_norm_sampling(a)[0]
    if scheme.kind == sketch.GAUSS:
        return rate_gaussian_bound(a, sid[0], scheme.g)[0]
    return math.nan


def _fit_contraction(series: np.ndarray) -> float:
    """Geometric-mean per-step ratio over the prefix where the series stays
    above the rounding-noise floor."""
    keep = np.flatnonzero(series > _NOISE_FLOOR)
    if keep.size == 0 or keep[0] != 0:
        return math.nan
    last = int(keep.max())
    if last == 0:
        return math.nan
    return float((series[last] / series[0]) ** (1.0 / last))


def fit_empirical_rate(problem: Problem, scheme: schemes.Scheme, trials: int,
                       iterations: int, norm_used: str, seed: int,
                       x0: np.ndarray | None = None) -> RateReport:
    """Run ``trials`` independent fixed-length solves and fit the observed
    per-step contraction of the mean squared error in ``norm_used``.

    Each trial is a :func:`solver.solve` run of ``iterations`` steps on its
    own RNG stream derived from ``seed``, so the report does not depend on
    execution order, and the problem, scheme and ``x0`` are validated as for
    a solve. Needs a known solution. A start with zero error (at the
    solution) or with an exactly zero residual (from which no step moves)
    is reported as degenerate rather than fitted; a trial that stops with
    ``NonFinite`` or ``Drift`` raises ``ValueError``.
    """
    if problem.x_star is None:
        raise ValueError("empirical rate fitting needs a known solution")
    if trials < 1 or iterations < 1:
        raise ValueError("trials and iterations must be >= 1")
    check_compatible(problem, scheme)
    x_start = initial_iterate(problem, x0)
    a = problem.a
    wmat = _norm_matrix(norm_used, a, scheme.g)

    def err_sq(e: np.ndarray) -> float:
        if wmat is None:
            return float(e @ e)
        return float(e @ wmat @ e)

    report = RateReport(scheme=scheme.id, rho_theory=_theory_rate(scheme, a),
                        rho_fit=math.nan, trials=trials,
                        iterations=iterations, norm_used=norm_used,
                        degenerate=True)
    if err_sq(x_start - problem.x_star) <= 0.0:
        return report

    # a tolerance below every positive residual: only b - A x = 0 stops a trial
    stop = StopRule(itmax=iterations, tol=math.ulp(0.0))
    sq = np.zeros((trials, iterations + 1))
    mean_err = np.zeros((iterations + 1, a.shape[1]))

    def observe(k: int, x: np.ndarray):
        e = x - problem.x_star
        sq[t, k] = err_sq(e)
        mean_err[k] += e

    for t in range(trials):
        observe(0, x_start)
        _, trace = solve(problem, scheme, stop, sketch.rng_from_keys(seed, t),
                         x0=x_start, trace_every=iterations, observe=observe)
        if trace.status in (NON_FINITE, DRIFT):
            raise ValueError(f"trial {t} stopped with {trace.status} at "
                             f"k = {trace.iterations}")
        if trace.iterations < iterations:
            return report

    mean_err /= trials
    mean_sq_of_mean = np.array([err_sq(e) for e in mean_err])
    return replace(report, rho_fit=_fit_contraction(sq.mean(axis=0)),
                   rho_fit_norm_of_mean=_fit_contraction(mean_sq_of_mean),
                   degenerate=False)
