"""Randomized sketch-and-project solvers for consistent linear systems."""

from .linalg import SpdMatrix, extremal_eigs, frobenius_norm_sq, \
    pseudoinverse, spd_sqrt
from .problems import ProblemSpec, ProblemStats, generate, load_matrixmarket, \
    save_matrixmarket
from .schemes import ALL_SCHEMES, Scheme, SkipStep, error_propagator, \
    make_scheme, realize_sketch, reduction_discrepancy, step, step_generic
from .sketch import SketchDraw, SketchSpec, draw_sketch, make_rng, rng_from_keys
from .solver import Problem, SolveTrace, StopRule, solve
from .theory import ExpectationEstimate, RateReport, coordinate_partition, \
    estimate_mean_propagator, fit_empirical_rate, mean_sketched_inverse, \
    rate_gaussian_bound, rate_norm_sampling, rate_trace_sampling

__all__ = [
    "ALL_SCHEMES", "ExpectationEstimate", "Problem", "ProblemSpec",
    "ProblemStats", "RateReport", "Scheme", "SketchDraw", "SketchSpec",
    "SkipStep", "SolveTrace", "SpdMatrix", "StopRule", "coordinate_partition",
    "draw_sketch", "error_propagator", "estimate_mean_propagator",
    "extremal_eigs", "fit_empirical_rate", "frobenius_norm_sq", "generate",
    "load_matrixmarket", "make_rng", "make_scheme", "mean_sketched_inverse",
    "pseudoinverse", "rate_gaussian_bound", "rate_norm_sampling",
    "rate_trace_sampling", "realize_sketch", "reduction_discrepancy",
    "rng_from_keys", "save_matrixmarket", "solve", "spd_sqrt", "step",
    "step_generic",
]
