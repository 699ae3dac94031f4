"""Generic iteration driver: run one scheme on one problem to a stop rule.

The loop is deliberately dumb: one sketch draw per iteration, one update,
and a residual record at trace points only (every iteration for block
schemes, every tenth by default for the scalar ones).

What a record reads depends on the family. Column and symmetric schemes
(:func:`schemes.maintains_residual`) carry ``r = b - A x`` through their
updates, so their records read ``||r||`` in O(m). Row schemes keep no
residual and recompute ``b - A x`` from scratch at every record, an O(mn)
matvec. A maintained residual is checked against an exact recompute every
``EXACT_EVERY`` records, on the final record at ``itmax``, and whenever it
reads below the tolerance; that record carries the exact value, so
``Converged`` is only ever returned on an exact residual. If the maintained
residual has drifted from the exact one by more than ``DRIFT_RTOL * ||b||``
the run stops with status ``Drift``: the incremental updates lost track of
the iterate, which roundoff alone does not do.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import schemes
from .linalg import SpdMatrix, as_matrix, as_vector
from .sketch import draw_sketch

CONVERGED = "Converged"
MAX_ITERS = "MaxIters"
DRIFT = "Drift"

CONSISTENCY_RTOL = 1e-8
# records between exact recomputes of a maintained residual
EXACT_EVERY = 100
# largest tolerated ||r_maintained - (b - A x)|| / ||b||; roundoff measured
# on the benchmark problems stays below 1e-14 over 30 000 steps
DRIFT_RTOL = 1e-10


@dataclass
class Problem:
    """A linear system A x = b, optionally with a known solution for error
    traces. When ``x_star`` is given the system must be consistent."""

    a: np.ndarray
    b: np.ndarray
    x_star: np.ndarray | None = None
    stats: "object | None" = None

    def __post_init__(self):
        self.a = as_matrix(self.a)
        self.b = as_vector(self.b)
        m, n = self.a.shape
        if self.b.shape[0] != m:
            raise ValueError(f"b has length {self.b.shape[0]}, expected {m}")
        if self.x_star is not None:
            self.x_star = as_vector(self.x_star)
            if self.x_star.shape[0] != n:
                raise ValueError(f"x_star has length {self.x_star.shape[0]}, "
                                 f"expected {n}")
            gap = float(np.linalg.norm(self.a @ self.x_star - self.b))
            if gap > CONSISTENCY_RTOL * float(np.linalg.norm(self.b)):
                raise ValueError(f"x_star does not solve the system "
                                 f"(residual {gap:.3e}); pass x_star=None for "
                                 f"inconsistent right-hand sides")

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape


@dataclass(frozen=True)
class StopRule:
    """Stop after ``itmax`` update steps or once the relative residual
    ||b - A x|| / ||b|| drops below ``tol``."""

    itmax: int = 100_000
    tol: float = 1e-6

    def __post_init__(self):
        if self.itmax < 1:
            raise ValueError("itmax must be >= 1")
        if not self.tol > 0.0:
            raise ValueError("tol must be > 0")


@dataclass(frozen=True)
class TraceRecord:
    k: int
    rel_residual: float
    rel_error: float | None
    elapsed_s: float


@dataclass
class SolveTrace:
    records: list[TraceRecord] = field(default_factory=list)
    status: str = MAX_ITERS
    skip_count: int = 0
    # records whose residual was computed from scratch as b - A x
    exact_recomputes: int = 0

    @property
    def iterations(self) -> int:
        return self.records[-1].k if self.records else 0

    @property
    def final(self) -> TraceRecord:
        return self.records[-1]


def default_trace_every(scheme: schemes.Scheme) -> int:
    return 10 if scheme.id in schemes.SCALAR_SCHEMES else 1


def check_compatible(problem: Problem, scheme: schemes.Scheme):
    """Setup-time validation: symmetric schemes need an SPD system, weighted
    schemes need a G of the right dimension."""
    m, n = problem.shape
    if schemes.family(scheme.id) == "S":
        if m != n:
            raise ValueError(f"scheme {scheme.id} needs a square system, "
                             f"got {m}x{n}")
        try:
            SpdMatrix(problem.a)
        except ValueError as exc:
            raise ValueError(f"scheme {scheme.id} needs an SPD system: {exc}") from exc
    if scheme.g is not None:
        want = n if schemes.family(scheme.id) == "K" else m
        if scheme.g.n != want:
            raise ValueError(f"scheme {scheme.id} needs a {want}x{want} weight "
                             f"matrix, got {scheme.g.n}x{scheme.g.n}")


def solve(problem: Problem, scheme: schemes.Scheme, stop: StopRule,
          rng: np.random.Generator, x0: np.ndarray | None = None,
          trace_every: int | None = None) -> tuple[np.ndarray, SolveTrace]:
    """Iterate ``scheme`` on ``problem`` until the stop rule fires.

    Exactly one sketch is drawn from ``rng`` per iteration, so a run is
    reproducible (and replayable step by step) from its seed. Returns the
    final iterate and the trace; the trace holds a record for k = 0, every
    ``trace_every``-th iteration, and the final iterate.
    """
    check_compatible(problem, scheme)
    a, b = problem.a, problem.b
    m, n = a.shape
    if trace_every is None:
        trace_every = default_trace_every(scheme)
    if trace_every < 1:
        raise ValueError("trace_every must be >= 1")

    x = np.zeros(n) if x0 is None else as_vector(x0).copy()
    if x.shape[0] != n:
        raise ValueError(f"x0 has length {x.shape[0]}, expected {n}")

    weights = schemes.sampling_weights(scheme, a)
    norm_b = float(np.linalg.norm(b))
    res_denom = norm_b if norm_b > 0.0 else 1.0
    if problem.x_star is not None:
        norm_xs = float(np.linalg.norm(problem.x_star))
        err_denom = norm_xs if norm_xs > 0.0 else 1.0
    trace = SolveTrace()
    start = time.perf_counter()

    def rel_norm(res: np.ndarray) -> float:
        return float(np.linalg.norm(res)) / res_denom

    def record(k: int, rel_res: float) -> float:
        rel_err = None
        if problem.x_star is not None:
            rel_err = float(np.linalg.norm(x - problem.x_star)) / err_denom
        trace.records.append(TraceRecord(k, rel_res, rel_err,
                                         time.perf_counter() - start))
        return rel_res

    def exact_residual() -> np.ndarray:
        trace.exact_recomputes += 1
        return b - a @ x

    r = exact_residual()
    if record(0, rel_norm(r)) < stop.tol:
        trace.status = CONVERGED
        return x, trace
    if not schemes.maintains_residual(scheme):
        r = None

    for k in range(1, stop.itmax + 1):
        draw = draw_sketch(scheme.spec, (m, n), rng, weights)
        try:
            x = schemes.step(scheme, a, b, x, draw, r=r)
        except schemes.SkipStep:
            trace.skip_count += 1
        if k % trace_every == 0 or k == stop.itmax:
            if r is None:
                rel_res = rel_norm(exact_residual())
            else:
                rel_res = rel_norm(r)
                if (rel_res < stop.tol or k == stop.itmax
                        or len(trace.records) % EXACT_EVERY == 0):
                    exact = exact_residual()
                    drift = rel_norm(r - exact)
                    r, rel_res = exact, rel_norm(exact)
                    if drift > DRIFT_RTOL:
                        record(k, rel_res)
                        trace.status = DRIFT
                        return x, trace
            if record(k, rel_res) < stop.tol:
                trace.status = CONVERGED
                return x, trace

    trace.status = MAX_ITERS
    return x, trace


def solve_with_ls_residual(problem: Problem, scheme: schemes.Scheme,
                           stop: StopRule, rng: np.random.Generator,
                           x0: np.ndarray | None = None,
                           trace_every: int | None = None,
                           ) -> tuple[np.ndarray, SolveTrace, float]:
    """Like :func:`solve`, additionally reporting the least-squares
    optimality residual ||A^T (A x - b)|| / ||A^T b|| at the final iterate.

    Column-action schemes drive this to zero even on inconsistent systems;
    row-action schemes hover around the least-squares solution and leave it
    stalled, which is what this diagnostic is for.
    """
    x, trace = solve(problem, scheme, stop, rng, x0=x0, trace_every=trace_every)
    atb = problem.a.T @ problem.b
    denom = float(np.linalg.norm(atb))
    num = float(np.linalg.norm(problem.a.T @ (problem.a @ x - problem.b)))
    normal_eq_residual = num / (denom if denom > 0.0 else 1.0)
    return x, trace, normal_eq_residual
