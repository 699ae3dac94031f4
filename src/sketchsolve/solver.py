"""Generic iteration driver: run one scheme on one problem to a stop rule.

The loop is deliberately dumb: one sketch draw per iteration, one update,
and a residual record at trace points only (every iteration for block
schemes, every tenth by default for the scalar ones).

Every record takes one path: read a tracked residual norm, recompute
``b - A x`` exactly when a rule fires, check the drift, resync. Column and
symmetric schemes (:func:`schemes.maintains_residual`) track ``r = b - A x``
through their updates and read ``||r||`` in O(m). Row schemes on systems
tall and large enough that an O(mn) recompute costs well over an O(n^2)
read (``ANCHOR_MIN_RATIO``, ``ANCHOR_MIN_SIZE``), in runs that record
before ``itmax``, read ``||b - A x||`` from the last exact residual and
``A^T A`` (:class:`_ResidualAnchor`, :attr:`Problem.gram`); elsewhere every
row-scheme record is exact.

A read comes with two bounds: its own rounding, and a floor for how far the
rounding of ``b - A x`` itself can move a recompute (both first order in
``(m + n) eps``; the maintained residual has no cheap bound and reads 0 for
both). The exact residual is recomputed every ``EXACT_EVERY`` records, on
the record at ``itmax``, whenever the value read minus both bounds is not
above the tolerance, and whenever the rounding exceeds ``RECORD_RTOL`` of
the value. That record carries the exact value and the tracker restarts
from it, so ``Converged`` is only ever returned on an exact residual, and
a row scheme stops on the record where exact records would have stopped
it, up to second-order rounding. If the tracked value is further from the
exact one than both bounds plus ``DRIFT_RTOL * ||b||``, the run stops with
status ``Drift``: the incremental updates lost track of the iterate, which
roundoff alone does not do.

This is the only loop that runs the iteration: rate fits
(:func:`theory.fit_empirical_rate`) run their trials through :func:`solve`
and read the iterate after every step through its ``observe`` hook.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import schemes
from .linalg import SpdMatrix, as_matrix, as_vector
from .sketch import draw_sketch

CONVERGED = "Converged"
MAX_ITERS = "MaxIters"
DRIFT = "Drift"

CONSISTENCY_RTOL = 1e-8
# records between exact recomputes of a tracked residual
EXACT_EVERY = 100
# largest tolerated gap between a tracked and the exact residual, relative to
# ||b||; roundoff measured on the benchmark problems stays below 1e-14 over
# 30 000 steps
DRIFT_RTOL = 1e-10
# largest rounding bound of a record's own arithmetic, relative to the value
# read, that the record may carry without an exact recompute
RECORD_RTOL = 1e-6
# row schemes read records from an anchor only where an O(mn) recompute costs
# well over an O(n^2) read plus its fixed ~10 us: measured on dense problems
# with n = 100, 250, 500, the anchor made K1 and K3 solves faster at every
# shape with m >= 4 n and m n >= 2**17, and lost at some smaller ones
ANCHOR_MIN_RATIO = 4
ANCHOR_MIN_SIZE = 2 ** 17


def _read_only(v: np.ndarray) -> np.ndarray:
    v = v.view()
    v.flags.writeable = False
    return v


@dataclass
class Problem:
    """A linear system A x = b, optionally with a known solution for error
    traces. When ``x_star`` is given the system must be consistent. Non-finite
    entries in A, b or ``x_star`` are refused.

    ``a`` and ``b`` are read-only views of the arrays passed in, not copies,
    so only writes through them are blocked. What the problem derives from
    them and keeps (:attr:`gram`, :attr:`spd_error`) assumes they never
    change: writing to the original arrays, or assigning new ones, after
    construction leaves it stale, so build a new problem instead."""

    a: np.ndarray
    b: np.ndarray
    x_star: np.ndarray | None = None
    stats: "object | None" = None

    def __post_init__(self):
        self.a = _read_only(as_matrix(self.a))
        self.b = _read_only(as_vector(self.b))
        m, n = self.a.shape
        if self.b.shape[0] != m:
            raise ValueError(f"b has length {self.b.shape[0]}, expected {m}")
        if self.x_star is None:
            if not (np.isfinite(self.a).all() and np.isfinite(self.b).all()):
                raise ValueError("A and b must be finite")
        else:
            self.x_star = as_vector(self.x_star)
            if self.x_star.shape[0] != n:
                raise ValueError(f"x_star has length {self.x_star.shape[0]}, "
                                 f"expected {n}")
            gap = float(np.linalg.norm(self.a @ self.x_star - self.b))
            # a NaN gap fails every comparison, and an infinite one can pass
            # against an infinite ||b||: non-finite input is refused here,
            # with no separate O(mn) pass
            if not (math.isfinite(gap)
                    and gap <= CONSISTENCY_RTOL * float(np.linalg.norm(self.b))):
                raise ValueError(f"x_star does not solve the system "
                                 f"(residual {gap:.3e}); pass x_star=None for "
                                 f"inconsistent right-hand sides")

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    @cached_property
    def gram(self) -> np.ndarray:
        """``A^T A`` (read-only), formed on first use, O(m n^2), and kept."""
        return _read_only(self.a.T @ self.a)

    @cached_property
    def spd_error(self) -> ValueError | None:
        """Why ``A`` is not SPD, or None; the check runs once per problem."""
        try:
            SpdMatrix(self.a)
        except ValueError as exc:
            return exc
        return None


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
        exc = problem.spd_error
        if exc is not None:
            raise ValueError(f"scheme {scheme.id} needs an SPD system: {exc}") from exc
    if scheme.g is not None:
        want = n if schemes.family(scheme.id) == "K" else m
        if scheme.g.n != want:
            raise ValueError(f"scheme {scheme.id} needs a {want}x{want} weight "
                             f"matrix, got {scheme.g.n}x{scheme.g.n}")


def initial_iterate(problem: Problem, x0: np.ndarray | None) -> np.ndarray:
    """A fresh copy of ``x0``, or zeros, checked against the problem (length,
    finite entries)."""
    n = problem.shape[1]
    x = np.zeros(n) if x0 is None else as_vector(x0).copy()
    if x.shape[0] != n:
        raise ValueError(f"x0 has length {x.shape[0]}, expected {n}")
    if not np.isfinite(x).all():
        raise ValueError("x0 must be finite")
    return x


class _MaintainedResidual:
    """C and S schemes: ``r = b - A x``, moved in place by every
    :func:`schemes.step`; a record reads ``||r||`` in O(m)."""

    def __init__(self, r: np.ndarray, denom: float):
        self.r, self.denom = r, denom

    def read(self, x: np.ndarray) -> tuple[float, float, float]:
        """The relative residual at ``x``, a bound on the rounding of the
        read, and one on how far a recompute's own rounding can move it."""
        return float(np.linalg.norm(self.r)) / self.denom, 0.0, 0.0

    def resync(self, x: np.ndarray, exact: np.ndarray) -> float:
        """Restart from the exact residual at ``x``; returns the relative
        gap the tracked residual had from it."""
        gap = float(np.linalg.norm(self.r - exact)) / self.denom
        self.r[:] = exact
        return gap


class _ResidualAnchor:
    """K schemes: ``||b - A x||^2`` read from the last exact residual ``r_a``
    at ``x_a`` as ``||r_a||^2 - 2 d^T s_a + d^T G d``, with ``d = x - x_a``,
    ``s_a = A^T r_a`` and ``G = A^T A``, in O(n^2) instead of O(mn).

    The bound on a read is first order in ``u = (m + n) eps``, which covers
    every dot product involved (length m in ``||r_a||^2``, ``s_a`` and ``G``,
    length n in the read). ``s_a`` rounds by ``u |A|^T |r_a|``, which does not
    shrink as ``A^T r_a`` does, and ``|d|^T |A|^T |r_a| <= ||A||_F ||d||
    ||r_a||``; ``G`` rounds by ``u |A|^T |A|``, and ``|d|^T |A|^T |A| |d| <=
    ||A||_F^2 ||d||^2``. So the three terms round by at most ``u (||r_a|| +
    ||A||_F ||d||)^2``, the read's ``rounding``. Its ``floor`` is how far
    the read can still be from a recompute at ``x`` because both recomputes
    round: ``b - A x`` by ``u (|b| + |A| |x|)`` per entry, at ``x_a`` and at
    ``x``, and its norm by ``u ||r||``. Without ``G`` it reads nothing, so
    every record is exact."""

    def __init__(self, a: np.ndarray, gram: np.ndarray | None,
                 x: np.ndarray, r: np.ndarray, norm_b: float, denom: float):
        self.a, self.gram, self.norm_b, self.denom = a, gram, norm_b, denom
        if gram is not None:
            m, n = a.shape
            self.unit = (m + n) * np.finfo(float).eps
            self.norm_a = math.sqrt(float(np.trace(gram)))  # ||A||_F
            self._anchor(x, r)

    def _anchor(self, x: np.ndarray, r: np.ndarray):
        # s_a = A^T r_a waits for the first read: a final record needs none
        self.x_a, self.r_a, self.s_a = x.copy(), r, None
        self.q_a = float(r @ r)
        self.floor_a = self.norm_b + self.norm_a * float(np.linalg.norm(x))

    def read(self, x: np.ndarray) -> tuple[float, float, float]:
        """The relative residual at ``x``, a bound on the rounding of the
        read, and one on how far a recompute's own rounding can move it."""
        if self.gram is None:
            return 0.0, math.inf, 0.0
        if self.s_a is None:
            self.s_a = self.a.T @ self.r_a
        d = x - self.x_a
        q = self.q_a - 2.0 * float(d @ self.s_a) + float(d @ (self.gram @ d))
        err = self.unit * (math.sqrt(self.q_a)
                           + self.norm_a * float(np.linalg.norm(d))) ** 2
        q = max(q, 0.0)
        norm = math.sqrt(q)
        rounding = max(norm - math.sqrt(max(q - err, 0.0)),
                       math.sqrt(q + err) - norm)
        floor = self.unit * (self.floor_a + self.norm_b + norm
                             + self.norm_a * float(np.linalg.norm(x)))
        self.last = norm / self.denom
        return self.last, rounding / self.denom, floor / self.denom

    def resync(self, x: np.ndarray, exact: np.ndarray) -> float:
        """Re-anchor at the exact residual at ``x``; returns the relative
        gap the last read had from it."""
        if self.gram is None:
            return 0.0
        gap = abs(self.last - float(np.linalg.norm(exact)) / self.denom)
        self._anchor(x, exact)
        return gap


def solve(problem: Problem, scheme: schemes.Scheme, stop: StopRule,
          rng: np.random.Generator, x0: np.ndarray | None = None,
          trace_every: int | None = None,
          observe: Callable[[int, np.ndarray], None] | None = None,
          ) -> tuple[np.ndarray, SolveTrace]:
    """Iterate ``scheme`` on ``problem`` until the stop rule fires.

    Exactly one sketch is drawn from ``rng`` per iteration, so a run is
    reproducible (and replayable step by step) from its seed. Returns the
    final iterate and the trace; the trace holds a record for k = 0, every
    ``trace_every``-th iteration, and the final iterate.

    If given, ``observe(k, x)`` is called after each update k = 1, 2, ...,
    skipped steps included, before that iteration's record; it must not
    modify ``x``. Rate fits read their per-step errors through it.
    """
    check_compatible(problem, scheme)
    a, b = problem.a, problem.b
    m, n = a.shape
    if trace_every is None:
        trace_every = default_trace_every(scheme)
    if trace_every < 1:
        raise ValueError("trace_every must be >= 1")

    x = initial_iterate(problem, x0)
    sampler = schemes.sampling_weights(scheme, a)
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
    if schemes.maintains_residual(scheme):
        tracked = _MaintainedResidual(r, res_denom)
    else:
        # with no record between k = 0 and the exact one at itmax, as in
        # rate fits, nothing would read the anchor
        anchored = (m >= ANCHOR_MIN_RATIO * n and m * n >= ANCHOR_MIN_SIZE
                    and trace_every < stop.itmax)
        tracked = _ResidualAnchor(a, problem.gram if anchored else None, x, r,
                                  norm_b, res_denom)
        r = None

    for k in range(1, stop.itmax + 1):
        draw = draw_sketch(scheme.spec, (m, n), rng, sampler)
        try:
            x = schemes.step(scheme, a, b, x, draw, r=r)
        except schemes.SkipStep:
            trace.skip_count += 1
        if observe is not None:
            observe(k, x)
        if k % trace_every == 0 or k == stop.itmax:
            rel_res, rounding, floor = tracked.read(x)
            # a NaN bound fails its test, so it is recomputed too
            if (k == stop.itmax or len(trace.records) % EXACT_EVERY == 0
                    or rel_res - rounding - floor <= stop.tol
                    or not rounding <= RECORD_RTOL * rel_res):
                exact = exact_residual()
                rel_res = rel_norm(exact)
                # drift is a gap that rounding cannot explain
                if tracked.resync(x, exact) > DRIFT_RTOL + rounding + floor:
                    record(k, rel_res)
                    trace.status = DRIFT
                    return x, trace
            if record(k, rel_res) < stop.tol:
                trace.status = CONVERGED
                return x, trace

    trace.status = MAX_ITERS
    return x, trace

