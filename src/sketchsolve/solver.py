"""Generic iteration driver: run one scheme on one problem to a stop rule.

The loop is deliberately dumb: one sketch draw per iteration (taken from a
block drawn ahead, see below), one update, and a residual record at trace
points only (every iteration for block schemes, every tenth by default for
the scalar ones).

Every record takes one path: read a tracked residual norm, recompute
``b - A x`` exactly when a rule fires, check the drift, resync. Which
tracker a run uses depends on one shape condition, "use G": the system is
tall and large enough that an O(mn) product costs well over an O(n^2) one
(``ANCHOR_MIN_RATIO``, ``ANCHOR_MIN_SIZE``), and the run records before
``itmax``. There, :class:`_ResidualAnchor` reads ``||b - A x||`` from the
last exact residual and ``G = A^T A`` (:attr:`Problem.gram`, formed once
per problem), and every exact record forms ``b - A x`` and ``A^T (b - A
x)`` together, in one pass over ``A`` (:func:`linalg.normal_residual`); a
run from ``x = 0`` reads that first record from the problem instead
(:attr:`Problem.zero_start`, formed once per problem):

- row schemes (K1-K6) read it through ``G d`` in O(n^2);
- unweighted column schemes (C1-C4, C5/C6 with G = I) run in Gram space
  (``schemes.step(..., gram=G)``): they carry ``s = A^T (b - A x)``, which
  the anchor resyncs at every exact recompute, and read it in O(n).

Everywhere else row-scheme records are exact, and column and symmetric
schemes (:func:`schemes.maintains_residual`), including C5/C6 with an
m x m weight and S1-S4, carry ``r = b - A x`` through their updates and
read ``||r||`` in O(m) (:class:`_MaintainedResidual`).

A read comes with two bounds: its own rounding, and a floor for how far the
rounding of ``b - A x`` itself can move a recompute (both first order in
``(m + n) eps``; the maintained residual has no cheap bound and reads 0 for
both). The exact residual is recomputed on the record at ``itmax`` and on
every ``EXACT_EVERY``-th record from k = 0 (a schedule set as records are
made), whenever the value read minus both bounds is not above the
tolerance, and whenever the rounding exceeds ``RECORD_RTOL`` of the value.
That record carries the exact value and the tracker restarts from it, so
``Converged`` is only ever returned on an exact residual, and a row scheme
stops on the record where exact records would have stopped it, up to
second-order rounding. If the tracked value is further from the exact one
than both bounds plus ``DRIFT_RTOL * ||b||``, or a carried ``s`` further
from ``A^T (b - A x)`` than that times ``||A||_F``, the run stops with
status ``Drift``: the incremental updates lost track of the iterate, which
roundoff alone does not do. A read that is not finite is recomputed; if
that is not finite either (finite input can overflow), the run stops with
status ``NonFinite``. A block step whose sketched system numpy cannot
factor (``LinAlgError``: say it overflowed) is a null step, as is a scalar
id's :class:`schemes.SkipStep`; both count in ``skip_count``.

Anchored K runs (no carried ``s``, no ``observe``) read records in batches,
in one ``D G`` product: a record waits, with its ``x`` and skip count, for
``READ_BATCH`` records (fewer at a sparser ``trace_every``: under 160 steps
run past one in K1, 16 in K3-K6), for ``itmax`` or for the next periodic
check. The rules above then judge them in order, re-reading after a
re-anchor; one that stops the run restores its ``x`` and skip count, so
steps run past it change nothing but the time taken.

Every id takes its draws from a block drawn in one ``draw_sketch(...,
count=)`` call, never past ``itmax``: K1, C1, S1, S2 and S4 up to
``SKETCH_BLOCK`` bytes of them, every other id one. S2 and S4 also form the
blocks' sketched columns in one product, handing each :func:`schemes.step`
its own; S4 also forms their systems ``W^T A W`` in one product and inverts
them in one call, handing a step the inverse :func:`linalg.pseudoinverse`
would return, if it is the LU one (:func:`linalg.lu_inverses`). A run that
stops or raises with draws made past its last step resets the generator to
where that step's block (or batch of records) was drawn from, and redraws
the steps taken in one call.

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
from .linalg import (SpdMatrix, aligned_empty, as_matrix, as_vector,
                     lu_inverses, normal_residual)
from .sketch import (GAUSS, INDEX, TRACE_PROPORTIONAL, IndexCdf, draw_dim,
                     draw_sketch)

CONVERGED = "Converged"
MAX_ITERS = "MaxIters"
DRIFT = "Drift"
NON_FINITE = "NonFinite"

CONSISTENCY_RTOL = 1e-8
# a record whose index from k = 0 is a multiple of this is exact by schedule
EXACT_EVERY = 100
# largest tolerated gap between a tracked and the exact residual, relative to
# ||b||; roundoff measured on the benchmark problems stays below 1e-14 over
# 30 000 steps
DRIFT_RTOL = 1e-10
# largest rounding bound of a record's own arithmetic, relative to the value
# read, that the record may carry without an exact recompute
RECORD_RTOL = 1e-6
# records read an anchor, and C1-C4 run in Gram space, only where an O(mn)
# product costs well over an O(n^2) one plus its fixed ~10 us: measured on
# dense problems with n = 100, 250, 500 (scripts/run_gram_sweep.py,
# BENCH_8.json), using A^T A made K1, K3, C1 and C3 solves faster at every
# shape with m >= 4 n and m n >= 2**17, and K1 and K3 lost at some smaller
# ones
ANCHOR_MIN_RATIO = 4
ANCHOR_MIN_SIZE = 2 ** 17
# anchored K records wait, up to this many at the default cadence, for one
# read that streams G once for all (2 MB at n = 500; sweep in BENCH_17.json)
READ_BATCH = 16
# bytes of draws, and of S2's and S4's sketched columns, per block of K1, C1,
# S1, S2 and S4 draws (sweeps in BENCH_19.json and BENCH_25.json)
SKETCH_BLOCK = 2 ** 19


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
    them and keeps (:attr:`gram`, :attr:`zero_start`, :attr:`spd_error`,
    :meth:`sampler`) assumes they never change: writing to the original
    arrays, or assigning new ones, after construction leaves it stale, so
    build a new problem instead."""

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
        """``A^T A`` (read-only, 64-byte aligned), formed once, O(m n^2).
        It is exactly symmetric, as the Gram-space column steps need: numpy
        forms ``A^T A`` as one triangle, mirrored, and any other product is
        averaged with its transpose (a copy, as the two overlap)."""
        g = np.matmul(self.a.T, self.a, out=aligned_empty((self.shape[1],) * 2))
        if not np.array_equal(g, g.T):
            g += g.T
            g *= 0.5
        return _read_only(g)

    @cached_property
    def zero_start(self) -> tuple[np.ndarray, np.ndarray]:
        """The exact record at ``x = 0``, ``r0 = b - A 0`` and ``s0 = A^T
        r0`` (both read-only), formed on first use in one pass over ``A`` and
        kept: anchored solves from zero read their k = 0 record here."""
        r, s = normal_residual(self.a, self.b, np.zeros(self.shape[1]))
        return _read_only(r), _read_only(s)

    @cached_property
    def _samplers(self) -> dict:
        return {}

    def sampler(self, scheme: schemes.Scheme) -> IndexCdf | None:
        """:func:`schemes.sampling_weights` for ``scheme``, built once per
        distribution and axis and kept, so the trials of a rate fit share
        one CDF."""
        key = (scheme.distribution, scheme.axis)
        if key not in self._samplers:
            self._samplers[key] = schemes.sampling_weights(scheme, self.a)
        return self._samplers[key]

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


@dataclass(frozen=True, slots=True)
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
    # records whose residual was computed from scratch as b - A x; a k = 0
    # record read from Problem.zero_start counts too
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
    """What ``scheme`` needs of ``problem``, checked at setup: a square SPD A
    for S1-S4 and trace-proportional sampling, a block no wider than the side
    it draws over (:func:`sketch.draw_dim`), a weight G of the right size."""
    m, n = problem.shape
    what = (f"scheme {scheme.id}" if schemes.family(scheme.id) == "S"
                 else "trace-proportional sampling"
                 if scheme.distribution == TRACE_PROPORTIONAL else None)
    if what is not None:
        if m != n:
            raise ValueError(f"{what} needs a square system, got {m}x{n}")
        exc = problem.spd_error
        if exc is not None:
            raise ValueError(f"{what} needs an SPD system: {exc}") from exc
    dim = draw_dim(scheme, (m, n))
    if scheme.block_size > dim:
        raise ValueError(f"block_size {scheme.block_size} exceeds dimension {dim}")
    if scheme.g is not None:
        want = schemes.weight_dim(scheme.id, (m, n))
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

    def read(self, xs: list) -> list:
        """As :meth:`_ResidualAnchor.read`, for the current iterate alone."""
        return [(math.sqrt(float(self.r @ self.r)) / self.denom, 0.0, 0.0)]

    def resync(self, x: np.ndarray, read: float, exact: np.ndarray,
               exact_s=None) -> float:
        """As :meth:`_ResidualAnchor.resync`, for the carried ``r``."""
        gap = float(np.linalg.norm(self.r - exact)) / self.denom
        self.r[:] = exact
        return gap


class _ResidualAnchor:
    """K schemes, and C1-C4 in Gram space: ``||b - A x||^2`` read from the
    last exact residual ``r_a`` at ``x_a`` as ``||r_a||^2 - 2 d^T s_a +
    d^T G d``, with ``d = x - x_a``, ``s_a = A^T r_a`` and ``G = A^T A``, in
    O(n^2) instead of O(mn). The solve hands over ``r_a`` and ``s_a``, formed
    in one pass over ``A``; the anchor never reads ``A``.

    In Gram space (``carry``) the anchor also holds :attr:`s`, the
    ``A^T (b - A x)`` that every column step moves. As ``s = s_a - G d``, the
    read is ``||r_a||^2 - d^T (s_a + s)``, O(n), with the same bounds; each
    resync sets ``s`` to ``A^T`` of the exact residual, and reports a gap of
    ``s`` from it in units of ``||A||_F``.

    The bound on a read is first order in ``u = (m + n) eps``, which covers
    every dot product involved, summed in any order (length m in
    ``||r_a||^2``, ``s_a`` and ``G``, length n in the read). ``s_a`` rounds
    by ``u |A|^T |r_a|``, which does not shrink as ``A^T r_a`` does, and
    ``|d|^T |A|^T |r_a| <= ||A||_F ||d|| ||r_a||``; ``G`` rounds by ``u |A|^T
    |A|``, and ``|d|^T |A|^T |A| |d| <= ||A||_F^2 ||d||^2``. So the three
    terms round by at most ``u (||r_a|| + ||A||_F ||d||)^2``, the read's
    ``rounding``. Its ``floor`` is how far the read can still be from a
    recompute at ``x`` because both recomputes round: ``b - A x`` by ``u (|b|
    + |A| |x|)`` per entry, at ``x_a`` and at ``x``, and its norm by ``u
    ||r||``. Without ``G`` it reads nothing, so every record is exact.

    A read takes a list of iterates; without a carried ``s`` (the current
    iterate's) their ``G d`` are one product, which streams ``G`` once."""

    def __init__(self, gram: np.ndarray | None, x: np.ndarray, r: np.ndarray,
                 s: np.ndarray | None, norm_b: float, denom: float,
                 carry: bool = False):
        self.gram, self.norm_b, self.denom = gram, norm_b, denom
        self.s = s.copy() if carry else None
        if gram is not None:
            self.unit = (r.shape[0] + gram.shape[0]) * np.finfo(float).eps
            self.norm_a = math.sqrt(float(np.trace(gram)))  # ||A||_F
            self._anchor(x, r, s)

    def _anchor(self, x: np.ndarray, r: np.ndarray, s: np.ndarray):
        self.x_a, self.s_a = x.copy(), s
        self.q_a = float(r @ r)
        self.floor_a = self.norm_b + self.norm_a * float(np.linalg.norm(x))

    def read(self, xs: list) -> list:
        """For each iterate ``x`` in ``xs``: the relative residual at ``x``, a
        bound on the rounding of the read, and one on how far a recompute's
        own rounding can move it."""
        if self.gram is None:
            return [(0.0, math.inf, 0.0)] * len(xs)
        ds = np.array(xs) - self.x_a
        # q = ||r_a||^2 - d^T v, with v = 2 s_a - G d, or s_a + s if carried
        vs = (2.0 * self.s_a - ds @ self.gram if self.s is None
              else [self.s_a + self.s])
        out = []
        for x, d, v in zip(xs, ds, vs):
            q = self.q_a - float(d @ v)
            err = self.unit * (math.sqrt(self.q_a)
                               + self.norm_a * math.sqrt(float(d @ d))) ** 2
            q = max(q, 0.0)
            norm = math.sqrt(q)
            rounding = max(norm - math.sqrt(max(q - err, 0.0)),
                           math.sqrt(q + err) - norm)
            floor = self.unit * (self.floor_a + self.norm_b + norm
                                 + self.norm_a * math.sqrt(float(x @ x)))
            out.append((norm / self.denom, rounding / self.denom,
                        floor / self.denom))
        return out

    def resync(self, x: np.ndarray, read: float, exact: np.ndarray,
               exact_s=None) -> float:
        """Re-anchor at the exact residual at ``x`` and ``A^T`` of it; returns
        the relative gap the value ``read`` at ``x``, and a carried ``s``,
        had from them."""
        if self.gram is None:
            return 0.0
        gap = abs(read - float(np.linalg.norm(exact)) / self.denom)
        self._anchor(x, exact, exact_s)
        if self.s is not None:
            gap = max(gap, float(np.linalg.norm(self.s - self.s_a))
                      / (self.norm_a * self.denom))
            self.s[:] = self.s_a
        return gap


def solve(problem: Problem, scheme: schemes.Scheme, stop: StopRule,
          rng: np.random.Generator, x0: np.ndarray | None = None,
          trace_every: int | None = None,
          observe: Callable[[int, np.ndarray], None] | None = None,
          ) -> tuple[np.ndarray, SolveTrace]:
    """Iterate ``scheme`` on ``problem`` until the stop rule fires.

    ``rng`` is left where one sketch draw per iteration leaves it (steps run
    past a stopping record, and draws made ahead in a block, are undone), so
    a run is reproducible (and replayable step by step) from its seed.
    Returns the final iterate and the trace; the trace holds a record for
    k = 0, every ``trace_every``-th iteration, and the final iterate.

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
    sampler = problem.sampler(scheme)
    norm_b = float(np.linalg.norm(b))
    res_denom = norm_b if norm_b > 0.0 else 1.0
    if problem.x_star is not None:
        norm_xs = float(np.linalg.norm(problem.x_star))
        err_denom = norm_xs if norm_xs > 0.0 else 1.0
    trace = SolveTrace()
    start = time.perf_counter()

    def rel_norm(res: np.ndarray) -> float:
        return float(np.linalg.norm(res)) / res_denom

    def record(k: int, x: np.ndarray, rel_res: float, drift=False) -> bool:
        # whether the record stops the run; a value that is not finite is exact
        rel_err = None
        if problem.x_star is not None:
            e = x - problem.x_star
            rel_err = math.sqrt(float(e @ e)) / err_denom
        trace.records.append(TraceRecord(k, rel_res, rel_err,
                                         time.perf_counter() - start))
        trace.status = (DRIFT if drift else
                        NON_FINITE if not math.isfinite(rel_res) else
                        CONVERGED if rel_res < stop.tol else MAX_ITERS)
        return trace.status != MAX_ITERS

    # with no record between k = 0 and the exact one at itmax, as in rate
    # fits, nothing would read the anchor
    use_gram = (m >= ANCHOR_MIN_RATIO * n and m * n >= ANCHOR_MIN_SIZE
                and trace_every < stop.itmax)
    gram_space = use_gram and scheme.gram_form
    maintained = schemes.maintains_residual(scheme) and not gram_space

    def exact_residual(x):  # b - A x, and A^T (b - A x) where an anchor reads G
        trace.exact_recomputes += 1
        if use_gram and not maintained:
            return normal_residual(a, b, x) if x.any() else problem.zero_start
        return b - a @ x, None

    r, s = exact_residual(x)
    if record(0, x, rel_norm(r)):
        return x, trace
    if maintained:
        tracked = _MaintainedResidual(r, res_denom)
    else:
        tracked = _ResidualAnchor(problem.gram if use_gram else None, x, r, s,
                                  norm_b, res_denom, carry=gram_space)
        r = tracked.s
    gram = problem.gram if gram_space else None
    # records not yet judged, as (k, x, skips, exact by schedule, mark): K
    # steps never read the anchor, so they run on while a batch waits
    pending = []
    batch = 1
    if use_gram and not schemes.maintains_residual(scheme) and observe is None:
        batch = max(1, READ_BATCH * default_trace_every(scheme) // trace_every)

    def judge() -> bool:
        # write the pending records in order; one that stops the run hands
        # back the x and skip count it saw, and where to rewind rng to
        nonlocal x, stop_at
        xs, reads = [p[1] for p in pending], None
        for i, (k, x_k, skips, scheduled, mark_k) in enumerate(pending):
            if reads is None:  # first, or after a re-anchor
                reads, first = tracked.read(xs[i:]), i
            rel_res, rounding, floor = reads[i - first]
            drift = False
            # a NaN or infinite read, or a NaN bound, is recomputed too
            if (scheduled or rel_res - rounding - floor <= stop.tol
                    or not rounding <= RECORD_RTOL * rel_res < math.inf):
                exact, exact_s = exact_residual(x_k)
                read, rel_res, reads = rel_res, rel_norm(exact), None
                # drift is a gap that rounding cannot explain
                drift = (math.isfinite(rel_res)
                         and tracked.resync(x_k, read, exact, exact_s)
                         > DRIFT_RTOL + rounding + floor)
            if record(k, x_k, rel_res, drift):
                x, trace.skip_count, stop_at = x_k, skips, (k, mark_k)
                return True
        pending.clear()
        return False

    # ``block`` holds the draws of steps ``first`` on. SKETCH_BLOCK bounds B x
    # n x l in bytes for S2 and S4: their draws, and their ``cols``, A W as
    # one product W^T A^T laid out as A @ w would be, so that a step rounds
    # alike (A is square for S); and for as many index draws, few enough
    # that a run stopping early wastes little. Every other id draws blocks
    # of one. ``inverses`` holds S4's (W^T A W)^-1 or None. ``mark`` is the
    # generator state, and first step, that a rewind redraws from, read only
    # where a rewind can follow: at a block of several draws, or at the
    # first draw of an anchored K batch of records
    sym_gauss = scheme.kind == GAUSS and scheme.id[0] == "S"
    per_block = (max(1, SKETCH_BLOCK // (8 * scheme.block_size * n))
                 if sym_gauss or scheme.kind == INDEX else 1)
    block, first, cols, mark, stop_at = (), 1, None, None, None
    try:
        for k in range(1, stop.itmax + 1):
            try:
                if k - first == len(block):  # never past itmax
                    count = min(per_block, stop.itmax - k + 1)
                    if count > 1 or batch > 1 and trace.records[-1].k == k - 1:
                        mark = rng.bit_generator.state, k
                    block = draw_sketch(scheme, (m, n), rng, sampler, count=count)
                    first = k
                    if sym_gauss:
                        cols = np.ascontiguousarray(
                            np.tensordot(block, a, (1, 1)).transpose(0, 2, 1))
                        inverses = [None] * len(block)
                        if scheme.id not in schemes.SCALAR_SCHEMES:
                            inverses = lu_inverses(np.matmul(
                                block.transpose(0, 2, 1), cols))
                draw = block[k - first]
                if cols is None:
                    x = schemes.step(scheme, a, b, x, draw, r=r, gram=gram)
                else:
                    x = schemes.step(scheme, a, b, x, draw, r=r,
                                     az=cols[k - first],
                                     inverse=inverses[k - first])
            except (schemes.SkipStep, np.linalg.LinAlgError):
                trace.skip_count += 1
            except Exception:
                if pending and judge():  # the failed step came after the stop
                    return x, trace
                raise
            if observe is not None:
                observe(k, x)
            if k % trace_every == 0 or k == stop.itmax:
                scheduled = k == stop.itmax or (
                    len(trace.records) + len(pending)) % EXACT_EVERY == 0
                pending.append((k, x, trace.skip_count, scheduled, mark))
                if (len(pending) == batch or scheduled) and judge():
                    return x, trace
    finally:  # drawn past the last step taken: rewind rng to one draw a step
        taken, mark = stop_at or (k, mark)
        if first + len(block) - 1 > taken:
            state, start = mark
            rng.bit_generator.state = state
            draw_sketch(scheme, (m, n), rng, sampler, count=taken - start + 1)
    return x, trace
