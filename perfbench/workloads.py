"""The two benchmark workloads and the code that runs one of their cells.

A *cell* is one (workload, scheme) pair, or one rate report. A solve cell
runs ``solver.solve`` to the workload's tolerance on ``streams`` derived RNG
streams; a fit cell runs ``theory.fit_empirical_rate`` for a fixed number of
trials x iterations. Problem seeds are part of a workload's definition; the
workload seed (``--seed``) only picks the solver and trial streams, so a
seed changes the random draws, never the matrix. Without ``--seed`` every
cell uses its historical stream seed.

Why these workloads:

- dense-20000x500: A is 80 MB and O(mn) work dominates: each record is a
  full residual, C3 recomputes ``b - A x`` in every update, and the
  norm-proportional K1 draw rebuilds an O(m) CDF. K3's update touches only
  its 22 rows.
- spd-400-rates: the only workload through the S-family solves and through
  the per-solve SPD check (``eigvalsh``), repeated for every trial; and, in
  the same run, the rate reports: the second caller of the draw and update
  layers, through theory's own loop on tiny systems, with an error norm
  every step and no records or ``check_compatible``.

Between them they reach every layer the tracer wraps. On a 2-vCPU host
whose speed drifts by 20-50% over minutes, the benchmark's time limit allows
60 s runs for two workloads; with three or four, runs were too short for
steady figures. So the 1000x100 dense problem of
``scripts/run_dense_bench.py`` has no workload of its own, and the rate
reports share a workload with the SPD solves.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

from sketchsolve import problems, schemes, sketch, solver, theory

import checks

ITMAX = 100_000
# one round of set-ups: at least MIN, more while under BUDGET_S, at most MAX
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 10, 0.1


@dataclass(frozen=True)
class Cell:
    scheme: str
    problem: str = "A"
    distribution: str = sketch.UNIFORM
    block_size: int = 1
    # solve cells
    tol: float = 0.0
    streams: int = 1
    # fit cells (trials > 0)
    trials: int = 0
    iterations: int = 0
    norm: str = ""
    seed_offset: int = 0                # added to --seed
    historical_seed: int | None = None  # used when --seed is not given

    @property
    def is_fit(self) -> bool:
        return self.trials > 0

    @property
    def label(self) -> str:
        return f"fit.{self.scheme}" if self.is_fit else self.scheme

    @property
    def group(self) -> str:
        return "scalar" if self.scheme in schemes.SCALAR_SCHEMES else "block"


@dataclass(frozen=True)
class Workload:
    name: str
    problems: dict
    default_seed: int
    cells: tuple
    check_cell: int  # re-solved once before timing: warm-up and repeat check


def _solve_cells(ids, tol, block, streams, block_streams=None, dists=None):
    # block cells are short, so they may run more streams than scalar ones
    # to get a comparable share of a pass's measured time
    dists = dists or {}
    return tuple(Cell(sid, distribution=dists.get(sid, sketch.UNIFORM),
                      block_size=block, tol=tol,
                      streams=(streams if sid in schemes.SCALAR_SCHEMES
                               else block_streams or streams))
                 for sid in ids)


def _fit(sid, problem, dist, norm, historical_seed, block=1, seed_offset=0):
    return Cell(sid, problem=problem, distribution=dist, block_size=block,
                trials=40, iterations=500, norm=norm, seed_offset=seed_offset,
                historical_seed=historical_seed)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="dense-20000x500",
        problems={"A": dict(kind="UniformDense", m=20000, n=500, seed=2026)},
        default_seed=424242,
        cells=_solve_cells(("K1", "K3", "C3"), tol=1e-4, block=22, streams=1,
                           block_streams=2,
                           dists={"K1": sketch.NORM_PROPORTIONAL}),
        check_cell=1),
    Workload(
        name="spd-400-rates",
        problems={"A": dict(kind="SparseSpd", m=400, n=400, rc=0.05, seed=13),
                  "rect": dict(kind="SparseNormal", m=50, n=20, seed=11),
                  "spd": dict(kind="SparseSpd", m=50, n=50, seed=13)},
        default_seed=424242,
        cells=_solve_cells(("S1", "S2", "S3", "S4"), tol=1e-6, block=20,
                           streams=2, dists={"S1": sketch.TRACE_PROPORTIONAL})
        # the rate-report systems and seeds of scripts/run_rate_report.py
        + (_fit("K1", "rect", sketch.NORM_PROPORTIONAL, theory.NORM_EUCLID, 7),
           _fit("C1", "rect", sketch.NORM_PROPORTIONAL, theory.NORM_GHAT, 7),
           _fit("S1", "spd", sketch.TRACE_PROPORTIONAL, theory.NORM_A, 9,
                seed_offset=2),
           _fit("S4", "spd", sketch.UNIFORM, theory.NORM_A, 9, block=7,
                seed_offset=2)),
        check_cell=2),
)}


@dataclass
class Setup:
    problems: dict
    schemes: list


def set_up(workload: Workload) -> Setup:
    """Problem generation plus scheme construction: what ``setup_s`` times."""
    probs = {key: problems.generate(problems.ProblemSpec(**spec))
             for key, spec in workload.problems.items()}
    built = [schemes.make_scheme(c.scheme, block_size=c.block_size,
                                 distribution=c.distribution)
             for c in workload.cells]
    return Setup(probs, built)


@dataclass
class CellRun:
    seconds: float = 0.0
    iterations: int = 0
    records: int = 0
    fingerprint: list = field(default_factory=list)
    failures: list = field(default_factory=list)


def run_cell(setup: Setup, cell: Cell, scheme, seed: int) -> CellRun:
    """Run one cell through the public entry points, timing each call and
    checking each output. Module attributes are looked up at call time, so
    a traced pass goes through the tracer's wrappers."""
    problem = setup.problems[cell.problem]
    run = CellRun()
    perf = time.perf_counter
    try:
        if cell.is_fit:
            t0 = perf()
            report = theory.fit_empirical_rate(
                problem, scheme, trials=cell.trials, iterations=cell.iterations,
                norm_used=cell.norm, seed=seed)
            run.seconds = perf() - t0
            run.failures += checks.report_failures(report)
            run.fingerprint.append(checks.report_fingerprint(report))
            return run
        stop = solver.StopRule(itmax=ITMAX, tol=cell.tol)
        key = schemes.ALL_SCHEMES.index(cell.scheme)
        for stream in range(cell.streams):
            rng = sketch.rng_from_keys(seed, key, stream)
            t0 = perf()
            x, trace = solver.solve(problem, scheme, stop, rng)
            run.seconds += perf() - t0
            run.iterations += trace.iterations
            run.records += len(trace.records)
            run.failures += checks.solve_failures(problem, x, trace, cell.tol,
                                                  solver.CONVERGED)
            run.fingerprint.append(checks.solve_fingerprint(x, trace))
    except Exception as exc:  # a raising cell is a failed check, not a crash
        run.failures.append(f"raised {type(exc).__name__}: {exc}")
    return run


class Bench:
    """One workload run: its set-up, its cell runs and their check tally."""

    def __init__(self, workload, seed: int | None):
        self.w = workload
        self.seed = seed   # None: each cell's historical seed
        self.setup = None
        self.reference = {}   # cell index -> fingerprint of its first run
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.setup_times = []  # seconds of every set-up in the run

    def cell_seed(self, cell: Cell) -> int:
        if self.seed is not None:
            return self.seed + cell.seed_offset
        if cell.historical_seed is not None:
            return cell.historical_seed
        return self.w.default_seed

    def do_setup(self) -> list[float]:
        """One round of set-ups (see SETUP_MIN); returns each one's seconds.
        A run sets up once per pass too, so ``setup_s`` samples the whole
        run, as the solve times do, not only its first second."""
        times = []
        while (len(times) < SETUP_MIN or
               (sum(times) < SETUP_BUDGET_S and len(times) < SETUP_MAX)):
            self.setup = None
            t0 = time.perf_counter()
            self.setup = set_up(self.w)
            times.append(time.perf_counter() - t0)
        self.setup_times += times
        return times

    def _account(self, index: int, run, label: str):
        self.attempted += 1
        problems_found = list(run.failures)
        ref = self.reference.setdefault(index, run.fingerprint)
        if run.fingerprint != ref:
            problems_found.append("not bit-identical to the cell's first run")
        if problems_found:
            self.failed += 1
            cell = self.w.cells[index]
            for msg in problems_found:
                line = f"{label} {cell.label}: {msg}"
                self.messages.append(line)
                print(f"check failed: {line}", file=sys.stderr)

    def run_one(self, index: int, label: str, tracer=None):
        cell = self.w.cells[index]
        if tracer is not None:
            tracer.cell = index
        run = run_cell(self.setup, cell, self.setup.schemes[index],
                       self.cell_seed(cell))
        self._account(index, run, label)
        return run

    def run_pass(self, label: str, tracer=None):
        t0 = time.perf_counter()
        runs = [self.run_one(i, label, tracer)
                for i in range(len(self.w.cells))]
        return runs, time.perf_counter() - t0
