#!/usr/bin/env python3
"""Print digests of each cell of a fixed set of runs, so that two checkouts
that must run bit-identically can be compared with ``diff``.

The cells are:
- solves of all sixteen ids (block ids at l = 5), uniform sampling plus
  K1/C1 norm-proportional and S1 trace-proportional, with ``itmax`` 3000
  and ``tol`` 1e-8, at seeds 1 and 2, on UniformDense 400x100 (K records
  exact), UniformDense 2000x100 (anchored K records, C1-C4 in Gram space)
  and SparseSpd 60; the S ids run on SparseSpd only;
- four rate fits: K1 and C1 norm-proportional on UniformDense 400x100, S1
  trace-proportional and S4 uniform (l = 5) on SparseSpd 60;
- one K4 propagator estimate on UniformDense 400x100;
- the weighted-to-symmetric reduction on SparseSpd 60: one S3 and one S4
  draw (l = 5, seed 9) through ``reduction_discrepancy``, with ``g = A^-1``
  and with ``g = I``;
- the generators: UniformDense 7x4, SparseNormal 30x12 with the default and
  with an explicit density and rc, SparseSpd 12 and 1, and a FromFile
  round trip of a matrix written by ``save_matrixmarket`` to a temporary
  directory.

A solve has two digests: its outcome, the bytes of the final ``x``, the
status, the iteration, skip and exact-recompute counts, every record's
``k`` and the generator's state after the solve; then its record values,
every record's residual and error. Timings are left out. A change that
keeps every result but moves tracked record values within their bounds
then shows in ``diff`` as changed second digests only. Every other cell
has one digest: a fit's covers its report's repr, a propagator's the
estimate's matrices and figures, a reduction's the two discrepancies, a
generator's ``a``, ``b`` and its ``ProblemStats`` as a dict. Only
the public ``sketchsolve`` API is read. BLAS is pinned to one thread.

    PYTHONPATH=src python scripts/run_fingerprints.py > change.txt
    # the same in a checkout of the parent, then
    diff parent.txt change.txt
"""

import argparse
import dataclasses
import hashlib
import os
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import sketchsolve as ss  # noqa: E402
from sketchsolve import schemes, theory  # noqa: E402

SEEDS = (1, 2)
BLOCK = 5
STOP = ss.StopRule(itmax=3000, tol=1e-8)
PROBLEMS = {
    "dense-400x100": ss.ProblemSpec(kind="UniformDense", m=400, n=100, seed=3),
    "dense-2000x100": ss.ProblemSpec(kind="UniformDense", m=2000, n=100, seed=4),
    "spd-60": ss.ProblemSpec(kind="SparseSpd", m=60, n=60, seed=5),
}
# the generator cells; a FromFile cell is added when its file is written
GENERATED = {
    "dense-7x4": ss.ProblemSpec(kind="UniformDense", m=7, n=4, seed=3),
    "normal-30x12": ss.ProblemSpec(kind="SparseNormal", m=30, n=12, seed=5),
    "normal-30x12-set": ss.ProblemSpec(kind="SparseNormal", m=30, n=12,
                                       density=0.3, rc=0.1, seed=6),
    "spd-12": ss.ProblemSpec(kind="SparseSpd", m=12, n=12, seed=7),
    "spd-1": ss.ProblemSpec(kind="SparseSpd", m=1, n=1, seed=8),
}
PROPORTIONAL = {"K1": "norm_proportional", "C1": "norm_proportional",
                "S1": "trace_proportional"}


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray)
                 else repr(part).encode())
    return h.hexdigest()[:16]


def _weight(sid: str, shape) -> ss.SpdMatrix | None:
    if sid not in schemes.WEIGHTED_SCHEMES:
        return None
    d = schemes.weight_dim(sid, shape)
    return ss.SpdMatrix(np.diag(1.0 + ss.make_rng(d).random(d)))


def _solve_cells(name: str, problem: ss.Problem):
    square = problem.shape[0] == problem.shape[1]
    for sid in ss.ALL_SCHEMES:
        if sid[0] == "S" and name != "spd-60":
            continue
        for dist in ("uniform", PROPORTIONAL.get(sid)):
            if dist is None or (dist == "trace_proportional" and not square):
                continue
            scheme = ss.make_scheme(sid, block_size=BLOCK, distribution=dist,
                                    g=_weight(sid, problem.shape))
            for seed in SEEDS:
                rng = ss.make_rng(seed)
                x, trace = ss.solve(problem, scheme, STOP, rng)
                values = [(r.rel_residual, r.rel_error) for r in trace.records]
                yield (f"solve {name} {sid} {dist} seed={seed} "
                       f"{trace.status} k={trace.iterations} "
                       f"skips={trace.skip_count} "
                       f"exact={trace.exact_recomputes}",
                       _digest(x, trace.status, trace.iterations,
                               trace.skip_count, trace.exact_recomputes,
                               [r.k for r in trace.records],
                               rng.bit_generator.state)
                       + " " + _digest(values))


def _fit_cells(probs):
    fits = (("K1", "dense-400x100", theory.NORM_EUCLID),
            ("C1", "dense-400x100", theory.NORM_GHAT),
            ("S1", "spd-60", theory.NORM_A),
            ("S4", "spd-60", theory.NORM_A))
    for sid, name, norm in fits:
        scheme = ss.make_scheme(sid, block_size=BLOCK,
                                distribution=PROPORTIONAL.get(sid, "uniform"))
        report = ss.fit_empirical_rate(probs[name], scheme, trials=5,
                                       iterations=200, norm_used=norm, seed=7)
        yield (f"fit {name} {sid} rho_fit={report.rho_fit!r}",
               _digest(report))


def _propagator_cell(probs):
    est = ss.estimate_mean_propagator(probs["dense-400x100"].a, None, "K4",
                                      samples=50, rng=ss.make_rng(11),
                                      block_size=3, bootstrap=20)
    yield (f"propagator dense-400x100 K4 "
           f"max_violation={est.max_violation!r}",
           _digest(est.matrix, est.bound_matrix, est.max_violation,
                   est.max_violation_se, est.spectral_rate))


def _reduction_cells(probs):
    prob = probs["spd-60"]
    a = ss.SpdMatrix(prob.a)
    x = np.zeros(prob.shape[1])
    identity = ss.SpdMatrix(np.eye(prob.shape[1]))
    for sid in ("S3", "S4"):
        draw = ss.draw_sketch(ss.make_scheme(sid, block_size=BLOCK),
                              prob.shape, ss.make_rng(9))
        exact = ss.reduction_discrepancy(a, draw, prob.b, x)
        control = ss.reduction_discrepancy(a, draw, prob.b, x, g=identity)
        yield (f"reduction spd-60 {sid} exact={exact!r} control={control!r}",
               _digest(exact, control))


def _generator_cells():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "A.mtx")
        ss.save_matrixmarket(path, ss.make_rng(10).standard_normal((9, 5)),
                             fmt="coordinate")
        specs = {**GENERATED, "file-9x5": ss.ProblemSpec(kind="FromFile", path=path)}
        for name, spec in specs.items():
            prob = ss.generate(spec)
            yield (f"problem {name} achieved_rc={prob.stats.achieved_rc!r}",
                   _digest(prob.a, prob.b, dataclasses.asdict(prob.stats)))


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args()
    probs = {name: ss.generate(spec) for name, spec in PROBLEMS.items()}
    cells = [cell for name, prob in probs.items()
             for cell in _solve_cells(name, prob)]
    cells += [*_fit_cells(probs), *_propagator_cell(probs),
              *_reduction_cells(probs), *_generator_cells()]
    for label, digest in cells:
        print(f"{digest}  {label}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
