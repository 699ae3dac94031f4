"""Output checks behind the benchmark's ``failed`` count.

Each function returns a list of failure messages; an empty list is a pass.
None of them trusts what the solver says about itself: the residual is
recomputed from the returned iterate.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

RATE_TOLERANCE = 0.02  # the `sketchsolve rates` rule: rho_fit <= rho_theory + 0.02


def solve_failures(problem, x, trace, tol: float, converged: str) -> list[str]:
    """A solve passes when its trace says ``converged`` and the recomputed
    ``||b - A x|| / ||b||`` of the returned ``x`` is below ``tol``."""
    out = []
    if trace.status != converged:
        out.append(f"status {trace.status} after {trace.iterations} iterations")
    norm_b = float(np.linalg.norm(problem.b))
    rel = float(np.linalg.norm(problem.b - problem.a @ x)) / (norm_b or 1.0)
    if not rel < tol:
        out.append(f"recomputed relative residual {rel!r} is not below {tol!r}")
    return out


def report_failures(report, tolerance: float = RATE_TOLERANCE) -> list[str]:
    """A rate report passes when it is finite, not degenerate, and its fitted
    contraction does not beat the theory value by more than ``tolerance``."""
    if report.degenerate:
        return ["degenerate report"]
    if not (math.isfinite(report.rho_fit) and math.isfinite(report.rho_theory)):
        return [f"non-finite rates: fit {report.rho_fit!r}, "
                f"theory {report.rho_theory!r}"]
    if report.rho_fit > report.rho_theory + tolerance:
        return [f"rho_fit {report.rho_fit!r} exceeds rho_theory "
                f"{report.rho_theory!r} + {tolerance}"]
    return []


def solve_fingerprint(x, trace) -> str:
    """Digest of the iterate's bits and the trace's (k, residual, error)
    records; elapsed times are left out."""
    rows = np.array([(r.k, r.rel_residual,
                      math.nan if r.rel_error is None else r.rel_error)
                     for r in trace.records], dtype=float)
    h = hashlib.sha256(np.ascontiguousarray(x, dtype=float).tobytes())
    h.update(rows.tobytes())
    h.update(trace.status.encode())
    return h.hexdigest()


def report_fingerprint(report) -> str:
    """Digest of a rate report's fitted and theory values, bit for bit."""
    vals = np.array([report.rho_fit, report.rho_fit_norm_of_mean,
                     report.rho_theory, float(report.degenerate)], dtype=float)
    return hashlib.sha256(vals.tobytes()).hexdigest()
