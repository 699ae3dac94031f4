"""Shared test fixtures: seeded random matrices and independent oracles."""

import numpy as np


def gaussian(seed: int, m: int, n: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((m, n))


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def random_spd(seed: int, n: int, lo: float = 0.5, hi: float = 3.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    q = random_orthogonal(rng, n)
    a = (q * rng.uniform(lo, hi, n)) @ q.T
    return 0.5 * (a + a.T)


def charpoly_coefficients(a: np.ndarray) -> np.ndarray:
    """Characteristic polynomial coefficients via the Faddeev-LeVerrier
    trace recursion; independent of any eigendecomposition."""
    n = a.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    mk = np.zeros_like(a)
    for k in range(1, n + 1):
        mk = a @ mk + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(a @ mk) / k
    return coeffs


def eigs_via_charpoly(a: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric matrix from the roots of its
    characteristic polynomial (companion matrix route, not eigvalsh)."""
    roots = np.roots(charpoly_coefficients(a))
    assert np.abs(roots.imag).max() < 1e-6
    return np.sort(roots.real)


def check_moore_penrose(m: np.ndarray, pinv: np.ndarray, tol_scale: float = 1e-10):
    """Assert the four Moore-Penrose identities within tol_scale * ||M||_F."""
    tol = tol_scale * max(np.linalg.norm(m), 1e-30)
    assert np.abs(m @ pinv @ m - m).max() <= tol
    assert np.abs(pinv @ m @ pinv - pinv).max() <= tol
    assert np.abs((m @ pinv) - (m @ pinv).T).max() <= tol
    assert np.abs((pinv @ m) - (pinv @ m).T).max() <= tol


def ls_solution_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least-squares solution via the normal equations, solved directly."""
    return np.linalg.solve(a.T @ a, a.T @ b)


def ls_residual(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> float:
    """Least-squares optimality ||A^T (b - A x)|| / ||A^T b||: zero exactly
    at a least-squares solution, consistent or not."""
    denom = float(np.linalg.norm(a.T @ b))
    return float(np.linalg.norm(a.T @ (b - a @ x))) / (denom if denom > 0.0 else 1.0)


def plain_solve(problem, scheme, stop, rng, x0=None, trace_every=None):
    """``solver.solve``'s reference loop: one ``draw_sketch`` call (no
    ``count``) and one ``step_generic`` a step, and an exact ``b - A x`` at
    every record of solve's schedule (k = 0, every ``trace_every``-th step,
    ``itmax``). It stops on the first record below tol, and knows no blocks,
    anchors, Gram space or batches. Returns the final x, the status and the
    records as ``(k, rel_residual, rel_error)``."""
    from sketchsolve import schemes, solver
    from sketchsolve.sketch import draw_sketch

    a, b, x_star = problem.a, problem.b, problem.x_star
    every = trace_every or solver.default_trace_every(scheme)
    sampler = schemes.sampling_weights(scheme, a)
    x = np.zeros(a.shape[1]) if x0 is None else np.array(x0, dtype=float)
    norm_b = float(np.linalg.norm(b)) or 1.0
    records = []
    for k in range(stop.itmax + 1):
        if k > 0:
            draw = draw_sketch(scheme, a.shape, rng, sampler)
            x = schemes.step_generic(scheme, a, b, x, draw)
        if k % every and k != stop.itmax:
            continue
        err = None
        if x_star is not None:
            err = (float(np.linalg.norm(x - x_star))
                   / (float(np.linalg.norm(x_star)) or 1.0))
        records.append((k, float(np.linalg.norm(b - a @ x)) / norm_b, err))
        if records[-1][1] < stop.tol:
            return x, solver.CONVERGED, records
    return x, solver.MAX_ITERS, records
