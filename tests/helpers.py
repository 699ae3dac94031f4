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
