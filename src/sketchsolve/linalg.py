"""Dense linear-algebra primitives shared by the solver and theory code.

Everything operates on float64 numpy arrays. Matrices are 2-D, vectors 1-D.
"""

from __future__ import annotations

import math

import numpy as np

SYM_RTOL = 1e-12


def as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    return a


def as_vector(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    return v


def pseudoinverse(m) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values sigma <= max(rows, cols) * sigma_max * eps are treated
    as zero, so rank-deficient and zero matrices are handled without error.
    """
    m = as_matrix(m)
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((m.shape[1], m.shape[0]))
    tau = max(m.shape) * s[0] * np.finfo(float).eps
    inv = np.where(s > tau, 1.0, 0.0)
    # np.where evaluates both branches; divide only where safe
    safe = np.where(s > tau, s, 1.0)
    inv = inv / safe
    return (vt.T * inv) @ u.T


def check_symmetric(s, rtol: float = SYM_RTOL) -> np.ndarray:
    """Validate symmetry within ``rtol`` (relative to max |entry|) and return
    the symmetrized matrix (s + s.T) / 2 to absorb roundoff."""
    s = as_matrix(s)
    if s.shape[0] != s.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {s.shape}")
    scale = np.abs(s).max()
    asym = np.abs(s - s.T).max()
    if scale > 0 and asym > rtol * scale:
        raise ValueError(f"matrix is not symmetric: max asymmetry {asym:.3e} "
                         f"(relative {asym / scale:.3e})")
    return 0.5 * (s + s.T)


def extremal_eigs(s) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a symmetric matrix."""
    sym = check_symmetric(s)
    w = np.linalg.eigvalsh(sym)
    return float(w[0]), float(w[-1])


def finite_or_none(v):
    """``v``, or None when it is a non-finite float (JSON has no NaN/Inf)."""
    return None if isinstance(v, float) and not math.isfinite(v) else v


def frobenius_norm_sq(m) -> float:
    """Sum of squared entries, trace(M^T M)."""
    m = np.asarray(m, dtype=float)
    return float((m * m).sum())


def squared_norms(a: np.ndarray, axis: int) -> np.ndarray:
    """``(a * a).sum(axis=axis)`` bit for bit on a C-ordered ``a`` without its
    m x n temporary; rows go in blocks, as ``einsum`` sums them in another order."""
    if axis == 0:
        return np.einsum("ij,ij->j", a, a)
    rows = max(1, (1 << 17) // a.shape[1])
    return np.concatenate([np.square(a[s:s + rows]).sum(axis=1)
                           for s in range(0, a.shape[0], rows)])


class SpdMatrix:
    """A symmetric positive definite matrix, validated at construction.

    The input is symmetrized as (W + W^T)/2 after the symmetry check; the
    smallest eigenvalue must be strictly positive.
    """

    def __init__(self, mat):
        sym = check_symmetric(mat)
        lo = float(np.linalg.eigvalsh(sym)[0])
        if lo <= 0.0:
            raise ValueError(f"matrix is not positive definite "
                             f"(smallest eigenvalue {lo:.3e})")
        self.mat = sym
        self.n = sym.shape[0]
        self._eig_min = lo

    @property
    def eig_min(self) -> float:
        return self._eig_min

    def __repr__(self) -> str:
        return f"SpdMatrix(n={self.n})"


def spd_sqrt(w: SpdMatrix) -> np.ndarray:
    """Symmetric square root S with S @ S = W, via the eigendecomposition."""
    vals, vecs = np.linalg.eigh(w.mat)
    root = (vecs * np.sqrt(vals)) @ vecs.T
    return 0.5 * (root + root.T)
