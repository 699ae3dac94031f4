"""Dense linear-algebra primitives shared by the solver and theory code,
and the input checks and JSON form of reports shared with the CLI.

Everything operates on float64 numpy arrays. Matrices are 2-D, vectors 1-D.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import numbers

import numpy as np

SYM_RTOL = 1e-12
_INV_BOUND_SQ = 1.0 / np.finfo(float).eps  # (eps^-1/2)^2, see pseudoinverse
NORMAL_BLOCK = 1 << 17  # entries per row block of normal_residual (BENCH_14.json)


def as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    return a


def aligned_empty(shape: tuple) -> np.ndarray:
    """An uninitialized float64 array whose data starts on a 64-byte
    boundary: BLAS reads A measurably faster there (a 400x400 ``A @ w`` took
    ~40% longer at offsets 16 and 48, one thread)."""
    size = math.prod(shape) * 8
    buf = np.empty(size + 64, dtype=np.uint8)
    start = -buf.ctypes.data % 64
    return buf[start:start + size].view(np.float64).reshape(shape)


def as_vector(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    return v


def pseudoinverse(m) -> np.ndarray:
    """Moore-Penrose pseudoinverse.

    A square matrix with ``||M||_F ||M^-1||_F <= eps^-1/2``, a bound on
    cond_2 far below the SVD cutoff, is returned as its LU inverse. All else
    goes through the SVD: singular values sigma <= max(rows, cols) *
    sigma_max * eps are treated as zero, so rank-deficient and zero matrices
    are handled without error. A non-finite matrix raises ``LinAlgError``,
    as LAPACK's SVD can loop without end on one.
    """
    m = as_matrix(m)
    if m.shape[0] == m.shape[1]:
        with contextlib.suppress(np.linalg.LinAlgError):
            inv = np.linalg.inv(m)
            if _keeps_lu(float(np.vdot(m, m)), float(np.vdot(inv, inv))):
                return inv
    if not np.isfinite(m).all():
        raise np.linalg.LinAlgError("pseudoinverse of a non-finite matrix")
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    tau = max(m.shape) * s[0] * np.finfo(float).eps
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > tau)
    return (vt.T * inv) @ u.T


def _keeps_lu(norm_sq, inv_norm_sq):
    # pseudoinverse's rule, ||M||_F^2 ||M^-1||_F^2 <= 1/eps, on floats or
    # arrays of squared norms: overflow gives inf, inf * 0 nan; both fail
    return norm_sq * inv_norm_sq <= _INV_BOUND_SQ


def lu_inverses(stack: np.ndarray) -> list:
    """For each matrix of a (B, l, l) stack, the LU inverse :func:`pseudoinverse`
    would return for it, bit for bit, or None where it would not; all None
    where numpy cannot invert the whole stack (a matrix is singular)."""
    try:
        inv = np.linalg.inv(stack)
    except np.linalg.LinAlgError:
        return [None] * len(stack)
    # each square summed as np.vdot sums it: one dot product per matrix
    m, mi = (s.reshape(len(s), 1, -1) for s in (stack, inv))
    with np.errstate(over="ignore", invalid="ignore"):
        keep = _keeps_lu(np.matmul(m, m.transpose(0, 2, 1))[:, 0, 0],
                         np.matmul(mi, mi.transpose(0, 2, 1))[:, 0, 0])
    return [v if k else None for v, k in zip(inv, keep)]


def check_symmetric(s) -> np.ndarray:
    """Validate finite entries and symmetry within ``SYM_RTOL`` (relative to
    max |entry|); return the symmetrized s / 2 + s.T / 2, which absorbs
    roundoff and, halved first, cannot overflow."""
    s = as_matrix(s)
    if s.shape[0] != s.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {s.shape}")
    scale = np.abs(s).max()
    # max propagates NaN, so this one pass also catches it
    if not np.isfinite(scale):
        raise ValueError("matrix must be finite")
    asym = np.abs(s - s.T).max()
    if scale > 0 and asym > SYM_RTOL * scale:
        raise ValueError(f"matrix is not symmetric: max asymmetry {asym:.3e} "
                         f"(relative {asym / scale:.3e})")
    half = 0.5 * s
    return half + half.T


def extremal_eigs(s) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a symmetric matrix."""
    sym = check_symmetric(s)
    w = np.linalg.eigvalsh(sym)
    return float(w[0]), float(w[-1])


def as_int(value, name: str, minimum: int) -> int:
    """``value`` checked to be an integer of at least ``minimum``: not a bool,
    a float or a string, whatever its value."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def finite_or_none(v):
    """``v``, or None when it is a non-finite float (JSON has no NaN/Inf)."""
    return None if isinstance(v, float) and not math.isfinite(v) else v


def json_dict(record) -> dict:
    """A dataclass's fields as JSON values: arrays and tuples become lists,
    non-finite floats None."""
    out = {}
    for f in dataclasses.fields(record):
        v = getattr(record, f.name)
        if isinstance(v, np.ndarray):
            v = v.tolist()
        elif isinstance(v, tuple):
            v = list(v)
        out[f.name] = finite_or_none(v)
    return out


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


def normal_residual(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> tuple:
    """``r = b - A x`` and ``s = A^T r`` in one pass over row blocks of ``a``
    (``NORMAL_BLOCK`` entries in a multiple of 8 rows, the last with the rest,
    so one block below two). With one BLAS thread ``r`` is ``b - a @ x`` bit
    for bit, and ``s`` is ``a.T @ r``, summed in another order past one block."""
    m, n = a.shape
    rows = max(8, NORMAL_BLOCK // n // 8 * 8)
    edges = [*range(0, max(m - rows, 0) + 1, rows), m]
    r, s = np.empty(m), np.zeros(n)
    for lo, hi in zip(edges, edges[1:]):
        blk, r_blk = a[lo:hi], r[lo:hi]
        np.subtract(b[lo:hi], blk @ x, out=r_blk)
        s += r_blk @ blk
    return r, s


class SpdMatrix:
    """A finite symmetric positive definite matrix, validated at construction.

    The input is symmetrized as W/2 + W^T/2 after the symmetry check; the
    smallest eigenvalue must be strictly positive. A diagonal matrix, such
    as an identity weight, gives its eigenvalues with no O(n^3) solver and
    keeps its diagonal as :attr:`diag` (else None): ``W @ v`` scales rows.
    """

    def __init__(self, mat):
        sym = check_symmetric(mat)
        diag = np.diagonal(sym)
        diagonal = np.count_nonzero(sym) == np.count_nonzero(diag)
        lo = float(diag.min() if diagonal else np.linalg.eigvalsh(sym)[0])
        if lo <= 0.0:
            raise ValueError(f"matrix is not positive definite "
                             f"(smallest eigenvalue {lo:.3e})")
        self.mat, self.n, self.eig_min = sym, sym.shape[0], lo
        self.diag = diag.copy() if diagonal else None

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        """``W v``; for a diagonal W, the dense product's numbers (its other
        terms are zeros) without its O(n) work per entry of ``v``."""
        if self.diag is None:
            return self.mat @ v
        d = self.diag if v.ndim == 1 else self.diag[:, None]
        return np.multiply(d, v, order="C")

    def __repr__(self) -> str:
        return f"SpdMatrix(n={self.n})"


def spd_sqrt(w: SpdMatrix) -> np.ndarray:
    """Symmetric square root S with S @ S = W, via the eigendecomposition."""
    vals, vecs = np.linalg.eigh(w.mat)
    root = (vecs * np.sqrt(vals)) @ vecs.T
    return 0.5 * (root + root.T)
