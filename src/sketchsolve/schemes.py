"""The sixteen-scheme catalog.

Scheme identifiers "K1".."K6" (row-action), "C1".."C6" (column-action) and
"S1".."S4" (symmetric, SPD systems only) name the members of one family of
iterations

    x_next = x + Z (Y^T A Z)^+ Y^T (b - A x),

where the pair (Y, Z) is rebuilt from a fresh random draw every step:

    K1  one row index i          Y = e_i,   Z = A^T e_i      (randomized Kaczmarz)
    K2  Gaussian vector w (m)    Y = w,     Z = A^T w        (Gaussian Kaczmarz)
    K3  row subset R             Y = I_R,   Z = A^T I_R      (block Kaczmarz)
    K4  Gaussian matrix W (mxl)  Y = W,     Z = A^T W
    K5  row subset R, SPD G      Y = I_R,   Z = G A^T I_R
    K6  Gaussian W (mxl), SPD G  Y = W,     Z = G A^T W
    C1  one column index j       Y = A e_j, Z = e_j          (randomized coordinate descent)
    C2  Gaussian vector w (n)    Y = A w,   Z = w
    C3  column subset C          Y = A I_C, Z = I_C          (block coordinate descent)
    C4  Gaussian matrix W (nxl)  Y = A W,   Z = W
    C5  column subset C, SPD G   Y = G A I_C, Z = I_C
    C6  Gaussian W (nxl), SPD G  Y = G A W, Z = W
    S1  one index i              Y = Z = e_i                 (diagonal coordinate update)
    S2  Gaussian vector w (n)    Y = Z = w
    S3  column subset C          Y = Z = I_C                 (randomized Newton / block CD)
    S4  Gaussian matrix W (nxl)  Y = Z = W

:func:`step` applies the cheap specialized update, one kernel per side of
A for all sixteen ids. The row kernel (K) works on the sketched rows Y^T A,
the column kernel (C, S) on the sketched columns A Z; the weighted ids only
multiply in the SPD factor G, and S is the column update with Y = Z. The
scalar ids (K1, K2, C1, C2, S1, S2) are the one-column case, whose 1 x 1
sketched system is solved in closed form; the block ids solve theirs with
the pseudoinverse. The column and symmetric families carry the residual
``b - A x`` along in place (:func:`maintains_residual`); :func:`step_generic`
assembles (Y, Z) explicitly, the oracle the specialized updates are tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sketch
from .linalg import SpdMatrix, pseudoinverse, squared_norms
from .sketch import (COL_SUBSET, COORD_COL, COORD_ROW, GAUSS_MATRIX,
                     GAUSS_VECTOR, ROW_SUBSET, SketchDraw, SketchSpec)

ROW_SCHEMES = ("K1", "K2", "K3", "K4", "K5", "K6")
COL_SCHEMES = ("C1", "C2", "C3", "C4", "C5", "C6")
SYM_SCHEMES = ("S1", "S2", "S3", "S4")
ALL_SCHEMES = ROW_SCHEMES + COL_SCHEMES + SYM_SCHEMES

WEIGHTED_SCHEMES = ("K5", "K6", "C5", "C6")
SCALAR_SCHEMES = ("K1", "K2", "C1", "C2", "S1", "S2")

_KIND_FOR = {
    "K1": COORD_ROW, "K2": GAUSS_VECTOR, "K3": ROW_SUBSET,
    "K4": GAUSS_MATRIX, "K5": ROW_SUBSET, "K6": GAUSS_MATRIX,
    "C1": COORD_COL, "C2": GAUSS_VECTOR, "C3": COL_SUBSET,
    "C4": GAUSS_MATRIX, "C5": COL_SUBSET, "C6": GAUSS_MATRIX,
    "S1": COORD_ROW, "S2": GAUSS_VECTOR, "S3": COL_SUBSET,
    "S4": GAUSS_MATRIX,
}


class SkipStep(Exception):
    """Raised when a scalar id's draw hits a degenerate denominator (zero
    row/column); the solver keeps the iterate unchanged and counts the step."""


def family(scheme_id: str) -> str:
    """"K", "C" or "S"."""
    if scheme_id not in ALL_SCHEMES:
        raise ValueError(f"unknown scheme {scheme_id!r}")
    return scheme_id[0]


def sketch_kind(scheme_id: str) -> str:
    """The draw kind a scheme consumes."""
    if scheme_id not in ALL_SCHEMES:
        raise ValueError(f"unknown scheme {scheme_id!r}")
    return _KIND_FOR[scheme_id]


def _gauss_axis(scheme_id: str) -> str:
    # row-action schemes sketch the m equations; column/symmetric schemes
    # sketch the n unknowns
    return "rows" if family(scheme_id) == "K" else "cols"


@dataclass(frozen=True, eq=False)
class Scheme:
    """One catalog entry: an identifier, its draw description, and the SPD
    weight for the weighted variants (required for K5/K6/C5/C6, forbidden
    otherwise; n x n for row schemes, m x m for column schemes)."""

    id: str
    spec: SketchSpec
    g: SpdMatrix | None = None

    def __post_init__(self):
        if self.id not in ALL_SCHEMES:
            raise ValueError(f"unknown scheme {self.id!r}")
        if self.spec.kind != _KIND_FOR[self.id]:
            raise ValueError(f"scheme {self.id} draws {_KIND_FOR[self.id]}, "
                             f"got spec for {self.spec.kind}")
        if (self.g is not None) != (self.id in WEIGHTED_SCHEMES):
            want = "requires" if self.id in WEIGHTED_SCHEMES else "forbids"
            raise ValueError(f"scheme {self.id} {want} a weight matrix G")


def make_scheme(scheme_id: str, block_size: int = 1,
                distribution: str = sketch.UNIFORM,
                g: SpdMatrix | None = None) -> Scheme:
    """Build a scheme with the matching sketch description."""
    kind = _KIND_FOR.get(scheme_id)
    if kind is None:
        raise ValueError(f"unknown scheme {scheme_id!r}")
    if scheme_id in SCALAR_SCHEMES:
        block_size = 1
    axis = _gauss_axis(scheme_id) if kind in (GAUSS_VECTOR, GAUSS_MATRIX) else None
    spec = SketchSpec(kind=kind, block_size=block_size,
                      distribution=distribution, axis=axis)
    return Scheme(id=scheme_id, spec=spec, g=g)


def sampling_weights(scheme: Scheme, a: np.ndarray) -> sketch.IndexCdf | None:
    """The :func:`sketch.index_cdf` handed to :func:`sketch.draw_sketch` for
    proportional sampling, built once per solve from the squared row/column
    norms, or the diagonal for trace-proportional draws; None for uniform."""
    dist = scheme.spec.distribution
    if dist == sketch.UNIFORM:
        return None
    if dist == sketch.TRACE_PROPORTIONAL:
        return sketch.index_cdf(np.diag(a))
    return sketch.index_cdf(squared_norms(a, 1 if scheme.spec.kind == COORD_ROW else 0))


def _selection(dim: int, idx: np.ndarray) -> np.ndarray:
    """Columns of the identity indexed by idx, as a dense dim x l block."""
    s = np.zeros((dim, len(idx)))
    s[idx, np.arange(len(idx))] = 1.0
    return s


def _check_draw(scheme: Scheme, draw: SketchDraw):
    want = scheme.spec.kind
    got = draw.kind
    # a width-1 Gaussian block is interchangeable with a Gaussian vector
    gauss = (GAUSS_VECTOR, GAUSS_MATRIX)
    if want == got or (want in gauss and got in gauss and
                       (want == GAUSS_MATRIX or draw.width == 1)):
        return
    raise ValueError(f"scheme {scheme.id} expects a {want} draw, got {got}")


def realize_sketch(scheme: Scheme, a: np.ndarray,
                   draw: SketchDraw) -> tuple[np.ndarray, np.ndarray]:
    """Materialize the (Y, Z) pair for one draw.

    Y is the m x l equation-sketching matrix, Z the n x l search-space
    basis; both follow the catalog table above entrywise.
    """
    _check_draw(scheme, draw)
    m, n = a.shape
    sid = scheme.id
    fam = family(sid)
    g = scheme.g.mat if scheme.g is not None else None

    if fam == "K":
        if draw.indices is not None:
            y = _selection(m, draw.indices)
            at_y = a[draw.indices, :].T
        else:
            y = draw.dense
            at_y = a.T @ y
        z = at_y if g is None else g @ at_y
        return y, z

    if fam == "C":
        if draw.indices is not None:
            z = _selection(n, draw.indices)
            az = a[:, draw.indices]
        else:
            z = draw.dense
            az = a @ z
        y = az if g is None else g @ az
        return y, z

    # symmetric family: Y = Z
    if draw.indices is not None:
        z = _selection(n, draw.indices)
    else:
        z = draw.dense
    return z, z


def step_generic(scheme: Scheme, a: np.ndarray, b: np.ndarray,
                 x: np.ndarray, draw: SketchDraw) -> np.ndarray:
    """One iteration through the explicit x + Z (Y^T A Z)^+ Y^T r formula.

    Reference path: always defined (pseudoinverse handles singular sketched
    systems), but forms n x l and m x l factors even for scalar schemes.
    """
    y, z = realize_sketch(scheme, a, draw)
    e = y.T @ a @ z
    r = b - a @ x
    return x + z @ (pseudoinverse(e) @ (y.T @ r))


def maintains_residual(scheme: Scheme) -> bool:
    """Whether :func:`step` keeps ``r = b - A x`` up to date for ``scheme``.

    Column and symmetric updates move the residual by ``A Z d``, an O(m l)
    product; a row update would need a full O(mn) matvec, as much as
    recomputing the residual, so K schemes keep none (the solver reads
    their residual norms from an anchor and ``A^T A`` instead).
    """
    # scheme ids are validated on construction; this runs on every step
    return scheme.id[0] != "K"


def step(scheme: Scheme, a: np.ndarray, b: np.ndarray,
         x: np.ndarray, draw: SketchDraw,
         r: np.ndarray | None = None) -> np.ndarray:
    """One iteration via the specialized update for ``scheme``.

    K ids go through the row kernel and C and S ids through the column
    kernel, which factor through the small l x l sketched system only, with
    G as a factor of Z (K5, K6) or of Y (C5, C6). The scalar ids (K1, K2,
    C1, C2, S1, S2) are the kernels' one-column case: their draw is unpacked
    to one index or one vector, the sketched system is 1 x 1 and solved in
    closed form, and :class:`SkipStep` is raised when its entry is not
    positive (a zero row or column, a nonpositive diagonal entry). The block
    ids solve through the pseudoinverse, also at l = 1, and never skip.

    For schemes that :func:`maintains_residual`, ``r`` may carry the current
    residual ``b - A x``; the update then reads ``Y^T r`` from it and
    overwrites it in place with ``b - A x_next`` (left untouched when
    :class:`SkipStep` is raised). Without ``r`` the residual is formed here.
    """
    _check_draw(scheme, draw)
    if maintains_residual(scheme):
        if r is None:
            r = b - a @ x
    elif r is not None:
        raise ValueError(f"scheme {scheme.id} does not maintain a residual")
    idx, w = draw.indices, draw.dense
    scalar = scheme.id in SCALAR_SCHEMES
    if scalar:
        # an int index or a 1-D w: every gather below is then a 1-D view
        idx, w = (idx[0], None) if w is None else (None, w[:, 0])
    g = scheme.g.mat if scheme.g is not None else None
    if scheme.id[0] == "K":
        return _row_kernel(a, b, x, idx, w, g, scalar)
    return _col_kernel(scheme.id[0], a, x, r, idx, w, g, scalar)


def _solve(e, ytr, scalar):
    """The step ``d = E^+ Y^T r`` in Z's coordinates: ``ytr / e`` for the
    scalar ids, which skip a degenerate draw, ``pseudoinverse(e) @ ytr``
    for the block ids. The kernels multiply a scalar ``d`` in as ``d * z``
    (``np.dot(z, d)`` would serve both ranks, but is slower on a scalar)."""
    if not scalar:
        return pseudoinverse(e) @ ytr
    if e <= 0.0:
        raise SkipStep(f"degenerate draw: sketched denominator {float(e)}")
    return ytr / e


def _row_kernel(a, b, x, rows, w, g, scalar):
    """K1-K6: the sketched rows ``ay = Y^T A`` and ``Z = ay^T`` (``G ay^T``
    when weighted); returns ``x + Z (ay Z)^+ Y^T r``.

    ``Y^T r`` is ``Y^T b - ay x`` for both sketches, so no step forms
    ``b - A x``: for a Gaussian ``W`` that is ``W^T b - U^T x`` with
    ``U = A^T W``, an O(mn) matvec fewer per step. The cancellation costs no
    accuracy. With ``g_k = k eps``, ``W^T (b - A x)`` rounds by up to
    ``g_(m+n) |W|^T (|b| + |A| |x|)``. Here ``W^T b`` rounds by
    ``g_m |W|^T |b|``, ``U`` by ``g_m |A|^T |W|``, and ``U^T x`` by
    ``g_n |U|^T |x|`` on top, where ``|U|^T |x| <= |W|^T |A| |x|``: the
    same bound."""
    if rows is not None:
        ay = a[rows, :]
        ytr = b[rows] - ay @ x
    else:
        ay = (a.T @ w).T
        ytr = w.T @ b - ay @ x
    z = ay.T if g is None else g @ ay.T
    d = _solve(ay @ z, ytr, scalar)
    return x + (d * z if scalar else z @ d)


def _col_kernel(fam, a, x, r, cols, w, g, scalar):
    """C1-C6, S1-S4: the sketched columns ``az = A Z`` give ``Y = az``
    (``G az`` when weighted) for C and ``Y = Z`` for S; solves for the step
    ``d`` in Z's coordinates and moves ``r`` by ``az d`` in place."""
    if cols is None:
        az = a @ w
    else:
        # one column stays a strided view: a contiguous copy can round its
        # dot products differently
        az = a[:, cols] if scalar else np.take(a, cols, axis=1)
    if fam == "C":
        y = az if g is None else g @ az
        e, ytr = az.T @ y, y.T @ r
    elif cols is not None:
        e, ytr = az[cols], r[cols]
    else:
        e, ytr = w.T @ az, w.T @ r
    d = _solve(e, ytr, scalar)
    r -= d * az if scalar else az @ d
    if cols is None:
        return x + (d * w if scalar else w @ d)
    out = x.copy()
    out[cols] += d
    return out


def error_propagator(scheme: Scheme, a: np.ndarray,
                     draw: SketchDraw) -> np.ndarray:
    """The n x n matrix mapping the error before this draw's update to the
    error after it: I - Z (Y^T A Z)^+ Y^T A. Idempotent for every draw."""
    y, z = realize_sketch(scheme, a, draw)
    e = y.T @ a @ z
    n = a.shape[1]
    return np.eye(n) - z @ (pseudoinverse(e) @ (y.T @ a))


def reduction_discrepancy(a: SpdMatrix, draw: SketchDraw, b: np.ndarray,
                          x: np.ndarray, g: SpdMatrix | None = None) -> float:
    """Max entrywise disagreement between the weighted schemes and their
    symmetric counterparts on one shared draw.

    With ``g`` equal to the exact inverse of ``a`` (the default), the updates
    of K5, C5 and S3 coincide on a shared index set, as do K6, C6 and S4 on a
    shared Gaussian block; any other ``g`` generically breaks the identity,
    which makes it a usable negative control.
    """
    amat = a.mat
    if g is None:
        g = SpdMatrix(np.linalg.inv(amat))

    if draw.indices is not None:
        idx = draw.indices
        l = len(idx)
        row_draw = SketchDraw(kind=ROW_SUBSET, indices=idx)
        col_draw = SketchDraw(kind=COL_SUBSET, indices=idx)
        updates = [
            step(make_scheme("K5", block_size=l, g=g), amat, b, x, row_draw),
            step(make_scheme("C5", block_size=l, g=g), amat, b, x, col_draw),
            step(make_scheme("S3", block_size=l), amat, b, x, col_draw),
        ]
    else:
        l = draw.width
        gauss = SketchDraw(kind=GAUSS_MATRIX, dense=draw.dense)
        updates = [
            step(make_scheme("K6", block_size=l, g=g), amat, b, x, gauss),
            step(make_scheme("C6", block_size=l, g=g), amat, b, x, gauss),
            step(make_scheme("S4", block_size=l), amat, b, x, gauss),
        ]

    worst = 0.0
    for i in range(len(updates)):
        for j in range(i + 1, len(updates)):
            worst = max(worst, float(np.abs(updates[i] - updates[j]).max()))
    return worst
