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

and G = I where a weighted id gets none: K5, K6, C5, C6 then run as K3, K4, C3, C4.

A :class:`Scheme` is one id's entry and the only description of its draw,
which :func:`sketch.draw_sketch` reads: its kind, axis, width, distribution.
A draw is the bare array drawn; every function here that takes one first
checks it against its scheme and its system (:func:`_check_draw`).

:func:`step` applies the cheap specialized update, one kernel per side of
A for all sixteen ids. The row kernel (K) works on the sketched rows Y^T A,
the column kernel (C, S) on the sketched columns A Z; the weighted ids only
multiply in the SPD factor G, and S is the column update with Y = Z. The
scalar ids (K1, K2, C1, C2, S1, S2) are the one-column case, whose 1 x 1
sketched system is solved in closed form; the block ids solve theirs with
the pseudoinverse, or S4 with the LU inverse that its solve forms for a
whole block of draws. The column and symmetric families carry the residual
``b - A x`` along in place (:func:`maintains_residual`); :func:`step_generic`
assembles (Y, Z) explicitly, the oracle the specialized updates are tested
against.

Unweighted C ids also have a Gram-space form. With ``Y = A Z`` their update is
``d = (Z^T G Z)^+ Z^T s``, ``s -= G Z d``, ``x += Z d`` for ``G = A^T A``
and ``s = A^T (b - A x)``: the symmetric update (S1-S4) on the normal
equations ``G x = A^T b``, which is randomized (block) coordinate descent.
Given ``G``, :func:`step` runs them that way, in O(n l) or O(n^2 l) per step
instead of O(m l) or O(m n l), and carries ``s`` in place of the residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import sketch
from .linalg import SpdMatrix, as_int, normal_residual, pseudoinverse, squared_norms
from .sketch import GAUSS, INDEX, SUBSET

ROW_SCHEMES = ("K1", "K2", "K3", "K4", "K5", "K6")
COL_SCHEMES = ("C1", "C2", "C3", "C4", "C5", "C6")
SYM_SCHEMES = ("S1", "S2", "S3", "S4")
ALL_SCHEMES = ROW_SCHEMES + COL_SCHEMES + SYM_SCHEMES

WEIGHTED_SCHEMES = ("K5", "K6", "C5", "C6")
SCALAR_SCHEMES = ("K1", "K2", "C1", "C2", "S1", "S2")

_KIND_FOR = {
    "K1": INDEX, "K2": GAUSS, "K3": SUBSET, "K4": GAUSS, "K5": SUBSET,
    "K6": GAUSS, "C1": INDEX, "C2": GAUSS, "C3": SUBSET, "C4": GAUSS,
    "C5": SUBSET, "C6": GAUSS, "S1": INDEX, "S2": GAUSS, "S3": SUBSET,
    "S4": GAUSS,
}


class SkipStep(Exception):
    """Raised when a scalar id's draw hits a degenerate denominator (zero
    row/column); the solver counts the null step, as for ``LinAlgError``."""


def family(scheme_id: str) -> str:
    """"K", "C" or "S"."""
    if scheme_id not in ALL_SCHEMES:
        raise ValueError(f"unknown scheme {scheme_id!r}")
    return scheme_id[0]


def sketch_kind(scheme_id: str) -> str:
    """The draw kind a scheme consumes: INDEX, SUBSET or GAUSS."""
    if scheme_id not in ALL_SCHEMES:
        raise ValueError(f"unknown scheme {scheme_id!r}")
    return _KIND_FOR[scheme_id]


def weight_dim(scheme_id: str, shape: tuple[int, int]) -> int:
    """The side of a weighted scheme's SPD weight G on an m x n system: n for
    K5/K6, whose G multiplies ``A^T Y``; m for C5/C6, whose G multiplies
    ``A Z``."""
    return shape[1] if family(scheme_id) == "K" else shape[0]


@dataclass(frozen=True, eq=False)
class Scheme:
    """One catalog entry: an identifier, the width and sampling distribution
    of its draws, and the SPD weight G of K5/K6/C5/C6 (None is G = I, so they
    run as K3/K4/C3/C4; any other id forbids G; :func:`weight_dim` sizes it).
    What it needs of a system (square SPD for S1-S4 and trace-proportional
    sampling, a block that fits, G's size): :func:`solver.check_compatible`.

    The id fixes the rest, derived once here: :attr:`kind`, the draw kind
    (``sketch.INDEX``, ``SUBSET`` or ``GAUSS``); :attr:`axis`, "rows" (length
    m) for K1-K6 and S1, whose index is a row's, "cols" (length n) otherwise;
    the width ``block_size``, 1 for the scalar ids; and :attr:`gram_form`,
    whether the scheme has a Gram-space update: a C id with ``g`` None, as an
    m x m weight has no n x n form."""

    id: str
    block_size: int = 1
    distribution: str = sketch.UNIFORM
    g: SpdMatrix | None = None
    kind: str = field(init=False, repr=False)
    axis: str = field(init=False, repr=False)
    gram_form: bool = field(init=False, repr=False)

    def __post_init__(self):
        kind = sketch_kind(self.id)
        object.__setattr__(self, "kind", kind)
        axis = "rows" if self.id[0] == "K" or self.id == "S1" else "cols"
        object.__setattr__(self, "axis", axis)
        if self.id in SCALAR_SCHEMES:
            object.__setattr__(self, "block_size", 1)
        if self.distribution not in sketch.DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {self.distribution!r}")
        as_int(self.block_size, "block_size", 1)
        if self.distribution == sketch.NORM_PROPORTIONAL and kind != INDEX:
            raise ValueError("norm-proportional sampling applies only to single "
                             "row/column draws")
        if (self.distribution == sketch.TRACE_PROPORTIONAL
                and (kind != INDEX or axis != "rows")):
            raise ValueError("trace-proportional sampling applies only to single "
                             "row draws on square SPD systems")
        if self.g is not None and self.id not in WEIGHTED_SCHEMES:
            raise ValueError(f"scheme {self.id} forbids a weight matrix G")
        object.__setattr__(self, "gram_form",
                           self.id[0] == "C" and self.g is None)


# the name the library's callers build schemes by
make_scheme = Scheme


def sampling_weights(scheme: Scheme, a: np.ndarray) -> sketch.IndexCdf | None:
    """The :func:`sketch.index_cdf` handed to :func:`sketch.draw_sketch` for
    proportional sampling, built from the squared row/column norms, or the
    diagonal for trace-proportional draws; None for uniform. Solves take it
    from :meth:`solver.Problem.sampler`, which builds it once per problem."""
    dist = scheme.distribution
    if dist == sketch.UNIFORM:
        return None
    if dist == sketch.TRACE_PROPORTIONAL:
        return sketch.index_cdf(np.diag(a))
    return sketch.index_cdf(squared_norms(a, 1 if scheme.axis == "rows" else 0))


def _selection(dim: int, idx: np.ndarray) -> np.ndarray:
    """Columns of the identity indexed by idx, as a dense dim x l block."""
    s = np.zeros((dim, len(idx)))
    s[idx, np.arange(len(idx))] = 1.0
    return s


def _check_draw(scheme: Scheme, draw, shape: tuple[int, int]):
    """The one check of a draw against its scheme and its m x n system. On
    the scheme's axis, of length ``dim`` (:func:`sketch.draw_dim`), a
    Gaussian scheme takes a float ``(dim, block_size)`` block and an index
    scheme ``block_size`` distinct integers in ``[0, dim)``."""
    dim, width = sketch.draw_dim(scheme, shape), scheme.block_size
    array = isinstance(draw, np.ndarray)
    got = None
    if scheme.kind == GAUSS:
        if array and draw.dtype.kind == "f" and draw.shape == (dim, width):
            return
        want = f"a float Gaussian block of shape ({dim}, {width})"
    else:
        if array and draw.dtype.kind in "iu" and draw.shape == (width,):
            if width == 1 and 0 <= draw.item() < dim:
                return
            # as a list: min, max and set beat numpy's calls at these sizes
            got = draw.tolist()
            if 0 <= min(got) and max(got) < dim and len(set(got)) == width:
                return
        want = f"{width} distinct integer indices in [0, {dim})"
    if got is None:
        got = (f"{draw.dtype} array of shape {draw.shape}" if array
               else type(draw).__name__)
    raise ValueError(f"scheme {scheme.id} expects {want}; got {got}")


def realize_sketch(scheme: Scheme, a: np.ndarray,
                   draw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Materialize the (Y, Z) pair for one draw.

    Y is the m x l equation-sketching matrix, Z the n x l search-space
    basis; both follow the catalog table above entrywise.
    """
    _check_draw(scheme, draw, a.shape)
    m, n = a.shape
    fam = scheme.id[0]
    gauss, g = scheme.kind == GAUSS, scheme.g

    if fam == "K":
        y = draw if gauss else _selection(m, draw)
        at_y = a.T @ y if gauss else a[draw, :].T
        z = at_y if g is None else g @ at_y
        return y, z

    z = draw if gauss else _selection(n, draw)
    if fam == "C":
        az = a @ z if gauss else a[:, draw]
        y = az if g is None else g @ az
        return y, z

    # symmetric family: Y = Z
    return z, z


def step_generic(scheme: Scheme, a: np.ndarray, b: np.ndarray,
                 x: np.ndarray, draw: np.ndarray) -> np.ndarray:
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
    their residual norms from an anchor and ``A^T A`` instead). In Gram
    space (``step(..., gram=G)``, unweighted C ids) the vector carried is
    ``s = A^T (b - A x)``, moved by ``G Z d``.
    """
    # scheme ids are validated on construction; this runs on every step
    return scheme.id[0] != "K"


def step(scheme: Scheme, a: np.ndarray, b: np.ndarray,
         x: np.ndarray, draw: np.ndarray,
         r: np.ndarray | None = None,
         gram: np.ndarray | None = None,
         az: np.ndarray | None = None,
         inverse: np.ndarray | None = None) -> np.ndarray:
    """One iteration via the specialized update for ``scheme``.

    K ids go through the row kernel and C and S ids through the column
    kernel, which factor through the small l x l sketched system only, with
    G as a factor of Z (K5, K6) or of Y (C5, C6). The scalar ids (K1, K2,
    C1, C2, S1, S2) are the kernels' one-column case: their draw is unpacked
    to one index or one vector, the sketched system is 1 x 1 and solved in
    closed form, and :class:`SkipStep` is raised when its entry is not
    positive (a zero row or column, a nonpositive diagonal entry). The block
    ids solve through the pseudoinverse, also at l = 1, and raise its
    ``LinAlgError`` on a sketched system with a non-finite entry.

    For schemes that :func:`maintains_residual`, ``r`` may carry the current
    residual ``b - A x``; the update then reads ``Y^T r`` from it and
    overwrites it in place with ``b - A x_next`` (left untouched when
    :class:`SkipStep` is raised). Without ``r`` the residual is formed here.

    Given ``gram``, the exactly symmetric ``G = A^T A``, a column id with
    no weight runs in Gram space: the column kernel's symmetric
    path on ``G``, with ``r`` holding ``s = A^T (b - A x)`` and left
    holding ``A^T (b - A x_next)``. Its draws and steps are those of the
    A-space update, up to rounding.

    S2 and S4 may be given their sketched columns ``az = A draw``, which
    :func:`solver.solve` forms for a block of draws in one product; they
    are used as given, as is S4's ``inverse``, the LU inverse of its
    sketched system ``W^T A W`` (:func:`linalg.lu_inverses`).
    """
    _check_draw(scheme, draw, a.shape)
    if gram is not None and not scheme.gram_form:
        raise ValueError(f"scheme {scheme.id} has no Gram-space update")
    gauss, scalar = scheme.kind == GAUSS, scheme.id in SCALAR_SCHEMES
    if az is not None and not (gauss and scheme.id[0] == "S"):
        raise ValueError(f"scheme {scheme.id} takes no sketched columns")
    if inverse is not None and not (gauss and scheme.id[0] == "S" and not scalar):
        raise ValueError(f"scheme {scheme.id} takes no sketched inverse")
    if maintains_residual(scheme):
        if r is None:
            r = b - a @ x if gram is None else normal_residual(a, b, x)[1]
    elif r is not None:
        raise ValueError(f"scheme {scheme.id} does not maintain a residual")
    if scalar:
        # an int index or a 1-D w: every gather below is then a 1-D view
        draw = draw[:, 0] if gauss else draw[0]
        az = None if az is None else az[:, 0]
    idx, w = (None, draw) if gauss else (draw, None)
    if scheme.id[0] == "K":
        return _row_kernel(a, b, x, idx, w, scheme.g, scalar)
    if gram is not None:
        # G^T: its columns are G's contiguous rows
        return _col_kernel("S", gram.T, x, r, idx, w, None, scalar)
    return _col_kernel(scheme.id[0], a, x, r, idx, w, scheme.g, scalar, az,
                       inverse)


def _solve(e, ytr, scalar):
    """The step ``d = E^+ Y^T r`` in Z's coordinates: ``ytr / e`` for the
    scalar ids, which skip a degenerate draw (``e <= 0``, or ``inf``, a null
    step; a NaN ``e`` runs on to ``NonFinite``), ``pseudoinverse(e) @ ytr``
    for the block ids. The kernels multiply a scalar ``d`` in as ``d * z``
    (``np.dot(z, d)`` would serve both ranks, but is slower on a scalar)."""
    if not scalar:
        return pseudoinverse(e) @ ytr
    if e <= 0.0 or e == np.inf:
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


def _col_kernel(fam, a, x, r, cols, w, g, scalar, az=None, inverse=None):
    """C1-C6, S1-S4: the sketched columns ``az = A Z``, formed here unless
    given, give ``Y = az`` (``G az`` when weighted) for C and ``Y = Z`` for
    S; solves for the step ``d`` in Z's coordinates, through ``inverse``
    where given, and moves ``r`` by ``az d`` in place."""
    if cols is None:
        az = a @ w if az is None else az
    elif scalar or not a.flags.c_contiguous:
        # one column stays a strided view: a contiguous copy can round its
        # dot products differently; and np.take would first copy an array
        # that is not C-ordered, such as the Gram path's G^T, whole
        az = a[:, cols]
    else:
        az = np.take(a, cols, axis=1)
    if fam == "C":
        y = az if g is None else g @ az
        e, ytr = az.T @ y, y.T @ r
    elif cols is not None:
        e, ytr = az[cols], r[cols]
    else:
        e, ytr = (w.T @ az if inverse is None else None), w.T @ r
    d = _solve(e, ytr, scalar) if inverse is None else inverse @ ytr
    r -= d * az if scalar else az @ d
    if cols is None:
        return x + (d * w if scalar else w @ d)
    out = x.copy()
    out[cols] += d
    return out


def error_propagator(scheme: Scheme, a: np.ndarray,
                     draw: np.ndarray) -> np.ndarray:
    """The n x n matrix mapping the error before this draw's update to the
    error after it: I - Z (Y^T A Z)^+ Y^T A. Idempotent for every draw."""
    y, z = realize_sketch(scheme, a, draw)
    e = y.T @ a @ z
    n = a.shape[1]
    return np.eye(n) - z @ (pseudoinverse(e) @ (y.T @ a))


def reduction_discrepancy(a: SpdMatrix, draw: np.ndarray, b: np.ndarray,
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

    ids = ("K5", "C5", "S3") if draw.ndim == 1 else ("K6", "C6", "S4")
    updates = [step(make_scheme(sid, block_size=draw.shape[-1],
                                g=None if sid[0] == "S" else g),
                    amat, b, x, draw) for sid in ids]
    k, c, s = updates
    return max(float(np.abs(u - v).max()) for u, v in ((k, c), (k, s), (c, s)))
