"""Test-problem generation and MatrixMarket ingestion.

Three generator kinds mirror the usual benchmark classes for randomized
row/column solvers: dense uniform(0,1) matrices (``UniformDense``),
sparse-pattern Gaussian matrices reshaped to a prescribed reciprocal
condition number (``SparseNormal``), and SPD matrices with prescribed
conditioning (``SparseSpd``, a dense Q diag(lam) Q^T despite its name). The
right-hand side is always built as b = A @ ones, so every generated system
is consistent by construction and the all-ones solution is available for
error traces. Every kind, files included, fills A in place in a
64-byte-aligned buffer (:func:`linalg.aligned_empty`), with no second m x n
copy.

Conditioning is imposed by reassigning singular values (affine rescale for
the rectangular kind, pinned log-uniform eigenvalues for the SPD kind),
which densifies the matrix; the sparsity target therefore describes the
pattern before reshaping and the achieved fraction is reported in
:class:`ProblemStats` rather than enforced on the final matrix. Only
``SparseNormal`` takes a ``density``, only it and ``SparseSpd`` take an
``rc``, and only ``FromFile`` takes a ``path`` and no ``m``, ``n`` or ``seed``
(the file decides them); :class:`ProblemSpec` rejects any of them where the
kind would ignore it, an ``m``, ``n`` or ``seed`` that is a bool or not an
integer (or a negative seed), and a ``density`` or ``rc`` that is a bool or
not a number in (0, 1], and fills in the defaults of those its kind reads.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from .linalg import aligned_empty, as_int, as_matrix
from .sketch import make_rng
from .solver import Problem

UNIFORM_DENSE = "UniformDense"
SPARSE_NORMAL = "SparseNormal"
SPARSE_SPD = "SparseSpd"
FROM_FILE = "FromFile"

KINDS = (UNIFORM_DENSE, SPARSE_NORMAL, SPARSE_SPD, FROM_FILE)
# the optional parameters each kind reads; any other is rejected
_GEN = ("m", "n", "seed")
_TAKES = {UNIFORM_DENSE: _GEN, SPARSE_NORMAL: (*_GEN, "density", "rc"),
          SPARSE_SPD: (*_GEN, "rc"), FROM_FILE: ("path",)}


@dataclass
class ProblemStats:
    """What the generator actually achieved, for benchmark reports."""

    kind: str
    m: int
    n: int
    density: float | None = None          # requested pattern density
    pattern_density: float | None = None  # achieved, before reshaping
    rc: float | None = None               # requested reciprocal condition
    achieved_rc: float | None = None
    structurally_deficient: bool = False  # too few nonzeros for full rank


@dataclass
class ProblemSpec:
    kind: str
    m: int | None = None          # generated kinds only; a FromFile file sets
    n: int | None = None          # the shape
    density: float | None = None  # SparseNormal; default min(1, 1/log(m*n))
    rc: float | None = None       # SparseNormal, SparseSpd; default 1/sqrt(m*n)
    seed: int | None = None       # generated kinds; default 0
    path: str | os.PathLike | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown problem kind {self.kind!r}")
        for name in ("density", "rc", "m", "n", "seed", "path"):
            v = getattr(self, name)
            if v is None:
                continue
            if name not in _TAKES[self.kind]:
                raise ValueError(f"{self.kind} problems take no {name}")
            if name in ("m", "n", "seed"):
                as_int(v, name, 0 if name == "seed" else 1)
            elif name != "path" and (isinstance(v, bool) or not isinstance(v, numbers.Real)
                                     or not 0.0 < v <= 1.0):
                raise ValueError(f"{name} must be a number in (0, 1], got {v!r}")
        if self.kind == FROM_FILE:
            if not isinstance(self.path, (str, os.PathLike)) or not self.path:
                raise ValueError(f"FromFile problems need a path, got {self.path!r}")
            return
        self.m, self.n, self.seed = self.m or 0, self.n or 0, self.seed or 0
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be >= 1")
        if self.kind == SPARSE_SPD and self.m != self.n:
            raise ValueError("SPD problems must be square")
        mn = self.m * self.n
        if "density" in _TAKES[self.kind] and self.density is None:
            self.density = 1.0 / max(1.0, math.log(mn))
        if "rc" in _TAKES[self.kind] and self.rc is None:
            self.rc = 1.0 / math.sqrt(mn)


def _reshape_singular_values(a: np.ndarray, rc: float) -> tuple[np.ndarray, float]:
    """Affinely rescale the singular values of ``a`` so the smallest equals
    rc times the largest; returns the reshaped matrix and the achieved rc."""
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    smax = float(s[0])
    if smax <= 0.0:
        raise ValueError("cannot impose a condition number on a zero matrix")
    smin = float(s[-1])
    if smax - smin < 1e-14 * smax:
        # already (numerically) equal singular values; spread them directly
        s_new = np.linspace(smax, rc * smax, num=s.size)
    else:
        alpha = smax * (1.0 - rc) / (smax - smin)
        beta = rc * smax - alpha * smin
        s_new = alpha * s + beta
    out = np.matmul(u * s_new, vt, out=aligned_empty(a.shape))
    return out, float(s_new.min() / s_new.max())


def _random_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def generate(spec: ProblemSpec) -> Problem:
    """Build the problem described by ``spec``; deterministic in the seed."""
    pattern_density = achieved_rc = None
    deficient = False
    if spec.kind == FROM_FILE:
        a = load_matrixmarket(spec.path)
    else:
        rng, m, n = make_rng(spec.seed), spec.m, spec.n

        if spec.kind == UNIFORM_DENSE:
            a = rng.random(out=aligned_empty((m, n)))

        elif spec.kind == SPARSE_NORMAL:
            mask = rng.random((m, n)) < spec.density
            a0 = np.where(mask, rng.standard_normal((m, n)), 0.0)
            pattern_density = float(mask.mean())
            deficient = spec.density * m * n < max(m, n)
            a, achieved_rc = _reshape_singular_values(a0, spec.rc)

        elif spec.kind == SPARSE_SPD:
            q = _random_orthogonal(n, rng)
            if n == 1:
                lam = np.array([1.0])
            else:
                interior = np.exp(rng.uniform(math.log(spec.rc), 0.0, size=n - 2))
                lam = np.sort(np.concatenate([[spec.rc, 1.0], interior]))
            t = (q * lam) @ q.T
            a = np.add(t, t.T, out=aligned_empty((n, n)))
            a *= 0.5
            w = np.linalg.eigvalsh(a)
            achieved_rc = float(w[0] / w[-1])

    stats = ProblemStats(spec.kind, *a.shape, density=spec.density,
                         pattern_density=pattern_density, rc=spec.rc,
                         achieved_rc=achieved_rc, structurally_deficient=deficient)
    x_star = np.ones(a.shape[1])
    return Problem(a=a, b=a @ x_star, x_star=x_star, stats=stats)


# ---------------------------------------------------------------------------
# MatrixMarket files ("%%MatrixMarket matrix ..."), real, general/symmetric,
# coordinate and array formats.
# ---------------------------------------------------------------------------


class MatrixMarketError(ValueError):
    def __init__(self, path, lineno: int, message: str):
        super().__init__(f"{path}:{lineno}: {message}")
        self.lineno = lineno


def load_matrixmarket(path) -> np.ndarray:
    """Read a real MatrixMarket file into a dense matrix.

    Supports coordinate and array formats, general and symmetric storage
    (symmetric files carry the lower triangle and are expanded). Malformed
    content, a non-finite value included, raises :class:`MatrixMarketError`
    with the offending line number.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise MatrixMarketError(path, 1, "empty file")

    head = lines[0].split()
    if (len(head) != 5 or head[0].lower() != "%%matrixmarket"
            or head[1].lower() != "matrix"):
        raise MatrixMarketError(path, 1, "expected header "
                                "'%%MatrixMarket matrix <format> <field> <symmetry>'")
    fmt, field_, symmetry = (tok.lower() for tok in head[2:])
    if fmt not in ("coordinate", "array"):
        raise MatrixMarketError(path, 1, f"unsupported format {fmt!r}")
    if field_ != "real":
        raise MatrixMarketError(path, 1, f"unsupported field {field_!r} "
                                "(only 'real' is handled)")
    if symmetry not in ("general", "symmetric"):
        raise MatrixMarketError(path, 1, f"unsupported symmetry {symmetry!r}")

    # the lines after the header that are neither blank nor comments, with
    # their line numbers: the size line, then one line per entry
    stripped = enumerate((raw.strip() for raw in lines[1:]), start=2)
    numbered = [(lno, text) for lno, text in stripped
                if text and not text.startswith("%")]
    if not numbered:
        raise MatrixMarketError(path, len(lines) + 1, "missing size line")
    (lineno, text), data_lines = numbered[0], numbered[1:]

    coordinate, symmetric = fmt == "coordinate", symmetry == "symmetric"
    size_tokens = text.split()
    want = 3 if coordinate else 2
    if len(size_tokens) != want:
        raise MatrixMarketError(path, lineno, f"size line needs {want} integers")
    try:
        sizes = [int(tok) for tok in size_tokens]
    except ValueError:
        raise MatrixMarketError(path, lineno, "size line entries must be integers")
    m, n = sizes[0], sizes[1]
    if m < 1 or n < 1:
        raise MatrixMarketError(path, lineno, "dimensions must be >= 1")
    if symmetric and m != n:
        raise MatrixMarketError(path, lineno, "symmetric matrices must be square")
    out = aligned_empty((m, n))
    out.fill(0.0)

    noun, nouns = ("entry", "entries") if coordinate else ("value", "values")
    expected = sizes[2] if coordinate else n * (n + 1) // 2 if symmetric else m * n
    if len(data_lines) != expected:
        raise MatrixMarketError(path, len(lines),
                                f"expected {expected} {nouns}, found {len(data_lines)}")
    # a coordinate entry carries its (i, j); an array file lists its values
    # column-major, only the lower triangle when symmetric
    cells = ((i, j) for j in range(1, n + 1)
             for i in range(j if symmetric else 1, m + 1))
    for lno, text in data_lines:
        tokens = text.split() if coordinate else [*next(cells), text]
        if len(tokens) != 3:
            raise MatrixMarketError(path, lno, "coordinate entries need 'i j value'")
        try:
            i, j, v = int(tokens[0]), int(tokens[1]), float(tokens[2])
        except ValueError:
            raise MatrixMarketError(path, lno, f"cannot parse {noun} {text!r}")
        if not math.isfinite(v):
            raise MatrixMarketError(path, lno, f"{noun} {text!r} is not finite")
        if not (1 <= i <= m and 1 <= j <= n):
            raise MatrixMarketError(path, lno, f"index ({i}, {j}) out of range")
        if symmetric and j > i:
            raise MatrixMarketError(path, lno, "symmetric files store the "
                                    "lower triangle (need j <= i)")
        out[i - 1, j - 1] = v
        if symmetric:
            out[j - 1, i - 1] = v
    return out


def save_matrixmarket(path, a, fmt: str = "array"):
    """Write a dense matrix as a real/general MatrixMarket file.

    Values are written with shortest round-trip formatting, so loading the
    file back reproduces the matrix bit for bit. Non-finite entries raise.
    """
    a = as_matrix(a)
    m, n = a.shape
    if fmt not in ("array", "coordinate"):
        raise ValueError(f"unsupported format {fmt!r}")
    if not np.isfinite(a).all():
        raise ValueError("MatrixMarket files hold finite values only")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"%%MatrixMarket matrix {fmt} real general\n")
        if fmt == "array":
            fh.write(f"{m} {n}\n")
            for j in range(n):
                for i in range(m):
                    fh.write(f"{float(a[i, j])!r}\n")
        else:
            jj, ii = np.nonzero(a.T)  # transpose for column-major entry order
            fh.write(f"{m} {n} {len(ii)}\n")
            for i, j in zip(ii, jj):
                fh.write(f"{i + 1} {j + 1} {float(a[i, j])!r}\n")
