"""Test-problem generation and MatrixMarket ingestion.

Three generator kinds mirror the usual benchmark classes for randomized
row/column solvers: dense uniform(0,1) matrices (``UniformDense``),
sparse-pattern Gaussian matrices reshaped to a prescribed reciprocal
condition number (``SparseNormal``), and SPD matrices with prescribed
conditioning (``SparseSpd``, a dense Q diag(lam) Q^T despite its name). The
right-hand side is always built as b = A @ ones, so every generated system
is consistent by construction and the all-ones solution is available for
error traces.

Conditioning is imposed by reassigning singular values (affine rescale for
the rectangular kind, pinned log-uniform eigenvalues for the SPD kind),
which densifies the matrix; the sparsity target therefore describes the
pattern before reshaping and the achieved fraction is reported in
:class:`ProblemStats` rather than enforced on the final matrix. Only
``SparseNormal`` takes a ``density``, only it and ``SparseSpd`` take an
``rc``, and ``FromFile`` takes no ``m``, ``n`` or ``seed`` (the file decides
them); :class:`ProblemSpec` rejects any of them where the kind would ignore it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, finite_or_none
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
          SPARSE_SPD: (*_GEN, "rc"), FROM_FILE: ()}


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

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind, "m": self.m, "n": self.n,
            "density": finite_or_none(self.density),
            "pattern_density": finite_or_none(self.pattern_density),
            "rc": finite_or_none(self.rc),
            "achieved_rc": finite_or_none(self.achieved_rc),
            "structurally_deficient": self.structurally_deficient,
        }


@dataclass
class ProblemSpec:
    kind: str
    m: int | None = None          # generated kinds only; a FromFile file sets
    n: int | None = None          # the shape
    density: float | None = None  # SparseNormal; default 1/log(m*n)
    rc: float | None = None       # SparseNormal, SparseSpd; default 1/sqrt(m*n)
    seed: int | None = None       # generated kinds; default 0
    path: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown problem kind {self.kind!r}")
        for name in ("density", "rc", "m", "n", "seed"):
            v = getattr(self, name)
            if v is None:
                continue
            if name not in _TAKES[self.kind]:
                raise ValueError(f"{self.kind} problems take no {name}")
            if name in ("density", "rc") and not (0.0 < v <= 1.0):
                raise ValueError(f"{name} must lie in (0, 1], got {v}")
        if self.kind == FROM_FILE:
            if not self.path:
                raise ValueError("FromFile problems need a path")
            return
        self.m, self.n, self.seed = self.m or 0, self.n or 0, self.seed or 0
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be >= 1")
        if self.kind == SPARSE_SPD and self.m != self.n:
            raise ValueError("SPD problems must be square")

    def resolved_density(self) -> float:
        if self.density is not None:
            return self.density
        return 1.0 / math.log(self.m * self.n) if self.m * self.n > 1 else 1.0

    def resolved_rc(self) -> float:
        return self.rc if self.rc is not None else 1.0 / math.sqrt(self.m * self.n)


def sparse_pattern(m: int, n: int, density: float,
                   rng: np.random.Generator) -> np.ndarray:
    """Boolean mask with each entry nonzero independently with probability
    ``density``."""
    return rng.random((m, n)) < density


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
    out = (u * s_new) @ vt
    return out, float(s_new.min() / s_new.max())


def _random_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def generate(spec: ProblemSpec) -> Problem:
    """Build the problem described by ``spec``; deterministic in the seed."""
    if spec.kind == FROM_FILE:
        a = load_matrixmarket(spec.path)
        m, n = a.shape
        stats = ProblemStats(kind=spec.kind, m=m, n=n)
    else:
        rng = make_rng(spec.seed)
        m, n = spec.m, spec.n

        if spec.kind == UNIFORM_DENSE:
            a = rng.random((m, n))
            stats = ProblemStats(kind=spec.kind, m=m, n=n)

        elif spec.kind == SPARSE_NORMAL:
            density = spec.resolved_density()
            rc = spec.resolved_rc()
            mask = sparse_pattern(m, n, density, rng)
            a0 = np.where(mask, rng.standard_normal((m, n)), 0.0)
            deficient = density * m * n < max(m, n)
            a, achieved = _reshape_singular_values(a0, rc)
            stats = ProblemStats(kind=spec.kind, m=m, n=n, density=density,
                                 pattern_density=float(mask.mean()), rc=rc,
                                 achieved_rc=achieved,
                                 structurally_deficient=deficient)

        elif spec.kind == SPARSE_SPD:
            rc = spec.resolved_rc()
            q = _random_orthogonal(n, rng)
            if n == 1:
                lam = np.array([1.0])
            elif n == 2:
                lam = np.array([rc, 1.0])
            else:
                interior = np.exp(rng.uniform(math.log(rc), 0.0, size=n - 2))
                lam = np.sort(np.concatenate([[rc, 1.0], interior]))
            a = (q * lam) @ q.T
            a = 0.5 * (a + a.T)
            w = np.linalg.eigvalsh(a)
            stats = ProblemStats(kind=spec.kind, m=n, n=n, rc=rc,
                                 achieved_rc=float(w[0] / w[-1]))
        else:  # pragma: no cover - guarded by ProblemSpec
            raise ValueError(spec.kind)

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
    content raises :class:`MatrixMarketError` with the offending line number.
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

    # skip comments and blank lines to the size line
    lineno = 1
    while True:
        lineno += 1
        if lineno > len(lines):
            raise MatrixMarketError(path, lineno, "missing size line")
        text = lines[lineno - 1].strip()
        if text and not text.startswith("%"):
            break

    size_tokens = text.split()
    want = 3 if fmt == "coordinate" else 2
    if len(size_tokens) != want:
        raise MatrixMarketError(path, lineno, f"size line needs {want} integers")
    try:
        sizes = [int(tok) for tok in size_tokens]
    except ValueError:
        raise MatrixMarketError(path, lineno, "size line entries must be integers")
    m, n = sizes[0], sizes[1]
    if m < 1 or n < 1:
        raise MatrixMarketError(path, lineno, "dimensions must be >= 1")
    if symmetry == "symmetric" and m != n:
        raise MatrixMarketError(path, lineno, "symmetric matrices must be square")
    out = np.zeros((m, n))

    data_lines = []
    for offset, raw in enumerate(lines[lineno:], start=lineno + 1):
        text = raw.strip()
        if not text or text.startswith("%"):
            continue
        data_lines.append((offset, text))

    if fmt == "coordinate":
        nnz = sizes[2]
        if len(data_lines) != nnz:
            raise MatrixMarketError(path, len(lines),
                                    f"expected {nnz} entries, found {len(data_lines)}")
        for lno, text in data_lines:
            tokens = text.split()
            if len(tokens) != 3:
                raise MatrixMarketError(path, lno, "coordinate entries need 'i j value'")
            try:
                i, j = int(tokens[0]), int(tokens[1])
                v = float(tokens[2])
            except ValueError:
                raise MatrixMarketError(path, lno, f"cannot parse entry {text!r}")
            if not (1 <= i <= m and 1 <= j <= n):
                raise MatrixMarketError(path, lno, f"index ({i}, {j}) out of range")
            if symmetry == "symmetric" and j > i:
                raise MatrixMarketError(path, lno, "symmetric files store the "
                                        "lower triangle (need j <= i)")
            out[i - 1, j - 1] = v
            if symmetry == "symmetric":
                out[j - 1, i - 1] = v
        return out

    # array format: column-major values, lower triangle only when symmetric
    if symmetry == "general":
        expected = m * n
        coords = [(i, j) for j in range(n) for i in range(m)]
    else:
        expected = n * (n + 1) // 2
        coords = [(i, j) for j in range(n) for i in range(j, n)]
    if len(data_lines) != expected:
        raise MatrixMarketError(path, len(lines),
                                f"expected {expected} values, found {len(data_lines)}")
    for (lno, text), (i, j) in zip(data_lines, coords):
        try:
            v = float(text)
        except ValueError:
            raise MatrixMarketError(path, lno, f"cannot parse value {text!r}")
        out[i, j] = v
        if symmetry == "symmetric":
            out[j, i] = v
    return out


def save_matrixmarket(path, a, fmt: str = "array"):
    """Write a dense matrix as a real/general MatrixMarket file.

    Values are written with shortest round-trip formatting, so loading the
    file back reproduces the matrix bit for bit.
    """
    a = as_matrix(a)
    m, n = a.shape
    if fmt not in ("array", "coordinate"):
        raise ValueError(f"unsupported format {fmt!r}")
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
