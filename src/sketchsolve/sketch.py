"""Random draw machinery for the iterative schemes.

A :class:`SketchSpec` describes what gets drawn each iteration (one row
index, a subset of columns, a Gaussian matrix, ...); :func:`draw_sketch`
produces one realized :class:`SketchDraw` from it.

Proportional draws search a CDF that :func:`index_cdf` validates and builds
once per solve: O(log d) each, and the same indices and generator state as
``rng.choice(d, p=...)``.

All randomness flows through ``numpy.random.Generator`` seeded with PCG64
(:func:`make_rng`), so identical seeds give identical draw sequences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# sketch kinds
COORD_ROW = "coord_row"
COORD_COL = "coord_col"
ROW_SUBSET = "row_subset"
COL_SUBSET = "col_subset"
GAUSS_VECTOR = "gauss_vector"
GAUSS_MATRIX = "gauss_matrix"

KINDS = (COORD_ROW, COORD_COL, ROW_SUBSET, COL_SUBSET, GAUSS_VECTOR, GAUSS_MATRIX)

# sampling distributions for the index-based kinds
UNIFORM = "uniform"
NORM_PROPORTIONAL = "norm_proportional"
TRACE_PROPORTIONAL = "trace_proportional"

DISTRIBUTIONS = (UNIFORM, NORM_PROPORTIONAL, TRACE_PROPORTIONAL)

_GAUSS_KINDS = (GAUSS_VECTOR, GAUSS_MATRIX)
_SUBSET_KINDS = (ROW_SUBSET, COL_SUBSET)
_ROW_SIDE = (COORD_ROW, ROW_SUBSET)
_COL_SIDE = (COORD_COL, COL_SUBSET)


def make_rng(seed: int) -> np.random.Generator:
    """Fresh PCG64 generator; equal seeds give bit-identical streams."""
    return np.random.default_rng(seed)


def rng_from_keys(seed: int, *keys: int) -> np.random.Generator:
    """Deterministic sub-stream of a master seed, keyed by integers.

    Used to give every (scheme, trial) cell its own independent stream so
    results do not depend on execution order.
    """
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, keys)]))


@dataclass(frozen=True)
class SketchSpec:
    """Description of one random draw.

    ``axis`` selects which dimension a Gaussian draw lives on ("rows" for
    row-space sketches of length m, "cols" for column-space sketches of
    length n); for index-based kinds it is implied by the kind.
    """

    kind: str
    block_size: int = 1
    distribution: str = UNIFORM
    axis: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown sketch kind {self.kind!r}")
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        if self.distribution == NORM_PROPORTIONAL and self.kind not in (COORD_ROW, COORD_COL):
            raise ValueError("norm-proportional sampling applies only to single "
                             "row/column draws")
        if self.distribution == TRACE_PROPORTIONAL and self.kind != COORD_ROW:
            raise ValueError("trace-proportional sampling applies only to single "
                             "row draws on square SPD systems")
        if self.kind in _GAUSS_KINDS:
            if self.axis not in ("rows", "cols"):
                raise ValueError("Gaussian sketches need axis='rows' or 'cols'")
        elif self.axis is not None and self.axis != self.resolved_axis:
            raise ValueError(f"axis {self.axis!r} contradicts kind {self.kind!r}")

    @property
    def resolved_axis(self) -> str:
        if self.kind in _ROW_SIDE:
            return "rows"
        if self.kind in _COL_SIDE:
            return "cols"
        return self.axis  # type: ignore[return-value]


@dataclass(frozen=True, eq=False)
class SketchDraw:
    """One realized draw: indices for the discrete kinds, a dense Gaussian
    block for the others."""

    kind: str
    indices: np.ndarray | None = None
    dense: np.ndarray | None = None

    def __post_init__(self):
        # the update kernels tell the two apart by which field is set
        if self.kind in _GAUSS_KINDS:
            if (self.dense is None or self.dense.ndim != 2
                    or self.indices is not None):
                raise ValueError("Gaussian draw needs a 2-D dense block "
                                 "and no indices")
        else:
            if self.indices is None or self.dense is not None:
                raise ValueError("index draw needs indices and no dense block")
            if (len(self.indices) > 1
                    and len(np.unique(self.indices)) != len(self.indices)):
                raise ValueError("subset indices must be distinct")

    @property
    def width(self) -> int:
        """Number of sketch columns l realized by this draw."""
        if self.dense is not None:
            return self.dense.shape[1]
        return len(self.indices)  # type: ignore[arg-type]


@dataclass(frozen=True, eq=False)
class IndexCdf:
    """Read-only CDF of a proportional index draw, from :func:`index_cdf`."""

    cdf: np.ndarray


def index_cdf(weights) -> IndexCdf:
    """Validate weights and build the CDF of drawing i with probability w[i] /
    sum(w) as ``rng.choice(d, p=...)`` builds it, so draws match ``choice``."""
    w = np.asarray(weights, dtype=float)
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    if (w < 0).any():
        raise ValueError("weights must be nonnegative")
    total = w.sum()
    if not 0.0 < total < np.inf:
        raise ValueError(f"weights must have a positive finite sum, got {total}")
    cdf = (w / total).cumsum()
    cdf /= cdf[-1]
    cdf.flags.writeable = False
    return IndexCdf(cdf)


def draw_sketch(spec: SketchSpec, dims: tuple[int, int], rng: np.random.Generator,
                sampler: IndexCdf | None = None) -> SketchDraw:
    """Realize one draw of ``spec`` against an m x n system.

    The proportional distributions need ``sampler``, the :func:`index_cdf`
    of the weights (squared row/column norms or diagonal entries), built once
    per solve; a draw is then one uniform and an O(log d) search of the CDF.
    Subsets are drawn uniformly without replacement and returned sorted.
    """
    m, n = dims
    dim = m if spec.resolved_axis == "rows" else n
    width = 1 if spec.kind in (COORD_ROW, COORD_COL, GAUSS_VECTOR) else spec.block_size
    if width > dim:
        raise ValueError(f"block_size {spec.block_size} exceeds dimension {dim}")

    if spec.kind in (COORD_ROW, COORD_COL):
        if spec.distribution == UNIFORM:
            idx = int(rng.integers(dim))
        else:
            if not isinstance(sampler, IndexCdf) or len(sampler.cdf) != dim:
                raise ValueError(f"{spec.distribution} sampling needs the "
                                 f"index_cdf of {dim} weights")
            idx = int(sampler.cdf.searchsorted(rng.random(), side="right"))
        return SketchDraw(kind=spec.kind, indices=np.array([idx]))

    if spec.kind in _SUBSET_KINDS:
        idx = np.sort(rng.choice(dim, size=width, replace=False))
        return SketchDraw(kind=spec.kind, indices=idx)

    # Gaussian kinds: fresh i.i.d. standard-normal entries every draw
    return SketchDraw(kind=spec.kind, dense=rng.standard_normal((dim, width)))
