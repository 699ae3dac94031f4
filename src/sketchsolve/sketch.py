"""Random draw machinery for the iterative schemes.

:func:`draw_sketch` realizes one draw of a :class:`schemes.Scheme`, the only
description of a draw (kind :data:`INDEX`, :data:`SUBSET` or :data:`GAUSS`,
axis, width, distribution), as the numpy array drawn: integer indices or a
Gaussian block.

Proportional draws search a CDF that :func:`index_cdf` validates and builds
once per problem: O(log d) each, and the same indices and generator state as
``rng.choice(d, p=...)``.

All randomness flows through ``numpy.random.Generator`` seeded with PCG64
(:func:`make_rng`), so identical seeds give identical draw sequences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# draw kinds; the axis they run along is the scheme's, and a Gaussian
# vector is a width-1 Gaussian block
INDEX = "index"
SUBSET = "subset"
GAUSS = "gauss"

# sampling distributions for the index-based kinds
UNIFORM = "uniform"
NORM_PROPORTIONAL = "norm_proportional"
TRACE_PROPORTIONAL = "trace_proportional"

DISTRIBUTIONS = (UNIFORM, NORM_PROPORTIONAL, TRACE_PROPORTIONAL)


def make_rng(seed: int) -> np.random.Generator:
    """Fresh PCG64 generator; equal seeds give bit-identical streams."""
    return np.random.default_rng(seed)


def rng_from_keys(seed: int, *keys: int) -> np.random.Generator:
    """Deterministic sub-stream of a master seed, keyed by integers.

    Used to give every (scheme, trial) cell its own independent stream so
    results do not depend on execution order.
    """
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, keys)]))


@dataclass(frozen=True, eq=False)
class IndexCdf:
    """Read-only CDF of a proportional index draw, from :func:`index_cdf`."""

    cdf: np.ndarray


def index_cdf(weights) -> IndexCdf:
    """Validate weights and build the CDF of drawing i with probability w[i] /
    sum(w) as ``rng.choice(d, p=...)`` builds it, so draws match ``choice``."""
    w = np.asarray(weights, dtype=float)
    if not np.isfinite(w).all():
        raise ValueError("sampling weights must be finite")
    if (w < 0).any():
        raise ValueError("sampling weights must be nonnegative")
    total = w.sum()
    if not 0.0 < total < np.inf:
        raise ValueError(f"sampling weights must have a positive finite sum, got {total}")
    cdf = (w / total).cumsum()
    cdf /= cdf[-1]
    cdf.flags.writeable = False
    return IndexCdf(cdf)


def draw_dim(scheme, dims: tuple[int, int]) -> int:
    """The length of the side of an m x n system that ``scheme`` draws over:
    m on its "rows" axis, n on "cols"."""
    return dims[0] if scheme.axis == "rows" else dims[1]


def draw_sketch(scheme, dims: tuple[int, int], rng: np.random.Generator,
                sampler: IndexCdf | None = None,
                count: int | None = None) -> np.ndarray:
    """Realize one draw of ``scheme`` against an m x n system, as its
    ``kind``, ``axis``, ``block_size`` and ``distribution`` say: a 1-D
    integer array of ``block_size`` indices for ``INDEX`` and ``SUBSET``, a
    ``(dim, block_size)`` float block for ``GAUSS``. Given ``count``, a
    stack of ``count`` such draws, ``(count, block_size)`` or ``(count, dim,
    block_size)``, with the numbers and end state of ``count`` single draws,
    in one generator call (``SUBSET``: one a draw).

    The proportional distributions need ``sampler``, the :func:`index_cdf`
    of the weights (squared row/column norms or diagonal entries), built once
    per problem; a draw is then one uniform and an O(log d) search of the CDF.
    Subsets are drawn uniformly without replacement and returned sorted.
    """
    kind, width = scheme.kind, scheme.block_size
    dim = draw_dim(scheme, dims)
    if width > dim:
        raise ValueError(f"block_size {width} exceeds dimension {dim}")
    shape = (1,) if count is None else (count, 1)

    if kind == INDEX:
        if scheme.distribution == UNIFORM:
            return rng.integers(dim, size=shape)
        if not isinstance(sampler, IndexCdf) or len(sampler.cdf) != dim:
            raise ValueError(f"{scheme.distribution} sampling needs the "
                             f"index_cdf of {dim} weights")
        return sampler.cdf.searchsorted(rng.random(shape), side="right")

    if kind == SUBSET:
        stack = np.empty((1 if count is None else count, width), dtype=np.int64)
        for row in stack:
            row[:] = np.sort(rng.choice(dim, size=width, replace=False))
        return stack[0] if count is None else stack

    # GAUSS: fresh i.i.d. standard-normal entries every draw, in C order
    return rng.standard_normal((dim, width) if count is None
                               else (count, dim, width))
