import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import given

from helpers import gaussian, random_spd
from sketchsolve import schemes
from sketchsolve.linalg import SpdMatrix
from sketchsolve.sketch import (COL_SUBSET, COORD_COL, COORD_ROW, GAUSS_MATRIX,
                                NORM_PROPORTIONAL, ROW_SUBSET,
                                TRACE_PROPORTIONAL, UNIFORM, SketchDraw,
                                SketchSpec, draw_sketch, index_cdf, make_rng,
                                rng_from_keys)


class TestSpecValidation:
    def test_norm_proportional_needs_coord(self):
        with pytest.raises(ValueError):
            SketchSpec(kind=ROW_SUBSET, block_size=2, distribution=NORM_PROPORTIONAL)

    def test_trace_proportional_row_only(self):
        with pytest.raises(ValueError):
            SketchSpec(kind=COORD_COL, distribution=TRACE_PROPORTIONAL)

    def test_gauss_needs_axis(self):
        with pytest.raises(ValueError):
            SketchSpec(kind=GAUSS_MATRIX, block_size=2)

    def test_block_size_positive(self):
        with pytest.raises(ValueError):
            SketchSpec(kind=ROW_SUBSET, block_size=0)


class TestDraws:
    def test_single_row_dimension_one(self):
        for dist, cdf in ((UNIFORM, None), (NORM_PROPORTIONAL, index_cdf([2.0]))):
            s = SketchSpec(kind=COORD_ROW, distribution=dist)
            d = draw_sketch(s, (1, 4), make_rng(0), cdf)
            assert d.indices.tolist() == [0]

    def test_full_subset(self):
        spec = SketchSpec(kind=ROW_SUBSET, block_size=5)
        d = draw_sketch(spec, (5, 3), make_rng(1))
        assert d.indices.tolist() == [0, 1, 2, 3, 4]

    def test_norm_proportional_frequency(self):
        # index 1 should appear with probability 3/4 given weights (1, 3)
        spec = SketchSpec(kind=COORD_ROW, distribution=NORM_PROPORTIONAL)
        rng = make_rng(123)
        cdf = index_cdf([1.0, 3.0])
        hits = sum(draw_sketch(spec, (2, 2), rng, cdf).indices[0]
                   for _ in range(100_000))
        assert abs(hits / 100_000 - 0.75) < 0.01

    def test_gaussian_moments(self):
        spec = SketchSpec(kind=GAUSS_MATRIX, block_size=10, axis="rows")
        rng = make_rng(7)
        samples = np.concatenate([
            draw_sketch(spec, (100, 5), rng).dense.ravel() for _ in range(100)
        ])
        assert samples.size == 100_000
        assert abs(samples.mean()) < 0.02
        assert abs(samples.var() - 1.0) < 0.05

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError, match="positive finite sum"):
            index_cdf([0.0, 0.0, 0.0])

    def test_oversized_block_rejected(self):
        spec = SketchSpec(kind=COL_SUBSET, block_size=4)
        with pytest.raises(ValueError):
            draw_sketch(spec, (5, 3), make_rng(0))

    @given(seed=st.integers(0, 10_000), block=st.integers(1, 6))
    def test_subset_indices_distinct_and_sorted(self, seed, block):
        spec = SketchSpec(kind=ROW_SUBSET, block_size=block)
        d = draw_sketch(spec, (6, 6), make_rng(seed))
        idx = d.indices
        assert len(set(idx.tolist())) == block
        assert np.all(np.diff(idx) > 0)
        assert idx.min() >= 0 and idx.max() < 6

    @given(seed=st.integers(0, 10_000))
    def test_reproducible(self, seed):
        for spec, cdf in [
            (SketchSpec(kind=COORD_ROW, distribution=NORM_PROPORTIONAL),
             index_cdf([1.0, 2.0, 3.0])),
            (SketchSpec(kind=ROW_SUBSET, block_size=2), None),
            (SketchSpec(kind=GAUSS_MATRIX, block_size=2, axis="cols"), None),
        ]:
            d1 = draw_sketch(spec, (3, 3), make_rng(seed), cdf)
            d2 = draw_sketch(spec, (3, 3), make_rng(seed), cdf)
            if d1.indices is not None:
                assert np.array_equal(d1.indices, d2.indices)
            else:
                assert np.array_equal(d1.dense, d2.dense)

    def test_keyed_streams_differ(self):
        a = rng_from_keys(5, 0, 0).standard_normal(4)
        b = rng_from_keys(5, 0, 1).standard_normal(4)
        c = rng_from_keys(5, 0, 0).standard_normal(4)
        assert np.array_equal(a, c)
        assert not np.array_equal(a, b)


class TestProportionalSampling:
    """Weights are checked once, when their CDF is built; a draw is one
    uniform searched in that CDF."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_weights_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            index_cdf([1.0, bad, 2.0])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            index_cdf([1.0, -0.5, 2.0])

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("w", [[], [1e308, 1e308]])
    def test_empty_or_overflowing_sum_rejected(self, w):
        with pytest.raises(ValueError, match="positive finite sum"):
            index_cdf(w)

    def test_wrong_length_rejected(self):
        spec = SketchSpec(kind=COORD_ROW, distribution=NORM_PROPORTIONAL)
        with pytest.raises(ValueError, match="index_cdf of 4 weights"):
            draw_sketch(spec, (4, 2), make_rng(0), index_cdf([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("sampler", [None, [1.0, 2.0, 3.0],
                                         np.array([1.0, 2.0, 3.0])])
    def test_raw_weights_rejected(self, sampler):
        spec = SketchSpec(kind=COORD_COL, distribution=NORM_PROPORTIONAL)
        with pytest.raises(ValueError, match="index_cdf"):
            draw_sketch(spec, (2, 3), make_rng(0), sampler)

    def test_cdf_is_read_only(self):
        with pytest.raises(ValueError):
            index_cdf([1.0, 2.0]).cdf[0] = 0.5

    @pytest.mark.parametrize("d, draws", [(1, 200), (2, 2000), (50, 2000),
                                          (20000, 300)])
    @pytest.mark.parametrize("seed", [0, 7, 31337])
    def test_stream_equals_rng_choice(self, d, draws, seed):
        # pins the contract with numpy: a CDF draw consumes the one uniform
        # rng.choice(d, p=...) consumes and lands on the same index, so a
        # change to Generator.choice fails here rather than in a replay
        w = rng_from_keys(seed, d).random(d)
        if d > 1:
            w[::7] = 0.0  # zero-weight indices are never drawn by either
        spec = SketchSpec(kind=COORD_ROW, distribution=NORM_PROPORTIONAL)
        cdf = index_cdf(w)
        mine, ref = make_rng(seed), make_rng(seed)
        got = [int(draw_sketch(spec, (d, 1), mine, cdf).indices[0])
               for _ in range(draws)]
        want = [int(ref.choice(d, p=w / w.sum())) for _ in range(draws)]
        assert got == want
        assert mine.bit_generator.state == ref.bit_generator.state

    def test_single_index_draw_skips_distinct_check(self):
        d = SketchDraw(kind=COORD_ROW, indices=np.array([3]))
        assert d.width == 1
        with pytest.raises(ValueError, match="distinct"):
            SketchDraw(kind=ROW_SUBSET, indices=np.array([2, 2]))


class TestSamplingWeights:
    @pytest.mark.parametrize("sid, dist, axis", [
        ("K1", NORM_PROPORTIONAL, 1), ("C1", NORM_PROPORTIONAL, 0),
        ("S1", TRACE_PROPORTIONAL, None)])
    def test_cdf_of_the_paper_weights(self, sid, dist, axis):
        a = random_spd(4, 9)
        scheme = schemes.make_scheme(sid, distribution=dist)
        w = np.diag(a) if axis is None else (a * a).sum(axis=axis)
        got = schemes.sampling_weights(scheme, a)
        assert np.array_equal(got.cdf, index_cdf(w).cdf)

    def test_nan_matrix_fails_at_setup(self):
        a = np.eye(3)
        a[1, 2] = np.nan
        scheme = schemes.make_scheme("K1", distribution=NORM_PROPORTIONAL)
        with pytest.raises(ValueError, match="finite"):
            schemes.sampling_weights(scheme, a)


class TestRealize:
    def test_k1_identity_system(self):
        scheme = schemes.make_scheme("K1")
        draw = SketchDraw(kind=COORD_ROW, indices=np.array([0]))
        y, z = schemes.realize_sketch(scheme, np.eye(2), draw)
        assert np.array_equal(y, [[1.0], [0.0]])
        assert np.array_equal(z, [[1.0], [0.0]])

    def test_s1_selects_unit_vector(self):
        scheme = schemes.make_scheme("S1")
        draw = SketchDraw(kind=COORD_ROW, indices=np.array([1]))
        a = random_spd(3, 3)
        y, z = schemes.realize_sketch(scheme, a, draw)
        assert np.array_equal(y, [[0.0], [1.0], [0.0]])
        assert np.array_equal(y, z)

    def test_k5_with_identity_weight_matches_k3(self):
        a = gaussian(5, 6, 4)
        idx = np.array([1, 4])
        draw = SketchDraw(kind=ROW_SUBSET, indices=idx)
        y3, z3 = schemes.realize_sketch(schemes.make_scheme("K3", block_size=2), a, draw)
        k5 = schemes.make_scheme("K5", block_size=2, g=SpdMatrix(np.eye(4)))
        y5, z5 = schemes.realize_sketch(k5, a, draw)
        assert np.array_equal(y3, y5)
        assert np.abs(z3 - z5).max() < 1e-14

    @pytest.mark.parametrize("sid", schemes.ALL_SCHEMES)
    def test_shapes(self, sid):
        rng = np.random.default_rng(11)
        if schemes.family(sid) == "S":
            a = random_spd(11, 6)
        else:
            a = gaussian(11, 7, 5)
        m, n = a.shape
        g = None
        if sid in schemes.WEIGHTED_SCHEMES:
            g = SpdMatrix(random_spd(12, n if sid[0] == "K" else m, lo=0.5, hi=2.0))
        scheme = schemes.make_scheme(sid, block_size=3, g=g)
        draw = draw_sketch(scheme.spec, (m, n), make_rng(13))
        y, z = schemes.realize_sketch(scheme, a, draw)
        width = 1 if sid in schemes.SCALAR_SCHEMES else 3
        assert y.shape == (m, width)
        assert z.shape == (n, width)

    def test_wrong_draw_kind_rejected(self):
        scheme = schemes.make_scheme("K1")
        draw = SketchDraw(kind=COL_SUBSET, indices=np.array([0]))
        with pytest.raises(ValueError):
            schemes.realize_sketch(scheme, np.eye(2), draw)

    def test_draw_carries_one_representation(self):
        both = {"dense": np.ones((3, 2)), "indices": np.array([0, 1])}
        for kind in (GAUSS_MATRIX, ROW_SUBSET):
            with pytest.raises(ValueError):
                SketchDraw(kind=kind, **both)

    def test_table_forms_match_selection_identities(self):
        # the implicit row/column selections must equal the explicit products
        a = gaussian(21, 6, 4)
        idx = np.array([0, 3, 5])
        eye_cols = np.eye(6)[:, idx]
        draw = SketchDraw(kind=ROW_SUBSET, indices=idx)
        y, z = schemes.realize_sketch(schemes.make_scheme("K3", block_size=3), a, draw)
        assert np.array_equal(y, eye_cols)
        assert np.abs(z - a.T @ eye_cols).max() < 1e-14
