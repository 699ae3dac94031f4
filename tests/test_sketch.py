import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import given

from helpers import gaussian, random_spd
from sketchsolve import schemes
from sketchsolve.linalg import SpdMatrix
from sketchsolve.sketch import (GAUSS, NORM_PROPORTIONAL, SUBSET,
                                TRACE_PROPORTIONAL, UNIFORM, draw_sketch,
                                index_cdf, make_rng, rng_from_keys)


class TestSpecValidation:
    def test_norm_proportional_needs_coord(self):
        with pytest.raises(ValueError, match="norm-proportional"):
            schemes.make_scheme("K3", block_size=2,
                                distribution=NORM_PROPORTIONAL)

    def test_trace_proportional_row_only(self):
        with pytest.raises(ValueError, match="trace-proportional"):
            schemes.make_scheme("C1", distribution=TRACE_PROPORTIONAL)

    def test_block_size_positive(self):
        with pytest.raises(ValueError, match="block_size must be an integer"):
            schemes.make_scheme("K3", block_size=0)

    @pytest.mark.parametrize("block_size", [2.5, True, "3"])
    def test_block_size_integer(self, block_size):
        # a float or bool width would fail only at the first draw
        with pytest.raises(ValueError, match="block_size must be an integer"):
            schemes.make_scheme("K3", block_size=block_size)


class TestDraws:
    def test_single_row_dimension_one(self):
        for dist, cdf in ((UNIFORM, None), (NORM_PROPORTIONAL, index_cdf([2.0]))):
            s = schemes.make_scheme("K1", distribution=dist)
            d = draw_sketch(s, (1, 4), make_rng(0), cdf)
            assert d.tolist() == [0]

    def test_full_subset(self):
        scheme = schemes.make_scheme("K3", block_size=5)
        d = draw_sketch(scheme, (5, 3), make_rng(1))
        assert d.tolist() == [0, 1, 2, 3, 4]

    def test_norm_proportional_frequency(self):
        # index 1 should appear with probability 3/4 given weights (1, 3)
        scheme = schemes.make_scheme("K1", distribution=NORM_PROPORTIONAL)
        rng = make_rng(123)
        cdf = index_cdf([1.0, 3.0])
        hits = sum(draw_sketch(scheme, (2, 2), rng, cdf)[0]
                   for _ in range(100_000))
        assert abs(hits / 100_000 - 0.75) < 0.01

    def test_gaussian_moments(self):
        scheme = schemes.make_scheme("K4", block_size=10)
        rng = make_rng(7)
        samples = np.concatenate([
            draw_sketch(scheme, (100, 5), rng).ravel() for _ in range(100)
        ])
        assert samples.size == 100_000
        assert abs(samples.mean()) < 0.02
        assert abs(samples.var() - 1.0) < 0.05

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError, match="positive finite sum"):
            index_cdf([0.0, 0.0, 0.0])

    def test_oversized_block_rejected(self):
        scheme = schemes.make_scheme("C3", block_size=4)
        with pytest.raises(ValueError):
            draw_sketch(scheme, (5, 3), make_rng(0))

    @given(seed=st.integers(0, 10_000), block=st.integers(1, 6))
    def test_subset_indices_distinct_and_sorted(self, seed, block):
        scheme = schemes.make_scheme("K3", block_size=block)
        idx = draw_sketch(scheme, (6, 6), make_rng(seed))
        assert len(set(idx.tolist())) == block
        assert np.all(np.diff(idx) > 0)
        assert idx.min() >= 0 and idx.max() < 6

    @given(seed=st.integers(0, 10_000))
    def test_reproducible(self, seed):
        for scheme, cdf in [
            (schemes.make_scheme("K1", distribution=NORM_PROPORTIONAL),
             index_cdf([1.0, 2.0, 3.0])),
            (schemes.make_scheme("K3", block_size=2), None),
            (schemes.make_scheme("C4", block_size=2), None),
        ]:
            d1 = draw_sketch(scheme, (3, 3), make_rng(seed), cdf)
            d2 = draw_sketch(scheme, (3, 3), make_rng(seed), cdf)
            assert np.array_equal(d1, d2)

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
        scheme = schemes.make_scheme("K1", distribution=NORM_PROPORTIONAL)
        with pytest.raises(ValueError, match="index_cdf of 4 weights"):
            draw_sketch(scheme, (4, 2), make_rng(0), index_cdf([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("sampler", [None, [1.0, 2.0, 3.0],
                                         np.array([1.0, 2.0, 3.0])])
    def test_raw_weights_rejected(self, sampler):
        scheme = schemes.make_scheme("C1", distribution=NORM_PROPORTIONAL)
        with pytest.raises(ValueError, match="index_cdf"):
            draw_sketch(scheme, (2, 3), make_rng(0), sampler)

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
        scheme = schemes.make_scheme("K1", distribution=NORM_PROPORTIONAL)
        cdf = index_cdf(w)
        mine, ref = make_rng(seed), make_rng(seed)
        got = [int(draw_sketch(scheme, (d, 1), mine, cdf)[0])
               for _ in range(draws)]
        want = [int(ref.choice(d, p=w / w.sum())) for _ in range(draws)]
        assert got == want
        assert mine.bit_generator.state == ref.bit_generator.state


class TestDrawContract:
    """Pins every id's draw to the explicit generator call it stands for, on
    an m != n system: the same values and the same generator state after.
    Replays draw through ``draw_sketch`` on both sides, so they cannot see a
    changed stream; this can."""

    M, N, L = 9, 7, 3
    # the generator call of each id's draw, and the side it draws over
    CALLS = {
        "K1": ("index", "m"), "K2": ("gauss1", "m"), "K3": ("subset", "m"),
        "K4": ("gauss", "m"), "K5": ("subset", "m"), "K6": ("gauss", "m"),
        "C1": ("index", "n"), "C2": ("gauss1", "n"), "C3": ("subset", "n"),
        "C4": ("gauss", "n"), "C5": ("subset", "n"), "C6": ("gauss", "n"),
        "S1": ("index", "m"), "S2": ("gauss1", "n"), "S3": ("subset", "n"),
        "S4": ("gauss", "n"),
    }
    CASES = [(sid, UNIFORM) for sid in schemes.ALL_SCHEMES] + [
        ("K1", NORM_PROPORTIONAL), ("K1", TRACE_PROPORTIONAL),
        ("C1", NORM_PROPORTIONAL), ("S1", NORM_PROPORTIONAL),
        ("S1", TRACE_PROPORTIONAL)]

    def _scheme(self, sid, dist):
        g = None
        if sid in schemes.WEIGHTED_SCHEMES:
            g = SpdMatrix(np.eye(schemes.weight_dim(sid, (self.M, self.N))))
        return schemes.make_scheme(sid, block_size=self.L, distribution=dist,
                                   g=g)

    @pytest.mark.parametrize("sid, dist", CASES)
    @pytest.mark.parametrize("seed", [0, 5])
    def test_draw_is_its_generator_call(self, sid, dist, seed):
        call, side = self.CALLS[sid]
        dim = self.M if side == "m" else self.N
        cdf = None if dist == UNIFORM else index_cdf(
            rng_from_keys(seed, 99).random(dim))
        scheme = self._scheme(sid, dist)
        mine, ref = make_rng(seed), make_rng(seed)
        for _ in range(6):
            d = draw_sketch(scheme, (self.M, self.N), mine, cdf)
            if call == "index" and cdf is None:
                assert d.tolist() == [int(ref.integers(dim))]
            elif call == "index":
                u = ref.random()
                assert d.tolist() == [
                    int(cdf.cdf.searchsorted(u, side="right"))]
            elif call == "subset":
                assert np.array_equal(
                    d, np.sort(ref.choice(dim, self.L, replace=False)))
            else:
                width = 1 if call == "gauss1" else self.L
                assert d.dtype == float
                assert np.array_equal(d,
                                      ref.standard_normal((dim, width)))
        assert mine.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("sid", [sid for sid in schemes.ALL_SCHEMES
                                     if schemes.sketch_kind(sid) == GAUSS])
    @pytest.mark.parametrize("count", [1, 5])
    def test_block_of_draws_is_its_single_draws(self, sid, count):
        scheme = self._scheme(sid, UNIFORM)
        mine, ref = make_rng(4), make_rng(4)
        block = draw_sketch(scheme, (self.M, self.N), mine, count=count)
        singles = [draw_sketch(scheme, (self.M, self.N), ref)
                   for _ in range(count)]
        assert block.shape == (count, *singles[0].shape)
        assert np.array_equal(block, np.stack(singles))
        assert mine.bit_generator.state == ref.bit_generator.state

    # uniform dims around the generator's 32-bit boundaries, then CDF draws,
    # then subsets of 3
    INDEX_CASES = [("K1", UNIFORM, d) for d in (
        1, 7, 2 ** 31 - 1, 2 ** 31, 2 ** 31 + 1, 2 ** 32, 2 ** 40)] + [
        ("C1", UNIFORM, 2 ** 31 + 1), ("S1", UNIFORM, 7),
        ("K1", NORM_PROPORTIONAL, 1), ("K1", NORM_PROPORTIONAL, 500),
        ("C1", NORM_PROPORTIONAL, 7), ("S1", TRACE_PROPORTIONAL, 500),
        ("K3", UNIFORM, 3), ("K3", UNIFORM, 7), ("C3", UNIFORM, 500),
        ("S3", UNIFORM, 7)]

    @pytest.mark.parametrize("sid, dist, dim", INDEX_CASES)
    def test_block_of_index_draws_is_its_single_draws(self, sid, dist, dim):
        # every count from 1 to N (1001 index draws, 101 subsets, each a
        # generator call), against the same N single draws and the generator
        # state after each; count 0 draws nothing, and a negative one is
        # refused
        subset = schemes.sketch_kind(sid) == SUBSET
        scheme = schemes.make_scheme(sid, block_size=3 if subset else 1,
                                     distribution=dist)
        dims = (dim, 3) if scheme.axis == "rows" else (3, dim)
        cdf = None if dist == UNIFORM else index_cdf(
            rng_from_keys(dim, 99).random(dim))
        ref, singles, states = make_rng(11), [], []
        for _ in range(101 if subset else 1001):
            singles.append(draw_sketch(scheme, dims, ref, cdf))
            states.append(ref.bit_generator.state)
        singles = np.stack(singles)
        for count in range(len(singles) + 1):
            mine = make_rng(11)
            block = draw_sketch(scheme, dims, mine, cdf, count=count)
            assert block.dtype == singles.dtype
            assert np.array_equal(block, singles[:count])
            assert mine.bit_generator.state == (
                states[count - 1] if count else make_rng(11).bit_generator.state)
        with pytest.raises(ValueError):
            draw_sketch(scheme, dims, mine, cdf, count=-1)


class TestSamplingWeights:
    @pytest.mark.parametrize("sid, dist, axis", [
        ("K1", NORM_PROPORTIONAL, 1), ("C1", NORM_PROPORTIONAL, 0),
        ("S1", TRACE_PROPORTIONAL, None), ("K1", TRACE_PROPORTIONAL, None),
        ("S1", NORM_PROPORTIONAL, 1)])
    def test_cdf_of_the_paper_weights(self, sid, dist, axis):
        # norms of a non-square matrix, so rows and columns cannot be mixed up
        a = random_spd(4, 9) if axis is None else gaussian(4, 9, 7)
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
        draw = np.array([0])
        y, z = schemes.realize_sketch(scheme, np.eye(2), draw)
        assert np.array_equal(y, [[1.0], [0.0]])
        assert np.array_equal(z, [[1.0], [0.0]])

    def test_s1_selects_unit_vector(self):
        scheme = schemes.make_scheme("S1")
        draw = np.array([1])
        a = random_spd(3, 3)
        y, z = schemes.realize_sketch(scheme, a, draw)
        assert np.array_equal(y, [[0.0], [1.0], [0.0]])
        assert np.array_equal(y, z)

    def test_k5_with_identity_weight_matches_k3(self):
        a = gaussian(5, 6, 4)
        draw = np.array([1, 4])
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
        draw = draw_sketch(scheme, (m, n), make_rng(13))
        y, z = schemes.realize_sketch(scheme, a, draw)
        width = 1 if sid in schemes.SCALAR_SCHEMES else 3
        assert y.shape == (m, width)
        assert z.shape == (n, width)

    def test_table_forms_match_selection_identities(self):
        # the implicit row/column selections must equal the explicit products
        a = gaussian(21, 6, 4)
        idx = np.array([0, 3, 5])
        eye_cols = np.eye(6)[:, idx]
        y, z = schemes.realize_sketch(schemes.make_scheme("K3", block_size=3), a, idx)
        assert np.array_equal(y, eye_cols)
        assert np.abs(z - a.T @ eye_cols).max() < 1e-14
