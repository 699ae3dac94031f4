import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import given

from helpers import check_moore_penrose, eigs_via_charpoly, gaussian, random_spd
from sketchsolve.linalg import (SpdMatrix, extremal_eigs, frobenius_norm_sq,
                                pseudoinverse, spd_sqrt, weighted_norm)


class TestPseudoinverse:
    def test_scalar(self):
        assert np.allclose(pseudoinverse([[2.0]]), [[0.5]], atol=1e-15)

    def test_zero_matrix(self):
        out = pseudoinverse(np.zeros((2, 3)))
        assert out.shape == (3, 2)
        assert np.all(out == 0.0)

    def test_full_rank_tall(self):
        m = gaussian(2, 4, 2)
        assert np.abs(pseudoinverse(m) @ m - np.eye(2)).max() < 1e-10

    @given(seed=st.integers(0, 10_000), m=st.integers(1, 6), n=st.integers(1, 6),
           rank=st.sampled_from(["zero", "one", "full"]))
    def test_moore_penrose_identities(self, seed, m, n, rank):
        rng = np.random.default_rng(seed)
        if rank == "zero":
            mat = np.zeros((m, n))
        elif rank == "one":
            mat = np.outer(rng.standard_normal(m), rng.standard_normal(n))
        else:
            mat = rng.standard_normal((m, n))
        check_moore_penrose(mat, pseudoinverse(mat))


class TestExtremalEigs:
    def test_identity(self):
        assert extremal_eigs(np.eye(3)) == (1.0, 1.0)

    def test_diagonal(self):
        lo, hi = extremal_eigs(np.diag([2.0, 5.0, 9.0]))
        assert (lo, hi) == (2.0, 9.0)

    def test_against_charpoly_roots(self):
        s = gaussian(5, 5, 5)
        sym = s.T @ s
        lo, hi = extremal_eigs(sym)
        roots = eigs_via_charpoly(sym)
        assert abs(lo - roots[0]) <= 1e-8 * max(1.0, abs(roots[0]))
        assert abs(hi - roots[-1]) <= 1e-8 * abs(roots[-1])

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            extremal_eigs([[0.0, 1.0], [0.0, 0.0]])

    @given(seed=st.integers(0, 10_000))
    def test_brackets_rayleigh_quotient(self, seed):
        rng = np.random.default_rng(seed)
        sym = random_spd(seed, 5, lo=0.1, hi=4.0)
        lo, hi = extremal_eigs(sym)
        for _ in range(100):
            v = rng.standard_normal(5)
            v /= np.linalg.norm(v)
            q = v @ sym @ v
            assert lo - 1e-8 <= q <= hi + 1e-8


class TestWeightedNorm:
    def test_euclidean_case(self):
        assert weighted_norm([3.0, 4.0], SpdMatrix(np.eye(2))) == pytest.approx(5.0)

    def test_zero_vector(self):
        assert weighted_norm([0.0, 0.0], SpdMatrix(np.eye(2))) == 0.0

    def test_diagonal_weight(self):
        out = weighted_norm([1.0, 1.0], SpdMatrix(np.diag([2.0, 3.0])))
        assert out == pytest.approx(np.sqrt(5.0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            weighted_norm([1.0, 2.0, 3.0], SpdMatrix(np.eye(2)))

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 8))
    def test_identity_weight_matches_euclid(self, seed, n):
        v = np.random.default_rng(seed).standard_normal(n)
        got = weighted_norm(v, SpdMatrix(np.eye(n)))
        want = float(np.linalg.norm(v))
        assert abs(got - want) <= 1e-14 * max(want, 1.0)


class TestFrobenius:
    def test_identity(self):
        assert frobenius_norm_sq(np.eye(3)) == 3.0

    def test_hand_sum(self):
        assert frobenius_norm_sq([[1.0, 2.0], [3.0, 4.0]]) == 30.0

    def test_trace_identity(self):
        m = gaussian(7, 4, 3)
        assert frobenius_norm_sq(m) == pytest.approx(np.trace(m.T @ m), rel=1e-13)


class TestSpdSqrt:
    def test_identity(self):
        assert np.allclose(spd_sqrt(SpdMatrix(np.eye(2))), np.eye(2), atol=1e-14)

    def test_diagonal(self):
        out = spd_sqrt(SpdMatrix(np.diag([4.0, 9.0])))
        assert np.allclose(out, np.diag([2.0, 3.0]), atol=1e-13)

    def test_reconstruction(self):
        w = random_spd(11, 4)
        root = spd_sqrt(SpdMatrix(w))
        scale = np.abs(w).max()
        assert np.abs(root @ root - w).max() <= 1e-10 * scale
        assert np.abs(root - root.T).max() <= 1e-12 * scale

    def test_commutes_with_input(self):
        w = random_spd(13, 5)
        root = spd_sqrt(SpdMatrix(w))
        assert np.abs(root @ w - w @ root).max() <= 1e-10 * np.abs(w).max()


class TestSpdMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            SpdMatrix([[1.0, 0.5], [0.0, 1.0]])

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            SpdMatrix(np.diag([1.0, -2.0]))

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            SpdMatrix(np.diag([1.0, 0.0]))

    def test_symmetrizes_roundoff(self):
        w = random_spd(17, 4)
        w[0, 1] += 1e-15
        out = SpdMatrix(w)
        assert np.array_equal(out.mat, out.mat.T)
