import re

import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import given

from helpers import (check_moore_penrose, eigs_via_charpoly, gaussian,
                     random_orthogonal, random_spd)
from sketchsolve import linalg
from sketchsolve.schemes import make_scheme
from sketchsolve.linalg import (SpdMatrix, check_symmetric, extremal_eigs,
                                frobenius_norm_sq, lu_inverses,
                                normal_residual, pseudoinverse, spd_sqrt,
                                squared_norms)


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


def _pinv_oracle(m):
    # numpy's SVD pseudoinverse with the same s > max(shape) s_max eps cutoff
    return np.linalg.pinv(m, rcond=max(m.shape) * np.finfo(float).eps)


class TestPseudoinverseInverseFastPath:
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 22),
           kind=st.sampled_from(["general", "psd"]))
    def test_square_agrees_with_svd_oracle(self, seed, n, kind):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((n, n))
        if kind == "psd":
            m = m.T @ m
        cond = np.linalg.cond(m)
        oracle = _pinv_oracle(m)
        err = np.abs(pseudoinverse(m) - oracle).max()
        assert err <= 1e-12 * cond * np.abs(oracle).max()

    @pytest.mark.parametrize("n", [1, 2, 7, 20, 22])
    def test_well_conditioned_square_is_its_inverse(self, n):
        m = random_spd(n, n, lo=0.5, hi=3.0)
        np.testing.assert_array_equal(pseudoinverse(m), np.linalg.inv(m))

    @pytest.mark.parametrize("rotated", [False, True])
    def test_truncating_svd_is_kept(self, rotated):
        # cond 1e17 is past the SVD cutoff: the small singular value is
        # dropped, where an inverse would carry 1e17
        m = np.diag([1.0, 1e-17])
        if rotated:
            q = random_orthogonal(np.random.default_rng(3), 2)
            m = q @ m @ q.T
        out = pseudoinverse(m)
        assert np.abs(out).max() < 2.0
        np.testing.assert_allclose(out, _pinv_oracle(m), rtol=0, atol=1e-12)

    def test_singular_gram_meets_moore_penrose(self):
        a = gaussian(11, 12, 5)
        a[:, 4] = a[:, 1]
        g = a.T @ a
        check_moore_penrose(g, pseudoinverse(g))

    def test_rectangular_is_the_svd_pseudoinverse(self):
        m = gaussian(12, 7, 4)
        np.testing.assert_allclose(pseudoinverse(m), _pinv_oracle(m),
                                   rtol=1e-12, atol=1e-14)

    def test_nan_entry_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            pseudoinverse([[1.0, np.nan], [0.0, 1.0]])

    def test_inf_entry_raises(self):
        # LU alone would return the finite "inverse" diag(0, 1)
        with pytest.raises(np.linalg.LinAlgError):
            pseudoinverse([[np.inf, 0.0], [0.0, 1.0]])

    def test_inf_matrix_that_hung_the_svd_raises(self):
        # LAPACK's SVD ran for over 30 s on this matrix
        big = [[np.inf, np.inf, 1.144e308], [np.inf, np.inf, 1.106e308],
               [1.144e308, 1.106e308, 1.256e308]]
        with pytest.raises(np.linalg.LinAlgError):
            pseudoinverse(big)
        with pytest.raises(np.linalg.LinAlgError):
            pseudoinverse(np.array(big)[:, :2])


class TestLuInverses:
    """``lu_inverses`` keeps, for each matrix of a stack, the LU inverse that
    ``pseudoinverse`` returns for it, and None where it takes its SVD."""

    @pytest.mark.parametrize("l", [1, 5, 20])
    def test_kept_inverses_are_pseudoinverses_bit_for_bit(self, monkeypatch,
                                                          l):
        rng = np.random.default_rng(l)
        stack = rng.standard_normal((7, l, l))
        if l > 1:  # cond 1e12, past the rule
            q = random_orthogonal(rng, l)
            stack[2] = (q * np.r_[1.0, np.full(l - 1, 1e-12)]) @ q.T
        stack[4] *= 1e200  # its squares overflow
        svds, real_svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda *a, **k: svds.append(1) or real_svd(*a, **k))
        kept = lu_inverses(stack)
        for m, inv in zip(stack, kept):
            with np.errstate(over="ignore"):
                want = pseudoinverse(m)
            assert len(svds) == (inv is None)
            if inv is not None:
                assert inv.tobytes() == want.tobytes()
            svds.clear()
        assert [inv is None for inv in kept] == \
            [False, False, l > 1, False, True, False, False]

    def test_a_singular_matrix_leaves_the_whole_stack_to_pseudoinverse(self):
        stack = np.stack([np.eye(3), np.diag([1.0, 0.0, 2.0]), 2 * np.eye(3)])
        assert lu_inverses(stack) == [None] * 3


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

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            extremal_eigs([[1.0, np.nan], [np.nan, 1.0]])

    def test_largest_finite_entries(self):
        # (s + s.T) / 2 overflowed to inf here, and eigvalsh gave (nan, nan)
        assert extremal_eigs([[1e308, 1.0], [1.0, 1e308]]) == (1e308, 1e308)

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


class TestFrobenius:
    def test_identity(self):
        assert frobenius_norm_sq(np.eye(3)) == 3.0

    def test_hand_sum(self):
        assert frobenius_norm_sq([[1.0, 2.0], [3.0, 4.0]]) == 30.0

    def test_trace_identity(self):
        m = gaussian(7, 4, 3)
        assert frobenius_norm_sq(m) == pytest.approx(np.trace(m.T @ m), rel=1e-13)


class TestSquaredNorms:
    # row blocks hold 2**17 // n rows: 262 at n = 500, 131 at n = 1000, so
    # these m leave a partial last block; one block covers the narrow shapes
    @pytest.mark.parametrize("m, n", [(2000, 500), (1025, 500), (300, 1000),
                                      (3000, 7), (1025, 3), (50, 20), (7, 3000),
                                      (1, 1), (1, 200_000)])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_bit_identical_to_squared_sum(self, m, n, axis):
        for a in (gaussian(m + n, m, n), np.random.default_rng(n).random((m, n))):
            assert np.array_equal(squared_norms(a, axis), (a * a).sum(axis=axis))


class TestNormalResidual:
    """One pass for ``b - A x`` and ``A^T (b - A x)``. The shapes stay below
    the size at which BLAS splits one product over threads, so ``r`` is
    compared bit for bit whatever the thread count; a small block budget
    makes several blocks of them."""

    # at a budget of 2**10 entries: 24 rows at n = 37, 8 at n = 500 (the
    # floor), 1024 at n = 1
    @pytest.mark.parametrize("m, n", [(203, 37), (200, 37), (17, 500),
                                      (4000, 1), (9, 3), (1, 5)])
    @pytest.mark.parametrize("budget", [1 << 10, linalg.NORMAL_BLOCK])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_r_bit_identical_and_s_within_rounding(self, monkeypatch, m, n,
                                                   budget, order):
        monkeypatch.setattr(linalg, "NORMAL_BLOCK", budget)
        rng = np.random.default_rng(m + n)
        a = np.asarray(rng.standard_normal((m, n)), order=order)
        b, x = rng.standard_normal(m), rng.standard_normal(n)
        r, s = normal_residual(a, b, x)
        want = b - a @ x
        assert np.array_equal(r, want)
        bound = (m + n) * np.finfo(float).eps * (np.abs(a).T @ np.abs(want))
        assert (np.abs(s - a.T @ want) <= bound).all()

    # at a budget of 2**10 entries a block is 24 rows at n = 37, 8 at n = 500
    @pytest.mark.parametrize("m, n", [(1, 37), (17, 37), (24, 37), (47, 37),
                                      (12, 500)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_one_block_is_the_plain_products_bit_for_bit(self, monkeypatch, m,
                                                         n, order):
        monkeypatch.setattr(linalg, "NORMAL_BLOCK", 1 << 10)
        rng = np.random.default_rng(m * n)
        a = np.asarray(rng.standard_normal((m, n)), order=order)
        b, x = rng.standard_normal(m), rng.standard_normal(n)
        r, s = normal_residual(a, b, x)
        want = b - a @ x
        assert np.array_equal(r, want)
        assert np.array_equal(s, a.T @ want)

    def test_blocks_are_multiples_of_eight_rows_and_cover_a(self, monkeypatch):
        monkeypatch.setattr(linalg, "NORMAL_BLOCK", 1 << 10)
        a = gaussian(3, 203, 37)
        seen = []

        class Rows(np.ndarray):
            def __getitem__(self, key):
                seen.append((key.start, key.stop))
                return np.asarray(self)[key]

        normal_residual(a.view(Rows), np.zeros(203), np.ones(37))
        edges = sorted(set(seen))
        assert edges == [(lo, lo + 24) for lo in range(0, 168, 24)] + [(168, 203)]


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
    def test_repr_in_a_scheme(self):
        scheme = make_scheme("K5", block_size=2, g=SpdMatrix(np.eye(3)))
        assert repr(scheme) == ("Scheme(id='K5', block_size=2, "
                                "distribution='uniform', g=SpdMatrix(n=3))")

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

    def test_diagonal_takes_no_eigendecomposition(self, monkeypatch):
        # an identity weight of C5/C6 is m x m: eigvalsh would be O(m^3)
        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh called on a diagonal matrix")
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        w = SpdMatrix(np.eye(500))
        assert (w.n, w.eig_min) == (500, 1.0)

    @pytest.mark.parametrize("entry, shown", [(0.0, "0.000e+00"),
                                              (-3.0, "-3.000e+00")])
    def test_diagonal_with_nonpositive_entry_refused(self, entry, shown):
        d = np.linspace(1.0, 2.0, 6)
        d[4] = entry
        want = f"matrix is not positive definite (smallest eigenvalue {shown})"
        with pytest.raises(ValueError, match=re.escape(want)):
            SpdMatrix(np.diag(d))

    @pytest.mark.parametrize("mat", [np.diag([1.0, np.inf]),
                                     [[1.0, np.nan], [np.nan, 1.0]]])
    def test_rejects_non_finite(self, mat):
        # NaN passes every symmetry and positivity comparison, and an
        # infinite diagonal entry would reach eig_min unchecked
        with pytest.raises(ValueError, match="finite"):
            SpdMatrix(mat)

    def test_largest_finite_entry_does_not_overflow(self):
        w = SpdMatrix([[1e308]])
        assert (w.mat.tolist(), w.eig_min) == ([[1e308]], 1e308)

    @given(seed=st.integers(0, 10_000))
    def test_symmetrized_bits_unchanged_in_normal_range(self, seed):
        rng = np.random.default_rng(seed)
        s = rng.standard_normal((6, 6)) * 10.0 ** rng.uniform(-300, 300)
        s = s + s.T * (1.0 + 1e-14)
        assert np.array_equal(check_symmetric(s), 0.5 * (s + s.T))

    def test_diagonal_product_is_the_dense_product_bit_for_bit(self):
        rng = np.random.default_rng(4)
        w = SpdMatrix(np.diag(1.0 + rng.random(30)))
        assert w.diag is not None
        for v in (rng.standard_normal(30), rng.standard_normal((30, 7)),
                  rng.standard_normal((7, 30)).T):  # C and F order
            out = w @ v
            assert out.flags.c_contiguous
            assert out.tobytes() == (w.mat @ v).tobytes()

    def test_dense_weight_keeps_no_diagonal(self):
        w = SpdMatrix(random_spd(5, 6))
        v = np.random.default_rng(5).standard_normal((6, 3))
        assert w.diag is None
        assert np.array_equal(w @ v, w.mat @ v)

    def test_diagonal_eig_min_is_eigvalsh(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            d = np.diag(rng.random(n) * 10.0 ** rng.uniform(-6, 6, n))
            assert SpdMatrix(d).eig_min == np.linalg.eigvalsh(d)[0]


class TestShapeRefusals:
    @pytest.mark.parametrize("value, shape", [
        (np.ones(3), (3,)), (np.ones((2, 2, 2)), (2, 2, 2)),
        (np.ones((0, 3)), (0, 3)), (np.ones((3, 0)), (3, 0)), (2.0, ()),
    ])
    def test_as_matrix(self, value, shape):
        with pytest.raises(ValueError, match=re.escape(
                f"expected a 2-D matrix, got shape {shape}")):
            linalg.as_matrix(value)

    @pytest.mark.parametrize("value, shape", [(np.ones((3, 1)), (3, 1)),
                                              (2.0, ())])
    def test_as_vector(self, value, shape):
        with pytest.raises(ValueError, match=re.escape(
                f"expected a 1-D vector, got shape {shape}")):
            linalg.as_vector(value)

    def test_check_symmetric(self):
        with pytest.raises(ValueError, match=re.escape(
                "expected a square matrix, got shape (2, 3)")):
            check_symmetric(np.ones((2, 3)))
