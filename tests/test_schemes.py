import copy

import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import given

from helpers import gaussian, random_spd
from sketchsolve import schemes, solver
from sketchsolve.linalg import SpdMatrix, pseudoinverse
from sketchsolve.schemes import (Scheme, SkipStep, error_propagator,
                                 make_scheme, realize_sketch,
                                 reduction_discrepancy, step, step_generic)
from sketchsolve.sketch import (GAUSS, INDEX, SUBSET, UNIFORM,
                                draw_sketch, make_rng)


# the column schemes with a Gram-space update
GRAM_SCHEMES = ("C1", "C2", "C3", "C4")


def _instance(sid: str, seed: int, block: int = 3):
    """A random (scheme, A, b, x, draw) tuple suited to the scheme family."""
    rng = np.random.default_rng(seed)
    if schemes.family(sid) == "S":
        n = int(rng.integers(4, 9))
        a = random_spd(seed + 1, n)
    else:
        m = int(rng.integers(5, 10))
        n = int(rng.integers(3, 8))
        a = rng.standard_normal((m, n))
    m, n = a.shape
    g = None
    if sid in schemes.WEIGHTED_SCHEMES:
        g = SpdMatrix(random_spd(seed + 2, n if sid[0] == "K" else m, lo=0.5, hi=2.0))
    scheme = make_scheme(sid, block_size=block, g=g)
    b = rng.standard_normal(m)
    x = rng.standard_normal(n)
    draw = draw_sketch(scheme, (m, n), rng)
    return scheme, a, b, x, draw


class TestUpdates:
    def test_k1_projects_onto_row(self):
        scheme = make_scheme("K1")
        draw = np.array([0])
        out = step(scheme, np.eye(2), np.array([1.0, 2.0]), np.zeros(2), draw)
        assert np.array_equal(out, [1.0, 0.0])

    def test_k3_full_rows_solves_in_one_step(self):
        a = gaussian(3, 6, 4)
        x_star = np.arange(1.0, 5.0)
        b = a @ x_star
        scheme = make_scheme("K3", block_size=6)
        draw = np.arange(6)
        out = step(scheme, a, b, np.zeros(4), draw)
        assert np.abs(out - x_star).max() < 1e-10

    def test_c1_hand_value(self):
        # column 1 of diag(2, 3): step = 3*3 / 9 along e_1
        a = np.diag([2.0, 3.0])
        scheme = make_scheme("C1")
        draw = np.array([1])
        out = step(scheme, a, np.array([2.0, 3.0]), np.zeros(2), draw)
        assert np.allclose(out, [0.0, 1.0], atol=1e-15)

    def test_does_not_mutate_input(self):
        scheme, a, b, x, draw = _instance("C3", 5)
        x_before = x.copy()
        step(scheme, a, b, x, draw)
        assert np.array_equal(x, x_before)

    @pytest.mark.parametrize("sid", schemes.ALL_SCHEMES)
    def test_specialized_matches_generic(self, sid):
        for seed in range(10):
            scheme, a, b, x, draw = _instance(sid, 100 + seed)
            got = step(scheme, a, b, x, draw)
            want = step_generic(scheme, a, b, x, draw)
            assert np.abs(got - want).max() <= 1e-10 * (1.0 + np.linalg.norm(x))

    @pytest.mark.parametrize("sid", schemes.COL_SCHEMES + schemes.SYM_SCHEMES)
    def test_maintained_residual_follows_iterate(self, sid):
        for seed in range(10):
            scheme, a, b, x, draw = _instance(sid, 100 + seed)
            r = b - a @ x
            got = step(scheme, a, b, x, draw, r=r)
            want = step(scheme, a, b, x, draw)
            assert np.abs(got - want).max() <= 1e-10 * (1.0 + np.linalg.norm(x))
            assert np.linalg.norm(r - (b - a @ got)) <= 1e-12 * np.linalg.norm(b)

    @pytest.mark.parametrize("sid", GRAM_SCHEMES)
    def test_gram_space_matches_generic(self, sid):
        # C1-C4 as the symmetric update on G x = A^T b, carrying s = A^T r
        for seed in range(10):
            scheme, a, b, x, draw = _instance(sid, 100 + seed)
            gram = a.T @ a
            s = a.T @ (b - a @ x)
            got = step(scheme, a, b, x, draw, r=s, gram=gram)
            want = step_generic(scheme, a, b, x, draw)
            assert np.abs(got - want).max() <= 1e-10 * (1.0 + np.linalg.norm(x))
            gap = np.linalg.norm(s - a.T @ (b - a @ got))
            assert gap <= 1e-12 * np.linalg.norm(a) * np.linalg.norm(b)
            # without s the step forms it
            assert np.array_equal(step(scheme, a, b, x, draw, gram=gram), got)

    @pytest.mark.parametrize("sid", ("K1", "K3", "C5", "C6", "S1", "S3"))
    def test_gram_space_only_for_unweighted_column_schemes(self, sid):
        scheme, a, b, x, draw = _instance(sid, 600)
        with pytest.raises(ValueError, match="no Gram-space update"):
            step(scheme, a, b, x, draw, gram=a.T @ a)

    @pytest.mark.parametrize("sid", schemes.ROW_SCHEMES)
    def test_row_schemes_refuse_a_residual(self, sid):
        scheme, a, b, x, draw = _instance(sid, 500)
        assert not schemes.maintains_residual(scheme)
        with pytest.raises(ValueError):
            step(scheme, a, b, x, draw, r=b - a @ x)

    @pytest.mark.parametrize("sid", schemes.ALL_SCHEMES)
    def test_sketched_equations_solved_exactly(self, sid):
        # one update lands on the sketched system Y^T A x = Y^T b
        scheme, a, b, x, draw = _instance(sid, 300 + schemes.ALL_SCHEMES.index(sid))
        y, _ = realize_sketch(scheme, a, draw)
        x1 = step(scheme, a, b, x, draw)
        gap = np.linalg.norm(y.T @ (a @ x1 - b))
        assert gap <= 1e-10 * max(np.linalg.norm(y.T @ b), 1.0)

    @pytest.mark.parametrize("sid", schemes.ALL_SCHEMES)
    def test_update_stays_in_search_space(self, sid):
        scheme, a, b, x, draw = _instance(sid, 400 + schemes.ALL_SCHEMES.index(sid))
        _, z = realize_sketch(scheme, a, draw)
        delta = step(scheme, a, b, x, draw) - x
        fit = z @ np.linalg.lstsq(z, delta, rcond=None)[0]
        assert np.linalg.norm(delta - fit) <= 1e-10 * (1.0 + np.linalg.norm(delta))

    @pytest.mark.parametrize("sid", schemes.ALL_SCHEMES)
    def test_one_pseudoinverse_per_block_step(self, sid, monkeypatch):
        # instrumentation such as perfbench's tracer counts pseudoinverse
        # calls by wrapping this module attribute; every block step must
        # reach it through the attribute, and no scalar step may
        calls = []

        def counting(m):
            calls.append(m.shape)
            return pseudoinverse(m)

        monkeypatch.setattr(schemes, "pseudoinverse", counting)
        scheme, a, b, x, draw = _instance(sid, 900)
        step(scheme, a, b, x, draw)
        assert len(calls) == (0 if sid in schemes.SCALAR_SCHEMES else 1)
        if sid in GRAM_SCHEMES:
            step(scheme, a, b, x, draw, gram=a.T @ a)
            assert len(calls) == (0 if sid in schemes.SCALAR_SCHEMES else 2)


class TestWeightProducts:
    @pytest.mark.parametrize("sid", ["K5", "K6", "C5", "C6"])
    def test_diagonal_weight_steps_as_the_dense_product(self, sid):
        # a diagonal weight scales instead of multiplying: the same bits
        a = gaussian(7, 12, 5)
        d = schemes.weight_dim(sid, a.shape)
        g = SpdMatrix(np.diag(1.0 + make_rng(d).random(d)))
        dense = copy.copy(g)
        dense.diag = None
        scaled, full = (make_scheme(sid, block_size=3, g=w) for w in (g, dense))
        rng = make_rng(8)
        b, x = rng.standard_normal(12), rng.standard_normal(5)
        for _ in range(5):
            draw = draw_sketch(scaled, a.shape, rng)
            assert step(scaled, a, b, x, draw).tobytes() == \
                step(full, a, b, x, draw).tobytes()


class TestGivenColumns:
    """``step(..., az=...)`` takes a Gaussian symmetric id's sketched
    columns from the caller instead of forming them."""

    @pytest.mark.parametrize("sid", ["S2", "S4"])
    def test_given_columns_step_as_formed_ones(self, sid):
        scheme, a, b, x, draw = _instance(sid, 21, block=3)
        r = b - a @ x
        r_given = r.copy()
        out = step(scheme, a, b, x, draw, r=r)
        given = step(scheme, a, b, x, draw, r=r_given, az=a @ draw)
        assert np.allclose(given, out, rtol=1e-13, atol=0.0)
        assert np.allclose(r_given, r, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("sid", ["K2", "K4", "C1", "C2", "C3", "C6",
                                     "S3"])
    def test_only_gaussian_column_ids_take_columns(self, sid):
        scheme, a, b, x, draw = _instance(sid, 22, block=3)
        with pytest.raises(ValueError, match="takes no sketched columns"):
            step(scheme, a, b, x, draw, az=np.zeros((a.shape[0], 3)))


class TestGivenInverse:
    """``step(..., inverse=...)`` takes S4's LU inverse of its sketched
    system from the caller instead of forming the system and its
    pseudoinverse."""

    def test_given_inverse_steps_as_the_pseudoinverse(self):
        scheme, a, b, x, draw = _instance("S4", 23, block=3)
        e = draw.T @ (a @ draw)
        inverse = np.linalg.inv(e)
        assert pseudoinverse(e).tobytes() == inverse.tobytes()
        r, r_given = b - a @ x, b - a @ x
        out = step(scheme, a, b, x, draw, r=r)
        given = step(scheme, a, b, x, draw, r=r_given, inverse=inverse)
        assert given.tobytes() == out.tobytes()
        assert r_given.tobytes() == r.tobytes()

    @pytest.mark.parametrize("sid", ["S2", "S3", "C4", "C6", "K4"])
    def test_only_s4_takes_an_inverse(self, sid):
        scheme, a, b, x, draw = _instance(sid, 24, block=3)
        with pytest.raises(ValueError, match="takes no sketched inverse"):
            step(scheme, a, b, x, draw, inverse=np.eye(3))


class TestMonotonicity:
    @given(seed=st.integers(0, 5_000), sid=st.sampled_from(["K1", "K2", "K3", "K4"]))
    def test_row_schemes_never_increase_euclidean_error(self, seed, sid):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((7, 4))
        x_star = rng.standard_normal(4)
        b = a @ x_star
        x = rng.standard_normal(4)
        scheme = make_scheme(sid, block_size=2)
        draw = draw_sketch(scheme, a.shape, rng)
        x1 = step(scheme, a, b, x, draw)
        assert np.linalg.norm(x1 - x_star) <= np.linalg.norm(x - x_star) + 1e-12

    @given(seed=st.integers(0, 5_000),
           sid=st.sampled_from(["C1", "C2", "C3", "C4", "C5", "C6"]))
    def test_column_schemes_never_increase_gram_error(self, seed, sid):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((7, 4))
        g = SpdMatrix(random_spd(seed + 9, 7, lo=0.5, hi=2.0)) \
            if sid in schemes.WEIGHTED_SCHEMES else None
        gram = a.T @ (g.mat if g else np.eye(7)) @ a
        x_star = rng.standard_normal(4)
        b = a @ x_star
        x = rng.standard_normal(4)
        scheme = make_scheme(sid, block_size=2, g=g)
        draw = draw_sketch(scheme, a.shape, rng)
        e0 = x - x_star
        e1 = step(scheme, a, b, x, draw) - x_star
        assert e1 @ gram @ e1 <= e0 @ gram @ e0 + 1e-12


class TestDegenerateDraws:
    def test_k1_zero_row_skips(self):
        a = np.array([[0.0, 0.0], [1.0, 2.0]])
        draw = np.array([0])
        with pytest.raises(SkipStep):
            step(make_scheme("K1"), a, np.zeros(2), np.zeros(2), draw)

    def test_c1_zero_column_skips(self):
        a = np.array([[0.0, 1.0], [0.0, 2.0]])
        draw = np.array([0])
        with pytest.raises(SkipStep):
            step(make_scheme("C1"), a, np.zeros(2), np.zeros(2), draw)

    @pytest.mark.parametrize("sid, draw", [
        ("C1", np.array([0])),
        ("C2", np.array([[1.0], [0.0]])),
        ("S1", np.array([0])),
        ("S2", np.array([[1.0], [0.0]])),
    ])
    def test_skip_leaves_residual_untouched(self, sid, draw):
        # column 0 and the diagonal entry a[0, 0] are zero
        a = np.array([[0.0, 1.0], [0.0, 2.0]])
        b = np.array([1.0, -1.0])
        x = np.array([0.5, 0.25])
        r = b - a @ x
        r_before = r.copy()
        with pytest.raises(SkipStep):
            step(make_scheme(sid), a, b, x, draw, r=r)
        assert np.array_equal(r, r_before)

    @pytest.mark.parametrize("sid, a", [
        ("K3", np.array([[0.0, 0.0], [1.0, 2.0]])),  # zero row 0
        ("C3", np.array([[0.0, 1.0], [0.0, 2.0]])),  # zero column 0
        ("S3", np.diag([0.0, 2.0])),  # zero diagonal entry 0
    ])
    def test_block_ids_at_width_one_do_not_skip(self, sid, a):
        # the closed form and SkipStep belong to the scalar ids, not to any
        # width-1 draw: a block id at l = 1 solves through the pseudoinverse,
        # which leaves x where it is on the degenerate index
        draw = np.array([0])
        scheme = make_scheme(sid, block_size=1)
        b = np.array([1.0, -1.0])
        x = np.array([0.5, 0.25])
        r = b - a @ x if schemes.maintains_residual(scheme) else None
        got = step(scheme, a, b, x, draw, r=r)
        assert np.array_equal(got, step_generic(scheme, a, b, x, draw))
        assert np.array_equal(got, x)
        if r is not None:
            assert np.array_equal(r, b - a @ x)

    def test_k1_overflowing_row_skips(self):
        # the 1x1 denominator overflows to inf, and ytr / inf is a null step
        a = np.array([[1e160, 1e160], [1.0, 2.0]])
        with np.errstate(over="ignore"), pytest.raises(SkipStep):
            step(make_scheme("K1"), a, np.ones(2), np.zeros(2), np.array([0]))

    def test_nan_denominator_is_not_skipped(self):
        # a NaN step runs on: the next record stops the run with NonFinite
        a = np.array([[np.nan, 1.0], [1.0, 2.0]])
        got = step(make_scheme("K1"), a, np.ones(2), np.zeros(2), np.array([0]))
        assert np.isnan(got).all()

    def test_skip_is_not_a_value_error(self):
        assert not issubclass(SkipStep, ValueError)

    def test_block_schemes_tolerate_singular_sketch(self):
        # duplicated rows of A, columns of A or columns of W make the
        # sketched system singular in both block kernels; pseudoinverse
        # keeps the step defined and consistent with the generic formula
        w = gaussian(34, 4, 1)
        cases = [
            ("K3", np.vstack([np.ones((2, 3)), gaussian(31, 2, 3)]),
             np.array([0, 1])),
            ("C3", np.hstack([np.ones((5, 2)), gaussian(32, 5, 2)]),
             np.array([0, 1, 3])),
            ("K4", gaussian(35, 4, 3),
             np.hstack([w, w])),
            ("C4", gaussian(36, 6, 4),
             np.hstack([w, w])),
            ("S4", random_spd(33, 4),
             np.hstack([w, w])),
        ]
        for sid, a, draw in cases:
            scheme = make_scheme(sid, block_size=draw.shape[-1])
            b = a @ np.ones(a.shape[1])
            x = np.zeros(a.shape[1])
            r = b - a @ x if schemes.maintains_residual(scheme) else None
            got = step(scheme, a, b, x, draw, r=r)
            want = step_generic(scheme, a, b, x, draw)
            assert np.abs(got - want).max() < 1e-10, sid
            if r is not None:
                gap = np.linalg.norm(r - (b - a @ got))
                assert gap <= 1e-12 * np.linalg.norm(b), sid
            if sid in GRAM_SCHEMES:
                got = step(scheme, a, b, x, draw, gram=a.T @ a)
                assert np.abs(got - want).max() < 1e-10, sid


class TestPropagator:
    def test_coordinate_projector(self):
        draw = np.array([0])
        t = error_propagator(make_scheme("K1"), np.eye(2), draw)
        assert np.allclose(t, np.diag([0.0, 1.0]), atol=1e-14)

    def test_full_row_sketch_annihilates(self):
        a = gaussian(9, 5, 3)
        draw = np.arange(5)
        t = error_propagator(make_scheme("K3", block_size=5), a, draw)
        assert np.abs(t).max() < 1e-12

    @pytest.mark.parametrize("sid", schemes.ALL_SCHEMES)
    def test_idempotent(self, sid):
        # T = I - Z E^+ Y^T A with E = Y^T A Z is idempotent up to rounding
        # in units of eps cond(E): over seeds 700-796 and all sixteen ids
        # |T T - T| stayed below 6.1 eps cond(E)
        scheme, a, _, _, draw = _instance(sid, 700 + schemes.ALL_SCHEMES.index(sid))
        t = error_propagator(scheme, a, draw)
        y, z = realize_sketch(scheme, a, draw)
        cond = np.linalg.cond(y.T @ a @ z)
        assert np.abs(t @ t - t).max() <= 16 * np.finfo(float).eps * cond


class TestReductions:
    def test_diagonal_subset_case(self):
        a = SpdMatrix(np.diag([1.0, 2.0]))
        draw = np.array([0])
        b = np.array([0.3, -1.1])
        x = np.array([2.0, 0.5])
        assert reduction_discrepancy(a, draw, b, x) <= 1e-10

    def test_gaussian_case(self):
        rng = make_rng(3)
        a = SpdMatrix(random_spd(41, 5, lo=0.5, hi=2.5))
        draw = rng.standard_normal((5, 2))
        b = rng.standard_normal(5)
        x = rng.standard_normal(5)
        assert reduction_discrepancy(a, draw, b, x) <= 1e-9

    def test_identity_weight_is_negative_control(self):
        rng = make_rng(4)
        a = SpdMatrix(random_spd(43, 4, lo=0.3, hi=3.0))
        draw = np.array([0, 2])
        b = rng.standard_normal(4)
        x = rng.standard_normal(4)
        off = reduction_discrepancy(a, draw, b, x, g=SpdMatrix(np.eye(4)))
        assert off > 1e-6


class TestDrawFit:
    """A draw fits a scheme by its type (indices or a dense block) and its
    width, on the scheme's axis; which axis drew it does not matter."""

    @staticmethod
    def _calls(scheme, draw):
        a = random_spd(51, 6)
        b, x = np.ones(6), np.zeros(6)
        return (lambda: step(scheme, a, b, x, draw),
                lambda: step_generic(scheme, a, b, x, draw),
                lambda: error_propagator(scheme, a, draw))

    @staticmethod
    def _draw(scheme, width):
        if scheme.kind == GAUSS:
            return gaussian(52, 6, width)
        return np.array([0, 3, 5][:width])

    @pytest.mark.parametrize("sid", schemes.SCALAR_SCHEMES)
    def test_scalar_ids_refuse_width_two(self, sid):
        # the fast path would use the first index or column alone, while
        # the oracle projects onto both
        scheme = make_scheme(sid)
        for call in self._calls(scheme, self._draw(scheme, 2)):
            with pytest.raises(ValueError, match=r"expects (1 distinct .*|a "
                               r"float .*\(6, 1\)); got \w+ array of shape "
                               r"\((6, )?2,?\)"):
                call()

    @pytest.mark.parametrize("sid", ["K3", "C4", "S3", "S4"])
    def test_block_ids_refuse_another_width(self, sid):
        scheme = make_scheme(sid, block_size=3)
        for call in self._calls(scheme, self._draw(scheme, 2)):
            with pytest.raises(ValueError, match=r"expects (3 distinct .*|a "
                               r"float .*\(6, 3\)); got \w+ array of shape "
                               r"\((6, )?2,?\)"):
                call()

    @pytest.mark.parametrize("sid", ["K1", "C1", "S1", "K3", "C3", "S3"])
    def test_one_index_fits_k1_and_k3_whatever_axis_drew_it(self, sid):
        a = gaussian(53, 6, 4)
        b = a @ np.arange(1.0, 5.0)
        x = np.full(4, 0.5)
        draw = draw_sketch(make_scheme(sid, block_size=1), a.shape,
                           make_rng(54))
        for scheme in (make_scheme("K1"), make_scheme("K3", block_size=1)):
            got = step(scheme, a, b, x, draw)
            want = step_generic(scheme, a, b, x, draw)
            assert np.abs(got - want).max() <= 1e-12, scheme.id


class TestDrawRefusals:
    """``_check_draw`` is the one check of a draw against its scheme and its
    system: the fast path, the oracle, the realized sketch and the
    propagator all refuse a draw that does not fit, naming the scheme."""

    # (id, block_size, draw) on a 6 x 4 system, or its 4 x 4 SPD Gram matrix
    # for S ids
    CASES = {
        # the unwrapped indices: K3 and C3 would step on a repeated row or
        # column, K1 on the last row
        "negative-K3": ("K3", 2, np.array([0, -6])),
        "negative-C3": ("C3", 2, np.array([0, -4])),
        "negative-K1": ("K1", 1, np.array([-1])),
        "past-end-K1": ("K1", 1, np.array([6])),
        "past-end-C1": ("C1", 1, np.array([4])),
        "past-end-S3": ("S3", 2, np.array([1, 4])),
        "float-indices": ("K3", 2, np.array([0.0, 1.0])),
        "bool-indices": ("C1", 1, np.array([True])),
        "gauss-rows-K2": ("K2", 1, gaussian(61, 4, 1)),
        "gauss-rows-C4": ("C4", 2, gaussian(62, 6, 2)),
        "gauss-rows-S4": ("S4", 2, gaussian(63, 6, 2)),
        "gauss-1d": ("K2", 1, gaussian(64, 6, 1)[:, 0]),
        "gauss-int": ("K4", 2, np.ones((6, 2), dtype=int)),
        "repeated": ("K3", 2, np.array([2, 2])),
        "width": ("K1", 1, np.array([0, 1])),
        "gauss-for-index": ("K1", 1, np.ones((6, 1))),
        "indices-for-gauss": ("S2", 1, np.array([0])),
        "list": ("K3", 2, [0, 1]),
    }

    @pytest.mark.parametrize("entry", ["step", "step_generic",
                                       "realize_sketch", "error_propagator"])
    @pytest.mark.parametrize("case", CASES)
    def test_refused(self, case, entry):
        sid, width, draw = self.CASES[case]
        a = gaussian(60, 6, 4)
        if sid[0] == "S":
            a = a.T @ a
        b, x = np.ones(a.shape[0]), np.zeros(a.shape[1])
        scheme = make_scheme(sid, block_size=width)
        call = {"step": lambda: step(scheme, a, b, x, draw),
                "step_generic": lambda: step_generic(scheme, a, b, x, draw),
                "realize_sketch": lambda: realize_sketch(scheme, a, draw),
                "error_propagator": lambda: error_propagator(scheme, a, draw)}
        with pytest.raises(ValueError, match=f"scheme {sid} expects"):
            call[entry]()

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8])
    def test_any_integer_type_fits(self, dtype):
        a = gaussian(65, 6, 4)
        b, x = a @ np.ones(4), np.zeros(4)
        draw = np.array([5, 0], dtype=dtype)
        scheme = make_scheme("K3", block_size=2)
        want = step(scheme, a, b, x, draw.astype(np.int64))
        assert np.array_equal(step(scheme, a, b, x, draw), want)
        assert np.abs(step_generic(scheme, a, b, x, draw) - want).max() <= 1e-12


class TestSchemeValidation:
    @pytest.mark.parametrize("weighted, plain", [
        ("K5", "K3"), ("K6", "K4"), ("C5", "C3"), ("C6", "C4")])
    def test_omitted_weight_runs_as_the_unweighted_id(self, monkeypatch,
                                                        weighted, plain):
        # G = I: the weighted id with no g is its unweighted id, bit for bit,
        # in Gram space too (C on the tall system, past the use-G condition)
        gram_steps = []
        real_step = schemes.step

        def spying_step(scheme, *args, gram=None, **kwargs):
            gram_steps.append((scheme.id, gram is not None))
            return real_step(scheme, *args, gram=gram, **kwargs)

        monkeypatch.setattr(schemes, "step", spying_step)
        tall = np.random.default_rng(5).standard_normal((2048, 64))
        small = np.random.default_rng(6).standard_normal((30, 8))
        for a in (tall, small):
            prob = solver.Problem(a=a, b=a @ np.ones(a.shape[1]),
                                  x_star=np.ones(a.shape[1]))
            runs = []
            for sid in (weighted, plain):
                gram_steps.clear()
                rng = make_rng(17)
                x, trace = solver.solve(prob, make_scheme(sid, block_size=4),
                                        solver.StopRule(itmax=300, tol=1e-10),
                                        rng)
                assert len(trace.records) > 2
                # records: all but the wall clock
                runs.append((x.tobytes(), trace.status, trace.skip_count,
                             trace.exact_recomputes, rng.bit_generator.state,
                             [(r.k, r.rel_residual, r.rel_error)
                              for r in trace.records]))
                in_gram = sid[0] == "C" and a is tall
                assert {used for _, used in gram_steps} == {in_gram}
            assert runs[0] == runs[1]

    def test_weight_forbidden(self):
        with pytest.raises(ValueError):
            make_scheme("K3", block_size=2, g=SpdMatrix(np.eye(3)))

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            make_scheme("K9")

    # each id's draw: the catalog table in the schemes module docstring
    DRAWS = {
        "K1": (INDEX, "rows"), "K2": (GAUSS, "rows"),
        "K3": (SUBSET, "rows"), "K4": (GAUSS, "rows"),
        "K5": (SUBSET, "rows"), "K6": (GAUSS, "rows"),
        "C1": (INDEX, "cols"), "C2": (GAUSS, "cols"),
        "C3": (SUBSET, "cols"), "C4": (GAUSS, "cols"),
        "C5": (SUBSET, "cols"), "C6": (GAUSS, "cols"),
        "S1": (INDEX, "rows"), "S2": (GAUSS, "cols"),
        "S3": (SUBSET, "cols"), "S4": (GAUSS, "cols"),
    }

    @pytest.mark.parametrize("sid", schemes.ALL_SCHEMES)
    def test_spec_and_family_rules_follow_from_the_id(self, sid):
        weighted = sid in schemes.WEIGHTED_SCHEMES
        g = SpdMatrix(np.eye(3)) if weighted else None
        scheme = make_scheme(sid, block_size=3, g=g)
        kind, axis = self.DRAWS[sid]
        assert (scheme.kind, scheme.axis, scheme.distribution) == (
            kind, axis, UNIFORM)
        width = 1 if sid in schemes.SCALAR_SCHEMES else 3
        assert scheme.block_size == width
        assert scheme.gram_form == (sid in GRAM_SCHEMES)
        if weighted:
            assert schemes.weight_dim(sid, (7, 5)) == (5 if sid[0] == "K" else 7)
        # the draw is derived, never passed in
        for derived in ("kind", "axis"):
            with pytest.raises(TypeError):
                Scheme(sid, g=g, **{derived: getattr(scheme, derived)})

    def test_serialized_ids(self):
        assert schemes.ALL_SCHEMES == (
            "K1", "K2", "K3", "K4", "K5", "K6",
            "C1", "C2", "C3", "C4", "C5", "C6",
            "S1", "S2", "S3", "S4")

    def test_generic_xi_is_consistent_with_propagator(self):
        # I - T must equal Xi A assembled from the same draw
        scheme, a, _, _, draw = _instance("C4", 77)
        y, z = realize_sketch(scheme, a, draw)
        xi = z @ pseudoinverse(y.T @ a @ z) @ y.T
        t = error_propagator(scheme, a, draw)
        assert np.abs((np.eye(a.shape[1]) - t) - xi @ a).max() < 1e-10

    def test_unknown_id_through_family(self):
        with pytest.raises(ValueError, match="unknown scheme 'K9'"):
            schemes.family("K9")

    def test_unknown_distribution(self):
        with pytest.raises(ValueError, match="unknown distribution 'bogus'"):
            make_scheme("K1", distribution="bogus")
