import numpy as np
import pytest
import hypothesis.strategies as st
from hypothesis import given

from helpers import gaussian, random_spd
from sketchsolve import schemes
from sketchsolve.linalg import SpdMatrix, pseudoinverse
from sketchsolve.schemes import (SkipStep, error_propagator, make_scheme,
                                 realize_sketch, reduction_discrepancy, step,
                                 step_generic)
from sketchsolve.sketch import (COL_SUBSET, COORD_COL, COORD_ROW, GAUSS_MATRIX,
                                GAUSS_VECTOR, ROW_SUBSET, SketchDraw,
                                draw_sketch, make_rng)


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
    draw = draw_sketch(scheme.spec, (m, n), rng)
    return scheme, a, b, x, draw


class TestUpdates:
    def test_k1_projects_onto_row(self):
        scheme = make_scheme("K1")
        draw = SketchDraw(kind=COORD_ROW, indices=np.array([0]))
        out = step(scheme, np.eye(2), np.array([1.0, 2.0]), np.zeros(2), draw)
        assert np.array_equal(out, [1.0, 0.0])

    def test_k3_full_rows_solves_in_one_step(self):
        a = gaussian(3, 6, 4)
        x_star = np.arange(1.0, 5.0)
        b = a @ x_star
        scheme = make_scheme("K3", block_size=6)
        draw = SketchDraw(kind=ROW_SUBSET, indices=np.arange(6))
        out = step(scheme, a, b, np.zeros(4), draw)
        assert np.abs(out - x_star).max() < 1e-10

    def test_c1_hand_value(self):
        # column 1 of diag(2, 3): step = 3*3 / 9 along e_1
        a = np.diag([2.0, 3.0])
        scheme = make_scheme("C1")
        draw = SketchDraw(kind=COORD_COL, indices=np.array([1]))
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

    @pytest.mark.parametrize("sid", schemes.ROW_SCHEMES)
    def test_row_schemes_refuse_a_residual(self, sid):
        scheme, a, b, x, draw = _instance(sid, 500)
        assert not schemes.maintains_residual(scheme)
        with pytest.raises(ValueError):
            step(scheme, a, b, x, draw, r=b - a @ x)

    @pytest.mark.parametrize("sid", schemes.ALL_SCHEMES)
    def test_sketched_equations_solved_exactly(self, sid):
        # one update lands on the sketched system Y^T A x = Y^T b
        scheme, a, b, x, draw = _instance(sid, 300 + hash(sid) % 50)
        y, _ = realize_sketch(scheme, a, draw)
        x1 = step(scheme, a, b, x, draw)
        gap = np.linalg.norm(y.T @ (a @ x1 - b))
        assert gap <= 1e-10 * max(np.linalg.norm(y.T @ b), 1.0)

    @pytest.mark.parametrize("sid", schemes.ALL_SCHEMES)
    def test_update_stays_in_search_space(self, sid):
        scheme, a, b, x, draw = _instance(sid, 400 + hash(sid) % 50)
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


class TestMonotonicity:
    @given(seed=st.integers(0, 5_000), sid=st.sampled_from(["K1", "K2", "K3", "K4"]))
    def test_row_schemes_never_increase_euclidean_error(self, seed, sid):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((7, 4))
        x_star = rng.standard_normal(4)
        b = a @ x_star
        x = rng.standard_normal(4)
        scheme = make_scheme(sid, block_size=2)
        draw = draw_sketch(scheme.spec, a.shape, rng)
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
        draw = draw_sketch(scheme.spec, a.shape, rng)
        e0 = x - x_star
        e1 = step(scheme, a, b, x, draw) - x_star
        assert e1 @ gram @ e1 <= e0 @ gram @ e0 + 1e-12


class TestDegenerateDraws:
    def test_k1_zero_row_skips(self):
        a = np.array([[0.0, 0.0], [1.0, 2.0]])
        draw = SketchDraw(kind=COORD_ROW, indices=np.array([0]))
        with pytest.raises(SkipStep):
            step(make_scheme("K1"), a, np.zeros(2), np.zeros(2), draw)

    def test_c1_zero_column_skips(self):
        a = np.array([[0.0, 1.0], [0.0, 2.0]])
        draw = SketchDraw(kind=COORD_COL, indices=np.array([0]))
        with pytest.raises(SkipStep):
            step(make_scheme("C1"), a, np.zeros(2), np.zeros(2), draw)

    @pytest.mark.parametrize("sid, draw", [
        ("C1", SketchDraw(kind=COORD_COL, indices=np.array([0]))),
        ("C2", SketchDraw(kind=GAUSS_VECTOR, dense=np.array([[1.0], [0.0]]))),
        ("S1", SketchDraw(kind=COORD_ROW, indices=np.array([0]))),
        ("S2", SketchDraw(kind=GAUSS_VECTOR, dense=np.array([[1.0], [0.0]]))),
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
        kind = ROW_SUBSET if sid == "K3" else COL_SUBSET
        draw = SketchDraw(kind=kind, indices=np.array([0]))
        scheme = make_scheme(sid, block_size=1)
        b = np.array([1.0, -1.0])
        x = np.array([0.5, 0.25])
        r = b - a @ x if schemes.maintains_residual(scheme) else None
        got = step(scheme, a, b, x, draw, r=r)
        assert np.array_equal(got, step_generic(scheme, a, b, x, draw))
        assert np.array_equal(got, x)
        if r is not None:
            assert np.array_equal(r, b - a @ x)

    def test_skip_is_not_a_value_error(self):
        assert not issubclass(SkipStep, ValueError)

    def test_block_schemes_tolerate_singular_sketch(self):
        # duplicated rows of A, columns of A or columns of W make the
        # sketched system singular in both block kernels; pseudoinverse
        # keeps the step defined and consistent with the generic formula
        w = gaussian(34, 4, 1)
        cases = [
            ("K3", np.vstack([np.ones((2, 3)), gaussian(31, 2, 3)]),
             SketchDraw(kind=ROW_SUBSET, indices=np.array([0, 1]))),
            ("C3", np.hstack([np.ones((5, 2)), gaussian(32, 5, 2)]),
             SketchDraw(kind=COL_SUBSET, indices=np.array([0, 1, 3]))),
            ("K4", gaussian(35, 4, 3),
             SketchDraw(kind=GAUSS_MATRIX, dense=np.hstack([w, w]))),
            ("C4", gaussian(36, 6, 4),
             SketchDraw(kind=GAUSS_MATRIX, dense=np.hstack([w, w]))),
            ("S4", random_spd(33, 4),
             SketchDraw(kind=GAUSS_MATRIX, dense=np.hstack([w, w]))),
        ]
        for sid, a, draw in cases:
            scheme = make_scheme(sid, block_size=draw.width)
            b = a @ np.ones(a.shape[1])
            x = np.zeros(a.shape[1])
            r = b - a @ x if schemes.maintains_residual(scheme) else None
            got = step(scheme, a, b, x, draw, r=r)
            want = step_generic(scheme, a, b, x, draw)
            assert np.abs(got - want).max() < 1e-10, sid
            if r is not None:
                gap = np.linalg.norm(r - (b - a @ got))
                assert gap <= 1e-12 * np.linalg.norm(b), sid


class TestPropagator:
    def test_coordinate_projector(self):
        draw = SketchDraw(kind=COORD_ROW, indices=np.array([0]))
        t = error_propagator(make_scheme("K1"), np.eye(2), draw)
        assert np.allclose(t, np.diag([0.0, 1.0]), atol=1e-14)

    def test_full_row_sketch_annihilates(self):
        a = gaussian(9, 5, 3)
        draw = SketchDraw(kind=ROW_SUBSET, indices=np.arange(5))
        t = error_propagator(make_scheme("K3", block_size=5), a, draw)
        assert np.abs(t).max() < 1e-12

    @pytest.mark.parametrize("sid", schemes.ALL_SCHEMES)
    def test_idempotent(self, sid):
        scheme, a, _, _, draw = _instance(sid, 700 + hash(sid) % 97)
        t = error_propagator(scheme, a, draw)
        assert np.abs(t @ t - t).max() <= 1e-10


class TestReductions:
    def test_diagonal_subset_case(self):
        a = SpdMatrix(np.diag([1.0, 2.0]))
        draw = SketchDraw(kind=COL_SUBSET, indices=np.array([0]))
        b = np.array([0.3, -1.1])
        x = np.array([2.0, 0.5])
        assert reduction_discrepancy(a, draw, b, x) <= 1e-10

    def test_gaussian_case(self):
        rng = make_rng(3)
        a = SpdMatrix(random_spd(41, 5, lo=0.5, hi=2.5))
        draw = SketchDraw(kind=GAUSS_MATRIX, dense=rng.standard_normal((5, 2)))
        b = rng.standard_normal(5)
        x = rng.standard_normal(5)
        assert reduction_discrepancy(a, draw, b, x) <= 1e-9

    def test_identity_weight_is_negative_control(self):
        rng = make_rng(4)
        a = SpdMatrix(random_spd(43, 4, lo=0.3, hi=3.0))
        draw = SketchDraw(kind=COL_SUBSET, indices=np.array([0, 2]))
        b = rng.standard_normal(4)
        x = rng.standard_normal(4)
        off = reduction_discrepancy(a, draw, b, x, g=SpdMatrix(np.eye(4)))
        assert off > 1e-6


class TestSchemeValidation:
    def test_weight_required(self):
        with pytest.raises(ValueError):
            make_scheme("K5", block_size=2)

    def test_weight_forbidden(self):
        with pytest.raises(ValueError):
            make_scheme("K3", block_size=2, g=SpdMatrix(np.eye(3)))

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            make_scheme("K9")

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
