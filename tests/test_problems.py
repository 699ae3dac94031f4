import math

import numpy as np
import pytest

from sketchsolve.linalg import SpdMatrix
from sketchsolve.problems import (MatrixMarketError, ProblemSpec, generate,
                                  load_matrixmarket, save_matrixmarket,
                                  sparse_pattern)
from sketchsolve.sketch import make_rng


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ProblemSpec(kind="Dense", m=2, n=2)

    def test_spd_must_be_square(self):
        with pytest.raises(ValueError):
            ProblemSpec(kind="SparseSpd", m=3, n=4)

    def test_from_file_needs_path(self):
        with pytest.raises(ValueError):
            ProblemSpec(kind="FromFile")

    @pytest.mark.parametrize("param", [{"m": 3}, {"n": 99}, {"seed": 5},
                                       {"m": 0}, {"seed": 0}])
    def test_from_file_rejects_generator_parameters(self, param):
        # the file decides the shape; an explicit m, n or seed would be ignored
        with pytest.raises(ValueError, match="FromFile problems take no"):
            ProblemSpec(kind="FromFile", path="A.mtx", **param)

    def test_generated_kinds_keep_their_defaults(self):
        spec = ProblemSpec(kind="UniformDense", m=3, n=2)
        assert spec.seed == 0
        assert np.array_equal(generate(spec).a,
                              generate(ProblemSpec(kind="UniformDense", m=3, n=2,
                                                   seed=0)).a)
        with pytest.raises(ValueError, match="m and n must be >= 1"):
            ProblemSpec(kind="UniformDense", n=2)
        assert ProblemSpec(kind="FromFile", path="A.mtx").m is None

    def test_density_range(self):
        for kind, params in [
            ("SparseNormal", {"density": 1.5}),
            ("SparseNormal", {"rc": 0.0}),
            # parameters the generator would ignore are rejected, not echoed
            ("SparseSpd", {"density": 0.5}),
            ("UniformDense", {"density": 0.5}),
            ("UniformDense", {"rc": 0.5}),
            ("FromFile", {"rc": 0.5, "path": "A.mtx"}),
        ]:
            with pytest.raises(ValueError):
                ProblemSpec(kind=kind, m=4, n=4, **params)

    def test_spd_reports_no_density(self):
        prob = generate(ProblemSpec(kind="SparseSpd", m=6, n=6, rc=0.5, seed=1))
        assert prob.stats.density is None
        assert prob.stats.to_json_dict()["density"] is None
        assert prob.stats.rc == 0.5

    def test_defaults(self):
        spec = ProblemSpec(kind="SparseNormal", m=100, n=100)
        assert spec.resolved_density() == pytest.approx(1.0 / math.log(10_000))
        assert spec.resolved_rc() == pytest.approx(0.01)


class TestGenerate:
    def test_uniform_dense_definition(self):
        prob = generate(ProblemSpec(kind="UniformDense", m=2, n=2, seed=0))
        assert prob.a.shape == (2, 2)
        assert np.all((prob.a > 0.0) & (prob.a < 1.0))
        assert np.array_equal(prob.b, prob.a @ np.ones(2))
        assert np.array_equal(prob.x_star, np.ones(2))

    def test_generated_system_exactly_consistent(self):
        for kind, m, n in [("UniformDense", 30, 7), ("SparseNormal", 25, 12),
                           ("SparseSpd", 15, 15)]:
            prob = generate(ProblemSpec(kind=kind, m=m, n=n, seed=3))
            assert np.linalg.norm(prob.a @ prob.x_star - prob.b) == 0.0

    def test_seed_determinism(self):
        spec = ProblemSpec(kind="SparseNormal", m=20, n=10, seed=11)
        a1 = generate(spec).a
        a2 = generate(ProblemSpec(kind="SparseNormal", m=20, n=10, seed=11)).a
        assert np.array_equal(a1, a2)

    def test_spd_conditioning(self):
        spec = ProblemSpec(kind="SparseSpd", m=50, n=50, seed=5)
        prob = generate(spec)
        SpdMatrix(prob.a)  # must validate
        w = np.linalg.eigvalsh(0.5 * (prob.a + prob.a.T))
        kappa = w[-1] / w[0]
        want = 1.0 / spec.resolved_rc()
        assert abs(kappa - want) <= 0.05 * want
        assert prob.stats.achieved_rc == pytest.approx(spec.resolved_rc(), rel=1e-6)

    def test_sparse_normal_pattern_density(self):
        spec = ProblemSpec(kind="SparseNormal", m=100, n=100, seed=7)
        prob = generate(spec)
        want = 1.0 / math.log(10_000)
        assert abs(prob.stats.pattern_density - want) <= 0.2 * want

    def test_sparse_normal_conditioning(self):
        spec = ProblemSpec(kind="SparseNormal", m=40, n=25, seed=9)
        prob = generate(spec)
        sv = np.linalg.svd(prob.a, compute_uv=False)
        rc = spec.resolved_rc()
        assert abs(sv[-1] / sv[0] - rc) <= 0.05 * rc

    def test_sparse_pattern_is_bernoulli(self):
        mask = sparse_pattern(200, 200, 0.1, make_rng(1))
        assert abs(mask.mean() - 0.1) < 0.02

    def test_structural_deficiency_flagged(self):
        spec = ProblemSpec(kind="SparseNormal", m=30, n=30, density=0.02, seed=13)
        prob = generate(spec)
        assert prob.stats.structurally_deficient


class TestMatrixMarket:
    def test_coordinate_identity(self, tmp_path):
        path = tmp_path / "eye.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 2\n1 1 1.0\n2 2 1.0\n")
        assert np.array_equal(load_matrixmarket(path), np.eye(2))

    def test_array_column_major(self, tmp_path):
        path = tmp_path / "a.mtx"
        values = "\n".join(str(v) for v in [1, 2, 3, 4, 5, 6])
        path.write_text("%%MatrixMarket matrix array real general\n"
                        f"3 2\n{values}\n")
        want = np.array([[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]])
        assert np.array_equal(load_matrixmarket(path), want)

    def test_symmetric_expansion(self, tmp_path):
        path = tmp_path / "s.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                        "2 2 2\n1 1 2.0\n2 1 -1.0\n")
        want = np.array([[2.0, -1.0], [-1.0, 0.0]])
        assert np.array_equal(load_matrixmarket(path), want)

    def test_symmetric_array_lower_triangle(self, tmp_path):
        path = tmp_path / "s.mtx"
        path.write_text("%%MatrixMarket matrix array real symmetric\n"
                        "2 2\n1.0\n7.0\n3.0\n")
        want = np.array([[1.0, 7.0], [7.0, 3.0]])
        assert np.array_equal(load_matrixmarket(path), want)

    @pytest.mark.parametrize("fmt", ["array", "coordinate"])
    def test_round_trip_bit_for_bit(self, tmp_path, fmt):
        rng = make_rng(17)
        a = rng.standard_normal((4, 3))
        a[rng.random((4, 3)) < 0.3] = 0.0
        path = tmp_path / "rt.mtx"
        save_matrixmarket(path, a, fmt=fmt)
        assert np.array_equal(load_matrixmarket(path), a)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "% a comment\n\n2 2 1\n% another\n2 1 5.0\n")
        assert load_matrixmarket(path)[1, 0] == 5.0

    def test_bad_header_reports_line(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%%NotMatrixMarket\n1 1 1\n")
        with pytest.raises(MatrixMarketError, match=":1:"):
            load_matrixmarket(path)

    def test_integer_field_rejected(self, tmp_path):
        path = tmp_path / "int.mtx"
        path.write_text("%%MatrixMarket matrix coordinate integer general\n"
                        "1 1 1\n1 1 2\n")
        with pytest.raises(MatrixMarketError):
            load_matrixmarket(path)

    def test_malformed_entry_reports_line(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 1\n1 x 1.0\n")
        with pytest.raises(MatrixMarketError, match=":3:"):
            load_matrixmarket(path)

    def test_out_of_range_index(self, tmp_path):
        path = tmp_path / "oob.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 1\n3 1 1.0\n")
        with pytest.raises(MatrixMarketError, match="out of range"):
            load_matrixmarket(path)

    def test_wrong_value_count(self, tmp_path):
        path = tmp_path / "short.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n2 2\n1.0\n")
        with pytest.raises(MatrixMarketError, match="expected 4"):
            load_matrixmarket(path)

    def test_from_file_problem(self, tmp_path):
        a = make_rng(19).standard_normal((5, 3))
        path = tmp_path / "A.mtx"
        save_matrixmarket(path, a)
        prob = generate(ProblemSpec(kind="FromFile", path=str(path)))
        assert np.array_equal(prob.a, a)
        assert np.array_equal(prob.b, a @ np.ones(3))
