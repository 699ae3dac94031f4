import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from sketchsolve.linalg import SpdMatrix, json_dict
from sketchsolve.problems import (KINDS, MatrixMarketError, ProblemSpec,
                                  generate, load_matrixmarket,
                                  save_matrixmarket)
from sketchsolve.sketch import make_rng


# the optional fields each kind reads, stated here apart from the module, so
# that a field added to ProblemSpec and refused nowhere fails the table guard
_READS = {"UniformDense": {"m", "n", "seed"},
          "SparseNormal": {"m", "n", "seed", "density", "rc"},
          "SparseSpd": {"m", "n", "seed", "rc"},
          "FromFile": {"path"}}
_BASE = {"UniformDense": {"m": 2, "n": 2}, "SparseNormal": {"m": 2, "n": 2},
         "SparseSpd": {"m": 2, "n": 2}, "FromFile": {"path": "A.mtx"}}


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

    @pytest.mark.parametrize("kind", ["UniformDense", "SparseNormal", "SparseSpd"])
    def test_generated_kinds_refuse_a_path(self, kind):
        # a config that names a file but not the FromFile kind must not run a
        # random problem
        with pytest.raises(ValueError, match=f"{kind} problems take no path"):
            ProblemSpec(kind=kind, m=2, n=2, path="A.mtx")

    @pytest.mark.parametrize("kind, name", [
        (kind, f.name) for kind in KINDS for f in dataclasses.fields(ProblemSpec)
        if f.name != "kind" and f.name not in _READS[kind]])
    def test_every_field_a_kind_does_not_read_is_refused(self, kind, name):
        with pytest.raises(ValueError, match=f"{kind} problems take no {name}"):
            ProblemSpec(kind=kind, **_BASE[kind], **{name: 1})

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

    @pytest.mark.parametrize("param, value", [
        ("m", 2.5), ("m", True), ("m", 4.0), ("n", "4"), ("seed", -1),
        ("seed", 1.0), ("seed", False), ("rc", True), ("rc", "0.5"),
        ("rc", float("nan")), ("density", True), ("density", [0.5]),
    ])
    def test_numbers_are_checked(self, param, value):
        # a bool is refused although Python counts it as an int
        with pytest.raises(ValueError, match=f"{param} must be"):
            ProblemSpec(kind="SparseNormal", **{"m": 4, "n": 4, param: value})

    def test_numpy_integers_are_integers(self):
        spec = ProblemSpec(kind="SparseNormal", m=np.int64(4), n=4,
                           seed=np.int32(2), rc=np.float64(0.5))
        assert generate(spec).a.shape == (4, 4)

    def test_spd_reports_no_density(self):
        prob = generate(ProblemSpec(kind="SparseSpd", m=6, n=6, rc=0.5, seed=1))
        assert prob.stats.density is None
        assert json_dict(prob.stats)["density"] is None
        assert prob.stats.rc == 0.5

    def test_defaults(self):
        spec = ProblemSpec(kind="SparseNormal", m=100, n=100)
        assert spec.density == pytest.approx(1.0 / math.log(10_000))
        assert spec.rc == pytest.approx(0.01)

    @pytest.mark.parametrize("m, n", [(1, 2), (2, 1)])
    def test_default_density_is_a_density(self, m, n):
        # 1/log(2) is 1.44, which the spec refused when handed it back
        spec = ProblemSpec(kind="SparseNormal", m=m, n=n)
        assert spec.density == 1.0
        assert ProblemSpec(**dataclasses.asdict(spec)) == spec


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
        want = 1.0 / spec.rc
        assert abs(kappa - want) <= 0.05 * want
        assert prob.stats.achieved_rc == pytest.approx(spec.rc, rel=1e-6)

    def test_spd_spectrum_at_one_and_two(self):
        # the spectrum is pinned at rc and 1; n = 1 keeps only the 1
        prob = generate(ProblemSpec(kind="SparseSpd", m=1, n=1, rc=0.25, seed=4))
        assert np.array_equal(prob.a, [[1.0]])
        assert prob.stats.achieved_rc == 1.0
        prob = generate(ProblemSpec(kind="SparseSpd", m=2, n=2, rc=0.25, seed=4))
        assert np.linalg.eigvalsh(prob.a) == pytest.approx([0.25, 1.0], rel=1e-12)
        assert prob.stats.achieved_rc == pytest.approx(0.25, rel=1e-12)

    def test_sparse_normal_pattern_density(self):
        spec = ProblemSpec(kind="SparseNormal", m=100, n=100, seed=7)
        prob = generate(spec)
        want = 1.0 / math.log(10_000)
        assert abs(prob.stats.pattern_density - want) <= 0.2 * want

    def test_sparse_normal_conditioning(self):
        spec = ProblemSpec(kind="SparseNormal", m=40, n=25, seed=9)
        prob = generate(spec)
        sv = np.linalg.svd(prob.a, compute_uv=False)
        rc = spec.rc
        assert abs(sv[-1] / sv[0] - rc) <= 0.05 * rc

    def test_sparse_pattern_is_bernoulli(self):
        prob = generate(ProblemSpec(kind="SparseNormal", m=200, n=200,
                                    density=0.1, seed=1))
        assert abs(prob.stats.pattern_density - 0.1) < 0.02

    def test_structural_deficiency_flagged(self):
        spec = ProblemSpec(kind="SparseNormal", m=30, n=30, density=0.02, seed=13)
        prob = generate(spec)
        assert prob.stats.structurally_deficient

    @pytest.mark.parametrize("kind, m, n", [("UniformDense", 600, 150),
                                            ("SparseNormal", 600, 150),
                                            ("SparseSpd", 150, 150),
                                            ("FromFile", 150, 150)])
    def test_problem_arrays_are_64_byte_aligned(self, tmp_path, kind, m, n):
        # A and G over 128 KB: malloc leaves such blocks at 16 mod 64
        if kind == "FromFile":
            path = tmp_path / "A.mtx"
            save_matrixmarket(path, make_rng(3).standard_normal((m, n)))
            spec = ProblemSpec(kind=kind, path=str(path))
        else:
            spec = ProblemSpec(kind=kind, m=m, n=n, seed=3)
        prob = generate(spec)
        assert prob.a.shape == (m, n)
        assert prob.a.ctypes.data % 64 == 0
        assert prob.gram.ctypes.data % 64 == 0


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


_COO = "%%MatrixMarket matrix coordinate real general\n"
_ARRAY = "%%MatrixMarket matrix array real general\n"


class TestMatrixMarketRefusals:
    """Each refusal of the reader, with its message and ``path:line``."""

    @pytest.mark.parametrize("text, line, message", [
        ("", 1, "empty file"),
        ("%%MatrixMarket matrix dense real general\n2 2\n", 1,
         "unsupported format 'dense'"),
        ("%%MatrixMarket matrix array real skew-symmetric\n2 2\n", 1,
         "unsupported symmetry 'skew-symmetric'"),
        (_ARRAY + "% only a comment\n\n", 4, "missing size line"),
        (_COO + "2 2\n1 1 1.0\n", 2, "size line needs 3 integers"),
        (_ARRAY + "% sizes\n2 2 4\n", 3, "size line needs 2 integers"),
        (_ARRAY + "2 2.0\n", 2, "size line entries must be integers"),
        (_COO + "2 0 0\n", 2, "dimensions must be >= 1"),
        ("%%MatrixMarket matrix array real symmetric\n2 3\n", 2,
         "symmetric matrices must be square"),
        (_COO + "2 2 2\n1 1 1.0\n% trailing\n", 4, "expected 2 entries, found 1"),
        ("%%MatrixMarket matrix array real symmetric\n2 2\n1.0\n2.0\n", 4,
         "expected 3 values, found 2"),
        (_COO + "2 2 2\n1 1 1.0\n2 2\n", 4, "coordinate entries need 'i j value'"),
        ("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 2 1.0\n", 3,
         "symmetric files store the lower triangle (need j <= i)"),
        (_ARRAY + "1 2\n1.0\n% a comment\nx\n", 5, "cannot parse value 'x'"),
        (_ARRAY + "1 2\n1.0\n1.0 2.0\n", 4, "cannot parse value '1.0 2.0'"),
    ])
    def test_refusal_names_path_and_line(self, tmp_path, text, line, message):
        path = tmp_path / "m.mtx"
        path.write_text(text)
        with pytest.raises(MatrixMarketError) as info:
            load_matrixmarket(path)
        assert str(info.value) == f"{path}:{line}: {message}"
        assert info.value.lineno == line

    @pytest.mark.parametrize("text, line, message", [
        (_COO + "2 2 2\n1 1 1.0\n2 2 nan\n", 4, "entry '2 2 nan' is not finite"),
        (_ARRAY + "1 2\n% a comment\ninf\n1.0\n", 4, "value 'inf' is not finite"),
        ("%%MatrixMarket matrix array real symmetric\n2 2\n1.0\n-Infinity\n2.0\n",
         4, "value '-Infinity' is not finite"),
    ])
    def test_non_finite_value_is_refused_at_its_line(self, tmp_path, text, line,
                                                     message):
        path = tmp_path / "m.mtx"
        path.write_text(text)
        with pytest.raises(MatrixMarketError) as info:
            generate(ProblemSpec(kind="FromFile", path=str(path)))
        assert str(info.value) == f"{path}:{line}: {message}"


class TestPathAndSaveRefusals:
    @pytest.mark.parametrize("path", [None, "", 7, True, ["x"], b"A.mtx"])
    def test_path_must_be_a_nonempty_string_or_path(self, path):
        with pytest.raises(ValueError) as info:
            ProblemSpec(kind="FromFile", path=path)
        assert str(info.value) == f"FromFile problems need a path, got {path!r}"

    def test_path_object_is_accepted(self, tmp_path):
        a = make_rng(4).standard_normal((3, 2))
        save_matrixmarket(tmp_path / "A.mtx", a)
        prob = generate(ProblemSpec(kind="FromFile", path=tmp_path / "A.mtx"))
        assert np.array_equal(prob.a, a)

    @pytest.mark.parametrize("fmt", ["array", "coordinate"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_save_refuses_non_finite_before_writing(self, tmp_path, fmt, bad):
        path = tmp_path / "A.mtx"
        with pytest.raises(ValueError, match="finite values only"):
            save_matrixmarket(path, [[1.0, bad]], fmt=fmt)
        assert not path.exists()

    def test_save_refuses_an_unknown_format_before_writing(self, tmp_path):
        path = tmp_path / "A.mtx"
        with pytest.raises(ValueError, match="unsupported format 'csv'"):
            save_matrixmarket(path, np.eye(2), fmt="csv")
        assert not path.exists()


def test_sparse_normal_with_one_column_has_one_singular_value():
    prob = generate(ProblemSpec(kind="SparseNormal", m=5, n=1, density=1.0,
                                seed=2))
    assert np.linalg.svd(prob.a, compute_uv=False).size == 1
    assert prob.stats.achieved_rc == 1.0
