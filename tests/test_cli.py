import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from helpers import random_spd
from sketchsolve import problems, schemes, sketch, solver, theory
from sketchsolve.cli import _weight_for, main
from sketchsolve.linalg import SpdMatrix, json_dict
from sketchsolve.problems import load_matrixmarket, save_matrixmarket
from sketchsolve.schemes import make_scheme
from sketchsolve.sketch import make_rng


def _write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _bench_config(tmp_path, out, **overrides):
    cfg = {
        "problem": {"kind": "UniformDense", "m": 120, "n": 24, "seed": 4},
        "schemes": ["K1", "K3"],
        "stop": {"itmax": 100_000, "tol": 1e-6},
        "block_size": "sqrt",
        "trials": 1,
        "seed": 31,
        "output_dir": str(out),
    }
    cfg.update(overrides)
    return _write_config(tmp_path, "bench.json", cfg)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestBench:
    def test_happy_path(self, tmp_path):
        out = tmp_path / "out"
        code = main(["bench", "--config", _bench_config(tmp_path, out)])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["schema_version"] == 2
        by_scheme = {e["scheme"]: e for e in summary["per_scheme"]}
        assert by_scheme["K1"]["status"] == "Converged"
        assert by_scheme["K3"]["iters"] < by_scheme["K1"]["iters"]
        assert by_scheme["K1"]["skip_count"] == 0
        assert summary["problem_stats"]["kind"] == "UniformDense"

        rows = _read_csv(out / "K1_trial0.csv")
        assert rows[0] == ["iter", "res", "err", "time_s"]
        # every K1 record recomputes the residual from scratch
        assert by_scheme["K1"]["exact_recomputes"] == len(rows) - 1
        assert rows[1][0] == "0"
        for row in rows[1:]:
            assert float(row[1]) >= 0.0 and float(row[2]) >= 0.0

    def test_deterministic_except_timing(self, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["bench", "--config", _bench_config(tmp_path, out1)]) == 0
        assert main(["bench", "--config", _bench_config(tmp_path, out2),
                     "--out", str(out2)]) == 0
        for name in ("K1_trial0.csv", "K3_trial0.csv"):
            rows1, rows2 = _read_csv(out1 / name), _read_csv(out2 / name)
            stripped1 = [row[:3] for row in rows1]
            stripped2 = [row[:3] for row in rows2]
            assert stripped1 == stripped2

    def test_empty_scheme_list_is_config_error(self, tmp_path):
        cfg = _bench_config(tmp_path, tmp_path / "out", schemes=[])
        assert main(["bench", "--config", cfg]) == 1

    def test_unknown_scheme_is_config_error(self, tmp_path):
        cfg = _bench_config(tmp_path, tmp_path / "out", schemes=["K7"])
        assert main(["bench", "--config", cfg]) == 1

    def test_symmetric_scheme_needs_spd_problem(self, tmp_path):
        cfg = _bench_config(tmp_path, tmp_path / "out", schemes=["S1"])
        assert main(["bench", "--config", cfg]) == 1

    def test_weighted_scheme_needs_g_mode(self, tmp_path):
        cfg = _bench_config(tmp_path, tmp_path / "out", schemes=["K5"])
        assert main(["bench", "--config", cfg]) == 1

    def test_weighted_scheme_with_identity_g(self, tmp_path):
        out = tmp_path / "out"
        cfg = _bench_config(tmp_path, out, schemes=["K5"], g_mode="identity")
        assert main(["bench", "--config", cfg]) == 0

    def test_scheme_failure_exits_two_but_others_run(self, tmp_path,
                                                      monkeypatch):
        # a run that raises once set up is a Failed entry, not a config error
        solve = solver.solve

        def failing(problem, scheme, *args, **kwargs):
            if scheme.id == "S1":
                raise RuntimeError("S1 broke")
            return solve(problem, scheme, *args, **kwargs)

        monkeypatch.setattr(solver, "solve", failing)
        mtx = tmp_path / "A.mtx"
        save_matrixmarket(mtx, random_spd(2, 6))
        out = tmp_path / "out"
        cfg = _write_config(tmp_path, "cfg.json", {
            "problem": {"kind": "FromFile", "path": str(mtx)},
            "schemes": ["S1", "K1"],
            "stop": {"itmax": 5_000, "tol": 1e-6},
            "seed": 3,
            "output_dir": str(out),
        })
        assert main(["bench", "--config", cfg]) == 2
        summary = json.loads((out / "summary.json").read_text())
        by_scheme = {e["scheme"]: e for e in summary["per_scheme"]}
        assert by_scheme["S1"]["status"] == "Failed"
        assert "error" in by_scheme["S1"]
        assert by_scheme["S1"]["error"] == "S1 broke"
        assert by_scheme["K1"]["status"] in ("Converged", "MaxIters")

    def test_non_finite_run_reports_its_status(self, tmp_path):
        # finite entries whose ||b|| overflows: each run stops at k = 0 with
        # status NonFinite and a null residual, and counts as no failure
        a = np.random.default_rng(0).random((20, 5)) * 1e160
        mtx = tmp_path / "A.mtx"
        save_matrixmarket(mtx, a)
        out = tmp_path / "out"
        cfg = _write_config(tmp_path, "cfg.json", {
            "problem": {"kind": "FromFile", "path": str(mtx)},
            "schemes": ["K1", "C1", "K3", "C3"],
            "block_size": 2,
            "stop": {"itmax": 3000, "tol": 1e-6},
            "output_dir": str(out),
        })
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["bench", "--config", cfg]) == 0
        summary = json.loads((out / "summary.json").read_text())
        for entry in summary["per_scheme"]:
            assert entry["status"] == "NonFinite", entry
            assert (entry["iters"], entry["final_res"]) == (0, None)
            assert "error" not in entry

    def test_flag_overrides(self, tmp_path):
        out = tmp_path / "redirected"
        cfg = _bench_config(tmp_path, tmp_path / "ignored")
        code = main(["bench", "--config", cfg, "--out", str(out),
                     "--scheme", "K1", "--seed", "77",
                     "--override", "stop.itmax=500"])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert [e["scheme"] for e in summary["per_scheme"]] == ["K1"]
        assert summary["config_echo"]["seed"] == 77
        assert summary["config_echo"]["stop"]["itmax"] == 500

    def test_missing_config_file(self, tmp_path):
        assert main(["bench", "--config", str(tmp_path / "nope.json")]) == 1

    def test_err_column_empty_without_reference_solution(self, tmp_path):
        from sketchsolve.cli import _write_trace_csv
        from sketchsolve.schemes import make_scheme
        from sketchsolve.solver import Problem, StopRule, solve

        a = make_rng(21).standard_normal((10, 4))
        prob = Problem(a=a, b=make_rng(22).standard_normal(10))  # no x_star
        _, trace = solve(prob, make_scheme("K1"), StopRule(itmax=50, tol=1e-12),
                         make_rng(23))
        path = tmp_path / "t.csv"
        _write_trace_csv(path, trace)
        rows = _read_csv(path)
        assert rows[0] == ["iter", "res", "err", "time_s"]
        assert all(row[2] == "" for row in rows[1:])


class TestRates:
    def _config(self, tmp_path, out, **overrides):
        cfg = {
            "problem": {"kind": "SparseSpd", "m": 20, "n": 20, "seed": 6},
            "schemes": ["S1"],
            "trials": 60,
            "iterations": 150,
            "seed": 9,
            "tolerance": 0.02,
            "output_dir": str(out),
        }
        cfg.update(overrides)
        return _write_config(tmp_path, "rates.json", cfg)

    def test_bound_holds(self, tmp_path):
        out = tmp_path / "out"
        assert main(["rates", "--config", self._config(tmp_path, out)]) == 0
        payload = json.loads((out / "rates.json").read_text())
        report = payload["reports"][0]
        assert report["scheme"] == "S1"
        assert report["norm_used"] == "a"
        assert report["rho_fit"] <= report["rho_theory"] + 0.02
        assert payload["violations"] == []

    def test_violation_exit_code(self, tmp_path):
        # an impossible tolerance forces the bound check to fail
        out = tmp_path / "out"
        cfg = self._config(tmp_path, out, tolerance=-1.0)
        assert main(["rates", "--config", cfg]) == 3
        payload = json.loads((out / "rates.json").read_text())
        assert payload["violations"] == ["S1"]

    def test_symmetric_scheme_on_non_spd_file_is_config_error(self, tmp_path,
                                                               capsys):
        mtx = tmp_path / "A.mtx"
        save_matrixmarket(mtx, make_rng(2).standard_normal((6, 6)))
        out = tmp_path / "out"
        cfg = _write_config(tmp_path, "rates.json", {
            "problem": {"kind": "FromFile", "path": str(mtx)},
            "schemes": ["S1"],
            "trials": 3,
            "iterations": 20,
            "output_dir": str(out),
        })
        assert main(["rates", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "S1 needs an SPD system" in err
        assert not (out / "rates.json").exists()

    def test_inverse_weight_reduces_to_the_symmetric_rates(self, tmp_path):
        # with G = A^-1, K5/C5 take the S3 steps and K6/C6 the S4 steps, and
        # K's G^-1 norm and C's A^T G A norm are both the A-norm
        out = tmp_path / "out"
        cfg = self._config(tmp_path, out, schemes=["K5", "K6", "C5", "C6"],
                           problem={"kind": "SparseSpd", "m": 30, "n": 30,
                                    "seed": 5},
                           g_mode="inverse", trials=5, iterations=100)
        assert main(["rates", "--config", cfg]) == 0
        reports = {r["scheme"]: r for r in json.loads(
            (out / "rates.json").read_text())["reports"]}
        assert reports["K5"]["norm_used"] == reports["K6"]["norm_used"] == "ginv"
        for k, c in (("K5", "C5"), ("K6", "C6")):
            assert abs(reports[k]["rho_fit"] - reports[c]["rho_fit"]) < 1e-10

    def test_inverse_weight_needs_a_square_system(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = self._config(tmp_path, out, schemes=["K5"], g_mode="inverse",
                           problem={"kind": "UniformDense", "m": 30, "n": 20,
                                    "seed": 5})
        assert main(["rates", "--config", cfg]) == 1
        assert "needs a square system" in capsys.readouterr().err
        assert not (out / "rates.json").exists()

    def test_non_finite_trial_is_config_error(self, tmp_path, capsys):
        # ||b|| overflows: the fit refuses the trial instead of skipping it
        mtx = tmp_path / "A.mtx"
        save_matrixmarket(mtx, np.random.default_rng(0).random((20, 5)) * 1e160)
        out = tmp_path / "out"
        cfg = _write_config(tmp_path, "rates.json", {
            "problem": {"kind": "FromFile", "path": str(mtx)},
            "schemes": ["K1"],
            "distribution": "uniform",
            "trials": 3,
            "iterations": 50,
            "output_dir": str(out),
        })
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["rates", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert ("config error: rates for K1: trial 0 stopped with NonFinite "
                "at k = 0") in err
        assert not (out / "rates.json").exists()


class TestVerifyExpectation:
    def test_propagator_target(self, tmp_path):
        out = tmp_path / "out"
        cfg = _write_config(tmp_path, "exp.json", {
            "target": "propagator",
            "problem": {"kind": "UniformDense", "m": 10, "n": 4, "seed": 8},
            "scheme": "K2",
            "samples": 500,
            "seed": 12,
            "output_dir": str(out),
        })
        assert main(["verify-expectation", "--config", cfg]) == 0
        payload = json.loads((out / "expectation.json").read_text())
        report = payload["report"]
        assert len(report["matrix"]) == 4
        assert report["max_violation"] <= 3.0 * report["max_violation_se"]

    def test_sketched_inverse_target(self, tmp_path):
        out = tmp_path / "out"
        cfg = _write_config(tmp_path, "exp.json", {
            "target": "sketched_inverse",
            "problem": {"kind": "UniformDense", "m": 8, "n": 4, "seed": 8},
            "partition_block": 2,
            "output_dir": str(out),
        })
        assert main(["verify-expectation", "--config", cfg]) == 0
        payload = json.loads((out / "expectation.json").read_text())
        assert payload["report"]["positive_definite"] is True

    def test_sketched_inverse_identity_g_is_no_g(self, tmp_path, monkeypatch):
        # G = I gives A^T I A = A^T A: the same report, without an m x m
        # identity built and validated as an SpdMatrix
        built = []
        init = SpdMatrix.__init__

        def recording(self, mat):
            built.append(np.shape(mat))
            init(self, mat)

        monkeypatch.setattr(SpdMatrix, "__init__", recording)
        reports = {}
        for g_mode in (None, "identity"):
            out = tmp_path / str(g_mode)
            cfg = _write_config(tmp_path, "exp.json", {
                "target": "sketched_inverse",
                "problem": {"kind": "UniformDense", "m": 40, "n": 6, "seed": 8},
                "partition_block": 2, "g_mode": g_mode,
                "output_dir": str(out),
            })
            assert main(["verify-expectation", "--config", cfg]) == 0
            reports[g_mode] = json.loads((out / "expectation.json").read_text())["report"]
        assert (40, 40) not in built
        plain, identity = reports[None], reports["identity"]
        assert plain.keys() == identity.keys()
        for key, value in plain.items():
            if isinstance(value, (bool, str)) or value is None or key == "violated_assumptions":
                assert identity[key] == value, key
            else:
                np.testing.assert_allclose(identity[key], value, rtol=1e-12,
                                           atol=1e-12, err_msg=key)

    @pytest.mark.parametrize("sid", ["K1", "C2", "nope"])
    def test_propagator_refuses_other_schemes(self, tmp_path, capsys, sid):
        out = tmp_path / "out"
        cfg = _write_config(tmp_path, "exp.json", {
            "target": "propagator", "scheme": sid, "samples": 10,
            "problem": {"kind": "UniformDense", "m": 6, "n": 4, "seed": 8},
            "output_dir": str(out),
        })
        assert main(["verify-expectation", "--config", cfg]) == 1
        assert f"propagator for {sid}" in capsys.readouterr().err
        assert not (out / "expectation.json").exists()

    def test_block_wider_than_m_refused_before_the_weight(
            self, tmp_path, capsys, monkeypatch):
        built = []
        real_init = SpdMatrix.__init__

        def spd_init(self, mat):
            built.append(np.shape(mat))
            real_init(self, mat)

        monkeypatch.setattr(SpdMatrix, "__init__", spd_init)
        out = tmp_path / "out"
        cfg = _write_config(tmp_path, "exp.json", {
            "target": "propagator", "scheme": "K6", "block_size": 8,
            "g_mode": "inverse", "samples": 10,
            "problem": {"kind": "SparseSpd", "m": 6, "n": 6, "seed": 8},
            "output_dir": str(out)})
        assert main(["verify-expectation", "--config", cfg]) == 1
        assert ("config error: propagator for K6: block_size 8 exceeds "
                "dimension 6" in capsys.readouterr().err)
        assert built == []
        assert not out.exists()

    def test_unknown_target(self, tmp_path):
        out = tmp_path / "out"
        cfg = _write_config(tmp_path, "exp.json", {
            "target": "nope",
            "problem": {"kind": "UniformDense", "m": 4, "n": 4, "seed": 8},
            "output_dir": str(out),
        })
        assert main(["verify-expectation", "--config", cfg]) == 1
        assert not out.exists()


class TestGenProblem:
    def test_writes_loadable_files(self, tmp_path):
        out = tmp_path / "out"
        cfg = _write_config(tmp_path, "gen.json", {
            "problem": {"kind": "SparseSpd", "m": 12, "n": 12, "seed": 14},
            "output_dir": str(out),
        })
        assert main(["gen-problem", "--config", cfg]) == 0
        a = load_matrixmarket(out / "A.mtx")
        b = load_matrixmarket(out / "b.mtx")
        assert a.shape == (12, 12)
        assert np.array_equal(b[:, 0], a @ np.ones(12))
        meta = json.loads((out / "meta.json").read_text())
        assert meta["problem_stats"]["achieved_rc"] is not None


class TestIdentityWeight:
    """``g_mode: "identity"`` is no weight: K5/K6/C5/C6 run as K3/K4/C3/C4,
    and no m x m (or n x n) identity is built."""

    PROBLEM = {"kind": "UniformDense", "m": 120, "n": 24, "seed": 4}

    @pytest.mark.parametrize("sid", ["K5", "K6", "C5", "C6"])
    def test_weight_for_identity_is_none(self, sid):
        assert _weight_for(sid, "identity", np.ones((5, 3))) is None

    def test_identity_runs_build_no_spd_matrix(self, tmp_path, monkeypatch):
        built = []
        init = SpdMatrix.__init__

        def recording(self, mat):
            built.append(np.shape(mat))
            init(self, mat)

        monkeypatch.setattr(SpdMatrix, "__init__", recording)
        weighted = ["K5", "K6", "C5", "C6"]
        runs = {
            "bench": {"schemes": weighted, "stop": {"itmax": 200},
                      "block_size": 3},
            "rates": {"schemes": weighted, "trials": 2, "iterations": 20,
                      "block_size": 3},
            "verify-expectation": {"scheme": "K6", "samples": 10,
                                   "block_size": 3},
        }
        for command, extra in runs.items():
            out = tmp_path / command
            cfg = _write_config(tmp_path, "cfg.json", {
                "problem": self.PROBLEM, "g_mode": "identity",
                "output_dir": str(out), **extra})
            assert main([command, "--config", cfg]) == 0, command
        assert built == []

    def test_rates_match_an_explicit_identity(self, tmp_path):
        # K5/K6 keep the G^-1 norm, which with G = I is the Euclidean one; the
        # fits may round differently (e @ e against (e @ I) @ e)
        out = tmp_path / "out"
        cfg = _write_config(tmp_path, "rates.json", {
            "problem": self.PROBLEM, "schemes": ["K5", "K6"],
            "g_mode": "identity", "block_size": 3, "trials": 3,
            "iterations": 40, "seed": 5, "output_dir": str(out)})
        assert main(["rates", "--config", cfg]) == 0
        reports = json.loads((out / "rates.json").read_text())["reports"]
        problem = problems.generate(problems.ProblemSpec(**self.PROBLEM))
        eye = SpdMatrix(np.eye(24))
        for sid, got in zip(("K5", "K6"), reports):
            want = theory.fit_empirical_rate(
                problem, make_scheme(sid, block_size=3, g=eye), trials=3,
                iterations=40, norm_used=theory.NORM_GINV, seed=5)
            want = json.loads(json.dumps(json_dict(want)))
            assert got["norm_used"] == "ginv"
            for key in ("rho_fit", "rho_fit_norm_of_mean"):
                assert got.pop(key) == pytest.approx(want.pop(key), rel=1e-12)
            assert got == want

    def test_propagator_matches_an_explicit_identity(self, tmp_path):
        out = tmp_path / "out"
        cfg = _write_config(tmp_path, "exp.json", {
            "problem": {"kind": "UniformDense", "m": 10, "n": 4, "seed": 8},
            "scheme": "K6", "g_mode": "identity", "block_size": 2,
            "samples": 50, "seed": 12, "output_dir": str(out)})
        assert main(["verify-expectation", "--config", cfg]) == 0
        got = json.loads((out / "expectation.json").read_text())["report"]
        a = problems.generate(problems.ProblemSpec(
            "UniformDense", m=10, n=4, seed=8)).a
        want = theory.estimate_mean_propagator(
            a, SpdMatrix(np.eye(4)), "K6", 50, make_rng(12), block_size=2)
        assert got == json.loads(json.dumps(json_dict(want)))


class TestInverseWeight:
    """``g_mode: "inverse"`` builds one ``A^-1`` per run and hands it to
    every weighted scheme."""

    @pytest.mark.parametrize("command, extra", [
        ("bench", {"stop": {"itmax": 20}}),
        ("rates", {"trials": 2, "iterations": 5})])
    def test_one_inversion_per_run(self, tmp_path, monkeypatch, command, extra):
        built = []
        init = SpdMatrix.__init__

        def recording(self, mat):
            built.append(np.shape(mat))
            init(self, mat)

        monkeypatch.setattr(SpdMatrix, "__init__", recording)
        cfg = _write_config(tmp_path, "cfg.json", {
            "problem": {"kind": "SparseSpd", "m": 12, "n": 12, "seed": 3},
            "schemes": ["K5", "K6", "C5", "C6"], "g_mode": "inverse",
            "block_size": 3, "output_dir": str(tmp_path / "out"), **extra})
        assert main([command, "--config", cfg]) == 0
        assert built == [(12, 12)]

    @pytest.mark.parametrize("command, extra", [
        ("bench", {"stop": {"itmax": 20}}),
        ("rates", {"trials": 2, "iterations": 5})])
    @pytest.mark.parametrize("sid", ["K6", "C6"])
    def test_block_wider_than_its_side_refused_before_the_weight(
            self, tmp_path, capsys, monkeypatch, command, extra, sid):
        built = []
        init = SpdMatrix.__init__

        def recording(self, mat):
            built.append(np.shape(mat))
            init(self, mat)

        monkeypatch.setattr(SpdMatrix, "__init__", recording)
        out = tmp_path / "out"
        cfg = _write_config(tmp_path, "cfg.json", {
            "problem": {"kind": "SparseSpd", "m": 6, "n": 6, "seed": 8},
            "schemes": [sid], "g_mode": "inverse", "block_size": 8,
            "output_dir": str(out), **extra})
        assert main([command, "--config", cfg]) == 1
        assert ("config error: block_size 8 exceeds dimension 6"
                in capsys.readouterr().err)
        assert built == []
        assert not out.exists()


class TestIntegerOptions:
    """Every integer and float option, the stop object, ``block_size`` and
    the problem's numbers are checked up front: a bad value is a config
    error (exit 1) naming the key, not a traceback or a failed scheme."""

    @pytest.mark.parametrize("key, value", [
        ("stop", {"itmax": 0}), ("stop", {"itmax": "x"}), ("trials", "x"),
        ("trials", 0), ("trials", 2.5), ("seed", -1), ("seed", 1.5e400),
        ("trace_every", 0), ("trace_every", "x"), ("trace_every", True),
        ("block_size", True), ("block_size", 0), ("block_size", 2.5),
        ("block_size", "x"),
    ])
    def test_bench(self, tmp_path, capsys, key, value):
        out = tmp_path / "out"
        cfg = _bench_config(tmp_path, out, **{key: value})
        assert main(["bench", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and ("itmax" if key == "stop" else key) in err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("stop, key", [
        (5, "stop"), ([1], "stop"), ({"tol": "x"}, "tol"),
        ({"tol": float("nan")}, "tol"), ({"tol": True}, "tol"),
        ({"tol": "1e-6"}, "tol"), ({"tol": 10 ** 400}, "tol"),
    ])
    def test_bench_stop_rule(self, tmp_path, capsys, stop, key):
        out = tmp_path / "out"
        cfg = _bench_config(tmp_path, out, stop=stop)
        assert main(["bench", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and key in err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("key, value", [
        ("m", 2.5), ("m", True), ("n", "24"), ("seed", -1), ("seed", 1.0),
        ("rc", True), ("rc", "0.5"), ("density", True), ("density", [0.5]),
    ])
    def test_bench_problem(self, tmp_path, capsys, key, value):
        out = tmp_path / "out"
        problem = {"kind": "SparseNormal", "m": 120, "n": 24, "seed": 4,
                   key: value}
        cfg = _bench_config(tmp_path, out, problem=problem)
        assert main(["bench", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and f"{key} must be" in err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("trace_every", [None, 7])
    def test_bench_trace_every_null_or_positive(self, tmp_path, trace_every):
        out = tmp_path / "out"
        cfg = _bench_config(tmp_path, out, trace_every=trace_every,
                            schemes=["K1"], stop={"itmax": 50, "tol": 1e-6})
        assert main(["bench", "--config", cfg]) == 0
        rows = _read_csv(out / "K1_trial0.csv")
        assert [int(row[0]) for row in rows[1:3]] == [0, trace_every or 10]

    @pytest.mark.parametrize("key, value", [
        ("trials", "x"), ("trials", 0), ("iterations", 0),
        ("iterations", [5]), ("seed", "x"), ("tolerance", "x"),
        ("tolerance", None), ("tolerance", float("inf")),
    ])
    def test_rates(self, tmp_path, capsys, key, value):
        out = tmp_path / "out"
        cfg = _write_config(tmp_path, "rates.json", {
            "problem": {"kind": "SparseSpd", "m": 8, "n": 8, "seed": 6},
            "schemes": ["S1"],
            "trials": 2,
            "iterations": 5,
            key: value,
            "output_dir": str(out),
        })
        assert main(["rates", "--config", cfg]) == 1
        assert key in capsys.readouterr().err
        assert not (out / "rates.json").exists()

    @pytest.mark.parametrize("target, key, value", [
        ("propagator", "samples", 1), ("propagator", "seed", -3),
        ("sketched_inverse", "partition_block", 0),
        ("sketched_inverse", "partition_block", "x"),
    ])
    def test_verify_expectation(self, tmp_path, capsys, target, key, value):
        out = tmp_path / "out"
        cfg = _write_config(tmp_path, "exp.json", {
            "target": target,
            "problem": {"kind": "UniformDense", "m": 8, "n": 4, "seed": 8},
            "samples": 50,
            key: value,
            "output_dir": str(out),
        })
        assert main(["verify-expectation", "--config", cfg]) == 1
        assert key in capsys.readouterr().err
        assert not (out / "expectation.json").exists()


# the least each subcommand needs besides its problem
_RUN_CONFIGS = {
    "bench": {"schemes": ["K1"], "stop": {"itmax": 50}},
    "rates": {"schemes": ["K1"], "trials": 2, "iterations": 5},
    "verify-expectation": {"samples": 10},
    "gen-problem": {},
}


class TestConfigRefusals:
    """Configs refused before anything runs: exit 1 with a named config
    error and no output file."""

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"problem": ')
        assert main(["bench", "--config", str(path)]) == 1
        assert "config error: config is not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("override, message", [
        ("seed", "override must look like key.path=value: 'seed'"),
        ("seed.x=1", "override path 'seed.x' crosses a non-object"),
    ])
    def test_bad_override(self, tmp_path, capsys, override, message):
        out = tmp_path / "out"
        cfg = _bench_config(tmp_path, out)
        assert main(["bench", "--config", cfg, "--override", override]) == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", list(_RUN_CONFIGS))
    def test_no_problem_object(self, tmp_path, capsys, command):
        cfg = _write_config(tmp_path, "cfg.json", {
            "schemes": ["K1"], "output_dir": str(tmp_path / "out")})
        assert main([command, "--config", cfg]) == 1
        assert ("config error: config needs a 'problem' object"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("overrides, message", [
        ({"problem": {"kind": "UniformDense", "m": 6, "n": 6, "seed": 4},
          "schemes": ["K5"], "g_mode": "inverse"},
         "g_mode 'inverse' needs an SPD system"),
        ({"schemes": ["C1"], "distribution": "trace_proportional"},
         "trace-proportional sampling applies only to single row draws"),
        ({"problem": {"kind": "FromFile", "path": "nonspd.mtx"},
          "schemes": ["S1"]},
         "scheme S1 needs an SPD system: matrix is not symmetric"),
        ({"problem": {"kind": "FromFile", "path": "zero.mtx"},
          "schemes": ["K1"], "distribution": "norm_proportional"},
         "sampling weights must have a positive finite sum, got 0.0"),
        ({"problem": {"kind": "UniformDense", "m": 6, "n": 6, "seed": 4},
          "schemes": ["K1"], "distribution": "trace_proportional"},
         "trace-proportional sampling needs an SPD system: matrix is not "
         "symmetric"),
        ({"problem": {"kind": "UniformDense", "m": 3, "n": 6, "seed": 4},
          "schemes": ["K1"], "distribution": "trace_proportional"},
         "trace-proportional sampling needs a square system, got 3x6"),
        ({"problem": {"kind": "UniformDense", "m": 6, "n": 3, "seed": 4},
          "schemes": ["K1"], "distribution": "trace_proportional"},
         "trace-proportional sampling needs a square system, got 6x3"),
    ])
    def test_bench_scheme_setup(self, tmp_path, capsys, monkeypatch,
                                overrides, message):
        # bench and rates refuse a scheme they cannot set up alike
        monkeypatch.chdir(tmp_path)  # the FromFile paths are relative
        save_matrixmarket("nonspd.mtx", make_rng(2).standard_normal((6, 6)))
        save_matrixmarket("zero.mtx", np.zeros((4, 3)))
        for command in ("bench", "rates"):
            out = tmp_path / command
            cfg = _bench_config(tmp_path, out, **overrides)
            assert main([command, "--config", cfg]) == 1, command
            assert f"config error: {message}" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("command", ["bench", "rates"])
    def test_block_wider_than_its_side(self, tmp_path, capsys, command):
        # K3 draws rows: a block of 8 cannot fit the 6 rows of a 6x3 system
        out = tmp_path / "out"
        cfg = _write_config(tmp_path, "cfg.json", {
            "problem": {"kind": "UniformDense", "m": 6, "n": 3, "seed": 1},
            "schemes": ["K3"], "block_size": 8, "stop": {"itmax": 50},
            "trials": 2, "iterations": 5, "output_dir": str(out)})
        assert main([command, "--config", cfg]) == 1
        assert ("config error: block_size 8 exceeds dimension 6"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_bench_builds_every_scheme_before_the_first_solve(self, tmp_path,
                                                                capsys):
        out = tmp_path / "out"
        cfg = _bench_config(tmp_path, out, schemes=["K1", "K5"])
        assert main(["bench", "--config", cfg]) == 1
        assert "scheme K5 needs g_mode" in capsys.readouterr().err
        assert not out.exists()

    def test_rates_builds_every_scheme_before_the_first_fit(self, tmp_path,
                                                             capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(theory, "fit_empirical_rate",
                            lambda *args, **kwargs: calls.append(args))
        out = tmp_path / "out"
        cfg = _write_config(tmp_path, "rates.json", {
            "problem": {"kind": "UniformDense", "m": 20, "n": 5, "seed": 1},
            "schemes": ["K1", "K5"], "trials": 2, "iterations": 5,
            "output_dir": str(out)})
        assert main(["rates", "--config", cfg]) == 1
        assert "scheme K5 needs g_mode" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_rates_reads_norm_used_before_the_first_fit(self, tmp_path, capsys,
                                                         monkeypatch):
        calls = []
        monkeypatch.setattr(theory, "fit_empirical_rate",
                            lambda *args, **kwargs: calls.append(args))
        out = tmp_path / "out"
        cfg = _write_config(tmp_path, "rates.json", {
            "problem": {"kind": "UniformDense", "m": 20, "n": 5, "seed": 1},
            "schemes": ["K1"], "trials": 2, "iterations": 5,
            "norm_used": "l1", "output_dir": str(out)})
        assert main(["rates", "--config", cfg]) == 1
        assert "config error: unknown norm_used 'l1'" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("overrides, message", [
        ({"samples": 1}, "samples must be an integer >= 2"),
        ({"scheme": "K5"}, "propagator for K5: not K2, K4 or K6"),
        ({"target": "sketched_inverse", "partition_block": 0},
         "partition_block must be an integer >= 1"),
        ({"target": "nope"}, "unknown target 'nope'"),
    ])
    def test_verify_expectation_reads_its_options_first(
            self, tmp_path, capsys, monkeypatch, overrides, message):
        # refused before the problem is built, so before any A^-1 weight
        built = []
        monkeypatch.setattr(problems, "generate",
                            lambda spec: built.append(spec))
        monkeypatch.setattr(SpdMatrix, "__init__",
                            lambda self, mat: built.append(mat))
        out = tmp_path / "out"
        cfg = _write_config(tmp_path, "exp.json", {
            "problem": {"kind": "SparseSpd", "m": 6, "n": 6, "seed": 8},
            "scheme": "K6", "g_mode": "inverse", "samples": 10,
            "output_dir": str(out), **overrides})
        assert main(["verify-expectation", "--config", cfg]) == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert built == []
        assert not out.exists()

    def test_output_dir_under_a_regular_file(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg = _bench_config(tmp_path, blocker / "out")
        assert main(["bench", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert f"config error: cannot create output dir {blocker / 'out'}" in err

    def test_sketched_inverse_refuses_the_inverse_weight(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = _write_config(tmp_path, "exp.json", {
            "target": "sketched_inverse", "g_mode": "inverse",
            "problem": {"kind": "SparseSpd", "m": 4, "n": 4, "seed": 8},
            "output_dir": str(out),
        })
        assert main(["verify-expectation", "--config", cfg]) == 1
        assert ("config error: sketched_inverse supports g_mode null or "
                "'identity'" in capsys.readouterr().err)
        assert not (out / "expectation.json").exists()


class TestNonObjectAndNonStringInput:
    """A config that is not a JSON object, and an ``output_dir`` or
    ``FromFile`` path that is not a string, are config errors (exit 1) in
    every subcommand, not tracebacks."""

    @pytest.mark.parametrize("command", list(_RUN_CONFIGS))
    @pytest.mark.parametrize("top", [[1, 2], "text", 3, None])
    def test_top_level_not_an_object(self, tmp_path, capsys, command, top):
        # refused before any flag is applied to it
        out = tmp_path / "out"
        cfg = _write_config(tmp_path, "cfg.json", top)
        assert main([command, "--config", cfg, "--override", "seed=1",
                     "--seed", "2", "--out", str(out), "--scheme", "K1"]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: config must be a JSON object, got {top!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", list(_RUN_CONFIGS))
    @pytest.mark.parametrize("output_dir", [5, ["a"], True, False])
    def test_output_dir_not_a_string(self, tmp_path, capsys, monkeypatch,
                                     command, output_dir):
        monkeypatch.chdir(tmp_path)  # a default "out" would land here
        cfg = _write_config(tmp_path, "cfg.json", {
            "problem": {"kind": "UniformDense", "m": 8, "n": 4, "seed": 8},
            "output_dir": output_dir, **_RUN_CONFIGS[command]})
        assert main([command, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err == ("config error: output_dir must be a string, got "
                       f"{output_dir!r}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_output_dir_with_a_nul(self, tmp_path, capsys):
        cfg = _bench_config(tmp_path, "a\x00b")
        assert main(["bench", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot create output dir a\x00b: ")

    @pytest.mark.parametrize("command", list(_RUN_CONFIGS))
    @pytest.mark.parametrize("path", [["x"], 7, True, ""])
    def test_path_not_a_string(self, tmp_path, capsys, command, path):
        # an int path would be opened as that file descriptor
        out = tmp_path / "out"
        cfg = _write_config(tmp_path, "cfg.json", {
            "problem": {"kind": "FromFile", "path": path},
            "output_dir": str(out), **_RUN_CONFIGS[command]})
        assert main([command, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err == ("config error: bad problem spec: FromFile problems need "
                       f"a path, got {path!r}\n")
        assert not (out / "summary.json").exists()

    def test_override_value_that_is_not_json_is_a_string(self, tmp_path):
        out = tmp_path / "out"
        cfg = _write_config(tmp_path, "gen.json", {
            "problem": {"kind": "UniformDense", "m": 4, "n": 4, "seed": 3},
            "output_dir": str(out)})
        assert main(["gen-problem", "--config", cfg,
                     "--override", "problem.kind=SparseSpd"]) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["config_echo"]["problem"]["kind"] == "SparseSpd"
        assert meta["problem_stats"]["kind"] == "SparseSpd"

    def test_module_entry_point_exits_with_the_code(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-m", "sketchsolve.cli", "bench",
             "--config", str(tmp_path / "missing.json")],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr == ("config error: config file not found: "
                               f"{tmp_path / 'missing.json'}\n")


class TestUnbuildableProblem:
    """A problem that cannot be built is a config error in every subcommand,
    named by the file and, once the file is read, its line."""

    @pytest.mark.parametrize("command", list(_RUN_CONFIGS))
    @pytest.mark.parametrize("last_entry, line", [
        (None, None), ("3 1 1.0", 4), ("2 2 nan", 4)])
    def test_bad_matrix_file(self, tmp_path, capsys, command, last_entry, line):
        path = tmp_path / "A.mtx"
        if last_entry is not None:  # else the file is missing
            path.write_text("%%MatrixMarket matrix coordinate real general\n"
                            f"2 2 2\n1 1 1.0\n{last_entry}\n")
        out = tmp_path / "out"
        cfg = _write_config(tmp_path, "cfg.json", {
            "problem": {"kind": "FromFile", "path": str(path)},
            "output_dir": str(out), **_RUN_CONFIGS[command]})
        assert main([command, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot build the problem: ")
        assert str(path) in err
        if line is not None:
            assert f"{path}:{line}: " in err
        assert not out.exists()

    @pytest.mark.parametrize("command", list(_RUN_CONFIGS))
    def test_failed_generation(self, tmp_path, capsys, command):
        # a pattern with no nonzero: no condition number can be imposed
        out = tmp_path / "out"
        cfg = _write_config(tmp_path, "cfg.json", {
            "problem": {"kind": "SparseNormal", "m": 1, "n": 1,
                        "density": 1e-12},
            "output_dir": str(out), **_RUN_CONFIGS[command]})
        assert main([command, "--config", cfg]) == 1
        assert ("config error: cannot build the problem: cannot impose a "
                "condition number on a zero matrix" in capsys.readouterr().err)
        assert not out.exists()


# JSON values that are not objects, mixed in at the top level and at each key
_JUNK = st.one_of(st.none(), st.booleans(), st.floats(), st.text(max_size=3),
                  st.lists(st.integers(-2, 2), max_size=2))
# a FromFile path: the files the test writes, one it does not, and paths
# that are not strings
_PATH = st.sampled_from(["spd.mtx", "tall.mtx", "zero.mtx", "huge.mtx",
                         "missing.mtx", 7, -1, True, False, ["x"]])


@st.composite
def _problem(draw):
    kind = draw(st.sampled_from(problems.KINDS))
    if kind == problems.FROM_FILE:
        return {"kind": kind, "path": draw(_PATH)}
    m = draw(st.integers(1, 6))
    square = kind == problems.SPARSE_SPD and draw(st.integers(0, 4)) > 0
    n = m if square else draw(st.integers(1, 6))
    spec = {"kind": kind, "m": m, "n": n, "seed": draw(st.integers(0, 3))}
    for key in {"SparseNormal": ("density", "rc"), "SparseSpd": ("rc",)}.get(
            kind, ()):
        if draw(st.booleans()):
            spec[key] = draw(st.floats(0.05, 1.0))
    return spec


# each key's values; the ones without a default that could run long (stop,
# trials, iterations, samples) are always given
_KEYS = {
    "problem": _problem(),
    "schemes": st.lists(st.sampled_from([*schemes.ALL_SCHEMES, "K7", 2]),
                        min_size=1, max_size=3),
    "stop": st.fixed_dictionaries(
        {"itmax": st.integers(1, 30)},
        optional={"tol": st.sampled_from([1e-12, 1e-6, 0.5, 0.0])}),
    "trials": st.integers(1, 2),
    "iterations": st.integers(1, 10),
    "samples": st.integers(2, 10),
    "output_dir": st.sampled_from(["out", "a/b", None, "nul\x00"]),
}
_OPTIONAL_KEYS = {
    "g_mode": st.sampled_from(["identity", "inverse", "other"]),
    "block_size": st.one_of(st.sampled_from(["sqrt", None, "x"]),
                            st.integers(-1, 8)),
    "distribution": st.sampled_from([*sketch.DISTRIBUTIONS, "other"]),
    "seed": st.integers(0, 3),
    "trace_every": st.integers(0, 5),
    "target": st.sampled_from(["propagator", "sketched_inverse", "other"]),
    "scheme": st.sampled_from([*schemes.ALL_SCHEMES, "K7"]),
    "partition_block": st.integers(0, 6),
    "norm_used": st.sampled_from([*theory.NORMS, "l1"]),
    "tolerance": st.floats(-1.0, 1.0),
}


@st.composite
def _config(draw):
    """A config; or a non-object; or a config with a non-object value at one
    of its keys, the problem's or the stop's."""
    form = draw(st.sampled_from(["config", "config", "junk key", "junk"]))
    if form == "junk":
        return draw(_JUNK)
    cfg = draw(st.fixed_dictionaries(_KEYS, optional=_OPTIONAL_KEYS))
    if form == "junk key":
        nodes = [(cfg[key], k) for key in ("stop", "problem") for k in cfg[key]]
        node, key = draw(st.sampled_from(nodes + [(cfg, key) for key in cfg]))
        node[key] = draw(_JUNK)
    return cfg


_OVERRIDES = st.lists(st.sampled_from([
    "problem.kind=SparseSpd", "problem.m=3", "problem.seed.x=1", "stop=3",
    "stop.itmax=5", "trials=1", 'schemes=["C5", "K6"]', "g_mode=identity",
    "block_size=sqrt", "output_dir=5", "a.b.c=[]", "nokey"]), max_size=2)


class TestEveryConfigEndsInAnExitCode:
    """The CLI's counterpart of the solver's every-finite-input test: any
    config from a small grammar of tiny problems, scheme lists, options,
    wrong types and non-object values ends in exit 0, 1, 2 or 3."""

    @settings(max_examples=150, database=None)
    @given(command=st.sampled_from(list(_RUN_CONFIGS)),
           cfg=_config(), overrides=_OVERRIDES)
    def test_any_config(self, command, cfg, overrides):
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp:
            # relative paths, a null output_dir's default "out" included,
            # all resolve inside tmp
            os.chdir(tmp)
            try:
                save_matrixmarket("spd.mtx", random_spd(1, 4))
                save_matrixmarket("tall.mtx", make_rng(1).standard_normal((6, 3)))
                save_matrixmarket("zero.mtx", np.zeros((3, 2)))
                save_matrixmarket("huge.mtx", np.full((2, 2), 1e300))
                with open("cfg.json", "w", encoding="utf-8") as fh:
                    json.dump(cfg, fh)
                argv = [command, "--config", "cfg.json"]
                for spec in overrides:
                    argv += ["--override", spec]
                with np.errstate(all="ignore"):
                    code = main(argv)
                assert code in (0, 1, 2, 3)
                if code == 1:  # a refused config leaves nothing behind
                    assert sorted(os.listdir()) == [
                        "cfg.json", "huge.mtx", "spd.mtx", "tall.mtx",
                        "zero.mtx"]
            finally:
                os.chdir(cwd)
