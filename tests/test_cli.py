import csv
import json

import numpy as np
import pytest

from sketchsolve.cli import main
from sketchsolve.problems import load_matrixmarket, save_matrixmarket
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

    def test_scheme_failure_exits_two_but_others_run(self, tmp_path):
        # an SPD-only scheme against a non-SPD FromFile matrix fails at
        # setup inside the run, not at config validation
        a = make_rng(2).standard_normal((6, 6))
        mtx = tmp_path / "A.mtx"
        save_matrixmarket(mtx, a)
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
        assert by_scheme["K1"]["status"] in ("Converged", "MaxIters")

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

    def test_unknown_target(self, tmp_path):
        cfg = _write_config(tmp_path, "exp.json", {
            "target": "nope",
            "problem": {"kind": "UniformDense", "m": 4, "n": 4, "seed": 8},
        })
        assert main(["verify-expectation", "--config", cfg]) == 1


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


class TestIntegerOptions:
    """Every integer option is checked up front: a bad value is a config
    error (exit 1) naming the key, not a traceback or a failed scheme."""

    @pytest.mark.parametrize("key, value", [
        ("stop", {"itmax": 0}), ("stop", {"itmax": "x"}), ("trials", "x"),
        ("trials", 0), ("seed", -1), ("seed", 1.5e400), ("trace_every", 0),
        ("trace_every", "x"), ("trace_every", True),
    ])
    def test_bench(self, tmp_path, capsys, key, value):
        out = tmp_path / "out"
        cfg = _bench_config(tmp_path, out, **{key: value})
        assert main(["bench", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and ("itmax" if key == "stop" else key) in err
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
        ("iterations", [5]), ("seed", "x"),
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
