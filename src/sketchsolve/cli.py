"""Benchmark command line: convergence traces, rate reports, expectation
checks, and problem generation, all driven by JSON configs.

Subcommands
-----------
``bench``               run schemes on a problem, one CSV trace per
                        (scheme, trial) plus a JSON summary
``rates``               fit empirical contraction factors and compare them
                        against the theory values (exit 3 on violation)
``verify-expectation``  Monte-Carlo / enumerated expectation reports
``gen-problem``         write a generated problem as MatrixMarket files

Common flags: ``--config PATH`` (required), ``--seed N``, ``--out DIR``,
``--scheme K1,K3``, ``--override key.path=value`` (value parsed as JSON).

Exit codes: 0 success, 1 config error (nothing written), 2 any scheme
failed, 3 rate-bound violation. A problem that cannot be built, or a scheme
that cannot be set up on it, is a config error; a missing, malformed or
non-finite ``FromFile`` matrix is reported with its path and, once the file
is read, the offending line. All outputs except wall-clock fields are
byte-reproducible for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import problems, schemes, sketch, solver, theory
from .linalg import SpdMatrix, as_int, finite_or_none, json_dict

SCHEMA_VERSION = 2


class ConfigError(ValueError):
    pass


def _load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"config must be a JSON object, got {cfg!r}")
    return cfg


def _apply_override(cfg: dict, spec: str):
    if "=" not in spec:
        raise ConfigError(f"override must look like key.path=value: {spec!r}")
    key, _, raw = spec.partition("=")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = cfg
    parts = key.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override path {key!r} crosses a non-object")
    node[parts[-1]] = value


def _build_problem(cfg: dict) -> solver.Problem:
    """The problem ``cfg["problem"]`` describes; a bad spec, or failing to
    read or build it, is a config error."""
    node = cfg.get("problem")
    if not isinstance(node, dict):
        raise ConfigError("config needs a 'problem' object")
    try:
        spec = problems.ProblemSpec(**node)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad problem spec: {exc}")
    try:
        return problems.generate(spec)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot build the problem: {exc}") from exc


def _config_int(node: dict, key: str, default: int | None,
                minimum: int) -> int | None:
    """``node[key]`` as an integer of at least ``minimum``
    (:func:`linalg.as_int`); a missing key gives ``default``, and so does
    null where the default is None."""
    value = node.get(key, default)
    if value is None and default is None:
        return None
    try:
        return as_int(value, key, minimum)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _config_float(node: dict, key: str, default: float) -> float:
    """``node[key]`` as a finite float, from a number that is not a bool; a
    missing key gives ``default``."""
    value = node.get(key, default)
    try:
        out = float(value)
    except (TypeError, ValueError, OverflowError):
        out = math.nan
    if isinstance(value, (bool, str)) or not math.isfinite(out):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return out


def _resolve_block_size(cfg: dict, default, n: int) -> int:
    """``block_size`` as an integer >= 1, with "sqrt" and null meaning
    floor(sqrt(n))."""
    if cfg.get("block_size", default) in (None, "sqrt"):
        return max(1, int(math.floor(math.sqrt(n))))
    return _config_int(cfg, "block_size", default, 1)


def _weight_for(scheme_id: str, g_mode, a: np.ndarray,
                weights: dict | None = None) -> SpdMatrix | None:
    """G for a weighted id: None (G = I) under ``g_mode`` "identity" and for
    ids that take no weight, the SPD ``A^-1`` under "inverse", built once
    and kept in ``weights``, if given, for a run's other weighted ids."""
    if scheme_id not in schemes.WEIGHTED_SCHEMES or g_mode == "identity":
        return None
    if g_mode != "inverse":
        raise ConfigError(f"scheme {scheme_id} needs g_mode 'identity' or 'inverse'")
    if a.shape[0] != a.shape[1]:
        raise ConfigError("g_mode 'inverse' needs a square system")
    weights = {} if weights is None else weights
    if "inverse" not in weights:
        try:
            weights["inverse"] = SpdMatrix(np.linalg.inv(a))
        except ValueError as exc:
            raise ConfigError(f"g_mode 'inverse' needs an SPD system: {exc}")
    return weights["inverse"]


def _scheme_list(cfg: dict) -> list[str]:
    ids = cfg.get("schemes")
    if not isinstance(ids, list) or not ids:
        raise ConfigError("config needs a nonempty 'schemes' list")
    for sid in ids:
        if sid not in schemes.ALL_SCHEMES:
            raise ConfigError(f"unknown scheme id {sid!r}")
    return ids


def _build_schemes(cfg: dict, ids: list[str], problem: solver.Problem,
                   block_default, sampling: dict) -> list[schemes.Scheme]:
    """The schemes of ``ids``, each checked by :func:`solver.check_compatible`
    and its sampler kept on ``problem`` before anything runs (a fault is a
    config error); an index id samples by ``distribution``, else ``sampling``."""
    block = _resolve_block_size(cfg, block_default, problem.shape[1])
    weights, built = {}, []
    for sid in ids:
        index = schemes.sketch_kind(sid) == sketch.INDEX
        kind = (index and cfg.get("distribution")) or sampling.get(sid, sketch.UNIFORM)
        try:  # before an A^-1 weight, of the size the check asks, is built
            scheme = schemes.make_scheme(sid, block_size=block,
                                         distribution=kind)
            solver.check_compatible(problem, scheme)
            problem.sampler(scheme)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        g = _weight_for(sid, cfg.get("g_mode"), problem.a, weights)
        built.append(scheme if g is None else replace(scheme, g=g))
    return built


def _write_trace_csv(path: Path, trace: solver.SolveTrace):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("iter,res,err,time_s\n")
        for rec in trace.records:
            err = "" if rec.rel_error is None else repr(rec.rel_error)
            fh.write(f"{rec.k},{rec.rel_residual!r},{err},{rec.elapsed_s:.6f}\n")


def _write_output(path: Path, cfg: dict, problem: solver.Problem | None,
                  **body):
    """Write one JSON output, creating its directory: ``schema_version``,
    ``config_echo``, ``body`` and, given a problem, its ``problem_stats``."""
    _make_dir(path.parent)
    payload = {"schema_version": SCHEMA_VERSION, "config_echo": cfg, **body}
    if problem is not None:
        payload["problem_stats"] = (json_dict(problem.stats)
                                    if problem.stats is not None else None)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _out_dir(cfg: dict) -> Path:  # created by its first write
    out = cfg.get("output_dir")
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"output_dir must be a string, got {out!r}")
    return Path(out or "out")


def _make_dir(out: Path):
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise ConfigError(f"cannot create output dir {out}: {exc}")


def run_bench(cfg: dict) -> int:
    ids = _scheme_list(cfg)
    stop_cfg = cfg.get("stop", {})
    if not isinstance(stop_cfg, dict):
        raise ConfigError(f"stop must be an object, got {stop_cfg!r}")
    try:
        stop = solver.StopRule(itmax=_config_int(stop_cfg, "itmax", 100_000, 1),
                               tol=_config_float(stop_cfg, "tol", 1e-6))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad stop rule: {exc}")
    trials = _config_int(cfg, "trials", 1, 1)
    seed = _config_int(cfg, "seed", 0, 0)
    trace_every = _config_int(cfg, "trace_every", None, 1)
    out = _out_dir(cfg)

    problem = _build_problem(cfg)
    built = _build_schemes(cfg, ids, problem, None, {})
    _make_dir(out)
    per_scheme, any_failed = [], False
    for sid, scheme in zip(ids, built):
        for trial in range(trials):
            rng = sketch.rng_from_keys(seed, schemes.ALL_SCHEMES.index(sid), trial)
            entry = {"scheme": sid, "trial": trial}
            t0 = time.perf_counter()
            try:
                _, trace = solver.solve(problem, scheme, stop, rng,
                                        trace_every=trace_every)
                entry.update({
                    "status": trace.status,
                    "iters": trace.iterations,
                    "final_res": finite_or_none(trace.final.rel_residual),
                    "final_err": finite_or_none(trace.final.rel_error),
                    "skip_count": trace.skip_count,
                    "exact_recomputes": trace.exact_recomputes,
                    "wall_s": time.perf_counter() - t0,
                })
                _write_trace_csv(out / f"{sid}_trial{trial}.csv", trace)
            except Exception as exc:  # keep the other schemes running
                any_failed = True
                entry.update({"status": "Failed", "error": str(exc),
                              "wall_s": time.perf_counter() - t0})
            per_scheme.append(entry)

    _write_output(out / "summary.json", cfg, problem, per_scheme=per_scheme)
    return 2 if any_failed else 0


_DEFAULT_RATE_NORM = {"K": theory.NORM_EUCLID, "C": theory.NORM_GHAT,
                      "S": theory.NORM_A}


def run_rates(cfg: dict) -> int:
    ids = _scheme_list(cfg)
    trials = _config_int(cfg, "trials", 100, 1)
    iterations = _config_int(cfg, "iterations", 500, 1)
    seed = _config_int(cfg, "seed", 0, 0)
    tolerance = _config_float(cfg, "tolerance", 0.02)
    if cfg.get("norm_used") and cfg["norm_used"] not in theory.NORMS:
        raise ConfigError(f"unknown norm_used {cfg['norm_used']!r}")
    out = _out_dir(cfg)

    problem = _build_problem(cfg)
    built = _build_schemes(cfg, ids, problem, 1, theory.CLOSED_FORM_SAMPLING)
    reports, violations = [], []
    for sid, scheme in zip(ids, built):
        norm_used = cfg.get("norm_used") or (
            theory.NORM_GINV if sid in ("K5", "K6") else _DEFAULT_RATE_NORM[sid[0]])
        try:
            report = theory.fit_empirical_rate(problem, scheme, trials=trials,
                                               iterations=iterations,
                                               norm_used=norm_used, seed=seed)
        except ValueError as exc:  # a trial that stopped NonFinite or Drift
            raise ConfigError(f"rates for {sid}: {exc}") from exc
        reports.append(json_dict(report))
        if (math.isfinite(report.rho_theory) and not report.degenerate
                and math.isfinite(report.rho_fit)
                and report.rho_fit > report.rho_theory + tolerance):
            violations.append(sid)

    _write_output(out / "rates.json", cfg, problem, reports=reports,
                  violations=violations)
    return 3 if violations else 0


def run_verify_expectation(cfg: dict) -> int:
    target = cfg.get("target", "propagator")
    seed = _config_int(cfg, "seed", 0, 0)
    g_mode = cfg.get("g_mode")
    out = _out_dir(cfg)
    if target == "propagator":
        sid = cfg.get("scheme", "K2")
        if sid not in ("K2", "K4", "K6"):
            raise ConfigError(f"propagator for {sid}: not K2, K4 or K6")
        samples = _config_int(cfg, "samples", 10_000, 2)
        problem = _build_problem(cfg)
        block = _resolve_block_size(cfg, 1, problem.shape[1])
        try:  # a block wider than m, refused before A^-1 is built
            solver.check_compatible(problem, schemes.make_scheme(
                sid, block_size=block))
        except ValueError as exc:
            raise ConfigError(f"propagator for {sid}: {exc}") from exc
        g = _weight_for(sid, g_mode, problem.a)
        try:
            est = theory.estimate_mean_propagator(problem.a, g, sid, samples,
                                                  sketch.make_rng(seed),
                                                  block_size=block)
        except ValueError as exc:  # e.g. a zero matrix, which has no bound
            raise ConfigError(f"propagator for {sid}: {exc}") from exc
    elif target == "sketched_inverse":
        block = _config_int(cfg, "partition_block", 1, 1)
        if g_mode not in (None, "identity"):
            raise ConfigError("sketched_inverse supports g_mode null or 'identity'")
        a = _build_problem(cfg).a
        members = theory.coordinate_partition(a.shape[1], block)
        est = theory.mean_sketched_inverse(a, None, members)
    else:
        raise ConfigError(f"unknown target {target!r}")

    _write_output(out / "expectation.json", cfg, None, target=target,
                  report=json_dict(est))
    return 0


def run_gen_problem(cfg: dict) -> int:
    out = _out_dir(cfg)
    problem = _build_problem(cfg)
    _write_output(out / "meta.json", cfg, problem)
    problems.save_matrixmarket(out / "A.mtx", problem.a, fmt="array")
    problems.save_matrixmarket(out / "b.mtx", problem.b.reshape(-1, 1), fmt="array")
    return 0


_RUNNERS = {
    "bench": run_bench,
    "rates": run_rates,
    "verify-expectation": run_verify_expectation,
    "gen-problem": run_gen_problem,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sketchsolve",
                                     description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default=None, help="override the output dir")
        p.add_argument("--scheme", default=None,
                       help="comma-separated scheme ids, overrides the config")
        p.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="set a dotted config key (value parsed as JSON)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        for spec in args.override:
            _apply_override(cfg, spec)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.out is not None:
            cfg["output_dir"] = args.out
        if args.scheme is not None:
            cfg["schemes"] = [tok for tok in args.scheme.split(",") if tok]
        return _RUNNERS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
