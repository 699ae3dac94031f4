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

Exit codes: 0 success, 1 config error, 2 any scheme failed, 3 rate-bound
violation. All outputs except wall-clock fields are byte-reproducible for a
fixed config and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import problems, schemes, sketch, solver, theory
from .linalg import SpdMatrix

SCHEMA_VERSION = 2


class ConfigError(ValueError):
    pass


def _load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")


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


def _problem_spec(cfg: dict) -> problems.ProblemSpec:
    node = cfg.get("problem")
    if not isinstance(node, dict):
        raise ConfigError("config needs a 'problem' object")
    try:
        return problems.ProblemSpec(**node)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad problem spec: {exc}")


def _config_int(node: dict, key: str, default: int | None,
                minimum: int) -> int | None:
    """``node[key]`` as an integer of at least ``minimum``; a missing key
    gives ``default``, and so does null where the default is None."""
    value = node.get(key, default)
    if value is None and default is None:
        return None
    try:
        out = int(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if isinstance(value, bool) or out is None or out < minimum:
        raise ConfigError(f"{key} must be an integer >= {minimum}, got {value!r}")
    return out


def _resolve_block_size(value, n: int) -> int:
    if value in (None, "sqrt"):
        return max(1, int(math.floor(math.sqrt(n))))
    if isinstance(value, int) and value >= 1:
        return value
    raise ConfigError(f"block_size must be a positive integer or 'sqrt', got {value!r}")


def _weight_for(scheme_id: str, g_mode, a: np.ndarray) -> SpdMatrix | None:
    if scheme_id not in schemes.WEIGHTED_SCHEMES:
        return None
    m, n = a.shape
    if g_mode == "identity":
        return SpdMatrix(np.eye(n if schemes.family(scheme_id) == "K" else m))
    if g_mode == "inverse":
        if m != n:
            raise ConfigError("g_mode 'inverse' needs a square system")
        try:
            return SpdMatrix(np.linalg.inv(a))
        except ValueError as exc:
            raise ConfigError(f"g_mode 'inverse' needs an SPD system: {exc}")
    raise ConfigError(f"scheme {scheme_id} needs g_mode 'identity' or 'inverse'")


def _scheme_list(cfg: dict) -> list[str]:
    ids = cfg.get("schemes")
    if not isinstance(ids, list) or not ids:
        raise ConfigError("config needs a nonempty 'schemes' list")
    for sid in ids:
        if sid not in schemes.ALL_SCHEMES:
            raise ConfigError(f"unknown scheme id {sid!r}")
    return ids


def _build_scheme(sid: str, block_size: int, distribution: str | None,
                  g_mode, a: np.ndarray) -> schemes.Scheme:
    kind = sketch.UNIFORM
    if distribution and schemes.sketch_kind(sid) in (sketch.COORD_ROW, sketch.COORD_COL):
        kind = distribution
    g = _weight_for(sid, g_mode, a)
    try:
        return schemes.make_scheme(sid, block_size=block_size,
                                   distribution=kind, g=g)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _check_spd_compat(cfg_problem_kind: str, ids: list[str]):
    spd_ok = cfg_problem_kind in (problems.SPARSE_SPD, problems.FROM_FILE)
    for sid in ids:
        if schemes.family(sid) == "S" and not spd_ok:
            raise ConfigError(f"scheme {sid} needs an SPD problem "
                              f"(SparseSpd or an SPD FromFile matrix)")


def _finite(value, label: str) -> float:
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"{label} is not finite: {v!r}")
    return v


def _write_trace_csv(path: Path, trace: solver.SolveTrace):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("iter,res,err,time_s\n")
        for rec in trace.records:
            err = "" if rec.rel_error is None else repr(rec.rel_error)
            fh.write(f"{rec.k},{rec.rel_residual!r},{err},{rec.elapsed_s:.6f}\n")


def _dump_json(path: Path, payload: dict):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg.get("output_dir") or "out")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output dir {out}: {exc}")
    return out


def run_bench(cfg: dict) -> int:
    spec = _problem_spec(cfg)
    ids = _scheme_list(cfg)
    _check_spd_compat(spec.kind, ids)
    stop_cfg = cfg.get("stop", {})
    try:
        stop = solver.StopRule(itmax=_config_int(stop_cfg, "itmax", 100_000, 1),
                               tol=float(stop_cfg.get("tol", 1e-6)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad stop rule: {exc}")
    trials = _config_int(cfg, "trials", 1, 1)
    seed = _config_int(cfg, "seed", 0, 0)
    trace_every = _config_int(cfg, "trace_every", None, 1)
    distribution = cfg.get("distribution")
    out = _out_dir(cfg)

    problem = problems.generate(spec)
    n = problem.shape[1]
    block = _resolve_block_size(cfg.get("block_size"), n)

    per_scheme = []
    any_failed = False
    for sid in ids:
        scheme = _build_scheme(sid, block, distribution, cfg.get("g_mode"),
                               problem.a)
        for trial in range(trials):
            rng = sketch.rng_from_keys(seed, schemes.ALL_SCHEMES.index(sid), trial)
            entry = {"scheme": sid, "trial": trial}
            t0 = time.perf_counter()
            try:
                _, trace = solver.solve(problem, scheme, stop, rng,
                                        trace_every=trace_every)
                final = trace.final
                entry.update({
                    "status": trace.status,
                    "iters": trace.iterations,
                    "final_res": _finite(final.rel_residual, "final_res"),
                    "final_err": (None if final.rel_error is None
                                  else _finite(final.rel_error, "final_err")),
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

    summary = {
        "schema_version": SCHEMA_VERSION,
        "config_echo": cfg,
        "per_scheme": per_scheme,
        "problem_stats": (problem.stats.to_json_dict()
                          if problem.stats is not None else None),
    }
    _dump_json(out / "summary.json", summary)
    return 2 if any_failed else 0


_DEFAULT_RATE_DIST = {"K1": sketch.NORM_PROPORTIONAL,
                      "C1": sketch.NORM_PROPORTIONAL,
                      "S1": sketch.TRACE_PROPORTIONAL}

_DEFAULT_RATE_NORM = {"K": theory.NORM_EUCLID, "C": theory.NORM_GHAT,
                      "S": theory.NORM_A}


def run_rates(cfg: dict) -> int:
    spec = _problem_spec(cfg)
    ids = _scheme_list(cfg)
    _check_spd_compat(spec.kind, ids)
    trials = _config_int(cfg, "trials", 100, 1)
    iterations = _config_int(cfg, "iterations", 500, 1)
    seed = _config_int(cfg, "seed", 0, 0)
    tolerance = float(cfg.get("tolerance", 0.02))
    out = _out_dir(cfg)

    problem = problems.generate(spec)
    n = problem.shape[1]
    block = _resolve_block_size(cfg.get("block_size", 1), n)

    reports = []
    violations = []
    for sid in ids:
        dist = cfg.get("distribution") or _DEFAULT_RATE_DIST.get(sid)
        scheme = _build_scheme(sid, block, dist, cfg.get("g_mode"), problem.a)
        fam = schemes.family(sid)
        norm_used = cfg.get("norm_used") or (
            theory.NORM_GINV if (fam == "K" and scheme.g is not None)
            else _DEFAULT_RATE_NORM[fam])
        try:
            report = theory.fit_empirical_rate(problem, scheme, trials=trials,
                                               iterations=iterations,
                                               norm_used=norm_used, seed=seed)
        except ValueError as exc:  # e.g. an S scheme on a non-SPD matrix
            raise ConfigError(f"rates for {sid}: {exc}") from exc
        reports.append(report.to_json_dict())
        if (math.isfinite(report.rho_theory) and not report.degenerate
                and math.isfinite(report.rho_fit)
                and report.rho_fit > report.rho_theory + tolerance):
            violations.append(sid)

    payload = {
        "schema_version": SCHEMA_VERSION,
        "config_echo": cfg,
        "reports": reports,
        "violations": violations,
        "problem_stats": (problem.stats.to_json_dict()
                          if problem.stats is not None else None),
    }
    _dump_json(out / "rates.json", payload)
    return 3 if violations else 0


def run_verify_expectation(cfg: dict) -> int:
    spec = _problem_spec(cfg)
    target = cfg.get("target", "propagator")
    seed = _config_int(cfg, "seed", 0, 0)
    out = _out_dir(cfg)
    problem = problems.generate(spec)
    a = problem.a
    g_mode = cfg.get("g_mode")

    if target == "propagator":
        sid = cfg.get("scheme", "K2")
        if sid not in ("K2", "K4", "K6"):
            raise ConfigError("propagator target supports schemes K2/K4/K6")
        block = _resolve_block_size(cfg.get("block_size", 1), a.shape[1])
        g = _weight_for(sid, g_mode, a) if sid == "K6" else None
        samples = _config_int(cfg, "samples", 10_000, 2)
        est = theory.estimate_mean_propagator(a, g, sid, samples,
                                              sketch.make_rng(seed),
                                              block_size=block)
    elif target == "sketched_inverse":
        block = _config_int(cfg, "partition_block", 1, 1)
        g = None
        if g_mode == "identity":
            g = SpdMatrix(np.eye(a.shape[0]))
        elif g_mode is not None:
            raise ConfigError("sketched_inverse supports g_mode null or 'identity'")
        members = theory.coordinate_partition(a.shape[1], block)
        est = theory.mean_sketched_inverse(a, g, members)
    else:
        raise ConfigError(f"unknown target {target!r}")

    payload = {
        "schema_version": SCHEMA_VERSION,
        "config_echo": cfg,
        "target": target,
        "report": est.to_json_dict(),
    }
    _dump_json(out / "expectation.json", payload)
    return 0


def run_gen_problem(cfg: dict) -> int:
    spec = _problem_spec(cfg)
    out = _out_dir(cfg)
    problem = problems.generate(spec)
    problems.save_matrixmarket(out / "A.mtx", problem.a, fmt="array")
    problems.save_matrixmarket(out / "b.mtx", problem.b.reshape(-1, 1), fmt="array")
    meta = {
        "schema_version": SCHEMA_VERSION,
        "config_echo": cfg,
        "problem_stats": (problem.stats.to_json_dict()
                          if problem.stats is not None else None),
    }
    _dump_json(out / "meta.json", meta)
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
