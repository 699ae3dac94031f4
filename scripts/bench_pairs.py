#!/usr/bin/env python3
"""Pairs of benchmark runs, parent against change, judged by the gain rule.

    python scripts/bench_pairs.py PARENT_RUNS CHANGE_RUNS [--out BENCH_N.json]

The two arguments are the ``perfbench/runs`` directories of checkouts that
ran ``perfbench/run.py`` at the same seeds; runs pair by workload and seed.
The ``--trace 0`` runs give the end-to-end metrics and each cell's
``seconds_median``, the ``--trace 1`` runs every per-layer metric per seed.

The gain rule. For each list of pairs, count the change's wins, its losses
and the ties; ties count for neither side but stay in n. The verdict is
- "claimed": wins >= 0.9 n, and the gap between the medians, in the better
  direction, exceeds the parent's IQR (q3 - q1);
- "worse": the same rule with the sides swapped (losses, the change's IQR);
- "moved": the medians differ, but neither of the above holds;
- "same": the medians are equal.
Better directions are read from ``end_to_end`` in ``BENCHMARK.json``; cell
seconds are lower-is-better. Quartiles are ``statistics.quantiles`` with
``method="inclusive"``, as in every committed ``BENCH_*.json``;
``perfbench/spread.py`` uses the default exclusive method, so its IQRs are
not the rule's.

It prints one line per workload and metric or cell, then any cell whose
iteration counts differ between the sides. ``--out`` adds the pairs, with
per-seed iteration counts and traced metrics, to a BENCH file through
:func:`write_bench`, the one writer of every BENCH file.
"""

import argparse
import json
import os
import statistics
import sys
from importlib.metadata import version
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def directions() -> dict:
    """Each end-to-end metric's name, mapped to whether higher is better."""
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    return {m["name"]: m["better"] == "higher" for m in metrics}


def runs(directory: Path, trace: int) -> dict:
    found = (json.loads(path.read_text())
             for path in sorted(Path(directory).glob(f"*-trace{trace}.json")))
    return {(run["workload"], run["seed"]): run for run in found}


def quartiles(values) -> dict:
    q = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2]}


def gap(base: dict, other: dict, higher: bool) -> float:
    """How far ``other``'s median lies from ``base``'s, in the better way."""
    d = other["median"] - base["median"]
    return d if higher else -d


def beats(wins: int, n: int, base: dict, other: dict, higher: bool) -> bool:
    """The gain rule: ``other`` won ``wins`` of ``n`` pairs against ``base``,
    at least 0.9 n, and its median gap exceeds ``base``'s IQR."""
    iqr = base["q3"] - base["q1"]
    return wins >= 0.9 * n and gap(base, other, higher) > iqr


def judge(parent: list, change: list, higher: bool) -> dict:
    """Quartiles of both sides of a pair list (paired by index), the
    change's wins and losses, and the verdict."""
    sign = 1 if higher else -1
    p, c = quartiles(parent), quartiles(change)
    wins = sum(sign * (y - x) > 0 for x, y in zip(parent, change))
    losses = sum(sign * (y - x) < 0 for x, y in zip(parent, change))
    verdict = ("claimed" if beats(wins, len(parent), p, c, higher)
               else "worse" if beats(losses, len(parent), c, p, higher)
               else "moved" if p["median"] != c["median"] else "same")
    return {"parent": p, "change": c, "change_better": wins,
            "change_worse": losses, "verdict": verdict}


def pairs(parent_dir: Path, change_dir: Path) -> dict:
    """Per workload: each end-to-end metric and cell's seconds judged over the
    seeds both sides ran, iteration counts, and traced metrics per seed.
    Raises ValueError for a workload with fewer than two pairs, which have
    no quartiles."""
    higher = directions()
    parent, change = runs(parent_dir, 0), runs(change_dir, 0)
    keys = sorted(set(parent) & set(change))
    e2e, cells = {}, {}
    for workload in sorted({w for w, _ in keys}):
        seeds = [s for w, s in keys if w == workload]
        if len(seeds) < 2:
            raise ValueError(f"{workload} has {len(seeds)} pair of runs; the "
                             f"gain rule needs at least two pairs")
        p = [parent[(workload, s)] for s in seeds]
        c = [change[(workload, s)] for s in seeds]

        def both(get):  # one value per seed on each side
            return {"parent": [get(r) for r in p],
                    "change": [get(r) for r in c]}

        e2e[workload] = {
            "seeds": seeds,
            "metrics": {name: judge(**both(lambda r: r["metrics"][name]),
                                    higher=up) for name, up in higher.items()},
            "iterations": {cell: both(lambda r: r["cells"][cell]["iterations"])
                           for cell in p[0]["cells"]},
        }
        cells[workload] = {
            cell: judge(**both(lambda r: r["cells"][cell]["seconds_median"]),
                        higher=False) for cell in p[0]["cells"]}
    traced = {side: {f"{w}/{s}": run["metrics"] for (w, s), run in
                     runs(d, 1).items()}
              for side, d in (("parent", parent_dir), ("change", change_dir))}
    return {"benchmark_pairs": e2e, "cell_seconds": cells, "traced": traced}


def table(out: dict) -> list:
    higher, lines, differ = directions(), [], []
    for workload, pair in out["benchmark_pairs"].items():
        n = len(pair["seeds"])
        rows = [(name, e, higher[name]) for name, e in pair["metrics"].items()]
        rows += [(f"cell {cell}", e, False)
                 for cell, e in out["cell_seconds"][workload].items()]
        for label, e, up in rows:
            p, c = e["parent"], e["change"]
            lines.append(
                f"{workload} {label}: {p['median']:.4g} -> {c['median']:.4g}, "
                f"{e['change_better']}/{e['change_worse']}/{n} better/worse/n,"
                f" gap {gap(p, c, up):+.3g}, IQR {p['q3'] - p['q1']:.3g}: "
                f"{e['verdict']}")
        differ += [f"{workload} cell {cell}: iterations differ, "
                   f"{its['parent']} -> {its['change']}"
                   for cell, its in pair["iterations"].items()
                   if its["parent"] != its["change"]]
    return lines + differ


def write_bench(path: Path, what: str, sections: dict) -> None:
    """Write ``sections`` into the BENCH file ``path`` as sorted JSON, keeping
    the rest of an existing file. A new one gets a ``what``/``host`` header
    (inputs are timed at one BLAS thread: the sweeps pin it, as perfbench)."""
    path = Path(path)
    payload = json.loads(path.read_text()) if path.exists() else {
        "what": what, "host": {"cpus": os.cpu_count(), "blas_threads": 1,
                               "numpy": version("numpy")}}
    payload.update(sections)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_runs", type=Path, metavar="PARENT_RUNS")
    parser.add_argument("change_runs", type=Path, metavar="CHANGE_RUNS")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    try:
        out = pairs(args.parent_runs, args.change_runs)
    except ValueError as exc:
        parser.error(str(exc))  # exits 2
    print("\n".join(table(out)))
    if args.out:
        write_bench(args.out, __doc__.split("\n")[0], out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
