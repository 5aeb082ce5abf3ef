#!/usr/bin/env python3
"""Summarise benchmark runs of two or more checkouts into one BENCH_<commit>.json.

Each side is a checkout on which ``perfbench/run.py --trace 0`` was run; its
runs are read from ``<checkout>/.perfbench_out/*.trace0.json``.  For every
workload and side the summary gives the number of runs, their seeds, the
operations attempted and failed, and each end-to-end metric's median and
quartiles.  Where two sides ran a workload on the same seeds, it also counts
the seeds on which the later side read better, for every metric.

Example, after alternating runs on a parent and a change:

    python3 scripts/bench_summary.py --side parent ../parent fced78a \\
        --side change . "fced78a + this change" --out BENCH_fced78a.json
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(checkout: Path) -> dict[str, list[dict]]:
    """Every untraced run under the checkout, by workload, ordered by seed."""
    runs: dict[str, list[dict]] = {}
    for path in sorted((checkout / ".perfbench_out").glob("*.trace0.json")):
        run = json.loads(path.read_text())
        runs.setdefault(run["workload"], []).append(run)
    for workload_runs in runs.values():
        workload_runs.sort(key=lambda r: r["seed"])
    return runs


def spread(values: list[float]) -> dict[str, float]:
    """Median and quartiles (inclusive method; a single run is its own quartiles)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def side_summary(runs: list[dict]) -> dict:
    metrics = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        metrics[name] = dict(spread(values), unit=first["unit"])
    return {
        "runs": len(runs),
        "seeds": [r["seed"] for r in runs],
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }


def better_on_same_seed(base: list[dict], other: list[dict], lower_is_better: dict[str, bool]) -> dict:
    """For each metric, on how many shared seeds ``other`` read better than ``base``."""
    by_seed = {r["seed"]: r for r in base}
    shared = [(by_seed[r["seed"]], r) for r in other if r["seed"] in by_seed]
    wins = {}
    for name, lower in lower_is_better.items():
        if name not in base[0]["metrics"]:
            continue
        count = 0
        for b, o in shared:
            vb, vo = b["metrics"][name]["value"], o["metrics"][name]["value"]
            count += (vo < vb) if lower else (vo > vb)
        wins[name] = count
    return {"pairs": len(shared), "wins": wins}


def end_to_end_directions() -> dict[str, bool]:
    """Whether lower is better, for every end-to-end metric in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--side", nargs=3, action="append", required=True, metavar=("NAME", "CHECKOUT", "COMMIT"),
        help="a side to summarise: its name, the checkout it ran in, and the commit it measured",
    )
    parser.add_argument("--out", help="output file (default: BENCH_<commit of the last side>.json)")
    args = parser.parse_args(argv)

    sides = [(name, Path(checkout), commit) for name, checkout, commit in args.side]
    runs = {name: load_runs(checkout) for name, checkout, _ in sides}
    for name, checkout, _ in sides:
        if not runs[name]:
            print(f"error: no *.trace0.json runs under {checkout / '.perfbench_out'}", file=sys.stderr)
            return 2
    directions = end_to_end_directions()
    workloads = sorted({w for side_runs in runs.values() for w in side_runs})
    summary = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "sides": {name: {"commit": commit} for name, _, commit in sides},
        "workloads": {},
    }
    for workload in workloads:
        entry = {name: side_summary(runs[name][workload]) for name, _, _ in sides if workload in runs[name]}
        base_name = sides[0][0]
        for name, _, _ in sides[1:]:
            if workload in runs[base_name] and workload in runs[name]:
                entry[f"{name}_vs_{base_name}"] = better_on_same_seed(
                    runs[base_name][workload], runs[name][workload], directions
                )
        summary["workloads"][workload] = entry

    out = Path(args.out or f"BENCH_{sides[-1][2]}.json")
    out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}: {len(workloads)} workloads, sides {', '.join(name for name, _, _ in sides)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
