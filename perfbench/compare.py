"""Summarise one set of benchmark results or compare two.

    python3 perfbench/compare.py [--bench BENCHMARK.json] PARENT_DIR [CHANGE_DIR]

A result directory holds <workload>/seed<N>.json files, each the stdout
of one run (sweep.py writes them).  For every workload and metric the
tool prints each side's median and quartiles.

With one directory it also prints the spread, (q3 - q1) / median, beside
the metric's bound; a benchmark is steady when every spread is below a
third of its bound.

With two directories, runs are paired by seed and the second side is the
change.  A gain is claimed only when the change wins at least nine
tenths of the pairs (ties count for neither side) and the medians differ
by more than the parent's quartile distance.  A regression is a change
median worse than the parent's by more than the bound.  Where the
parent's spread exceeds the bound, the verdict is "unresolved" unless
every change run beats every parent run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple


def load(directory: Path) -> Dict[str, Dict[int, dict]]:
    """workload -> seed -> result object (last stdout line)."""
    out: Dict[str, Dict[int, dict]] = {}
    for path in sorted(directory.glob("*/seed*.json")):
        lines = path.read_text().strip().splitlines()
        if not lines:
            continue
        try:
            result = json.loads(lines[-1])
        except ValueError:
            continue
        out.setdefault(path.parent.name, {})[int(path.stem[4:])] = result
    return out


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: List[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def metric_specs(bench: dict) -> Dict[str, dict]:
    return {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}


def values(runs: Dict[int, dict], name: str) -> Dict[int, float]:
    return {s: r["metrics"][name]["value"] for s, r in runs.items() if name in r.get("metrics", {})}


def verdict(spec: dict, parent: Dict[int, float], change: Dict[int, float]) -> str:
    lower = spec["better"] == "lower"
    seeds = sorted(set(parent) & set(change))
    wins = sum((change[s] < parent[s]) if lower else (change[s] > parent[s]) for s in seeds)
    p = list(parent.values())
    c = list(change.values())
    p_q1, p_med, p_q3 = quartiles(p)
    c_med = quartiles(c)[1]
    p_iqr = p_q3 - p_q1
    worse = (c_med - p_med) if lower else (p_med - c_med)
    if seeds and wins >= 0.9 * len(seeds) and -worse > p_iqr:
        return f"gain ({wins}/{len(seeds)} pairs)"
    bound = spec.get("bound")
    if bound is None:
        return f"{wins}/{len(seeds)} pairs better"
    all_better = all((x < y) if lower else (x > y) for x in c for y in p)
    if spread(p) > bound and not all_better:
        return "unresolved (parent spread exceeds bound)"
    if worse > bound * p_med:
        return f"REGRESSION (worse by {worse / p_med:.1%}, bound {bound:.0%})"
    return f"within bound ({wins}/{len(seeds)} pairs better)"


def fmt(values: List[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dirs", nargs="+", type=Path)
    ap.add_argument("--bench", type=Path, default=Path("BENCHMARK.json"))
    args = ap.parse_args()
    if len(args.dirs) > 2:
        ap.error("give one or two result directories")
    specs = metric_specs(json.loads(args.bench.read_text()))
    sides = [load(d) for d in args.dirs]
    unsteady = 0
    for workload in sorted(sides[0]):
        runs = [side.get(workload, {}) for side in sides]
        for i, r in enumerate(runs):
            failed = sum(x["failed"] for x in r.values())
            bad = sum(not x["correct"] for x in r.values())
            print(f"{workload} side {i}: {len(r)} runs, {failed} failed requests, {bad} runs not correct")
        names = sorted({n for r in runs[0].values() for n in r.get("metrics", {})})
        for name in names:
            spec = specs.get(name, {"better": "lower"})
            vals = [values(r, name) for r in runs]
            line = f"  {name:42s} " + " | ".join(fmt(list(v.values())) for v in vals if v)
            if len(runs) == 1:
                bound = spec.get("bound")
                s = spread(list(vals[0].values()))
                steady = bound is None or s < bound / 3
                unsteady += bound is not None and not steady
                line += f"  spread {s:.3f}" + (f" bound {bound} {'ok' if steady else 'UNSTEADY'}" if bound else "")
            elif vals[0] and vals[1]:
                line += "  " + verdict(spec, vals[0], vals[1])
            print(line)
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
