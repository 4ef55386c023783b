"""Run the benchmark over several seeds, on one checkout or two.

    python3 perfbench/sweep.py OUT --seeds 1-10 [--workload W ...] [--trace 1] CHECKOUT [CHECKOUT]

Each run's stdout goes to OUT/<side>/<workload>/seed<N>.json and its
stderr next to it, where <side> is 0 for the first checkout and 1 for
the second.  With two checkouts the side that runs first alternates
from seed to seed.  Command, run length and workloads are read from
BENCHMARK.json in the first checkout.  Summarise or compare the result
directories with compare.py.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", type=Path)
    ap.add_argument("checkouts", nargs="+", type=Path)
    ap.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if len(args.checkouts) > 2:
        ap.error("give one or two checkouts")

    bench = json.loads((args.checkouts[0] / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    for seed in args.seeds:
        sides = list(enumerate(args.checkouts))
        if seed % 2:
            sides.reverse()
        for workload in workloads:
            for side, checkout in sides:
                dest = args.out / str(side) / workload
                dest.mkdir(parents=True, exist_ok=True)
                cmd = bench["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
                ]
                with open(dest / f"seed{seed}.json", "w") as out, open(dest / f"seed{seed}.err", "w") as err:
                    rc = subprocess.run(cmd, cwd=checkout, stdout=out, stderr=err).returncode
                print(f"side {side} {workload} seed {seed}: exit {rc}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
