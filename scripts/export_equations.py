#!/usr/bin/env python3
"""Dump the commutativity and associativity systems for the windows
N*n at truncation 4n, n = 1..5, one text file per window.

Each window's linearized solution space is also computed from the
linear rows alone (law_tangent); the script fails if the two routes
disagree."""

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from horomod.channels import law_tangent
from horomod.mulaw import law_equations, tangent_at_horospherical
from horomod.polysys import system_to_text
from horomod.rootdata import make_root_datum, make_weight_monoid

OUT_DIR = sys.argv[1] if len(sys.argv) > 1 else "equations"


def main():
    rd = make_root_datum("A1")
    os.makedirs(OUT_DIR, exist_ok=True)
    for n in range(1, 6):
        mon = make_weight_monoid(rd, [(n,)])
        system = law_equations(mon, 4 * n)
        dim, weights = tangent_at_horospherical(system)
        if law_tangent(mon, 4 * n) != (dim, weights):
            sys.exit(f"n={n}: law_tangent disagrees with the full system")
        path = os.path.join(OUT_DIR, f"law_system_n{n}_D{4 * n}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(system_to_text(system))
        print(
            f"{path}: {len(system.unknowns)} unknowns, "
            f"{len(system.equations)} equations, "
            f"linearized solution dim {dim}"
        )


if __name__ == "__main__":
    main()
