#!/usr/bin/env python3
"""Print the two worked reproductions as small tables.

Runs the deformation computation for the binary-form cones (n = 1..6),
the matching law-linearization dimensions (n = 1..6, window D = 4n),
and the rank-three point in k4 + wedge2 + wedge3.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from horomod.channels import law_tangent
from horomod.examples import BINARY_DEGREES, binary_cone_input, flag_multicone
from horomod.rootdata import make_root_datum, make_weight_monoid


def print_binary_family():
    print("binary-form cones, closure of the orbit of x^n in V(n)")
    print(f"{'n':>3} {'T1 dim':>7} {'law dim':>8}  weights")
    a1 = make_root_datum("A1")
    for n in BINARY_DEGREES:
        report = binary_cone_input(n).report()
        law_dim = law_tangent(make_weight_monoid(a1, [(n,)]), 4 * n)[0]
        ws = " ".join(f"{w[0]}*alpha" for w in report["weights"]) or "-"
        print(f"{n:>3} {report['dims']['t1_invariant']:>7} {law_dim:>8}  {ws}")
    print()


def print_flag_point():
    report = flag_multicone(3).report()
    print("rank-three point e1 + e1^e2 + e1^e2^e3")
    print(f"  T1 dim   {report['dims']['t1_invariant']}")
    for w in report["weights"]:
        pretty = "+".join(
            f"a{i + 1}" for i, c in enumerate(w) for _ in range(c)
        )
        print(f"  weight   {pretty}  (root coords {w})")
    print()


if __name__ == "__main__":
    t0 = time.monotonic()
    print_binary_family()
    print_flag_point()
    print(f"total {time.monotonic() - t0:.2f}s")
