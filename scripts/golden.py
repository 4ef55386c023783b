#!/usr/bin/env python3
"""Compare the CLI of this checkout with another source tree on a golden set.

    python scripts/golden.py OTHER_SRC

OTHER_SRC is the src directory of another checkout, for instance of a
git worktree of HEAD^.  The script builds a fixed, seeded list of
requests: every subcommand and its --help, usage errors, the kinds of
input the CLI fuzz tests draw, t1 at random and U-fixed points with and
without --lie-u and --diag, orbit-tangent, stabilizer and t1 at points
with fractions, hwv, coinv and the point requests on 3-factor tensors
and on sums that hold a tensor, the flag multicones A2-A8, both
examples, weights and tensor requests up to the default dimension cap,
the law requests, orbit laws drawn as the orbit-law sweep of the tests
draws them, a few requests that once ran for seconds or overflowed
the stack (bound_cases),
law files each spoiled in one way, and requests with two bad inputs,
which show the input read first (input_cases), and last the refusals of
input that no other request reaches (REFUSALS).  The worked examples
come from horomod.examples.  It runs the whole list
through horomod.cli.main once under this checkout's src and once under
OTHER_SRC, each side in its own subprocess, the two at once.  Each case
runs in a fresh temporary working directory, and its steps run there
in turn: a step is
a request, or {"write": NAME, "text": TEXT}, which writes an input file
for the requests after it.  Requests that write files name them
relatively, and the files left behind are compared along with the exit
code, stdout and stderr of every request.  The script
prints how many requests differ, then each differing request after its
exit code under OTHER_SRC and here (3 -> 0, say), as its case index and
its argv with each argument clipped as error messages clip, then how many
horomod functions neither the import of horomod.cli nor a request
entered on this checkout's side, and each of them: such a function is
a dead helper, and none is allowed.  The functions are the code objects
of the horomod modules that side imported, matched by identity to the
code that ran, so no source file is read again.
Last it prints each request that, on this checkout's side, broke the error
contract: it ended in a traceback, or in an exit code other than 0, 2,
3 and 4.  It exits 1 if there is such a request or a dead helper, and 0
otherwise, whatever the differences.
"""

import contextlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import gcd
from pathlib import Path
from types import CodeType

SRC = Path(__file__).resolve().parent.parent / "src"
SEED = 20031

EXPRS_A1 = [
    "natural(2)",
    "dual(natural(2))",
    "sym(3,natural(2))",
    "tensor(natural(2),natural(2))",
    "sum(natural(2),sym(2,natural(2)))",
]
EXPRS_A3 = [
    "natural(4)",
    "ext(2,natural(4))",
    "ext(3,natural(4))",
    "dual(ext(2,natural(4)))",
    "sum(natural(4),ext(2,natural(4)),ext(3,natural(4)))",
    "sym(2,ext(2,natural(4)))",
    "ext(2,sym(2,natural(4)))",
]

# The modules of the t1 fuzz and sweep tests, by rank.
T1_MODULES = {
    1: [
        "natural(2)",
        "sym(2,natural(2))",
        "sym(3,natural(2))",
        "sym(4,natural(2))",
        "sum(natural(2),sym(2,natural(2)))",
        "sum(sym(2,natural(2)),sym(3,natural(2)))",
        "sum(sym(2,natural(2)),sym(4,natural(2)))",
        "tensor(natural(2),sym(2,natural(2)))",
        "tensor(sym(2,natural(2)),sym(2,natural(2)))",
    ],
    2: [
        "natural(3)",
        "sum(natural(3),dual(natural(3)))",
        "sym(2,natural(3))",
        "tensor(natural(3),dual(natural(3)))",
        "tensor(natural(3),ext(2,natural(3)))",
        "sum(natural(3),ext(2,natural(3)))",
    ],
    3: [
        "ext(2,natural(4))",
        EXPRS_A3[4],  # the A3 flag multicone
        "sum(natural(4),dual(natural(4)))",
    ],
}

# A 3-factor tensor and a sum that holds a tensor, by group.
NARY_MODULES = {
    "A1": [
        "tensor(natural(2),natural(2),natural(2))",
        "sum(natural(2),tensor(natural(2),sym(2,natural(2))),dual(natural(2)))",
    ],
    "A2": [
        "tensor(natural(3),dual(natural(3)),natural(3))",
        "sum(natural(3),tensor(natural(3),dual(natural(3))),ext(2,natural(3)))",
    ],
}

# Bare modules past their cap, and one at it.
OVER_CAP = [
    ["hwv", "A19", "natural(20)", "--cap", "10"],
    ["coinv", "A3", "dual(natural(4))", "--cap", "2"],
    ["hwv", "A3", "sum(natural(4))", "--cap", "3"],
    ["hwv", "A3", "tensor(natural(4))", "--cap", "3"],
    ["hwv", "A1", "natural(2)", "--cap", "-1"],
    ["hwv", "A3", "natural(4)", "--cap", "4"],
]


def example_args(ex):
    """The group, module and point of a worked example of
    horomod.examples, as the CLI reads them."""
    return [ex.label, ex.module, ",".join(map(str, ex.point))]


def t1_argv(ex):
    """t1 on a worked example, with --lie-u for the unipotent radical."""
    return ["t1", *example_args(ex), "--lie-u"]


def random_expr(rng, rank, depth=0):
    """A module expression as the CLI fuzz test draws them."""
    kind = rng.choice(["natural", "dual", "sym", "ext", "sum", "tensor"] if depth < 3 else ["natural"])
    if kind == "natural":
        return f"natural({rng.choice([rank + 1] * 4 + [rank + 2])})"
    if kind == "dual":
        return f"dual({random_expr(rng, rank, depth + 1)})"
    if kind in ("sym", "ext"):
        return f"{kind}({rng.randint(0, 4)},{random_expr(rng, rank, depth + 1)})"
    terms = [random_expr(rng, rank, depth + 1) for _ in range(rng.randint(1, 3))]
    return f"{kind}({','.join(terms)})"


def edited(rng, text):
    """text with one character dropped, inserted or replaced."""
    pos = rng.randrange(len(text))
    ch = rng.choice("(),0123x -")
    edit = rng.choice(["drop", "insert", "replace"])
    tail = text[pos + 1:] if edit != "insert" else text[pos:]
    return text[:pos] + ("" if edit == "drop" else ch) + tail


def module_cases(rng):
    cases = []
    for _ in range(400):
        rank = rng.randint(1, 3)
        text = random_expr(rng, rank)
        if rng.randint(0, 2) == 0:
            text = edited(rng, text)
        command = rng.choice(["hwv", "coinv"])
        cases.append([command, "--cap", rng.choice(["10", "40", "200"]), "--", f"A{rank}", text])
    return cases


def point_cases(rng, liealg, rootdata, errors):
    """orbit-tangent, stabilizer and t1 at random points of random modules
    that build under a cap of 60."""
    cases = []
    while len(cases) < 240:
        rank = rng.randint(1, 3)
        text = random_expr(rng, rank)
        try:
            m = liealg.build_module(rootdata.make_root_datum(f"A{rank}"), text, cap=60)
        except (errors.ValidationError, errors.ResourceError):
            continue
        point = ",".join(str(rng.choice([0, 0, 1, -1, 2])) for _ in range(m.dim))
        for command in ("orbit-tangent", "stabilizer", "t1"):
            flags = ["--lie-u"] if command == "t1" and rng.random() < 0.5 else []
            cases.append([command, *flags, "--cap", "60", "--", f"A{rank}", text, point])
    return cases


def congruence_flags(rng, rank, weights):
    """0-2 --diag= flags: most pass every weight of the point, some are
    drawn freely, some have a coefficient too many."""
    flags = []
    for _ in range(rng.randint(0, 2)):
        count = rng.choice([rank] * 5 + [rank + 1])
        coeffs = [rng.randint(-3, 3) for _ in range(count)]
        if rng.random() < 0.7 and count == rank:
            g = 0
            for w in weights:
                g = gcd(g, sum(a * b for a, b in zip(coeffs, w)))
            moduli = [d for d in range(1, 7) if g % d == 0] + ([0] if g == 0 else [])
            modulus = rng.choice(moduli)
        else:
            modulus = rng.randint(0, 4)
        flags.append(f"--diag={','.join(map(str, coeffs))}:{modulus}")
    return flags


def hw_sum(liealg, m, coeff):
    """The sum of the highest weight vectors of m, each times a fresh
    coeff(), drawn in the order highest_weight_vectors lists them."""
    x = [0] * m.dim
    for vs in liealg.highest_weight_vectors(m).values():
        for v in vs:
            c = coeff()
            for i, val in v.items():
                x[i] += c * val
    return x


def t1_cases(rng, liealg, rootdata):
    """t1 on the fuzz and sweep modules, at U-fixed points (combinations
    of highest weight vectors) and at random points, some of the wrong
    length; with and without --lie-u and --diag."""
    cases = []
    for _ in range(900):
        rank = rng.randint(1, 3)
        module = rng.choice(T1_MODULES[rank])
        m = liealg.build_module(rootdata.make_root_datum(f"A{rank}"), module)
        if rng.random() < 0.5:
            point = [str(c) for c in hw_sum(liealg, m, lambda: rng.choice([0, 1, 2, -1]))]
        else:
            length = rng.choice([m.dim] * 6 + [m.dim - 1, m.dim + 1])
            point = [str(rng.choice([0, 0, 0, 1, -1, 2])) for _ in range(length)]
        support = [m.basis_weights[i] for i, c in enumerate(point[: m.dim]) if c != "0"]
        flags = ["--lie-u"] if rng.random() < 0.7 else []
        flags += congruence_flags(rng, rank, support)
        cases.append(["t1", *flags, "--", f"A{rank}", module, ",".join(point)])
    return cases


def rational_point_cases(liealg, rootdata):
    """orbit-tangent, stabilizer and t1 at points with fractions, drawn
    from their own seeded generator: on the t1 modules, at random points
    of integers, p/q and plain decimals, and at U-fixed points with
    fractional coefficients, so that RowSpace clears denominators."""
    rng = random.Random(SEED)
    entries = ["0"] * 4 + ["1", "-1", "2", "1/2", "-3/4", "7/3", "0.5", "-2.25", "1.125"]
    cases = []
    for _ in range(60):
        rank = rng.randint(1, 3)
        module = rng.choice(T1_MODULES[rank])
        m = liealg.build_module(rootdata.make_root_datum(f"A{rank}"), module)
        if rng.random() < 0.5:
            coeffs = [Fraction(1, 2), Fraction(-2, 3), 3, 0]
            point = ",".join(map(str, hw_sum(liealg, m, lambda: rng.choice(coeffs))))
        else:
            point = ",".join(rng.choice(entries) for _ in range(m.dim))
        for command in ("orbit-tangent", "stabilizer", "t1"):
            flags = ["--lie-u"] if command == "t1" and rng.random() < 0.7 else []
            cases.append([command, *flags, "--", f"A{rank}", module, point])
    return cases


def nary_cases(liealg, rootdata):
    """hwv and coinv on NARY_MODULES; t1 --lie-u at the sum of their
    highest weight vectors; orbit-tangent and stabilizer there and at
    the point -1, 0, 1, -1, 0, 1, ..."""
    cases = []
    for label, exprs in NARY_MODULES.items():
        for expr in exprs:
            m = liealg.build_module(rootdata.make_root_datum(label), expr)
            hw = ",".join(map(str, hw_sum(liealg, m, lambda: 1)))
            ramp = ",".join(str(i % 3 - 1) for i in range(m.dim))
            cases += [["hwv", label, expr], ["coinv", label, expr], ["t1", "--lie-u", "--", label, expr, hw]]
            cases += [[c, "--", label, expr, p] for c in ("orbit-tangent", "stabilizer") for p in (hw, ramp)]
    return cases


def saturate_cases(rng):
    cases = []
    for _ in range(60):
        group = rng.choice(["A2", "A3"])
        rank = int(group[1:])
        gens = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rng.randint(1, 4))]
        flags = ["--root"] if rng.random() < 0.5 else []
        cases.append(["saturate", *flags, "--", group, ";".join(",".join(map(str, g)) for g in gens)])
    return cases


def weight(rng, rank, low):
    return ",".join(str(rng.randint(low, 2)) for _ in range(rank))


def small_cases(rng, cli):
    """Every subcommand's help, read off cli.COMMANDS, and the subcommands
    without a module, on small and on refused inputs."""
    cases = [["--version"], ["--help"]] + [[name, "--help"] for name in cli.COMMANDS]
    for r in range(1, 6):
        cases.append(["root-datum", f"A{r}"])
    cases += [["root-datum", label] for label in ("A0", "B2", "A141", "A" + "9" * 40)]
    for _ in range(60):
        r = rng.randint(1, 4)
        cases.append(["dominance", "--", f"A{r}", weight(rng, r, -1), weight(rng, r, -1)])
        cases.append(["tangent-weight", "--", f"A{r}", weight(rng, r, -1), weight(rng, r, -1)])
    for _ in range(100):
        r = rng.randint(1, 5)
        cases.append(["weights", f"A{r}", weight(rng, r, 0)])
        cases.append(["dim", f"A{r}", weight(rng, r, 0)])
        if r <= 3:
            cases.append(["tensor", f"A{r}", weight(rng, r, 0), weight(rng, r, 0)])
    cases += [
        ["weights", "A2", "5,5", "--cap", "10"],
        ["dim", "A2", "1,x"],
        ["weights", "A30", ",".join(["0"] * 29 + ["1"])],
        ["presentation", "A1", "1;2", "--bound", "4"],
        ["presentation", "A1", "2;3", "--bound", "6"],
        ["presentation", "A2", "1,0;0,1;1,1", "--bound", "3"],
        ["presentation", "A1", "1;2;3;4;5", "--bound", "12"],
        ["presentation", "A1", "", "--bound", "3"],
        ["presentation", "A1", "3;4;5", "--bound", "8"],
        ["saturate", "A1", "2;3"],
        ["saturate", "A1", "0"],
        ["saturate", "A2", "2,0;1,1;0,2"],
        ["saturate", "A3", "1,0,0;2,0,0;0,1,0;0,0,1"],
    ]
    # Usage errors, each reported on stderr with exit 2.
    cases += [
        [], ["frobnicate"], ["--", "dominance", "A1", "-2", "2"], ["tensor", "A1", "1"],
        ["dim", "A1", "1", "--frob"], ["dim", "A1", "--=3"], ["tensor", "A1", "1", "1", "--cap", "x"],
        ["law-tangent", "A1", "2"], ["orbit-law", "A1", "2", "--form", "1,0,1"],
    ]
    # Where the CLI's own reader of plain requests hands over to argparse,
    # and where it reads flags argparse also reads.
    cases += [
        ["law-tangent", "A1", "2", "--trunc", "8"],
        ["law-tangent", "A1", "2", "--truncation=8"],
        ["weights", "A2", "1,1", "--cap=3"],
        ["dim", "A1", "1", "--pretty=1"],
        ["dim", "--pretty", "A2", "1,1"],
        ["weights", "A2", "1,1", "--cap", "3", "--cap", "20"],
        ["reproduce-example1", "--"],
        ["law-tangent", "A1", "2", "--truncation", "-5"],
        ["dim", "A1", "--", "--"],
        ["weights", "A2", "1,1", "--cap", "1_0"],
        ["law-tangent", "A1", "2", "--truncation", "1_6"],
        ["presentation", "A1", "1;2", "--bound", "1_0"],
    ]
    return cases


def cap_edge_cases(repcalc, rootdata):
    """weights requests up to the default cap of 2000, drawn from their
    own seeded generator: large A1 and A2 weights, middling A3 ones,
    small ones in ranks 6-8 and fundamental weights of high rank; and
    tensor requests with a large factor."""
    rng = random.Random(SEED)
    cases = [["weights", "A1", "1999"], ["weights", "A2", "60,0"], ["weights", "A2", "0,60"]]
    for rank, top, count in ((1, 1999, 6), (2, 60, 10), (3, 12, 10), (6, 2, 3), (7, 2, 3), (8, 2, 3)):
        rd = rootdata.make_root_datum(f"A{rank}")
        drawn = 0
        while drawn < count:
            lam = [rng.randint(0, top) for _ in range(rank)]
            if repcalc.weyl_dim(rd, lam) <= 2000:
                cases.append(["weights", f"A{rank}", ",".join(map(str, lam))])
                drawn += 1
    for rank, k in ((60, 2), (140, 1), (140, 140)):
        cases.append(["weights", f"A{rank}", ",".join("1" if j == k else "0" for j in range(1, rank + 1))])
    cases += [
        ["tensor", "--cap", "4000", "A1", "1999", "1"],
        ["tensor", "--cap", "600000", "A2", "8,8", "8,8"],
    ]
    return cases


def law_cases():
    """The law requests; an orbit law written to a file is read back by
    root-monoid and contract in the same case."""
    cases = []
    for n in range(1, 7):
        for d in (4 * n, 8, 12, 16):
            cases.append(["law-tangent", "A1", str(n), "--truncation", str(d)])
    # The largest window the cost cap admits for each n, and the next one,
    # which it refuses.
    for n, d in enumerate((32, 47, 56, 67, 74, 83), start=1):
        for top in (d, d + 1):
            cases.append(["law-tangent", "A1", str(n), "--truncation", str(top)])
    cases += [["law-tangent", "A1", gens, "--truncation", "20"] for gens in ("1;2", "3;5", "2;5")]
    cases += [
        ["law-tangent", "A1", "2;3", "--truncation", "20"],
        ["law-tangent", "A1", "2;4", "--truncation", "16"],
        ["law-tangent", "A1", "1", "--truncation", "100"],
        ["law-tangent", "A2", "1,0", "--truncation", "4"],
        ["law-equations", "A1", "2", "--truncation", "4"],
        ["law-equations", "A1", "3", "--truncation", "9"],
        ["law-equations", "A1", "1", "--truncation", "3", "--export-system", "system.txt"],
        ["law-equations", "A1", "2", "--truncation", "8", "--export-system", "out/system.txt"],
        ["law-equations", "A1", "2", "--truncation", "100"],
        ["law-equations", "A1", "1", "--truncation", "15"],
        ["law-equations", "A1", "1", "--truncation", "15", "--export-system", "system.txt"],
        ["law-equations", "A1", "2;3", "--truncation", "12"],
        ["law-equations", "A1", "2;3", "--truncation", "12", "--export-system", "system.txt"],
        ["orbit-law", "A1", "2", "--form", "1,0,1", "--truncation", "20"],
        ["orbit-law", "A1", "2", "--form", "1e5000,0,1", "--truncation", "4"],
        ["orbit-law", "A1", "2", "--form", "7" * 4300 + ",0,1", "--truncation", "8"],
        ["root-monoid", "missing.json"],
    ]
    forms = {
        1: ["1,1", "1,0"],
        2: ["1,0,1", "1,2,1", "0,1,0"],
        3: ["1,0,0,1", "0,1,1,0"],
        4: ["0,0,1,0,0", "1,0,0,0,1"],
    }
    for n, fs in forms.items():
        for form in fs:
            for d in (4 * n, 8):
                write = ["orbit-law", "A1", str(n), "--form", form, "--truncation", str(d), "--output", "law.json"]
                cases.append([write, ["root-monoid", "law.json"], ["contract", "law.json", "2"],
                              ["contract", "law.json", "1/3", "--output", "moved.json"]])
    # The largest law-equations window the cost cap admits for each n, and
    # the next one, which it refuses; then the largest for a few monoids of
    # two generators.
    for n, d in enumerate((15, 21, 26, 31, 34, 41), start=1):
        for top in (d, d + 1):
            cases.append(["law-equations", "A1", str(n), "--truncation", str(top)])
    for gens, d in (("1;2", 15), ("3;5", 20), ("2;5", 18), ("2;3", 16)):
        cases.append(["law-equations", "A1", gens, "--truncation", str(d)])
    return [c if isinstance(c[0], list) else [c] for c in cases]


def orbit_law_cases(rng, mulaw, rootdata, errors):
    """orbit-law requests drawn as the sweep of tests/test_mulaw.py draws
    them; each law this checkout gives is read back by root-monoid and
    contract in the same case."""
    a1 = rootdata.make_root_datum("A1")
    cases = []
    for _ in range(300):
        nbar = rng.randint(1, 6)
        forms = []
        for _ in range(rng.choice([1, 1, 2, 3])):
            if forms and rng.random() < 0.25:
                scale = rng.choice([1, -2, Fraction(1, 3)])
                forms.append([scale * c for c in rng.choice(forms)])
                continue
            degree = rng.choice([nbar, nbar, nbar, min(nbar + 2, 7), rng.randint(0, 7)])
            pool = rng.choice([[0, 1, -1, 2, Fraction(1, 2)], [0, 0, 0, 1, -1]])
            forms.append([rng.choice(pool) for _ in range(degree + 1)])
        truncation = rng.randint(0, 16)
        argv = ["orbit-law", *(f"--form={','.join(map(str, f))}" for f in forms),
                f"--truncation={truncation}", "--output", "law.json", "--", "A1", str(nbar)]
        try:
            mulaw.orbit_law(forms, rootdata.make_weight_monoid(a1, [(nbar,)]), truncation)
        except errors.ValidationError:
            cases.append([argv])
            continue
        point = rng.choice(["2", "-1/3", "0", "5/2"])
        cases.append([argv, ["root-monoid", "law.json"], ["contract", "--", "law.json", point]])
    return cases


def fixed_cases(examples):
    """The pinned modules; the worked examples of horomod.examples, the
    flag multicones A2-A8 and the binary cones x^n, with and without the
    congruence 1:n that their isotropy passes; and points whose
    survivors are not homogeneous."""
    flag = examples.flag_multicone(3)
    cases = [[c, "A1", e] for e in EXPRS_A1 for c in ("hwv", "coinv")]
    cases += [[c, "A3", e] for e in EXPRS_A3 for c in ("hwv", "coinv")]
    cases += [[c, *example_args(flag)] for c in ("orbit-tangent", "stabilizer")]
    cases += [t1_argv(flag), ["reproduce-example1"], ["reproduce-example2"]]
    for r in range(2, 9):
        cases.append(t1_argv(examples.flag_multicone(r)))
    for r in range(2, 7):
        ex = examples.flag_multicone(r)
        for c in ("hwv", "coinv"):
            cases.append([c, ex.label, ex.module])
        for c in ("orbit-tangent", "stabilizer"):
            cases.append([c, *example_args(ex)])
    for n in examples.BINARY_DEGREES:
        ex = examples.binary_cone_input(n)
        cases += [t1_argv(ex) + ["--diag", f"1:{n}"], t1_argv(ex)]
    # U-fixed points whose survivors are not homogeneous for the grading.
    squares = "tensor(sym(2,natural(2)),sym(2,natural(2)))"
    cases += [
        ["t1", "--lie-u", "--", "A1", squares, "2,-1,0,1,0,0,0,0,0"],
        ["t1", "--lie-u", "--", "A1", squares, "1,-2,1,2,-2,0,1,0,0"],
        ["t1", "--lie-u", "--", "A2", "tensor(natural(3),natural(3))", "1,1,0,-1,0,0,0,0,0"],
    ]
    return cases + OVER_CAP


def seeded_generators(count, top):
    """count distinct nonzero A2 generators of entries 0..top, drawn by
    random.Random(1)."""
    seeded, gens = random.Random(1), []
    while len(gens) < count:
        g = f"{seeded.randint(0, top)},{seeded.randint(0, top)}"
        if g != "0,0" and g not in gens:
            gens.append(g)
    return ";".join(gens)


def seeded_forms(count, digits):
    """--form arguments of count binary forms of degree count, with
    entries of the given number of digits (0-9 for one), drawn by
    random.Random(1)."""
    seeded = random.Random(1)
    lo, hi = (0, 9) if digits == 1 else (10 ** (digits - 1), 10**digits - 1)
    return [f"--form={','.join(str(seeded.randint(lo, hi)) for _ in range(count + 1))}" for _ in range(count)]


def bound_cases(examples):
    """Requests that ran for seconds before their cost was bounded: t1
    and orbit-tangent at a point of short entries on most coordinates of
    the A8 flag multicone, drawn from their own seeded generator, with
    stabilizer there, which is cheap;
    orbit-law at a linear form of 4 300-digit entries, and at a form of
    weight 1 000 whose window holds no positive weight, and at 200
    seeded forms of one-digit entries and 26 of 300-digit ones, whose
    linear relations were once counted with no bound; presentations
    of 1 000 generators at bounds 0 and 1, of one generator at bound
    100 000 and of 2 000 generators at a bound of 4 000 digits, whose
    count of exponent vectors was once multiplied out, and a saturation of 300 generators whose box passes the
    cap; coinv on the 501-dimensional A1 symmetric power, whose
    induction once walked every copy of a repeated factor; presentations
    of 120 seeded A2 generators, whose thinning passes its cap, and of
    630, whose candidate pairs pass theirs; stabilizer at e1 of the natural modules of A9 and A10 under
    --cap 100, whose printed bases fit in 100^2 entries and do not; and
    saturate requests that a capped natural-sum search once refused, of
    which the last two are still refused, now from an estimate."""
    rng = random.Random(SEED)
    point = ",".join(str(rng.choice([0, 1, -1, 2])) for _ in range(2**9 - 2))
    cases = [[c, "A8", examples.flag_multicone(8).module, point] for c in ("t1", "orbit-tangent", "stabilizer")]
    cases.append(["orbit-law", "A1", "1", "--form", "7" * 4300 + ",1", "--truncation", "16"])
    cases.append(["orbit-law", "A1", "1000", "--form", ",".join(["1"] * 1001), "--truncation", "16"])
    for count, digits in ((200, 1), (26, 300)):
        cases.append(["orbit-law", "A1", "2", *seeded_forms(count, digits), "--truncation", "4"])
    cases += [["presentation", "A1", ";".join(str(k) for k in range(1, 1001)), "--bound", b] for b in "01"]
    cases.append(["presentation", "A1", "1", "--bound", "100000"])
    cases.append(["presentation", "A1", ";".join(str(k) for k in range(1, 2001)), "--bound", "9" * 4000])
    box = [f"{a},{b},{c}" for a in range(-4, 5) for b in range(-4, 5) for c in range(-4, 5)]
    cases.append(["saturate", "--", "A3", ";".join(box[:300])])
    cases.append(["coinv", "A1", "sym(500,natural(2))"])
    for count, top in ((120, 100), (630, 400)):
        cases.append(["presentation", "A2", seeded_generators(count, top), "--bound", "2"])
    for r in (9, 10):
        e1 = ",".join(["1"] + ["0"] * r)
        cases.append(["stabilizer", "--cap", "100", f"A{r}", f"natural({r + 1})", e1])
    for group, gens in [
        ("A3", "1,0,-2;3,-1,2;3,1,-1;1,3,3"),
        ("A3", "2,3,2;-3,-3,1;0,-3,0;2,1,1"),
        ("A3", "0,-3,-1;-1,1,0;3,0,-3;-2,1,-2"),
        ("A3", "-3,2,-1;-1,-2,0;2,1,-3;-2,1,0"),
        ("A2", "1,0;1,1;1,1000"),
        ("A2", "1,0;1,1;1,5000"),
        ("A3", "1,0,0;0,1,0;0,0,1;50,50,51"),
    ]:
        cases.append(["saturate", "--", group, gens])
    return cases


def coefficient(lam, mu, nu, channel, value="1"):
    return {"lam": [lam], "mu": [mu], "nu": [nu], "channel": channel, "value": value}


# A law of the A1 monoid generated by 2, truncated at 4.
LAW = {
    "rd": {"label": "A1", "cartan": [[2]]},
    "monoid": {"generators": [[2]]},
    "truncation": 4,
    "coeffs": [coefficient(2, 2, 4, 0), coefficient(2, 2, 0, 2, "1/6")],
}


def law_text(**fields):
    """LAW as JSON text, with the top-level fields given replaced; None
    drops a field."""
    return json.dumps({k: v for k, v in {**LAW, **fields}.items() if v is not None})


def spoiled_laws():
    """Law files each refused in one way, on reading or on checking."""
    unit = {"rd": {"label": "A2"}, "monoid": {"generators": [[1, 0]]}, "truncation": 6,
            "coeffs": [{"lam": [0, 0], "mu": [3, 0], "nu": [0, 0], "channel": 1, "value": "1"}]}
    return [
        "{",
        "[" * 100_000,
        law_text().replace('"truncation": 4', '"truncation": ' + "7" * 4301),
        "\udcff",
        "[]",
        law_text(extra=1),
        law_text(coeffs=None),
        law_text(coeffs={}),
        law_text(truncation=4.0),
        law_text(truncation=-1),
        law_text(rd={"label": "A1", "cartan": [[3]]}),
        law_text(rd={"label": [1]}),
        law_text(monoid={"generators": [[1]]}, truncation=1_000_000),
        law_text(coeffs=[coefficient(2, 2, 4, 0, 0.5)]),
        law_text(coeffs=[coefficient(2, 2, 4, 0), coefficient(2, 2, 4, 0)]),
        law_text(coeffs=[coefficient(2, 2, 0, 1)]),
        law_text(coeffs=[coefficient(2, 2, 4, 0, "2")]),
        law_text(coeffs=[coefficient(2, 2, 0, 0)]),
        law_text(coeffs=[coefficient(2, 4, 6, 0)]),
        law_text(coeffs=[coefficient(4, 2, 2, 2)]),
        law_text(coeffs=[coefficient(2, 0, 4, 1)]),
        json.dumps(unit),
        law_text(coeffs=[{**coefficient(2, 2, 4, 0), "lam": [2] * 2000}]),
        law_text(coeffs=[coefficient(2, 2, 0, int("9" * 4000))]),
    ]


# Requests with two bad inputs; the error names the one read first.
TWO_BAD_INPUTS = [
    ["hwv", "B2", "nat("],
    ["orbit-tangent", "A1", "nat(", "x"],
    ["t1", "--diag=1:x", "A1", "sym(2,natural(2))", "x"],
    ["contract", "missing.json", "x"],
    ["orbit-law", "A1", "x", "--form", "y", "--truncation", "4"],
    ["tensor", "A1", "--", "-1", "1,0"],
    ["tensor", "A1", "9" * 4300, "-1"],
    ["saturate", "--", "A2", "1000,1000;-1000,-1000;1,0;0,1"],
]


# Two denominators of 4 300 digits on a module of dimension 21.
LONG_POINT = ",".join(["1/" + "9" * 4299 + "7", "1/" + "9" * 4299 + "1"] + ["1"] * 19)

# Refusals of input that no other request reaches, each an envelope with
# exit 3 or 4: weights of the wrong length and weights that are not
# dominant; a module expression with trailing input, one that ends
# early, one with a comma and no term after it, one nested 101 deep,
# holding a 4 301-digit number, or of a dimension with more than 4 300
# digits; a zero denominator, a point entry of 4 301 digits and a point
# past the cost cap; a negative congruence modulus; a weight entry and a
# modulus spelt 1_0, which int() alone would read; monoids off the
# ranges of law-tangent, orbit-law, saturate and presentation; a
# saturation past its enumeration cap, and three whose box spans pass
# 2^63 points; and a Weyl dimension with more than 4 300 digits.
REFUSALS = [
    ["dim", "A2", "1"],
    ["dominance", "A2", "1", "1,0"],
    ["tangent-weight", "A2", "1", "0,0"],
    ["law-tangent", "A1", "1,0", "--truncation", "4"],
    ["dim", "A1", "--", "-1"],
    ["tensor", "A1", "--", "1", "-1"],
    ["weights", "A1", "--", "-1"],
    ["hwv", "A1", "natural(2) x"],
    ["hwv", "A1", "natural(2))"],
    ["hwv", "A1", "sum(natural(2)"],
    ["hwv", "A1", "sum(natural(2),)"],
    ["hwv", "A1", "dual(" * 100 + "natural(2)" + ")" * 100],
    ["hwv", "A1", f"sym({'1' * 4301},natural(2))"],
    ["hwv", "A1", "sym(\u00b2,natural(2))"],
    ["hwv", "A1", "natural(\u0663)"],
    ["hwv", "A1", "sym(20000,sym(20000,natural(2)))", "--cap", "100000"],
    ["orbit-tangent", "A1", "natural(2)", "1/0,1"],
    ["t1", "A1", "natural(2)", "0," + "7" * 4301],
    ["stabilizer", "--", "A3", "sym(2,ext(2,natural(4)))", LONG_POINT],
    ["t1", "A1", "natural(2)", "1,0", "--diag=1:-1"],
    ["dim", "A1", "1_0"],
    ["tensor", "A1", "1_0", "1"],
    ["saturate", "A1", "1_0;3"],
    ["law-tangent", "A1", "1_0", "--truncation", "40"],
    ["t1", "A1", "sym(2,natural(2))", "1,0,0", "--lie-u", "--diag", "1_0:2"],
    ["t1", "A1", "sym(2,natural(2))", "0,1,0", "--diag", "1:1_0"],
    ["law-tangent", "A1", "--truncation", "4", "--", "-2"],
    ["orbit-law", "A2", "1,0", "--form", "1,0", "--truncation", "4"],
    ["orbit-law", "A1", "1;2", "--form", "1,0", "--truncation", "4"],
    ["saturate", "A4", "1,0,0,0;0,1,0,0;0,0,1,0;0,0,0,1"],
    ["presentation", "A1", "1;2;3;4;5;6;7;8;9;10", "--bound", "20"],
    ["saturate", "A2", "1,0;0,1;600,601"],
    ["saturate", "A1", "1;9223372036854775807"],
    ["saturate", "A2", f"{'9' * 25},1;1,{'9' * 25}"],
    ["saturate", "--root", "A2", f"1,0;{'9' * 25},{'9' * 25}"],
    ["dim", "A140", ",".join([str(10**40)] * 140)],
]


def input_cases():
    """Each spoiled law file, written and then read by root-monoid and
    contract; the good law read by contract at a point of the wrong
    length and at a malformed one; a law with a zero coefficient, which
    is dropped; a law of generator 20 000 whose contraction at 2 passes
    the digit limit; a law of 10 000 generators read by root-monoid; a
    malformed congruence; and TWO_BAD_INPUTS."""
    cases = [
        [{"write": "law.json", "text": text}, ["root-monoid", "law.json"], ["contract", "law.json", "x"]]
        for text in spoiled_laws()
    ]
    cases.append([{"write": "law.json", "text": law_text()}, ["root-monoid", "law.json"],
                  ["contract", "law.json", "1,2"], ["contract", "law.json", "x"], ["contract", "law.json", "2"]])
    zero = law_text(coeffs=[coefficient(2, 2, 4, 0), coefficient(2, 2, 0, 2, "0")])
    cases.append([{"write": "law.json", "text": zero}, ["contract", "law.json", "2"]])
    wide = law_text(monoid={"generators": [[20000]]}, truncation=40000,
                    coeffs=[coefficient(20000, 20000, 0, 20000)])
    cases.append([{"write": "law.json", "text": wide}, ["contract", "law.json", "2"]])
    many = law_text(monoid={"generators": [[k] for k in range(1, 10_001)]}, coeffs=[])
    cases.append([{"write": "law.json", "text": many}, ["root-monoid", "law.json"]])
    cases.append([["t1", "--diag=1:x", "A1", "sym(2,natural(2))", "1,0,0"]])
    return cases + [[argv] for argv in TWO_BAD_INPUTS]


def requests(steps):
    """The steps of a case that are requests, not files to write."""
    return [step for step in steps if isinstance(step, list)]


def golden_cases():
    """The fixed, seeded list: each case a list of argvs run in one
    working directory.  The U-fixed points come from this checkout's
    highest weight vectors."""
    sys.path.insert(0, str(SRC))
    from horomod import cli, errors, examples, liealg, mulaw, repcalc, rootdata

    rng = random.Random(SEED)
    single = (
        fixed_cases(examples)
        + small_cases(rng, cli)
        + saturate_cases(rng)
        + module_cases(rng)
        + point_cases(rng, liealg, rootdata, errors)
        + t1_cases(rng, liealg, rootdata)
        + cap_edge_cases(repcalc, rootdata)
        + rational_point_cases(liealg, rootdata)
        + nary_cases(liealg, rootdata)
    )
    return (
        [[argv] for argv in single]
        + law_cases()
        + orbit_law_cases(rng, mulaw, rootdata, errors)
        + [[argv] for argv in bound_cases(examples)]
        + input_cases()
        + [[argv] for argv in REFUSALS]
    )


def run_case(main, steps):
    """Exit code, stdout and stderr of each request, then the files left
    behind.  A file is written as UTF-8, where a lone surrogate stands
    for a byte that is not."""
    out = []
    with tempfile.TemporaryDirectory() as wd:
        os.chdir(wd)
        for step in steps:
            if isinstance(step, dict):
                Path(step["write"]).write_text(step["text"], encoding="utf-8", errors="surrogateescape")
                continue
            buf, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                try:
                    code = main(list(step))
                except Exception as exc:  # a traceback is a result too
                    code = f"raised {type(exc).__name__}: {exc}"
            out.append([code, buf.getvalue(), err.getvalue()])
        files = {
            str(p.relative_to(wd)): p.read_text(encoding="utf-8", errors="replace")
            for p in sorted(Path(wd).rglob("*"))
            if p.is_file()
        }
        os.chdir("/")
    return {"steps": out, "files": files}


def functions(modules):
    """{code object: qualified name} of every named function and method
    of the modules: their functions, the methods and property getters of
    their classes, and the named functions nested in any of these, each
    kept where it was compiled from its module's file, in file and line
    order.  The code objects are those the modules run, so an edit to a
    source file afterwards changes nothing here."""
    out = {}
    for module in modules:
        stem = module.__name__.rpartition(".")[2]
        todo = []
        for obj in vars(module).values():
            for member in vars(obj).values() if isinstance(obj, type) else [obj]:
                for attr in ("fget", "__func__", "__wrapped__"):
                    member = getattr(member, attr, member)
                code = getattr(member, "__code__", None)
                if isinstance(code, CodeType):
                    todo.append(code)
        while todo:
            code = todo.pop()
            todo += [c for c in code.co_consts if isinstance(c, CodeType)]
            if code.co_filename == module.__file__ and not code.co_name.startswith("<"):
                out[code] = f"{stem}.{getattr(code, 'co_qualname', code.co_name)}"
    return dict(sorted(out.items(), key=lambda item: (item[0].co_filename, item[0].co_firstlineno)))


def worker(src):
    """Run the cases read from stdin under src; print the results and,
    for this checkout only, the functions that neither the import of
    horomod.cli nor a request entered."""
    ours = Path(src).resolve() == SRC
    entered = set()

    def note(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    if ours:
        sys.setprofile(note)
    sys.path.insert(0, src)
    import horomod
    from horomod.cli import main

    if Path(horomod.__file__).resolve().parent.parent != Path(src).resolve():
        sys.exit(f"horomod loaded from {horomod.__file__}, not from {src}")
    cases = json.load(sys.stdin)
    results = [run_case(main, steps) for steps in cases]
    sys.setprofile(None)
    unentered = None
    if ours:
        modules = [m for name, m in sys.modules.items() if name.startswith("horomod.")]
        unentered = [name for code, name in functions(modules).items() if code not in entered]
    sys.stdout.write(json.dumps({"results": results, "unentered": unentered}))


def run_side(src, cases):
    """The results of cases under src, from a fresh interpreter, and the
    functions that no request entered, or None when src is
    not this checkout's."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, __file__, "--worker", str(src)],
        input=json.dumps(cases), capture_output=True, env=env, text=True,
    )
    if proc.returncode:
        sys.exit(f"the requests failed to run under {src}:\n{proc.stderr}")
    out = json.loads(proc.stdout)
    return out["results"], out["unentered"]


def differences(cases, ours, theirs):
    """(argv, their exit code, our exit code, case index) of each request
    whose exit code, stdout or stderr differ, and of the last request of
    each case whose files differ."""
    differing = []
    for case, (steps, a, b) in enumerate(zip(cases, ours, theirs)):
        argvs = requests(steps)
        for k, argv in enumerate(argvs):
            last = k == len(argvs) - 1
            if a["steps"][k] != b["steps"][k] or (last and a["files"] != b["files"]):
                differing.append((argv, b["steps"][k][0], a["steps"][k][0], case))
    return differing


def contract_breaches(cases, results):
    """(argv, exit code, case index) of each request that ended in a
    traceback or in an exit code outside the error contract."""
    return [
        (argv, step[0], case)
        for case, (steps, result) in enumerate(zip(cases, results))
        for argv, step in zip(requests(steps), result["steps"])
        if step[0] not in (0, 2, 3, 4)
    ]


def shown(argv, case):
    """The case index and argv as the report prints them: each argument
    clipped as horomod's error messages clip what they echo."""
    from horomod.errors import clip

    return f"case {case}: {shlex.join(clip(arg) for arg in argv)}"


def main(argv):
    if len(argv) == 3 and argv[1] == "--worker":
        worker(argv[2])
        return 0
    if len(argv) != 2:
        sys.exit(__doc__)
    other = Path(argv[1]).resolve()
    cases = golden_cases()
    with ThreadPoolExecutor(2) as pool:
        (ours, unentered), (theirs, _) = pool.map(run_side, (SRC, other), (cases, cases))
    differing = differences(cases, ours, theirs)
    total = sum(len(requests(steps)) for steps in cases)
    print(f"golden: {total} requests in {len(cases)} cases, {SRC} against {other}")
    print(f"golden: {len(differing)} requests differ in exit code, stdout, stderr or files")
    for argv, theirs, mine, case in differing:
        print(f"  {theirs} -> {mine}  {shown(argv, case)}")
    print(f"golden: {len(unentered)} horomod functions no request entered in {SRC}")
    for name in unentered:
        print("  " + name)
    breaches = contract_breaches(cases, ours)
    print(f"golden: {len(breaches)} requests in {SRC} end in a traceback or an exit code outside 0, 2, 3, 4")
    for argv, code, case in breaches:
        print(f"  {code}  {shown(argv, case)}")
    return 1 if breaches or unentered else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
