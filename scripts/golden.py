#!/usr/bin/env python3
"""Compare the CLI of this checkout with another source tree on a golden set.

    python scripts/golden.py OTHER_SRC

OTHER_SRC is the src directory of another checkout, for instance of a
git worktree of HEAD^.  The script builds a fixed, seeded list of
requests: every subcommand and its --help, the kinds of input the CLI
fuzz tests draw, t1 at random and U-fixed points with and without
--lie-u and --diag, the flag multicones A2-A8, both examples, the law
requests and orbit laws drawn as the orbit-law sweep of the tests draws
them.  It runs the whole list through horomod.cli.main once under
this checkout's src and once under OTHER_SRC, each side in its own
subprocess.  Each case runs in a fresh temporary working directory, and
a case of several requests runs them there in turn: requests that write
files name them relatively, and the files left behind are compared along
with the exit code and stdout of every request.  The script prints how
many requests differ, then each differing argv, and exits 0 either way.
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
from fractions import Fraction
from math import comb, gcd
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SEED = 20031

SUBCOMMANDS = [
    "root-datum", "dominance", "tensor", "dim", "weights", "hwv", "coinv",
    "orbit-tangent", "stabilizer", "t1", "tangent-weight", "law-equations",
    "law-tangent", "contract", "root-monoid", "orbit-law", "saturate",
    "presentation", "reproduce-example1", "reproduce-example2",
]

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
FLAG_MODULE = EXPRS_A3[4]
FLAG_POINT = "1,0,0,0,1,0,0,0,0,0,1,0,0,0"

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
        FLAG_MODULE,
        "sum(natural(4),dual(natural(4)))",
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


def multicone(r):
    n = r + 1
    return "sum(" + ",".join([f"natural({n})"] + [f"ext({k},natural({n}))" for k in range(2, n)]) + ")"


def multicone_point(r):
    point = []
    for k in range(1, r + 1):
        point += [1] + [0] * (comb(r + 1, k) - 1)
    return ",".join(map(str, point))


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
            x = [0] * m.dim
            for vs in liealg.highest_weight_vectors(m).values():
                for v in vs:
                    c = rng.choice([0, 1, 2, -1])
                    for i, val in v.items():
                        x[i] += c * val
            point = [str(c) for c in x]
        else:
            length = rng.choice([m.dim] * 6 + [m.dim - 1, m.dim + 1])
            point = [str(rng.choice([0, 0, 0, 1, -1, 2])) for _ in range(length)]
        support = [m.basis_weights[i] for i, c in enumerate(point[: m.dim]) if c != "0"]
        flags = ["--lie-u"] if rng.random() < 0.7 else []
        flags += congruence_flags(rng, rank, support)
        cases.append(["t1", *flags, "--", f"A{rank}", module, ",".join(point)])
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


def small_cases(rng):
    """The subcommands without a module, on small and on refused inputs."""
    cases = [["--version"], ["--help"]] + [[name, "--help"] for name in SUBCOMMANDS]
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
        ["saturate", "A1", "2;3"],
        ["saturate", "A2", "2,0;1,1;0,2"],
    ]
    return cases


def law_cases():
    """The law requests; an orbit law written to a file is read back by
    root-monoid and contract in the same case."""
    cases = []
    for n in range(1, 7):
        for d in (4 * n, 8, 12, 16):
            cases.append(["law-tangent", "A1", str(n), "--truncation", str(d)])
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
            mulaw.orbit_law([mulaw.make_binary_form(len(f) - 1, f) for f in forms],
                            rootdata.make_weight_monoid(a1, [(nbar,)]), truncation)
        except errors.ValidationError:
            cases.append([argv])
            continue
        point = rng.choice(["2", "-1/3", "0", "5/2"])
        cases.append([argv, ["root-monoid", "law.json"], ["contract", "--", "law.json", point]])
    return cases


def fixed_cases():
    cases = [[c, "A1", e] for e in EXPRS_A1 for c in ("hwv", "coinv")]
    cases += [[c, "A3", e] for e in EXPRS_A3 for c in ("hwv", "coinv")]
    cases += [[c, "A3", FLAG_MODULE, FLAG_POINT] for c in ("orbit-tangent", "stabilizer")]
    cases += [["t1", "A3", FLAG_MODULE, FLAG_POINT, "--lie-u"], ["reproduce-example1"], ["reproduce-example2"]]
    for r in range(2, 9):
        cases.append(["t1", f"A{r}", multicone(r), multicone_point(r), "--lie-u"])
    for r in range(2, 7):
        for c in ("hwv", "coinv"):
            cases.append([c, f"A{r}", multicone(r)])
        for c in ("orbit-tangent", "stabilizer"):
            cases.append([c, f"A{r}", multicone(r), multicone_point(r)])
    for n in range(1, 7):
        module = f"sym({n},natural(2))"
        point = ",".join(["1"] + ["0"] * n)
        cases.append(["t1", "A1", module, point, "--lie-u", "--diag", f"1:{n}"])
        cases.append(["t1", "A1", module, point, "--lie-u"])
    return cases + OVER_CAP


def golden_cases():
    """The fixed, seeded list: each case a list of argvs run in one
    working directory.  The U-fixed points come from this checkout's
    highest weight vectors."""
    sys.path.insert(0, str(SRC))
    from horomod import errors, liealg, mulaw, rootdata

    rng = random.Random(SEED)
    single = (
        fixed_cases()
        + small_cases(rng)
        + saturate_cases(rng)
        + module_cases(rng)
        + point_cases(rng, liealg, rootdata, errors)
        + t1_cases(rng, liealg, rootdata)
    )
    return [[argv] for argv in single] + law_cases() + orbit_law_cases(rng, mulaw, rootdata, errors)


def run_case(main, steps):
    """Exit code and stdout of each step, then the files left behind."""
    out = []
    with tempfile.TemporaryDirectory() as wd:
        os.chdir(wd)
        for argv in steps:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main(list(argv))
                except Exception as exc:  # a traceback is a result too
                    code = f"raised {type(exc).__name__}: {exc}"
            out.append([code, buf.getvalue()])
        files = {
            str(p.relative_to(wd)): p.read_text(encoding="utf-8", errors="replace")
            for p in sorted(Path(wd).rglob("*"))
            if p.is_file()
        }
        os.chdir("/")
    return {"steps": out, "files": files}


def worker(src):
    """Run the cases read from stdin under src; print the results."""
    sys.path.insert(0, src)
    import horomod
    from horomod.cli import main

    if Path(horomod.__file__).resolve().parent.parent != Path(src).resolve():
        sys.exit(f"horomod loaded from {horomod.__file__}, not from {src}")
    cases = json.load(sys.stdin)
    results = [run_case(main, steps) for steps in cases]
    sys.stdout.write(json.dumps(results))


def run_side(src, cases):
    """The results of cases under src, from a fresh interpreter."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, __file__, "--worker", str(src)],
        input=json.dumps(cases), capture_output=True, env=env, text=True,
    )
    if proc.returncode:
        sys.exit(f"the requests failed to run under {src}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def compare(cases, ours, theirs):
    """The argvs of the requests whose exit code or stdout differ, and of
    the last request of each case whose files differ."""
    differing = []
    for steps, a, b in zip(cases, ours, theirs):
        for k, argv in enumerate(steps):
            last = k == len(steps) - 1
            if a["steps"][k] != b["steps"][k] or (last and a["files"] != b["files"]):
                differing.append(argv)
    return differing


def main(argv):
    if len(argv) == 3 and argv[1] == "--worker":
        worker(argv[2])
        return 0
    if len(argv) != 2:
        sys.exit(__doc__)
    other = Path(argv[1]).resolve()
    cases = golden_cases()
    differing = compare(cases, run_side(SRC, cases), run_side(other, cases))
    total = sum(len(steps) for steps in cases)
    print(f"golden: {total} requests in {len(cases)} cases, {SRC} against {other}")
    print(f"golden: {len(differing)} requests differ in exit code, stdout or files")
    for argv in differing:
        print("  " + shlex.join(argv))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
