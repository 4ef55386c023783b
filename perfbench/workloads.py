"""Benchmark workloads: the requests of one pass and their answer checks.

Every expected answer comes from outside the code under test: values
printed in the paper or the README, hand-derived representation theory,
a reference payload recorded in ``reference/``, or a relation between
two outputs of the program (a law file and what another subcommand says
about it).  A check returns ``None`` when the answer is right and a
one-line reason otherwise.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

REFERENCE = Path(__file__).resolve().parent / "reference"

Check = Callable[[dict, Path], Optional[str]]


@dataclass(frozen=True)
class Request:
    argv: Tuple[str, ...]
    check: Check
    rc: int = 0
    writes: Tuple[str, ...] = ()
    reads: Tuple[str, ...] = ()


@dataclass
class Workload:
    name: str
    # Wall time of one pass, reference runs included, measured when the
    # benchmark was defined (2-core x86 container, reference task at about
    # its REFERENCE_S).  A run makes round(seconds / pass_s) passes, so
    # both commits of a comparison time the same requests.
    pass_s: float
    make_pass: Callable[[random.Random], List[Request]]
    # Untimed checks run once after the timed passes.
    post: Callable[["PostContext"], List[str]] = lambda ctx: []
    # Inputs that end in a traceback at the commit that defined the
    # benchmark; run once after timing and reported, never timed.
    known_defects: List[Request] = field(default_factory=list)


@dataclass
class PostContext:
    workdir: Path
    # Payload of each request of the last timed pass, by argv.
    payloads: Dict[Tuple[str, ...], dict]
    # Runs one untimed request; returns a failure reason or None.
    run: Callable[[Request], Optional[str]]


def order_pass(rng: random.Random, reqs: List[Request]) -> List[Request]:
    """Seed-shuffled order in which every reader follows its writer."""
    pending = list(reqs)
    rng.shuffle(pending)
    written: set = set()
    out: List[Request] = []
    while pending:
        for i, req in enumerate(pending):
            if all(f in written for f in req.reads):
                out.append(pending.pop(i))
                written.update(req.writes)
                break
        else:
            raise ValueError("request reads a file no request writes")
    return out


# ------------------------------------------------------------------ helpers


def _payload_is(expected) -> Check:
    def check(env: dict, _wd: Path) -> Optional[str]:
        got = env.get("payload")
        return None if got == expected else f"payload {got!r} != {expected!r}"

    return check


def _all(*checks: Check) -> Check:
    def check(env: dict, wd: Path) -> Optional[str]:
        for c in checks:
            err = c(env, wd)
            if err:
                return err
        return None

    return check


def _error(kind: str) -> Check:
    def check(env: dict, _wd: Path) -> Optional[str]:
        got = env.get("error", {}).get("type")
        return None if got == kind else f"error type {got!r} != {kind!r}"

    return check


def _field(key: str, expected) -> Check:
    def check(env: dict, _wd: Path) -> Optional[str]:
        got = env.get("payload", {}).get(key)
        return None if got == expected else f"{key} {got!r} != {expected!r}"

    return check


def _read_json(wd: Path, name: str):
    with open(wd / name, encoding="utf-8") as fh:
        return json.load(fh)


def _file_is_payload(name: str) -> Check:
    def check(env: dict, wd: Path) -> Optional[str]:
        try:
            on_disk = _read_json(wd, name)
        except (OSError, ValueError) as exc:
            return f"cannot read {name}: {exc}"
        return None if on_disk == env.get("payload") else f"{name} differs from the payload"

    return check


def _non_top(law: dict) -> List[dict]:
    return [c for c in law["coeffs"] if c["channel"] != 0 and Fraction(c["value"])]


def _contracted(law_file: str, point: Fraction) -> Check:
    """contract scales the channel-i coefficient by point**i."""

    def check(env: dict, wd: Path) -> Optional[str]:
        law = _read_json(wd, law_file)
        want = []
        for c in law["coeffs"]:
            val = Fraction(c["value"]) * point ** c["channel"]
            if val:
                want.append(dict(c, value=str(val)))
        got = env.get("payload", {}).get("coeffs")
        return None if got == want else f"contract of {law_file} by {point} is wrong"

    return check


def _law_shape(form: Sequence[int], truncation: int) -> Check:
    """The orbit law of a binary quadratic is horospherical exactly when
    the form lies in the orbit of x**2, that is, when its discriminant
    vanishes."""

    def check(env: dict, _wd: Path) -> Optional[str]:
        law = env.get("payload", {})
        if law.get("truncation") != truncation:
            return "law truncation differs from the request"
        a, b, c = form
        degenerate = b * b == 4 * a * c
        if degenerate == bool(_non_top(law)):
            return f"form {form}: horospherical={degenerate} but law disagrees"
        return None

    return check


def _unknowns_of_window(n: int, truncation: int) -> List[str]:
    window = set(range(0, truncation + 1, n))
    out = []
    for a in range(n, truncation + 1, n):
        for b in range(n, truncation + 1 - a, n):
            for i in range(1, min(a, b) + 1):
                if a + b - 2 * i in window:
                    out.append(f"m[{a},{b},{i}]")
    return out


def _system_consistent(n: int, truncation: int, export: Optional[str]) -> Check:
    def check(env: dict, wd: Path) -> Optional[str]:
        p = env.get("payload", {})
        if sorted(p.get("unknowns", ())) != sorted(_unknowns_of_window(n, truncation)):
            return "unknowns differ from the window's m[a,b,i]"
        if p.get("unknown_count") != len(p["unknowns"]):
            return "unknown_count differs from the unknown list"
        if p.get("equation_count") != len(p.get("equations", ())) or not p["equations"]:
            return "equation_count differs from the equation list"
        if export:
            with open(wd / export, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            header = [ln.split()[2] for ln in lines if ln.startswith("# unknown ")]
            body = [ln for ln in lines if not ln.startswith("#")]
            if header != p["unknowns"] or body != p["equations"]:
                return f"{export} differs from the payload"
        return None

    return check


_TERM = re.compile(r"([+-])(\d+(?:/\d+)?)((?:\*m\[\d+,\d+,\d+\])*)")
_UNKNOWN = re.compile(r"m\[\d+,\d+,\d+\]")


def residuals_vanish(equations: Sequence[str], law: dict) -> Optional[str]:
    """Evaluate rendered equations at the coefficients of a law file."""
    values: Dict[str, Fraction] = {}
    for c in law["coeffs"]:
        if c["channel"]:
            values[f"m[{c['lam'][0]},{c['mu'][0]},{c['channel']}]"] = Fraction(c["value"])
    for eq in equations:
        total = Fraction(0)
        pos = 0
        for m in _TERM.finditer(eq):
            if m.start() != pos:
                return f"cannot parse equation {eq!r}"
            pos = m.end()
            term = Fraction(m.group(2)) * (-1 if m.group(1) == "-" else 1)
            for name in _UNKNOWN.findall(m.group(3)):
                term *= values.get(name, Fraction(0))
            total += term
        if pos != len(eq):
            return f"cannot parse equation {eq!r}"
        if total:
            return f"residual {total} on {eq}"
    return None


# ----------------------------------------------------------- law-linearize

# Paper (Alexeev-Brion, Example 1): the invariant deformations of the
# closure of the orbit of x**n are a line of weight 2*alpha for n = 2, 4
# and vanish for n = 1, 3, 5, 6.
EXAMPLE1 = {"dims": [0, 1, 0, 1, 0, 0], "weights": {"2": [[2]], "4": [[2]]}}
LINEARIZE_WINDOWS = [(1, 8), (1, 10), (2, 12), (2, 16), (3, 18), (3, 24), (4, 16), (4, 24), (5, 30)]


def _example1_tangent(n: int) -> dict:
    dim = EXAMPLE1["dims"][n - 1]
    return {"dim": dim, "weights": [[2]] * dim}


def law_linearize(rng: random.Random) -> List[Request]:
    reqs = [
        Request(("law-tangent", "A1", str(n), "--truncation", str(d)), _payload_is(_example1_tangent(n)))
        for n, d in LINEARIZE_WINDOWS
    ]
    return order_pass(rng, reqs)


def _linearize_post(ctx: PostContext) -> List[str]:
    """Cross-route: every law-tangent dim equals the fixed-space dim for
    the same n."""
    t1 = {}

    def keep(env: dict, wd: Path) -> Optional[str]:
        t1.update(env.get("payload", {}))
        return _payload_is(EXAMPLE1)(env, wd)

    err = ctx.run(Request(("reproduce-example1",), keep))
    if err:
        return [err]
    out = []
    for argv, payload in ctx.payloads.items():
        n = int(argv[2])
        dim = t1["dims"][n - 1]
        if payload != {"dim": dim, "weights": t1["weights"].get(str(n), [])}:
            out.append(f"{' '.join(argv)} gives {payload}, t1 gives dim {dim}")
    return out


# ----------------------------------------------------------- t1-fixed-space


def multicone(r: int) -> Tuple[str, str]:
    """Sum of all fundamental modules of A_r and the sum of their
    highest-weight vectors, which sit first in each summand's basis."""
    n = r + 1
    parts = [f"natural({n})"] + [f"ext({k},natural({n}))" for k in range(2, n)]
    point: List[int] = []
    for k in range(1, n):
        point += [1] + [0] * (comb(n, k) - 1)
    return "sum(" + ",".join(parts) + ")", ",".join(map(str, point))


def _multicone_check(r: int) -> Check:
    ref = (REFERENCE / f"multicone_A{r}.json").read_text(encoding="utf-8").strip()
    # The flag multicone of A_r: T1 dimension r-1 with weights
    # alpha_i + alpha_(i+1), observed for r = 2..6 but not proved.
    weights = sorted([[1 if j in (i, i + 1) else 0 for j in range(r)] for i in range(r - 1)])

    def check(env: dict, _wd: Path) -> Optional[str]:
        p = env.get("payload", {})
        if p.get("dims", {}).get("t1_invariant") != r - 1 or p.get("weights") != weights:
            return f"A{r} multicone: expected dim {r - 1} with weights {weights}"
        got = json.dumps(p, sort_keys=True, separators=(",", ":"))
        return None if got == ref else f"A{r} multicone payload differs from the reference"

    return check


# Paper (Example 2): the rank-three point of k4 + wedge2 + wedge3 has a
# two-dimensional invariant deformation space of weights a1+a2, a2+a3.
EXAMPLE2 = {"dim": 2, "weights": [[0, 1, 1], [1, 1, 0]]}


def t1_fixed_space(rng: random.Random) -> List[Request]:
    reqs = []
    for r in range(2, 7):
        module, point = multicone(r)
        reqs.append(Request(("t1", f"A{r}", module, point, "--lie-u"), _multicone_check(r)))
    reqs.append(Request(("reproduce-example1",), _payload_is(EXAMPLE1)))
    reqs.append(Request(("reproduce-example2",), _payload_is(EXAMPLE2)))
    return order_pass(rng, reqs)


# ------------------------------------------------------------ small-requests

# A law file missing "rd" and --output into a missing directory both end
# in a traceback with exit 1 where exit 3 is due.  Two other known
# defects are left out entirely because they run without a bound:
# presentation A1 '1;2;3;4;5' --bound 30 and law-tangent A1 1 --truncation 100.
NO_RD_LAW = "no_rd.json"
KNOWN_DEFECTS = [
    Request(("root-monoid", NO_RD_LAW), _error("validation"), rc=3),
    Request(
        ("orbit-law", "A1", "2", "--form", "1,0,1", "--truncation", "4", "--output", "missing/law.json"),
        _error("validation"),
        rc=3,
    ),
]


def _vector_is_multiple(key: str, want: Sequence[int]) -> Check:
    def check(env: dict, _wd: Path) -> Optional[str]:
        vecs = env.get("payload", {}).get(key, [])
        if len(vecs) != 1:
            return f"{key}: expected one highest-weight vector"
        v = [Fraction(x) for x in vecs[0]]
        k = next((a / b for a, b in zip(v, want) if b), Fraction(0))
        ok = k != 0 and all(a == k * b for a, b in zip(v, want))
        return None if ok else f"{key}: {vecs[0]} is not a multiple of {want}"

    return check


def _count(key: str, n: int) -> Check:
    def check(env: dict, _wd: Path) -> Optional[str]:
        got = len(env.get("payload", {}).get(key, ()))
        return None if got == n else f"{key} has {got} entries, expected {n}"

    return check


def small_requests(rng: random.Random) -> List[Request]:
    P = _payload_is
    R = Request
    reqs = [
        R(("root-datum", "A2"), P({"cartan": [[2, -1], [-1, 2]], "label": "A2",
                                  "positive_roots": [[0, 1], [1, 0], [1, 1]], "rank": 2})),
        R(("root-datum", "A3"), _all(_field("cartan", [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]),
                                     _count("positive_roots", 6))),
        # omega1 + omega2 = alpha1 + alpha2; 3 omega1 - (omega1 + omega2) = alpha1.
        R(("dominance", "A2", "0,0", "1,1"), P({"leq": True, "difference_root_coords": ["1", "1"]})),
        R(("dominance", "A2", "1,1", "3,0"), P({"leq": True, "difference_root_coords": ["1", "0"]})),
        R(("dominance", "A1", "0", "1"), P({"leq": False})),
        R(("dominance", "A1", "--", "-2", "2"), P({"leq": True, "difference_root_coords": ["2"]})),
        # README; Clebsch-Gordan; 3 x 3bar = 8 + 1; 8 x 8 = 27 + 10 + 10bar + 8 + 8 + 1.
        R(("tensor", "A1", "1", "1"), P({"(0)": 1, "(2)": 1})),
        R(("tensor", "A2", "1,0", "0,1"), P({"(0,0)": 1, "(1,1)": 1})),
        R(("tensor", "A2", "1,1", "1,1"), P({"(0,0)": 1, "(0,3)": 1, "(1,1)": 2, "(2,2)": 1, "(3,0)": 1})),
        R(("dim", "A2", "1,1"), P({"dim": 8})),
        R(("dim", "A3", "1,0,1"), P({"dim": 15})),
        R(("dim", "A4", "0,1,0,0"), P({"dim": 10})),
        R(("weights", "A1", "3"), P({"(-1)": 1, "(-3)": 1, "(1)": 1, "(3)": 1})),
        R(("weights", "A2", "1,1"), P({"(-1,-1)": 1, "(-1,2)": 1, "(-2,1)": 1, "(0,0)": 2,
                                       "(1,-2)": 1, "(1,1)": 1, "(2,-1)": 1})),
        R(("hwv", "A2", "sym(2,natural(3))"), _vector_is_multiple("(2,0)", [1, 0, 0, 0, 0, 0])),
        # k2 x k2 = sym2 + wedge2: x(x)x and x(x)y - y(x)x.
        R(("hwv", "A1", "tensor(natural(2),natural(2))"),
          _all(_vector_is_multiple("(2)", [1, 0, 0, 0]), _vector_is_multiple("(0)", [0, 1, -1, 0]))),
        # Coinvariants sit at lowest weights, one per irreducible summand.
        R(("coinv", "A2", "natural(3)"), _all(_field("dim", 1), _field("rep_weights", ["(0,-1)"]))),
        R(("coinv", "A1", "tensor(natural(2),natural(2))"),
          _all(_field("dim", 2), lambda e, w: None if sorted(e["payload"]["rep_weights"]) == ["(-2)", "(0)"] else "coinv weights")),
        # SL2 moves e1 onto all of k2 \ 0; its stabilizer is the unipotent e.
        R(("orbit-tangent", "A1", "natural(2)", "1,0"), _field("dim", 2)),
        R(("stabilizer", "A1", "natural(2)", "1,0"), _all(_field("dim", 1), _field("basis", [["1", "0", "0"]]))),
        R(("stabilizer", "A2", "natural(3)", "1,0,0"), _field("dim", 8 - 3)),
        R(("t1", "A1", "sym(2,natural(2))", "1,0,0", "--lie-u", "--diag", "1:2"),
          _all(_field("weights", [[2]]), lambda e, w: None if e["payload"]["dims"]["t1_invariant"] == 1 else "t1 dim")),
        R(("t1", "A1", "sym(3,natural(2))", "1,0,0,0", "--lie-u", "--diag", "1:3"),
          _all(_field("weights", []), lambda e, w: None if e["payload"]["dims"]["t1_invariant"] == 0 else "t1 dim")),
        R(("tangent-weight", "A2", "1,1", "0,0"), P({"weight_root_coords": [1, 1]})),
        # Window {0,2,4}: unknowns m[2,2,1], m[2,2,2]; commutativity kills the odd channel.
        R(("law-equations", "A1", "2", "--truncation", "4"),
          P({"equation_count": 1, "equations": ["+1*m[2,2,1]"], "unknown_count": 2,
             "unknowns": ["m[2,2,1]", "m[2,2,2]"]})),
        R(("law-equations", "A1", "1", "--truncation", "3", "--export-system", "system.txt"),
          _system_consistent(1, 3, "system.txt")),
        # README examples.
        R(("law-tangent", "A1", "2", "--truncation", "8"), P({"dim": 1, "weights": [[2]]})),
        R(("orbit-law", "A1", "2", "--form", "1,0,1", "--truncation", "8", "--output", "law.json"),
          _all(_law_shape((1, 0, 1), 8), _file_is_payload("law.json")), writes=("law.json",)),
        R(("root-monoid", "law.json"), P({"bound_limited": True, "generators": [[2], [4]]}), reads=("law.json",)),
        R(("contract", "law.json", "2"), _contracted("law.json", Fraction(2)), reads=("law.json",)),
        # The saturation of <2,3> in Z is N; 2*g1 = g2; g1 + g2 = g3.
        R(("saturate", "A1", "2;3"), P({"generators": [[1]]})),
        R(("saturate", "A2", "2,0;1,1;0,2"), P({"generators": [[0, 2], [1, 1], [2, 0]]})),
        R(("presentation", "A1", "1;2", "--bound", "4"), P({"bound_limited": True, "relations": [[[0, 1], [2, 0]]]})),
        R(("presentation", "A2", "1,0;0,1;1,1", "--bound", "3"),
          P({"bound_limited": True, "relations": [[[0, 0, 1], [1, 1, 0]]]})),
        R(("reproduce-example1",), P(EXAMPLE1)),
        R(("reproduce-example2",), P(EXAMPLE2)),
        # Inputs the error contract must refuse: V(5,5) has dimension 216,
        # sym6(k4) has 84, "1,x" is no weight, orbit laws stop at 16.
        R(("weights", "A2", "5,5", "--cap", "10"), _error("resource"), rc=4),
        R(("hwv", "A3", "sym(6,natural(4))", "--cap", "50"), _error("resource"), rc=4),
        R(("dim", "A2", "1,x"), _error("validation"), rc=3),
        R(("orbit-law", "A1", "2", "--form", "1,0,1", "--truncation", "20"), _error("validation"), rc=3),
    ]
    return order_pass(rng, reqs)


def _small_post(ctx: PostContext) -> List[str]:
    """The orbit law the last pass wrote satisfies the commutativity and
    associativity equations of its window, as the program renders them."""
    eqs: List[str] = []

    def keep(env: dict, wd: Path) -> Optional[str]:
        eqs.extend(env.get("payload", {}).get("equations", ()))
        return _system_consistent(2, 8, None)(env, wd)

    err = ctx.run(Request(("law-equations", "A1", "2", "--truncation", "8"), keep))
    if not err:
        err = residuals_vanish(eqs, _read_json(ctx.workdir, "law.json"))
    return [f"orbit law of x^2 + y^2: {err}"] if err else []


def write_defect_inputs(wd: Path) -> None:
    law = {"monoid": {"generators": [[2]]}, "truncation": 4, "coeffs": []}
    (wd / NO_RD_LAW).write_text(json.dumps(law), encoding="utf-8")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("law-linearize", 9.4, law_linearize, _linearize_post),
        Workload("t1-fixed-space", 8.4, t1_fixed_space),
        Workload("small-requests", 10.6, small_requests, _small_post, KNOWN_DEFECTS),
    )
}
