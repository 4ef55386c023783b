"""Command-line front end.

Every operation is exposed as a subcommand emitting a JSON envelope

    {"status": "ok", "payload": ..., "provenance": {...}}

on stdout.  Weights are comma-separated integers in fundamental
coordinates; monoid generator lists separate weights with semicolons;
rational numbers are printed as exact "p/q" strings.  Exit codes:
0 success, 2 usage, 3 invalid input, 4 resource cap.

Arguments that may start with a minus sign (negative weight entries,
contraction points) can be passed after a literal "--" separator.

The layers load on first use: each is bound here as a lazy module
whose body runs on its first attribute access, so a request compiles
only the layers its subcommand calls.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from fractions import Fraction as Q
from types import ModuleType
from typing import List, Mapping, Optional, Sequence, Tuple

from . import __version__
from .errors import ResourceError, ValidationError


def _lazy(name: str) -> ModuleType:
    """The layer horomod.<name>, bound now and executed on its first
    attribute access, so a subcommand compiles only the layers it calls.
    A layer imported earlier is reused, keeping one copy of each."""
    full = f"{__package__}.{name}"
    module = sys.modules.get(full)
    if module is None:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


channels = _lazy("channels")
examples = _lazy("examples")
liealg = _lazy("liealg")
linalg = _lazy("linalg")
monoids = _lazy("monoids")
mulaw = _lazy("mulaw")
polysys = _lazy("polysys")
repcalc = _lazy("repcalc")
rootdata = _lazy("rootdata")
tangent = _lazy("tangent")


# ------------------------------------------------------------ parsing helpers


def _parse_weight(text: str) -> Tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValidationError(f"malformed weight {text!r}: expected comma-separated integers")


def _parse_weight_list(text: str) -> List[Tuple[int, ...]]:
    return [_parse_weight(part) for part in text.split(";") if part != ""]


def _parse_point(text: str) -> List[Q]:
    return [linalg.read_rational(part) for part in text.split(",")]


def _fmt_weight(w: Sequence[int]) -> str:
    return "(" + ",".join(str(c) for c in w) + ")"


def _fmt_vec(v: Mapping[int, Q], dim: int) -> List[str]:
    """A sparse vector, printed densely: the one place vectors densify."""
    return [str(c) for c in linalg.dense(v, dim)]


def _load_law(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            blob = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read law file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"law file {path} is not valid JSON: {exc}")
    except (RecursionError, ValueError) as exc:
        # nesting too deep, an integer past the digit limit, or bytes not UTF-8
        raise ValidationError(f"law file {path} is malformed: {type(exc).__name__}: {exc}")
    try:
        return mulaw.law_from_json_dict(blob)
    except ValidationError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValidationError(
            f"law file {path} is malformed: {type(exc).__name__}: {exc}"
        )


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}")


def _stab_from_args(rd, args) -> liealg.StabilizerSpec:
    lie = liealg.unipotent_radical_spec(rd).lie_part if args.lie_u else ()
    diag = []
    for entry in args.diag or []:
        head, _, mod = entry.partition(":")
        try:
            modulus = int(mod)
        except ValueError:
            raise ValidationError(
                f"malformed congruence {entry!r}: expected coeffs:modulus"
            )
        diag.append(liealg.DiagCongruence(coeffs=_parse_weight(head), modulus=modulus))
    return liealg.StabilizerSpec(lie_part=lie, diag_part=tuple(diag))


# ------------------------------------------------------------ subcommands


def _cmd_root_datum(args):
    rd = rootdata.make_root_datum(args.group)
    payload = {
        "label": rd.label,
        "rank": rd.rank,
        "cartan": [list(row) for row in rd.cartan],
        "positive_roots": [list(r) for r in rootdata.positive_roots(rd)],
    }
    return payload, {}, None


def _cmd_dominance(args):
    rd = rootdata.make_root_datum(args.group)
    lam = _parse_weight(args.lam)
    mu = _parse_weight(args.mu)
    leq = rootdata.dominance_leq(rd, mu, lam)
    payload = {"leq": leq}
    if leq:
        diff = tuple(a - b for a, b in zip(lam, mu))
        payload["difference_root_coords"] = [
            str(c) for c in rootdata.to_root_coords(rd, diff)
        ]
    return payload, {}, None


def _cmd_tensor(args):
    rd = rootdata.make_root_datum(args.group)
    dec = repcalc.tensor_decompose(
        rd, _parse_weight(args.lam), _parse_weight(args.mu), cap=args.cap
    )
    payload = {_fmt_weight(w): k for w, k in dec.items()}
    return payload, {"cap": args.cap}, None


def _cmd_dim(args):
    rd = rootdata.make_root_datum(args.group)
    payload = {"dim": repcalc.weyl_dim(rd, _parse_weight(args.lam))}
    return payload, {}, None


def _cmd_weights(args):
    rd = rootdata.make_root_datum(args.group)
    table = repcalc.weight_multiplicities(rd, _parse_weight(args.lam), cap=args.cap)
    payload = {_fmt_weight(w): k for w, k in table.items()}
    return payload, {"cap": args.cap}, None


def _cmd_hwv(args):
    rd = rootdata.make_root_datum(args.group)
    m = liealg.build_module(rd, args.module, cap=args.cap)
    vecs = liealg.highest_weight_vectors(m)
    payload = {
        _fmt_weight(w): [_fmt_vec(v, m.dim) for v in vs] for w, vs in vecs.items()
    }
    return payload, {"cap": args.cap}, None


def _cmd_coinv(args):
    rd = rootdata.make_root_datum(args.group)
    m = liealg.build_module(rd, args.module, cap=args.cap)
    co = liealg.u_coinvariants(m)
    payload = {
        "dim": co.dim,
        "rep_indices": list(co.rep_indices),
        "rep_weights": [_fmt_weight(w) for w in co.rep_weights],
    }
    return payload, {"cap": args.cap}, None


def _cmd_orbit_tangent(args):
    rd = rootdata.make_root_datum(args.group)
    m = liealg.build_module(rd, args.module, cap=args.cap)
    span = liealg.orbit_tangent(m, _parse_point(args.point))
    payload = {
        "dim": span.dim,
        "basis": [_fmt_vec(span.rows[pc], m.dim) for pc in span.pivots],
    }
    return payload, {"cap": args.cap}, None


def _cmd_stabilizer(args):
    rd = rootdata.make_root_datum(args.group)
    m = liealg.build_module(rd, args.module, cap=args.cap)
    basis = liealg.stabilizer_lie(m, _parse_point(args.point))
    labels = liealg.chevalley_labels(rd)
    payload = {
        "dim": len(basis),
        "labels": labels,
        "basis": [_fmt_vec(v, len(labels)) for v in basis],
    }
    return payload, {"cap": args.cap}, None


def _cmd_t1(args):
    rd = rootdata.make_root_datum(args.group)
    m = liealg.build_module(rd, args.module, cap=args.cap)
    stab = _stab_from_args(rd, args)
    report = tangent.t1_invariant(m, _parse_point(args.point), stab)
    return tangent.report_to_json_dict(report), {"cap": args.cap}, tangent.HYPOTHESES


def _cmd_tangent_weight(args):
    rd = rootdata.make_root_datum(args.group)
    w = tangent.tangent_weight(rd, _parse_weight(args.lam), _parse_weight(args.mu))
    return {"weight_root_coords": list(w)}, {}, None


def _law_monoid(args):
    rd = rootdata.make_root_datum(args.group)
    return rd, rootdata.make_weight_monoid(rd, _parse_weight_list(args.monoid))


def _cmd_law_equations(args):
    _, mon = _law_monoid(args)
    system = mulaw.law_equations(mon, args.truncation)
    if args.export_system:
        _write_file(args.export_system, polysys.system_to_text(system))
    payload = {
        "unknown_count": len(system.unknowns),
        "equation_count": len(system.equations),
        "unknowns": list(system.unknowns),
        "equations": [
            polysys.render_poly(cp, system.unknowns) for cp, _ in system.equations
        ],
    }
    if args.export_system:
        payload["exported_to"] = args.export_system
    return payload, {"truncation": args.truncation}, None


def _cmd_law_tangent(args):
    _, mon = _law_monoid(args)
    dim, weights = channels.law_tangent(mon, args.truncation)
    payload = {"dim": dim, "weights": [list(w) for w in weights]}
    return payload, {"truncation": args.truncation}, None


def _cmd_contract(args):
    law = _load_law(args.law_file)
    moved = mulaw.contract(law, _parse_point(args.point))
    payload = mulaw.law_to_json_dict(moved)
    if args.output:
        _write_file(args.output, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return payload, {"truncation": law.truncation}, None


def _cmd_root_monoid(args):
    law = _load_law(args.law_file)
    rm = mulaw.root_monoid_of_law(law)
    payload = {
        "generators": [list(g) for g in rm.generators],
        "bound_limited": True,
    }
    return payload, {"truncation": law.truncation}, None


def _cmd_orbit_law(args):
    rd, mon = _law_monoid(args)
    forms = []
    for text in args.form:
        coeffs = _parse_point(text)
        forms.append(mulaw.make_binary_form(len(coeffs) - 1, coeffs))
    law = mulaw.orbit_law(forms, mon, args.truncation)
    payload = mulaw.law_to_json_dict(law)
    if args.output:
        _write_file(args.output, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return payload, {"truncation": args.truncation}, None


def _cmd_saturate(args):
    rd = rootdata.make_root_datum(args.group)
    gens = _parse_weight_list(args.generators)
    mon = (
        rootdata.make_root_monoid(rd, gens)
        if args.root
        else rootdata.make_weight_monoid(rd, gens)
    )
    sat = monoids.saturation(mon)
    payload = {"generators": [list(g) for g in sat.generators]}
    return payload, {}, None


def _cmd_presentation(args):
    rd = rootdata.make_root_datum(args.group)
    mon = rootdata.make_weight_monoid(rd, _parse_weight_list(args.generators))
    pres = monoids.semigroup_presentation(mon, args.bound)
    payload = {
        "relations": [
            [list(lhs), list(rhs)] for lhs, rhs in pres.relations
        ],
        "bound_limited": pres.bound_limited,
    }
    return payload, {"bound": args.bound}, None


def _cmd_reproduce_example1(args):
    dims = []
    weight_table = {}
    for n in examples.BINARY_DEGREES:
        report = examples.binary_cone(n)
        dims.append(report.dim_T1_invariant)
        if report.weights:
            weight_table[str(n)] = [list(w) for w in report.weights]
    payload = {"dims": dims, "weights": weight_table}
    return payload, {}, tangent.HYPOTHESES


def _cmd_reproduce_example2(args):
    report = examples.flag_point()
    payload = {
        "dim": report.dim_T1_invariant,
        "weights": [list(w) for w in report.weights],
    }
    return payload, {}, tangent.HYPOTHESES


# ------------------------------------------------------------ wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="horomod",
        description="Exact invariants of multiplicity-free module closures.",
    )
    parser.add_argument(
        "--version", action="version", version=f"horomod {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true",
                        help="indent output for humans")

    def add(name, func, help_):
        p = sub.add_parser(name, help=help_, parents=[common])
        p.set_defaults(func=func)
        return p

    def with_cap(p):
        p.add_argument("--cap", type=int, default=2000)
        return p

    p = add("root-datum", _cmd_root_datum, "Cartan matrix and positive roots")
    p.add_argument("group")

    p = add("dominance", _cmd_dominance, "is mu below lam")
    p.add_argument("group")
    p.add_argument("mu")
    p.add_argument("lam")

    p = add("tensor", _cmd_tensor, "decompose V(lam) (x) V(mu)")
    p.add_argument("group")
    p.add_argument("lam")
    p.add_argument("mu")
    with_cap(p)

    p = add("dim", _cmd_dim, "dimension of V(lam)")
    p.add_argument("group")
    p.add_argument("lam")

    p = add("weights", _cmd_weights, "weight multiplicities of V(lam)")
    p.add_argument("group")
    p.add_argument("lam")
    with_cap(p)

    p = add("hwv", _cmd_hwv, "highest weight vectors of a built module")
    p.add_argument("group")
    p.add_argument("module")
    with_cap(p)

    p = add("coinv", _cmd_coinv, "coinvariants of a built module")
    p.add_argument("group")
    p.add_argument("module")
    with_cap(p)

    p = add("orbit-tangent", _cmd_orbit_tangent, "basis of g.x")
    p.add_argument("group")
    p.add_argument("module")
    p.add_argument("point")
    with_cap(p)

    p = add("stabilizer", _cmd_stabilizer, "Lie stabilizer of a point")
    p.add_argument("group")
    p.add_argument("module")
    p.add_argument("point")
    with_cap(p)

    p = add("t1", _cmd_t1, "invariant deformation report at a point")
    p.add_argument("group")
    p.add_argument("module")
    p.add_argument("point")
    p.add_argument("--lie-u", action="store_true",
                   help="stabilizer Lie part = maximal unipotent")
    p.add_argument("--diag", action="append",
                   help="weight congruence coeffs:modulus, repeatable")
    with_cap(p)

    p = add("tangent-weight", _cmd_tangent_weight, "lam - mu in root coords")
    p.add_argument("group")
    p.add_argument("lam")
    p.add_argument("mu")

    p = add("law-equations", _cmd_law_equations,
            "commutativity and associativity system for a rank-one window")
    p.add_argument("group")
    p.add_argument("monoid", help="semicolon-separated generator weights")
    p.add_argument("--truncation", type=int, required=True)
    p.add_argument("--export-system", metavar="FILE")

    p = add("law-tangent", _cmd_law_tangent,
            "linearized solution space at the graded law")
    p.add_argument("group")
    p.add_argument("monoid")
    p.add_argument("--truncation", type=int, required=True)

    p = add("contract", _cmd_contract, "rescale a law toward the graded one")
    p.add_argument("law_file")
    p.add_argument("point", help="comma-separated rationals, one per simple root")
    p.add_argument("--output", metavar="FILE")

    p = add("root-monoid", _cmd_root_monoid, "grades of the nonzero coefficients")
    p.add_argument("law_file")

    p = add("orbit-law", _cmd_orbit_law,
            "law of the closure of the orbit of a binary form")
    p.add_argument("group")
    p.add_argument("monoid")
    p.add_argument("--form", action="append", required=True,
                   help="coefficient list, repeatable per summand")
    p.add_argument("--truncation", type=int, required=True)
    p.add_argument("--output", metavar="FILE")

    p = add("saturate", _cmd_saturate, "Hilbert basis of cone cap lattice")
    p.add_argument("group")
    p.add_argument("generators")
    p.add_argument("--root", action="store_true",
                   help="generators are root-coordinate vectors")

    p = add("presentation", _cmd_presentation,
            "binomial relations among monoid generators up to a degree bound")
    p.add_argument("group")
    p.add_argument("generators")
    p.add_argument("--bound", type=int, required=True)

    add("reproduce-example1", _cmd_reproduce_example1,
        "deformation dims of binary-form cones, n = 1..6")
    add("reproduce-example2", _cmd_reproduce_example2,
        "deformation report for the flag-like point in k4 + /\\2 + /\\3")
    return parser


def _emit(obj: dict, pretty: bool) -> None:
    if pretty:
        text = json.dumps(obj, sort_keys=True, indent=2)
    else:
        text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    sys.stdout.write(text + "\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    provenance = {
        "command": "horomod " + " ".join(argv),
        "version": __version__,
    }
    try:
        payload, bounds, hyps = args.func(args)
    except (ValidationError, ResourceError) as exc:
        kind = "validation" if isinstance(exc, ValidationError) else "resource"
        error = {"type": kind, "message": str(exc)}
        _emit({"status": "error", "error": error, "provenance": provenance}, args.pretty)
        return 3 if kind == "validation" else 4

    provenance["bounds"] = bounds
    if hyps is not None:
        provenance["hypotheses"] = hyps
    _emit(
        {"status": "ok", "payload": payload, "provenance": provenance},
        args.pretty,
    )
    return 0
