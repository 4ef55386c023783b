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
only the layers its subcommand calls.  The module imports no
fractions: linalg.read_rational reads each number, as an int where it
is spelt as one.

The subcommands are declared once, in COMMANDS.  A well-formed request
whose first argument names a subcommand is read straight off that
table, one "--" separator included, and "--version" alone is answered
here, so neither imports argparse.  The full parser, built from the
same table, answers everything else: the help and every usage error,
with the text and exit code 2 it always had.

Before the handler runs, main reads each input of the request into a
library object once, in the order _read_inputs gives: the root datum,
the module, the monoid, the law, the --diag congruences and the point,
so a request with two bad inputs names the first.  A handler returns
only its payload.  main takes the bounds of the provenance from the
request itself (--cap, --truncation or a law file's truncation,
--bound), adds the hypotheses to the reports on fixed spaces, and
writes --output as --pretty prints.

Run as the process entry, with no argv (as python -m horomod and the
horomod script call it), main writes through a block-buffered stdout,
runs the atexit hooks, flushes and ends with os._exit once the envelope
is out, so the interpreter frees no module and no object.  A reader
that closes the pipe early gets exit 1, under PYTHONUNBUFFERED=1 too.
"""

from __future__ import annotations

import atexit
import importlib.util
import json
import os
import sys
from types import ModuleType, SimpleNamespace
from typing import TYPE_CHECKING, List, Mapping, Optional, Sequence, Tuple

from . import __version__
from .errors import DIM_CAP, ResourceError, ValidationError, check_size, clip

if TYPE_CHECKING:
    import argparse

    from .linalg import Number


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


def integer(text: str) -> int:
    """int(text) of an optional sign and decimal digits only, as
    linalg.read_rational reads an integer: int() alone reads 1_0 too.
    Also the integer flags' type; argparse's usage error names it."""
    if not text.strip().lstrip("+-").isdecimal():
        raise ValueError(text)
    return int(text)


def _parse_weight(text: str) -> Tuple[int, ...]:
    try:
        return tuple(integer(p) for p in text.split(","))
    except ValueError:
        raise ValidationError(
            f"malformed weight {clip(text)!r}: expected comma-separated integers"
        )


def _parse_point(text: str) -> List[Number]:
    return [linalg.read_rational(part) for part in text.split(",")]


def _fmt_weight(w: Sequence[int]) -> str:
    return "(" + ",".join(str(c) for c in w) + ")"


def _fmt_vec(v: Mapping[int, Number], dim: int) -> List[str]:
    """A sparse vector, printed densely: the one place vectors densify.
    An entry whose numerator or denominator str could not print is
    refused."""
    for x in v.values():
        check_size("numerator or denominator", max(abs(x.numerator), x.denominator))
    return [str(v.get(c, 0)) for c in range(dim)]


def _load_law(path: str):
    """The law in the file at path, read, decoded and converted in one
    try, so each refusal of the file ends in a ValidationError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            blob = json.load(fh)
        return mulaw.law_from_json_dict(blob)
    except ValidationError:
        raise
    except OSError as exc:
        raise ValidationError(f"cannot read law file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"law file {path} is not valid JSON: {exc}")
    except (RecursionError, ValueError) as exc:
        # nesting too deep, an integer past the digit limit, or bytes not UTF-8
        raise ValidationError(f"law file {path} is malformed: {type(exc).__name__}: {exc}")


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}")


def _read_congruences(entries: Sequence[str]) -> List[Tuple[Tuple[int, ...], int]]:
    """The --diag entries as (coeffs, modulus) pairs."""
    out = []
    for entry in entries:
        head, _, mod = entry.partition(":")
        try:
            coeffs, modulus = tuple(integer(p) for p in head.split(",")), integer(mod)
        except ValueError:
            raise ValidationError(
                f"malformed congruence {clip(entry)!r}: expected coeffs:modulus"
            )
        if modulus < 0:
            raise ValidationError(
                f"malformed congruence {clip(entry)!r}: the modulus must be 0 or positive"
            )
        out.append((coeffs, modulus))
    return out


def _read_inputs(args) -> None:
    """Read each input the request has into a library object on args,
    in this order: the root datum rd, the module m under --cap, the
    monoid mon (of roots under --root), the law (whose truncation
    becomes the request's), the --diag congruences and last the point x."""
    given = vars(args)
    if "group" in given:
        args.rd = rootdata.make_root_datum(args.group)
    if "module" in given:
        args.m = liealg.build_module(args.rd, args.module, cap=args.cap)
    gens = given.get("monoid", given.get("generators"))
    if gens is not None:
        make = rootdata.make_root_monoid if given.get("root") else rootdata.make_weight_monoid
        args.mon = make(args.rd, [_parse_weight(part) for part in gens.split(";") if part != ""])
    if "law_file" in given:
        args.law = _load_law(args.law_file)
        args.truncation = args.law.truncation
    if "diag" in given:
        args.congruences = _read_congruences(args.diag or [])
    if "point" in given:
        args.x = _parse_point(args.point)


# ------------------------------------------------------------ subcommands


def _cmd_root_datum(args):
    return {
        "label": args.rd.label,
        "rank": args.rd.rank,
        "cartan": [list(row) for row in rootdata.cartan_matrix(args.rd)],
        "positive_roots": [list(r) for r in rootdata.positive_roots(args.rd)],
    }


def _cmd_dominance(args):
    lam = _parse_weight(args.lam)
    coords = rootdata.root_coords_below(args.rd, _parse_weight(args.mu), lam)
    payload = {"leq": coords is not None}
    if coords is not None:
        check_size("root coordinate", max(coords))
        payload["difference_root_coords"] = [str(c) for c in coords]
    return payload


def _cmd_tensor(args):
    dec = repcalc.tensor_decompose(
        args.rd, _parse_weight(args.lam), _parse_weight(args.mu), cap=args.cap
    )
    return {_fmt_weight(w): k for w, k in dec.items()}


def _cmd_dim(args):
    return {"dim": repcalc.weyl_dim(args.rd, _parse_weight(args.lam))}


def _cmd_weights(args):
    table = repcalc.weight_multiplicities(args.rd, _parse_weight(args.lam), cap=args.cap)
    return {_fmt_weight(w): k for w, k in table.items()}


def _cmd_hwv(args):
    vecs = liealg.highest_weight_vectors(args.m)
    return {_fmt_weight(w): [_fmt_vec(v, args.m.dim) for v in vs] for w, vs in vecs.items()}


def _cmd_coinv(args):
    reps = liealg.u_coinvariants(args.m)
    return {
        "dim": len(reps),
        "rep_indices": list(reps),
        "rep_weights": [_fmt_weight(args.m.basis_weights[i]) for i in reps],
    }


def _cmd_orbit_tangent(args):
    span = liealg.orbit_tangent(args.m, args.x)
    return {
        "dim": span.dim,
        "basis": [_fmt_vec(row, args.m.dim) for row in span.rows.values()],
    }


def _cmd_stabilizer(args):
    basis = liealg.stabilizer_lie(args.m, args.x)
    labels = liealg.chevalley_labels(args.rd)
    # Every other printed basis has at most dim x dim entries, dim <= cap.
    check_size("stabilizer basis entry count", len(basis) * len(labels), args.cap**2)
    return {
        "dim": len(basis),
        "labels": labels,
        "basis": [_fmt_vec(v, len(labels)) for v in basis],
    }


def _cmd_t1(args):
    lie = liealg.unipotent_radical_spec(args.rd) if args.lie_u else ()
    return tangent.t1_invariant(args.m, args.x, lie, args.congruences)


def _cmd_tangent_weight(args):
    w = rootdata.tangent_weight(args.rd, _parse_weight(args.lam), _parse_weight(args.mu))
    check_size("root coordinate", max(w))
    return {"weight_root_coords": list(w)}


def _cmd_law_equations(args):
    system = channels.law_equations(args.mon, args.truncation)
    equations = polysys.equation_texts(system)
    payload = {
        "unknown_count": len(system.unknowns),
        "equation_count": len(equations),
        "unknowns": list(system.unknowns),
        "equations": equations,
    }
    if args.export_system:
        _write_file(args.export_system, polysys.system_to_text(system, equations))
        payload["exported_to"] = args.export_system
    return payload


def _cmd_law_tangent(args):
    dim, weights = channels.law_tangent(args.mon, args.truncation)
    return {"dim": dim, "weights": [list(w) for w in weights]}


def _cmd_contract(args):
    return mulaw.law_to_json_dict(mulaw.contract(args.law, args.x))


def _cmd_root_monoid(args):
    rm = mulaw.root_monoid_of_law(args.law)
    return {"generators": [list(g) for g in rm.generators], "bound_limited": True}


def _cmd_orbit_law(args):
    forms = [_parse_point(t) for t in args.form]
    return mulaw.law_to_json_dict(mulaw.orbit_law(forms, args.mon, args.truncation))


def _cmd_saturate(args):
    return {"generators": [list(g) for g in monoids.saturation(args.mon).generators]}


def _cmd_presentation(args):
    relations = monoids.semigroup_presentation(args.mon, args.bound)
    return {
        "relations": [[list(lhs), list(rhs)] for lhs, rhs in relations],
        "bound_limited": True,
    }


def _cmd_reproduce_example1(args):
    dims = []
    weight_table = {}
    for n in examples.BINARY_DEGREES:
        report = examples.binary_cone_input(n).report()
        dims.append(report["dims"]["t1_invariant"])
        if report["weights"]:
            weight_table[str(n)] = report["weights"]
    return {"dims": dims, "weights": weight_table}


def _cmd_reproduce_example2(args):
    report = examples.flag_multicone(3).report()
    return {"dim": report["dims"]["t1_invariant"], "weights": report["weights"]}


# The reports on fixed spaces, whose provenance lists the hypotheses
# they rest on and the code does not check.
_FIXED_SPACE_REPORTS = (_cmd_t1, _cmd_reproduce_example1, _cmd_reproduce_example2)


# ------------------------------------------------------------ wiring


_PRETTY = ("--pretty", {"action": "store_true", "help": "indent output for humans"})
_CAP = ("--cap", {"type": integer, "default": DIM_CAP})
_TRUNCATION = ("--truncation", {"type": integer, "required": True})
_OUTPUT = ("--output", {"metavar": "FILE"})

# The one declaration of the subcommands: name -> (handler, help,
# arguments).  An argument is a positional's name, or a flag or name
# with its add_argument options.  Help lists them in this order.
COMMANDS = {
    "root-datum": (_cmd_root_datum, "Cartan matrix and positive roots", ["group"]),
    "dominance": (_cmd_dominance, "is mu below lam", ["group", "mu", "lam"]),
    "tensor": (_cmd_tensor, "decompose V(lam) (x) V(mu)", ["group", "lam", "mu", _CAP]),
    "dim": (_cmd_dim, "dimension of V(lam)", ["group", "lam"]),
    "weights": (_cmd_weights, "weight multiplicities of V(lam)", ["group", "lam", _CAP]),
    "hwv": (_cmd_hwv, "highest weight vectors of a built module", ["group", "module", _CAP]),
    "coinv": (_cmd_coinv, "coinvariants of a built module", ["group", "module", _CAP]),
    "orbit-tangent": (_cmd_orbit_tangent, "basis of g.x", ["group", "module", "point", _CAP]),
    "stabilizer": (_cmd_stabilizer, "Lie stabilizer of a point",
                   ["group", "module", "point", _CAP]),
    "t1": (_cmd_t1, "invariant deformation report at a point", [
        "group", "module", "point",
        ("--lie-u", {"action": "store_true",
                     "help": "stabilizer Lie part = maximal unipotent"}),
        ("--diag", {"action": "append",
                    "help": "weight congruence coeffs:modulus, repeatable"}),
        _CAP,
    ]),
    "tangent-weight": (_cmd_tangent_weight, "lam - mu in root coords", ["group", "lam", "mu"]),
    "law-equations": (_cmd_law_equations,
                      "commutativity and associativity system for a rank-one window", [
        "group", ("monoid", {"help": "semicolon-separated generator weights"}), _TRUNCATION,
        ("--export-system", {"metavar": "FILE"}),
    ]),
    "law-tangent": (_cmd_law_tangent, "linearized solution space at the graded law",
                    ["group", "monoid", _TRUNCATION]),
    "contract": (_cmd_contract, "rescale a law toward the graded one", [
        "law_file", ("point", {"help": "comma-separated rationals, one per simple root"}),
        _OUTPUT,
    ]),
    "root-monoid": (_cmd_root_monoid, "grades of the nonzero coefficients", ["law_file"]),
    "orbit-law": (_cmd_orbit_law, "law of the closure of the orbit of a binary form", [
        "group", "monoid",
        ("--form", {"action": "append", "required": True,
                    "help": "coefficient list, repeatable per summand"}),
        _TRUNCATION, _OUTPUT,
    ]),
    "saturate": (_cmd_saturate, "Hilbert basis of cone cap lattice", [
        "group", "generators",
        ("--root", {"action": "store_true", "help": "generators are root-coordinate vectors"}),
    ]),
    "presentation": (_cmd_presentation,
                     "binomial relations among monoid generators up to a degree bound",
                     ["group", "generators", ("--bound", {"type": integer, "required": True})]),
    "reproduce-example1": (_cmd_reproduce_example1,
                           "deformation dims of binary-form cones, n = 1..6", []),
    "reproduce-example2": (_cmd_reproduce_example2,
                           "deformation report for the flag-like point in k4 + /\\2 + /\\3", []),
}


def _arguments(name: str) -> Tuple[dict, dict]:
    """The positionals and the flags of subcommand name, each in order
    and with its add_argument options; --pretty is the first flag."""
    positionals, flags = {}, {}
    for arg in [_PRETTY, *COMMANDS[name][2]]:
        flag, options = (arg, {}) if isinstance(arg, str) else arg
        (flags if flag.startswith("-") else positionals)[flag] = options
    return positionals, flags


def _add_command(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """parser, given the handler and the arguments of subcommand name."""
    parser.set_defaults(func=COMMANDS[name][0])
    positionals, flags = _arguments(name)
    for flag, options in {**flags, **positionals}.items():
        parser.add_argument(flag, **options)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The full parser, with every subcommand under "horomod"."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="horomod",
        description="Exact invariants of multiplicity-free module closures.",
    )
    parser.add_argument(
        "--version", action="version", version=f"horomod {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_, _) in COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_), name)
    return parser


def _read(argv: List[str]) -> Optional[SimpleNamespace]:
    """The arguments of a request whose first argument names a
    subcommand, read straight off COMMANDS as that subcommand's parser
    gives them; or None, which leaves argv to the full parser.  None
    answers help, a token before the first "--" that starts with "-"
    and is not one of the subcommand's flags spelt out (so a negative
    number and an abbreviation), a "--" that ends argv or is followed
    by a second one, a flag with no value or with a value that starts
    with "-", a number integer() does not read, a required flag left out
    and a wrong count of positionals.  Every token after the first "--"
    is a positional."""
    if not argv or argv[0] not in COMMANDS:
        return None
    positionals, flags = _arguments(argv[0])
    given, read = [], {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--":
            rest = list(tokens)
            if not rest or "--" in rest:
                return None
            given += rest
            break
        if not token.startswith("-"):
            given.append(token)
            continue
        flag, eq, value = token.partition("=")
        options = flags.get(flag)
        if options is None:
            return None
        action = options.get("action")
        if action == "store_true":
            if eq:
                return None
            read[flag] = True
            continue
        if not eq:
            value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        try:
            value = options.get("type", str)(value)
        except ValueError:
            return None
        read[flag] = read.get(flag, []) + [value] if action == "append" else value
    if len(given) != len(positionals):
        return None
    if any(options.get("required") and flag not in read for flag, options in flags.items()):
        return None
    values = {"func": COMMANDS[argv[0]][0], **dict(zip(positionals, given))}
    for flag, options in flags.items():
        default = False if options.get("action") == "store_true" else options.get("default")
        values[flag[2:].replace("-", "_")] = read.get(flag, default)
    return SimpleNamespace(**values)


def _parse(argv: List[str]) -> SimpleNamespace:
    """argv read by _read where it can be; else by the full parser,
    which also prints the help and every usage error.  "--version"
    alone prints what the full parser prints for it."""
    if argv == ["--version"]:
        sys.stdout.write(f"horomod {__version__}\n")
        raise SystemExit(0)
    args = _read(argv)
    if args is not None:
        return args
    parser = build_parser()
    args = parser.parse_args(argv)
    for name in _arguments(args.command)[0]:
        # argparse 3.10-3.13 hands the last positional [] where a second
        # "--" follows the first
        if not isinstance(getattr(args, name), str):
            parser.error(f"{args.command}: argument {name}: expected one argument")
    return args


def _json(obj: dict, pretty: bool) -> str:
    """obj as a line of JSON, or indented for --pretty and for a file."""
    if pretty:
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Answer argv, or sys.argv[1:] when argv is None, and return the
    exit code.  Only the process entry (argv None) ends with the
    request, so only it reopens stdout block-buffered and calls
    os._exit, after the atexit hooks and the flushes; a caller that
    passes argv, such as the tests, scripts/golden.py and
    perfbench/traced.py, goes on running."""
    if argv is None:
        # block-buffered also under PYTHONUNBUFFERED=1, so that a short
        # write to a closed pipe raises BrokenPipeError, not passes unseen
        out = sys.stdout
        sys.stdout = open(out.fileno(), "w", encoding=out.encoding, errors=out.errors, closefd=False)
        try:
            code = main(sys.argv[1:])
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed the pipe: the rest goes to os.devnull, exit 1
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            code = 1
        atexit._run_exitfuncs()
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)
    argv = list(argv)
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    provenance = {
        "command": "horomod " + " ".join(argv),
        "version": __version__,
    }
    try:
        _read_inputs(args)
        payload = args.func(args)
        if vars(args).get("output"):
            _write_file(args.output, _json(payload, True))
    except (ValidationError, ResourceError) as exc:
        kind = "validation" if isinstance(exc, ValidationError) else "resource"
        envelope = {"status": "error", "error": {"type": kind, "message": str(exc)}}
        code = 3 if kind == "validation" else 4
    else:
        given = vars(args)
        provenance["bounds"] = {k: given[k] for k in ("cap", "truncation", "bound") if k in given}
        if args.func in _FIXED_SPACE_REPORTS:
            provenance["hypotheses"] = tangent.HYPOTHESES
        envelope = {"status": "ok", "payload": payload}
        code = 0
    sys.stdout.write(_json({**envelope, "provenance": provenance}, args.pretty))
    return code
