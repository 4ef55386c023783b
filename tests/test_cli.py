import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from horomod import __version__, channels, cli, examples, liealg, monoids, polysys
from horomod.cli import build_parser, main
from horomod.rootdata import make_root_datum, make_weight_monoid


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def outcome(argv):
    """Exit code, stdout and stderr of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_envelope(code, out):
    """out is one JSON line, with exit 0 and status ok or with exit 3 or
    4 and status error."""
    assert out.count("\n") == 1
    blob = json.loads(out)
    assert code in (0, 3, 4)
    assert blob["status"] == ("ok" if code == 0 else "error")


def assert_one_envelope(argv):
    code, out, _ = outcome(argv)
    assert_envelope(code, out)


def assert_one_envelope_or_a_usage_error(argv):
    """main(argv) prints one envelope and nothing on stderr, or exits 2
    with a usage error on stderr and nothing on stdout."""
    code, out, err = outcome(argv)
    if code == 2:
        assert out == ""
        assert err.startswith("usage: horomod")
        assert ": error: " in err.splitlines()[-1]
    else:
        assert err == ""
        assert_envelope(code, out)


def test_tensor_example(capsys):
    code, blob = run_json(capsys, "tensor", "A1", "1", "1")
    assert code == 0
    assert blob["status"] == "ok"
    assert blob["payload"] == {"(2)": 1, "(0)": 1}


def test_dominance_example(capsys):
    code, blob = run_json(capsys, "dominance", "A2", "0,1", "1,0")
    assert code == 0
    assert blob["payload"]["leq"] is False


def test_dominance_true_reports_difference(capsys):
    code, blob = run_json(capsys, "dominance", "A1", "0", "4")
    assert code == 0
    assert blob["payload"] == {"leq": True, "difference_root_coords": ["2"]}


def test_reproduce_example1(capsys):
    code, blob = run_json(capsys, "reproduce-example1")
    assert code == 0
    assert blob["payload"]["dims"] == [0, 1, 0, 1, 0, 0]
    assert blob["payload"]["weights"] == {"2": [[2]], "4": [[2]]}


def test_reproduce_example2(capsys):
    code, blob = run_json(capsys, "reproduce-example2")
    assert code == 0
    assert blob["payload"] == {"dim": 2, "weights": [[0, 1, 1], [1, 1, 0]]}
    assert blob["provenance"]["hypotheses"]["normal"] is True


def test_byte_determinism(capsys):
    _, first = run(capsys, "law-tangent", "A1", "2", "--truncation", "8")
    _, second = run(capsys, "law-tangent", "A1", "2", "--truncation", "8")
    assert first == second


def assert_usage_error(argv, usage, error):
    """main(argv) exits 2 with nothing on stdout, and stderr is the usage
    line(s) starting with usage, then the line starting with error."""
    code, out, err = outcome(argv)
    assert (code, out) == (2, "")
    assert err.splitlines()[0] == usage
    assert err.splitlines()[-1].startswith(error)


TOP_USAGE = "usage: horomod [-h] [--version]"


def test_usage_exit_code(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert_usage_error(
        ["tensor", "A1", "1"],
        "usage: horomod tensor [-h] [--pretty] [--cap CAP] group lam mu",
        "horomod tensor: error: the following arguments are required: mu",
    )


def test_unknown_subcommand_exit_code(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert_usage_error(
        ["frobnicate"], TOP_USAGE, "horomod: error: argument command: invalid choice: 'frobnicate' ("
    )


@pytest.mark.parametrize(
    "argv, error",
    [
        (["dim", "A1", "1", "--frob"], "horomod: error: unrecognized arguments: --frob"),
        (["law-tangent", "A1", "2", "--truncation=3", "x", "--cap=1"],
         "horomod: error: unrecognized arguments: x --cap=1"),
        ([], "horomod: error: the following arguments are required: command"),
    ],
    ids=["unknown-flag", "unknown-arguments", "no-arguments"],
)
def test_top_level_usage_errors_are_pinned(monkeypatch, argv, error):
    monkeypatch.setenv("COLUMNS", "80")
    assert_usage_error(argv, TOP_USAGE, error)


# Each subcommand's usage, its white space collapsed.
USAGES = {
    "root-datum": "group",
    "dominance": "group mu lam",
    "tensor": "[--cap CAP] group lam mu",
    "dim": "group lam",
    "weights": "[--cap CAP] group lam",
    "hwv": "[--cap CAP] group module",
    "coinv": "[--cap CAP] group module",
    "orbit-tangent": "[--cap CAP] group module point",
    "stabilizer": "[--cap CAP] group module point",
    "t1": "[--lie-u] [--diag DIAG] [--cap CAP] group module point",
    "tangent-weight": "group lam mu",
    "law-equations": "--truncation TRUNCATION [--export-system FILE] group monoid",
    "law-tangent": "--truncation TRUNCATION group monoid",
    "contract": "[--output FILE] law_file point",
    "root-monoid": "law_file",
    "orbit-law": "--form FORM --truncation TRUNCATION [--output FILE] group monoid",
    "saturate": "[--root] group generators",
    "presentation": "--bound BOUND group generators",
    "reproduce-example1": "",
    "reproduce-example2": "",
}

DIM_HELP = """usage: horomod dim [-h] [--pretty] group lam

positional arguments:
  group
  lam

options:
  -h, --help  show this help message and exit
  --pretty    indent output for humans
"""


def test_every_subcommand_has_a_pinned_usage():
    assert list(USAGES) == list(build_parser()._actions[-1].choices)


@pytest.mark.parametrize("name", list(USAGES))
def test_subcommand_help_is_pinned(monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = outcome([name, "--help"])
    assert (code, err) == (0, "")
    usage = " ".join(out.partition("\n\n")[0].split())
    assert usage == f"usage: horomod {name} [-h] [--pretty] {USAGES[name]}".rstrip()
    assert "indent output for humans" in out
    if name == "dim":
        assert out == DIM_HELP


def test_top_level_help_and_version(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = outcome(["-h"])
    assert (code, err) == (0, "")
    assert out.startswith(TOP_USAGE + "\n")
    assert "Exact invariants of multiplicity-free module closures." in out
    for name in USAGES:
        assert name in out
    assert outcome(["--version"]) == (0, f"horomod {__version__}\n", "")


# Requests that the full parser answers as before, or that reach it.
FULL_PARSER_ARGV = [[name, "--help"] for name in USAGES] + [
    [], ["-h"], ["--version"], ["frobnicate"],
    ["--", "dominance", "A1", "-2", "2"],
    ["tensor", "A1", "1"],
    ["dim", "A1", "1", "--frob"],
    ["dim", "--version"],
    ["dim", "A1", "--=3"],
    ["tensor", "A1", "1", "1", "--cap", "x"],
    ["tensor", "--help", "--cap", "x"],
    ["law-tangent", "A1", "2"],
    ["dominance", "A1", "-2,0", "2"],
    ["dominance", "--", "A1", "-2", "2"],
    ["dim", "A2", "1,1", "--pretty"],
]


@pytest.mark.parametrize("argv", FULL_PARSER_ARGV, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_main_answers_as_the_full_parser_alone(monkeypatch, argv):
    """The exit code, stdout and stderr of main are those it gives when
    the full parser parses every request."""
    monkeypatch.setenv("COLUMNS", "80")
    ours = outcome(argv)
    monkeypatch.setattr(cli, "_parse", lambda argv: build_parser().parse_args(argv))
    assert outcome(argv) == ours


# Reader tokens: values, some of them subcommand names or numbers int()
# reads with a sign or a space; and tokens the reader leaves to argparse
# or must read exactly as it does.
READER_VALUES = ["A1", "2", "1,0,1", "x", "", "1/2", "8", " 4", "+3", "-5", "dim"]
READER_ODD = [
    "--", "-h", "--help", "-2", "--version", "--trunc", "--ca", "--pre", "--frob", "-x",
    "--pretty=1", "--cap=3", "--cap=x", "--truncation=8", "--truncation=", "--output=",
    "--diag=1:2", "--form=1,0", "--lie-u", "--root",
]


@st.composite
def _reader_argv(draw):
    """A request: its subcommand's positionals and 0-2 of each of its
    flags, as "--flag value" or "--flag=value", then 0-3 loose tokens,
    all in a drawn order."""
    name = draw(st.sampled_from(sorted(cli.COMMANDS)))
    positionals, flags = cli._arguments(name)
    groups = [[draw(st.sampled_from(READER_VALUES))] for _ in positionals]
    for flag, options in flags.items():
        for _ in range(draw(st.integers(0, 2))):
            if options.get("action") == "store_true":
                groups.append([flag])
            else:
                value = draw(st.sampled_from(READER_VALUES))
                groups.append(draw(st.sampled_from([[flag, value], [f"{flag}={value}"]])))
    loose = READER_VALUES + READER_ODD + list(flags)
    groups += [[token] for token in draw(st.lists(st.sampled_from(loose), max_size=3))]
    return [name, *(token for group in draw(st.permutations(groups)) for token in group)]


@seed(20032)
@settings(max_examples=600, deadline=None)
@given(_reader_argv())
@example(["t1", "A1", "sym(2,natural(2))", "1,0,0", "--lie-u", "--diag=1:2", "--diag", "2:3"])
@example(["orbit-law", "--pretty", "A1", "2", "--form", "1,0,1", "--truncation=8", "--output="])
@example(["tensor", "A1", "1", "1", "--cap", "3", "--cap=4"])
@example(["dominance", "--pretty", "A1", "--", "-2", "--pretty"])
@example(["dim", "A1", "1", "--pretty", "--"])
def test_the_reader_agrees_with_the_subcommand_parser(argv):
    """_read either leaves argv to argparse or reads what the
    subcommand's own argparse parser reads."""
    args = cli._read(argv)
    if args is None:
        return
    parser = cli._add_command(argparse.ArgumentParser(), argv[0])
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            expected = parser.parse_args(argv[1:])
    except SystemExit:
        pytest.fail(f"argparse refuses {argv}, which the reader read as {args}")
    assert vars(args) == vars(expected)


@pytest.mark.parametrize(
    "argv, line",
    [
        (["dominance", "A1", "--", "-2", "2"],
         '{"payload":{"difference_root_coords":["2"],"leq":true},"provenance":{"bounds":{},'
         '"command":"horomod dominance A1 -- -2 2","version":"%s"},"status":"ok"}'),
        (["saturate", "--", "A2", "1,-10;-1,11"],
         '{"payload":{"generators":[[-1,11],[1,-10]]},"provenance":{"bounds":{},'
         '"command":"horomod saturate -- A2 1,-10;-1,11","version":"%s"},"status":"ok"}'),
    ],
    ids=["dominance", "saturate"],
)
def test_a_request_past_a_separator_builds_no_full_parser(capsys, monkeypatch, argv, line):
    """Every token after the first "--" is a positional, so the reader
    reads the request and the envelope is the full parser's."""

    def refuse():
        raise AssertionError("the full parser was built")

    monkeypatch.setattr(cli, "build_parser", refuse)
    assert run(capsys, *argv) == (0, line % __version__ + "\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["dim", "A1", "--", "--"],
        ["tensor", "A1", "1", "--", "--"],
        ["saturate", "A1", "--", "--"],
        ["stabilizer", "A1", "natural(2)", "--", "--"],
        ["law-tangent", "--truncation", "8", "A1", "--", "--"],
    ],
    ids=["dim", "tensor", "saturate", "stabilizer", "law-tangent"],
)
def test_a_second_separator_ends_in_a_usage_error_or_an_envelope(argv):
    """argparse 3.10-3.13 give the last positional [] where a second "--"
    follows the first; that is a usage error, not a traceback."""
    assert_one_envelope_or_a_usage_error(argv)


def test_validation_exit_code(capsys):
    code, blob = run_json(capsys, "dim", "A1", "1,2")
    assert code == 3
    assert blob["status"] == "error"
    assert blob["error"]["type"] == "validation"


def test_resource_exit_code(capsys):
    code, blob = run_json(capsys, "tensor", "A2", "9,9", "9,9", "--cap", "10")
    assert code == 4
    assert blob["error"]["type"] == "resource"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["hwv", "B2", "nat("], "unknown root datum label 'B2'"),
        (["orbit-tangent", "A1", "nat(", "x"], "unknown construction 'nat'"),
        (["t1", "--diag=1:x", "A1", "sym(2,natural(2))", "x"],
         "malformed congruence '1:x': expected coeffs:modulus"),
        (["contract", "{missing}", "x"], "cannot read law file {missing}: "),
        (["orbit-law", "A1", "x", "--form", "y", "--truncation", "4"],
         "malformed weight 'x': expected comma-separated integers"),
    ],
    ids=["group-module", "module-point", "congruence-point", "law-point", "monoid-form"],
)
def test_of_two_bad_inputs_the_one_read_first_is_named(tmp_path, capsys, argv, message):
    """The group is read first, then the module, the monoid, the law
    file, the congruences and last the point; orbit-law reads its forms
    after the monoid."""
    missing = str(tmp_path / "missing.json")
    code, blob = run_json(capsys, *(a.format(missing=missing) for a in argv))
    assert code == 3
    assert blob["error"]["message"].startswith(message.format(missing=missing))


def test_law_pipeline(tmp_path, capsys):
    law_file = str(tmp_path / "law.json")
    code, blob = run_json(
        capsys,
        "orbit-law", "A1", "2",
        "--form", "1,0,1",
        "--truncation", "8",
        "--output", law_file,
    )
    assert code == 0
    assert blob["payload"]["truncation"] == 8
    on_disk = json.loads(Path(law_file).read_text())
    assert on_disk == blob["payload"]

    code, blob = run_json(capsys, "root-monoid", law_file)
    assert code == 0
    assert blob["payload"]["generators"] == [[2], [4]]
    assert blob["payload"]["bound_limited"] is True
    assert blob["provenance"]["bounds"] == {"truncation": 8}

    code, blob = run_json(capsys, "contract", law_file, "0")
    assert code == 0
    values = {
        (e["channel"], tuple(e["lam"])): e["value"]
        for e in blob["payload"]["coeffs"]
    }
    assert all(e["channel"] == 0 for e in blob["payload"]["coeffs"])
    assert all(e["value"] == "1" for e in blob["payload"]["coeffs"])
    assert values  # non-empty

    code, blob = run_json(capsys, "contract", law_file, "1")
    assert code == 0
    assert blob["payload"]["coeffs"] == on_disk["coeffs"]


def test_export_system_format(tmp_path, capsys):
    out_file = str(tmp_path / "sys.txt")
    code, blob = run_json(
        capsys,
        "law-equations", "A1", "2",
        "--truncation", "6",
        "--export-system", out_file,
    )
    assert code == 0
    text = Path(out_file).read_text()
    lines = text.splitlines()
    headers = [l for l in lines if l.startswith("# unknown ")]
    assert len(headers) == blob["payload"]["unknown_count"]
    assert headers[0] == "# unknown m[2,2,1] grade=1*alpha"
    body = [l for l in lines if not l.startswith("#")]
    assert body == blob["payload"]["equations"]


def test_law_equations_render_each_equation_once(tmp_path, capsys, monkeypatch):
    """The payload and the exported file read one list: each equation is
    rendered once, and the texts are distinct, ordered by grade, largest
    monomial degree, then text."""
    system = channels.law_equations(make_weight_monoid(make_root_datum("A1"), [(1,)]), 15)
    key = {
        polysys.render_poly(cp, system.unknowns): (g, max(len(m) for m, _ in cp))
        for cp, g in system.equations
    }
    calls = []
    render = polysys.render_poly
    monkeypatch.setattr(polysys, "render_poly", lambda *args: calls.append(args) or render(*args))
    out_file = tmp_path / "system.txt"
    code, blob = run_json(
        capsys, "law-equations", "A1", "1", "--truncation", "15", "--export-system", str(out_file)
    )
    assert code == 0
    equations = blob["payload"]["equations"]
    assert len(calls) == blob["payload"]["equation_count"] == len(system.equations)
    assert equations == sorted(key, key=lambda text: (*key[text], text))
    body = [l for l in out_file.read_text().splitlines() if not l.startswith("#")]
    assert body == equations


# sha256 of the stdout of two law-equations windows and of one exported
# system, recorded when the output became the reduced row-echelon basis
# of each grade's span.
LAW_EQUATIONS_STDOUT = {
    ("law-equations", "A1", "1", "--truncation", "15"):
        "472316285a188e9e040e8fb3b2a27aaca0b451089c1f9df911f5f733ab7dece4",
    ("law-equations", "A1", "2;3", "--truncation", "12"):
        "9d9094d26e21af3d32112197de8d7a4cdeaf1c96c3268a9db607ffe2402986d3",
}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv", list(LAW_EQUATIONS_STDOUT), ids=" ".join)
def test_law_equations_stdout_is_pinned(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    assert sha256(out) == LAW_EQUATIONS_STDOUT[argv]


def test_exported_system_is_pinned(tmp_path, capsys):
    out_file = tmp_path / "system.txt"
    code, _ = run(capsys, "law-equations", "A1", "2;3", "--truncation", "12", "--export-system", str(out_file))
    assert code == 0
    assert sha256(out_file.read_text()) == "e8b68d1435522cc6cca088e689d8af2bdefe7b55890aa53fea3d4e810684587d"


def _law_file(tmp_path, value, generator=2, truncation=4, channel=2):
    """A law JSON of one coefficient of (g, g) -> 2g - 2*channel, its value
    spliced in as written, so it may be a JSON integer of any length."""
    g = generator
    law = {
        "rd": {"label": "A1"},
        "monoid": {"generators": [[g]]},
        "truncation": truncation,
        "coeffs": [{"lam": [g], "mu": [g], "nu": [2 * g - 2 * channel], "channel": channel, "value": "VALUE"}],
    }
    path = tmp_path / "law.json"
    path.write_text(json.dumps(law).replace('"VALUE"', value))
    return str(path)


def _timed(capsys, *argv):
    start = time.perf_counter()
    code, blob = run_json(capsys, *argv)
    assert time.perf_counter() - start < 2
    return code, blob


@pytest.mark.parametrize(
    "argv",
    [
        ["t1", "A1", "natural(2)", "1e100000000,0"],
        ["orbit-tangent", "A1", "natural(2)", "1,1E100000000"],
        ["orbit-law", "A1", "2", "--form", "1e5000,0,1", "--truncation", "4"],
        ["orbit-law", "A1", "2", "--form", "1,0,1", "--form", "1.5e3,0,1", "--truncation", "4"],
    ],
)
def test_exponent_notation_in_a_point_is_refused(capsys, argv):
    code, blob = _timed(capsys, *argv)
    assert code == 3
    assert blob["error"]["type"] == "validation"
    assert "expected an integer, p/q or a plain decimal" in blob["error"]["message"]


def test_a_point_entry_past_the_digit_limit_is_refused(capsys):
    code, blob = _timed(capsys, "t1", "A1", "natural(2)", "0," + "7" * 4301)
    assert code == 3
    assert blob["error"]["message"] == f"number {'7' * 20}... is too long: 4301 digits, at most 4300"
    code, blob = _timed(capsys, "orbit-tangent", "A1", "natural(2)", "1/" + "3" * 4300 + ",0")
    assert code == 0


# Two denominators of 4 300 digits on a module of dimension 21: the
# eliminations at this point ran for 8 s before it was refused.
LONG_POINT = ",".join(["1/" + "9" * 4299 + "7", "1/" + "9" * 4299 + "1"] + ["1"] * 19)


@pytest.mark.parametrize("command", ["stabilizer", "orbit-tangent", "t1"])
def test_a_point_of_long_numbers_is_refused_from_its_cost_estimate(capsys, command):
    start = time.perf_counter()
    code, blob = run_json(capsys, command, "--", "A3", "sym(2,ext(2,natural(4)))", LONG_POINT)
    assert time.perf_counter() - start < 1
    assert code == 4
    assert blob["error"] == {
        "type": "resource",
        "message": "point cost estimate exceeds the cap 500000000000; "
        "shorten the numerators and denominators of the point",
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["orbit-tangent", "A1", "natural(2)", "1/" + "3" * 4300 + ",0"],
        ["stabilizer", "A1", "sym(4,natural(2))", "0,1/" + "9" * 4300 + ",0,0," + "9" * 4300],
        ["t1", "A1", "sym(2,natural(2))", "1/" + "9" * 4300 + ",0,0", "--lie-u"],
    ],
)
def test_long_numbers_on_a_small_module_are_admitted(capsys, argv):
    code, blob = _timed(capsys, *argv)
    assert code == 0


# Short entries on most of the 510 coordinates of the A8 flag multicone.
# Run, t1 takes 7 s and orbit-tangent 0.9 s at this point on a 2-vCPU
# host, though its digits alone are cheap; stabilizer takes 0.07 s.
DENSE_RNG = random.Random(8)
DENSE_POINT = ",".join(str(DENSE_RNG.choice([0, 1, -1, 2])) for _ in range(510))


@pytest.mark.parametrize("command", ["orbit-tangent", "t1"])
def test_a_dense_point_on_a_large_module_is_refused_from_its_cost_estimate(capsys, command):
    start = time.perf_counter()
    code, blob = run_json(capsys, command, "--", "A8", examples.flag_multicone(8).module, DENSE_POINT)
    assert time.perf_counter() - start < 1
    assert code == 4
    assert blob["error"] == {
        "type": "resource",
        "message": "point cost estimate exceeds the cap 500000000000; "
        "give the point fewer nonzero entries",
    }


def test_a_dense_point_on_a_large_module_has_a_cheap_stabilizer(capsys):
    """The stabilizer eliminates the rows of the orbit map, which have
    only ops columns, so its estimate admits the point t1 refuses."""
    start = time.perf_counter()
    code, blob = run_json(capsys, "stabilizer", "--", "A8", examples.flag_multicone(8).module, DENSE_POINT)
    assert time.perf_counter() - start < 1
    assert code == 0
    assert blob["payload"]["dim"] == 0
    assert blob["payload"]["basis"] == []


def test_law_value_in_exponent_notation_is_refused(tmp_path, capsys):
    path = _law_file(tmp_path, '"1e100000000"')
    for argv in (["root-monoid", path], ["contract", path, "2"]):
        code, blob = _timed(capsys, *argv)
        assert code == 3, argv
        assert blob["error"]["message"] == (
            "malformed rational '1e100000000': expected an integer, p/q or a plain decimal"
        )


def test_law_integer_past_the_digit_limit_is_refused(tmp_path, capsys):
    path = _law_file(tmp_path, "7" * 5000)
    code, blob = _timed(capsys, "root-monoid", path)
    assert code == 3
    assert blob["error"]["type"] == "validation"
    assert blob["error"]["message"].startswith(f"law file {path} is malformed: ValueError:")
    assert "4300" in blob["error"]["message"]
    # At the limit the integer is read, and printed back.
    code, blob = _timed(capsys, "contract", _law_file(tmp_path, "7" * 4300), "1")
    assert code == 0
    assert blob["payload"]["coeffs"][0]["value"] == "7" * 4300


@pytest.mark.parametrize(
    "content, error",
    [(b"[" * 100000 + b"]" * 100000, "RecursionError"), (b"\xff\xfe{}", "UnicodeDecodeError")],
    ids=["nested-100000-deep", "not-utf-8"],
)
def test_law_file_json_cannot_decode_is_refused(tmp_path, capsys, content, error):
    path = tmp_path / "law.json"
    path.write_bytes(content)
    code, blob = _timed(capsys, "root-monoid", str(path))
    assert code == 3
    assert blob["error"]["message"].startswith(f"law file {path} is malformed: {error}:")


def test_contraction_past_the_digit_limit_is_refused_before_the_power(tmp_path, capsys):
    path = _law_file(tmp_path, '"1"', generator=20000, truncation=40000, channel=20000)
    message = (
        "contracted coefficient lam=[20000] mu=[20000] nu=[0] channel=20000 "
        "has a numerator or denominator of more than 4300 digits"
    )
    for point in ("2", "1/2", "10" + "0" * 4000):
        code, blob = _timed(capsys, "contract", path, point)
        assert code == 4, point
        assert blob["error"] == {"type": "resource", "message": message}
    # The power is bounded against the value's own digits, so a result
    # that cancels down below the limit is printed: 2**20000 / 2**14000.
    path = _law_file(tmp_path, f'"1/{2**14000}"', generator=20000, truncation=40000, channel=20000)
    code, blob = _timed(capsys, "contract", path, "2")
    assert code == 0
    assert blob["payload"]["coeffs"][0]["value"] == str(2**6000)


def test_a_law_value_past_the_digit_limit_is_not_printed(tmp_path, capsys):
    form = "7" * 3000 + ",0,1"
    code, blob = _timed(capsys, "orbit-law", "A1", "2", "--form", form, "--truncation", "8")
    assert code == 4
    assert blob["error"]["type"] == "resource"
    message = blob["error"]["message"]
    assert message.startswith("coefficient lam=[") and message.endswith("of more than 4300 digits")
    # contract past the limit, where the bound on the power lets it through.
    path = _law_file(tmp_path, '"' + "7" * 4300 + '"')
    code, blob = _timed(capsys, "contract", path, "1" + "0" * 10)
    assert code == 4
    assert blob["error"]["message"] == (
        "coefficient lam=[2] mu=[2] nu=[0] channel=2 has a numerator or denominator of more than 4300 digits"
    )


def test_orbit_law_of_the_longest_form_at_the_truncation_cap_is_fast(capsys):
    """4 300-digit entries at the truncation cap: the law is built from
    the covariant's powers and refused as too long to print, in time."""
    start = time.perf_counter()
    code, blob = run_json(capsys, "orbit-law", "A1", "2", "--form", "7" * 4300 + ",0,1", "--truncation", "16")
    assert time.perf_counter() - start < 5
    assert code == 4
    assert blob["error"]["message"] == (
        "coefficient lam=[4] mu=[4] nu=[0] channel=4 has a numerator or denominator of more than 4300 digits"
    )


def test_orbit_law_of_a_long_linear_form_is_fast(capsys):
    """A linear form of 4 300-digit entries at the truncation cap has the
    graded law of any linear form, read without multiplying out its
    powers (3-4 s when they were)."""
    start = time.perf_counter()
    code, blob = run_json(capsys, "orbit-law", "A1", "1", "--form", "7" * 4300 + ",1", "--truncation", "16")
    assert time.perf_counter() - start < 1
    assert code == 0
    assert blob["payload"] == run_json(capsys, "orbit-law", "A1", "1", "--form", "3,1", "--truncation", "16")[1]["payload"]


def _seeded_forms(count, digits):
    """--form arguments of count binary forms of degree count, with
    entries of the given number of digits (0-9 for one), drawn by
    random.Random(1)."""
    rng = random.Random(1)
    lo, hi = (0, 9) if digits == 1 else (10 ** (digits - 1), 10**digits - 1)
    return [f"--form={','.join(str(rng.randint(lo, hi)) for _ in range(count + 1))}" for _ in range(count)]


@pytest.mark.parametrize("count, digits", [(250, 1), (350, 1), (40, 300)])
def test_orbit_law_refuses_costly_form_eliminations_up_front(capsys, monkeypatch, count, digits):
    """Counting the linear relations among many forms of one degree took
    7 to 35 s on 2 vCPUs before it exited 3; its cost estimate refuses
    it before any RowSpace is built."""
    def no_rowspace(*args):
        raise AssertionError("a RowSpace was built")

    monkeypatch.setattr("horomod.linalg.RowSpace", no_rowspace)
    start = time.perf_counter()
    code, blob = run_json(capsys, "orbit-law", "A1", "2", *_seeded_forms(count, digits), "--truncation", "4")
    assert time.perf_counter() - start < 1
    assert code == 4
    assert blob["error"]["type"] == "resource"


@st.composite
def _orbit_law_argv(draw):
    n = draw(st.integers(1, 6))
    monoid = draw(st.sampled_from([str(n)] * 6 + ["2;3", "0", "-2"]))
    forms = []
    for _ in range(draw(st.sampled_from([1, 1, 2, 3]))):
        degree = draw(st.sampled_from([n, n, n + 2]) | st.integers(0, 7))
        entries = [
            draw(st.sampled_from(["0", "1", "0", "-1", "2", "1/2", "-3/4", "0.5"]))
            for _ in range(degree + 1)
        ]
        if draw(st.integers(0, 7)) == 7:
            bad = draw(st.sampled_from(["x", "", "1e3", "1/0", "7" * 4301]))
            entries[draw(st.integers(0, degree))] = bad
        # One argument, so that argparse takes a leading minus as a value.
        forms.append("--form=" + ",".join(entries))
    truncation = draw(st.sampled_from(list(range(17)) + [17, -1]))
    group = "A2" if draw(st.integers(0, 7)) == 7 else "A1"
    return ["orbit-law", *forms, f"--truncation={truncation}", "--", group, monoid]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_orbit_law_argv())
def test_orbit_law_always_ends_in_one_envelope(argv):
    start = time.perf_counter()
    assert_one_envelope(argv)
    assert time.perf_counter() - start < 2


def test_saturate_and_presentation(capsys):
    code, blob = run_json(capsys, "saturate", "A1", "2;3")
    assert code == 0
    assert blob["payload"]["generators"] == [[1]]

    code, blob = run_json(capsys, "presentation", "A1", "2;3", "--bound", "6")
    assert code == 0
    assert blob["payload"]["relations"] == [[[0, 2], [3, 0]]]
    assert blob["provenance"]["bounds"] == {"bound": 6}


def test_saturate_past_a_bound_limited_probe(capsys):
    # The Hilbert basis of the cone between (1,-1) and (3,2); the old
    # grade-sorted filter tripped an assert on its bound-limited flag here.
    code, blob = run_json(capsys, "saturate", "--", "A2", "1,0;3,1;3,2;1,-1")
    assert code == 0
    assert blob["payload"]["generators"] == [[1, -1], [1, 0], [2, 1], [3, 2]]


@st.composite
def _saturate_argv(draw):
    group = draw(st.sampled_from(["A2", "A3"]))
    rank = int(group[1:])
    gens = draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=rank, max_size=rank),
        min_size=1, max_size=4,
    ))
    flags = ["--root"] if draw(st.booleans()) else []
    return ["saturate", *flags, "--", group, ";".join(",".join(map(str, g)) for g in gens)]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_saturate_argv())
@example(["saturate", "--", "A2", "1,0;3,1;3,2;1,-1"])
# Box spans past 2^63 points, which len(range) cannot count.
@example(["saturate", "A1", "1;9223372036854775807"])
@example(["saturate", "A2", f"{'9' * 25},1;1,{'9' * 25}"])
@example(["saturate", "--root", "A2", f"1,0;{'9' * 25},{'9' * 25}"])
def test_saturate_always_ends_in_an_envelope(argv):
    assert_one_envelope(argv)


def test_saturate_finds_a_grading_past_small_coefficients(capsys):
    # Pointed, but every positive functional has a coefficient above 5.
    code, blob = run_json(capsys, "saturate", "--", "A2", "1,-10;-1,11")
    assert code == 0
    assert blob["payload"]["generators"] == [[-1, 11], [1, -10]]


@pytest.mark.parametrize("gens, bound", [
    pytest.param("1;2;3;4;5", "12", id="12"),
    pytest.param("1;2;3;4;5", "30", id="30"),
    # The count of exponent vectors has about 8 million digits here.
    pytest.param(";".join(map(str, range(1, 2001))), "9" * 4000, id="2000-gens-4000-digits"),
])
def test_presentation_cost_is_refused_up_front(capsys, gens, bound):
    start = time.perf_counter()
    code, blob = run_json(capsys, "presentation", "A1", gens, "--bound", bound)
    assert time.perf_counter() - start < 2
    assert code == 4
    assert blob["error"]["type"] == "resource"


@pytest.mark.parametrize("command", ["law-tangent", "law-equations"])
def test_law_window_cost_is_refused_up_front(capsys, command):
    start = time.perf_counter()
    code, blob = run_json(capsys, command, "A1", "1", "--truncation", "60")
    assert time.perf_counter() - start < 2
    assert code == 4
    assert blob["error"]["type"] == "resource"


@pytest.mark.parametrize("rank", [18, 140])
def test_weights_of_the_last_fundamental_weight_are_fast(capsys, rank):
    # The box of root coordinates below it has 2^rank points; the
    # dominant weights below it are only itself.
    last = ",".join(["0"] * (rank - 1) + ["1"])
    start = time.perf_counter()
    code, blob = run_json(capsys, "weights", f"A{rank}", last)
    assert time.perf_counter() - start < 2
    assert code == 0
    assert len(blob["payload"]) == rank + 1
    assert set(blob["payload"].values()) == {1}


def test_dim_of_the_last_fundamental_weight_of_a140_is_fast(capsys):
    # Weyl's product has 9870 factors here, one per positive root.
    start = time.perf_counter()
    code, blob = run_json(capsys, "dim", "A140", ",".join(["0"] * 139 + ["1"]))
    assert time.perf_counter() - start < 1
    assert code == 0
    assert blob["payload"] == {"dim": 141}


def test_a_request_on_a140_builds_no_cartan_matrix(capsys, monkeypatch):
    def no_matrix(rd):
        raise AssertionError("the Cartan matrix was built")

    monkeypatch.setattr("horomod.rootdata.cartan_matrix", no_matrix)
    code, blob = run_json(capsys, "dim", "A140", ",".join(["1"] + ["0"] * 139))
    assert code == 0
    assert blob["payload"] == {"dim": 141}


NINES = "9" * 4300


@pytest.mark.parametrize(
    "argv, message",
    [
        (["dim", "A1", NINES], "dimension of more than 4300 digits cannot be printed"),
        (["dim", "A140", ",".join(["99"] * 140)], "dimension of more than 4300 digits cannot be printed"),
        (["weights", "A1", NINES], "dimension of more than 4300 digits cannot be printed"),
        (["tensor", "A1", NINES, "1"], "dimension of more than 4300 digits cannot be printed"),
        (["tensor", "A1", NINES[:2200], NINES[:2200]], "tensor dimension of more than 4300 digits exceeds cap 2000"),
        # Entries of 4 300 digits make a basis entry of more, which str cannot print.
        (["orbit-tangent", "--", "A1", "sym(2,natural(2))", f"{NINES},1/{NINES},-{NINES}"],
         "numerator or denominator of more than 4300 digits cannot be printed"),
        (["stabilizer", "--", "A1", "sym(2,natural(2))", f"{NINES},1/{NINES},-{NINES}"],
         "numerator or denominator of more than 4300 digits cannot be printed"),
    ],
    ids=["dim", "dim-A140", "weights", "tensor", "tensor-product", "orbit-tangent", "stabilizer"],
)
def test_a_dimension_too_long_to_print_is_refused(capsys, argv, message):
    code, blob = run_json(capsys, *argv)
    assert code == 4
    assert blob["error"] == {"type": "resource", "message": message}


@pytest.mark.parametrize("command", ["dim", "saturate"])
@pytest.mark.parametrize(
    "text, shown",
    [(NINES + "9", "9" * 20 + "..."), ("1,x", "1,x"), ("b" * 20, "b" * 20)],
    ids=["4301-digits", "short", "20"],
)
def test_a_malformed_weight_is_echoed_clipped(capsys, command, text, shown):
    code, blob = run_json(capsys, command, "A1", text)
    assert code == 3
    assert blob["error"] == {
        "type": "validation",
        "message": f"malformed weight {shown!r}: expected comma-separated integers",
    }


@st.composite
def _small_argv(draw):
    """A request of a subcommand without a module: the rank small or
    140, weights of the right length or one off, entries small, negative
    or of 4 300 digits (or 4 301, past what int reads)."""
    rank = draw(st.sampled_from([1, 1, 2, 3, 4, 140]))
    group = draw(st.sampled_from([f"A{rank}"] * 6 + ["A0", "B2", "A141"]))

    def entry():
        return draw(st.sampled_from(["0", "1", "2", "-1", "-3", "99"] * 3 + [NINES, "-" + NINES, NINES + "9"]))

    def weight():
        length = max(draw(st.sampled_from([rank] * 6 + [rank - 1, rank + 1])), 1)
        if draw(st.integers(0, 3)) == 0:
            return ",".join([entry()] * length)
        return ",".join(entry() for _ in range(length))

    command = draw(st.sampled_from(
        ["root-datum", "dominance", "tensor", "dim", "weights", "tangent-weight", "presentation"]
    ))
    options = []
    if command in ("tensor", "weights"):
        # A large cap would admit work past any time bound.
        options = draw(st.sampled_from([[], ["--cap=10"], ["--cap=-1"]]))
    if command == "root-datum":
        args = [group]
    elif command in ("dim", "weights"):
        args = [group, weight()]
    elif command == "presentation":
        options = [f"--bound={draw(st.sampled_from(['-1', '0', '3', '5', NINES]))}"]
        args = [group, ";".join(weight() for _ in range(draw(st.integers(0, 3))))]
    else:
        args = [group, weight(), weight()]
    # Options first, so that every entry after "--" is positional.
    return [command, *options, "--", *args]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_small_argv())
@example(["dim", "A1", NINES])
@example(["dim", "--", "A140", ",".join([NINES] * 140)])
@example(["dominance", "--", "A3", ",".join(["-" + NINES] * 3), ",".join([NINES] * 3)])
@example(["tangent-weight", "--", "A3", ",".join([NINES] * 3), ",".join(["-" + NINES] * 3)])
@example(["weights", "A1", "1999"])
def test_small_requests_always_end_in_one_envelope(argv):
    start = time.perf_counter()
    assert_one_envelope(argv)
    assert time.perf_counter() - start < 2


# The Hilbert basis of saturate A3 '1,0,-2;3,-1,2;3,1,-1;1,3,3', as the
# natural-sum search of tests/oracles.py gives it with no node cap: it
# takes 398 954 nodes, past that search's default cap of 150 000.
A3_HILBERT_BASIS = [
    [1, 0, -2], [1, 0, -1], [1, 0, 0], [1, 1, 0], [1, 1, 1], [1, 2, 2], [1, 3, 3],
    [2, 0, 1], [2, 1, 2], [2, 2, 3], [3, -1, 2], [3, 0, 2], [3, 1, 3], [3, 2, 4],
]


def test_saturation_answers_without_a_membership_search(capsys):
    start = time.perf_counter()
    code, blob = run_json(capsys, "saturate", "A3", "1,0,-2;3,-1,2;3,1,-1;1,3,3")
    assert time.perf_counter() - start < 2
    assert code == 0
    assert blob["payload"]["generators"] == A3_HILBERT_BASIS


def test_saturation_cost_is_estimated_before_the_dominance_pass(capsys, monkeypatch):
    def never(values):
        raise AssertionError("the dominance pass ran")

    monkeypatch.setattr(monoids, "_undominated", never)
    start = time.perf_counter()
    code, blob = run_json(capsys, "saturate", "A2", "1,0;1,1;1,5000")
    assert time.perf_counter() - start < 2
    assert code == 4
    assert blob["error"]["type"] == "resource"
    assert blob["error"]["message"] == (
        "saturation would compare 225135020 facet values of 15005 cone points,"
        " past the cap 10000000"
    )


def test_saturation_keeps_a_thousand_generators_of_one_cone(capsys):
    # The cone between (1,0) and (1,1000) over Z^2: every (1,k) is irreducible.
    code, blob = run_json(capsys, "saturate", "A2", "1,0;1,1;1,1000")
    assert code == 0
    assert blob["payload"]["generators"] == [[1, k] for k in range(1001)]


def test_saturate_counts_the_lattice_points_it_builds(capsys):
    # Three independent generators are a basis of their own lattice.  The
    # box holds 44 lattice points, but bounding each lattice coordinate
    # over the whole box allows 254 082 tuples, past the enumeration cap.
    code, blob = run_json(capsys, "saturate", "--", "A3", "-15,16,-10;-15,17,-15;22,17,12")
    assert code == 0
    assert blob["payload"]["generators"] == [[-15, 16, -10], [-15, 17, -15], [22, 17, 12]]


def test_t1_subcommand(capsys):
    code, blob = run_json(
        capsys,
        "t1", "A1", "sym(4,natural(2))", "1,0,0,0,0",
        "--lie-u", "--diag", "1:4",
    )
    assert code == 0
    assert blob["payload"]["dims"]["t1_invariant"] == 1
    assert blob["payload"]["weights"] == [[2]]
    # the hypotheses of the four-term sequence are asserted, not checked
    assert blob["provenance"]["hypotheses"] == {"normal": True, "boundary_codim_ge_2": True}


@pytest.mark.parametrize(
    "argv",
    [
        ["--lie-u", "A1", "sym(3,natural(2))", "1,0,0,0"],
        ["--lie-u", "--", "A2", "sym(2,natural(3))", "1,0,0,0,0,0"],
        ["A2", "natural(3)", "0,0,1"],
    ],
    ids=["x-cubed", "a2-sym2", "e3-no-lie-part"],
)
def test_t1_takes_the_torus_part_of_the_isotropy_from_the_point(capsys, argv):
    """The torus part of G_x is T_x, the common kernel of the support
    weights S, which fixes only the basis vectors whose weight lies in
    Z.S: at x^3 the cube roots of unity, in Sym^2 of k^3 at x_1^2 the
    kernel of 2*omega_1, and at e3 of k^3 the kernel of its weight, so
    V^{G_x} is the line of e3 even with no Lie part.  None of the three
    deforms, with or without --diag."""
    code, blob = run_json(capsys, "t1", *argv)
    assert code == 0
    assert blob["payload"] == {
        "dims": {"g_mod_gx_fixed": 1, "V_fixed": 1, "normal_fixed": 0, "t1_invariant": 0},
        "weights": [],
    }


@pytest.mark.parametrize("flag", ["--no-normal", "--no-small-boundary"])
def test_t1_has_no_hypothesis_flags(capsys, flag):
    code, out = run(capsys, "t1", "A1", "sym(2,natural(2))", "1,0,0", "--lie-u", "--diag", "1:2", flag)
    assert code == 2
    assert out == ""


def example_args(ex):
    """The group, module and point of a worked example, as the CLI reads them."""
    return ex.label, ex.module, ",".join(map(str, ex.point))


def multicone_payload(r):
    """Payload of the flag multicone of A_r: V_fixed = g_mod_gx_fixed = r,
    normal_fixed = t1_invariant = r - 1, weights alpha_i + alpha_(i+1)."""
    return {
        "dims": {"V_fixed": r, "g_mod_gx_fixed": r, "normal_fixed": r - 1, "t1_invariant": r - 1},
        "weights": sorted([[int(j in (i, i + 1)) for j in range(r)] for i in range(r - 1)]),
    }


@pytest.mark.parametrize("r", range(2, 8))
def test_t1_flag_multicone(capsys, r):
    # A7 (module dimension 254) also guards the cost of the sparse kernel.
    code, blob = run_json(capsys, "t1", *example_args(examples.flag_multicone(r)), "--lie-u")
    assert code == 0
    assert blob["payload"] == multicone_payload(r)


@pytest.mark.parametrize("r", range(2, 7))
def test_t1_flag_multicone_matches_the_reference_payload(capsys, r):
    # The benchmark's reference payloads, read only, in its canonical form.
    ref = Path(__file__).resolve().parent.parent / "perfbench" / "reference" / f"multicone_A{r}.json"
    code, blob = run_json(capsys, "t1", *example_args(examples.flag_multicone(r)), "--lie-u")
    assert code == 0
    got = json.dumps(blob["payload"], sort_keys=True, separators=(",", ":")) + "\n"
    assert got.encode() == ref.read_bytes()


FLAG = example_args(examples.flag_multicone(3))


@pytest.mark.parametrize(
    "argv",
    [
        ("t1", "A1", "sum(sym(2,natural(2)),sym(4,natural(2)))", "1,0,0,1,0,0,0,0", "--lie-u", "--diag", "1:2"),
        ("t1", "A1", "sum(sym(2,natural(2)),sym(3,natural(2)))", "1,0,0,1,0,0,0", "--lie-u"),
    ],
)
def test_t1_gives_a_survivor_meeting_two_pieces_its_weight_once(capsys, argv):
    """The one survivor has grade 2 in both summands and meets two
    isotypic pieces there; each gives the weight (2), listed once."""
    code, blob = run_json(capsys, *argv)
    assert code == 0
    assert blob["payload"] == {
        "dims": {"V_fixed": 2, "g_mod_gx_fixed": 1, "normal_fixed": 2, "t1_invariant": 1},
        "weights": [[2]],
    }


T1_FUZZ_MODULES = {
    1: ["natural(2)", "sym(2,natural(2))", "sym(4,natural(2))", "sum(sym(2,natural(2)),sym(3,natural(2)))"],
    2: ["natural(3)", "sym(2,natural(3))", "tensor(natural(3),dual(natural(3)))"],
    3: ["ext(2,natural(4))", FLAG[1]],
}


@st.composite
def _t1_argv(draw):
    rank = draw(st.integers(1, 3))
    module = draw(st.sampled_from(T1_FUZZ_MODULES[rank]))
    dim = liealg.build_module(make_root_datum(f"A{rank}"), module).dim
    length = draw(st.sampled_from([dim] * 4 + [dim - 1, dim + 1]))
    point = ",".join(str(draw(st.sampled_from([0, 0, 0, 1, -1, 2]))) for _ in range(length))
    flags = ["--lie-u"] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(0, 2))):
        count = draw(st.sampled_from([rank, rank, rank + 1]))
        coeffs = ",".join(str(draw(st.integers(-3, 3))) for _ in range(count))
        # One argument, so that argparse takes a leading minus as a value.
        flags.append(f"--diag={coeffs}:{draw(st.integers(0, 4))}")
    return ["t1", *flags, "--", f"A{rank}", module, point]


@settings(max_examples=50, deadline=None, derandomize=True)
@given(_t1_argv())
def test_t1_always_ends_in_one_envelope(argv):
    assert_one_envelope(argv)


@st.composite
def _point_argv(draw):
    """orbit-tangent or stabilizer at a point of a fuzz module, of the
    right length or one off: entries integers, p/q, plain decimals,
    negatives, of 4 300 digits, or of 4 301 (past what the reader takes)."""
    rank = draw(st.integers(1, 3))
    module = draw(st.sampled_from(T1_FUZZ_MODULES[rank]))
    dim = liealg.build_module(make_root_datum(f"A{rank}"), module).dim
    length = draw(st.sampled_from([dim] * 4 + [dim - 1, dim + 1]))
    entry = st.sampled_from(
        ["0"] * 6 + ["1", "-1", "2", "1/2", "-3/4", "0.5", "-2.25", "7/3"]
        + [NINES, "-" + NINES, "1/" + NINES, NINES + "/7", NINES + "9", "1/" + NINES + "9"]
    )
    point = ",".join(draw(entry) for _ in range(length))
    command = draw(st.sampled_from(["orbit-tangent", "stabilizer"]))
    return [command, "--", f"A{rank}", module, point]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_point_argv())
@example(["orbit-tangent", "--", "A1", "natural(2)", f"{NINES}9,1"])
def test_points_always_end_in_one_envelope(argv):
    start = time.perf_counter()
    assert_one_envelope(argv)
    assert time.perf_counter() - start < 2


# Exact payloads of module requests, so that a change of the matrix
# format inside liealg cannot alter stdout unnoticed.
MODULE_PAYLOADS = {
    ("hwv", "A1", "natural(2)"): '{"(1)":[["1","0"]]}',
    ("coinv", "A1", "natural(2)"): '{"dim":1,"rep_indices":[1],"rep_weights":["(-1)"]}',
    ("hwv", "A1", "dual(natural(2))"): '{"(1)":[["0","1"]]}',
    ("coinv", "A1", "dual(natural(2))"): '{"dim":1,"rep_indices":[0],"rep_weights":["(-1)"]}',
    ("hwv", "A1", "sym(3,natural(2))"): '{"(3)":[["1","0","0","0"]]}',
    ("coinv", "A1", "sym(3,natural(2))"): '{"dim":1,"rep_indices":[3],"rep_weights":["(-3)"]}',
    ("hwv", "A1", "tensor(natural(2),natural(2))"): (
        '{"(0)":[["0","-1","1","0"]],"(2)":[["1","0","0","0"]]}'
    ),
    ("coinv", "A1", "tensor(natural(2),natural(2))"): (
        '{"dim":2,"rep_indices":[2,3],"rep_weights":["(0)","(-2)"]}'
    ),
    ("hwv", "A1", "sum(natural(2),sym(2,natural(2)))"): (
        '{"(1)":[["1","0","0","0","0"]],"(2)":[["0","0","1","0","0"]]}'
    ),
    ("coinv", "A1", "sum(natural(2),sym(2,natural(2)))"): (
        '{"dim":2,"rep_indices":[1,4],"rep_weights":["(-1)","(-2)"]}'
    ),
    ("hwv", "A3", "natural(4)"): '{"(1,0,0)":[["1","0","0","0"]]}',
    ("coinv", "A3", "natural(4)"): '{"dim":1,"rep_indices":[3],"rep_weights":["(0,0,-1)"]}',
    ("hwv", "A3", "ext(2,natural(4))"): '{"(0,1,0)":[["1","0","0","0","0","0"]]}',
    ("coinv", "A3", "ext(2,natural(4))"): '{"dim":1,"rep_indices":[5],"rep_weights":["(0,-1,0)"]}',
    ("hwv", "A3", "ext(3,natural(4))"): '{"(0,0,1)":[["1","0","0","0"]]}',
    ("coinv", "A3", "ext(3,natural(4))"): '{"dim":1,"rep_indices":[3],"rep_weights":["(-1,0,0)"]}',
    ("hwv", "A3", "dual(ext(2,natural(4)))"): '{"(0,1,0)":[["0","0","0","0","0","1"]]}',
    ("coinv", "A3", "dual(ext(2,natural(4)))"): (
        '{"dim":1,"rep_indices":[0],"rep_weights":["(0,-1,0)"]}'
    ),
    ("hwv", *FLAG[:2]): (
        '{"(0,0,1)":[["0","0","0","0","0","0","0","0","0","0","1","0","0","0"]],"(0,1,'
        '0)":[["0","0","0","0","1","0","0","0","0","0","0","0","0","0"]],"(1,0,0)":[["1","0",'
        '"0","0","0","0","0","0","0","0","0","0","0","0"]]}'
    ),
    ("coinv", *FLAG[:2]): (
        '{"dim":3,"rep_indices":[3,9,13],"rep_weights":["(0,0,-1)","(0,-1,0)","(-1,0,0)"]}'
    ),
    ("hwv", "A3", "sym(2,ext(2,natural(4)))"): (
        '{"(0,0,0)":[["0","0","0","0","0","1","0","0","0","-1","0","0","1","0","0","0","0",'
        '"0","0","0","0"]],"(0,2,0)":[["1","0","0","0","0","0","0","0","0","0","0","0","0",'
        '"0","0","0","0","0","0","0","0"]]}'
    ),
    ("coinv", "A3", "sym(2,ext(2,natural(4)))"): (
        '{"dim":2,"rep_indices":[12,20],"rep_weights":["(0,0,0)","(0,-2,0)"]}'
    ),
    ("hwv", "A3", "ext(2,sym(2,natural(4)))"): (
        '{"(2,1,0)":[["1","0","0","0","0","0","0","0","0","0","0","0","0","0","0","0","0",'
        '"0","0","0","0","0","0","0","0","0","0","0","0","0","0","0","0","0","0","0","0","0",'
        '"0","0","0","0","0","0","0"]]}'
    ),
    ("coinv", "A3", "ext(2,sym(2,natural(4)))"): (
        '{"dim":1,"rep_indices":[44],"rep_weights":["(0,-1,-2)"]}'
    ),
    ("orbit-tangent", *FLAG): (
        '{"basis":[["1","0","0","0","0","0","0","0","0","0","0","0","0","0"],'
        '["0","1","0","0","0","0","0","0","0","0","0","0","0","0"],'
        '["0","0","1","0","0","0","0","-1","0","0","0","0","0","0"],'
        '["0","0","0","1","0","0","0","0","-1","0","0","0","0","1"],'
        '["0","0","0","0","1","0","0","0","0","0","0","0","0","0"],'
        '["0","0","0","0","0","1","0","0","0","0","0","0","0","0"],'
        '["0","0","0","0","0","0","1","0","0","0","0","0","-1","0"],'
        '["0","0","0","0","0","0","0","0","0","0","1","0","0","0"],'
        '["0","0","0","0","0","0","0","0","0","0","0","1","0","0"]],"dim":9}'
    ),
    ("stabilizer", *FLAG): (
        '{"basis":[["1","0","0","0","0","0","0","0","0","0","0","0","0","0","0"],'
        '["0","1","0","0","0","0","0","0","0","0","0","0","0","0","0"],'
        '["0","0","1","0","0","0","0","0","0","0","0","0","0","0","0"],'
        '["0","0","0","1","0","0","0","0","0","0","0","0","0","0","0"],'
        '["0","0","0","0","1","0","0","0","0","0","0","0","0","0","0"],'
        '["0","0","0","0","0","1","0","0","0","0","0","0","0","0","0"]],"dim":6,'
        '"labels":["e[1,2]","e[1,3]","e[1,4]","e[2,3]","e[2,4]","e[3,4]","f[1,2]","f[1,3]",'
        '"f[1,4]","f[2,3]","f[2,4]","f[3,4]","h[1]","h[2]","h[3]"]}'
    ),
}


@pytest.mark.parametrize("argv", list(MODULE_PAYLOADS), ids=" ".join)
def test_module_stdout_is_pinned(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    provenance = json.dumps(
        {"bounds": {"cap": 2000}, "command": "horomod " + " ".join(argv), "version": __version__},
        separators=(",", ":"),
    )
    payload = MODULE_PAYLOADS[argv]
    assert out == f'{{"payload":{payload},"provenance":{provenance},"status":"ok"}}\n'


def nested_dual(depth):
    return "dual(" * depth + "natural(2)" + ")" * depth


@pytest.mark.parametrize(
    "argv,code",
    [
        (("hwv", "A1", "sym(x,natural(2))"), 3),
        (("hwv", "A1", "natural()"), 3),
        (("hwv", "A1", "ext(,natural(2))"), 3),
        (("coinv", "A1", nested_dual(1200)), 4),
    ],
)
def test_malformed_module_expression_ends_in_an_envelope(capsys, argv, code):
    got, blob = run_json(capsys, *argv)
    assert got == code
    assert blob["error"]["type"] == ("validation" if code == 3 else "resource")


@pytest.mark.parametrize("name,terms", [("sum", 40), ("tensor", 20)])
def test_module_cap_is_checked_as_each_term_is_folded(capsys, monkeypatch, name, terms):
    def unbuilt(*args):
        raise AssertionError("a power was built before the cap check")

    # Each term has dimension 1140; the first two already pass the cap,
    # which is refused before any term is built.
    monkeypatch.setattr(liealg, "power", unbuilt)
    expr = name + "(" + ",".join(["ext(3,natural(20))"] * terms) + ")"
    start = time.perf_counter()
    code, blob = run_json(capsys, "coinv", "A19", expr)
    assert time.perf_counter() - start < 2
    assert code == 4
    assert blob["error"]["type"] == "resource"
    size = 1140 * 2 if name == "sum" else 1140 * 1140
    assert blob["error"]["message"] == f"module dimension {size} exceeds cap 2000"


@pytest.mark.parametrize(
    "argv,size,cap",
    [
        (("hwv", "A19", "natural(20)", "--cap", "10"), 20, 10),
        (("coinv", "A3", "dual(natural(4))", "--cap", "2"), 4, 2),
        (("hwv", "A3", "sum(natural(4))", "--cap", "3"), 4, 3),
        (("hwv", "A3", "tensor(natural(4))", "--cap", "3"), 4, 3),
        (("hwv", "A1", "natural(2)", "--cap", "-1"), 2, -1),
    ],
)
def test_module_cap_is_checked_on_a_term_never_folded(capsys, argv, size, cap):
    code, blob = run_json(capsys, *argv)
    assert code == 4
    assert blob["error"]["message"] == f"module dimension {size} exceeds cap {cap}"


def test_module_at_the_cap_is_built(capsys):
    code, blob = run_json(capsys, "hwv", "A3", "natural(4)", "--cap", "4")
    assert code == 0
    assert blob["payload"] == {"(1,0,0)": [["1", "0", "0", "0"]]}


def test_a_number_past_the_int_digit_limit_is_too_long(capsys):
    nines = "9" * 4300
    code, blob = run_json(capsys, "hwv", "A1", f"natural({nines}{'9' * 700})")
    assert code == 3
    message = blob["error"]["message"]
    assert "too long" in message and "5000 digits" in message
    assert len(message) < 100
    # At the limit the number is read, and a dimension past it is not
    # printed, nor multiplied out.
    code, blob = run_json(capsys, "hwv", "A1", f"natural({nines})")
    assert code == 3
    assert blob["error"]["message"] == f"natural({nines}) does not match rank 1 datum"
    for group, expr in (("A2", f"sym({nines},natural(3))"), ("A1", f"sym({nines},sym(1000,natural(2)))")):
        start = time.perf_counter()
        code, blob = run_json(capsys, "coinv", group, expr)
        assert time.perf_counter() - start < 2
        assert code == 4
        assert blob["error"]["message"] == "module dimension of more than 4300 digits exceeds cap 2000"


@pytest.mark.parametrize(
    "template, message",
    [
        ("{}(2)", "unknown construction {!r}"),
        ("sym({},natural(2))", "expected a number, got {!r}"),
        ("natural(2{})", "expected ')', got {!r}"),
    ],
)
def test_a_long_token_is_echoed_clipped(capsys, template, message):
    code, blob = run_json(capsys, "hwv", "A1", template.format("a" * 5000))
    assert code == 3
    assert blob["error"]["message"] == message.format("a" * 20 + "...")
    assert len(blob["error"]["message"]) < 100
    # Up to 20 characters, a token is echoed whole.
    for token, shown in (("x", "x"), ("b" * 20, "b" * 20), ("b" * 21, "b" * 20 + "...")):
        code, blob = run_json(capsys, "hwv", "A1", template.format(token))
        assert code == 3
        assert blob["error"]["message"] == message.format(shown)


LONG_ROW = ",".join([NINES] * 140)


@pytest.mark.parametrize(
    "argv, shown",
    [
        (["root-datum", "x" * 20000], "unknown root datum label 'xxxxxxxxxxxxxxxxxxx..."),
        (["dim", "A1", ",".join(["1"] * 10000)], "weight (1, 1, 1, 1, 1, 1, 1... has wrong length"),
        (["presentation", "--bound", "3", "--", "A1", ",".join(["1"] * 10000)], "generator (1, 1, 1, 1, 1, 1, 1..."),
        (["presentation", "--bound", "3", "--", "A140", f"{LONG_ROW};{LONG_ROW}"], "duplicate generator (9999"),
        (["saturate", "--root", "--", "A140", ",".join(["-" + NINES] * 140)], "root monoid generator (-999"),
        (["t1", "A1", "natural(2)", "1,0", "--diag", "1:" + "x" * 20000], "malformed congruence '1:xxxxxxxxxxxxxxxxxx...'"),
        (["dim", "--", "A140", ",".join(["-" + NINES] * 140)], "(-999999999999999999... is not dominant"),
        (["tensor", "--", "A140", ",".join(["0"] * 140), ",".join(["-" + NINES] * 140)], "(-999999999999999999... is not dominant"),
        (["t1", "A1", "natural(2)", "1,0", "--diag", ",".join(["1"] * 20000) + ":4"],
         "congruence 1,1,1,1,1,1,1,1,1,1,... has 20000 coefficients"),
        (["t1", "A1", "natural(2)", "1,0", "--diag", NINES + ":2"],
         "the point has weight (1,), which fails the congruence 99999999999999999999..."),
        (["tangent-weight", "A1", NINES, "0"], "weight (0,) is not below (" + "9" * 19 + "..."),
        (["tangent-weight", "A1", "0", NINES], "weight (" + "9" * 19 + "... is not below (0,)"),
    ],
    ids=["label", "weight", "generator", "duplicate", "negative", "congruence",
         "dim-not-dominant", "tensor-not-dominant", "congruence-length", "congruence-fails",
         "tangent-weight-lam", "tangent-weight-mu"],
)
def test_a_long_input_is_echoed_clipped(capsys, argv, shown):
    code, blob = run_json(capsys, *argv)
    assert code == 3
    assert blob["error"]["message"].startswith(shown)
    assert len(blob["error"]["message"]) < 100


@st.composite
def _module_argv(draw):
    rank = draw(st.integers(1, 3))

    def expr(depth):
        kind = draw(st.sampled_from(
            ["natural", "dual", "sym", "ext", "sum", "tensor"] if depth < 3 else ["natural"]
        ))
        if kind == "natural":
            return f"natural({draw(st.sampled_from([rank + 1] * 4 + [rank + 2]))})"
        if kind == "dual":
            return f"dual({expr(depth + 1)})"
        if kind in ("sym", "ext"):
            return f"{kind}({draw(st.integers(0, 4))},{expr(depth + 1)})"
        terms = [expr(depth + 1) for _ in range(draw(st.integers(1, 3)))]
        return f"{kind}({','.join(terms)})"

    text = expr(0)
    if draw(st.integers(0, 2)) == 0:
        # Malformed: one character dropped, inserted or replaced.
        pos = draw(st.integers(0, len(text) - 1))
        ch = draw(st.sampled_from(list("(),0123x -")))
        edit = draw(st.sampled_from(["drop", "insert", "replace"]))
        tail = text[pos + 1:] if edit != "insert" else text[pos:]
        text = text[:pos] + ("" if edit == "drop" else ch) + tail
    command = draw(st.sampled_from(["hwv", "coinv"]))
    cap = draw(st.sampled_from(["10", "40", "200"]))
    return [command, "--cap", cap, "--", f"A{rank}", text]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_module_argv())
@example(["hwv", "A1", "sym(x,natural(2))"])
@example(["hwv", "A1", "natural()"])
@example(["hwv", "A1", "ext(,natural(2))"])
@example(["coinv", "A1", nested_dual(1200)])
@example(["coinv", "A19", "sum(" + ",".join(["ext(3,natural(20))"] * 40) + ")"])
def test_module_expressions_always_end_in_an_envelope(argv):
    assert_one_envelope(argv)


def test_tangent_weight_negative_entries(capsys):
    code, blob = run_json(
        capsys, "tangent-weight", "A3", "--", "0,1,0", "-1,0,1"
    )
    assert code == 0
    assert blob["payload"]["weight_root_coords"] == [1, 1, 0]


def test_tangent_weight_names_a_weight_of_the_wrong_length(capsys):
    code, blob = run_json(capsys, "tangent-weight", "A2", "1", "0,0")
    assert code == 3
    assert blob["error"] == {"type": "validation", "message": "weight (1,) has wrong length for rank 2"}


def test_pretty_is_indented(capsys):
    code, out = run(capsys, "dim", "A1", "4", "--pretty")
    assert code == 0
    assert out.startswith("{\n")
    assert json.loads(out)["payload"] == {"dim": 5}


def test_json_flag_is_gone(capsys):
    assert main(["dim", "A1", "4", "--json"]) == 2
    capsys.readouterr()


def test_law_file_without_rd_is_validation_error(tmp_path, capsys):
    law_file = tmp_path / "no_rd.json"
    law_file.write_text(
        json.dumps({"monoid": {"generators": [[2]]}, "truncation": 4, "coeffs": []})
    )
    code, blob = run_json(capsys, "root-monoid", str(law_file))
    assert code == 3
    assert blob["error"]["type"] == "validation"


def test_law_file_numbers_must_be_exact(tmp_path, capsys):
    law_file = str(tmp_path / "law.json")
    code, blob = run_json(
        capsys,
        "orbit-law", "A1", "2",
        "--form", "1,0,1",
        "--truncation", "4",
        "--output", law_file,
    )
    assert code == 0
    law = blob["payload"]

    def channel_two(d):
        return next(e for e in d["coeffs"] if e["channel"] == 2)

    # A float is no exact value: 0.1 would be read as its binary double,
    # 4.9 as 4, and [0.0] would be echoed back by contract.
    edits = {
        "value": lambda d: channel_two(d).update(value=0.1),
        "truncation": lambda d: d.update(truncation=4.9),
        "lam": lambda d: d["coeffs"][0].update(lam=[0.0]),
    }
    for field, edit in edits.items():
        edited = json.loads(json.dumps(law))
        edit(edited)
        path = tmp_path / f"{field}.json"
        path.write_text(json.dumps(edited))
        code, blob = run_json(capsys, "contract", str(path), "2")
        assert code == 3, field
        assert blob["error"]["type"] == "validation"
        assert field in blob["error"]["message"]


def test_duplicate_law_entry_is_validation_error(tmp_path, capsys):
    law_file = str(tmp_path / "law.json")
    code, blob = run_json(
        capsys,
        "orbit-law", "A1", "2",
        "--form", "1,0,1",
        "--truncation", "4",
        "--output", law_file,
    )
    assert code == 0
    law = blob["payload"]
    entry = next(e for e in law["coeffs"] if e["channel"] == 2)
    assert entry["value"] == "1/6"
    # A second entry for the same (lam, mu, nu, channel) must not
    # silently replace the first.
    law["coeffs"].append(dict(entry, value="5"))
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(law))
    code, blob = run_json(capsys, "contract", str(path), "1")
    assert code == 3
    assert blob["error"]["type"] == "validation"
    assert "duplicate coefficient" in blob["error"]["message"]


def _edited(law, where):
    law = json.loads(json.dumps(law))
    if where == "top":
        law["bogus"] = 1
    elif where == "coefficient":
        law["coeffs"][0]["extra"] = 5
    else:
        law[where]["extra"] = 5
    return law


@pytest.mark.parametrize("where", ["top", "rd", "monoid", "coefficient"])
def test_unknown_law_key_is_validation_error(tmp_path, capsys, where):
    law_file = str(tmp_path / "law.json")
    code, blob = run_json(
        capsys, "orbit-law", "A1", "2", "--form", "1,0,1", "--truncation", "4", "--output", law_file
    )
    assert code == 0
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(_edited(blob["payload"], where)))
    code, blob = run_json(capsys, "root-monoid", str(path))
    assert code == 3
    assert blob["error"]["type"] == "validation"
    assert ("'bogus'" if where == "top" else "'extra'") in blob["error"]["message"]


def test_output_into_missing_directory_is_validation_error(tmp_path, capsys):
    code, blob = run_json(
        capsys,
        "orbit-law", "A1", "2",
        "--form", "1,0,1",
        "--truncation", "4",
        "--output", str(tmp_path / "missing" / "law.json"),
    )
    assert code == 3
    assert blob["error"]["type"] == "validation"


def _law_with(field, value):
    """A well-formed law JSON with one field replaced by value."""
    law = {
        "rd": {"label": "A1", "cartan": [[2]]},
        "monoid": {"generators": [[2]]},
        "truncation": 4,
        "coeffs": [{"lam": [2], "mu": [2], "nu": [4], "channel": 0, "value": "1"}],
    }
    if field == "top level":
        return value
    if field in ("rd", "monoid", "truncation", "coeffs"):
        law[field] = value
    elif field == "cartan":
        law["rd"]["cartan"] = value
    elif field == "generators":
        law["monoid"]["generators"] = value
    elif field == "coefficient":
        law["coeffs"][0] = value
    else:
        law["coeffs"][0][field] = value
    return law


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("top level", [1], "top level must be an object, got list"),
        ("rd", ["A1"], "rd must be an object, got list"),
        ("monoid", [[2]], "monoid must be an object, got list"),
        ("coefficient", [[2], [2], [4], 0, "1"], "coefficient must be an object, got list"),
        ("coeffs", 3, "coeffs must be a list, got int"),
        ("coeffs", {"lam": [2]}, "coeffs must be a list, got dict"),
        ("generators", 2, "generators must be a list, got int"),
        ("generators", [2], "generator must be a list, got int"),
        ("cartan", 2, "cartan must be a list, got int"),
        ("cartan", [2], "cartan must be a list, got int"),
        ("lam", 2, "lam must be a list, got int"),
        ("mu", "2", "mu must be a list, got str"),
        ("nu", {"0": 4}, "nu must be a list, got dict"),
        ("cartan", [[1]], "cartan is not the Cartan matrix of A1"),
    ],
)
def test_law_json_of_the_wrong_shape_names_the_field(tmp_path, capsys, field, value, message):
    path = tmp_path / "law.json"
    path.write_text(json.dumps(_law_with(field, value)))
    for argv in (["root-monoid", str(path)], ["contract", str(path), "2"]):
        code, blob = run_json(capsys, *argv)
        assert code == 3, argv
        assert blob["error"] == {"type": "validation", "message": "law JSON " + message}


@pytest.mark.parametrize(
    "where, key",
    [
        ("top level", "rd"),
        ("top level", "monoid"),
        ("top level", "truncation"),
        ("top level", "coeffs"),
        ("rd", "label"),
        ("monoid", "generators"),
        ("coefficient", "lam"),
        ("coefficient", "value"),
    ],
)
def test_law_json_missing_a_key_names_it(tmp_path, capsys, where, key):
    law = _law_with("truncation", 4)
    obj = {"top level": law, "coefficient": law["coeffs"][0]}.get(where) or law[where]
    del obj[key]
    path = tmp_path / "law.json"
    path.write_text(json.dumps(law))
    code, blob = run_json(capsys, "root-monoid", str(path))
    assert code == 3
    assert blob["error"] == {"type": "validation", "message": f"law JSON {where} is missing {key!r}"}


@pytest.mark.parametrize("label", ["custom", 1, None])
def test_law_json_root_datum_is_a_type_a_label(tmp_path, capsys, label):
    path = tmp_path / "law.json"
    path.write_text(json.dumps(_law_with("rd", {"label": label, "cartan": [[2]]})))
    code, blob = run_json(capsys, "root-monoid", str(path))
    assert code == 3
    assert blob["error"] == {"type": "validation", "message": f"unknown root datum label {label!r}"}


@pytest.mark.parametrize(
    "field, value",
    [
        ("value", [7] * 20000),
        ("truncation", "7" * 20000),
        ("rd", {"label": "A1", "x" * 20000: 1}),
        ("rd", {"label": "x" * 20000}),
        ("generators", [[2] * 20000]),
        ("coeffs", [{"lam": [2] * 20000, "mu": [2], "nu": [4], "channel": 0, "value": "1"}] * 2),
        ("coeffs", [{"lam": [2] * 2000, "mu": [2], "nu": [4], "channel": 0, "value": "1"}]),
        ("coeffs", [{"lam": [2], "mu": [2], "nu": [0], "channel": int("9" * 4000), "value": "1"}]),
    ],
    ids=["value", "integer", "key", "label", "generator", "duplicate", "window-weight", "channel"],
)
def test_law_json_values_are_echoed_clipped(tmp_path, capsys, field, value):
    """The last two are read, then refused by the law checks."""
    path = tmp_path / "law.json"
    path.write_text(json.dumps(_law_with(field, value)))
    code, out = run(capsys, "root-monoid", str(path))
    blob = json.loads(out)
    assert code == 3
    assert blob["error"]["type"] == "validation"
    assert len(blob["error"]["message"]) < 100
    assert len(out.encode()) < 1000


def test_law_json_without_cartan_reads_the_label(tmp_path, capsys):
    outputs = []
    for rd in ({"label": "A1"}, {"label": "A1", "cartan": [[2]]}):
        path = tmp_path / "law.json"
        path.write_text(json.dumps(_law_with("rd", rd)))
        outputs.append(run(capsys, "contract", str(path), "2"))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0


# A law JSON field takes one of these in the fuzz below.
JSON_VALUES = [
    0, 1, -1, 2, 4, 8, 40, int("7" * 4300), 1.5, True, None, "1", "-3/4", "0.5", "x", "1e3", "7" * 4301,
    "A1", "A2", "B2", [], [2], [4], [0], [-2], [[2]], [[2], [3]], [[0]], [[2]] * 3, {}, {"lam": [2]},
]


@st.composite
def _law_file_bytes(draw):
    """A law file: a law of two coefficients with up to three fields set
    to a value above, deleted or added, or bytes that hold no law."""
    if draw(st.integers(0, 7)) == 7:
        return draw(st.sampled_from(
            [b"", b"{", b"[]", b"null", b"\xff\xfe{}", b"[" * 5000 + b"]" * 5000, b'{"rd": ' * 3000]
        ))
    law = {
        "rd": {"label": "A1", "cartan": [[2]]},
        "monoid": {"generators": [[2]]},
        "truncation": 8,
        "coeffs": [
            {"lam": [2], "mu": [2], "nu": [4], "channel": 0, "value": "1"},
            {"lam": [2], "mu": [2], "nu": [0], "channel": 2, "value": "-3/4"},
        ],
    }
    for _ in range(draw(st.integers(0, 3))):
        coeffs = law.get("coeffs") if isinstance(law.get("coeffs"), list) else []
        objects = [law] + [o for o in [law.get("rd"), law.get("monoid"), *coeffs] if isinstance(o, dict)]
        obj = draw(st.sampled_from(objects))
        key = draw(st.sampled_from(sorted(obj) + ["extra"]))
        if draw(st.integers(0, 3)) == 0:
            obj.pop(key, None)
        else:
            obj[key] = draw(st.sampled_from(JSON_VALUES))
    return json.dumps(law).encode()


@st.composite
def _law_argv(draw):
    """A law-equations, law-tangent, contract or root-monoid request, in
    the shape the parser gets it or with a flag it does not know, with
    --truncation left out, or with "--" in front.  DIR stands for the
    directory of the law file and of the files the request writes."""
    command = draw(st.sampled_from(["law-equations", "law-tangent", "contract", "root-monoid"]))
    options = []
    if command.startswith("law-"):
        group = draw(st.sampled_from(["A1"] * 6 + ["A2", "A0"]))
        monoid = draw(st.sampled_from(["2", "1", "2;3", "3;4", "1;2", "2;2", "0", "-2", "", ";", "x", "1,1", NINES]))
        truncations = [8, 12, 6, 10, 4, 14, 15, 2, 0, -1, 40]
        truncation = draw(st.sampled_from([str(t) for t in truncations] + [NINES, NINES + "9", "x"]))
        options.append(f"--truncation={truncation}")
        if command == "law-equations" and draw(st.booleans()):
            options.append("--export-system=DIR/system.txt")
        args = [group, monoid]
    else:
        args = ["DIR/law.json"]
        if command == "contract":
            entries = ["2", "1/2", "-1", "0", "1", "-3/4", "x", "1e3", "1/0", "7" * 4301, "1" + "0" * 40]
            args.append(",".join(draw(st.sampled_from(entries)) for _ in range(draw(st.integers(1, 2)))))
            if draw(st.booleans()):
                options.append("--output=DIR/out.json")
    argv = [command, *options, "--", *args]
    shape = draw(st.sampled_from(["as parsed"] * 7 + ["unknown flag", "no truncation", "leading --"]))
    if shape == "unknown flag":
        argv.insert(1, draw(st.sampled_from(["--frob", "--truncation", "--cap=3", "-x"])))
    elif shape == "no truncation":
        argv = [a for a in argv if not a.startswith("--truncation")]
    elif shape == "leading --":
        argv.insert(0, "--")
    return argv, draw(_law_file_bytes())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_law_argv())
@example((["root-monoid", "DIR/law.json"], b'{"rd": ' * 3000))
@example((["law-tangent", "--truncation=4", "--frob", "A1", "2"], b""))
@example((["--", "law-tangent", "--truncation=4", "A1", "2"], b""))
def test_law_requests_always_end_in_one_envelope_or_a_usage_error(request):
    argv, law = request
    with tempfile.TemporaryDirectory() as wd:
        Path(wd, "law.json").write_bytes(law)
        start = time.perf_counter()
        assert_one_envelope_or_a_usage_error([a.replace("DIR", wd) for a in argv])
        assert time.perf_counter() - start < 2


# Any JSON value: what json.dumps writes, NaN and Infinity included.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=12,
)
LAW_FIELDS = [
    "top level", "rd", "monoid", "truncation", "coeffs", "cartan", "generators",
    "coefficient", "lam", "mu", "nu", "channel", "value",
]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(JSON, st.builds(_law_with, st.sampled_from(LAW_FIELDS), JSON)))
def test_any_json_as_a_law_file_ends_in_an_envelope(blob):
    """An arbitrary JSON document, or a valid law with one field replaced
    by an arbitrary value: root-monoid and contract at 2 each end in one
    envelope, with exit 0, 3 or 4."""
    with tempfile.TemporaryDirectory() as wd:
        path = str(Path(wd, "law.json"))
        Path(path).write_text(json.dumps(blob))
        assert_one_envelope(["root-monoid", path])
        assert_one_envelope(["contract", path, "2"])


@pytest.mark.parametrize(
    "expr, message",
    [
        ("sym(\u00b2,natural(2))", "expected a number, got '\u00b2'"),
        ("sym(1\u00b2,natural(2))", "expected a number, got '1\u00b2'"),
        ("natural(\u0663)", "natural(3) does not match rank 1 datum"),
    ],
)
def test_module_numbers_in_non_ascii_digits(capsys, expr, message):
    """A superscript digit is no number; an Arabic-Indic three is 3."""
    code, blob = run_json(capsys, "hwv", "A1", expr)
    assert code == 3
    assert blob["error"] == {"type": "validation", "message": message}


@pytest.mark.parametrize(
    "label", ["A141", "A100000", pytest.param("A" + "1" * 5000, id="A-5000-digits")]
)
def test_root_datum_rank_is_capped_from_the_label(capsys, label):
    start = time.perf_counter()
    code, blob = run_json(capsys, "root-datum", label)
    assert time.perf_counter() - start < 2
    assert code == 4
    assert blob["error"] == {"type": "resource", "message": "root datum rank exceeds the cap 140"}


@pytest.mark.parametrize("module, point", [("sym(2,natural(2))", "1,0,0"), ("sym(4,natural(2))", "1,0,0,0,0")])
def test_t1_refuses_a_point_the_diagonal_part_moves(capsys, module, point):
    code, blob = run_json(capsys, "t1", "A1", module, point, "--lie-u", "--diag", "1:3")
    assert code == 3
    weight = module[4]
    assert blob["error"] == {
        "type": "validation",
        "message": f"the point has weight ({weight},), which fails the congruence 1:3",
    }


def test_stabilizer_labels(capsys):
    code, blob = run_json(
        capsys, "stabilizer", "A1", "sym(2,natural(2))", "0,1,0"
    )
    assert code == 0
    assert blob["payload"]["labels"] == ["e[1,2]", "f[1,2]", "h[1]"]
    assert blob["payload"]["dim"] == 1


def test_t1_refuses_a_modulus_that_is_not_an_integer(capsys):
    code, blob = run_json(capsys, "t1", "A1", "sym(2,natural(2))", "1,0,0", "--lie-u", "--diag", "1:x")
    assert code == 3
    assert blob["error"] == {
        "type": "validation",
        "message": "malformed congruence '1:x': expected coeffs:modulus",
    }


def test_t1_refuses_a_negative_modulus(capsys):
    code, blob = run_json(capsys, "t1", "A1", "natural(2)", "1,0", "--diag=1:-1")
    assert code == 3
    assert blob["error"] == {
        "type": "validation",
        "message": "malformed congruence '1:-1': the modulus must be 0 or positive",
    }


@pytest.mark.parametrize(
    "argv,message",
    [
        (["dim", "A1", "1_0"], "malformed weight '1_0': expected comma-separated integers"),
        (["tensor", "A1", "1_0", "1"], "malformed weight '1_0': expected comma-separated integers"),
        (["saturate", "A1", "1_0;3"], "malformed weight '1_0': expected comma-separated integers"),
        (
            ["law-tangent", "A1", "1_0", "--truncation", "40"],
            "malformed weight '1_0': expected comma-separated integers",
        ),
        (
            ["t1", "A1", "sym(2,natural(2))", "1,0,0", "--lie-u", "--diag", "1_0:2"],
            "malformed congruence '1_0:2': expected coeffs:modulus",
        ),
        (
            ["t1", "A1", "sym(2,natural(2))", "0,1,0", "--diag", "1:1_0"],
            "malformed congruence '1:1_0': expected coeffs:modulus",
        ),
    ],
)
def test_an_integer_is_a_sign_and_decimal_digits_only(capsys, argv, message):
    """A weight entry and a congruence are read as a point entry is, so
    an underscore that int() would skip is refused."""
    code, blob = run_json(capsys, *argv)
    assert code == 3
    assert blob["error"] == {"type": "validation", "message": message}


@pytest.mark.parametrize(
    "argv",
    [
        ["weights", "A2", "1,1", "--cap", "1_0"],
        ["law-tangent", "A1", "2", "--truncation", "1_6"],
        ["presentation", "A1", "1;2", "--bound", "1_0"],
    ],
)
def test_an_integer_flag_is_read_as_a_weight_entry_is(argv):
    """--cap, --truncation and --bound take the reader of weight entries,
    so 1_0 there is a usage error that names the reader."""
    code, out, err = outcome(argv)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].endswith(f": invalid integer value: '{argv[-1]}'")


def test_presentation_at_bound_zero_takes_a_thousand_generators(capsys):
    gens = ";".join(str(k) for k in range(1, 1001))
    code, blob = run_json(capsys, "presentation", "A1", gens, "--bound", "0")
    assert code == 0
    assert blob["payload"] == {"relations": [], "bound_limited": True}


def test_presentation_of_one_generator_at_a_high_bound(capsys):
    """One generator and bound 100 000: each exponent vector is one pair,
    not a tuple as long as the bound."""
    code, blob = run_json(capsys, "presentation", "A1", "1", "--bound", "100000")
    assert code == 0
    assert blob["payload"] == {"relations": [], "bound_limited": True}


def _entry_env():
    """os.environ with this checkout's src on the path, 80 columns, and
    no PYTHONUNBUFFERED: a child's stdout is block-buffered into its
    pipe, so a missing flush shows."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1]), "COLUMNS": "80"}


def _python(*args, cwd=None, timeout=30):
    """The interpreter run on args as its own process, in _entry_env();
    its text output."""
    return subprocess.run(
        [sys.executable, *args], env=_entry_env(), cwd=cwd, capture_output=True, text=True, timeout=timeout
    )


# A request ending in each exit code, one writing each kind of file, and
# one whose stdout (52 037 bytes) is larger than the stdout buffer.
ENTRY_ARGV = [
    ["dim", "A2", "1,1"],
    ["tensor", "A1", "1"],
    ["dim", "A1", "1,2"],
    ["tensor", "A2", "9,9", "9,9", "--cap", "10"],
    ["orbit-law", "A1", "2", "--form", "1,0,1", "--truncation", "8", "--output", "law.json"],
    ["law-equations", "A1", "2", "--truncation", "8", "--export-system", "system.txt"],
    ["law-equations", "A1", "1", "--truncation", "12"],
]
ENTRY_IDS = ["exit-0", "exit-2", "exit-3", "exit-4", "output", "export-system", "large-stdout"]
EXIT_CODES = [0, 2, 3, 4]


class Exited(Exception):
    """Raised by the os._exit spy in place of ending the test process."""


@pytest.mark.parametrize("argv,code", zip(ENTRY_ARGV, EXIT_CODES), ids=ENTRY_IDS[:4])
def test_only_the_process_entry_ends_with_os_exit(capfd, monkeypatch, argv, code):
    """main(argv) returns its code and calls no os._exit; main() runs
    the atexit hooks, then calls os._exit once with the code, when
    stdout already holds the envelope.  capfd, not capsys: main() writes
    to the file descriptor of sys.stdout."""
    expected = outcome(argv)
    assert expected[0] == code
    calls = []

    def exit_(status):
        calls.append((status, capfd.readouterr().out))
        raise Exited

    monkeypatch.setattr(cli.os, "_exit", exit_)
    monkeypatch.setattr(cli.atexit, "_run_exitfuncs", lambda: calls.append("hooks"))
    assert run(capfd, "dim", "A2", "1,1")[0] == 0
    assert calls == []
    monkeypatch.setattr(sys, "argv", ["horomod", *argv])
    with pytest.raises(Exited):
        main()
    assert calls == ["hooks", (code, expected[1])]


@pytest.mark.parametrize("argv,code", zip(ENTRY_ARGV, EXIT_CODES), ids=ENTRY_IDS[:4])
def test_python_m_horomod_runs_an_earlier_atexit_hook(tmp_path, argv, code):
    """An atexit hook registered before horomod runs as __main__ still
    runs, after the envelope, whichever exit code the request ends in."""
    probe = (
        "import atexit, runpy\n"
        "atexit.register(lambda: print('hook ran'))\n"
        "runpy.run_module('horomod', run_name='__main__')\n"
    )
    proc = _python("-c", probe, *argv, cwd=tmp_path)
    assert proc.returncode == code
    assert proc.stdout.splitlines()[-1] == "hook ran"


def _close_the_pipe_early(env):
    """law-equations A1 1 --truncation 15 prints 202 756 bytes, more than
    a pipe holds; the reader takes 20 of them and closes the pipe.  The
    process exits 1 with nothing on stderr."""
    argv = ["law-equations", "A1", "1", "--truncation", "15"]
    with subprocess.Popen(
        [sys.executable, "-m", "horomod", *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.read(20) == b'{"payload":{"equatio'
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=30) == 1
    assert err == b""


def test_a_reader_that_closes_the_pipe_early_gets_exit_1_and_no_traceback():
    _close_the_pipe_early(_entry_env())


def test_a_closed_pipe_gets_exit_1_under_pythonunbuffered_too():
    """With PYTHONUNBUFFERED=1 the interpreter's stdout drops a short
    write; the process entry writes through a buffer that raises."""
    _close_the_pipe_early({**_entry_env(), "PYTHONUNBUFFERED": "1"})


@pytest.mark.parametrize("argv", ENTRY_ARGV, ids=ENTRY_IDS)
def test_python_m_horomod_answers_as_main_in_process(tmp_path, monkeypatch, argv):
    """python -m horomod gives main(argv)'s exit code, stdout and stderr,
    and writes the same files."""
    monkeypatch.setenv("COLUMNS", "80")
    process, in_process = tmp_path / "process", tmp_path / "in-process"
    process.mkdir()
    in_process.mkdir()
    proc = _python("-m", "horomod", *argv, cwd=process)
    monkeypatch.chdir(in_process)
    assert (proc.returncode, proc.stdout, proc.stderr) == outcome(argv)
    files = [{path.name: path.read_text() for path in d.iterdir()} for d in (process, in_process)]
    assert files[0] == files[1]
    assert len(files[0]) == (argv[-2] in ("--output", "--export-system"))


def _seeded_presentation(count, top, timeout):
    """Exit code and message of presentation A2 at bound 2 on count
    distinct nonzero generators of entries 0..top drawn by
    random.Random(1).  A subprocess, so a hang fails the test."""
    rng = random.Random(1)
    gens = []
    while len(gens) < count:
        g = (rng.randint(0, top), rng.randint(0, top))
        if any(g) and g not in gens:
            gens.append(g)
    argv = ["presentation", "A2", ";".join(f"{a},{b}" for a, b in gens), "--bound", "2"]
    proc = _python("-m", "horomod", *argv, timeout=timeout)
    return proc.returncode, json.loads(proc.stdout)["error"]["message"]


def test_presentation_thinning_of_many_generators_is_refused_within_seconds():
    """150 seeded A2 generators at bound 2: the thinning searches share
    one budget of move checks, so the request ends in exit 4 instead of
    running for minutes."""
    code, message = _seeded_presentation(150, 100, timeout=10)
    assert code == 4
    assert message.startswith("presentation thinning cap exceeded")


def test_presentation_pairs_of_many_generators_are_refused_within_seconds():
    """630 seeded A2 generators at bound 2 give 53 939 candidate pairs of
    630 entries each: the pair cap counts pairs times generators, so the
    request ends in exit 4 before any pair is formed."""
    assert _seeded_presentation(630, 400, timeout=5) == (4, "presentation candidate-pair cap exceeded")


@pytest.mark.parametrize("rank, code", [(43, 0), (44, 4)])
def test_stabilizer_refuses_a_basis_of_more_than_cap_squared_entries(capsys, monkeypatch, rank, code):
    """At e1 of natural(n) the stabilizer has n^2 - n - 1 vectors over
    n^2 - 1 labels: 3 659 085 entries for A43, 4 005 496 for A44, against
    the default cap's square, 4 000 000.  The refusal comes before any
    vector is printed."""
    fmt = cli._fmt_vec
    if code:
        def fmt(v, dim):
            raise AssertionError("a vector was printed")
    monkeypatch.setattr(cli, "_fmt_vec", fmt)
    n = rank + 1
    code_got, out = run(capsys, "stabilizer", f"A{rank}", f"natural({n})", ",".join(["1"] + ["0"] * rank))
    assert code_got == code
    blob = json.loads(out)
    if code:
        assert blob["error"]["message"] == "stabilizer basis entry count 4005496 exceeds cap 4000000"
    else:
        assert blob["payload"]["dim"] == n * n - n - 1


def test_tensor_refuses_the_first_factor_before_the_second(capsys):
    """weyl_dim is the one dominance rule and checks one factor whole,
    dominance and size, before the other: an unprintable first dimension
    is refused before a second factor that is not dominant."""
    code, blob = run_json(capsys, "tensor", "A1", "9" * 4300, "-1")
    assert code == 4
    assert blob["error"] == {
        "type": "resource",
        "message": "dimension of more than 4300 digits cannot be printed",
    }


def test_saturation_of_a_cone_that_is_not_pointed_meets_the_box_cap_first(capsys):
    code, blob = run_json(capsys, "saturate", "--", "A2", "1000,1000;-1000,-1000;1,0;0,1")
    assert code == 4
    assert blob["error"] == {"type": "resource", "message": "saturation enumeration cap exceeded"}


def test_saturation_refuses_a_large_box_before_the_facet_search(capsys, monkeypatch):
    def never(gens, basis):
        raise AssertionError("the facet search ran")

    monkeypatch.setattr(monoids, "_facet_normals", never)
    gens = list(itertools.product(range(-4, 5), repeat=3))[:600]
    code, blob = run_json(capsys, "saturate", "--", "A3", ";".join(",".join(map(str, g)) for g in gens))
    assert code == 4
    assert blob["error"] == {"type": "resource", "message": "saturation enumeration cap exceeded"}


def test_t1_refuses_a_congruence_of_the_wrong_length_first(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("the point was checked before the congruence")

    monkeypatch.setattr("horomod.tangent.orbit_tangent", no_work)
    code, blob = run_json(capsys, "t1", "A1", "sym(2,natural(2))", "1,0,0", "--lie-u", "--diag", "1,5:2")
    assert code == 3
    assert blob["error"] == {
        "type": "validation",
        "message": "congruence 1,5:2 has 2 coefficients, expected one per simple root (1)",
    }
