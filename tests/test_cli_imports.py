"""The CLI runs only the layers a subcommand calls, each in a fresh
interpreter.  A layer whose body has not run is still the lazy module
type; type() does not trigger the load."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import horomod
from horomod import examples
from horomod.cli import COMMANDS

SRC = str(Path(horomod.__file__).resolve().parent.parent)

PROBE = """
import contextlib, io, json, sys, types
{setup}
import horomod.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main({argv!r})
layers = {{
    name: type(mod) is types.ModuleType
    for name, mod in sys.modules.items()
    if name.startswith("horomod.")
}}
print(json.dumps({{"code": code, "layers": layers, "probe": {probe}}}))
"""


def probe(argv, setup="", expr="None"):
    """Exit code of cli.main(argv), which horomod modules ran their body,
    and the value of expr, from a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(setup=setup, argv=argv, probe=expr)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


LAYERS = {
    f"horomod.{name}"
    for name in ("channels", "examples", "liealg", "linalg", "monoids", "mulaw",
                 "polysys", "repcalc", "rootdata", "tangent")
}


def test_version_runs_no_layer():
    out = probe(["--version"])
    assert out["code"] == 0
    assert set(out["layers"]) == LAYERS | {"horomod.cli", "horomod.errors"}
    assert {name for name, ran in out["layers"].items() if ran} == {
        "horomod.cli", "horomod.errors",
    }


def test_version_imports_no_fractions():
    out = probe(["--version"], expr='"fractions" in sys.modules')
    assert out["code"] == 0
    assert out["probe"] is False


NUMERIC = 'sorted(m for m in ("fractions", "decimal", "numbers") if m in sys.modules)'


FLAG = examples.flag_multicone(3)


@pytest.mark.parametrize(
    "argv",
    [
        ["law-tangent", "A1", "2", "--truncation", "8"],
        ["law-equations", "A1", "2", "--truncation", "8"],
        ["dim", "A2", "1,1"],
        ["weights", "A2", "1,1"],
        ["reproduce-example1"],
        ["reproduce-example2"],
        ["t1", FLAG.label, FLAG.module, ",".join(map(str, FLAG.point)), "--lie-u"],
        ["stabilizer", "A1", "natural(2)", "1,0"],
        ["orbit-tangent", "A1", "natural(2)", "1,0"],
        ["tangent-weight", "A2", "1,1", "0,0"],
        ["dominance", "A2", "0,0", "1,1"],
    ],
    ids=["law-tangent", "law-equations", "dim", "weights", "reproduce-example1", "reproduce-example2",
         "t1-flag", "stabilizer", "orbit-tangent", "tangent-weight", "dominance"],
)
def test_integer_requests_import_no_fractions(argv):
    """A request that reads and prints no rational loads none of
    fractions, decimal and numbers: integer points are read as ints,
    root coordinates are computed in integers, RowSpace eliminates in
    integers, and the law equations have integer coefficients."""
    out = probe(argv, expr=NUMERIC)
    assert out["code"] == 0
    assert out["probe"] == []


COUNT_PARSERS = """
import argparse
parsers = []
_init = argparse.ArgumentParser.__init__
def _counted(self, *args, **kwargs):
    parsers.append(kwargs.get("prog"))
    _init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = _counted
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["dim", "A2", "1,1"],
        ["law-tangent", "A1", "2", "--truncation", "8"],
        ["t1", "A1", "sym(2,natural(2))", "1,0,0", "--lie-u", "--diag=1:2"],
        ["--version"],
    ],
    ids=["dim", "law-tangent", "t1", "version"],
)
def test_a_plain_request_builds_no_parser(argv):
    """A well-formed request is read straight off COMMANDS: it builds no
    ArgumentParser, and argparse, with the gettext and locale it
    imports, never loads."""
    out = probe(argv, expr='sorted(m for m in ("argparse", "gettext", "locale") if m in sys.modules)')
    assert out["code"] == 0
    assert out["probe"] == []


def test_a_usage_error_builds_the_full_parser_alone():
    """An argument the reader does not take brings in the full parser,
    which reports it; no other parser is built."""
    out = probe(["dim", "A1", "1", "--frob"], setup=COUNT_PARSERS, expr="parsers")
    assert out["code"] == 2
    assert out["probe"] == ["horomod"] + [f"horomod {name}" for name in COMMANDS]


def test_dim_runs_no_lie_algebra_law_or_monoid_layer():
    out = probe(["dim", "A2", "1,1"])
    assert out["code"] == 0
    ran = {name for name, did in out["layers"].items() if did}
    assert {"horomod.rootdata", "horomod.repcalc"} <= ran
    assert not ran & {"horomod.mulaw", "horomod.liealg", "horomod.monoids"}


@pytest.mark.parametrize(
    "argv",
    [
        ["root-datum", "A2"],
        ["dominance", "A2", "0,0", "1,1"],
        ["dim", "A2", "1,1"],
        ["weights", "A2", "1,1"],
        ["tensor", "A2", "1,0", "0,1"],
    ],
    ids=["root-datum", "dominance", "dim", "weights", "tensor"],
)
def test_root_datum_and_character_requests_run_no_linalg(argv):
    """The error contract lives in errors, so these requests, which
    eliminate nothing, never run the elimination layer."""
    out = probe(argv)
    assert out["code"] == 0
    ran = {name for name, did in out["layers"].items() if did}
    assert "horomod.rootdata" in ran
    assert "horomod.linalg" not in ran


def test_tangent_weight_runs_no_lie_algebra_or_tangent_layer():
    out = probe(["tangent-weight", "A2", "1,1", "0,0"])
    assert out["code"] == 0
    ran = {name for name, did in out["layers"].items() if did}
    assert "horomod.rootdata" in ran
    assert not ran & {"horomod.liealg", "horomod.tangent", "horomod.linalg"}


def test_t1_runs_no_law_layer():
    out = probe(["t1", "A1", "sym(2,natural(2))", "1,0,0", "--lie-u", "--diag", "1:2"])
    assert out["code"] == 0
    ran = {name for name, did in out["layers"].items() if did}
    assert {"horomod.liealg", "horomod.tangent"} <= ran
    assert not ran & {"horomod.mulaw", "horomod.monoids"}


def test_law_tangent_runs_no_full_system_layer():
    out = probe(["law-tangent", "A1", "2", "--truncation", "8"])
    assert out["code"] == 0
    ran = {name for name, did in out["layers"].items() if did}
    assert {"horomod.channels", "horomod.linalg", "horomod.rootdata"} <= ran
    assert not ran & {"horomod.mulaw", "horomod.polysys", "horomod.monoids"}


@pytest.mark.parametrize(
    "argv,layer",
    [
        (["t1", "A1", "sym(2,natural(2))", "x", "--lie-u"], "horomod.tangent"),
        (["contract", "{missing}", "2"], "horomod.mulaw"),
        (["orbit-law", "A1", "x", "--form", "1,0,1", "--truncation", "4"], "horomod.mulaw"),
    ],
    ids=["t1-point", "contract-missing-file", "orbit-law-monoid"],
)
def test_a_refused_input_runs_no_layer_that_would_read_it(tmp_path, argv, layer):
    """Every input is read before the handler runs, so a request refused
    on one never runs the layer that would have worked on it."""
    out = probe([a.format(missing=tmp_path / "missing.json") for a in argv])
    assert out["code"] == 3
    assert not out["layers"][layer]


def law_request(tmp_path, command):
    """The layers a law request ran, in a fresh interpreter; contract
    and root-monoid read the law that orbit-law writes first."""
    law = tmp_path / "law.json"
    argv = {
        "law-equations": ["law-equations", "A1", "2", "--truncation", "8"],
        "orbit-law": ["orbit-law", "A1", "2", "--form", "1,0,1", "--truncation", "8",
                      "--output", str(law)],
        "contract": ["contract", str(law), "2"],
        "root-monoid": ["root-monoid", str(law)],
    }
    if command in ("contract", "root-monoid"):
        assert probe(argv["orbit-law"])["code"] == 0
    out = probe(argv[command])
    assert out["code"] == 0
    return {name for name, did in out["layers"].items() if did}


# The law system lives in channels, with polysys for its output; the
# other law requests read and write laws through mulaw.
LAW_LAYERS = {
    "law-equations": {"horomod.channels", "horomod.polysys", "horomod.rootdata"},
    "orbit-law": {"horomod.mulaw", "horomod.rootdata"},
    "contract": {"horomod.mulaw", "horomod.rootdata"},
    "root-monoid": {"horomod.mulaw", "horomod.rootdata"},
}


@pytest.mark.parametrize("command", list(LAW_LAYERS))
def test_law_requests_run_no_monoid_layer(tmp_path, command):
    ran = law_request(tmp_path, command)
    assert LAW_LAYERS[command] <= ran
    assert "horomod.monoids" not in ran
    if command == "law-equations":
        assert "horomod.mulaw" not in ran


@pytest.mark.parametrize("command", ["orbit-law", "contract", "root-monoid"])
def test_orbit_law_requests_run_no_polynomial_layer(tmp_path, command):
    """mulaw normalizes the covariant with a RowSpace and leaves the
    equations to channels, so a law read or written never runs polysys."""
    assert "horomod.polysys" not in law_request(tmp_path, command)


def test_a_layer_imported_first_is_reused():
    out = probe(
        ["saturate", "A1", "2;3"],
        setup='import horomod.monoids\nfirst = sys.modules["horomod.monoids"]',
        expr='cli.monoids is first is sys.modules["horomod.monoids"] is horomod.monoids',
    )
    assert out["code"] == 0
    assert out["probe"] is True


HEAVY = 'sorted(m for m in ("dataclasses", "inspect") if m in sys.modules)'


@pytest.mark.parametrize(
    "argv",
    [
        ["t1", "A2", "sum(natural(3),ext(2,natural(3)))", "1,0,0,1,0,0", "--lie-u"],
        ["law-tangent", "A1", "2", "--truncation", "8"],
    ],
)
def test_requests_load_no_dataclasses_or_inspect(argv):
    floor = probe(["--version"], expr=HEAVY)["probe"]
    out = probe(argv, expr=HEAVY)
    assert out["code"] == 0
    assert set(out["probe"]) <= set(floor)


@pytest.mark.parametrize("argv", [["reproduce-example1"], ["reproduce-example2"]])
def test_examples_run_no_law_layer(argv):
    out = probe(argv)
    assert out["code"] == 0
    ran = {name for name, did in out["layers"].items() if did}
    assert {"horomod.examples", "horomod.tangent"} <= ran
    assert not ran & {"horomod.mulaw", "horomod.monoids", "horomod.polysys"}


def test_no_layer_imports_dataclasses():
    package = Path(horomod.__file__).resolve().parent
    sources = sorted(package.glob("*.py"))
    assert sources
    for path in sources:
        assert not re.search(r"^\s*(from|import)\s+dataclasses\b", path.read_text(), re.M), path


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_layer_reads_another_layers_private_names():
    """No package module imports an underscore name from another, or
    reads one as module._name: each private name has one home."""
    package = Path(horomod.__file__).resolve().parent
    layers = {path.stem for path in package.glob("*.py")}
    found = []
    for path in sorted(package.glob("*.py")):
        others = layers - {path.stem}
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("horomod")):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in others:
                names = [node.attr]
            else:
                continue
            found += [f"{path.stem}: {name}" for name in names if _private(name)]
    assert found == []
