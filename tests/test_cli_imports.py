"""The CLI runs only the layers a subcommand calls, each in a fresh
interpreter.  A layer whose body has not run is still the lazy module
type; type() does not trigger the load."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import horomod

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


def test_dim_runs_no_lie_algebra_law_or_monoid_layer():
    out = probe(["dim", "A2", "1,1"])
    assert out["code"] == 0
    ran = {name for name, did in out["layers"].items() if did}
    assert {"horomod.rootdata", "horomod.repcalc"} <= ran
    assert not ran & {"horomod.mulaw", "horomod.liealg", "horomod.monoids"}


def test_t1_runs_no_law_layer():
    out = probe(["t1", "A1", "sym(2,natural(2))", "1,0,0", "--lie-u", "--diag", "1:2"])
    assert out["code"] == 0
    ran = {name for name, did in out["layers"].items() if did}
    assert {"horomod.liealg", "horomod.tangent"} <= ran
    assert "horomod.mulaw" not in ran


def test_law_tangent_runs_no_full_system_layer():
    out = probe(["law-tangent", "A1", "2", "--truncation", "8"])
    assert out["code"] == 0
    ran = {name for name, did in out["layers"].items() if did}
    assert {"horomod.channels", "horomod.linalg", "horomod.rootdata"} <= ran
    assert not ran & {"horomod.mulaw", "horomod.polysys", "horomod.monoids"}


@pytest.mark.parametrize("command", ["law-equations", "orbit-law", "contract", "root-monoid"])
def test_law_requests_run_no_monoid_layer(tmp_path, command):
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
    ran = {name for name, did in out["layers"].items() if did}
    assert {"horomod.mulaw", "horomod.rootdata"} <= ran
    assert "horomod.monoids" not in ran


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
