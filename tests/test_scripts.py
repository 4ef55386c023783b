"""The scripts find the package from any working directory."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, cwd):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name)],
        cwd=cwd, env=env, capture_output=True, text=True, check=True,
    )
    return proc.stdout.splitlines()


def test_reproduce_examples_from_any_directory(tmp_path):
    lines = run_script("reproduce_examples.py", tmp_path)
    table = [line.split()[:3] for line in lines[2:8]]
    assert table == [
        ["1", "0", "0"], ["2", "1", "1"], ["3", "0", "0"],
        ["4", "1", "1"], ["5", "0", "0"], ["6", "0", "0"],
    ]
    assert "  T1 dim   2" in lines


def load_golden():
    spec = importlib.util.spec_from_file_location("golden", SCRIPTS / "golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_set_covers_every_subcommand():
    from horomod.cli import build_parser

    golden = load_golden()
    (choices,) = [a.choices for a in build_parser()._actions if a.dest == "command"]
    helped = {
        tuple(argv) for steps in golden.golden_cases() for argv in golden.requests(steps)
        if argv[-1:] == ["--help"]
    }
    assert {(name, "--help") for name in choices} <= helped


def test_golden_set_compares_stdout_and_written_files(tmp_path):
    golden = load_golden()
    cases = [
        [["dim", "A2", "1,1"]],
        [["law-equations", "A1", "1", "--truncation", "3", "--export-system", "system.txt"]],
        [["orbit-law", "A1", "2", "--form", "1,0,1", "--truncation", "8", "--output", "law.json"],
         ["root-monoid", "law.json"]],
    ]
    ours, _ = golden.run_side(golden.SRC, cases)
    assert [[code for code, *_ in r["steps"]] for r in ours] == [[0], [0], [0, 0]]
    assert sorted(ours[1]["files"]) == ["system.txt"]
    assert sorted(ours[2]["files"]) == ["law.json"]
    assert [argv for argv, *_ in golden.differences(cases, ours, ours)] == []
    changed = json.loads(json.dumps(ours))
    changed[2]["files"]["law.json"] += " "
    assert golden.differences(cases, ours, changed) == [(cases[2][-1], 0, 0, 2)]


def test_golden_report_shows_the_case_and_each_argument_clipped():
    """A differing request of 10 001 form characters prints as one short
    line: its case index, then each argument cut to 20 characters and
    "..."."""
    golden = load_golden()
    argv = ["orbit-law", "A1", "2", "--form=" + "1," * 5000 + "1", "--truncation", "4"]
    assert golden.shown(argv, 17) == "case 17: orbit-law A1 2 --form=1,1,1,1,1,1,1... --truncation 4"


def test_golden_writes_input_files_for_the_requests_after_them():
    """A write step gives no result of its own; the requests after it
    read the file, and the file left behind is compared."""
    golden = load_golden()
    cases = [[{"write": "law.json", "text": golden.law_text()}, ["root-monoid", "law.json"],
              {"write": "law.json", "text": "{"}, ["root-monoid", "law.json"]]]
    ours, _ = golden.run_side(golden.SRC, cases)
    assert [code for code, *_ in ours[0]["steps"]] == [0, 3]
    assert ours[0]["files"] == {"law.json": "{"}
    assert [argv for argv, *_ in golden.differences(cases, ours, ours)] == []


def test_golden_reports_the_functions_no_request_entered():
    """A dim request enters the import of horomod.cli and weyl_dim, and
    no saturation, so only the functions it never reaches are reported."""
    golden = load_golden()
    _, unentered = golden.run_side(golden.SRC, [[["dim", "A2", "1,1"]]])
    assert "monoids.saturation" in unentered
    assert "repcalc.weyl_dim" not in unentered
    assert "cli._lazy" not in unentered


def test_golden_lists_the_functions_from_the_code_that_ran(monkeypatch):
    """The lister reads the imported modules' code objects, not their
    sources: with no file to read it still lists a function, a nested
    function and a property getter, each by the code object that runs."""
    from horomod import cli, liealg

    golden = load_golden()

    def unread(*args, **kwargs):
        raise AssertionError("a source file was read")

    monkeypatch.setattr(Path, "read_text", unread)
    listed = golden.functions([cli, liealg])
    (parse,) = [c for c in liealg.build_module.__code__.co_consts if getattr(c, "co_name", None) == "parse"]
    assert {cli._lazy.__code__, parse, liealg.ExplicitModule.dim.fget.__code__} <= set(listed)
    assert listed[cli._lazy.__code__] == "cli._lazy"


def test_golden_refusals_end_in_an_error_envelope(tmp_path, monkeypatch, capsys):
    """Every request of golden.REFUSALS and golden.TWO_BAD_INPUTS ends in
    a JSON error with exit 3 (validation) or 4 (resource), as their
    comments say; the golden run itself checks only exit 0, 2, 3 or 4."""
    from horomod.cli import main

    golden = load_golden()
    monkeypatch.chdir(tmp_path)
    for argv in golden.REFUSALS + golden.TWO_BAD_INPUTS:
        code = main(list(argv))
        blob = json.loads(capsys.readouterr().out)
        assert code in (3, 4), argv
        assert blob["status"] == "error", argv
        assert blob["error"]["type"] == ("validation" if code == 3 else "resource"), argv
