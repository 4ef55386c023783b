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
        ["4", "1", "1"], ["5", "0", "0"], ["6", "0", "-"],
    ]
    assert "  T1 dim   2" in lines


def test_export_equations_from_any_directory(tmp_path):
    lines = run_script("export_equations.py", tmp_path)
    written = sorted(p.name for p in (tmp_path / "equations").iterdir())
    assert written == [f"law_system_n{n}_D{4 * n}.txt" for n in range(1, 6)]
    assert [line.rsplit(" ", 1)[1] for line in lines] == ["0", "1", "0", "1", "0"]


def load_golden():
    spec = importlib.util.spec_from_file_location("golden", SCRIPTS / "golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_set_covers_every_subcommand():
    from horomod.cli import build_parser

    golden = load_golden()
    (choices,) = [a.choices for a in build_parser()._actions if a.dest == "command"]
    assert sorted(golden.SUBCOMMANDS) == sorted(choices)
    helped = {tuple(argv) for steps in golden.golden_cases() for argv in steps if argv[-1:] == ["--help"]}
    assert {(name, "--help") for name in choices} <= helped


def test_golden_set_compares_stdout_and_written_files(tmp_path):
    golden = load_golden()
    cases = [
        [["dim", "A2", "1,1"]],
        [["law-equations", "A1", "1", "--truncation", "3", "--export-system", "system.txt"]],
        [["orbit-law", "A1", "2", "--form", "1,0,1", "--truncation", "8", "--output", "law.json"],
         ["root-monoid", "law.json"]],
    ]
    ours = golden.run_side(golden.SRC, cases)
    assert [[code for code, _ in r["steps"]] for r in ours] == [[0], [0], [0, 0]]
    assert sorted(ours[1]["files"]) == ["system.txt"]
    assert sorted(ours[2]["files"]) == ["law.json"]
    assert golden.compare(cases, ours, ours) == []
    changed = json.loads(json.dumps(ours))
    changed[2]["files"]["law.json"] += " "
    assert golden.compare(cases, ours, changed) == [cases[2][-1]]
