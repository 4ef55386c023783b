"""The scripts find the package from any working directory."""

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
