"""The scripts under ``scripts/``: pinned outputs and clean exits on bad input."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lookahead

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(lookahead.__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_oracle_upper_bound_solves_the_test_fixture():
    result = run_script("oracle_upper_bound.py", "--quiet")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "solve rate: 50/50 = 1.000",
        "states expanded: 2739",
    ]


def test_scripted_stl_demo_reports_both_methods(tmp_path):
    result = run_script("scripted_stl_demo.py", "--out", str(tmp_path / "demo"))
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert "greedy+base: success 1.00, states expanded 600" in lines
    assert "greedy+stl: success 1.00, states expanded 600" in lines


@pytest.mark.parametrize(
    "script, tasks, message",
    [
        ("oracle_upper_bound.py", [{"id": "five", "instruction": "1 2 3 4 5"}], "entry 0"),
        ("scripted_stl_demo.py", [], "contains no tasks"),
    ],
)
def test_bad_tasks_file_exits_2_with_one_line(tmp_path, script, tasks, message):
    tasks_path = tmp_path / "tasks.json"
    tasks_path.write_text(json.dumps({"tasks": tasks}), encoding="utf-8")
    extra = ["--out", str(tmp_path / "out")] if script == "scripted_stl_demo.py" else []
    result = run_script(script, "--tasks", str(tasks_path), *extra)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.count("\n") == 1
    assert result.stderr.startswith("config error: ")
    assert message in result.stderr
    assert result.stdout == ""
