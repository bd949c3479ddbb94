"""The script under ``scripts/``: it regenerates the shipped fixtures."""

import os
import subprocess
import sys
from pathlib import Path

import lookahead

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(lookahead.__file__).resolve().parent.parent


def test_make_game24_fixtures_reproduces_the_shipped_files(tmp_path):
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    script = ROOT / "scripts" / "make_game24_fixtures.py"
    result = subprocess.run(
        [sys.executable, str(script), "--out-dir", str(tmp_path)],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    names = ["game24_test_50.json", "game24_rollout_100.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    for name in names:
        assert (tmp_path / name).read_bytes() == (ROOT / "fixtures" / name).read_bytes(), name
