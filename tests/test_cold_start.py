"""Import hygiene: only a bootstrap loads numpy.

Each probe runs in a fresh interpreter with ``PYTHONPATH=src``, so nothing
this test process has imported can hide or fake an import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import json
import sys

import lookahead

out, tasks = sys.argv[1], sys.argv[2]
seen = {"import lookahead": "numpy" in sys.modules}
from lookahead import cli, evaluation

seen["same paired_bootstrap"] = lookahead.paired_bootstrap is evaluation.paired_bootstrap
runs = {
    "search beam": ["search", "--engine", "beam", "--value", "oracle", "--tasks", tasks,
                    "--out", f"{out}/beam"],
    "stl mcts": ["stl", "--stl-engine", "mcts", "--mcts-iterations", "10", "--value", "oracle",
                 "--iterations", "1", "--tasks-per-iteration", "2", "--tasks", tasks,
                 "--out", f"{out}/stl"],
    "report": ["report", f"{out}/beam/results.json", "--out", f"{out}/report"],
    "search greedy": ["search", "--engine", "greedy", "--value", "oracle", "--tasks", tasks,
                      "--out", f"{out}/greedy"],
    "eval": ["eval", f"{out}/beam/results.json", f"{out}/greedy/results.json",
             "--b-samples", "1000"],
}
for name, argv in runs.items():
    seen[name] = [cli.main(argv), "numpy" in sys.modules]
print("PROBE " + json.dumps(seen))
"""


def test_only_a_bootstrap_loads_numpy(tmp_path):
    source = json.loads((ROOT / "fixtures" / "game24_test_50.json").read_text())
    tasks = tmp_path / "tasks.json"
    tasks.write_text(json.dumps({"tasks": source["tasks"][:2]}))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(tmp_path), str(tasks)],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    probe = next(row for row in proc.stdout.splitlines() if row.startswith("PROBE "))
    assert json.loads(probe[len("PROBE "):]) == {
        "import lookahead": False,
        "same paired_bootstrap": True,
        "search beam": [0, False],
        "stl mcts": [0, False],
        "report": [0, False],
        "search greedy": [0, False],
        # The probe can see the import: eval runs the bootstrap.
        "eval": [0, True],
    }
