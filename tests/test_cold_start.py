"""Import hygiene: only a bootstrap loads numpy, only a pool loads
``concurrent.futures``, and only building an HTTP transport runs ``requests``.

The package root imports no submodule, so names are reached through the
modules that define them.  Each probe runs in a fresh interpreter with
``PYTHONPATH=src``, so nothing this test process has imported can hide or
fake an import.  ``requests`` is registered in ``sys.modules`` when
``lookahead.cli`` is imported, by design (a lazily loaded module), so whether
its body has run shows as ``requests.api``, which that body imports.
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

WATCHED = ("concurrent.futures", "numpy", "requests.api")


def loaded():
    return [name for name in WATCHED if name in sys.modules]


out, tasks = sys.argv[1], sys.argv[2]
seen = {
    "import lookahead": loaded(),
    "submodules": sorted(name for name in sys.modules if name.startswith("lookahead.")),
}
from lookahead import cli
from lookahead.evaluation import Ledger

seen["requests registered"] = "requests" in sys.modules
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
    seen[name] = [cli.main(argv), loaded()]
# Nothing listens on the discard port, and building the model sends nothing.
config = cli.load_config(None, {"value": "remote:gpt-3.5-turbo", "base_url": "http://127.0.0.1:9"})
model = cli.build_value_model(config, cli.build_environment(config), Ledger())
seen["build remote value model"] = [type(model).__name__, loaded()]
print("PROBE " + json.dumps(seen))
"""


def test_only_the_paths_that_need_them_load_numpy_pools_and_requests(tmp_path):
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
        "import lookahead": [],
        "submodules": [],
        "requests registered": True,
        "search beam": [0, []],
        "stl mcts": [0, []],
        "report": [0, []],
        "search greedy": [0, []],
        # The probe can see both imports: eval runs the bootstrap on a pool.
        "eval": [0, ["concurrent.futures", "numpy"]],
        # requests runs when the transport is built, before any request.
        "build remote value model": [
            "RemoteValueModel", ["concurrent.futures", "numpy", "requests.api"]
        ],
    }
