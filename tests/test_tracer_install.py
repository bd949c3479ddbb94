"""The benchmark's tracer installs on the package as it is.

``perfbench/tracing.py`` wraps internal functions and methods by name; a
rename or deletion makes ``install`` fail.  The probe runs in a fresh
interpreter with ``PYTHONPATH=src``, imports the package as a benchmark child
does, installs the tracer before any remote agent exists (so ``requests`` is
still an unloaded lazy module), then sends one request through an
``HttpTransport`` to the benchmark's loopback chat stub.
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

from lookahead import cli, stl  # noqa: F401 - what a benchmark child has loaded
from lookahead.core import Task

sys.path.insert(0, sys.argv[1])
from stub import StubServer
from tracing import Recorder, install

seen = {"requests run before install": "requests.api" in sys.modules}
recorder = Recorder(Task)
try:
    install(recorder)
    seen["install"] = "ok"
except Exception as exc:
    seen["install"] = f"{type(exc).__name__}: {exc}"
    print("PROBE " + json.dumps(seen))
    sys.exit(0)

from lookahead.agents.transport import ChatRequest, HttpTransport

server = StubServer(delay_s=0.0, workers=1)
try:
    transport = HttpTransport(server.base_url)
    request = ChatRequest(model="m", prompt="Input: 2 3 4 4", n=2)
    seen["texts"] = len(transport.send(request).texts)
finally:
    server.close()
# The stub counts a request after sending its reply; close() waits for that.
seen["stub requests"] = server.stub.counters()["requests"]
seen["spans"] = [span[0] for span in recorder.spans]
seen["attempt inside send"] = recorder.spans[1][3] is recorder.spans[0]
print("PROBE " + json.dumps(seen))
"""


def test_the_tracer_installs_and_counts_transport_attempts():
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(ROOT / "perfbench")],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    probe = next(row for row in proc.stdout.splitlines() if row.startswith("PROBE "))
    assert json.loads(probe[len("PROBE "):]) == {
        "requests run before install": False,
        "install": "ok",
        "texts": 2,
        "stub requests": 1,
        "spans": ["transport.send", "transport.attempt"],
        "attempt inside send": True,
    }
