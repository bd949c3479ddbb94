"""One benchmark sample in a fresh interpreter.

Usage: ``python3 perfbench/child.py SPEC.json`` with ``PYTHONPATH=src``.  The
spec names a mode and the CLI arguments:

* ``setup`` - import ``lookahead.cli`` and build the run's config, tasks,
  environment, policy, value model and pricing (or load the results files)
  through the public builders, without any rollout, and time that;
* ``run`` - the set-up above, then call ``lookahead.cli.main(argv)`` and
  time it;
* ``trace`` - the same, with span wrappers installed before ``main``; spans
  are written to the spec's ``spans`` path after ``main`` returns.

The result (timings, exit code, peak resident memory) is written as JSON to
the spec's ``result`` path.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def _build(cli, argv: list[str]) -> None:
    from lookahead.evaluation import Ledger, MethodResult

    args = cli.build_parser().parse_args(argv)
    if args.command == "eval":
        for path in (args.results_a, args.results_b):
            MethodResult.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
        return
    overrides = {
        key: value
        for key, value in vars(args).items()
        if key not in ("command", "config") and value is not None
    }
    config = cli.load_config(args.config, overrides)
    env = cli.build_environment(config)
    cli.load_tasks(config.tasks)
    ledger = Ledger()
    cli.build_policy(config, env, ledger)
    cli.build_value_model(config, env, ledger)
    cli.build_pricing(config)


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    mode = spec["mode"]
    started = time.perf_counter()
    from lookahead import cli

    _build(cli, spec["argv"])
    result: dict[str, object] = {"mode": mode, "setup_s": time.perf_counter() - started, "rc": 0}
    if mode != "setup":
        recorder = None
        if mode == "trace":
            from lookahead.core import Task
            from tracing import Recorder, install

            recorder = Recorder(Task)
            install(recorder)
        begin = time.perf_counter()
        rc = cli.main(spec["argv"])
        result["wall_s"] = time.perf_counter() - begin
        result["rc"] = rc
        if recorder is not None:
            recorder.dump(Path(spec["spans"]))
            result["oracle_cache_entries"] = len(sys.modules["lookahead.envs.game24"]._oracle_cache)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
