"""Benchmark for the lookahead toolkit: CLI workloads run in fresh processes.

Usage (from the repository root)::

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Every timed sample is a fresh interpreter that calls ``lookahead.cli.main``
on inputs generated from ``--seed`` (see ``workloads.py``), one client with
``--parallel 1``; it times its own set-up before it calls ``main``.  With
``--workload all`` the workloads alternate, so drift on the host spreads over
every figure.  Each sample's artifacts are checked; the run fails (exit 1)
if any check fails.

``--trace 0`` reports the end-to-end metrics (medians over the samples).
``--trace 1`` alternates untraced and traced samples and reports per-layer
metrics from the traced ones; see ``README.md`` for what each one means.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = Path(".perfbench_work")  # relative to ROOT, so artifacts name the same paths everywhere

sys.path[:0] = [str(HERE), str(SRC)]  # output checks reload datasets with the package

import tracing  # noqa: E402
from stub import StubServer  # noqa: E402
from workloads import (  # noqa: E402
    NO_KEY_ENV,
    REMOTE_VALUE_SAMPLES,
    STUB_DELAY_S,
    WORKLOADS,
    CheckFailed,
    Inputs,
    Workload,
    artifact_digest,
)

CHILD_TIMEOUT_S = 60
MIN_ROUNDS = 3
HARD_STOP_S = 140  # past the deadline, stop at this age even short of MIN_ROUNDS

# name -> unit; all are "lower is better".
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

FAILURE_REASONS = (
    "propose-error", "empty-proposal", "rejected-action", "unparseable-value", "empty-frontier", "other",
)
REJECTION_REASONS = (
    "scaffolding-missing", "conflicting-labels", "value-not-admissible", "section-missing",
    "section-repeated", "sections-out-of-order", "other",
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every metric a traced run reports."""
    spec = []
    for name in list(tracing.FUNCTIONS) + list(tracing.METHODS):
        spec += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    spec += [
        ("envs.oracle.cache_entries", "count", "lower"),
        ("values.tabular.hit_ratio", "ratio", "higher"),
        ("values.remote.requests_per_evaluation", "ratio", "lower"),
        ("values.remote.redraws", "count", "lower"),
        ("transport.send.p50_ms", "ms", "lower"),
        ("transport.send.p99_ms", "ms", "lower"),
        ("transport.overhead_s", "s", "lower"),
        ("stub.requests", "count", "lower"),
        ("stub.malformed_served", "count", "lower"),
        ("stub.service_s", "s", "lower"),
        ("stub.prompt_tokens", "count", "lower"),
        ("stub.completion_tokens", "count", "lower"),
        ("stub.max_concurrent", "count", "higher"),
        ("search.dump_tree.bytes", "bytes", "lower"),
        ("search.nodes", "count", "lower"),
    ]
    spec += [(f"search.failures.{reason}", "count", "lower") for reason in FAILURE_REASONS]
    spec += [
        ("stl.export_jsonl.bytes", "bytes", "lower"),
        ("stl.candidates", "count", "higher"),
        ("stl.kept", "count", "higher"),
        ("stl.rejected", "count", "lower"),
        ("stl.dataset_size", "count", "higher"),
    ]
    spec += [(f"stl.rejected.{reason}", "count", "lower") for reason in REJECTION_REASONS]
    spec += [
        ("ledger.states_expanded", "count", "lower"),
        ("report.cost_usd", "usd", "lower"),
        ("tracing.wall_s", "s", "lower"),
        ("tracing.overhead_s", "s", "lower"),
    ]
    return spec


class SampleFailed(Exception):
    """A child process exited badly or its artifacts failed a check."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.pop(NO_KEY_ENV, None)
    return env


def spawn(mode: str, argv: list[str], scratch: Path) -> dict:
    """Run one child sample and return its result record."""
    spec_path, result_path, log_path = scratch / "spec.json", scratch / "result.json", scratch / "child.log"
    result_path.unlink(missing_ok=True)
    spec = {"mode": mode, "argv": argv, "result": str(result_path), "spans": str(scratch / "spans.json")}
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    with log_path.open("wb") as log:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(spec_path)],
                env=_child_env(), stdout=log, stderr=subprocess.STDOUT,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            raise SampleFailed(f"{mode} sample exceeded {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0 or not result_path.exists():
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-800:]
        raise SampleFailed(f"{mode} sample exited {proc.returncode}: {tail}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if result["rc"] != 0:
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-800:]
        raise SampleFailed(f"lookahead exited {result['rc']}: {tail}")
    return result


def artifact_layers(out_dir: Path) -> dict[str, float]:
    """Per-layer counts read from a finished run's artifacts."""
    out: dict[str, float] = {f"search.failures.{r}": 0 for r in FAILURE_REASONS}
    nodes = tree_bytes = trees = 0
    for path in sorted(out_dir.rglob("trees/*.json")):
        trees += 1
        tree_bytes += path.stat().st_size
        tree = json.loads(path.read_text(encoding="utf-8"))
        nodes += len(tree["nodes"])
        for failure in tree["stats"]["failures"]:
            reason = failure.split("@", 1)[0]
            key = f"search.failures.{reason if reason in FAILURE_REASONS else 'other'}"
            out[key] += 1
    out.update({"search.nodes": nodes, "search.dump_tree.bytes": tree_bytes, "tree_files": trees})
    stl_dir = out_dir / "stl"
    out["stl.export_jsonl.bytes"] = sum(p.stat().st_size for p in stl_dir.glob("*.jsonl"))
    for key in ("stl.candidates", "stl.kept", "stl.rejected", "stl.dataset_size"):
        out[key] = 0
    out.update({f"stl.rejected.{r}": 0 for r in REJECTION_REASONS})
    report_path = stl_dir / "stl_report.json"
    if report_path.exists():
        reports = json.loads(report_path.read_text(encoding="utf-8"))
        for report in reports:
            out["stl.candidates"] += report["candidates"]
            out["stl.kept"] += report["kept"]
            for reason, count in report["rejected"].items():
                out["stl.rejected"] += count
                key = f"stl.rejected.{reason if reason in REJECTION_REASONS else 'other'}"
                out[key] += count
        out["stl.dataset_size"] = reports[-1]["dataset_size"] if reports else 0
    ledger_path = out_dir / "ledger.json"
    out["ledger.states_expanded"] = (
        json.loads(ledger_path.read_text(encoding="utf-8"))["states_expanded"] if ledger_path.exists() else 0
    )
    summary = out_dir / "report" / "summary.csv"
    out["report.cost_usd"] = 0.0
    if summary.exists():
        header, row = summary.read_text(encoding="utf-8").splitlines()[:2]
        out["report.cost_usd"] = float(dict(zip(header.split(","), row.split(",")))["cost_usd"])
    return out


def cross_check(layers: dict[str, float]) -> None:
    """Counts seen by the wrappers must agree with the program's own."""
    expected = layers["ledger.states_expanded"] + layers["search.failures.rejected-action"]
    if layers["envs.transition.calls"] != expected:
        raise SampleFailed(
            f"envs.transition.calls {layers['envs.transition.calls']} != states_expanded "
            f"+ rejected actions ({expected})"
        )
    if layers["evaluation.ledger_add_states.calls"] != layers["ledger.states_expanded"]:
        raise SampleFailed("Ledger.add_states calls differ from the ledger's states_expanded")
    if layers["search.dump_tree.calls"] != layers["tree_files"]:
        raise SampleFailed(
            f"search.dump_tree.calls {layers['search.dump_tree.calls']} != tree files "
            f"written ({layers['tree_files']})"
        )
    if layers["stub.requests"] != layers["transport.attempt.calls"]:
        raise SampleFailed(
            f"stub.requests {layers['stub.requests']} != transport send attempts "
            f"({layers['transport.attempt.calls']})"
        )


class Bench:
    """One workload's inputs, samples and figures within a run."""

    def __init__(self, workload: Workload, seed: int, scratch: Path, stub: StubServer | None) -> None:
        self.workload = workload
        self.scratch = scratch
        self.stub = stub
        self.out_dir = scratch / "out"
        inputs_dir = scratch / "inputs"
        inputs_dir.mkdir(parents=True)
        base_url = stub.base_url if stub is not None else ""
        self.inputs: Inputs = workload.prepare(seed, inputs_dir, self.out_dir, base_url)
        self.walls: list[float] = []
        self.setups: list[float] = []
        self.rss: list[float] = []
        self.traced: list[dict[str, float]] = []
        self.facts: dict | None = None
        self.digests: set[str] = set()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _attempt(self, action) -> None:
        self.attempted += 1
        try:
            action()
        except (SampleFailed, CheckFailed) as exc:
            self.failed += 1
            self.errors.append(str(exc))

    def warm_up(self) -> None:
        """Compile bytecode and fill the file cache before anything is timed."""
        self._attempt(lambda: spawn("setup", self.inputs.argv, self.scratch))

    def sample(self, traced: bool = False) -> None:
        self._attempt(lambda: self._sample(traced))

    def _sample(self, traced: bool) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        if self.stub is not None:
            self.stub.stub.reset()
        result = spawn("trace" if traced else "run", self.inputs.argv, self.scratch)
        counters = self.stub.stub.counters() if self.stub is not None else {}
        facts = self.workload.check(self.inputs, self.out_dir, counters)
        if self.facts is None:
            self.facts = facts
        elif facts != self.facts:
            raise CheckFailed(f"outputs changed between samples of one seed: {self.facts} vs {facts}")
        self.digests.add(artifact_digest(self.out_dir))
        if traced:
            self.traced.append(self._layers(result, counters))
        else:
            self.walls.append(result["wall_s"])
            self.setups.append(result["setup_s"])
            self.rss.append(result["peak_rss_mb"])
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def _layers(self, result: dict, counters: dict) -> dict[str, float]:
        spans_path = self.scratch / "spans.json"
        layers = tracing.layer_metrics(json.loads(spans_path.read_text(encoding="utf-8")))
        spans_path.unlink()
        layers.update(artifact_layers(self.out_dir))
        stub_figures = {f"stub.{k}": counters.get(k, 0) for k in
                        ("requests", "malformed_served", "service_s", "prompt_tokens",
                         "completion_tokens", "max_concurrent")}
        layers.update(stub_figures)
        layers["envs.oracle.cache_entries"] = result["oracle_cache_entries"]
        layers["tracing.wall_s"] = result["wall_s"]
        layers["transport.overhead_s"] = layers.pop("transport.send.total_s") - layers["stub.service_s"]
        remote_evals = layers["values.remote.evaluate.calls"]
        layers["values.remote.requests_per_evaluation"] = (
            layers["stub.requests"] / remote_evals if remote_evals else 0.0
        )
        # Each value sample makes one first draw; every further request is a redraw.
        layers["values.remote.redraws"] = (
            layers["stub.requests"] - remote_evals * REMOTE_VALUE_SAMPLES
        )
        cross_check(layers)
        return layers

    def end_to_end(self) -> dict[str, float]:
        return {
            "wall_s": statistics.median(self.walls),
            "setup_s": statistics.median(self.setups),
            "peak_rss_mb": statistics.median(self.rss),
        }

    def per_layer(self) -> dict[str, float]:
        merged = {
            name: statistics.median(sample[name] for sample in self.traced)
            for name, _, _ in per_layer_spec()
            if name != "tracing.overhead_s"
        }
        merged["tracing.overhead_s"] = merged["tracing.wall_s"] - statistics.median(self.walls)
        return merged

    def usable(self, trace: bool) -> bool:
        return not self.failed and bool(self.walls) and (bool(self.traced) or not trace)


def metadata() -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "lookahead").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode("utf-8") + b"\0" + path.read_bytes())
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            commit = ref_path.read_text(encoding="utf-8").strip() if ref_path.exists() else ref
        else:
            commit = ref
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def measure(benches: list[Bench], seconds: float, trace: bool) -> None:
    started = time.perf_counter()
    for bench in benches:
        bench.warm_up()
    if any(bench.failed for bench in benches):
        return
    deadline = started + seconds * len(benches)
    rounds = 0
    while True:
        for bench in benches:
            bench.sample()
            if trace:
                bench.sample(traced=True)
        rounds += 1
        now = time.perf_counter()
        if any(bench.failed for bench in benches):
            return
        if now >= deadline and (rounds >= MIN_ROUNDS - trace or now - started > HARD_STOP_S):
            return


def report(benches: list[Bench], trace: bool, meta: dict) -> dict:
    print(f"meta: {json.dumps(meta, sort_keys=True)}")
    results = {}
    for bench in benches:
        name = bench.workload.name
        print(f"workload {name}: {bench.workload.why}")
        print(f"  samples: timed {len(bench.walls)}, set-up {len(bench.setups)}, traced {len(bench.traced)}; "
              f"attempted {bench.attempted}, failed {bench.failed}")
        for error in bench.errors:
            print(f"  FAILED: {error}")
        if not bench.usable(trace):
            continue
        print(f"  artifact digests: {', '.join(sorted(bench.digests))}")
        print(f"  facts: {json.dumps(bench.facts, sort_keys=True)}")
        if trace:
            metrics = bench.per_layer()
            units = {name: unit for name, unit, _ in per_layer_spec()}
        else:
            metrics = bench.end_to_end()
            units = END_TO_END
            wall = metrics["wall_s"]
            extra = {"failed_share": bench.failed / bench.attempted}
            states = bench.facts.get("states_expanded", 0) if bench.facts else 0
            if states:
                extra["transitions_per_s"] = states / wall
            if bench.facts and "cost_usd" in bench.facts:
                extra["cost_usd"] = bench.facts["cost_usd"]
            print(f"  wall_s samples: {' '.join(f'{w:.3f}' for w in bench.walls)}")
            print(f"  setup_s samples: {' '.join(f'{s:.3f}' for s in bench.setups)}")
            print(f"  also: {json.dumps(extra, sort_keys=True)}")
        for metric, value in metrics.items():
            if trace and not value:
                continue
            print(f"  {metric:<42} {value:>14.6g} {units[metric]}")
        results[name] = {metric: {"value": value, "unit": units[metric]} for metric, value in metrics.items()}
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lookahead" / "cli.py").is_file():
        print(f"error: no lookahead sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    os.chdir(ROOT)
    shutil.rmtree(WORK, ignore_errors=True)
    stub = StubServer(STUB_DELAY_S, os.cpu_count() or 1) if any(WORKLOADS[n].uses_stub for n in names) else None
    try:
        benches = [Bench(WORKLOADS[n], args.seed, WORK / n, stub) for n in names]
        measure(benches, args.seconds, bool(args.trace))
        results = report(benches, bool(args.trace), metadata())
    finally:
        if stub is not None:
            stub.close()
        shutil.rmtree(WORK, ignore_errors=True)
    attempted = sum(b.attempted for b in benches)
    failed = sum(b.failed for b in benches)
    correct = failed == 0 and all(b.usable(bool(args.trace)) for b in benches)
    metrics = results[names[0]] if len(names) == 1 and correct else results
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
