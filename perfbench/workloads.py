"""The benchmark's workloads: seeded inputs, CLI arguments and output checks.

Each workload turns a seed into input files, names the ``lookahead`` command
line that runs on them (one client, ``--parallel 1``), and checks a finished
run's artifacts against facts the benchmark derived on its own.  A check
returns the run's *repeatable* facts - values that must be identical for
every sample of one seed - plus figures that feed the reported metrics.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import gen

# Per-sample sizes: each sample takes about 1 s on a 2-core x86 host.
ORACLE_PUZZLES = 60
STL_ITERATIONS = 4
STL_TASKS_PER_ITERATION = 15
REMOTE_PUZZLES = 1
REMOTE_VALUE_SAMPLES = 3
EVAL_TASKS = 60
EVAL_RESAMPLES = 1_000_000
UNSOLVABLE_SHARE = 0.2
STUB_DELAY_S = 0.020
NO_KEY_ENV = "PERFBENCH_UNSET_API_KEY"


class CheckFailed(Exception):
    """A run's artifacts disagree with what the benchmark expected."""


@dataclass
class Inputs:
    argv: list[str]
    expected: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    why: str
    uses_stub: bool
    prepare: Callable[[int, Path, Path, str], Inputs]
    check: Callable[[Inputs, Path, dict], dict]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _load(path: Path) -> object:
    return json.loads(path.read_text(encoding="utf-8"))


def artifact_digest(out_dir: Path) -> str:
    """sha256 over every artifact except the manifest (which names the stub port)."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        if path.name == "manifest.json":
            continue
        digest.update(str(path.relative_to(out_dir)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _states_expanded(out_dir: Path) -> int:
    ledger = _load(out_dir / "ledger.json")
    return int(ledger["states_expanded"])  # type: ignore[index]


# --- search-beam-oracle ---------------------------------------------------


def _prepare_beam_oracle(seed: int, inputs_dir: Path, out_dir: Path, base_url: str) -> Inputs:
    puzzles = gen.draw_puzzles(_rng("search-beam-oracle", seed), ORACLE_PUZZLES, UNSOLVABLE_SHARE)
    tasks = inputs_dir / "tasks.json"
    gen.write_tasks(tasks, [numbers for numbers, _ in puzzles], "test", "p")
    solvable = {f"p{i:04d}": verdict for i, (_, verdict) in enumerate(puzzles)}
    argv = [
        "search", "--engine", "beam", "--value", "oracle", "--branching", "100",
        "--beam-width", "5", "--max-depth", "3", "--parallel", "1",
        "--tasks", str(tasks), "--out", str(out_dir),
    ]
    return Inputs(argv, {"solvable": solvable})


def _check_beam_oracle(inputs: Inputs, out_dir: Path, stub: dict) -> dict:
    results = _load(out_dir / "results.json")
    solved = {o["task_id"]: o["success"] for o in results["outcomes"]}  # type: ignore[index]
    expected = inputs.expected["solvable"]
    _require(set(solved) == set(expected), "results.json does not cover every generated task")
    wrong = sorted(t for t in expected if solved[t] != expected[t])
    _require(not wrong, f"solved set differs from the enumerator on {wrong[:5]}")
    return {"solved": sum(solved.values()), "states_expanded": _states_expanded(out_dir)}


# --- stl-mcts-oracle -------------------------------------------------------


def _prepare_stl(seed: int, inputs_dir: Path, out_dir: Path, base_url: str) -> Inputs:
    count = STL_ITERATIONS * STL_TASKS_PER_ITERATION
    puzzles = gen.draw_puzzles(_rng("stl-mcts-oracle", seed), count, UNSOLVABLE_SHARE)
    tasks = inputs_dir / "tasks.json"
    gen.write_tasks(tasks, [numbers for numbers, _ in puzzles], "rollout", "s")
    argv = [
        "stl", "--environment", "game24", "--value", "oracle", "--stl-engine", "mcts",
        "--mcts-iterations", "30", "--branching", "5", "--max-depth", "3",
        "--iterations", str(STL_ITERATIONS),
        "--tasks-per-iteration", str(STL_TASKS_PER_ITERATION),
        "--accumulate", "--gamma", "1", "--parallel", "1",
        "--tasks", str(tasks), "--out", str(out_dir),
    ]
    return Inputs(argv)


def _check_stl(inputs: Inputs, out_dir: Path, stub: dict) -> dict:
    from lookahead.agents.rationales import parse_simulated_lookahead
    from lookahead.agents.scales import MalformedRationale, get_scale
    from lookahead.stl import import_jsonl

    model = out_dir / "stl" / "final_model.jsonl"
    meta = _load(Path(str(model) + ".meta.json"))
    dataset = import_jsonl(model)
    scale = get_scale(meta["scale"])  # type: ignore[index]
    for example in dataset.examples.values():
        try:
            parse_simulated_lookahead(example.completion, scale)
        except MalformedRationale as exc:
            raise CheckFailed(f"final model completion does not parse: {exc}") from None
    reports = _load(out_dir / "stl" / "stl_report.json")
    sizes = [r["dataset_size"] for r in reports]  # type: ignore[union-attr]
    _require(len(sizes) == STL_ITERATIONS, "stl_report.json lacks an iteration")
    _require(len(dataset) == sizes[-1] == meta["count"], "final model size disagrees with the report")  # type: ignore[index]
    return {"dataset_sizes": sizes, "states_expanded": _states_expanded(out_dir)}


# --- search-beam-remote ----------------------------------------------------


def _prepare_remote(seed: int, inputs_dir: Path, out_dir: Path, base_url: str) -> Inputs:
    puzzles = gen.draw_puzzles(_rng("search-beam-remote", seed), REMOTE_PUZZLES, 0.0)
    tasks = inputs_dir / "tasks.json"
    gen.write_tasks(tasks, [numbers for numbers, _ in puzzles], "test", "q")
    argv = [
        "search", "--engine", "beam", "--value", "remote:gpt-3.5-turbo",
        "--value-samples", str(REMOTE_VALUE_SAMPLES), "--branching", "5",
        "--beam-width", "5", "--max-depth", "3", "--parallel", "1",
        "--base-url", base_url, "--api-key-env", NO_KEY_ENV,
        "--tasks", str(tasks), "--out", str(out_dir),
    ]
    return Inputs(argv)


def _check_remote(inputs: Inputs, out_dir: Path, stub: dict) -> dict:
    ledger = _load(out_dir / "ledger.json")
    prompt = sum(c["prompt"] for c in ledger["tokens"].values())  # type: ignore[index]
    completion = sum(c["completion"] for c in ledger["tokens"].values())  # type: ignore[index]
    _require(
        (prompt, completion) == (stub["prompt_tokens"], stub["completion_tokens"]),
        f"ledger tokens {(prompt, completion)} differ from the stub's bill "
        f"{(stub['prompt_tokens'], stub['completion_tokens'])}",
    )
    with (out_dir / "report" / "summary.csv").open(encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    _require(len(rows) == 1, "summary.csv should hold one method row")
    cost = float(rows[0]["cost_usd"])
    _require(cost > 0, "a remote run must be billed")
    return {
        "states_expanded": _states_expanded(out_dir),
        "stub_requests": stub["requests"],
        "prompt_tokens": prompt,
        "completion_tokens": completion,
        "cost_usd": cost,
    }


# --- eval-bootstrap --------------------------------------------------------


def _prepare_eval(seed: int, inputs_dir: Path, out_dir: Path, base_url: str) -> Inputs:
    result_a, result_b = gen.results_pair(_rng("eval-bootstrap", seed), EVAL_TASKS)
    paths = []
    for name, document in (("a", result_a), ("b", result_b)):
        path = inputs_dir / f"results_{name}.json"
        path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
        paths.append(str(path))
    scores = [
        {o["task_id"]: o["score"] for o in document["outcomes"]}
        for document in (result_a, result_b)
    ]
    ids = sorted(scores[0])
    mean_a = sum(scores[0][t] for t in ids) / len(ids)
    mean_b = sum(scores[1][t] for t in ids) / len(ids)
    argv = [
        "eval", *paths, "--b-samples", str(EVAL_RESAMPLES), "--seed", str(abs(seed)),
        "--out", str(out_dir / "eval.csv"),
    ]
    return Inputs(argv, {"delta": mean_a - mean_b})


def _check_eval(inputs: Inputs, out_dir: Path, stub: dict) -> dict:
    with (out_dir / "eval.csv").open(encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    _require(len(rows) == 1, "eval.csv should hold one row")
    row = rows[0]
    delta = float(row["delta"])
    _require(
        abs(delta - inputs.expected["delta"]) <= 1e-6,
        f"delta {delta} differs from the mean difference {inputs.expected['delta']:.6f}",
    )
    p_ab, p_ba = float(row["p_a_gt_b"]), float(row["p_b_gt_a"])
    _require(0.0 <= p_ab <= 1.0 and 0.0 <= p_ba <= 1.0, f"p-values out of range: {p_ab}, {p_ba}")
    return {"p_a_gt_b": row["p_a_gt_b"], "p_b_gt_a": row["p_b_gt_a"]}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "search-beam-oracle",
            "environment transitions and the exact oracle dominate; no stl, transport or bootstrap work",
            False,
            _prepare_beam_oracle,
            _check_beam_oracle,
        ),
        Workload(
            "stl-mcts-oracle",
            "the only workload running the stl pipeline and the tabular value model; oracle share is small",
            False,
            _prepare_stl,
            _check_stl,
        ),
        Workload(
            "search-beam-remote",
            "waiting on the chat transport dominates, so batching or overlapping value calls shows here",
            True,
            _prepare_remote,
            _check_remote,
        ),
        Workload(
            "eval-bootstrap",
            "paired_bootstrap at 1M resamples, the only numpy-bound layer",
            False,
            _prepare_eval,
            _check_eval,
        ),
    )
}
