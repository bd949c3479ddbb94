#!/usr/bin/env python3
"""Self-training demo on the scripted shopping fixture.

Runs one iteration of lookahead data generation with per-depth datasets
(the shopping-domain configuration: depths 1-4, one trained model per depth),
then re-runs greedy search guided by the trained tabular model and reports
both searches side by side.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from lookahead.agents.policies import ExhaustivePolicy
from lookahead.agents.values import ScriptedValueModel
from lookahead.cli import ConfigError, load_tasks
from lookahead.envs.scripted import ScriptedEnvironment
from lookahead.evaluation import Ledger, MethodResult, TaskOutcome, emit_report
from lookahead.search import SearchConfig, greedy_search
from lookahead.stl import StlConfig, TabularTrainer, stl_run

import json


def load_values(path: Path) -> ScriptedValueModel:
    data = json.loads(path.read_text(encoding="utf-8"))
    return ScriptedValueModel(values=data["values"], default=data.get("default", 0.0))


def run_greedy(tasks, env, policy, model, config, method: str) -> MethodResult:
    ledger = Ledger()
    outcomes = []
    for task in tasks:
        tree = greedy_search(task, env, policy, model, config, ledger)
        score = env.ground_truth_score(tree.final_trajectory())
        success = score is not None and score >= 1.0
        outcomes.append(
            TaskOutcome(
                task_id=task.id, score=score, success=success, attempts=(success,)
            )
        )
    return MethodResult(method=method, outcomes=outcomes, ledger=ledger)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--env-fixture", type=Path, default=Path("fixtures/webshop_demo_env.json")
    )
    parser.add_argument(
        "--values-fixture", type=Path, default=Path("fixtures/webshop_demo_values.json")
    )
    parser.add_argument(
        "--tasks", type=Path, default=Path("fixtures/webshop_tasks_50.json")
    )
    parser.add_argument("--out", type=Path, default=Path("runs/scripted-stl-demo"))
    args = parser.parse_args()

    env = ScriptedEnvironment.load(args.env_fixture)
    try:
        tasks = load_tasks(args.tasks, env)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    policy = ExhaustivePolicy(env)
    base_model = load_values(args.values_fixture)
    search_config = SearchConfig(branching=3, max_depth=5)
    stl_config = StlConfig(
        iterations=1,
        tasks_per_iteration=len(tasks),
        engine="greedy",
        per_depth=True,
        min_example_depth=1,
    )

    result = stl_run(
        tasks=tasks,
        env=env,
        policy=policy,
        base_model=base_model,
        trainer=TabularTrainer(),
        stl_config=stl_config,
        search_config=search_config,
        out_dir=args.out / "stl",
    )
    report = result.reports[-1]
    sizes = ", ".join(f"depth {d}: {n}" for d, n in sorted(report.per_depth_sizes.items()))
    print(f"datasets written: {sizes}")

    base_result = run_greedy(tasks, env, policy, base_model, search_config, "greedy+base")
    trained_result = run_greedy(
        tasks, env, policy, result.final_model, search_config, "greedy+stl"
    )
    paths = emit_report([base_result, trained_result], args.out / "report", k=1)
    print(f"report: {paths['summary']}")
    for r in (base_result, trained_result):
        rate = sum(o.success for o in r.outcomes) / len(r.outcomes)
        print(
            f"{r.method}: success {rate:.2f}, "
            f"states expanded {r.ledger.states_expanded}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
