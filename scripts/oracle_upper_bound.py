#!/usr/bin/env python3
"""Upper-bound run: beam search with the exhaustive oracle evaluator.

With a perfect evaluator the only way to miss a solvable puzzle is proposal
truncation, so the solve rate here bounds what any trained value model can
reach under the same search budget.  Prints per-puzzle results and the
aggregate solve rate plus states expanded.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from lookahead.agents.policies import ExhaustivePolicy
from lookahead.agents.values import OracleValueModel
from lookahead.cli import ConfigError, load_tasks
from lookahead.envs.game24 import Game24Env
from lookahead.evaluation import Ledger
from lookahead.search import SearchConfig, beam_search


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tasks", type=Path, default=Path("fixtures/game24_test_50.json")
    )
    parser.add_argument("--branching", type=int, default=5)
    parser.add_argument("--beam-width", type=int, default=5)
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args()

    env = Game24Env()
    policy = ExhaustivePolicy(env)
    oracle = OracleValueModel()
    config = SearchConfig(
        branching=args.branching, beam_width=args.beam_width, max_depth=3
    )
    ledger = Ledger()

    try:
        tasks = load_tasks(args.tasks, env)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    solved = 0
    for task in tasks:
        tree = beam_search(task, env, policy, oracle, config, ledger)
        hit = env.ground_truth_score(tree.final_trajectory()) == 1.0
        solved += hit
        if not args.quiet:
            flag = "solved" if hit else "MISSED"
            print(
                f"{task.id}  {task.instruction:<12}  {flag}  "
                f"(expanded {tree.stats.states_expanded})"
            )

    print(f"solve rate: {solved}/{len(tasks)} = {solved / len(tasks):.3f}")
    print(f"states expanded: {ledger.states_expanded}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
