#!/usr/bin/env python3
"""Generate the arithmetic-puzzle task fixtures.

Draws random 4-tuples from 1-13 and writes two task files:

* a test set of puzzles that are (a) solvable per the exhaustive oracle and
  (b) actually solved by width-5 beam search with branching 5 and the oracle
  value model.  The engine check matters: proposal truncation at B=5 drops
  some legal first moves, so a handful of oracle-solvable puzzles (fraction
  tricks like ``3 3 8 8``) are unreachable under that truncated budget and
  would poison an upper-bound fixture.
* a rollout set of oracle-solvable puzzles disjoint from the test set.

Re-running with the same seed reproduces both files byte-for-byte.
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

from lookahead.agents.policies import ExhaustivePolicy
from lookahead.agents.values import OracleValueModel
from lookahead.core import Task
from lookahead.envs.game24 import Game24Env, Verdict, parse_numbers, solve_verdict
from lookahead.search import SearchConfig, beam_search


def beam_solves(instruction: str, config: SearchConfig) -> bool:
    env = Game24Env()
    task = Task(id="probe", instruction=instruction)
    tree = beam_search(task, env, ExhaustivePolicy(env), OracleValueModel(), config)
    return env.ground_truth_score(tree.final_trajectory()) == 1.0


def draw_instruction(rng: random.Random) -> str:
    numbers = sorted(rng.randint(1, 13) for _ in range(4))
    return " ".join(str(n) for n in numbers)


def write_tasks(path: Path, prefix: str, instructions: list[str], split: str) -> None:
    tasks = [
        {"id": f"{prefix}{i + 1:03d}", "instruction": text, "split": split}
        for i, text in enumerate(instructions)
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps({"tasks": tasks}, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {path} ({len(tasks)} tasks)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=24)
    parser.add_argument("--test-count", type=int, default=50)
    parser.add_argument("--rollout-count", type=int, default=100)
    parser.add_argument("--out-dir", type=Path, default=Path("fixtures"))
    args = parser.parse_args()

    rng = random.Random(args.seed)
    config = SearchConfig(branching=5, max_depth=3, beam_width=5)

    test_set: list[str] = []
    rollout_set: list[str] = []
    seen: set[str] = set()
    examined = 0
    while len(test_set) < args.test_count or len(rollout_set) < args.rollout_count:
        instruction = draw_instruction(rng)
        examined += 1
        if instruction in seen:
            continue
        seen.add(instruction)
        if solve_verdict(parse_numbers(instruction)) is not Verdict.SURE:
            continue
        if len(test_set) < args.test_count and beam_solves(instruction, config):
            test_set.append(instruction)
        elif len(rollout_set) < args.rollout_count:
            rollout_set.append(instruction)

    write_tasks(
        args.out_dir / f"game24_test_{args.test_count}.json", "g24t", test_set, "test"
    )
    write_tasks(
        args.out_dir / f"game24_rollout_{args.rollout_count}.json",
        "g24r",
        rollout_set,
        "rollout",
    )
    print(f"examined {examined} draws ({len(seen)} distinct)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
