"""Seeded input generators and the benchmark's own 24-puzzle enumerator.

Nothing here imports the package under test: which puzzles are solvable is
decided by :func:`solvable`, a brute-force search over expression trees, so a
broken package oracle cannot change the inputs it is judged on.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from pathlib import Path

TARGET = Fraction(24)


def _values(seq: tuple[Fraction, ...]) -> set[Fraction]:
    """Every value an expression tree over ``seq`` (in this order) can take."""
    if len(seq) == 1:
        return {seq[0]}
    out: set[Fraction] = set()
    for split in range(1, len(seq)):
        for left in _values(seq[:split]):
            for right in _values(seq[split:]):
                out.add(left + right)
                out.add(left - right)
                out.add(left * right)
                if right != 0:
                    out.add(left / right)
    return out


@lru_cache(maxsize=None)
def solvable(numbers: tuple[int, ...]) -> bool:
    """True iff some arithmetic expression over all ``numbers`` equals 24."""
    pool = tuple(Fraction(n) for n in numbers)
    return any(TARGET in _values(perm) for perm in set(permutations(pool)))


def draw_puzzles(
    rng: random.Random, count: int, unsolvable_share: float
) -> list[tuple[tuple[int, ...], bool]]:
    """``count`` distinct sorted four-number puzzles (1-13) with their verdicts.

    Puzzles are drawn uniformly; the number that are unsolvable is fixed at
    ``round(count * unsolvable_share)`` so that seeds differ in which puzzles
    they hold, not in how many of each kind.
    """
    want_unsolvable = round(count * unsolvable_share)
    want_solvable = count - want_unsolvable
    seen: set[tuple[int, ...]] = set()
    picked: list[tuple[tuple[int, ...], bool]] = []
    while want_solvable or want_unsolvable:
        numbers = tuple(sorted(rng.randint(1, 13) for _ in range(4)))
        if numbers in seen:
            continue
        seen.add(numbers)
        verdict = solvable(numbers)
        if verdict and want_solvable:
            want_solvable -= 1
        elif not verdict and want_unsolvable:
            want_unsolvable -= 1
        else:
            continue
        picked.append((numbers, verdict))
    rng.shuffle(picked)
    return picked


def write_tasks(path: Path, puzzles: list[tuple[int, ...]], split: str, prefix: str) -> None:
    tasks = [
        {
            "id": f"{prefix}{index:04d}",
            "instruction": " ".join(str(n) for n in numbers),
            "split": split,
        }
        for index, numbers in enumerate(puzzles)
    ]
    path.write_text(json.dumps({"tasks": tasks}, indent=1) + "\n", encoding="utf-8")


def results_pair(rng: random.Random, count: int) -> tuple[dict, dict]:
    """Two results documents over the same task ids with continuous scores.

    System A leads system B by a small margin, so the comparison is not
    degenerate in either direction.
    """
    outcomes_a, outcomes_b = [], []
    for index in range(count):
        task_id = f"r{index:04d}"
        base = rng.random()
        score_a = min(1.0, max(0.0, base + rng.gauss(0.03, 0.2)))
        score_b = min(1.0, max(0.0, base + rng.gauss(0.0, 0.2)))
        for outcomes, score in ((outcomes_a, score_a), (outcomes_b, score_b)):
            outcomes.append(
                {
                    "task_id": task_id,
                    "score": round(score, 6),
                    "success": score >= 0.5,
                    "attempts": [score >= 0.5],
                }
            )
    return (
        {"method": "system-a", "outcomes": outcomes_a, "ledger": {}},
        {"method": "system-b", "outcomes": outcomes_b, "ledger": {}},
    )
