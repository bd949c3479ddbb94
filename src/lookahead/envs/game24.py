"""Arithmetic 24 puzzle environment with exact rational arithmetic.

A state is a multiset of numbers (kept as a sorted tuple of ``Fraction``).
An action combines two of the remaining numbers with one of the four basic
operations; the episode ends when a single number remains, and the task
succeeds when that number is exactly 24.  Intermediate values may be negative
or fractional.

``solve_verdict`` is the exact solvability oracle: it decides by memoized
recursion over pairwise reductions whether 24 is reachable from the remaining
numbers.
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

from ..core import Action, State, Task, Trajectory
from .base import ActionRejected, Environment

TARGET = Fraction(24)

_ACTION_RE = re.compile(r"^(-?\d+(?:/\d+)?) ([+\-*/]) (-?\d+(?:/\d+)?)$")

Numbers = tuple[Fraction, ...]


def render_number(value: Fraction) -> str:
    """Render a rational exactly: integers plainly, otherwise ``p/q``."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def render_numbers(numbers: Iterable[Fraction]) -> str:
    return " ".join(render_number(n) for n in numbers)


def parse_numbers(text: str) -> Numbers:
    """Parse whitespace-separated rationals into a sorted tuple."""
    tokens = text.split()
    if not tokens:
        raise ValueError("no numbers found in task instruction")
    try:
        values = tuple(Fraction(token) for token in tokens)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"unparseable number in {text!r}") from exc
    return tuple(sorted(values))


def apply_op(a: Fraction, op: str, b: Fraction) -> Fraction:
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0:
            raise ActionRejected("division by zero")
        return a / b
    raise ActionRejected(f"unknown operation {op!r}")


def enumerate_actions(numbers: Sequence[Fraction]) -> list[Action]:
    """All distinct combine actions in the documented order.

    Pairs are visited by sorted index (0,1), (0,2), ...; within a pair the
    directed forms appear as a+b, a-b, b-a, a*b, a/b, b/a.  Commutative
    duplicates and same-text reversals collapse; division by zero is skipped.
    """
    actions: list[Action] = []
    seen: set[str] = set()
    size = len(numbers)
    for i in range(size):
        for j in range(i + 1, size):
            a, b = numbers[i], numbers[j]
            directed = [(a, "+", b), (a, "-", b), (b, "-", a), (a, "*", b)]
            if b != 0:
                directed.append((a, "/", b))
            if a != 0:
                directed.append((b, "/", a))
            for left, op, right in directed:
                text = f"{render_number(left)} {op} {render_number(right)}"
                if text not in seen:
                    seen.add(text)
                    actions.append(Action(text))
    return actions


def state_numbers(state: State) -> Numbers:
    if state.signature is None:
        raise ValueError(f"state {state.id} is not an arithmetic state")
    return parse_numbers(state.signature)


class Game24Env(Environment):
    """The 24 puzzle as a deterministic, fully enumerable environment."""

    name = "game24"

    def initial_state(self, task: Task) -> State:
        numbers = parse_numbers(task.instruction)
        if not 1 <= len(numbers) <= 4:
            raise ValueError(
                f"task {task.id} must provide between 1 and 4 numbers, "
                f"got {len(numbers)}"
            )
        signature = render_numbers(numbers)
        return State(
            id=f"24[{signature}]",
            depth=0,
            observation=signature,
            signature=signature,
        )

    def transition(self, state: State, action: Action) -> State:
        numbers = state_numbers(state)
        if len(numbers) <= 1:
            raise ActionRejected("state is terminal")
        match = _ACTION_RE.match(action.text)
        if match is None:
            raise ActionRejected(f"unparseable combine action {action.text!r}")
        left, op, right = Fraction(match.group(1)), match.group(2), Fraction(match.group(3))
        remaining = list(numbers)
        for operand in (left, right):
            try:
                remaining.remove(operand)
            except ValueError:
                raise ActionRejected(
                    f"operand {render_number(operand)} not present in "
                    f"{render_numbers(numbers)!r}"
                ) from None
        result = apply_op(left, op, right)
        successor = tuple(sorted(remaining + [result]))
        signature = render_numbers(successor)
        left_list = render_numbers([result] + remaining)
        observation = (
            f"{render_number(left)} {op} {render_number(right)} = "
            f"{render_number(result)} (left: {left_list})"
        )
        return State(
            id=f"24[{signature}]",
            depth=state.depth + 1,
            observation=observation,
            incoming_action=action,
            parent=state,
            signature=signature,
        )

    def is_terminal(self, state: State) -> bool:
        return len(state_numbers(state)) == 1

    def enumerable_actions(self, state: State) -> list[Action] | None:
        numbers = state_numbers(state)
        if len(numbers) <= 1:
            return []
        return enumerate_actions(numbers)

    def ground_truth_score(self, trajectory: Trajectory) -> float | None:
        """1.0 iff the trajectory ends on the single number 24, else 0.0."""
        numbers = state_numbers(trajectory.final_state)
        if len(numbers) == 1 and numbers[0] == TARGET:
            return 1.0
        return 0.0


class Verdict(str, Enum):
    SURE = "sure"
    IMPOSSIBLE = "impossible"


_oracle_cache: dict[Numbers, bool] = {}


def _reachable(numbers: Numbers) -> bool:
    if len(numbers) == 1:
        return numbers[0] == TARGET
    cached = _oracle_cache.get(numbers)
    if cached is not None:
        return cached
    result = False
    size = len(numbers)
    for i in range(size):
        for j in range(i + 1, size):
            a, b = numbers[i], numbers[j]
            rest = list(numbers)
            del rest[j], rest[i]
            candidates = [a + b, a * b, a - b, b - a]
            if b != 0:
                candidates.append(a / b)
            if a != 0:
                candidates.append(b / a)
            for value in candidates:
                if _reachable(tuple(sorted(rest + [value]))):
                    result = True
                    break
            if result:
                break
        if result:
            break
    _oracle_cache[numbers] = result
    return result


def solve_verdict(numbers: Iterable[Fraction | int]) -> Verdict:
    """Exact solvability verdict for a multiset of 1-4 numbers.

    Memoizes on the canonical sorted multiset, so repeated queries across
    permuted or revisited states are answered from cache.
    """
    canonical = tuple(sorted(Fraction(n) for n in numbers))
    if not canonical:
        raise ValueError("cannot judge an empty number multiset")
    return Verdict.SURE if _reachable(canonical) else Verdict.IMPOSSIBLE
