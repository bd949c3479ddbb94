"""Arithmetic 24 puzzle environment with exact rational arithmetic.

A state is a multiset of numbers.  Each :class:`Game24State` carries them as
a sorted tuple of ``Fraction`` (``numbers``), built once when the state is
made; its ``signature`` and ``id`` are rendered from that tuple, and every
environment method and the oracle read the tuple rather than re-parsing the
signature.  An action combines two of the remaining numbers with one of the
four basic operations; the episode ends when a single number remains, and
the task succeeds when that number is exactly 24.  Intermediate values may
be negative or fractional.

``solve_verdict`` is the exact solvability oracle: it decides by memoized
recursion over pairwise reductions whether 24 is reachable from the remaining
numbers.  The memo and the recursion work on flat integer keys
(``OracleKey``), so no ``Fraction`` is built, hashed or compared below
``solve_verdict``.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Sequence

from ..core import Action, State, Task, Trajectory
from .base import ActionRejected, Environment

TARGET = Fraction(24)
_TARGET_INT = TARGET.numerator  # the target is whole; the oracle compares ints

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
    rendered = [render_number(n) for n in numbers]
    size = len(numbers)
    for i in range(size):
        for j in range(i + 1, size):
            a, b = rendered[i], rendered[j]
            directed = [(a, "+", b), (a, "-", b), (b, "-", a), (a, "*", b)]
            if numbers[j] != 0:
                directed.append((a, "/", b))
            if numbers[i] != 0:
                directed.append((b, "/", a))
            for left, op, right in directed:
                text = f"{left} {op} {right}"
                if text not in seen:
                    seen.add(text)
                    actions.append(Action(text))
    return actions


@dataclass(frozen=True)
class Game24State(State):
    """A game24 state carrying its sorted number multiset.

    ``numbers`` is left out of equality, hashing and repr: ``signature`` is
    rendered from it, so two states with equal fields have equal numbers.
    """

    numbers: Numbers = field(default=(), compare=False, repr=False)


def state_numbers(state: State) -> Numbers:
    """The sorted numbers of a state built by :class:`Game24Env`."""
    if isinstance(state, Game24State) and state.numbers:
        return state.numbers
    raise ValueError(f"state {state.id} is not an arithmetic state")


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
        return Game24State(
            id=f"24[{signature}]",
            depth=0,
            observation=signature,
            signature=signature,
            numbers=numbers,
        )

    def transition(self, state: State, action: Action) -> State:
        numbers = state_numbers(state)
        if len(numbers) <= 1:
            raise ActionRejected("state is terminal")
        match = _ACTION_RE.match(action.text)
        if match is None:
            raise ActionRejected(f"unparseable combine action {action.text!r}")
        left_text, op, right_text = match.groups()
        # The signature holds each number's canonical rendering, in order, so
        # an operand written that way is found without parsing it.
        texts = state.signature.split(" ")  # type: ignore[union-attr]
        remaining = list(numbers)
        operands: list[Fraction] = []
        operand_texts: list[str] = []
        for text in (left_text, right_text):
            try:
                index = texts.index(text)
            except ValueError:
                index = _index_of_value(text, remaining, state.signature)
            operands.append(remaining.pop(index))
            operand_texts.append(texts.pop(index))
        result = apply_op(operands[0], op, operands[1])
        result_text = render_number(result)
        left_list = " ".join([result_text, *texts])
        position = bisect_right(remaining, result)
        remaining.insert(position, result)
        texts.insert(position, result_text)
        signature = " ".join(texts)
        observation = (
            f"{operand_texts[0]} {op} {operand_texts[1]} = "
            f"{result_text} (left: {left_list})"
        )
        return Game24State(
            id=f"24[{signature}]",
            depth=state.depth + 1,
            observation=observation,
            incoming_action=action,
            parent=state,
            signature=signature,
            numbers=tuple(remaining),
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


def _index_of_value(text: str, numbers: list[Fraction], signature: str | None) -> int:
    """Where an operand spelled other than canonically (``04``, ``2/4``) sits."""
    try:
        operand = Fraction(text)
    except ZeroDivisionError:
        raise ActionRejected(f"operand {text!r} divides by zero") from None
    try:
        return numbers.index(operand)
    except ValueError:
        raise ActionRejected(
            f"operand {render_number(operand)} not present in {signature!r}"
        ) from None


class Verdict(str, Enum):
    SURE = "sure"
    IMPOSSIBLE = "impossible"


# A multiset as ``(p1, q1, p2, q2, ...)``: each number p/q in lowest terms
# with q > 0, the numbers in ascending order of value.
OracleKey = tuple[int, ...]

_oracle_cache: dict[OracleKey, bool] = {}


def _reachable(key: OracleKey) -> bool:
    if len(key) == 2:
        return key == (_TARGET_INT, 1)
    cached = _oracle_cache.get(key)
    if cached is not None:
        return cached
    if len(key) == 4:
        result = _pair_reaches_target(*key)
    else:
        result = any(map(_reachable, _reductions(key)))
    _oracle_cache[key] = result
    return result


def _reductions(key: OracleKey) -> Iterator[OracleKey]:
    """The key of each successor multiset, computed as needed.

    Pairs go by sorted index; within a pair the values are a+b, a*b, a-b,
    b-a, a/b, b/a, skipping division by zero.  With a = p/q and b = r/s each
    value is an integer numerator and denominator, which :func:`_insert`
    reduces and places among the other numbers.
    """
    size = len(key)
    for i in range(0, size, 2):
        p, q = key[i], key[i + 1]
        for j in range(i + 2, size, 2):
            r, s = key[j], key[j + 1]
            rest = key[:i] + key[i + 2 : j] + key[j + 2 :]
            ps, rq, qs = p * s, r * q, q * s
            yield _insert(rest, ps + rq, qs)
            yield _insert(rest, p * r, qs)
            yield _insert(rest, ps - rq, qs)
            yield _insert(rest, rq - ps, qs)
            if r:
                yield _insert(rest, ps, rq)
            if p:
                yield _insert(rest, rq, ps)


def _insert(rest: OracleKey, num: int, den: int) -> OracleKey:
    """``rest`` with ``num/den`` added in lowest terms at its place by value.

    The place is found by cross-multiplying, which is exact because every
    denominator is positive; equal values have equal terms, so ties need no
    rule.
    """
    if den < 0:
        num, den = -num, -den
    g = gcd(num, den)
    if g != 1:
        num //= g
        den //= g
    for k in range(0, len(rest), 2):
        if num * rest[k + 1] < rest[k] * den:
            return (*rest[:k], num, den, *rest[k:])
    return (*rest, num, den)


def _pair_reaches_target(p: int, q: int, r: int, s: int) -> bool:
    """Whether one operation on p/q and r/s gives the target.

    Each result is compared with the target over the common denominator, so
    nothing is reduced.
    """
    ps, rq, target = p * s, r * q, _TARGET_INT * q * s
    return (
        ps + rq == target
        or p * r == target
        or ps - rq == target
        or rq - ps == target
        or (r != 0 and ps == _TARGET_INT * q * r)
        or (p != 0 and rq == _TARGET_INT * p * s)
    )


def solve_verdict(numbers: Iterable[Fraction | int]) -> Verdict:
    """Exact solvability verdict for a multiset of 1-4 numbers.

    The sorted multiset becomes one flat integer key, so permuted or
    revisited states share a memo entry and the recursion below handles
    integers only.
    """
    canonical = sorted(n if isinstance(n, Fraction) else Fraction(n) for n in numbers)
    if not canonical:
        raise ValueError("cannot judge an empty number multiset")
    key = tuple(x for n in canonical for x in (n.numerator, n.denominator))
    return Verdict.SURE if _reachable(key) else Verdict.IMPOSSIBLE
