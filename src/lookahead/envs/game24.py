"""Arithmetic 24 puzzle environment with exact rational arithmetic.

A state is a multiset of numbers.  Each :class:`Game24State` carries it as
the oracle's flat integer key (``oracle_key``, see ``OracleKey``): every
number ``p/q`` in lowest terms with ``q > 0``, in ascending order of value.
Its ``signature`` holds the same numbers' canonical texts in the same order.
A transition finds its operands by their text in the signature, combines
them in integers, and inserts the reduced result into both; so
``transition``, ``enumerable_actions``, ``is_terminal`` and the oracle build
no ``Fraction``.  ``Fraction`` parses task instructions and operands spelled
other than canonically (``04``, ``2/4``).

An action combines two of the remaining numbers with one of the four basic
operations; the episode ends when a single number remains, and the task
succeeds when that number is exactly 24.  Intermediate values may be
negative or fractional.

``solve_verdict`` is the exact solvability oracle: it decides by memoized
recursion over pairwise reductions whether 24 is reachable from the remaining
numbers.  The memo and the recursion work on the same integer keys, so a
state's verdict starts from the key it carries.  Three numbers, the states a
search judges first, take one loop over their three pairs instead of the
recursion; it fills the memo with the same entries in the same order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Sequence

from ..core import Action, State, Task, Trajectory
from .base import ActionRejected, Environment

_TARGET = 24

_ACTION_RE = re.compile(r"^(-?\d+(?:/\d+)?) ([+\-*/]) (-?\d+(?:/\d+)?)$")

Numbers = tuple[Fraction, ...]

# A multiset as ``(p1, q1, p2, q2, ...)``: each number p/q in lowest terms
# with q > 0, the numbers in ascending order of value.
OracleKey = tuple[int, ...]


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


def _flat_key(numbers: Iterable[Fraction]) -> OracleKey:
    """The ``OracleKey`` of fractions given in ascending order."""
    return tuple(x for n in numbers for x in (n.numerator, n.denominator))


def _combine_actions(texts: Sequence[str]) -> list[Action]:
    """All distinct combine actions on the canonical ``texts`` of ascending
    numbers.

    Pairs are visited by sorted index (0,1), (0,2), ...; within a pair the
    directed forms appear as a+b, a-b, b-a, a*b, a/b, b/a.  Commutative
    duplicates and same-text reversals collapse; division by zero (the text
    ``0``) is skipped.
    """
    actions: list[Action] = []
    seen: set[str] = set()
    size = len(texts)
    for i in range(size):
        for j in range(i + 1, size):
            a, b = texts[i], texts[j]
            directed = [(a, "+", b), (a, "-", b), (b, "-", a), (a, "*", b)]
            if b != "0":
                directed.append((a, "/", b))
            if a != "0":
                directed.append((b, "/", a))
            for left, op, right in directed:
                text = f"{left} {op} {right}"
                if text not in seen:
                    seen.add(text)
                    actions.append(Action(text))
    return actions


@dataclass(frozen=True)
class Game24State(State):
    """A game24 state carrying its number multiset as an ``OracleKey``.

    ``oracle_key`` lists the numbers ``signature`` spells, in the same
    order, as integer numerator/denominator pairs.  It is left out of
    equality, hashing and repr: ``signature`` determines it.
    """

    oracle_key: OracleKey = field(default=(), compare=False, repr=False)


def _oracle_key(state: State) -> OracleKey:
    """The ``OracleKey`` of a state built by :class:`Game24Env`."""
    if isinstance(state, Game24State) and state.oracle_key:
        return state.oracle_key
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
            oracle_key=_flat_key(numbers),
        )

    def transition(self, state: State, action: Action) -> State:
        key = _oracle_key(state)
        if len(key) <= 2:
            raise ActionRejected("state is terminal")
        match = _ACTION_RE.match(action.text)
        if match is None:
            raise ActionRejected(f"unparseable combine action {action.text!r}")
        left_text, op, right_text = match.groups()
        # The signature holds each number's canonical text, in key order, so
        # an operand written that way is found without parsing it.
        texts = state.signature.split(" ")  # type: ignore[union-attr]
        rest = list(key)
        terms: list[int] = []
        operand_texts: list[str] = []
        for text in (left_text, right_text):
            try:
                index = texts.index(text)
            except ValueError:
                index = _index_of_value(text, rest, state.signature)
            operand_texts.append(texts.pop(index))
            terms += rest[2 * index : 2 * index + 2]
            del rest[2 * index : 2 * index + 2]
        p, q, r, s = terms
        if op == "+":
            num, den = p * s + r * q, q * s
        elif op == "-":
            num, den = p * s - r * q, q * s
        elif op == "*":
            num, den = p * r, q * s
        else:
            if r == 0:
                raise ActionRejected("division by zero")
            num, den = p * s, q * r
            if den < 0:
                num, den = -num, -den
        g = gcd(num, den)
        if g != 1:
            num //= g
            den //= g
        result_text = str(num) if den == 1 else f"{num}/{den}"
        left_list = " ".join([result_text, *texts])
        # Insert after every number not greater than the result, found by
        # cross-multiplying (denominators are positive): where bisect_right
        # would put it.
        position = len(texts)
        for k in range(position):
            if num * rest[2 * k + 1] < rest[2 * k] * den:
                position = k
                break
        rest[2 * position : 2 * position] = (num, den)
        texts.insert(position, result_text)
        signature = " ".join(texts)
        observation = (
            f"{operand_texts[0]} {op} {operand_texts[1]} = "
            f"{result_text} (left: {left_list})"
        )
        # Positional: keyword arguments cost a sixth of the construction.
        return Game24State(
            f"24[{signature}]",  # id
            state.depth + 1,  # depth
            observation,
            action,  # incoming_action
            state,  # parent
            signature,
            tuple(rest),  # oracle_key
        )

    def is_terminal(self, state: State) -> bool:
        return len(_oracle_key(state)) == 2

    def enumerable_actions(self, state: State) -> list[Action]:
        if len(_oracle_key(state)) <= 2:
            return []
        return _combine_actions(state.signature.split(" "))  # type: ignore[union-attr]

    def ground_truth_score(self, trajectory: Trajectory) -> float | None:
        """1.0 iff the trajectory ends on the single number 24, else 0.0."""
        return 1.0 if _oracle_key(trajectory.final_state) == (_TARGET, 1) else 0.0


def _index_of_value(text: str, rest: list[int], signature: str | None) -> int:
    """Where in ``rest`` (flat key terms) an operand spelled other than
    canonically (``04``, ``2/4``) sits, as a number index."""
    try:
        operand = Fraction(text)
    except ZeroDivisionError:
        raise ActionRejected(f"operand {text!r} divides by zero") from None
    num, den = operand.numerator, operand.denominator
    for k in range(0, len(rest), 2):
        if rest[k] == num and rest[k + 1] == den:
            return k // 2
    raise ActionRejected(
        f"operand {render_number(operand)} not present in {signature!r}"
    )


class Verdict(str, Enum):
    SURE = "sure"
    IMPOSSIBLE = "impossible"


_oracle_cache: dict[OracleKey, bool] = {}


def _reachable(key: OracleKey) -> bool:
    size = len(key)
    if size == 2:
        return key == (_TARGET, 1)
    cached = _oracle_cache.get(key)
    if cached is not None:
        return cached
    if size == 4:
        result = _pair_reaches_target(*key)
    elif size == 6:
        result = _triple_reaches_target(key)
    else:
        result = any(map(_reachable, _reductions(key)))
    _oracle_cache[key] = result
    return result


# Flat indices of a three-number key's pairs, by sorted index, each with the
# index of the number the pair leaves.
_TRIPLE_PAIRS = ((0, 2, 4), (0, 4, 2), (2, 4, 0))


def _triple_reaches_target(key: OracleKey) -> bool:
    """Whether some reduction of a three-number key reaches the target.

    The successors are those :func:`_reductions` yields, in its order: each
    result is reduced and placed before or after the left-over number with
    one cross-multiplied comparison, and its two-number key is judged through
    the memo, filling it as the generic recursion would, until one reaches
    the target.
    """
    cache = _oracle_cache
    for i, j, k in _TRIPLE_PAIRS:
        p, q, r, s = key[i], key[i + 1], key[j], key[j + 1]
        x, y = key[k], key[k + 1]
        ps, rq, qs = p * s, r * q, q * s
        # A zero denominator is a division by zero (q and s are positive).
        results = ((ps + rq, qs), (p * r, qs), (ps - rq, qs), (rq - ps, qs), (ps, rq), (rq, ps))
        for num, den in results:
            if not den:
                continue
            if den < 0:
                num, den = -num, -den
            g = gcd(num, den)
            if g != 1:
                num //= g
                den //= g
            pair = (num, den, x, y) if num * y < x * den else (x, y, num, den)
            reached = cache.get(pair)
            if reached is None:
                reached = cache[pair] = _pair_reaches_target(*pair)
            if reached:
                return True
    return False


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
    ps, rq, target = p * s, r * q, _TARGET * q * s
    return (
        ps + rq == target
        or p * r == target
        or ps - rq == target
        or rq - ps == target
        or (r != 0 and ps == _TARGET * q * r)
        or (p != 0 and rq == _TARGET * p * s)
    )


def solve_verdict(numbers: State | Iterable[Fraction | int]) -> Verdict:
    """Exact solvability verdict for a multiset of 1-4 numbers.

    A state built by :class:`Game24Env` is judged from the key it carries;
    any other ``State`` raises ``ValueError``.  Other numbers are sorted into
    one flat integer key, so permuted or revisited states share a memo entry
    and the recursion below handles integers only.
    """
    if isinstance(numbers, State):
        key = _oracle_key(numbers)
    else:
        canonical = sorted(n if isinstance(n, Fraction) else Fraction(n) for n in numbers)
        if not canonical:
            raise ValueError("cannot judge an empty number multiset")
        key = _flat_key(canonical)
    return Verdict.SURE if _reachable(key) else Verdict.IMPOSSIBLE
