"""Shared domain types for lookahead value learning.

Defines the vocabulary used across environments, agents, search engines and
the training-data pipeline: tasks, actions, states, trajectories, value
estimates and training examples, plus the two canonical derived forms
(rendered trajectory context and the state key used for deduplication),
the one JSON layout every artifact file is written in, and what every input
reader shares: the one error (:class:`ConfigError`), the one JSON reader
(:func:`read_json`, which requires an object) and the checkers that refuse a
value through the same few rules and wordings (:func:`check_object`,
:func:`check_str`, :func:`check_bool`, :func:`check_int`,
:func:`check_number` and :func:`check_list`).  The lookahead
record a training example is distilled from lives with its only users, in
:mod:`lookahead.stl`.
A state links to its parent, so a path is stored once: a trajectory is a task
plus the state it ends at, and the path is that state's parent chain.  Each
state below the root records the action that reached it, so nothing else
stores that action, and a value model, a policy or a state key is given the
trajectory alone.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Any, NoReturn


class ConfigError(Exception):
    """Bad input: a config, spec string, command line or input file that
    breaks its contract.  The message names the field or file, and the
    command-line entry point exits 2 with it."""


def canonicalize(text: str) -> str:
    """Trim and collapse internal whitespace runs to single spaces.

    Whitespace is what ``str.split`` splits on, the same characters as the
    regex class ``\\s``.  Case is preserved.  The function is idempotent.
    """
    return " ".join(text.split())


@dataclass(frozen=True)
class Action:
    """A canonical environment action.

    ``text`` must already be canonical (see :func:`canonicalize`); use
    :meth:`Action.make` to build one from raw text.
    """

    text: str

    def __post_init__(self) -> None:
        if not self.text:
            raise ValueError("action text must be non-empty")
        if self.text != canonicalize(self.text):
            raise ValueError(f"action text is not canonical: {self.text!r}")

    @classmethod
    def make(cls, text: str) -> "Action":
        return cls(text=canonicalize(text))


@dataclass(frozen=True)
class Task:
    id: str
    instruction: str

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("task id must be non-empty")
        if not self.instruction:
            raise ValueError("task instruction must be non-empty")


@dataclass(frozen=True)
class State:
    """A node in an environment's state space, as reached along one path.

    ``signature`` optionally carries a canonical path-independent identity
    (e.g. the sorted number multiset in the arithmetic environment); when
    present it drives :func:`state_key`, otherwise the rendered trajectory
    context does.  An environment may subclass this to carry its own parsed
    form of the state alongside (the arithmetic environment's state keeps
    its numbers as an integer key), left out of equality, hashing and repr.
    """

    id: str
    depth: int
    observation: str
    incoming_action: Action | None = None
    parent: "State | None" = None
    signature: str | None = None

    def __post_init__(self) -> None:
        if self.parent is None:
            if self.incoming_action is not None:
                raise ValueError("root state cannot have an incoming action")
            if self.depth != 0:
                raise ValueError("root state must have depth 0")
        else:
            if self.incoming_action is None:
                raise ValueError("non-root state requires an incoming action")
            if self.depth != self.parent.depth + 1:
                raise ValueError(
                    f"state depth {self.depth} must be parent depth + 1 "
                    f"({self.parent.depth + 1})"
                )

    def lineage(self) -> list["State"]:
        """States from the root to this state, inclusive."""
        chain: list[State] = []
        node: State | None = self
        while node is not None:
            chain.append(node)
            node = node.parent
        chain.reverse()
        return chain


@dataclass(frozen=True)
class Trajectory:
    """The path from a root state down to ``final_state``, taken for ``task``.

    The path is ``final_state``'s parent chain (:meth:`State.lineage`), which
    :class:`State` already checks link by link, so a trajectory holds no copy
    of it and building one costs O(1).
    """

    task: Task
    final_state: State

    @classmethod
    def from_state(cls, task: Task, state: State) -> "Trajectory":
        """The trajectory from the root down to ``state``."""
        return cls(task, state)

    @property
    def depth(self) -> int:
        return self.final_state.depth


class Aggregation(str, Enum):
    MEAN = "mean"
    MEDIAN = "median"


def aggregate(values: list[float], aggregation: Aggregation) -> float:
    if not values:
        raise ValueError("cannot aggregate an empty sample list")
    if aggregation is Aggregation.MEAN:
        return sum(values) / len(values)
    return float(statistics.median(values))


@dataclass(frozen=True)
class ValueEstimate:
    """An aggregated value judgment for one state.

    ``value`` aggregates ``samples`` in the way the value model that made
    the estimate was built with; ``rationale`` is the text of the sample
    chosen to represent the estimate.
    """

    rationale: str
    value: float
    samples: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.samples:
            raise ValueError("value estimate requires at least one sample")


@dataclass(frozen=True)
class TrainingExample:
    """A (context, completion) pair distilled from one lookahead record.

    ``value`` is the lookahead target parsed back out of ``completion`` when
    the example was built, or ``None`` when it was read from a file without
    its scale; it is left out of equality and hashing.  ``jsonl`` is the
    example's export line: its ``RECORD_FIELDS`` as JSON, encoded on first
    use and kept.
    """

    RECORD_FIELDS = ("task_id", "context", "completion", "depth", "iteration", "state_key")

    task_id: str
    context: str
    completion: str
    depth: int
    iteration: int
    state_key: str
    value: float | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.depth < 0:
            raise ValueError("training example depth cannot be negative")
        if self.iteration < 1:
            raise ValueError("training example iteration starts at 1")

    @cached_property
    def jsonl(self) -> str:
        record = {name: getattr(self, name) for name in self.RECORD_FIELDS}
        return json.dumps(record, sort_keys=True, ensure_ascii=False)


def render_context(trajectory: Trajectory) -> str:
    """Render a trajectory as the deterministic text context fed to value models.

    The instruction comes first; each state below the root, walked down the
    final state's lineage, contributes an ``Action:`` / ``Observation:`` pair
    (its incoming action and its observation).  A trajectory that ends at the
    root renders as the instruction only.  Re-rendering an equal trajectory is
    byte-identical.
    """
    parts = [trajectory.task.instruction]
    for state in trajectory.final_state.lineage()[1:]:
        action = state.incoming_action.text  # type: ignore[union-attr]
        parts.append(f"\n\nAction: {action}\nObservation: {state.observation}")
    return "".join(parts)


def state_key(trajectory: Trajectory) -> str:
    """An opaque content-derived key identifying the trajectory's final state.

    States that declare a canonical ``signature`` (path-independent identity)
    are keyed on it alone, so permutation-equivalent number sets collide as
    intended across tasks and iterations.  All other states are keyed on the
    rendered context, which already embeds the task instruction.
    """
    final = trajectory.final_state
    if final.signature is not None:
        payload = "signature:" + final.signature
    else:
        payload = "context:" + render_context(trajectory)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def write_json(path: str | Path, data: object) -> None:
    """Write ``data`` in the artifact layout: sorted keys, two-space indent,
    non-ASCII text kept as UTF-8, one trailing newline.  Creates the parent
    directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(data, sort_keys=True, indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )


def read_json(path: str | Path, what: str) -> dict:
    """The JSON object in the ``what`` file at ``path``; a file that is
    missing, a directory, unreadable, malformed or not an object raises
    :class:`ConfigError` naming it."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"{what} file does not exist: {path}") from None
    except IsADirectoryError:
        raise ConfigError(f"{what} file {path} is a directory") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} file {path} is not valid JSON: {exc}") from None
    except ValueError as exc:  # not UTF-8, or an integer over the digit limit
        raise ConfigError(f"{what} file {path} cannot be read: {exc}") from None
    return check_object(data, f"{what} file {path}")


# The input checkers.  Each returns its value unchanged (nothing is coerced)
# or raises ConfigError("<where> must be <rule>, got <value>"); a key that is
# missing is read as null, so it is refused as that.  A non-empty object or
# list, which may be a whole section of a document, is named, not shown.


def _shown(value: object) -> str:
    if isinstance(value, (dict, list)) and value:
        return "an object" if isinstance(value, dict) else "a list"
    return repr(value)


def _refuse(where: str, rule: str, value: object) -> NoReturn:
    raise ConfigError(f"{where} must be {rule}, got {_shown(value)}")


def check_object(value: Any, where: str) -> dict:
    """``value`` if it is a JSON object; the refusal does not show the value,
    since a wrong document or section may be large."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object")
    return value


def check_str(value: Any, where: str, *, nullable: bool = False) -> str | None:
    if not (isinstance(value, str) or (nullable and value is None)):
        _refuse(where, "a string or null" if nullable else "a string", value)
    return value


def check_bool(value: Any, where: str) -> bool:
    if not isinstance(value, bool):
        _refuse(where, "a bool", value)
    return value


def check_int(value: Any, where: str, minimum: int | None = None) -> int:
    """``value`` if it is an int, not a bool, of at least ``minimum`` when given."""
    if type(value) is not int or (minimum is not None and value < minimum):
        _refuse(where, "an int" if minimum is None else f"an int of at least {minimum}", value)
    return value


def check_number(
    value: Any, where: str, minimum: float | None = None, *, nullable: bool = False
) -> float | None:
    """``value`` if it is a JSON number, not a bool, finite as a float, and of
    at least ``minimum`` when given; or null when ``nullable``."""
    if nullable and value is None:
        return value
    try:
        finite = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an int too large for a float
        finite = False
    if not finite or (minimum is not None and value < minimum):
        rule = "a finite number" + ("" if minimum is None else f" of at least {minimum}")
        _refuse(where, rule + (" or null" if nullable else ""), value)
    return value


_ITEM_RULES = {dict: "objects", str: "strings", bool: "bools"}


def check_list(
    value: Any, where: str, of: type | None = None, *, nonempty: bool = False
) -> list:
    """``value`` if it is a list, of ``dict``, ``str`` or ``bool`` items
    when ``of`` is given; a bad item is shown with its index, not the list."""
    rule = ("a non-empty list" if nonempty else "a list") + (f" of {_ITEM_RULES[of]}" if of else "")
    if not isinstance(value, list) or (nonempty and not value):
        _refuse(where, rule, value)
    if of is not None:
        for index, item in enumerate(value):
            if not isinstance(item, of):
                raise ConfigError(f"{where} must be {rule}, got {_shown(item)} at index {index}")
    return value
