"""Shared domain types for lookahead value learning.

Defines the vocabulary used across environments, agents, search engines and
the training-data pipeline: tasks, actions, states, trajectories, value
estimates and training examples, plus the two canonical derived forms
(rendered trajectory context and the state key used for deduplication),
the one JSON layout every artifact file is written in, and the one error,
JSON reader and finite-number rule that input readers share.  The lookahead
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
from typing import Any


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


def read_json(path: str | Path, what: str) -> Any:
    """The JSON value in the ``what`` file at ``path``; a file that is
    missing, a directory, unreadable or malformed raises :class:`ConfigError`
    naming it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"{what} file does not exist: {path}") from None
    except IsADirectoryError:
        raise ConfigError(f"{what} file {path} is a directory") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} file {path} is not valid JSON: {exc}") from None
    except ValueError as exc:  # not UTF-8, or an integer over the digit limit
        raise ConfigError(f"{what} file {path} cannot be read: {exc}") from None


def is_finite_number(x: object) -> bool:
    """Whether ``x`` is a JSON number (not a bool) that is finite as a float."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int too large for a float
        return False
