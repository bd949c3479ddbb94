"""Environment contract shared by all task domains."""

from __future__ import annotations

from abc import ABC, abstractmethod

from ..core import Action, State, Task, Trajectory


class ActionRejected(Exception):
    """Raised by ``transition`` when an action is illegal in the given state."""


class Environment(ABC):
    """Deterministic environment interface.

    ``transition`` must be a pure function of (state, action): replaying the
    same pair always yields an identical successor.  ``ground_truth_score`` is
    an evaluation-only hook and must never be consulted by search or by the
    training-data pipeline.
    """

    name: str = "environment"

    @abstractmethod
    def initial_state(self, task: Task) -> State:
        """The root state for ``task``; never terminal."""

    @abstractmethod
    def transition(self, state: State, action: Action) -> State:
        """Apply ``action`` to ``state``; raises :class:`ActionRejected` if illegal."""

    @abstractmethod
    def is_terminal(self, state: State) -> bool:
        """Whether ``state`` admits no further actions."""

    @abstractmethod
    def enumerable_actions(self, state: State) -> list[Action]:
        """The full legal action list in a documented deterministic order."""

    def ground_truth_score(self, trajectory: Trajectory) -> float | None:
        """Evaluation-only task score for a finished trajectory, if defined."""
        return None
