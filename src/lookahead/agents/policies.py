"""Action-proposal policies.

A policy's one call is ``propose(trajectory, branching, disallowed)``: at
most ``branching`` distinct canonical actions for the trajectory's final
state, never including anything from the caller's disallowed set.  The
trajectory carries its task.  Every environment lists its legal actions:
:class:`ExhaustivePolicy` proposes from that list; :class:`RemotePolicy`
harvests actions from a chat model one call at a time, growing the
disallowed list between calls, and keeps only listed ones.
"""

from __future__ import annotations

import re
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

from ..core import Action, Trajectory, render_context
from ..envs.base import Environment
from .prompts import load_template, render_template
from .transport import ChatRequest, Transport

if TYPE_CHECKING:
    from ..evaluation import Ledger

_ACTION_LINE_RE = re.compile(r"^Action:\s*(.+)$", re.MULTILINE)
_MAX_CALLS_PER_ACTION = 2


class Policy(ABC):
    @abstractmethod
    def propose(
        self, trajectory: Trajectory, branching: int, disallowed: frozenset[str] = frozenset()
    ) -> list[Action]:
        """Up to ``branching`` distinct actions, disjoint from ``disallowed``."""


class ExhaustivePolicy(Policy):
    """Proposes the environment's enumerable actions in their documented order.

    The list is filtered by the disallowed set and truncated to ``branching``.
    """

    def __init__(self, env: Environment) -> None:
        self.env = env

    def propose(
        self, trajectory: Trajectory, branching: int, disallowed: frozenset[str] = frozenset()
    ) -> list[Action]:
        state = trajectory.final_state
        if self.env.is_terminal(state):
            raise ValueError("cannot propose actions for a terminal state")
        kept = [a for a in self.env.enumerable_actions(state) if a.text not in disallowed]
        return kept[:branching]


class RemotePolicy(Policy):
    """Harvests distinct actions from a chat model across repeated calls.

    Each call asks the model to select one action; the selected action joins
    the prompt's not-allowed list for subsequent calls.  Actions outside the
    environment's enumerable set are rejected, malformed replies are counted
    in ``malformed_count``, and harvesting stops after ``branching`` distinct
    actions or ``2 * branching`` transport calls.
    """

    def __init__(
        self,
        transport: Transport,
        model: str,
        environment: Environment,
        ledger: "Ledger | None" = None,
    ) -> None:
        self.transport = transport
        self.model = model
        self.env = environment
        self.template = load_template(environment.name, "policy")
        self.ledger = ledger
        self.malformed_count = 0

    def _parse_action(self, text: str) -> str | None:
        matches = _ACTION_LINE_RE.findall(text)
        if not matches:
            return None
        return matches[-1].strip()

    def propose(
        self, trajectory: Trajectory, branching: int, disallowed: frozenset[str] = frozenset()
    ) -> list[Action]:
        state = trajectory.final_state
        if self.env.is_terminal(state):
            raise ValueError("cannot propose actions for a terminal state")
        allowed = {a.text for a in self.env.enumerable_actions(state)}
        harvested: list[Action] = []
        blocked = set(disallowed)
        for _ in range(_MAX_CALLS_PER_ACTION * branching):
            if len(harvested) >= branching:
                break
            prompt = render_template(
                self.template,
                not_allowed_actions="\n".join(sorted(blocked)) or "(none)",
                input=render_context(trajectory),
            )
            response = self.transport.send(ChatRequest(model=self.model, prompt=prompt))
            if self.ledger is not None:
                self.ledger.add_tokens(
                    "policy",
                    self.model,
                    response.prompt_tokens,
                    response.completion_tokens,
                    task_id=trajectory.task.id,
                )
            raw = self._parse_action(response.text)
            if raw is None:
                self.malformed_count += 1
                continue
            action = Action.make(raw)
            if action.text in blocked or action.text not in allowed:
                blocked.add(action.text)
                continue
            harvested.append(action)
            blocked.add(action.text)
        return harvested
