"""Scripted environment backed by a fixture DAG.

Fixture schema (JSON):

    {
      "root": "<node id>",
      "nodes": [
        {"id": "<node id>", "observation": "<text>", "terminal": false,
         "score": 0.0}            # "score" optional, terminal nodes only
      ],
      "edges": [
        {"from": "<node id>", "action": "<action text>", "to": "<node id>"}
      ]
    }

Ids, observations and actions are strings, ``terminal`` is a boolean and
``score`` a finite number or null.  Every node must be reachable from the
root, the root must not be terminal, and no node may carry two outgoing
edges with the same canonical action text.  Validation failures name the
offending node, edge or key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..core import (
    Action, ConfigError, State, Task, Trajectory, canonicalize, is_finite_number, read_json
)
from .base import ActionRejected, Environment


@dataclass(frozen=True)
class FixtureNode:
    id: str
    observation: str
    terminal: bool = False
    score: float | None = None


@dataclass
class Fixture:
    root: str
    nodes: dict[str, FixtureNode]
    # source id -> {action: target id}, each inner dict in the fixture's edge order
    edges: dict[str, dict[str, str]] = field(default_factory=dict)


def _require(data: dict[str, Any], key: str, where: str) -> Any:
    if key not in data:
        raise ConfigError(f"{where} is missing required key {key!r}")
    return data[key]


def _text(data: dict[str, Any], key: str, where: str) -> str:
    value = _require(data, key, where)
    if not isinstance(value, str):
        raise ConfigError(f"{where} key {key!r} must be a string, got {type(value).__name__}")
    return value


def _entries(value: Any, key: str) -> list[dict[str, Any]]:
    if not isinstance(value, list) or not all(isinstance(entry, dict) for entry in value):
        raise ConfigError(f"fixture key {key!r} must be a list of objects")
    return value


def _score(raw: dict[str, Any], where: str) -> float | None:
    score = raw.get("score")
    if score is None:
        return None
    if not is_finite_number(score):
        raise ConfigError(f"{where} key 'score' must be a finite number or null, got {score!r}")
    return float(score)


def parse_fixture(data: Any) -> Fixture:
    if not isinstance(data, dict):
        raise ConfigError("fixture must be a JSON object")
    root_id = _text(data, "root", "fixture")
    nodes: dict[str, FixtureNode] = {}
    for raw in _entries(_require(data, "nodes", "fixture"), "nodes"):
        node_id = _text(raw, "id", "node entry")
        if node_id in nodes:
            raise ConfigError(f"duplicate node id {node_id!r}")
        where = f"node {node_id!r}"
        terminal = raw.get("terminal", False)
        if not isinstance(terminal, bool):
            raise ConfigError(f"{where} key 'terminal' must be true or false, got {terminal!r}")
        nodes[node_id] = FixtureNode(
            id=node_id,
            observation=_text(raw, "observation", where),
            terminal=terminal,
            score=_score(raw, where),
        )
    if root_id not in nodes:
        raise ConfigError(f"root node {root_id!r} is not defined")
    if nodes[root_id].terminal:
        raise ConfigError(f"root node {root_id!r} must not be terminal")

    edges: dict[str, dict[str, str]] = {node_id: {} for node_id in nodes}
    for raw in _entries(data.get("edges", []), "edges"):
        src = _text(raw, "from", "edge entry")
        dst = _text(raw, "to", "edge entry")
        action = canonicalize(_text(raw, "action", "edge entry"))
        if src not in nodes:
            raise ConfigError(f"edge {src!r} -> {dst!r} starts at an unknown node")
        if dst not in nodes:
            raise ConfigError(f"edge {src!r} -> {dst!r} ends at an unknown node")
        if action in edges[src]:
            raise ConfigError(
                f"node {src!r} has a duplicate outgoing action {action!r}"
            )
        if nodes[src].terminal:
            raise ConfigError(f"terminal node {src!r} cannot have outgoing edges")
        edges[src][action] = dst

    reachable = {root_id}
    frontier = [root_id]
    while frontier:
        current = frontier.pop()
        for target in edges[current].values():
            if target not in reachable:
                reachable.add(target)
                frontier.append(target)
    unreachable = sorted(set(nodes) - reachable)
    if unreachable:
        raise ConfigError(f"node {unreachable[0]!r} is unreachable from the root")

    return Fixture(root=root_id, nodes=nodes, edges=edges)


def load_fixture(path: str | Path) -> Fixture:
    data = read_json(path, "environment fixture")
    try:
        return parse_fixture(data)
    except ConfigError as exc:
        raise ConfigError(f"environment fixture file {path}: {exc}") from None


class ScriptedEnvironment(Environment):
    """Deterministic environment that replays a fixture DAG."""

    name = "scripted"

    def __init__(self, fixture: Fixture) -> None:
        self.fixture = fixture

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ScriptedEnvironment":
        return cls(parse_fixture(data))

    @classmethod
    def load(cls, path: str | Path) -> "ScriptedEnvironment":
        return cls(load_fixture(path))

    def _node(self, state: State) -> FixtureNode:
        node = self.fixture.nodes.get(state.id)
        if node is None:
            raise ActionRejected(f"state {state.id!r} is not part of the fixture")
        return node

    def initial_state(self, task: Task) -> State:
        root = self.fixture.nodes[self.fixture.root]
        return State(id=root.id, depth=0, observation=root.observation)

    def transition(self, state: State, action: Action) -> State:
        node = self._node(state)
        if node.terminal:
            raise ActionRejected(f"node {node.id!r} is terminal")
        target_id = self.fixture.edges[node.id].get(action.text)
        if target_id is None:
            raise ActionRejected(
                f"node {node.id!r} has no edge for action {action.text!r}"
            )
        target = self.fixture.nodes[target_id]
        return State(
            id=target.id,
            depth=state.depth + 1,
            observation=target.observation,
            incoming_action=action,
            parent=state,
        )

    def is_terminal(self, state: State) -> bool:
        return self._node(state).terminal

    def enumerable_actions(self, state: State) -> list[Action]:
        node = self._node(state)
        return [Action.make(text) for text in self.fixture.edges[node.id]]

    def ground_truth_score(self, trajectory: Trajectory) -> float | None:
        """The fixture score of the trajectory's final node, if any."""
        node = self.fixture.nodes.get(trajectory.final_state.id)
        return node.score if node is not None else None
