"""Scripted fixture environment: schema validation and replay semantics."""

import json
import re

import pytest

from lookahead.core import Action, ConfigError, State, Task, Trajectory
from lookahead.envs.base import ActionRejected
from lookahead.envs.scripted import (
    ScriptedEnvironment,
    load_fixture,
    parse_fixture,
)


def minimal_fixture() -> dict:
    return {
        "root": "r",
        "nodes": [
            {"id": "r", "observation": "start", "terminal": False},
            {"id": "a", "observation": "middle", "terminal": False},
            {"id": "b", "observation": "end", "terminal": True, "score": 1.0},
            {"id": "c", "observation": "dead end", "terminal": True, "score": 0.0},
        ],
        "edges": [
            {"from": "r", "action": "go a", "to": "a"},
            {"from": "r", "action": "go c", "to": "c"},
            {"from": "a", "action": "go b", "to": "b"},
        ],
    }


TASK = Task(id="demo", instruction="walk")


class TestParseFixture:
    def test_accepts_minimal(self):
        fixture = parse_fixture(minimal_fixture())
        assert fixture.root == "r"
        assert set(fixture.nodes) == {"r", "a", "b", "c"}
        assert list(fixture.edges["r"]) == ["go a", "go c"]

    def test_missing_root_key(self):
        data = minimal_fixture()
        del data["root"]
        with pytest.raises(ConfigError, match="root"):
            parse_fixture(data)

    def test_duplicate_node_id_named(self):
        data = minimal_fixture()
        data["nodes"].append({"id": "a", "observation": "again"})
        with pytest.raises(ConfigError, match="'a'"):
            parse_fixture(data)

    def test_undefined_root_named(self):
        data = minimal_fixture()
        data["root"] = "missing"
        with pytest.raises(ConfigError, match="'missing'"):
            parse_fixture(data)

    def test_terminal_root_rejected(self):
        data = minimal_fixture()
        data["nodes"][0]["terminal"] = True
        with pytest.raises(ConfigError, match="must not be terminal"):
            parse_fixture(data)

    def test_edge_to_unknown_node_named(self):
        data = minimal_fixture()
        data["edges"].append({"from": "a", "action": "jump", "to": "nowhere"})
        with pytest.raises(ConfigError, match="'nowhere'"):
            parse_fixture(data)

    def test_edge_from_unknown_node_named(self):
        data = minimal_fixture()
        data["edges"].append({"from": "nowhere", "action": "jump", "to": "a"})
        with pytest.raises(ConfigError) as info:
            parse_fixture(data)
        assert str(info.value) == "edge 'nowhere' -> 'a' starts at an unknown node"

    def test_duplicate_action_on_node_named(self):
        data = minimal_fixture()
        data["edges"].append({"from": "r", "action": "go  a", "to": "c"})
        with pytest.raises(ConfigError, match="duplicate outgoing action"):
            parse_fixture(data)

    def test_terminal_node_with_edges_named(self):
        data = minimal_fixture()
        data["edges"].append({"from": "b", "action": "escape", "to": "a"})
        with pytest.raises(ConfigError, match="'b'"):
            parse_fixture(data)

    def test_unreachable_node_named(self):
        data = minimal_fixture()
        data["nodes"].append({"id": "island", "observation": "isolated"})
        with pytest.raises(ConfigError, match="'island'"):
            parse_fixture(data)


def _set(path: tuple, value):
    """Edit ``minimal_fixture()`` at ``path`` (keys and list indices)."""

    def edit(data: dict) -> dict:
        target = data
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value
        return data

    return edit


WRONGLY_TYPED = [
    pytest.param(lambda d: [d], "JSON object", id="fixture-is-a-list"),
    pytest.param(_set(("root",), ["r"]), "'root' must be a string", id="root-list"),
    pytest.param(_set(("nodes",), 5), "'nodes' must be a list of objects", id="nodes-int"),
    pytest.param(_set(("nodes", 1), "a"), "'nodes' must be a list of objects", id="node-string"),
    pytest.param(_set(("edges",), {}), "'edges' must be a list of objects", id="edges-object"),
    pytest.param(_set(("edges", 0), ["r"]), "'edges' must be a list of objects", id="edge-list"),
    pytest.param(_set(("nodes", 1, "id"), 7), "'id' must be a string, got 7", id="id-int"),
    pytest.param(
        _set(("nodes", 1, "observation"), None), "node 'a' key 'observation' must be a string",
        id="observation-null",
    ),
    pytest.param(_set(("edges", 0, "from"), 1), "'from' must be a string", id="from-int"),
    pytest.param(_set(("edges", 0, "to"), ["a"]), "'to' must be a string", id="to-list"),
    pytest.param(_set(("edges", 0, "action"), 3), "'action' must be a string", id="action-int"),
    pytest.param(
        _set(("nodes", 2, "score"), "high"), "node 'b' key 'score' must be a finite number",
        id="score-string",
    ),
    pytest.param(_set(("nodes", 2, "score"), True), "'score' must be a finite", id="score-bool"),
    pytest.param(
        _set(("nodes", 2, "score"), float("nan")), "'score' must be a finite", id="score-nan"
    ),
    pytest.param(_set(("nodes", 2, "score"), 10**400), "'score' must be a finite", id="score-huge"),
    pytest.param(
        _set(("nodes", 1, "terminal"), "no"), "node 'a' key 'terminal' must be a bool",
        id="terminal-string",
    ),
    pytest.param(_set(("nodes", 1, "terminal"), 0), "'terminal' must be a bool", id="terminal-int"),
]


class TestFixtureTypes:
    @pytest.mark.parametrize("edit, message", WRONGLY_TYPED)
    def test_wrongly_typed_fixture_is_a_fixture_error(self, edit, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_fixture(edit(minimal_fixture()))

    def test_integer_and_null_scores_are_accepted(self):
        data = minimal_fixture()
        data["nodes"][2]["score"] = 1
        data["nodes"][3]["score"] = None
        nodes = parse_fixture(data).nodes
        assert (nodes["b"].score, nodes["c"].score) == (1.0, None)


class TestLoadFixture:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="environment fixture file does not exist"):
            load_fixture(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_fixture(path)

    def test_round_trip_from_disk(self, tmp_path):
        path = tmp_path / "fixture.json"
        path.write_text(json.dumps(minimal_fixture()), encoding="utf-8")
        env = ScriptedEnvironment.load(path)
        assert env.initial_state(TASK).observation == "start"


class TestScriptedEnvironment:
    def test_transition_follows_edges(self):
        env = ScriptedEnvironment.from_dict(minimal_fixture())
        root = env.initial_state(TASK)
        middle = env.transition(root, Action.make("go a"))
        assert middle.id == "a"
        assert middle.depth == 1
        end = env.transition(middle, Action.make("go b"))
        assert env.is_terminal(end)

    def test_unknown_action_rejected(self):
        env = ScriptedEnvironment.from_dict(minimal_fixture())
        root = env.initial_state(TASK)
        with pytest.raises(ActionRejected, match="no edge"):
            env.transition(root, Action.make("teleport"))

    def test_transition_from_a_state_outside_the_fixture_rejected(self):
        env = ScriptedEnvironment.from_dict(minimal_fixture())
        stray = State(id="elsewhere", depth=0, observation="lost")
        with pytest.raises(ActionRejected) as info:
            env.transition(stray, Action.make("go a"))
        assert str(info.value) == "state 'elsewhere' is not part of the fixture"

    def test_terminal_transition_rejected(self):
        env = ScriptedEnvironment.from_dict(minimal_fixture())
        root = env.initial_state(TASK)
        end = env.transition(root, Action.make("go c"))
        with pytest.raises(ActionRejected, match="terminal"):
            env.transition(end, Action.make("go a"))

    def test_enumerable_actions_preserve_fixture_order(self):
        env = ScriptedEnvironment.from_dict(minimal_fixture())
        root = env.initial_state(TASK)
        assert [a.text for a in env.enumerable_actions(root)] == ["go a", "go c"]

    def test_ground_truth_score_reads_final_node(self):
        env = ScriptedEnvironment.from_dict(minimal_fixture())
        root = env.initial_state(TASK)
        winning = env.transition(
            env.transition(root, Action.make("go a")), Action.make("go b")
        )
        losing = env.transition(root, Action.make("go c"))
        assert env.ground_truth_score(Trajectory.from_state(TASK, winning)) == 1.0
        assert env.ground_truth_score(Trajectory.from_state(TASK, losing)) == 0.0
        # Non-terminal nodes without a score yield None.
        partial = env.transition(root, Action.make("go a"))
        assert env.ground_truth_score(Trajectory.from_state(TASK, partial)) is None

    def test_replay_is_pure(self):
        env = ScriptedEnvironment.from_dict(minimal_fixture())
        root = env.initial_state(TASK)
        first = env.transition(root, Action.make("go a"))
        second = env.transition(root, Action.make("go a"))
        assert first.id == second.id
        assert first.observation == second.observation

    def test_demo_fixture_parses(self):
        env = ScriptedEnvironment.load("fixtures/webshop_demo_env.json")
        root = env.initial_state(TASK)
        assert len(env.enumerable_actions(root)) == 3
