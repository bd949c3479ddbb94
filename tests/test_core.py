"""Domain-type invariants: actions, states, trajectories, estimates, keys."""

import dataclasses
import json
import re
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lookahead.core import (
    Action,
    Aggregation,
    ConfigError,
    State,
    Task,
    Trajectory,
    TrainingExample,
    ValueEstimate,
    aggregate,
    canonicalize,
    check_bool,
    check_int,
    check_list,
    check_number,
    check_object,
    check_str,
    read_json,
    render_context,
    state_key,
    write_json,
)


def make_task(instruction: str = "do the thing") -> Task:
    return Task(id="t1", instruction=instruction)


def make_chain(task: Task, observations: list[str]) -> Trajectory:
    state = State(id="s0", depth=0, observation=observations[0])
    for i, obs in enumerate(observations[1:], start=1):
        action = Action.make(f"step {i}")
        state = State(
            id=f"s{i}",
            depth=i,
            observation=obs,
            incoming_action=action,
            parent=state,
        )
    return Trajectory.from_state(task, state)


class TestCanonicalize:
    def test_collapses_runs_and_trims(self):
        assert canonicalize("  click[ buy   now ]\t") == "click[ buy now ]"

    def test_preserves_case(self):
        assert canonicalize("Search[Foo]") == "Search[Foo]"

    @given(st.text(max_size=80))
    def test_idempotent(self, text):
        once = canonicalize(text)
        assert canonicalize(once) == once

    @given(st.text(max_size=80))
    def test_no_double_spaces(self, text):
        assert "  " not in canonicalize(text)

    def test_equals_the_regex_form_for_every_code_point(self):
        # The split-and-join form must treat exactly the characters the
        # regex class \s matches as whitespace, for every code point.
        run = re.compile(r"\s+")
        for c in map(chr, range(sys.maxunicode + 1)):
            for text in (f"a{c}{c}b ", f"{c}x"):
                assert canonicalize(text) == run.sub(" ", text.strip()), hex(ord(c))


class TestClassifyAction:
    def test_make_canonicalizes_and_classifies(self):
        action = Action.make("  click[  b1 ]  ")
        assert action.text == "click[ b1 ]"

    @pytest.mark.parametrize(
        "text",
        [
            "search[gray sofa]",
            "click[buy now]",
            "finish[42]",
            "3 + 5",
            "1/2 * 8",
            "-3 - -5",
            "think about it",
            "searching",
        ],
    )
    def test_make_and_direct_construction_agree_on_canonical_text(self, text):
        assert Action.make(f"  {text}\t") == Action(text)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Action.make("   ")

    def test_rejects_non_canonical_direct_construction(self):
        with pytest.raises(ValueError, match="not canonical"):
            Action(text=" padded ")


class TestState:
    def test_root_constraints(self):
        root = State(id="r", depth=0, observation="start")
        assert root.parent is None
        with pytest.raises(ValueError, match="depth 0"):
            State(id="r", depth=1, observation="start")
        with pytest.raises(ValueError, match="incoming action"):
            State(
                id="r",
                depth=0,
                observation="start",
                incoming_action=Action.make("go"),
            )

    def test_child_constraints(self):
        root = State(id="r", depth=0, observation="start")
        with pytest.raises(ValueError, match="requires an incoming action"):
            State(id="c", depth=1, observation="next", parent=root)
        with pytest.raises(ValueError, match="parent depth"):
            State(
                id="c",
                depth=3,
                observation="next",
                parent=root,
                incoming_action=Action.make("go"),
            )

    def test_lineage_order(self):
        task = make_task()
        trajectory = make_chain(task, ["a", "b", "c"])
        lineage = trajectory.final_state.lineage()
        assert [s.observation for s in lineage] == ["a", "b", "c"]


class TestTrajectory:
    def test_from_state_round_trip(self):
        task = make_task()
        trajectory = make_chain(task, ["a", "b", "c"])
        rebuilt = Trajectory.from_state(task, trajectory.final_state)
        assert rebuilt == trajectory
        assert rebuilt.depth == 2
        assert rebuilt.final_state.observation == "c"

    def test_empty_trajectory(self):
        task = make_task()
        root = State(id="r", depth=0, observation="start")
        trajectory = Trajectory(task, root)
        assert trajectory.depth == 0
        assert trajectory.final_state is root

    def test_fields_are_task_and_final_state(self):
        names = [field.name for field in dataclasses.fields(Trajectory)]
        assert names == ["task", "final_state"]

    def test_from_state_walks_no_path(self, monkeypatch):
        task = make_task()
        deep = make_chain(task, [f"obs {i}" for i in range(50)]).final_state
        walks = []
        original = State.lineage
        monkeypatch.setattr(
            State, "lineage", lambda self: walks.append(self) or original(self)
        )
        trajectory = Trajectory.from_state(task, deep)
        assert walks == []
        assert trajectory.final_state is deep
        assert trajectory.depth == 49


class TestAggregate:
    def test_mean(self):
        assert aggregate([1.0, 2.0, 6.0], Aggregation.MEAN) == 3.0

    def test_median_odd_and_even(self):
        assert aggregate([1.0, 10.0, 2.0], Aggregation.MEDIAN) == 2.0
        assert aggregate([1.0, 2.0], Aggregation.MEDIAN) == 1.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([], Aggregation.MEAN)

    @given(st.lists(st.floats(0, 10, allow_nan=False), min_size=1, max_size=9))
    def test_median_within_range(self, values):
        result = aggregate(values, Aggregation.MEDIAN)
        assert min(values) <= result <= max(values)


class TestValueEstimate:
    def test_accepts_matching_value(self):
        est = ValueEstimate(
            rationale="ok",
            value=2.0,
            samples=(1.0, 2.0, 6.0),
        )
        assert est.value == 2.0

    def test_rejects_empty_samples(self):
        with pytest.raises(ValueError, match="at least one sample"):
            ValueEstimate(rationale="none", value=0.0, samples=())


class TestTrainingExample:
    def test_root_depth_allowed(self):
        ex = TrainingExample(
            task_id="t",
            context="ctx",
            completion="done",
            depth=0,
            iteration=1,
            state_key="k",
        )
        assert ex.depth == 0

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            TrainingExample(
                task_id="t",
                context="c",
                completion="d",
                depth=-1,
                iteration=1,
                state_key="k",
            )

    def test_iteration_starts_at_one(self):
        with pytest.raises(ValueError):
            TrainingExample(
                task_id="t",
                context="c",
                completion="d",
                depth=0,
                iteration=0,
                state_key="k",
            )

    FIELDS = dict(task_id="t", context="c", completion="d", depth=0, iteration=1, state_key="k")

    def test_equality_and_hash_ignore_value(self):
        parsed, read = TrainingExample(**self.FIELDS, value=4.0), TrainingExample(**self.FIELDS)
        assert parsed == read and hash(parsed) == hash(read)
        assert parsed.value == 4.0 and read.value is None
        assert TrainingExample(**{**self.FIELDS, "completion": "e"}, value=4.0) != parsed

    def test_jsonl_line_is_encoded_once(self, monkeypatch):
        ex = TrainingExample(**self.FIELDS)
        line = ex.jsonl
        monkeypatch.setattr(json, "dumps", lambda *a, **k: pytest.fail("encoded twice"))
        assert ex.jsonl is line
        assert line == (
            '{"completion": "d", "context": "c", "depth": 0, '
            '"iteration": 1, "state_key": "k", "task_id": "t"}'
        )


class TestRenderContext:
    def test_empty_is_instruction_only(self):
        task = make_task("solve 4 6 6 8")
        root = State(id="r", depth=0, observation="4 6 6 8")
        assert render_context(Trajectory(task, root)) == "solve 4 6 6 8"

    def test_steps_append_action_observation_pairs(self):
        task = make_task("walk")
        trajectory = make_chain(task, ["a", "b", "c"])
        assert render_context(trajectory) == (
            "walk"
            "\n\nAction: step 1\nObservation: b"
            "\n\nAction: step 2\nObservation: c"
        )

    def test_deterministic(self):
        task = make_task("walk")
        trajectory = make_chain(task, ["a", "b"])
        assert render_context(trajectory) == render_context(trajectory)


class TestStateKey:
    def test_signature_states_ignore_task_and_path(self):
        task_a = Task(id="a", instruction="4 6 6 8")
        task_b = Task(id="b", instruction="6 8 6 4")
        root_a = State(id="x", depth=0, observation="4 6 6 8", signature="4 6 6 8")
        root_b = State(id="y", depth=0, observation="whatever", signature="4 6 6 8")
        key_a = state_key(Trajectory(task_a, root_a))
        key_b = state_key(Trajectory(task_b, root_b))
        assert key_a == key_b

    def test_context_states_embed_instruction(self):
        root = State(id="r", depth=0, observation="start")
        key_1 = state_key(Trajectory(Task(id="a", instruction="one"), root))
        key_2 = state_key(Trajectory(Task(id="a", instruction="two"), root))
        assert key_1 != key_2

    def test_signature_and_context_namespaces_disjoint(self):
        task = make_task("x")
        plain = State(id="r", depth=0, observation="x")
        signed = State(id="r", depth=0, observation="x", signature="context:x")
        key_plain = state_key(Trajectory(task, plain))
        key_signed = state_key(Trajectory(task, signed))
        assert key_plain != key_signed

    @given(st.text(min_size=1, max_size=30))
    def test_key_is_hex_digest(self, signature):
        task = make_task("t")
        root = State(id="r", depth=0, observation="o", signature=signature)
        key = state_key(Trajectory(task, root))
        assert len(key) == 64
        assert set(key) <= set("0123456789abcdef")


class TestWriteJson:
    def test_artifact_layout(self, tmp_path):
        path = tmp_path / "deeper" / "artifact.json"
        write_json(path, {"b": [1, {"é": None}], "a": "ü"})
        expected = '{\n  "a": "ü",\n  "b": [\n    1,\n    {\n      "é": null\n    }\n  ]\n}\n'
        assert path.read_bytes() == expected.encode("utf-8")


class TestCheckers:
    @pytest.mark.parametrize(
        "check, value",
        [
            (check_object, {"a": 1}),
            (check_str, ""),
            (check_bool, False),
            (check_int, -3),
            (check_number, 2.5),
            (check_number, 7),
            (check_list, [1, "a"]),
        ],
    )
    def test_a_good_value_comes_back_as_it_was(self, check, value):
        assert check(value, "x") is value

    @pytest.mark.parametrize(
        "check, value, message",
        [
            (check_object, [1], "x must be a JSON object"),
            (check_str, None, "x must be a string, got None"),
            (lambda v, w: check_str(v, w, nullable=True), 5, "x must be a string or null, got 5"),
            (check_bool, 0, "x must be a bool, got 0"),
            (check_int, True, "x must be an int, got True"),
            (check_int, 2.0, "x must be an int, got 2.0"),
            (lambda v, w: check_int(v, w, 1), 0, "x must be an int of at least 1, got 0"),
            (check_number, "1", "x must be a finite number, got '1'"),
            (check_number, False, "x must be a finite number, got False"),
            (check_number, float("nan"), "x must be a finite number, got nan"),
            (check_number, 10**400, f"x must be a finite number, got {10**400!r}"),
            (
                lambda v, w: check_number(v, w, nullable=True), "a",
                "x must be a finite number or null, got 'a'",
            ),
            (
                lambda v, w: check_number(v, w, 0), -0.5,
                "x must be a finite number of at least 0, got -0.5",
            ),
            (check_list, {}, "x must be a list, got {}"),
            (check_str, [1], "x must be a string, got a list"),
            (check_list, {"a": 1}, "x must be a list, got an object"),
            (
                lambda v, w: check_list(v, w, bool, nonempty=True), [],
                "x must be a non-empty list of bools, got []",
            ),
        ],
    )
    def test_a_bad_value_is_refused_naming_where_the_rule_and_the_value(
        self, check, value, message
    ):
        with pytest.raises(ConfigError) as refused:
            check(value, "x")
        assert str(refused.value) == message

    def test_a_bad_list_item_is_shown_with_its_index_not_the_list(self):
        with pytest.raises(ConfigError) as refused:
            check_list([{}] * 50 + ["a"], "x", dict)
        assert str(refused.value) == "x must be a list of objects, got 'a' at index 50"
        with pytest.raises(ConfigError) as refused:
            check_list(["a", {"long": "x" * 500}], "x", str)
        assert str(refused.value) == "x must be a list of strings, got an object at index 1"

    def test_a_whole_document_or_section_is_named_not_shown(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps([{"long": "x" * 50}] * 100), encoding="utf-8")
        with pytest.raises(ConfigError) as refused:
            read_json(path, "input")
        assert str(refused.value) == f"input file {path} must be a JSON object"
        with pytest.raises(ConfigError) as refused:
            check_object(["x" * 50] * 100, "section")
        assert str(refused.value) == "section must be a JSON object"
