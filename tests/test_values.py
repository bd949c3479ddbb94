"""Value models: oracle, scripted doubles, remote sampling, routing."""

import sys
import threading

import pytest
from transport_doubles import PromptKeyedTransport

from lookahead.agents.scales import (
    GAME24,
    LIKERT10,
    MalformedRationale,
    parse_value,
)
from lookahead.agents.transport import ScriptedTransport, TransportError
from lookahead.agents.values import (
    ConstantValueModel,
    OracleValueModel,
    RemoteValueModel,
    ScriptedValueModel,
)
from lookahead.core import (
    Action, Aggregation, State, Task, Trajectory, ValueEstimate, state_key
)
from lookahead.envs.game24 import Game24Env
from lookahead.evaluation import Ledger
from lookahead.stl import Dataset, TabularValueModel

TASK = Task(id="t1", instruction="4 6 6 8")


def game24_trajectory(instruction: str) -> tuple[Game24Env, Trajectory]:
    env = Game24Env()
    task = Task(id="t1", instruction=instruction)
    return env, Trajectory.from_state(task, env.initial_state(task))


def synthetic_trajectory(state_id: str = "s1", depth: int = 0) -> Trajectory:
    task = Task(id="t1", instruction="do the thing")
    state = State(id=state_id, depth=0, observation="obs", signature=state_id)
    for level in range(depth):
        state = State(
            id=f"{state_id}.{level}",
            depth=level + 1,
            observation=f"obs {level}",
            incoming_action=Action.make(f"step {level}"),
            parent=state,
            signature=f"{state_id}.{level}",
        )
    return Trajectory.from_state(task, state)


class TestOracleValueModel:
    def test_sure_state(self):
        env, trajectory = game24_trajectory("4 6 6 8")
        estimate = OracleValueModel().evaluate(trajectory)
        assert estimate.value == 20.0
        assert parse_value(estimate.rationale, GAME24) == 20.0
        assert estimate.samples == (20.0,)

    def test_impossible_state(self):
        env, trajectory = game24_trajectory("1 1 1 1")
        estimate = OracleValueModel().evaluate(trajectory)
        assert estimate.value == 0.001
        assert parse_value(estimate.rationale, GAME24) == 0.001

    def test_scale_is_label_scale(self):
        assert OracleValueModel().scale is GAME24


class TestScriptedValueModel:
    def test_known_state_and_default(self):
        trajectory = synthetic_trajectory("s1")
        model = ScriptedValueModel({"s1": 7.25}, default=1.0)
        assert model.evaluate(trajectory).value == 7.25
        trajectory2 = synthetic_trajectory("unknown")
        assert model.evaluate(trajectory2).value == 1.0

    def test_rationale_parses_on_declared_scale(self):
        trajectory = synthetic_trajectory("s1")
        model = ScriptedValueModel({"s1": 7.25})
        estimate = model.evaluate(trajectory)
        assert parse_value(estimate.rationale, model.scale) == 7.25
        assert estimate.rationale == (
            "Scripted evaluation of state s1. Thus, the correctness score is 7.25 / 10.00."
        )

    def test_rationale_parses_on_a_label_scale(self):
        model = ScriptedValueModel({"s1": 20}, default=0.001, scale=GAME24)
        for state_id, value in (("s1", 20.0), ("other", 0.001)):
            estimate = model.evaluate(synthetic_trajectory(state_id))
            assert estimate.rationale.endswith("\n" + ("sure" if value == 20.0 else "impossible"))
            assert parse_value(estimate.rationale, GAME24) == estimate.value == value

    def test_values_are_floats_however_the_fixture_spells_them(self):
        model = ScriptedValueModel({"s1": 7}, default=1)
        values = [model.evaluate(synthetic_trajectory(i)).value for i in ("s1", "other")]
        assert values == [7.0, 1.0]
        assert all(type(value) is float for value in values)

    @pytest.mark.parametrize("values, default", [({"s1": 7.0}, 0.001), ({}, 5.0)])
    def test_a_value_a_label_scale_cannot_state_is_refused(self, values, default):
        with pytest.raises(ValueError, match=r"value (7|5)\.0 is not one of the 'game24' label values"):
            ScriptedValueModel(values, default=default, scale=GAME24)


class TestConstantValueModel:
    def test_same_value_everywhere(self):
        trajectory = synthetic_trajectory("a")
        model = ConstantValueModel(1.0)
        first = model.evaluate(trajectory)
        trajectory2 = synthetic_trajectory("b", depth=2)
        second = model.evaluate(trajectory2)
        assert first.value == second.value == 1.0
        assert parse_value(first.rationale, model.scale) == 1.0
        assert first.rationale == "Constant evaluation. Thus, the correctness score is 1.00 / 10.00."

    def test_rationale_parses_on_a_label_scale(self):
        estimate = ConstantValueModel(0.001, scale=GAME24).evaluate(synthetic_trajectory())
        assert estimate.rationale == "Constant evaluation.\nimpossible"
        assert parse_value(estimate.rationale, GAME24) == 0.001

    def test_a_value_a_label_scale_cannot_state_is_refused(self):
        with pytest.raises(ValueError, match=r"value 5\.0 is not one of the 'game24' label values"):
            ConstantValueModel(5.0, scale=GAME24)


def sample(value: float) -> str:
    return f"Reflecting on progress. Thus, the correctness score is {value:.2f} / 10.00."


class TestRemoteValueModel:
    def test_single_sample(self):
        env, trajectory = game24_trajectory("1 2 3")
        transport = ScriptedTransport(["All on track.\nsure"])
        model = RemoteValueModel(transport, "m", env, GAME24)
        estimate = model.evaluate(trajectory)
        assert estimate.value == 20.0
        assert estimate.samples == (20.0,)

    def test_multi_sample_mean(self):
        env, trajectory = game24_trajectory("1 2 3")
        transport = ScriptedTransport([sample(2.0), sample(8.0), sample(2.0)])
        model = RemoteValueModel(
            transport, "m", env, LIKERT10, n_samples=3, aggregation=Aggregation.MEAN
        )
        estimate = model.evaluate(trajectory)
        assert estimate.value == 4.0
        assert estimate.samples == (2.0, 8.0, 2.0)
        # Representative rationale is the sample nearest the median (2.0 here).
        assert estimate.rationale == sample(2.0)

    def test_redraw_replaces_malformed_sample(self):
        env, trajectory = game24_trajectory("1 2 3")
        transport = ScriptedTransport(["garbled", sample(6.0)])
        model = RemoteValueModel(transport, "m", env, LIKERT10, n_samples=1)
        estimate = model.evaluate(trajectory)
        assert estimate.value == 6.0
        assert estimate.samples == (6.0,)
        assert model.malformed_count == 1
        assert len(transport.requests_seen) == 2

    def test_redraws_never_join_aggregate(self):
        env, trajectory = game24_trajectory("1 2 3")
        transport = ScriptedTransport(
            ["junk", sample(8.0), sample(2.0)]
        )
        model = RemoteValueModel(
            transport, "m", env, LIKERT10, n_samples=2, aggregation=Aggregation.MEAN
        )
        estimate = model.evaluate(trajectory)
        assert estimate.samples == (8.0, 2.0)
        assert estimate.value == 5.0

    def test_all_draws_malformed(self):
        env, trajectory = game24_trajectory("1 2 3")
        transport = ScriptedTransport(["junk"] * 6)
        model = RemoteValueModel(transport, "m", env, LIKERT10, n_samples=2)
        with pytest.raises(MalformedRationale) as err:
            model.evaluate(trajectory)
        assert err.value.reason == "no-parsed-samples"
        # One request and two redraws, each asking for both slots again:
        # n_samples * 3 draws.
        assert [r.n for r in transport.requests_seen] == [2, 2, 2]
        assert sum(r.n for r in transport.requests_seen) == 6
        assert model.malformed_count == 6

    def test_all_draws_parse_in_one_request(self):
        env, trajectory = game24_trajectory("1 2 3")
        transport = ScriptedTransport([sample(2.0), sample(8.0), sample(6.0)])
        ledger = Ledger()
        model = RemoteValueModel(transport, "m", env, LIKERT10, n_samples=3, ledger=ledger)
        estimate = model.evaluate(trajectory)
        assert [r.n for r in transport.requests_seen] == [3]
        assert estimate.samples == (2.0, 8.0, 6.0)
        # The prompt is billed once for the three choices.
        prompt = transport.requests_seen[0].prompt
        counts = ledger.tokens[("value", "m")]
        assert counts.prompt == len(prompt.split())
        assert counts.completion == 3 * len(sample(2.0).split())

    def test_redraw_round_asks_only_for_missing_samples(self):
        env, trajectory = game24_trajectory("1 2 3")
        transport = ScriptedTransport(
            [sample(1.0), "junk", sample(2.0), "junk", "junk", sample(4.0), sample(8.0)]
        )
        model = RemoteValueModel(transport, "m", env, LIKERT10, n_samples=4)
        estimate = model.evaluate(trajectory)
        assert [r.n for r in transport.requests_seen] == [4, 2, 1]
        assert estimate.samples == (1.0, 2.0, 4.0, 8.0)
        assert model.malformed_count == 3

    def test_ledger_counts_redrawn_calls(self):
        env, trajectory = game24_trajectory("1 2 3")
        transport = ScriptedTransport(["junk", sample(6.0)])
        ledger = Ledger()
        model = RemoteValueModel(transport, "m", env, LIKERT10, n_samples=1, ledger=ledger)
        model.evaluate(trajectory)
        counts = ledger.tokens[("value", "m")]
        assert counts.completion == len("junk".split()) + len(sample(6.0).split())

    def test_sample_count_below_one_is_rejected(self):
        with pytest.raises(ValueError, match="n_samples"):
            RemoteValueModel(ScriptedTransport([]), "m", Game24Env(), GAME24, n_samples=0)

    def test_prompt_includes_rendered_context(self):
        env, trajectory = game24_trajectory("1 2 3")
        transport = ScriptedTransport([sample(6.0)])
        model = RemoteValueModel(transport, "m", env, LIKERT10)
        model.evaluate(trajectory)
        prompt = transport.requests_seen[0].prompt
        assert "1 2 3" in prompt


def game24_trajectories(*instructions: str) -> list[Trajectory]:
    return [game24_trajectory(text)[1] for text in instructions]


def verdict_reply(prompt: str, draw: int) -> str:
    """Malformed on even draws, a verdict keyed on the numbers otherwise."""
    if draw % 2 == 0:
        return "Still thinking about it."
    return "Checked every pair.\nimpossible" if "1 1 1" in prompt else "Checked every pair.\nsure"


class RecordingModel(ConstantValueModel):
    """Constant model that records each evaluate_many batch it receives."""

    def __init__(self, value: float) -> None:
        super().__init__(value)
        self.batches: list[list[Trajectory]] = []

    def evaluate_many(self, trajectories):
        self.batches.append(list(trajectories))
        return super().evaluate_many(trajectories)


class TestEvaluateMany:
    def test_default_loops_in_order_and_returns_parse_failures(self):
        class Flaky(ScriptedValueModel):
            def evaluate(self, trajectory):
                if trajectory.final_state.id == "bad":
                    raise MalformedRationale("scaffolding-missing", "synthetic")
                return super().evaluate(trajectory)

        model = Flaky({"a": 1.0, "c": 3.0})
        trajectories = [synthetic_trajectory(i) for i in ("a", "bad", "c")]
        results = model.evaluate_many(trajectories)
        assert results[0].value == 1.0
        assert isinstance(results[1], MalformedRationale)
        assert results[1].reason == "scaffolding-missing"
        assert results[2].value == 3.0

    def test_remote_requests_overlap_and_match_serial_answers(self):
        env = Game24Env()
        trajectories = game24_trajectories("1 1 1", "2 3 4", "4 6", "1 1 1 2")
        gated = PromptKeyedTransport(verdict_reply, gate=2)
        model = RemoteValueModel(gated, "m", env, GAME24, n_samples=2)
        concurrent = model.evaluate_many(trajectories)
        assert gated.max_in_flight >= 2
        serial_transport = PromptKeyedTransport(verdict_reply, concurrent_safe=False)
        serial_model = RemoteValueModel(serial_transport, "m", env, GAME24, n_samples=2)
        serial = serial_model.evaluate_many(trajectories)
        assert serial_transport.max_in_flight == 1
        assert concurrent == serial
        assert [r.value for r in concurrent] == [0.001, 20.0, 20.0, 0.001]
        assert model.malformed_count == serial_model.malformed_count == 8

    def test_scripted_transport_stays_serial_and_in_order(self):
        env = Game24Env()
        trajectories = game24_trajectories("1 2 3", "4 5 6", "7 8 9")
        transport = ScriptedTransport([sample(1.0), "junk", sample(2.0), sample(4.0)])
        model = RemoteValueModel(transport, "m", env, LIKERT10)
        assert model.transport.concurrent_safe is False
        results = model.evaluate_many(trajectories)
        assert [r.value for r in results] == [1.0, 2.0, 4.0]
        seen = [r.prompt for r in transport.requests_seen]
        for prompt, numbers in zip(seen, ["1 2 3", "4 5 6", "4 5 6", "7 8 9"]):
            assert numbers in prompt

    def test_all_malformed_request_keeps_its_slot(self):
        env = Game24Env()
        trajectories = game24_trajectories("2 3 4", "1 1 1", "4 6")

        def reply(prompt, draw):
            return "no verdict at all" if "1 1 1" in prompt else "fine\nsure"

        transport = PromptKeyedTransport(reply)
        model = RemoteValueModel(transport, "m", env, GAME24, n_samples=2)
        results = model.evaluate_many(trajectories)
        assert isinstance(results[1], MalformedRationale)
        assert results[1].reason == "no-parsed-samples"
        assert results[0].value == results[2].value == 20.0
        assert model.malformed_count == 6

    def test_malformed_count_and_ledger_exact_under_contention(self):
        # More threads than cores and a tiny switch interval: a lost update
        # to the counter or the ledger would show as a short total.
        env = Game24Env()
        trajectories = game24_trajectories(*(f"{i} {i + 1} 13" for i in range(1, 17)))
        transport = PromptKeyedTransport(verdict_reply)
        ledger = Ledger()
        model = RemoteValueModel(transport, "m", env, GAME24, n_samples=3, ledger=ledger)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = model.evaluate_many(trajectories)
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 16
        assert model.malformed_count == 16 * 3
        assert transport.draws == 16 * 3 * 2
        # Rounds of n = 3, 2 and 1: the odd draws parse.
        assert transport.sends == 16 * 3
        completion = ledger.tokens[("value", "m")].completion
        expected = sum(
            len(verdict_reply(prompt, draw).split())
            for prompt in set(transport.prompts)
            for draw in range(6)
        )
        assert completion == expected

    def test_earliest_failure_in_request_order_raised_after_drain(self):
        env = Game24Env()
        trajectories = game24_trajectories("2 3 4", "1 1 1", "4 6", "5 5 5")
        release = threading.Event()

        def reply(prompt, draw):
            if "5 5 5" in prompt:
                # The later failure happens first in time.
                release.set()
                raise TransportError("late request failed")
            if "1 1 1" in prompt:
                release.wait(2.0)
                raise TransportError("early request failed")
            return "fine\nsure"

        transport = PromptKeyedTransport(reply)
        model = RemoteValueModel(transport, "m", env, GAME24)
        with pytest.raises(TransportError, match="early request failed"):
            model.evaluate_many(trajectories)
        assert transport.sends == 4
        assert transport.in_flight == 0

    def test_tabular_model_sends_misses_in_one_batch(self):
        trajectories = [synthetic_trajectory(i) for i in "abc"]
        base = RecordingModel(2.0)
        model = TabularValueModel(base, Dataset())
        model.table[state_key(trajectories[1])] = ValueEstimate("stored rationale", 7.0, (7.0,))
        results = model.evaluate_many(trajectories)
        assert [r.value for r in results] == [2.0, 7.0, 2.0]
        assert base.batches == [[trajectories[0], trajectories[2]]]
        assert (model.hits, model.fallbacks) == (1, 2)

    def test_tabular_counts_exact_under_contention(self):
        # More threads than cores and a tiny switch interval: a lost update
        # to either counter would show as a short total.
        trajectories = [synthetic_trajectory(i) for i in "abcd"]
        model = TabularValueModel(ConstantValueModel(2.0), Dataset())
        model.table[state_key(trajectories[0])] = ValueEstimate("stored rationale", 7.0, (7.0,))

        def work():
            for _ in range(500):
                model.evaluate_many(trajectories)
                model.evaluate(trajectories[1])

        threads = [threading.Thread(target=work) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert (model.hits, model.fallbacks) == (8 * 500, 8 * 500 * 4)


class TrajectorySpy(ConstantValueModel):
    """Constant model that records every trajectory reaching ``evaluate``."""

    def __init__(self) -> None:
        super().__init__(3.0, scale=LIKERT10)
        self.seen: list[Trajectory] = []

    def evaluate(self, trajectory):
        self.seen.append(trajectory)
        return super().evaluate(trajectory)


WRAPPERS = {
    "tabular-miss": lambda spy: TabularValueModel(spy, Dataset()),
}


class TestWrappersForwardTheTrajectory:
    @pytest.mark.parametrize("kind", list(WRAPPERS))
    @pytest.mark.parametrize("entry", ["evaluate", "evaluate_many"])
    def test_inner_model_receives_the_callers_trajectory(self, kind, entry):
        spy = TrajectorySpy()
        wrapper = WRAPPERS[kind](spy)
        trajectory = synthetic_trajectory("s1")
        if entry == "evaluate":
            wrapper.evaluate(trajectory)
        else:
            wrapper.evaluate_many([trajectory])
        assert len(spy.seen) == 1
        assert spy.seen[0] is trajectory
