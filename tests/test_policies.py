"""Action-proposal policies over enumerable and chat-harvested action spaces."""

import pytest

from lookahead.agents.policies import ExhaustivePolicy, RemotePolicy
from lookahead.agents.transport import ScriptedTransport
from lookahead.core import Task, Trajectory
from lookahead.envs.game24 import Game24Env
from lookahead.evaluation import Ledger

TASK = Task(id="t1", instruction="1 2 3")


def root_trajectory(env: Game24Env, task: Task = TASK) -> Trajectory:
    return Trajectory.from_state(task, env.initial_state(task))


class TestExhaustivePolicy:
    def test_preserves_enumeration_order_and_truncates(self):
        env = Game24Env()
        policy = ExhaustivePolicy(env)
        trajectory = root_trajectory(env)
        full = policy.propose(trajectory, branching=100)
        five = policy.propose(trajectory, branching=5)
        assert [a.text for a in five] == [a.text for a in full[:5]]
        assert len(full) == 18

    def test_disallowed_filtered_before_truncation(self):
        env = Game24Env()
        policy = ExhaustivePolicy(env)
        trajectory = root_trajectory(env)
        full = [a.text for a in policy.propose(trajectory, branching=100)]
        banned = frozenset(full[:2])
        kept = policy.propose(trajectory, branching=3, disallowed=banned)
        assert [a.text for a in kept] == full[2:5]

    def test_terminal_state_rejected(self):
        env = Game24Env()
        task = Task(id="t24", instruction="24")
        trajectory = Trajectory.from_state(task, env.initial_state(task))
        with pytest.raises(ValueError, match="terminal"):
            ExhaustivePolicy(env).propose(trajectory, branching=5)


def reply(action_text: str) -> str:
    return f"I will pick one.\nAction: {action_text}"


class TestRemotePolicy:
    def test_harvests_distinct_actions(self):
        env = Game24Env()
        trajectory = root_trajectory(env)
        transport = ScriptedTransport(
            [reply("1 + 2"), reply("2 * 3"), reply("3 - 1")]
        )
        policy = RemotePolicy(transport, "test-model", env)
        actions = [a.text for a in policy.propose(trajectory, branching=3)]
        assert actions == ["1 + 2", "2 * 3", "3 - 1"]
        assert policy.malformed_count == 0

    def test_repeats_are_blocked_not_duplicated(self):
        env = Game24Env()
        trajectory = root_trajectory(env)
        transport = ScriptedTransport(
            [reply("1 + 2"), reply("1 + 2"), reply("2 * 3")]
        )
        policy = RemotePolicy(transport, "test-model", env)
        actions = [a.text for a in policy.propose(trajectory, branching=2)]
        assert actions == ["1 + 2", "2 * 3"]
        assert len(transport.requests_seen) == 3

    def test_disallowed_actions_enter_prompt(self):
        env = Game24Env()
        trajectory = root_trajectory(env)
        transport = ScriptedTransport([reply("2 * 3")])
        policy = RemotePolicy(transport, "test-model", env)
        actions = policy.propose(trajectory, branching=1, disallowed=frozenset({"1 + 2"}))
        assert [a.text for a in actions] == ["2 * 3"]
        prompt = transport.requests_seen[0].prompt
        assert "1 + 2" in prompt

    def test_out_of_space_actions_rejected(self):
        env = Game24Env()
        trajectory = root_trajectory(env)
        transport = ScriptedTransport([reply("5 + 5"), reply("1 + 2")])
        policy = RemotePolicy(transport, "test-model", env)
        actions = [a.text for a in policy.propose(trajectory, branching=1)]
        assert actions == ["1 + 2"]

    def test_malformed_replies_counted_and_skipped(self):
        env = Game24Env()
        trajectory = root_trajectory(env)
        transport = ScriptedTransport(["no action line here", reply("1 + 2")])
        policy = RemotePolicy(transport, "test-model", env)
        actions = [a.text for a in policy.propose(trajectory, branching=1)]
        assert actions == ["1 + 2"]
        assert policy.malformed_count == 1

    def test_call_budget_bounds_transport_usage(self):
        env = Game24Env()
        trajectory = root_trajectory(env)
        transport = ScriptedTransport(["junk"] * 50)
        policy = RemotePolicy(transport, "test-model", env)
        actions = policy.propose(trajectory, branching=3)
        assert actions == []
        assert len(transport.requests_seen) == 6
        assert policy.malformed_count == 6

    def test_last_action_line_wins(self):
        env = Game24Env()
        trajectory = root_trajectory(env)
        transport = ScriptedTransport(
            ["Action: 9 + 9\nOn second thought:\nAction: 1 + 2"]
        )
        policy = RemotePolicy(transport, "test-model", env)
        actions = [a.text for a in policy.propose(trajectory, branching=1)]
        assert actions == ["1 + 2"]

    def test_ledger_receives_usage(self):
        env = Game24Env()
        trajectory = root_trajectory(env)
        transport = ScriptedTransport([reply("1 + 2")])
        ledger = Ledger()
        policy = RemotePolicy(transport, "test-model", env, ledger=ledger)
        policy.propose(trajectory, branching=1)
        counts = ledger.tokens[("policy", "test-model")]
        assert counts.prompt > 0
        assert counts.completion == len(reply("1 + 2").split())
        assert ledger.per_task_tokens["t1"][("policy", "test-model")].prompt == counts.prompt

    def test_terminal_state_rejected(self):
        env = Game24Env()
        task = Task(id="t24", instruction="24")
        trajectory = Trajectory.from_state(task, env.initial_state(task))
        policy = RemotePolicy(ScriptedTransport([]), "test-model", env)
        with pytest.raises(ValueError, match="terminal"):
            policy.propose(trajectory, branching=1)
