"""Search engines: greedy descent, level-synchronous beam, UCT with backup."""

import json
import math
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest
from transport_doubles import PromptKeyedTransport, digest

from lookahead import search
from lookahead.agents.policies import ExhaustivePolicy, Policy
from lookahead.agents.scales import GAME24, MalformedRationale, get_scale
from lookahead.agents.transport import ChatRequest, ChatResponse, Transport
from lookahead.agents.values import (
    OracleValueModel,
    RemoteValueModel,
    ScriptedValueModel,
    ValueModel,
)
from lookahead.core import Action, ConfigError, State, Task, Trajectory
from lookahead.envs.game24 import Game24Env
from lookahead.envs.scripted import ScriptedEnvironment
from lookahead.evaluation import Ledger
from lookahead.search import (
    ENGINES,
    SearchConfig,
    SearchTree,
    beam_search,
    dump_tree,
    greedy_search,
    mcts_search,
    render_tree,
    run_rollouts,
)

TASK = Task(id="t1", instruction="walk")


def two_branch_fixture() -> dict:
    return {
        "root": "r",
        "nodes": [
            {"id": "r", "observation": "start", "terminal": False},
            {"id": "a", "observation": "room a", "terminal": False},
            {"id": "b", "observation": "room b", "terminal": False},
            {"id": "c", "observation": "exit c", "terminal": True, "score": 0.0},
            {"id": "aw", "observation": "a win", "terminal": True, "score": 1.0},
            {"id": "al", "observation": "a loss", "terminal": True, "score": 0.0},
            {"id": "bw", "observation": "b win", "terminal": True, "score": 1.0},
            {"id": "bl", "observation": "b loss", "terminal": True, "score": 0.0},
        ],
        "edges": [
            {"from": "r", "action": "go a", "to": "a"},
            {"from": "r", "action": "go b", "to": "b"},
            {"from": "r", "action": "go c", "to": "c"},
            {"from": "a", "action": "win", "to": "aw"},
            {"from": "a", "action": "lose", "to": "al"},
            {"from": "b", "action": "win", "to": "bw"},
            {"from": "b", "action": "lose", "to": "bl"},
        ],
    }


TWO_BRANCH_VALUES = {
    "a": 6.0,
    "b": 4.0,
    "c": 2.0,
    "aw": 10.0,
    "al": 0.0,
    "bw": 10.0,
    "bl": 0.0,
}


def two_branch_setup(values=None):
    env = ScriptedEnvironment.from_dict(two_branch_fixture())
    policy = ExhaustivePolicy(env)
    model = ScriptedValueModel(values or TWO_BRANCH_VALUES)
    return env, policy, model


class FlakyValueModel(ScriptedValueModel):
    """Raises a parse failure for designated state ids."""

    def __init__(self, values, bad_ids):
        super().__init__(values)
        self.bad_ids = set(bad_ids)

    def evaluate(self, trajectory):
        if trajectory.final_state.id in self.bad_ids:
            raise MalformedRationale("scaffolding-missing", "synthetic failure")
        return super().evaluate(trajectory)


def terminal_ids(tree):
    """State ids of the tree's evaluated terminal nodes, in creation order."""
    return [n.state.id for n in tree.nodes if n.terminal and n.estimate is not None]


class CountingEnv:
    """Delegating wrapper that counts transition calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def transition(self, state, action):
        self.calls += 1
        return self.inner.transition(state, action)


class TestSearchConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"branching": 0},
            {"max_depth": 0},
            {"beam_width": 0},
            {"mcts_iterations": 0},
            {"branching": True},
        ],
    )
    def test_validation(self, kwargs):
        [(name, value)] = kwargs.items()
        with pytest.raises(ConfigError) as info:
            SearchConfig(**kwargs)
        assert str(info.value) == f"'search.{name}' must be an int of at least 1, got {value}"


class TestGreedySearch:
    def test_descends_into_argmax(self):
        env, policy, model = two_branch_setup()
        tree = greedy_search(TASK, env, policy, model, SearchConfig(max_depth=3))
        trajectory = tree.final_trajectory()
        assert trajectory.final_state.id == "aw"
        assert tree.stats.terminal_reached is True
        assert tree.stats.best_path == [0, 1, 4]
        assert tree.stats.states_expanded == 5
        assert tree.stats.evaluations == 5

    def test_tie_goes_to_earlier_proposal(self):
        values = dict(TWO_BRANCH_VALUES, b=6.0)  # a and b now tie at 6.0
        env, policy, model = two_branch_setup(values)
        tree = greedy_search(TASK, env, policy, model, SearchConfig(max_depth=3))
        trajectory = tree.final_trajectory()
        assert trajectory.final_state.lineage()[1].id == "a"

    def test_depth_limit_stops_descent(self):
        env, policy, model = two_branch_setup()
        tree = greedy_search(TASK, env, policy, model, SearchConfig(max_depth=1))
        trajectory = tree.final_trajectory()
        assert trajectory.final_state.id == "a"
        assert tree.stats.terminal_reached is False
        assert tree.stats.states_expanded == 3

    def test_unparseable_child_excluded_from_argmax(self):
        env, policy, _ = two_branch_setup()
        model = FlakyValueModel(TWO_BRANCH_VALUES, bad_ids={"a"})
        tree = greedy_search(TASK, env, policy, model, SearchConfig(max_depth=3))
        trajectory = tree.final_trajectory()
        # The best-valued child failed to parse, so search takes "b" instead.
        assert trajectory.final_state.id == "bw"
        assert "unparseable-value@1: scaffolding-missing" in tree.stats.failures
        assert tree.stats.states_expanded == 5
        assert tree.stats.evaluations == 4
        broken = next(n for n in tree.nodes if n.state.id == "a")
        assert broken.estimate is None

    def test_excluded_actions_never_expanded(self):
        env, policy, model = two_branch_setup()
        config = SearchConfig(max_depth=3, excluded_actions=("go a",))
        tree = greedy_search(TASK, env, policy, model, config)
        trajectory = tree.final_trajectory()
        assert trajectory.final_state.id == "bw"
        assert "go a" not in {n.state.incoming_action.text for n in tree.nodes[1:]}

    def test_ledger_mirrors_states_expanded(self):
        env, policy, model = two_branch_setup()
        ledger = Ledger()
        tree = greedy_search(TASK, env, policy, model, SearchConfig(max_depth=3), ledger)
        assert ledger.states_expanded == tree.stats.states_expanded
        assert ledger.per_task_states["t1"] == tree.stats.states_expanded


def beam_fixture() -> dict:
    return {
        "root": "r",
        "nodes": [
            {"id": "r", "observation": "start", "terminal": False},
            {"id": "s1", "observation": "s1", "terminal": False},
            {"id": "s2", "observation": "s2", "terminal": False},
            {"id": "s3", "observation": "s3", "terminal": False},
            {"id": "s4", "observation": "s4", "terminal": False},
            {"id": "t0", "observation": "instant exit", "terminal": True, "score": 1.0},
            {"id": "s1a", "observation": "s1a", "terminal": False},
            {"id": "s1b", "observation": "s1b", "terminal": False},
            {"id": "s2a", "observation": "mid exit", "terminal": True, "score": 0.5},
            {"id": "s2b", "observation": "s2b", "terminal": False},
        ],
        "edges": [
            {"from": "r", "action": "go s1", "to": "s1"},
            {"from": "r", "action": "go s2", "to": "s2"},
            {"from": "r", "action": "go s3", "to": "s3"},
            {"from": "r", "action": "go s4", "to": "s4"},
            {"from": "r", "action": "go t0", "to": "t0"},
            {"from": "s1", "action": "go s1a", "to": "s1a"},
            {"from": "s1", "action": "go s1b", "to": "s1b"},
            {"from": "s2", "action": "go s2a", "to": "s2a"},
            {"from": "s2", "action": "go s2b", "to": "s2b"},
        ],
    }


BEAM_VALUES = {
    "s1": 9.0,
    "s2": 8.0,
    "s3": 7.0,
    "s4": 1.0,
    "t0": 10.0,
    "s1a": 2.0,
    "s1b": 4.0,
    "s2a": 6.0,
    "s2b": 3.0,
}


def beam_setup(values=None):
    env = ScriptedEnvironment.from_dict(beam_fixture())
    return env, ExhaustivePolicy(env), ScriptedValueModel(values or BEAM_VALUES)


class TestBeamSearch:
    def test_global_top_width_survivors(self):
        env, policy, model = beam_setup()
        config = SearchConfig(branching=5, beam_width=2, max_depth=2)
        tree = beam_search(TASK, env, policy, model, config)
        # Level 1 expands the root; s3/s4 fall outside the beam.
        for node in tree.nodes:
            if node.state.id in {"s3", "s4"}:
                assert node.expanded is False
                assert node.children == []
        assert tree.stats.states_expanded == 9
        assert terminal_ids(tree) == ["t0", "s2a"]

    def test_terminals_collected_and_never_reexpanded(self):
        env, policy, model = beam_setup()
        config = SearchConfig(branching=5, beam_width=2, max_depth=2)
        tree = beam_search(TASK, env, policy, model, config)
        assert tree.stats.terminal_reached is True
        terminal_nodes = [n for n in tree.nodes if n.terminal]
        assert all(n.children == [] for n in terminal_nodes)
        # Best path points at the best-valued terminal, found at level 1.
        assert tree.stats.best_path == [0, 5]

    def test_tie_at_cutoff_prefers_earlier_node(self):
        values = dict(BEAM_VALUES, s2=9.0)  # s1 and s2 tie at 9.0
        env, policy, model = beam_setup(values)
        config = SearchConfig(branching=5, beam_width=1, max_depth=2)
        tree = beam_search(TASK, env, policy, model, config)
        s1 = next(n for n in tree.nodes if n.state.id == "s1")
        s2 = next(n for n in tree.nodes if n.state.id == "s2")
        assert s1.expanded is True
        assert s2.expanded is False

    def test_level_one_terminal_collected_even_at_depth_one(self):
        env, policy, model = beam_setup()
        config = SearchConfig(branching=5, beam_width=2, max_depth=1)
        tree = beam_search(TASK, env, policy, model, config)
        # t0 is terminal at level 1, so it is still collected.
        assert terminal_ids(tree) == ["t0"]

    def test_all_successors_kept_when_beam_is_wide(self):
        env, policy, model = beam_setup()
        config = SearchConfig(branching=5, beam_width=50, max_depth=2)
        tree = beam_search(TASK, env, policy, model, config)
        # Every non-terminal level-1 node is expanded under a wide beam.
        for state_id in ("s1", "s2", "s3", "s4"):
            node = next(n for n in tree.nodes if n.state.id == state_id)
            assert node.expanded is True


class TestMctsSearch:
    def config(self, iterations):
        return SearchConfig(branching=5, max_depth=3, mcts_iterations=iterations)

    def test_root_reward_equals_backup_total(self):
        env, policy, model = two_branch_setup()
        tree = mcts_search(TASK, env, policy, model, self.config(4))
        assert tree.root.total_reward == tree.stats.backup_total

    def test_first_iteration_expands_root(self):
        env, policy, model = two_branch_setup()
        tree = mcts_search(TASK, env, policy, model, self.config(1))
        assert tree.stats.states_expanded == 3
        assert tree.root.visits == 3  # one backup per evaluated child
        assert tree.stats.backup_total == pytest.approx((6.0 + 4.0 + 2.0) / 10.0)

    def test_exploration_eventually_reaches_terminal(self):
        env, policy, model = two_branch_setup()
        tree = mcts_search(TASK, env, policy, model, self.config(4))
        assert tree.stats.terminal_reached is True

    def test_best_path_follows_visits_then_value(self):
        env, policy, model = two_branch_setup()
        tree = mcts_search(TASK, env, policy, model, self.config(4))
        ids = [tree.nodes[uid].state.id for uid in tree.stats.best_path]
        assert ids == ["r", "a", "aw"]

    def test_visits_sum_matches_backups(self):
        env, policy, model = two_branch_setup()
        tree = mcts_search(TASK, env, policy, model, self.config(6))
        # The root participates in every backup.
        backups = tree.root.visits
        assert backups >= 6
        total = sum(
            tree.nodes[c].visits for c in tree.root.children
        )
        assert total == backups


class TestEngineContract:
    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_engine_returns_its_tree(self, engine):
        env, policy, model = two_branch_setup()
        config = SearchConfig(max_depth=3, mcts_iterations=4)
        tree = ENGINES[engine](TASK, env, policy, model, config)
        assert isinstance(tree, SearchTree)
        assert tree.engine == engine
        assert tree.stats.best_path
        final = tree.final_trajectory()
        assert final.final_state is tree.nodes[tree.stats.best_path[-1]].state
        assert final.depth == len(tree.stats.best_path) - 1

    def test_final_trajectory_without_best_path_is_the_root(self):
        env, _, _ = two_branch_setup()
        tree = SearchTree(TASK, "greedy", env.initial_state(TASK))
        assert tree.final_trajectory().final_state is tree.root.state


class TestEmptyExpansion:
    """A root with no actions: each engine records the empty proposal and stops."""

    def search(self, engine):
        env = ScriptedEnvironment.from_dict(
            {"root": "a", "nodes": [{"id": "a", "observation": "o"}], "edges": []}
        )
        config = SearchConfig(mcts_iterations=2)
        return ENGINES[engine](TASK, env, ExhaustivePolicy(env), ScriptedValueModel({}), config)

    def test_greedy_breaks_without_an_evaluated_child(self):
        tree = self.search("greedy")
        assert (tree.stats.failures, tree.stats.best_path) == (["empty-proposal@0"], [0])

    def test_beam_records_the_empty_frontier(self):
        tree = self.search("beam")
        assert tree.stats.failures == ["empty-proposal@0", "empty-frontier@0"]

    def test_mcts_backs_up_zero_then_stops_at_the_childless_root(self):
        tree = self.search("mcts")
        stats = tree.stats
        assert (stats.failures, tree.root.visits, stats.backup_total) == (
            ["empty-proposal@0"], 2, 0.0
        )


class TestStateExpansionAccounting:
    @pytest.mark.parametrize("engine", ["greedy", "beam", "mcts"])
    def test_states_expanded_counts_transition_calls(self, engine):
        counting = CountingEnv(Game24Env())
        policy = ExhaustivePolicy(counting)
        model = OracleValueModel()
        task = Task(id="g", instruction="1 2 3")
        config = SearchConfig(branching=4, max_depth=2, beam_width=2, mcts_iterations=3)
        if engine == "greedy":
            tree = greedy_search(task, counting, policy, model, config)
        elif engine == "beam":
            tree = beam_search(task, counting, policy, model, config)
        else:
            tree = mcts_search(task, counting, policy, model, config)
        assert tree.stats.states_expanded == counting.calls
        assert counting.calls > 0


class TestDumpTree:
    def test_identical_runs_dump_identical_bytes(self, tmp_path):
        paths = []
        for name in ("one.json", "two.json"):
            env, policy, model = two_branch_setup()
            tree = greedy_search(TASK, env, policy, model, SearchConfig(max_depth=3))
            path = tmp_path / name
            dump_tree(tree, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_dump_contains_values_and_stats(self, tmp_path):
        import json

        env, policy, model = two_branch_setup()
        tree = greedy_search(TASK, env, policy, model, SearchConfig(max_depth=3))
        path = tmp_path / "tree.json"
        dump_tree(tree, path)
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["engine"] == "greedy"
        assert data["stats"]["states_expanded"] == 5
        by_id = {n["observation"]: n for n in data["nodes"]}
        assert by_id["room a"]["value"] == 6.0
        assert by_id["a win"]["terminal"] is True


def identity(tree):
    return tree


class TestRunRollouts:
    TASKS = [Task(id=f"t{i}", instruction="walk") for i in range(3)]

    def run(self, jobs, parallel=1):
        env, policy, model = two_branch_setup()
        return run_rollouts(
            jobs, "greedy", env, policy, model, SearchConfig(max_depth=3), identity,
            parallel=parallel,
        )

    def test_parallel_trees_keep_job_order_and_serial_bytes(self, tmp_path, monkeypatch):
        serial_dir, parallel_dir = tmp_path / "serial", tmp_path / "parallel"
        serial = self.run([(t, serial_dir / f"{t.id}.json") for t in self.TASKS])
        # The first job cannot finish before the last one has.
        finished: list[str] = []
        last_done = threading.Event()
        greedy = ENGINES["greedy"]

        def out_of_order(task, *args):
            if task.id == "t0":
                last_done.wait(timeout=2.0)
            tree = greedy(task, *args)
            finished.append(task.id)
            if task.id == "t2":
                last_done.set()
            return tree

        monkeypatch.setitem(ENGINES, "greedy", out_of_order)
        jobs = [(t, parallel_dir / f"{t.id}.json") for t in self.TASKS]
        parallel = self.run(jobs, parallel=3)
        assert finished[0] != "t0" and finished[-1] == "t0"
        assert [tree.task.id for tree in parallel] == ["t0", "t1", "t2"]
        assert [render_tree(tree) for tree in parallel] == [render_tree(tree) for tree in serial]
        for task in self.TASKS:
            name = f"{task.id}.json"
            assert (parallel_dir / name).read_bytes() == (serial_dir / name).read_bytes()

    def test_each_tree_is_written_as_soon_as_it_is_built(self, tmp_path, monkeypatch):
        greedy = ENGINES["greedy"]

        def fails_on_t1(task, *args):
            if task.id == "t1":
                raise RuntimeError("rollout failed")
            return greedy(task, *args)

        monkeypatch.setitem(ENGINES, "greedy", fails_on_t1)
        with pytest.raises(RuntimeError, match="rollout failed"):
            self.run([(t, tmp_path / f"{t.id}.json") for t in self.TASKS])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t0.json"]

    def test_eight_threads_keep_job_order_and_per_task_counts(self, tmp_path):
        env = Game24Env()
        puzzles = ["1 2 3 4", "4 6 6 8", "1 1 1 1", "2 3 5 7", "3 3 8 8", "1 5 5 5"] * 2
        tasks = [Task(id=f"g{i}", instruction=p) for i, p in enumerate(puzzles)]
        config = SearchConfig(branching=8, beam_width=3, max_depth=3)
        ledger = Ledger()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            jobs = [(task, tmp_path / f"{task.id}.json") for task in tasks]
            trees = run_rollouts(
                jobs, "beam", env, ExhaustivePolicy(env), OracleValueModel(), config, identity,
                ledger, parallel=8,
            )
        finally:
            sys.setswitchinterval(interval)
        expanded = {tree.task.id: tree.stats.states_expanded for tree in trees}
        assert [tree.task for tree in trees] == tasks
        assert ledger.per_task_states == expanded
        assert ledger.states_expanded == sum(expanded.values()) > 0

    def test_serial_run_stays_on_the_calling_thread(self, tmp_path, monkeypatch):
        # parallel=1 starts no pool, so an order-dependent transport (a
        # scripted replay) sees its calls from the caller, one at a time.
        greedy = ENGINES["greedy"]
        threads = []

        def recording(task, *args):
            threads.append(threading.get_ident())
            return greedy(task, *args)

        monkeypatch.setitem(ENGINES, "greedy", recording)
        trees = self.run([(task, tmp_path / f"{task.id}.json") for task in self.TASKS])
        assert [tree.task for tree in trees] == self.TASKS
        assert threads == [threading.get_ident()] * len(self.TASKS)

    def test_engine_table_is_looked_up_at_call_time(self, tmp_path, monkeypatch):
        # A rebinding of the module's ENGINES (as a tracer makes) reaches
        # every rollout, serial or parallel.
        greedy = ENGINES["greedy"]
        calls = []

        def counted(task, *args):
            calls.append(task.id)
            return greedy(task, *args)

        monkeypatch.setattr(search, "ENGINES", {"greedy": counted})
        for parallel in (1, 2):
            jobs = [(task, tmp_path / f"{task.id}.json") for task in self.TASKS]
            trees = self.run(jobs, parallel=parallel)
            assert [tree.task for tree in trees] == self.TASKS
        assert sorted(calls) == sorted([t.id for t in self.TASKS] * 2)

    def test_every_job_reaches_a_rebound_dump_tree(self, tmp_path, monkeypatch):
        # dump_tree is looked up when each tree is built, so a rebinding of
        # the module attribute (as a tracer makes) sees every write.
        for parallel in (1, 2):
            dumped = []
            monkeypatch.setattr(
                search, "dump_tree", lambda tree, path, dumped=dumped: dumped.append((tree, path))
            )
            jobs = [(task, tmp_path / f"{task.id}.json") for task in self.TASKS]
            trees = self.run(jobs, parallel=parallel)
            assert [tree.task for tree in trees] == self.TASKS
            paths = [path for _, path in jobs]
            assert sorted(dumped, key=lambda pair: pair[1]) == list(zip(trees, paths))
            assert not any(tmp_path.iterdir())


class FixedPolicy(Policy):
    """Proposes the same action texts at every state."""

    def __init__(self, texts):
        self.texts = texts

    def propose(self, trajectory, branching, disallowed=frozenset()):
        return [Action.make(t) for t in self.texts if t not in disallowed][:branching]


def keyed_reply(prompt: str, draw: int) -> str:
    """Deterministic per (prompt, draw): some prompts never parse, some
    first draws are malformed, the rest name a verdict."""
    key = digest(prompt)
    if key % 13 == 0 or (draw == 0 and key % 3 == 0):
        return "The numbers need a closer look."
    verdict = ("sure", "likely", "impossible")[digest(f"{draw}:{prompt}") % 3]
    return f"Tried the promising pairs.\n{verdict}"


class SingleDrawTransport(Transport):
    """Splits every ``n``-choice request into ``n`` single-choice sends."""

    def __init__(self, inner: Transport) -> None:
        self.inner = inner
        self.concurrent_safe = inner.concurrent_safe

    def send(self, request: ChatRequest) -> ChatResponse:
        responses = [self.inner.send(replace(request, n=1)) for _ in range(request.n)]
        return ChatResponse(
            texts=tuple(r.text for r in responses),
            prompt_tokens=sum(r.prompt_tokens for r in responses),
            completion_tokens=sum(r.completion_tokens for r in responses),
        )


class TestBatchedEvaluation:
    def run_beam(self, transport, tmp_path, name):
        env = Game24Env()
        task = Task(id="g", instruction="4 6 6 8")
        ledger = Ledger()
        model = RemoteValueModel(transport, "m", env, GAME24, n_samples=2, ledger=ledger)
        config = SearchConfig(branching=5, beam_width=3, max_depth=3)
        tree = beam_search(task, env, ExhaustivePolicy(env), model, config, ledger)
        path = tmp_path / name
        dump_tree(tree, path)
        return path.read_bytes(), ledger.to_dict(), model.malformed_count

    def test_concurrent_and_serial_beam_dump_identical_bytes(self, tmp_path):
        serial_transport = PromptKeyedTransport(keyed_reply, concurrent_safe=False)
        concurrent_transport = PromptKeyedTransport(keyed_reply, gate=2)
        serial = self.run_beam(serial_transport, tmp_path, "serial.json")
        concurrent = self.run_beam(concurrent_transport, tmp_path, "concurrent.json")
        assert serial_transport.max_in_flight == 1
        assert concurrent_transport.max_in_flight >= 2
        assert concurrent == serial
        assert concurrent_transport.sends == serial_transport.sends
        # The run exercised redraws and a child whose every draw failed.
        failures = json.loads(serial[0])["stats"]["failures"]
        assert any(f.startswith("unparseable-value@") for f in failures)
        assert serial[2] > 0

    def test_batched_draws_match_single_draw_sends(self, tmp_path):
        batched_transport = PromptKeyedTransport(keyed_reply)
        single_transport = PromptKeyedTransport(keyed_reply)
        batched = self.run_beam(batched_transport, tmp_path, "batched.json")
        single = self.run_beam(SingleDrawTransport(single_transport), tmp_path, "single.json")
        assert batched[0] == single[0]
        assert batched[2] == single[2]
        batched_tokens = batched[1]["tokens"]["value|m"]
        single_tokens = single[1]["tokens"]["value|m"]
        assert batched_tokens["completion"] == single_tokens["completion"]
        # The prompt is billed once per request, not once per draw.
        assert batched_tokens["prompt"] < single_tokens["prompt"]
        assert batched[1]["states_expanded"] == single[1]["states_expanded"]
        assert batched_transport.draws == single_transport.draws
        assert single_transport.sends == single_transport.draws
        assert batched_transport.sends < single_transport.sends

    def test_failures_keep_proposal_order(self):
        env, _, _ = two_branch_setup()
        policy = FixedPolicy(["go b", "bogus", "go a", "go c", "also bogus"])
        model = FlakyValueModel(TWO_BRANCH_VALUES, bad_ids={"b", "c"})
        tree = greedy_search(TASK, env, policy, model, SearchConfig(branching=5, max_depth=1))
        assert [f.split(":")[0] for f in tree.stats.failures] == [
            "unparseable-value@1",
            "rejected-action@0",
            "unparseable-value@1",
            "rejected-action@0",
        ]
        assert "bogus" in tree.stats.failures[1]
        assert "also bogus" in tree.stats.failures[3]
        assert [tree.nodes[uid].state.id for uid in tree.root.children] == ["b", "a", "c"]
        assert tree.stats.evaluations == 1


class RecordingValueModel(FlakyValueModel):
    """Records each ``evaluate_many`` batch as the state ids it holds."""

    def __init__(self, values, bad_ids=()):
        super().__init__(values, bad_ids)
        self.batches: list[list[str]] = []

    def evaluate_many(self, trajectories):
        self.batches.append([t.final_state.id for t in trajectories])
        return super().evaluate_many(trajectories)


class ProposalsById(Policy):
    """Proposes the listed action texts at each state id; ``None`` raises."""

    def __init__(self, proposals):
        self.proposals = proposals

    def propose(self, trajectory, branching, disallowed=frozenset()):
        texts = self.proposals[trajectory.final_state.id]
        if texts is None:
            raise ValueError("no ideas")
        return [Action.make(t) for t in texts][:branching]


class FromStateCheckingModel(ValueModel):
    """Wraps a value model; checks every trajectory ``evaluate_many`` gets
    against the one :meth:`Trajectory.from_state` builds for the search's
    task and its state, and records the states judged."""

    def __init__(self, inner, task):
        self.inner = inner
        self.task = task
        self.scale = inner.scale
        self.final_states = []

    def evaluate(self, trajectory):
        return self.inner.evaluate(trajectory)

    def evaluate_many(self, trajectories):
        for trajectory in trajectories:
            assert trajectory == Trajectory.from_state(self.task, trajectory.final_state)
        self.final_states += [trajectory.final_state for trajectory in trajectories]
        return self.inner.evaluate_many(trajectories)


def child_trajectory_setup(world):
    """Environment, task, value model and config for one checked search."""
    if world == "game24":
        env = Game24Env()
        task = Task(id="g", instruction="4 6 6 8")
        config = SearchConfig(branching=6, beam_width=3, max_depth=3, mcts_iterations=8)
        return env, task, OracleValueModel(), config
    env = ScriptedEnvironment.load("fixtures/webshop_demo_env.json")
    task = Task(id="w1", instruction="buy the gray sofa")
    payload = json.loads(Path("fixtures/webshop_demo_values.json").read_text())
    model = ScriptedValueModel(
        payload["values"], default=payload["default"], scale=get_scale(payload["scale"])
    )
    config = SearchConfig(branching=3, beam_width=2, max_depth=3, mcts_iterations=6)
    return env, task, model, config


class TestChildTrajectories:
    @pytest.mark.parametrize("world", ["game24", "webshop"])
    @pytest.mark.parametrize("engine", ["greedy", "beam", "mcts"])
    def test_children_equal_from_state(self, engine, world):
        env, task, inner, config = child_trajectory_setup(world)
        model = FromStateCheckingModel(inner, task)
        tree = ENGINES[engine](task, env, ExhaustivePolicy(env), model, config)
        assert tree.stats.states_expanded > 3
        assert model.final_states == [node.state for node in tree.nodes[1:]]

    @pytest.mark.parametrize("engine", ["greedy", "beam", "mcts"])
    def test_search_walks_no_path(self, engine, monkeypatch):
        """A trajectory is its task and final state, so a search whose models
        render no context never walks a state's lineage; rebuilding each
        node's or child's path from the root would walk once per trajectory."""
        walks = []
        lineage = State.lineage

        def counted(state):
            walks.append(state.id)
            return lineage(state)

        monkeypatch.setattr(State, "lineage", counted)
        env = Game24Env()
        task = Task(id="g", instruction="4 6 6 8")
        config = SearchConfig(branching=10, beam_width=3, max_depth=3, mcts_iterations=10)
        tree = ENGINES[engine](task, env, ExhaustivePolicy(env), OracleValueModel(), config)
        assert tree.stats.states_expanded > 3
        assert walks == []


class TestLevelBatch:
    def test_beam_judges_each_level_in_one_call(self):
        env, policy, _ = beam_setup()
        model = RecordingValueModel(BEAM_VALUES)
        config = SearchConfig(branching=5, beam_width=2, max_depth=2)
        tree = beam_search(TASK, env, policy, model, config)
        # Level 2's frontier is s1 then s2: s1's children come first.
        assert model.batches == [
            ["s1", "s2", "s3", "s4", "t0"],
            ["s1a", "s1b", "s2a", "s2b"],
        ]
        assert tree.stats.evaluations == 9

    def test_greedy_and_mcts_judge_one_node_per_call(self):
        for engine in (greedy_search, mcts_search):
            env, policy, _ = two_branch_setup()
            model = RecordingValueModel(TWO_BRANCH_VALUES)
            engine(TASK, env, policy, model, SearchConfig(max_depth=3, mcts_iterations=2))
            assert model.batches == [["a", "b", "c"], ["aw", "al"]]

    def test_level_failures_keep_frontier_then_proposal_order(self):
        env = ScriptedEnvironment.from_dict(beam_fixture())
        policy = ProposalsById({
            "r": ["go s1", "go s2", "go s3", "go s4"],
            "s1": None,
            "s2": ["go s2b", "bogus", "go s2a"],
            "s3": [],
            "s4": ["also bogus"],
        })
        model = RecordingValueModel(BEAM_VALUES, bad_ids={"s2b"})
        config = SearchConfig(branching=5, beam_width=4, max_depth=2)
        tree = beam_search(TASK, env, policy, model, config)
        assert model.batches == [["s1", "s2", "s3", "s4"], ["s2b", "s2a"]]
        assert [f.split(":")[0] for f in tree.stats.failures] == [
            "propose-error@1",
            "unparseable-value@2",
            "rejected-action@1",
            "empty-proposal@1",
            "rejected-action@1",
        ]
        assert "no ideas" in tree.stats.failures[0]
        assert "bogus" in tree.stats.failures[2]
        assert "also bogus" in tree.stats.failures[4]
        assert [tree.nodes[uid].state.id for uid in tree.nodes[2].children] == ["s2b", "s2a"]
        assert all(tree.nodes[uid].expanded for uid in (1, 2, 3, 4))
        assert terminal_ids(tree) == ["s2a"]

    def test_remote_model_keeps_at_most_16_evaluations_in_flight(self):
        def slow_sure(prompt, draw):
            time.sleep(0.01)
            return "Tried the promising pairs.\nsure"

        # Every send waits until 16 are in flight at once, then each reply
        # takes a moment, so an unbounded pool would pile up all 40.
        transport = PromptKeyedTransport(slow_sure, gate=16)
        env = Game24Env()
        task = Task(id="g", instruction="4 6 6 8")
        root = Trajectory.from_state(task, env.initial_state(task))
        model = RemoteValueModel(transport, "m", env, GAME24)
        results = model.evaluate_many([root] * 40)
        assert [r.value for r in results] == [GAME24.labels["sure"]] * 40
        assert transport.sends == 40
        assert transport.max_in_flight == 16
