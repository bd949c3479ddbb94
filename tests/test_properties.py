"""Properties over random inputs: STL is value iteration on random acyclic
fixtures, the engines keep their invariants under random configs, and the
rationale parsers refuse arbitrary text only through MalformedRationale.

Run with ``HYPOTHESIS_PROFILE=thorough`` for 400 examples per property.
"""

import re
import tempfile
from collections import Counter

from hypothesis import given
from hypothesis import strategies as st

from lookahead.agents.policies import ExhaustivePolicy
from lookahead.agents.rationales import (
    ACTION_LABEL,
    LOOKAHEAD_HEADER,
    OBSERVATION_LABEL,
    REFLECTION_LABEL,
    parse_simulated_lookahead,
)
from lookahead.agents.scales import (
    NUMERIC10, SCALES, MalformedRationale, format_score_sentence, parse_value,
)
from lookahead.agents.values import ScriptedValueModel
from lookahead.core import Task, Trajectory, state_key
from lookahead.envs.scripted import ScriptedEnvironment
from lookahead.search import ENGINES, SearchConfig
from lookahead.stl import StlConfig, TabularTrainer, import_jsonl, stl_run

TASK = Task(id="t1", instruction="walk the graph")

# Two-decimal values on the numeric10 scale, as a fixture would state them.
VALUES = st.integers(0, 1000).map(lambda cents: cents / 100)


@st.composite
def acyclic_fixtures(draw):
    """A fixture of 2-10 nodes with edges ``i -> j`` only for ``i < j``,
    cut to what node 0 (the root, which has at least one edge) reaches;
    nodes without edges are terminal."""
    n = draw(st.integers(2, 10))
    targets = {i: draw(st.sets(st.integers(i + 1, n - 1))) for i in range(n - 1)}
    targets[n - 1] = set()
    if not targets[0]:
        targets[0] = {draw(st.integers(1, n - 1))}
    reachable = {0}
    for i in range(n):  # edges point forward, so one pass in index order finds them all
        if i in reachable:
            reachable |= targets[i]
    nodes = sorted(reachable)
    return {
        "root": "n0",
        "nodes": [
            {"id": f"n{i}", "observation": f"at {i}", "terminal": not targets[i]} for i in nodes
        ],
        "edges": [
            {"from": f"n{i}", "action": f"go {j}", "to": f"n{j}"}
            for i in nodes
            for j in sorted(targets[i])
        ],
    }


@st.composite
def valued_fixtures(draw):
    """A fixture, its scripted environment and a numeric10 base model that
    values each leaf and answers every other state with a default."""
    fixture = draw(acyclic_fixtures())
    leaves = [node["id"] for node in fixture["nodes"] if node["terminal"]]
    values = {leaf: draw(VALUES) for leaf in leaves}
    model = ScriptedValueModel(values, default=draw(VALUES), scale=NUMERIC10)
    return fixture, ScriptedEnvironment.from_dict(fixture), model


def brute_force_backups(env, model, gamma, horizon):
    """By state key, the backup of every non-terminal state above ``horizon``,
    rounded at each level as a completion renders it."""
    backups = {}

    def backup(state):
        if env.is_terminal(state):
            return model.values[state.id]
        if state.depth == horizon:
            return model.default
        children = [backup(env.transition(state, a)) for a in env.enumerable_actions(state)]
        value = float(f"{gamma * max(children):.2f}")
        backups[state_key(Trajectory(TASK, state))] = value
        return value

    backup(env.initial_state(TASK))
    return backups


class TestValueIteration:
    @given(
        setup=valued_fixtures(),
        depth=st.integers(1, 4),
        gamma=st.sampled_from([1.0, 0.9]),
    )
    def test_final_dataset_holds_the_brute_force_backup_of_every_state(
        self, setup, depth, gamma
    ):
        fixture, env, model = setup
        # Every out-degree is below the node count; a level may hold more
        # paths than there are nodes, so the beam keeps them all.
        branching = len(fixture["nodes"])
        # The same task each iteration: state keys render the instruction, not the id.
        tasks = [Task(id=f"t{k}", instruction=TASK.instruction) for k in range(1, depth + 1)]
        with tempfile.TemporaryDirectory() as out:
            stl_run(
                tasks=tasks,
                env=env,
                policy=ExhaustivePolicy(env),
                base_model=model,
                trainer=TabularTrainer(),
                stl_config=StlConfig(
                    iterations=depth, engine="beam", accumulate=True, gamma=gamma
                ),
                search_config=SearchConfig(branching=branching, max_depth=depth, beam_width=1000),
                out_dir=out,
            )
            dataset = import_jsonl(f"{out}/final_model.jsonl")
        trained = {
            key: parse_simulated_lookahead(example.completion, NUMERIC10)[3]
            for key, example in dataset.examples.items()
        }
        assert trained == brute_force_backups(env, model, gamma, depth)


class CountingEnvironment(ScriptedEnvironment):
    transitions = 0

    def transition(self, state, action):
        self.transitions += 1
        return super().transition(state, action)


class TestEngineInvariants:
    @given(
        fixture=acyclic_fixtures(),
        values=st.lists(VALUES, min_size=10, max_size=10),
        engine=st.sampled_from(sorted(ENGINES)),
        config=st.builds(
            SearchConfig,
            branching=st.integers(1, 10),
            max_depth=st.integers(1, 5),
            beam_width=st.integers(1, 4),
            mcts_iterations=st.integers(1, 20),
        ),
    )
    def test_engines_keep_their_invariants(self, fixture, values, engine, config):
        env = CountingEnvironment.from_dict(fixture)
        model = ScriptedValueModel({f"n{i}": v for i, v in enumerate(values)})
        tree = ENGINES[engine](TASK, env, ExhaustivePolicy(env), model, config)
        nodes = tree.nodes
        assert tree.stats.states_expanded == env.transitions
        path = tree.stats.best_path
        assert path[0] == 0
        assert all(nodes[child].parent_uid == parent for parent, child in zip(path, path[1:]))
        if engine == "beam":
            expanded = Counter(n.depth for n in nodes if n.expanded and n.depth >= 1)
            assert all(count <= config.beam_width for count in expanded.values())
        if engine == "mcts":
            assert tree.root.total_reward == tree.stats.backup_total
            for node in nodes:
                assert node.visits >= sum(nodes[c].visits for c in node.children)


# Each verdict letter with every character ``re``'s IGNORECASE equates with
# it: its other case, and lookalikes such as ``ſ`` for ``s`` or ``ı`` for ``i``.
_LOOKALIKES = {
    letter: sorted(c for c in map(chr, range(0x2200)) if re.fullmatch(letter, c, re.IGNORECASE))
    for letter in set("sure" "likely" "impossible")
}


def _case_variants(word: str):
    return st.tuples(*(st.sampled_from(_LOOKALIKES[letter]) for letter in word)).map("".join)


FRAGMENTS = st.one_of(
    st.text(max_size=20),
    st.sampled_from(
        [LOOKAHEAD_HEADER, ACTION_LABEL, OBSERVATION_LABEL, REFLECTION_LABEL, "\n", "\n\n", " "]
    ),
    st.sampled_from(["sure", "likely", "impossible"]).flatmap(_case_variants),
    st.floats(-20, 30, allow_nan=False).map(lambda v: format_score_sentence(v, NUMERIC10)),
    st.from_regex(r"Thus,? the correctness score is -?\d{1,3}(\.\d{1,3})?( / 10)?", fullmatch=True),
)


class TestParsers:
    @given(text=st.lists(FRAGMENTS, max_size=12).map("".join))
    def test_arbitrary_text_is_refused_only_as_malformed(self, text):
        for scale in SCALES.values():
            for parse in (parse_value, parse_simulated_lookahead):
                try:
                    parse(text, scale)
                except MalformedRationale:
                    pass
