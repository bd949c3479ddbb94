"""Tree dumps: ``dump_tree`` writes exactly ``json.dumps``'s indent-2 bytes."""

import json
import tempfile
from dataclasses import replace
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from lookahead.agents.policies import ExhaustivePolicy
from lookahead.agents.values import OracleValueModel, ScriptedValueModel
from lookahead.core import Action, State, Task, ValueEstimate
from lookahead.envs.game24 import Game24Env
from lookahead.envs.scripted import ScriptedEnvironment
from lookahead.search import (
    SearchConfig,
    SearchTree,
    beam_search,
    dump_tree,
    mcts_search,
    render_tree,
)

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


def reference(tree: SearchTree) -> dict:
    """The tree layout as a plain dict, for ``json.dumps`` to render."""
    return {
        "task": {"id": tree.task.id, "instruction": tree.task.instruction},
        "engine": tree.engine,
        "nodes": [
            {
                "uid": node.uid,
                "parent": node.parent_uid,
                "action": node.state.incoming_action.text if node.depth else None,
                "depth": node.depth,
                "observation": node.state.observation,
                "signature": node.state.signature,
                "terminal": node.terminal,
                "value": node.estimate.value if node.estimate else None,
                "samples": list(node.estimate.samples) if node.estimate else None,
                "rationale": node.estimate.rationale if node.estimate else None,
                "visits": node.visits,
                "total_reward": node.total_reward,
                "children": list(node.children),
            }
            for node in tree.nodes
        ],
        "stats": {
            "states_expanded": tree.stats.states_expanded,
            "evaluations": tree.stats.evaluations,
            "terminal_reached": tree.stats.terminal_reached,
            "backup_total": tree.stats.backup_total,
            "failures": list(tree.stats.failures),
            "best_path": list(tree.stats.best_path),
        },
    }


def json_bytes(tree: SearchTree) -> bytes:
    text = json.dumps(reference(tree), sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    return text.encode("utf-8")


def dumped_bytes(tree: SearchTree) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "nested" / "tree.json"
        dump_tree(tree, path)
        return path.read_bytes()


# Characters json escapes or passes through in unusual ways, mixed with any
# other encodable character.
TRICKY = '"\\/\x00\x01\x08\x0b\x1f\x7f\n\t\r\u2028\u2029é€\U0001f600'
TEXT = st.text(st.sampled_from(TRICKY) | st.characters(codec="utf-8"), max_size=12)
NONEMPTY_TEXT = TEXT.filter(bool)
BIG_INTS = st.integers(min_value=-(2**80), max_value=2**80)
NUMBERS = st.floats() | st.just(-0.0) | st.sampled_from([float("inf"), -float("inf")]) | BIG_INTS
COUNTS = st.integers(min_value=0, max_value=2**70)
ESTIMATE = st.builds(
    ValueEstimate,
    rationale=TEXT,
    value=NUMBERS,
    samples=st.lists(NUMBERS, min_size=1, max_size=4).map(tuple),
)
ESTIMATES = st.none() | ESTIMATE
# Actions must be canonical: control characters survive, whitespace collapses.
ACTIONS = TEXT.filter(lambda text: bool(text.split())).map(Action.make)


@st.composite
def trees(draw) -> SearchTree:
    task = Task(id=draw(NONEMPTY_TEXT), instruction=draw(NONEMPTY_TEXT))
    root = State(id="root", depth=0, observation=draw(TEXT), signature=draw(st.none() | TEXT))
    tree = SearchTree(task, draw(st.sampled_from(["greedy", "beam", "mcts"]) | TEXT), root)
    # Parents skew towards the first few nodes, so some node has a long
    # child list; a pick past the end hangs the node under the newest one.
    parents = draw(st.lists(st.integers(min_value=0, max_value=3), max_size=40))
    for index, pick in enumerate(parents):
        parent = tree.nodes[min(pick, index)]
        action = draw(ACTIONS)
        state = State(
            id=f"s{index}",
            depth=parent.depth + 1,
            observation=draw(TEXT),
            incoming_action=action,
            parent=parent.state,
            signature=draw(st.none() | TEXT),
        )
        tree._add(state, parent.uid)
    # As value models hand them out, some nodes share one estimate object
    # and others hold distinct but equal ones; the rest draw their own.
    pool = draw(st.lists(ESTIMATE, min_size=1, max_size=3))
    for node in tree.nodes:
        source = draw(st.sampled_from(["own", "shared", "equal"]))
        if source == "own":
            node.estimate = draw(ESTIMATES)
        else:
            estimate = draw(st.sampled_from(pool))
            node.estimate = estimate if source == "shared" else replace(estimate)
        node.terminal = draw(st.booleans())
        node.visits = draw(COUNTS)
        node.total_reward = draw(NUMBERS)
    stats = tree.stats
    stats.states_expanded = draw(COUNTS)
    stats.evaluations = draw(COUNTS)
    stats.terminal_reached = draw(st.booleans())
    stats.backup_total = draw(NUMBERS)
    stats.failures = draw(st.lists(TEXT, max_size=4))
    stats.best_path = draw(st.lists(st.integers(min_value=0, max_value=len(tree.nodes) - 1)))
    return tree


class TestRenderedBytes:
    @given(trees())
    def test_dump_equals_json_dumps_with_sorted_keys_and_indent_2(self, tree):
        expected = json_bytes(tree)
        assert render_tree(tree).encode("utf-8") == expected
        assert dumped_bytes(tree) == expected

    def test_no_encoding_outlives_its_render(self):
        # A freed estimate's id may come back on the next one built.
        tree = SearchTree(Task(id="t", instruction="i"), "beam", State("root", 0, "o"))
        for value in range(5):
            tree.root.estimate = None
            tree.root.estimate = ValueEstimate(f"r{value}", float(value), (float(value),))
            assert render_tree(tree).encode("utf-8") == json_bytes(tree)


class TestGoldenTrees:
    """Bytes written for two fixed runs, pinned before the fixed-template writer."""

    def test_game24_beam_tree(self):
        env = Game24Env()
        task = Task(id="g24-0007", instruction="4 6 6 8")
        config = SearchConfig(branching=5, beam_width=3, max_depth=3)
        tree = beam_search(task, env, ExhaustivePolicy(env), OracleValueModel(), config)
        assert dumped_bytes(tree) == (GOLDEN / "tree_game24_beam.json").read_bytes()

    def test_scripted_mcts_tree(self):
        env = ScriptedEnvironment.load(REPO / "fixtures" / "webshop_demo_env.json")
        values = json.loads((REPO / "fixtures" / "webshop_demo_values.json").read_text())
        tasks = json.loads((REPO / "fixtures" / "webshop_tasks_50.json").read_text())["tasks"]
        task = Task(id=tasks[0]["id"], instruction=tasks[0]["instruction"])
        model = ScriptedValueModel(values["values"], default=values["default"])
        config = SearchConfig(branching=3, max_depth=4, mcts_iterations=8)
        tree = mcts_search(task, env, ExhaustivePolicy(env), model, config)
        assert dumped_bytes(tree) == (GOLDEN / "tree_scripted_mcts.json").read_bytes()
