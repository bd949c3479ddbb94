"""Acceptance suite: one test per shipped guarantee.

Each test ends by printing a ``criterion NN: PASS`` line; run with
``pytest tests/test_acceptance.py -v -s`` to see those lines alongside
pytest's own per-test verdicts.  Wall-clock budgets are asserted with
``time.monotonic`` so a regression in the hot paths fails loudly.
"""

import itertools
import json
import random
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from lookahead.agents.policies import ExhaustivePolicy
from lookahead.agents.rationales import parse_simulated_lookahead
from lookahead.agents.scales import GAME24, LIKERT10, NUMERIC10, format_score_sentence, get_scale
from lookahead.agents.values import OracleValueModel, ScriptedValueModel
from lookahead.cli import main
from lookahead.core import (
    Action,
    State,
    Task,
    Trajectory,
    TrainingExample,
    ValueEstimate,
    state_key,
)
from lookahead.envs.game24 import Game24Env, Verdict, solve_verdict
from lookahead.envs.scripted import ScriptedEnvironment
from lookahead.evaluation import Ledger, PricingTable, cost, paired_bootstrap
from lookahead.search import ENGINES, SearchConfig
from lookahead.stl import (
    Dataset,
    LookaheadRecord,
    StlConfig,
    TabularTrainer,
    build_action_outcome,
    dedup_latest,
    filter_examples,
    lookahead_target,
    stl_run,
)


def verdict_line(number: int, detail: str) -> None:
    print(f"criterion {number:02d}: PASS - {detail}")


# --------------------------------------------------------------------------
# Independent brute-force enumerator: all binary expression trees over four
# numbers, written as permutations x parenthesization shapes x operator
# triples.  Shares no code with the solver under test.


def _apply(a: Fraction, op: str, b: Fraction) -> Fraction | None:
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if b == 0:
        return None
    return a / b


def _shape_value(shape: int, nums: tuple[Fraction, ...], ops: tuple[str, str, str]) -> Fraction | None:
    a, b, c, d = nums
    p, q, r = ops
    if shape == 0:  # ((a.b).c).d
        x = _apply(a, p, b)
        y = _apply(x, q, c) if x is not None else None
        return _apply(y, r, d) if y is not None else None
    if shape == 1:  # (a.(b.c)).d
        x = _apply(b, q, c)
        y = _apply(a, p, x) if x is not None else None
        return _apply(y, r, d) if y is not None else None
    if shape == 2:  # (a.b).(c.d)
        x = _apply(a, p, b)
        y = _apply(c, r, d)
        return _apply(x, q, y) if x is not None and y is not None else None
    if shape == 3:  # a.((b.c).d)
        x = _apply(b, q, c)
        y = _apply(x, r, d) if x is not None else None
        return _apply(a, p, y) if y is not None else None
    x = _apply(c, r, d)  # a.(b.(c.d))
    y = _apply(b, q, x) if x is not None else None
    return _apply(a, p, y) if y is not None else None


_TWENTY_FOUR = Fraction(24)


def brute_force_solvable(numbers: tuple[int, ...]) -> bool:
    values = tuple(Fraction(n) for n in numbers)
    for perm in set(itertools.permutations(values)):
        for ops in itertools.product("+-*/", repeat=3):
            for shape in range(5):
                if _shape_value(shape, perm, ops) == _TWENTY_FOUR:
                    return True
    return False


def test_criterion_01_oracle_matches_independent_enumerator():
    rng = random.Random(20240)
    draws = [tuple(rng.randint(1, 13) for _ in range(4)) for _ in range(500)]
    start = time.monotonic()
    memo: dict[tuple[int, ...], bool] = {}
    disagreements = 0
    for numbers in draws:
        key = tuple(sorted(numbers))
        if key not in memo:
            memo[key] = brute_force_solvable(numbers)
        oracle_says = solve_verdict(numbers) is Verdict.SURE
        if oracle_says != memo[key]:
            disagreements += 1
    elapsed = time.monotonic() - start
    assert disagreements == 0
    assert elapsed < 30.0
    verdict_line(
        1,
        f"oracle agreed with the enumerator on 500/500 draws "
        f"({len(memo)} unique) in {elapsed:.1f}s",
    )


def _load_test_puzzles() -> list[Task]:
    data = json.loads(Path("fixtures/game24_test_50.json").read_text())
    return [
        Task(id=entry["id"], instruction=entry["instruction"])
        for entry in data["tasks"]
    ]


def _solved_terminal(env, tree) -> bool:
    for node in tree.nodes:
        if not node.terminal:
            continue
        trajectory = tree.trajectory_to(node.uid)
        if env.ground_truth_score(trajectory) == 1.0:
            return True
    return False


def test_criterion_02_oracle_guided_beam_solves_all_solvable_puzzles():
    tasks = _load_test_puzzles()
    assert len(tasks) == 50
    env = Game24Env()
    policy = ExhaustivePolicy(env)
    oracle = OracleValueModel()
    config = SearchConfig(branching=5, beam_width=5, max_depth=3)
    start = time.monotonic()
    solved = 0
    for task in tasks:
        numbers = tuple(int(piece) for piece in task.instruction.split())
        assert brute_force_solvable(numbers), f"{task.id} is not solvable"
        tree = ENGINES["beam"](task, env, policy, oracle, config)
        solved += _solved_terminal(env, tree)
    elapsed = time.monotonic() - start
    assert solved == 50
    assert elapsed < 60.0
    verdict_line(2, f"beam(width 5, B=5) + oracle solved 50/50 in {elapsed:.1f}s")


def _demo_value_model() -> ScriptedValueModel:
    payload = json.loads(Path("fixtures/webshop_demo_values.json").read_text())
    return ScriptedValueModel(
        payload["values"], default=payload["default"], scale=get_scale(payload["scale"])
    )


def test_criterion_03_recorded_targets_equal_discounted_max(monkeypatch, tmp_path):
    trees = []
    beam = ENGINES["beam"]

    def recording_beam(*args, **kwargs):
        tree = beam(*args, **kwargs)
        trees.append(tree)
        return tree

    monkeypatch.setitem(ENGINES, "beam", recording_beam)
    env = ScriptedEnvironment.load("fixtures/webshop_demo_env.json")
    base = _demo_value_model()
    tasks = [
        Task(id=f"s{i}", instruction=f"buy the gray sofa, variant {i}")
        for i in range(1, 5)
    ]
    gamma = 0.9
    result = stl_run(
        tasks,
        env,
        ExhaustivePolicy(env),
        base,
        TabularTrainer(),
        StlConfig(
            iterations=2, tasks_per_iteration=2, gamma=gamma, engine="beam", accumulate=True
        ),
        SearchConfig(branching=3, beam_width=3, max_depth=4),
        out_dir=tmp_path,
    )
    assert [tree.task for tree in trees] == tasks
    expected: dict[str, set[float]] = {}
    for task, tree in zip(tasks, trees):
        for node, children in tree.lookahead_entries():
            key = state_key(tree.trajectory_to(node.uid))
            best = max(child.estimate.value for child in children)
            expected.setdefault(key, set()).add(gamma * best)
    final = result.datasets[-1]
    assert len(final) >= 40
    violations = 0
    for key, example in final.examples.items():
        _, _, _, recorded = parse_simulated_lookahead(example.completion, base.scale)
        targets = expected[key]
        assert len(targets) == 1, "scripted rollouts must be deterministic"
        if abs(recorded - next(iter(targets))) > 1e-9:
            violations += 1
    assert violations == 0
    verdict_line(
        3,
        f"all {len(final)} recorded targets equal {gamma} x max successor value "
        "within 1e-9",
    )


# A canned shopping-session lookahead block used as a fixed parsing probe.
CANNED_SHOPPING_BLOCK = (
    "I will evaluate the best successor state from the current state:\n\n"
    "Best Next Action: click[x02c-gray]\n\n"
    "Observation of Best Successor State: You have clicked x02c-gray.\n\n"
    "Reflection of the Best Successor State: The last action selects the color "
    "'x02c-gray' for the item B09T3PJM1R. Based on the observation, this "
    "product's color is indeed gray, which matches the specified criteria. "
    "Therefore, this product matches one of the attributes mentioned in the "
    "task. The last action and observation thus capture a step that selects an "
    "attribute mentioned in the instruction, but not all attributes mentioned "
    "(specifically the size attribute) are currently selected. Thus, the "
    "correctness score is 6.00 / 10.00."
)

_WORDS = (
    "cart",
    "holds",
    "matching",
    "item",
    "color",
    "option",
    "review",
    "plan",
    "verify",
    "budget",
    "closer",
    "toward",
    "goal",
    "progress",
)


def _sentence(rng: random.Random) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(rng.randint(3, 8))) + "."


def _synthetic_record(rng: random.Random, index: int):
    """One randomized (record, scale, body) triple for the round-trip check."""
    if index % 2 == 0:
        scale = NUMERIC10
        if index % 4 == 0:
            gamma, value = 1.0, rng.randrange(0, 1001) / 100
        else:
            gamma, value = 0.5, rng.randrange(0, 501) / 50
    elif index % 4 == 1:
        scale, gamma = LIKERT10, 1.0
        value = float(rng.choice((1, 2, 4, 6, 8, 10)))
    else:
        scale, gamma = GAME24, 1.0
        value = rng.choice((20.0, 1.0, 0.001))
    body = "" if rng.random() < 0.1 else _sentence(rng)
    if scale.labels is not None:
        rationale = f"{body}\n{format_score_sentence(value, scale)}".lstrip("\n")
    else:
        sentence = format_score_sentence(value, scale)
        rationale = f"{body} {sentence}" if body else sentence
    action = Action.make(f"visit node {index} {rng.choice(_WORDS)}")
    observation = _sentence(rng)
    if rng.random() < 0.3:
        observation += "\n" + _sentence(rng)
    parent = State(id=f"p{index}", depth=0, observation=f"context {index}")
    successor = State(
        id=f"p{index}.c",
        depth=1,
        observation=observation,
        incoming_action=action,
        parent=parent,
    )
    task = Task(id=f"r{index}", instruction=f"record {index}")
    estimate = ValueEstimate(rationale=rationale, value=value, samples=(value,))
    record = lookahead_target(Trajectory(task, parent), [(successor, estimate)], gamma)
    assert record.target == gamma * value
    return record, scale, body


def test_criterion_04_round_trip_is_exact_on_randomized_records():
    rng = random.Random(4242)
    for index in range(1000):
        record, scale, body = _synthetic_record(rng, index)
        completion = build_action_outcome(record, scale)
        action, observation, rationale, value = parse_simulated_lookahead(
            completion, scale
        )
        assert action == record.best_successor.incoming_action.text, f"record {index}"
        assert observation == record.best_successor.observation, f"record {index}"
        assert rationale == body, f"record {index}"
        assert value == record.target, f"record {index}"
    action, observation, _, value = parse_simulated_lookahead(
        CANNED_SHOPPING_BLOCK, NUMERIC10
    )
    assert action == "click[x02c-gray]"
    assert observation == "You have clicked x02c-gray."
    assert value == 6.0
    verdict_line(
        4, "1000/1000 randomized records round-tripped; canned block parses to 6.0"
    )


def _fan_out_fixture() -> tuple[dict, dict[str, float]]:
    """Depth-4, fan-out-3 tree: 40 interior nodes, 81 scored leaves."""
    nodes = [{"id": "n", "observation": "view n", "terminal": False}]
    edges = []
    frontier = ["n"]
    for depth in range(4):
        next_frontier = []
        for node_id in frontier:
            for branch in range(3):
                child = f"{node_id}{branch}"
                entry: dict = {
                    "id": child,
                    "observation": f"view {child}",
                    "terminal": depth == 3,
                }
                if depth == 3:
                    entry["score"] = 0.0
                nodes.append(entry)
                edges.append({"from": node_id, "action": f"go {branch}", "to": child})
                next_frontier.append(child)
        frontier = next_frontier
    leaf_values = {
        leaf: ((i * 37) % 1000 + 1) / 100 for i, leaf in enumerate(frontier)
    }
    return {"root": "n", "nodes": nodes, "edges": edges}, leaf_values


def _optimal_backup(node_id: str, depth: int, leaf_values: dict[str, float]) -> float:
    if depth == 4:
        return leaf_values[node_id]
    return max(
        _optimal_backup(f"{node_id}{branch}", depth + 1, leaf_values)
        for branch in range(3)
    )


def test_criterion_05_four_iterations_reach_value_iteration_fixed_point(tmp_path):
    payload, leaf_values = _fan_out_fixture()
    env = ScriptedEnvironment.from_dict(payload)
    base = ScriptedValueModel(leaf_values, default=5.0)
    tasks = [
        Task(id=f"t{i}", instruction="descend")
        for i in range(1, 5)
    ]
    result = stl_run(
        tasks,
        env,
        ExhaustivePolicy(env),
        base,
        TabularTrainer(),
        StlConfig(
            iterations=4,
            tasks_per_iteration=1,
            gamma=1.0,
            engine="beam",
            accumulate=True,
        ),
        SearchConfig(branching=3, beam_width=30, max_depth=4),
        out_dir=tmp_path,
    )
    # Every interior state (1 + 3 + 9 + 27) ends up in the dataset.
    assert len(result.datasets[-1]) == 40
    trajectory = Trajectory.from_state(tasks[0], env.initial_state(tasks[0]))
    root_value = result.final_model.evaluate(trajectory).value
    optimal = _optimal_backup("n", 0, leaf_values)
    assert root_value == optimal
    verdict_line(
        5, f"trained root value {root_value} equals the brute-force backup exactly"
    )


def _probe_record(index: int, rationale: str) -> LookaheadRecord:
    task = Task(id=f"m{index}", instruction=f"probe {index}")
    parent = State(id=f"m{index}", depth=0, observation=f"obs {index}")
    successor = State(
        id=f"m{index}.c",
        depth=1,
        observation="next view",
        incoming_action=Action.make("step ahead"),
        parent=parent,
    )
    estimate = ValueEstimate(rationale=rationale, value=4.0, samples=(4.0,))
    return lookahead_target(Trajectory.from_state(task, parent), [(successor, estimate)], 1.0)


def _collision_example(key: str, iteration: int) -> TrainingExample:
    return TrainingExample(
        task_id="t",
        context=f"context for {key}",
        completion=f"completion {key} from iteration {iteration}",
        depth=1,
        iteration=iteration,
        state_key=key,
    )


def test_criterion_06_filtering_rejects_malformed_and_dedup_keeps_latest():
    likert_rationales = []
    for i in range(60):
        kind = i % 3
        if kind == 0:
            likert_rationales.append(f"The state {i} looks promising overall.")
        elif kind == 1:
            off_grid = (3, 5, 7, 9)[i % 4]
            likert_rationales.append(
                f"Steady. Thus, the correctness score is {off_grid}.00 / 10.00."
            )
        else:
            likert_rationales.append(
                "Beyond belief. Thus, the correctness score is 12.00 / 10.00."
            )
    game24_rationales = []
    for i in range(40):
        if i % 2 == 0:
            game24_rationales.append(f"Both verdicts at once {i}.\nsure impossible")
        else:
            game24_rationales.append(f"No verdict given here {i}.")

    rejected_total = 0
    reasons: set[str] = set()
    for scale, rationales in ((LIKERT10, likert_rationales), (GAME24, game24_rationales)):
        records = [_probe_record(i, rationale) for i, rationale in enumerate(rationales)]
        examples, rejections = filter_examples(records, scale, 1)
        assert examples == []
        assert sum(rejections.values()) == len(records)
        rejected_total += sum(rejections.values())
        assert all(rejections)
        reasons.update(rejections)
    assert rejected_total == 100
    assert {"scaffolding-missing", "value-not-admissible", "conflicting-labels"} <= reasons

    rng = random.Random(66)
    keys = [f"c{i:03d}" for i in range(200)]
    first, _ = dedup_latest(Dataset(), [_collision_example(k, 1) for k in keys], 1)
    incoming = [_collision_example(k, 2) for k in keys]
    rng.shuffle(incoming)
    merged, counts = dedup_latest(first, incoming, 2)
    assert counts["replaced"] == 200
    assert counts["added"] == 0
    assert all(ex.iteration == 2 for ex in merged.examples.values())
    verdict_line(
        6,
        "100/100 malformed rationales rejected with reasons; "
        "200/200 collisions kept the higher iteration",
    )


def test_criterion_07_default_pricing_reproduces_reference_costs():
    ledger = Ledger()
    for model in ("gpt-3.5-turbo", "gpt-4o", "llama-3.1-8b-instruct"):
        ledger.add_tokens("policy", model, 1000, 1000, task_id="t1")
    per_model = cost(ledger, PricingTable())
    assert per_model["gpt-3.5-turbo"] == Decimal("0.002000")
    assert per_model["gpt-4o"] == Decimal("0.012500")
    assert per_model["llama-3.1-8b-instruct"] == Decimal("0.000130")
    assert sum(per_model.values()) == Decimal("0.014630")
    verdict_line(7, "1000+1000 tokens price to 0.002000 / 0.012500 / 0.000130 exactly")


def test_criterion_08_paired_bootstrap_calibration_and_reproducibility():
    dominant, _ = paired_bootstrap([1.0] * 20, [0.0] * 20, b_samples=100_000, seed=3)
    assert dominant == 0.0

    # Symmetric zero-delta construction with tie-free resampled means: the
    # paired differences are +/-(1 + i/97), so no index multiset sums to zero.
    diffs = [1 + i / 97 for i in range(10)]
    scores_a = [5.0 + d for d in diffs] + [5.0 - d for d in diffs]
    scores_b = [5.0] * 20
    symmetric, _ = paired_bootstrap(scores_a, scores_b, b_samples=100_000, seed=7)
    assert 0.45 <= symmetric <= 0.55

    rng = random.Random(88)
    wide_a = [rng.random() for _ in range(500)]
    wide_b = [rng.random() for _ in range(500)]
    start = time.monotonic()
    first, _ = paired_bootstrap(wide_a, wide_b, b_samples=1_000_000, seed=13)
    elapsed = time.monotonic() - start
    second, _ = paired_bootstrap(wide_a, wide_b, b_samples=1_000_000, seed=13)
    assert elapsed < 60.0
    assert first == second
    assert 0.0 < first < 1.0
    verdict_line(
        8,
        f"dominant p=0, symmetric p={symmetric:.4f}, b=1e6 in {elapsed:.1f}s "
        "with bit-equal reruns",
    )


class CountingEnv:
    """Delegating wrapper that counts transition calls."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.calls = 0

    def transition(self, *args, **kwargs):
        self.calls += 1
        return self.inner.transition(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def _chain_fixture() -> dict:
    """A five-rung ladder; each rung offers one advance and four dead ends."""
    nodes = [{"id": "c0", "observation": "rung 0", "terminal": False}]
    edges = []
    for level in range(5):
        current, nxt = f"c{level}", f"c{level + 1}"
        entry: dict = {
            "id": nxt,
            "observation": f"rung {level + 1}",
            "terminal": level + 1 == 5,
        }
        if level + 1 == 5:
            entry["score"] = 1.0
        nodes.append(entry)
        edges.append({"from": current, "action": "advance", "to": nxt})
        for side in range(4):
            leaf = f"d{level}{side}"
            nodes.append(
                {"id": leaf, "observation": f"detour {level}.{side}", "terminal": True, "score": 0.0}
            )
            edges.append({"from": current, "action": f"detour {side}", "to": leaf})
    return {"root": "c0", "nodes": nodes, "edges": edges}


def test_criterion_09_states_expanded_equals_transition_calls():
    task = Task(id="w1", instruction="buy the gray sofa")
    for engine in ("greedy", "beam", "mcts"):
        counting = CountingEnv(ScriptedEnvironment.load("fixtures/webshop_demo_env.json"))
        tree = ENGINES[engine](
            task,
            counting,
            ExhaustivePolicy(counting),
            _demo_value_model(),
            SearchConfig(branching=3, beam_width=2, max_depth=3, mcts_iterations=6),
        )
        assert counting.calls > 0
        assert tree.stats.states_expanded == counting.calls, engine

    counting = CountingEnv(ScriptedEnvironment.from_dict(_chain_fixture()))
    values = {f"c{i}": 9.0 for i in range(1, 6)}
    tree = ENGINES["greedy"](
        Task(id="ladder", instruction="climb"),
        counting,
        ExhaustivePolicy(counting),
        ScriptedValueModel(values, default=1.0),
        SearchConfig(branching=5, max_depth=5),
    )
    assert counting.calls == 25
    assert tree.stats.states_expanded == 25
    assert len(tree.nodes) == 26
    verdict_line(
        9, "states_expanded matched transition calls in all engines; ladder run = 25"
    )


def _write_tasks(path: Path, count: int) -> str:
    entries = [
        {"id": f"w{i}", "instruction": f"buy the gray sofa, request {i}", "split": "rollout"}
        for i in range(1, count + 1)
    ]
    path.write_text(json.dumps({"tasks": entries}, indent=2), encoding="utf-8")
    return str(path)


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(item.relative_to(root)): item.read_bytes()
        for item in sorted(root.rglob("*"))
        if item.is_file()
    }


def test_criterion_10_manifest_reruns_are_byte_identical(tmp_path):
    tasks = _write_tasks(tmp_path / "tasks.json", 2)
    search_first = tmp_path / "search-first"
    search_again = tmp_path / "search-again"
    argv = [
        "search",
        "--environment",
        "scripted:fixtures/webshop_demo_env.json",
        "--value",
        "scripted:fixtures/webshop_demo_values.json",
        "--engine",
        "beam",
        "--branching",
        "3",
        "--beam-width",
        "2",
        "--tasks",
        tasks,
        "--out",
        str(search_first),
    ]
    assert main(argv) == 0
    assert (
        main(["search", "--config", str(search_first / "manifest.json"), "--out", str(search_again)])
        == 0
    )
    for rel in ("results.json", "ledger.json", "report/summary.csv", "report/per_task.csv"):
        assert (search_first / rel).read_bytes() == (search_again / rel).read_bytes(), rel
    first_trees = _tree_bytes(search_first / "trees")
    again_trees = _tree_bytes(search_again / "trees")
    assert first_trees and first_trees == again_trees

    stl_first = tmp_path / "stl-first"
    stl_again = tmp_path / "stl-again"
    stl_argv = [
        "stl",
        "--environment",
        "scripted:fixtures/webshop_demo_env.json",
        "--value",
        "scripted:fixtures/webshop_demo_values.json",
        "--stl-engine",
        "beam",
        "--branching",
        "3",
        "--beam-width",
        "2",
        "--iterations",
        "2",
        "--tasks-per-iteration",
        "1",
        "--accumulate",
        "--tasks",
        tasks,
        "--out",
        str(stl_first),
    ]
    assert main(stl_argv) == 0
    assert (
        main(["stl", "--config", str(stl_first / "manifest.json"), "--out", str(stl_again)]) == 0
    )
    assert (stl_first / "ledger.json").read_bytes() == (stl_again / "ledger.json").read_bytes()
    first_artifacts = _tree_bytes(stl_first / "stl")
    again_artifacts = _tree_bytes(stl_again / "stl")
    assert set(first_artifacts) == set(again_artifacts)
    datasets_compared = 0
    for rel, payload in first_artifacts.items():
        assert payload == again_artifacts[rel], rel
        if rel.endswith(".jsonl"):
            datasets_compared += 1
    assert datasets_compared >= 3
    assert "stl_report.json" in first_artifacts
    verdict_line(10, "search and stl reruns from manifests matched byte for byte")
