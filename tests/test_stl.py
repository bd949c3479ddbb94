"""Self-training pipeline: targets, filtering, dedup, export, training loop."""

import json
import threading
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lookahead import cli, stl
from lookahead.agents.policies import ExhaustivePolicy
from lookahead.agents.rationales import format_lookahead_block, parse_simulated_lookahead
from lookahead.agents.scales import LIKERT10, NUMERIC10
from lookahead.agents.values import (
    ConstantValueModel,
    OracleValueModel,
    RoutedValueModel,
    ScriptedValueModel,
)
from lookahead.core import (
    Action,
    ConfigError,
    State,
    Task,
    Trajectory,
    TrainingExample,
    ValueEstimate,
    state_key,
)
from lookahead.cli import build_value_model, config_from_dict, main
from lookahead.envs.base import ActionRejected
from lookahead.envs.game24 import Game24Env, Verdict, solve_verdict
from lookahead.envs.scripted import ScriptedEnvironment
from lookahead.evaluation import Ledger
from lookahead.search import (
    ENGINES,
    SearchConfig,
    SearchTree,
    beam_search,
    greedy_search,
    render_tree,
)
from lookahead.stl import (
    Dataset,
    LookaheadRecord,
    StlConfig,
    TabularTrainer,
    TabularValueModel,
    Trainer,
    build_action_outcome,
    collect_candidates,
    dedup_latest,
    export_jsonl,
    filter_examples,
    import_jsonl,
    lookahead_target,
    make_training_example,
    stl_run,
)

TASK = Task(id="t1", instruction="walk one")


def estimate(value: float, rationale: str | None = None) -> ValueEstimate:
    if rationale is None:
        rationale = (
            f"Progress noted. Thus, the correctness score is {value:.2f} / 10.00."
        )
    return ValueEstimate(
        rationale=rationale,
        value=value,
        samples=(value,),
    )


def root_state(sid: str = "r") -> State:
    return State(id=sid, depth=0, observation=f"obs {sid}")


def child_state(parent: State, sid: str, action_text: str) -> State:
    return State(
        id=sid,
        depth=parent.depth + 1,
        observation=f"obs {sid}",
        incoming_action=Action.make(action_text),
        parent=parent,
    )


def successor_pair(parent: State, sid: str, action_text: str, value: float):
    return (child_state(parent, sid, action_text), estimate(value))


class TestLookaheadTarget:
    def test_argmax_with_discount(self):
        parent = root_state()
        successors = [
            successor_pair(parent, "s1", "go s1", 4.0),
            successor_pair(parent, "s2", "go s2", 8.0),
            successor_pair(parent, "s3", "go s3", 6.0),
        ]
        trajectory = Trajectory(TASK, parent)
        record = lookahead_target(trajectory, successors, gamma=0.9)
        assert record.trajectory is trajectory
        assert record.key == state_key(trajectory)
        assert record.best_successor is successors[1][0]
        assert record.best_successor.incoming_action.text == "go s2"
        assert record.successor_rationale == successors[1][1].rationale
        assert record.target == pytest.approx(0.9 * 8.0)

    def test_tie_breaks_to_earliest(self):
        parent = root_state()
        successors = [
            successor_pair(parent, "s1", "go s1", 8.0),
            successor_pair(parent, "s2", "go s2", 8.0),
        ]
        record = lookahead_target(Trajectory(TASK, parent), successors)
        assert record.best_successor.incoming_action.text == "go s1"

    def test_empty_successors_rejected(self):
        with pytest.raises(ValueError, match="no evaluated successors"):
            lookahead_target(Trajectory(TASK, root_state()), [])


def make_record(
    value: float = 8.0,
    gamma: float = 1.0,
    rationale: str | None = None,
    task: Task = TASK,
    sid: str = "r",
) -> LookaheadRecord:
    parent = root_state(sid)
    successors = [(child_state(parent, f"{sid}.next", "go next"), estimate(value, rationale))]
    return lookahead_target(Trajectory.from_state(task, parent), successors, gamma)


class TestBuildActionOutcome:
    def test_completion_carries_discounted_target_once(self):
        record = make_record(value=8.0, gamma=0.5)
        completion = build_action_outcome(record, NUMERIC10)
        action, observation, rationale, value = parse_simulated_lookahead(
            completion, NUMERIC10
        )
        assert action == "go next"
        assert observation == "obs r.next"
        assert value == 4.0
        # The successor's own 8.00 sentence was replaced, not duplicated.
        assert completion.count("Thus, the correctness score is") == 1
        assert "8.00" not in completion

    def test_reflection_body_survives(self):
        record = make_record(
            rationale=(
                "The cart already holds the right item. "
                "Thus, the correctness score is 8.00 / 10.00."
            )
        )
        completion = build_action_outcome(record, NUMERIC10)
        assert "The cart already holds the right item." in completion

    def test_block_rationale_uses_inner_reflection(self):
        # A trained model's answer is a whole block; only its reflection body
        # may be carried over, or the completion would repeat every label.
        block = format_lookahead_block(
            "deep action", "deep obs", "Deep body.", 7.0, NUMERIC10
        )
        record = make_record(value=7.0, rationale=block)
        completion = build_action_outcome(record, NUMERIC10)
        assert completion.count("Best Next Action:") == 1
        assert completion.count("Observation of Best Successor State:") == 1
        action, observation, rationale, value = parse_simulated_lookahead(
            completion, NUMERIC10
        )
        assert action == "go next"
        assert observation == "obs r.next"
        assert rationale == "Deep body."
        assert value == 7.0


class TestFilterExamples:
    def test_splits_kept_and_rejected_with_reason(self):
        good = make_record(value=8.0)
        bad = make_record(rationale="no scaffolding in this reply", sid="q")
        examples, rejections = filter_examples([good, bad], NUMERIC10, 2)
        completion = build_action_outcome(good, NUMERIC10)
        assert examples == [make_training_example(good, completion, 8.0, 2)]
        assert examples[0].value == 8.0
        assert rejections == Counter({"scaffolding-missing": 1})

    def test_off_grid_value_rejected_on_discrete_scale(self):
        bad = make_record(
            rationale="Fine. Thus, the correctness score is 7.00 / 10.00."
        )
        examples, rejections = filter_examples([bad], LIKERT10, 1)
        assert examples == []
        assert rejections == Counter({"value-not-admissible": 1})

    def test_stray_label_in_rationale_rejected(self):
        bad = make_record(
            rationale=(
                "Promising. Best Next Action: cheat. "
                "Thus, the correctness score is 4.00 / 10.00."
            )
        )
        examples, rejections = filter_examples([bad], NUMERIC10, 1)
        assert examples == []
        assert rejections == Counter({"section-repeated": 1})


class TestMakeTrainingExample:
    def test_fields_are_wired_through(self):
        record = make_record(value=6.0)
        (example,), _ = filter_examples([record], NUMERIC10, iteration=3)
        assert example.task_id == "t1"
        assert example.depth == 0
        assert example.iteration == 3
        assert example.state_key == record.key
        assert example.context.startswith("walk one")
        assert example.completion == build_action_outcome(record, NUMERIC10)
        assert parse_simulated_lookahead(example.completion, NUMERIC10)[3] == 6.0
        assert example.value == 6.0


def example(key: str, iteration: int, depth: int = 0, task_id: str = "t1") -> TrainingExample:
    return TrainingExample(
        task_id=task_id,
        context=f"context {key}",
        completion=f"completion {key} iter {iteration}",
        depth=depth,
        iteration=iteration,
        state_key=key,
    )


class TestDedupLatest:
    def test_adds_new_keys(self):
        merged, counts = dedup_latest(Dataset(), [example("k1", 1), example("k2", 1)], 1)
        assert len(merged) == 2
        assert counts["added"] == 2
        assert counts["replaced"] == counts["duplicates_within_iteration"] == 0

    def test_within_iteration_first_wins(self):
        first = example("k1", 1)
        second = TrainingExample(
            task_id="t9",
            context="context k1",
            completion="another completion",
            depth=0,
            iteration=1,
            state_key="k1",
        )
        merged, counts = dedup_latest(Dataset(), [first, second], 1)
        assert merged.examples["k1"] is first
        assert counts["duplicates_within_iteration"] == 1
        assert counts["added"] == 1

    def test_later_iteration_replaces(self):
        base, _ = dedup_latest(Dataset(), [example("k1", 1)], 1)
        merged, counts = dedup_latest(base, [example("k1", 2)], 2)
        assert merged.examples["k1"].iteration == 2
        assert counts["replaced"] == 1
        assert counts["added"] == 0

    def test_earlier_iteration_keeps_existing(self):
        base, _ = dedup_latest(Dataset(), [example("k1", 5)], 5)
        merged, counts = dedup_latest(base, [example("k1", 2)], 2)
        assert merged.examples["k1"].iteration == 5
        assert counts["kept_existing"] == 1

    def test_wrong_iteration_tag_rejected(self):
        with pytest.raises(ValueError, match="tagged iteration 3"):
            dedup_latest(Dataset(), [example("k1", 3)], 2)

    def test_input_dataset_not_mutated(self):
        base, _ = dedup_latest(Dataset(), [example("k1", 1)], 1)
        dedup_latest(base, [example("k2", 2)], 2)
        assert set(base.examples) == {"k1"}


class TestDataset:
    def test_sorted_examples_order(self):
        dataset = Dataset(
            examples={
                "z": example("z", 1, depth=0, task_id="t2"),
                "a": example("a", 1, depth=2, task_id="t1"),
                "b": example("b", 1, depth=1, task_id="t1"),
            }
        )
        # Ordered by (task_id, depth, state_key).
        assert [e.state_key for e in dataset.sorted_examples()] == ["b", "a", "z"]

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 30)), min_size=1, max_size=25))
    def test_by_depth_partitions(self, pairs):
        dataset = Dataset()
        for depth, serial in pairs:
            key = f"k{serial}"
            dataset.examples[key] = example(key, 1, depth=depth)
        partitions = dataset.by_depth()
        total = sum(len(p) for p in partitions.values())
        assert total == len(dataset)
        for depth, partition in partitions.items():
            assert all(e.depth == depth for e in partition.examples.values())
        rebuilt = {k for p in partitions.values() for k in p.examples}
        assert rebuilt == set(dataset.examples)


class TestExportImport:
    def test_round_trip(self, tmp_path):
        dataset, _ = dedup_latest(
            Dataset(), [example("k1", 1), example("k2", 1, depth=2)], 1
        )
        path = export_jsonl(dataset, tmp_path / "data.jsonl", "numeric10")
        assert import_jsonl(path) == dataset

    def test_refuses_empty_dataset(self, tmp_path):
        with pytest.raises(ValueError, match="empty dataset"):
            export_jsonl(Dataset(), tmp_path / "data.jsonl", "numeric10")

    def test_sidecar_metadata(self, tmp_path):
        dataset, _ = dedup_latest(Dataset(), [example("k1", 1)], 1)
        export_jsonl(dataset, tmp_path / "data.jsonl", "likert10")
        meta = json.loads((tmp_path / "data.jsonl.meta.json").read_text())
        assert meta == {"count": 1, "scale": "likert10"}
        export_jsonl(dataset, tmp_path / "data.jsonl", "likert10", "scripted:values.json")
        meta = json.loads((tmp_path / "data.jsonl.meta.json").read_text())
        assert meta == {"base_value": "scripted:values.json", "count": 1, "scale": "likert10"}

    def test_lines_are_sorted_and_json(self, tmp_path):
        dataset, _ = dedup_latest(
            Dataset(),
            [example("kz", 1, task_id="t2"), example("ka", 1, task_id="t1")],
            1,
        )
        path = export_jsonl(dataset, tmp_path / "data.jsonl", "numeric10")
        lines = path.read_text(encoding="utf-8").splitlines()
        parsed = [json.loads(line) for line in lines]
        assert [p["task_id"] for p in parsed] == ["t1", "t2"]

    def test_import_rejects_a_repeated_state_key(self, tmp_path):
        dataset, _ = dedup_latest(Dataset(), [example("k1", 1), example("k2", 1)], 1)
        path = export_jsonl(dataset, tmp_path / "data.jsonl", "numeric10")
        first, second = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text(first + second + first, encoding="utf-8")
        with pytest.raises(ConfigError) as failure:
            import_jsonl(path)
        assert str(failure.value) == f"{path}:3: 'state_key' 'k1' repeats line 1"

    def test_import_skips_a_blank_line(self, tmp_path):
        dataset, _ = dedup_latest(Dataset(), [example("k1", 1), example("k2", 1)], 1)
        path = export_jsonl(dataset, tmp_path / "data.jsonl", "numeric10")
        first, second = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text(first + "\n  \n" + second, encoding="utf-8")
        assert import_jsonl(path) == dataset

    def test_without_metadata_a_dataset_reloads_on_numeric10_over_a_constant(self, tmp_path):
        (kept,), _ = filter_examples([make_record(value=8.0)], NUMERIC10, 1)
        dataset, _ = dedup_latest(Dataset(), [kept], 1)
        path = export_jsonl(dataset, tmp_path / "data.jsonl", "likert10", "scripted:values.json")
        Path(f"{path}.meta.json").unlink()
        config = config_from_dict({"value": f"stl-dataset:{path}"})
        model = build_value_model(config, Game24Env(), Ledger())
        elsewhere = Trajectory.from_state(Task(id="t2", instruction="walk two"), root_state())
        assert (model.scale, model.evaluate(elsewhere).rationale) == (
            NUMERIC10, "Constant evaluation. Thus, the correctness score is 0.00 / 10.00."
        )

    def test_import_rejects_bad_record(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"task_id": "only-this"}\n', encoding="utf-8")
        with pytest.raises(ConfigError, match=":1:"):
            import_jsonl(path)


class TestTabularValueModel:
    def test_known_key_returns_trained_target(self):
        record = make_record(value=8.0, gamma=0.5)
        (ex,), _ = filter_examples([record], NUMERIC10, 1)
        dataset, _ = dedup_latest(Dataset(), [ex], 1)
        base = ConstantValueModel(2.0)
        model = TabularTrainer().fine_tune(base, dataset)
        result = model.evaluate(record.trajectory)
        assert result.value == 4.0
        assert result.rationale == ex.completion
        assert (model.hits, model.fallbacks) == (1, 0)

    def test_unknown_key_delegates_to_base(self):
        base = ConstantValueModel(2.0)
        model = TabularValueModel(base, Dataset())
        task = Task(id="tx", instruction="other")
        trajectory = Trajectory.from_state(task, root_state("other"))
        assert model.evaluate(trajectory).value == 2.0
        assert (model.hits, model.fallbacks) == (0, 1)

    def test_scale_follows_base(self):
        base = ConstantValueModel(2.0, scale=LIKERT10)
        assert TabularValueModel(base, Dataset()).scale is LIKERT10


def stl_fixture() -> dict:
    return {
        "root": "r",
        "nodes": [
            {"id": "r", "observation": "start", "terminal": False},
            {"id": "a", "observation": "room a", "terminal": False},
            {"id": "b", "observation": "room b", "terminal": False},
            {"id": "aw", "observation": "a win", "terminal": True, "score": 1.0},
            {"id": "al", "observation": "a loss", "terminal": True, "score": 0.0},
            {"id": "bw", "observation": "b win", "terminal": True, "score": 1.0},
            {"id": "bl", "observation": "b loss", "terminal": True, "score": 0.0},
        ],
        "edges": [
            {"from": "r", "action": "go a", "to": "a"},
            {"from": "r", "action": "go b", "to": "b"},
            {"from": "a", "action": "win", "to": "aw"},
            {"from": "a", "action": "lose", "to": "al"},
            {"from": "b", "action": "win", "to": "bw"},
            {"from": "b", "action": "lose", "to": "bl"},
        ],
    }


STL_VALUES = {
    "a": 6.0,
    "b": 4.0,
    "aw": 9.0,
    "al": 1.0,
    "bw": 8.5,
    "bl": 0.5,
}


def stl_setup():
    env = ScriptedEnvironment.from_dict(stl_fixture())
    policy = ExhaustivePolicy(env)
    base = ScriptedValueModel(STL_VALUES, default=5.0)
    return env, policy, base


def stl_tasks(n: int) -> list[Task]:
    return [
        Task(id=f"t{i}", instruction=f"walk {i}")
        for i in range(1, n + 1)
    ]


class SpyTrainer(Trainer):
    """Trains as ``TabularTrainer`` does and keeps each dataset it is handed."""

    def __init__(self):
        self.base_models = []
        self.datasets = []

    @property
    def dataset_sizes(self):
        return [len(dataset) for dataset in self.datasets]

    def fine_tune(self, base_model, dataset):
        self.base_models.append(base_model)
        self.datasets.append(dataset)
        return TabularTrainer().fine_tune(base_model, dataset)


class FailingTrainer(Trainer):
    def fine_tune(self, base_model, dataset):
        raise RuntimeError("synthetic optimizer explosion")


class TestStlRun:
    def config(self, **kwargs):
        defaults = dict(iterations=1, tasks_per_iteration=1, engine="greedy")
        defaults.update(kwargs)
        return StlConfig(**defaults)

    def search_config(self):
        return SearchConfig(branching=4, max_depth=2)

    def test_single_iteration_collects_and_trains(self, tmp_path):
        env, policy, base = stl_setup()
        trainer = SpyTrainer()
        final_model, reports = stl_run(
            stl_tasks(1), env, policy, base, trainer, self.config(), self.search_config(),
            out_dir=tmp_path,
        )
        # Greedy visits the root and "a"; both have evaluated successors.
        assert trainer.dataset_sizes == [2]
        report = reports[0]
        assert report.candidates == 2
        assert report.kept == 2
        assert report.merge["added"] == 2
        assert isinstance(final_model, TabularValueModel)

    def test_parallel_rollouts_match_serial_run(self, tmp_path, monkeypatch):
        greedy = ENGINES["greedy"]
        runs = {}
        for parallel in (1, 3):
            trees: dict[str, str] = {}

            def recording_greedy(*args, trees=trees, **kwargs):
                tree = greedy(*args, **kwargs)
                trees[tree.task.id] = render_tree(tree)
                return tree

            monkeypatch.setitem(ENGINES, "greedy", recording_greedy)
            env, policy, base = stl_setup()
            out = tmp_path / f"p{parallel}"
            trainer = SpyTrainer()
            stl_run(
                stl_tasks(6), env, policy, base, trainer,
                self.config(iterations=2, tasks_per_iteration=3, accumulate=True),
                self.search_config(), out_dir=out, parallel=parallel,
            )
            files = {
                path.relative_to(out).as_posix(): path.read_bytes()
                for path in sorted(out.rglob("*"))
                if path.is_file()
            }
            runs[parallel] = trainer, files, trees
        serial, serial_files, serial_trees = runs[1]
        parallel, parallel_files, parallel_trees = runs[3]
        assert sorted(parallel_trees) == [f"t{i}" for i in range(1, 7)]
        assert parallel_trees == serial_trees
        assert len(serial.datasets) == 2
        assert [d.sorted_examples() for d in parallel.datasets] == [
            d.sorted_examples() for d in serial.datasets
        ]
        assert len([name for name in serial_files if name.startswith("trees/")]) == 6
        assert parallel_files == serial_files

    def test_trained_model_answers_with_lookahead_target(self, tmp_path):
        env, policy, base = stl_setup()
        final_model, _ = stl_run(
            stl_tasks(1),
            env,
            policy,
            base,
            SpyTrainer(),
            self.config(gamma=0.5),
            self.search_config(),
            out_dir=tmp_path,
        )
        task = stl_tasks(1)[0]
        trajectory = Trajectory.from_state(task, env.initial_state(task))
        # Best root successor is "a" at 6.0; discounted target is 3.0.
        assert final_model.evaluate(trajectory).value == 3.0

    def test_revisited_states_across_iterations_stay_parseable(self, tmp_path):
        # Same instruction every iteration: the trained model answers for
        # states it already memorized, and those answers feed new examples.
        env, policy, base = stl_setup()
        tasks = [
            Task(id=f"t{i}", instruction="walk again")
            for i in (1, 2)
        ]
        trainer = SpyTrainer()
        final_model, _ = stl_run(
            tasks,
            env,
            policy,
            base,
            trainer,
            self.config(iterations=2, accumulate=True),
            self.search_config(),
            out_dir=tmp_path,
        )
        for example in trainer.datasets[-1].sorted_examples():
            parse_simulated_lookahead(example.completion, NUMERIC10)
            assert example.completion.count("Best Next Action:") == 1
        trajectory = Trajectory.from_state(tasks[0], env.initial_state(tasks[0]))
        # Two iterations back the aw leaf (9.0) up to the root.
        assert final_model.evaluate(trajectory).value == 9.0

    def test_every_iteration_trains_from_base(self, tmp_path):
        env, policy, base = stl_setup()
        trainer = SpyTrainer()
        stl_run(
            stl_tasks(3),
            env,
            policy,
            base,
            trainer,
            self.config(iterations=3),
            self.search_config(),
            out_dir=tmp_path,
        )
        assert trainer.base_models == [base, base, base]

    def test_schedule_larger_than_task_list_rejected(self, tmp_path):
        env, policy, base = stl_setup()
        with pytest.raises(ConfigError, match="schedule needs 4"):
            stl_run(
                stl_tasks(3),
                env,
                policy,
                base,
                SpyTrainer(),
                self.config(iterations=2, tasks_per_iteration=2),
                self.search_config(),
                out_dir=tmp_path,
            )

    def test_iterations_consume_disjoint_slices(self, tmp_path):
        env, policy, base = stl_setup()
        trainer = SpyTrainer()
        _, reports = stl_run(
            stl_tasks(4),
            env,
            policy,
            base,
            trainer,
            self.config(iterations=2, tasks_per_iteration=2),
            self.search_config(),
            out_dir=tmp_path,
        )
        assert reports[0].task_ids == ["t1", "t2"]
        assert reports[1].task_ids == ["t3", "t4"]

    def test_accumulate_carries_examples_forward(self, tmp_path):
        env, policy, base = stl_setup()
        trainer = SpyTrainer()
        _, reports = stl_run(
            stl_tasks(2),
            env,
            policy,
            base,
            trainer,
            self.config(iterations=2, accumulate=True),
            self.search_config(),
            out_dir=tmp_path,
        )
        # Distinct instructions produce distinct state keys, so the second
        # iteration extends the first instead of replacing it.
        assert trainer.dataset_sizes == [2, 4]
        assert reports[1].merge["added"] == 2
        assert reports[1].merge["replaced"] == 0

    def test_without_accumulate_each_iteration_is_fresh(self, tmp_path):
        env, policy, base = stl_setup()
        trainer = SpyTrainer()
        stl_run(
            stl_tasks(2),
            env,
            policy,
            base,
            trainer,
            self.config(iterations=2, accumulate=False),
            self.search_config(),
            out_dir=tmp_path,
        )
        assert trainer.dataset_sizes == [2, 2]

    def test_min_example_depth_skips_shallow_states(self, tmp_path):
        env, policy, base = stl_setup()
        trainer = SpyTrainer()
        stl_run(
            stl_tasks(1),
            env,
            policy,
            base,
            trainer,
            self.config(min_example_depth=1),
            self.search_config(),
            out_dir=tmp_path,
        )
        [dataset] = trainer.datasets
        examples = list(dataset.examples.values())
        assert len(examples) == 1
        assert examples[0].depth == 1

    def test_per_depth_routes_and_falls_back(self, tmp_path):
        env, policy, base = stl_setup()
        model, _ = stl_run(
            stl_tasks(1),
            env,
            policy,
            base,
            SpyTrainer(),
            self.config(per_depth=True, min_example_depth=1),
            self.search_config(),
            out_dir=tmp_path,
        )
        assert isinstance(model, RoutedValueModel)
        assert set(model.models) == {1}
        task = stl_tasks(1)[0]
        root_trajectory = Trajectory.from_state(task, env.initial_state(task))
        # Depth 0 has no trained model, so the base model answers with its
        # default for the root id.
        assert model.evaluate(root_trajectory).value == 5.0

    def test_empty_dataset_returns_base_model(self, tmp_path):
        env, policy, base = stl_setup()
        trainer = SpyTrainer()
        final_model, reports = stl_run(
            stl_tasks(1),
            env,
            policy,
            base,
            trainer,
            self.config(min_example_depth=10),
            self.search_config(),
            out_dir=tmp_path,
        )
        assert final_model is base
        assert trainer.dataset_sizes == []
        assert reports[0].dataset_size == 0

    def test_out_dir_artifacts(self, tmp_path):
        env, policy, base = stl_setup()
        stl_run(
            stl_tasks(1),
            env,
            policy,
            base,
            SpyTrainer(),
            self.config(),
            self.search_config(),
            out_dir=tmp_path,
        )
        assert (tmp_path / "dataset_iter01.jsonl").exists()
        assert (tmp_path / "dataset_iter01.jsonl.meta.json").exists()
        assert (tmp_path / "trees" / "iter01__t1.json").exists()
        report = json.loads((tmp_path / "stl_report.json").read_text())
        assert report[0]["dataset_size"] == 2
        assert report[0]["dataset_paths"] == ["dataset_iter01.jsonl"]

    @pytest.mark.parametrize("per_depth", [False, True])
    def test_final_model_is_the_final_dataset(self, tmp_path, per_depth):
        env, policy, base = stl_setup()
        out = tmp_path / "run"
        trainer = SpyTrainer()
        _, reports = stl_run(
            stl_tasks(2), env, policy, base, trainer,
            self.config(iterations=2, accumulate=True, per_depth=per_depth),
            self.search_config(), out_dir=out,
        )
        # The last iteration trains once on each partition it exports.
        last = trainer.datasets[-len(reports[-1].dataset_paths):]
        final = Dataset({k: e for partition in last for k, e in partition.examples.items()})
        assert len(final) == reports[-1].dataset_size
        expected = export_jsonl(final, tmp_path / "expected.jsonl", base.scale.name)
        for suffix in ("", ".meta.json"):
            written = (out / f"final_model.jsonl{suffix}").read_bytes()
            assert written == Path(f"{expected}{suffix}").read_bytes()

    def test_no_final_model_without_examples(self, tmp_path):
        env, policy, base = stl_setup()
        _, reports = stl_run(
            stl_tasks(1), env, policy, base, SpyTrainer(),
            self.config(min_example_depth=10), self.search_config(), out_dir=tmp_path,
        )
        assert reports[-1].dataset_size == 0
        assert not list(tmp_path.glob("*.jsonl*"))

    def test_per_depth_export_filenames(self, tmp_path):
        env, policy, base = stl_setup()
        stl_run(
            stl_tasks(1),
            env,
            policy,
            base,
            SpyTrainer(),
            self.config(per_depth=True),
            self.search_config(),
            out_dir=tmp_path,
        )
        assert (tmp_path / "dataset_iter01_depth0.jsonl").exists()
        assert (tmp_path / "dataset_iter01_depth1.jsonl").exists()

    def test_trainer_failure_preserves_exports(self, tmp_path):
        env, policy, base = stl_setup()
        with pytest.raises(RuntimeError, match="synthetic optimizer explosion"):
            stl_run(
                stl_tasks(1),
                env,
                policy,
                base,
                FailingTrainer(),
                self.config(),
                self.search_config(),
                out_dir=tmp_path,
            )
        assert (tmp_path / "dataset_iter01.jsonl").exists()

    def test_an_error_while_collecting_shuts_the_rollout_pool_down(self, monkeypatch, tmp_path):
        def failing_collect(*args, **kwargs):
            raise RuntimeError("collection failed")

        monkeypatch.setattr(stl, "collect_candidates", failing_collect)
        env, policy, base = stl_setup()
        before = set(threading.enumerate())
        # ``failure`` holds the traceback and with it stl_run's frame, so
        # only an explicit close can have shut the pool down by now.
        with pytest.raises(RuntimeError, match="collection failed") as failure:
            stl_run(
                stl_tasks(4),
                env,
                policy,
                base,
                SpyTrainer(),
                self.config(tasks_per_iteration=4),
                self.search_config(),
                out_dir=tmp_path,
                parallel=2,
            )
        assert failure.value.args == ("collection failed",)
        assert set(threading.enumerate()) - before == set()


class TestCollectCandidates:
    def test_intra_tree_duplicates_counted_by_signature(self):
        # "2 + 2" and "2 * 2" both reach the multiset {4, 4, 8}; the second
        # occurrence of that state key is skipped and counted.
        env = Game24Env()
        task = Task(id="g", instruction="2 2 4 8")
        config = SearchConfig(branching=30, max_depth=2, beam_width=30)
        tree = beam_search(task, env, ExhaustivePolicy(env), OracleValueModel(), config)
        candidates, duplicates = collect_candidates(tree, gamma=1.0)
        assert duplicates >= 1
        keys = [c.key for c in candidates]
        assert len(keys) == len(set(keys))

    def test_min_depth_excludes_root(self):
        env, policy, base = stl_setup()
        task = stl_tasks(1)[0]
        tree = greedy_search(task, env, policy, base, SearchConfig(branching=4, max_depth=2))
        candidates, _ = collect_candidates(tree, gamma=1.0, min_depth=1)
        assert all(c.trajectory.depth >= 1 for c in candidates)

    def test_trajectories_come_from_the_node_states(self, monkeypatch):
        env = Game24Env()
        task = Task(id="g", instruction="4 6 6 8")
        config = SearchConfig(branching=5, max_depth=3, beam_width=3)
        tree = beam_search(task, env, ExhaustivePolicy(env), OracleValueModel(), config)
        expected = [tree.trajectory_to(node.uid) for node, _ in tree.lookahead_entries()]

        def rebuilt(*args):
            pytest.fail("collect_candidates rebuilt a trajectory through the tree")

        monkeypatch.setattr(SearchTree, "trajectory_to", rebuilt)
        monkeypatch.setattr(Trajectory, "from_state", classmethod(rebuilt))
        candidates, duplicates = collect_candidates(tree, gamma=1.0)
        assert duplicates == 0
        assert [c.trajectory for c in candidates] == expected


GAME24_PUZZLES = ["4 6 6 8", "1 2 3 4", "2 3 5 7", "3 3 8 8", "1 1 1 1", "1 5 5 5"]


def game24_stl_run(out_dir):
    """A small oracle-valued game24 run: 3 accumulating iterations of 2 tasks.

    Returns the final model, the reports and each iteration's dataset.
    """
    env = Game24Env()
    tasks = [Task(id=f"g{i}", instruction=p) for i, p in enumerate(GAME24_PUZZLES)]
    trainer = SpyTrainer()
    final_model, reports = stl_run(
        tasks,
        env,
        ExhaustivePolicy(env),
        OracleValueModel(),
        trainer,
        StlConfig(iterations=3, tasks_per_iteration=2, engine="mcts", accumulate=True),
        SearchConfig(branching=5, max_depth=3, mcts_iterations=10),
        out_dir=out_dir,
    )
    return final_model, reports, trainer.datasets


class TestEachExampleOnce:
    def count_calls(self, monkeypatch, name):
        calls = []
        original = getattr(stl, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(stl, name, counted)
        return calls

    def test_two_parses_and_one_format_per_candidate(self, monkeypatch, tmp_path):
        parses = self.count_calls(monkeypatch, "parse_simulated_lookahead")
        formats = self.count_calls(monkeypatch, "format_lookahead_block")
        _, reports, _ = game24_stl_run(tmp_path)
        candidates = sum(report.candidates for report in reports)
        assert candidates > 0
        assert all(report.kept == report.candidates for report in reports)
        # Filtering parses the successor rationale and the built completion;
        # training reads the value the second parse returned.
        assert len(formats) == candidates
        assert len(parses) == 2 * candidates

    def test_examples_carry_the_value_their_completion_parses_to(self, tmp_path):
        final_model, _, datasets = game24_stl_run(tmp_path)
        assert len(datasets) == 3
        for dataset in datasets:
            for example in dataset.examples.values():
                parsed = parse_simulated_lookahead(example.completion, OracleValueModel.scale)
                assert example.value == parsed[3]
        final = datasets[-1]
        assert final_model.table == {
            key: ValueEstimate(e.completion, e.value, (e.value,))
            for key, e in final.examples.items()
        }

    def test_reexported_import_is_byte_identical_and_trains_the_same_table(self, tmp_path):
        final_model, _, datasets = game24_stl_run(tmp_path / "run")
        written = tmp_path / "run" / "dataset_iter03.jsonl"
        reloaded = import_jsonl(written)
        assert reloaded == datasets[-1]
        assert all(e.value is None for e in reloaded.examples.values())
        again = export_jsonl(reloaded, tmp_path / "again.jsonl", OracleValueModel.scale.name)
        assert again.read_bytes() == written.read_bytes()
        base = OracleValueModel()
        assert TabularTrainer().fine_tune(base, reloaded).table == final_model.table


def artifact_bytes(out: Path) -> dict[str, bytes]:
    """Every file a run wrote under ``out`` but its manifest, by relative path."""
    return {
        path.relative_to(out).as_posix(): path.read_bytes()
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.name != "manifest.json"
    }


class TestValueIterationOnGame24:
    """STL is value iteration: from a base model that values only the
    terminals (10 for 24, else 1), three accumulated iterations of full-width
    beam over the same puzzles train every state on its exact discounted
    backup, which agrees with the oracle's verdict.  Reloaded through the
    command line, the trained model then solves more of those puzzles at beam
    width 1 than the base does at width 3, expanding fewer states: the
    paper's claim, end to end.  The reloaded model writes the same bytes as
    the model ``stl`` trained in process."""

    PUZZLES = 5

    def reachable_states(self, puzzles) -> dict[str, State]:
        """Every non-terminal state of ``puzzles``, by state key."""
        env = Game24Env()
        states: dict[str, State] = {}
        for puzzle in puzzles:
            task = Task(id=puzzle["id"], instruction=puzzle["instruction"])
            frontier = [env.initial_state(task)]
            while frontier:
                state = frontier.pop()
                states[state_key(Trajectory(task, state))] = state
                if state.depth == 2:  # its successors are terminals, which yield no example
                    continue
                for action in env.enumerable_actions(state):
                    try:
                        frontier.append(env.transition(state, action))
                    except ActionRejected:
                        pass
        return states

    def test_every_trained_state_holds_the_exact_discounted_backup(
        self, tmp_path, capsys, monkeypatch
    ):
        source = json.loads(Path("fixtures/game24_test_50.json").read_text(encoding="utf-8"))
        puzzles = source["tasks"][: self.PUZZLES]
        tasks = tmp_path / "tasks.json"
        entries = [
            {"id": f"{p['id']}__it{i}", "instruction": p["instruction"]}
            for i in (1, 2, 3)
            for p in puzzles
        ]
        tasks.write_text(json.dumps({"tasks": entries}), encoding="utf-8")
        values = tmp_path / "values.json"
        terminal_only = {"values": {"24[24]": 10.0}, "default": 1.0}
        values.write_text(json.dumps(terminal_only), encoding="utf-8")
        out = tmp_path / "out"
        argv = [
            "stl", "--value", f"scripted:{values}", "--stl-engine", "beam",
            "--beam-width", "1000", "--branching", "36", "--max-depth", "3",
            "--iterations", "3", "--tasks-per-iteration", str(self.PUZZLES), "--accumulate",
            "--gamma", "0.9", "--tasks", str(tasks), "--out", str(out),
        ]
        final_models = []

        def keep_final_model(*args, **kwargs):
            final_model, reports = stl_run(*args, **kwargs)
            final_models.append(final_model)
            return final_model, reports

        monkeypatch.setattr(cli, "stl_run", keep_final_model)
        assert main(argv) == 0, capsys.readouterr().err
        [in_process] = final_models

        dataset = import_jsonl(out / "stl" / "final_model.jsonl")
        states = self.reachable_states(puzzles)
        assert set(dataset.examples) == set(states)
        for key, example in dataset.examples.items():
            state = states[key]
            solvable = solve_verdict(state) is Verdict.SURE
            # A state k steps above the terminals backs up 10 * 0.9^k or 0.9^k.
            backup = (10.0 if solvable else 1.0) * 0.9 ** (3 - state.depth)
            value = parse_simulated_lookahead(example.completion, NUMERIC10)[3]
            assert (example.iteration, value) == (3, float(f"{backup:.2f}")), state.id
            assert (value > 5) == solvable, state.id

        plain = tmp_path / "puzzles.json"
        plain.write_text(json.dumps({"tasks": puzzles}), encoding="utf-8")
        runs = {}
        printed = {}
        reload = f"stl-dataset:{out / 'stl' / 'final_model.jsonl'}"
        for name, value, width in (
            ("trained", reload, "1"),
            ("base", f"scripted:{values}", "3"),
        ):
            search_out = tmp_path / name
            argv = [
                "search", "--value", value, "--engine", "beam", "--beam-width", width,
                "--branching", "36", "--max-depth", "3", "--tasks", str(plain),
                "--out", str(search_out),
            ]
            assert main(argv) == 0, capsys.readouterr().err
            printed[name] = capsys.readouterr().out
            results = json.loads((search_out / "results.json").read_text(encoding="utf-8"))
            ledger = json.loads((search_out / "ledger.json").read_text(encoding="utf-8"))
            solved = sum(outcome["success"] for outcome in results["outcomes"])
            runs[name] = (solved, ledger["states_expanded"])
        (trained_solved, trained_states), (base_solved, base_states) = runs.values()
        assert trained_solved > base_solved and trained_states < base_states
        assert runs == {"trained": (5, 226), "base": (2, 450)}

        # The reload is the in-process model: the same search answered by
        # stl's own final model writes the same bytes and the same table counts.
        monkeypatch.setattr(cli, "build_value_model", lambda config, env, ledger: in_process)
        argv = [
            "search", "--value", reload, "--engine", "beam", "--beam-width", "1",
            "--branching", "36", "--max-depth", "3", "--tasks", str(plain),
            "--out", str(tmp_path / "in-process"),
        ]
        assert main(argv) == 0, capsys.readouterr().err
        table_counts = [
            line for line in printed["trained"].splitlines() if line.startswith("table hits:")
        ]
        assert table_counts == ["table hits: 198  fallbacks: 28"]
        assert table_counts[0] in capsys.readouterr().out.splitlines()
        assert artifact_bytes(tmp_path / "in-process") == artifact_bytes(tmp_path / "trained")
