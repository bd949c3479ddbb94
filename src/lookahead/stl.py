"""Lookahead self-training: rollouts to datasets to refreshed value models.

Each iteration rolls out its own slice of tasks with the current value model,
turns every visited state that has at least one evaluated successor into a
(context, completion) example — the completion names the best next action,
its observation, and the successor's reflection re-anchored to the discounted
lookahead target — then filters, deduplicates against earlier iterations
(latest wins), exports JSONL, and trains a fresh model from the *base* model.

One lookahead record carries each backup from tree to example: the visited
state's trajectory (which holds its task) and key, the best successor (whose
``incoming_action`` is the best next action), its rationale and the
discounted target.  The filter builds each record's completion and parses it
back once, the example keeps that completion, the parsed target and (once
exported) its JSON line, and the trained model reads the target from it.
Each tree is reduced to its records in its rollout's worker.
"""

from __future__ import annotations

import json
import shutil
import threading
from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from .core import (
    ConfigError,
    State,
    Task,
    Trajectory,
    TrainingExample,
    ValueEstimate,
    check_int,
    check_object,
    check_str,
    read_json,
    render_context,
    state_key,
    write_json,
)
from .agents.rationales import format_lookahead_block, parse_simulated_lookahead
from .agents.scales import (
    NUMERIC10, MalformedRationale, ValueScale, get_scale, parse_value, strip_score_sentence,
)
from .agents.values import RoutedValueModel, ValueModel
from .envs.base import Environment
from .agents.policies import Policy
from .search import ENGINES, SearchConfig, SearchTree, run_rollouts, safe_name

if TYPE_CHECKING:
    from .evaluation import Ledger


@dataclass(frozen=True)
class StlConfig:
    """Self-training schedule.

    ``iterations * tasks_per_iteration`` must not exceed the rollout task
    count; iteration ``k`` consumes the k-th slice.  ``accumulate`` carries
    examples across iterations (latest duplicate wins); ``per_depth`` splits
    each dataset by state depth and trains one model per depth.
    ``min_example_depth`` drops examples generated above it (set to 1 to skip
    root-state examples, as in per-depth routing setups).  Completions are
    rendered on the base value model's scale.
    """

    iterations: int = 1
    tasks_per_iteration: int = 1
    gamma: float = 1.0
    engine: str = "mcts"
    accumulate: bool = False
    per_depth: bool = False
    min_example_depth: int = 0

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.tasks_per_iteration < 1:
            raise ValueError("tasks_per_iteration must be at least 1")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        if self.engine not in ENGINES:
            raise ValueError(f"engine must be one of {tuple(ENGINES)}, got {self.engine!r}")
        if self.min_example_depth < 0:
            raise ValueError("min_example_depth cannot be negative")


@dataclass(frozen=True)
class LookaheadRecord:
    """One step of real lookahead from ``trajectory``'s final state.

    ``key`` is the state key of ``trajectory``; ``target`` is ``gamma`` times
    the value of the best evaluated successor; ``successor_rationale`` is the
    successor's rationale exactly as the value model produced it.  When the
    record is rendered as a training completion the rationale's own trailing
    score sentence is replaced by one carrying the target.
    """

    trajectory: Trajectory
    key: str
    best_successor: State
    successor_rationale: str
    target: float


def lookahead_target(
    trajectory: Trajectory,
    successors: Sequence[tuple[State, ValueEstimate]],
    gamma: float = 1.0,
) -> LookaheadRecord:
    """One step of lookahead: pick the argmax successor, discount its value.

    ``successors`` pairs each evaluated successor state with its estimate;
    ties go to the earliest pair.  An empty successor list is an error (the
    pipeline skips such states and records the skip).
    """
    if not successors:
        raise ValueError(f"state {trajectory.final_state.id!r} has no evaluated successors")
    best_index = max(
        range(len(successors)), key=lambda i: (successors[i][1].value, -i)
    )
    successor, estimate = successors[best_index]
    return LookaheadRecord(
        trajectory=trajectory,
        key=state_key(trajectory),
        best_successor=successor,
        successor_rationale=estimate.rationale,
        target=gamma * estimate.value,
    )


def build_action_outcome(record: LookaheadRecord, scale: ValueScale) -> str:
    """Render a record as the training completion.

    The successor's own trailing score sentence is replaced by the canonical
    sentence carrying the lookahead target, so the scaffolding appears exactly
    once and parsing the completion recovers the target.

    A trained value model answers with a whole lookahead block of its own;
    when the successor rationale is such a block, only its reflection body is
    carried over — re-embedding the block verbatim would duplicate the section
    labels and make the completion unparseable.
    """
    try:
        _, _, body, _ = parse_simulated_lookahead(record.successor_rationale, scale)
    except MalformedRationale:
        body = strip_score_sentence(record.successor_rationale, scale)
    return format_lookahead_block(
        action_text=record.best_successor.incoming_action.text,  # type: ignore[union-attr]
        observation=record.best_successor.observation,
        rationale=body,
        value=record.target,
        scale=scale,
    )


def filter_examples(
    records: Iterable[LookaheadRecord], scale: ValueScale, iteration: int
) -> tuple[list[TrainingExample], Counter[str]]:
    """The training examples of the records that pass, and the rejection
    reasons of those that do not, counted.

    A record is rejected when its successor rationale lacks the scale's
    scaffolding or parses to a value outside the admissible set, or when the
    completion built from it would not parse back (for example a rationale
    containing a stray section label).  A kept record's example carries that
    completion, built once, and the value its round-trip parse returned.
    """
    examples: list[TrainingExample] = []
    rejections: Counter[str] = Counter()
    for record in records:
        try:
            parse_value(record.successor_rationale, scale)
            completion = build_action_outcome(record, scale)
            value = parse_simulated_lookahead(completion, scale)[3]
        except MalformedRationale as exc:
            rejections[exc.reason] += 1
            continue
        examples.append(make_training_example(record, completion, value, iteration))
    return examples, rejections


def make_training_example(
    record: LookaheadRecord, completion: str, value: float, iteration: int
) -> TrainingExample:
    """The example for a kept record, from the filter's completion and value."""
    return TrainingExample(
        task_id=record.trajectory.task.id,
        context=render_context(record.trajectory),
        completion=completion,
        depth=record.trajectory.depth,
        iteration=iteration,
        state_key=record.key,
        value=value,
    )


@dataclass
class Dataset:
    """At most one training example per state key."""

    examples: dict[str, TrainingExample] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.examples)

    def sorted_examples(self) -> list[TrainingExample]:
        return sorted(
            self.examples.values(), key=lambda e: (e.task_id, e.depth, e.state_key)
        )

    def by_depth(self) -> dict[int, "Dataset"]:
        """Disjoint per-depth partitions whose union is the dataset."""
        partitions: dict[int, Dataset] = {}
        for key, example in self.examples.items():
            partitions.setdefault(example.depth, Dataset()).examples[key] = example
        return dict(sorted(partitions.items()))


def dedup_latest(
    dataset: Dataset, new_examples: Iterable[TrainingExample], iteration: int
) -> tuple[Dataset, dict[str, int]]:
    """Merge ``new_examples`` into a copy of ``dataset``.

    On a state-key collision the higher iteration wins; within one iteration
    the first occurrence wins.  The counts report what happened.
    """
    merged = dict(dataset.examples)
    counts = dict.fromkeys(("added", "replaced", "duplicates_within_iteration", "kept_existing"), 0)
    seen_this_iteration: set[str] = set()
    for example in new_examples:
        if example.iteration != iteration:
            raise ValueError(
                f"example tagged iteration {example.iteration}, expected {iteration}"
            )
        if example.state_key in seen_this_iteration:
            counts["duplicates_within_iteration"] += 1
            continue
        seen_this_iteration.add(example.state_key)
        existing = merged.get(example.state_key)
        if existing is None:
            merged[example.state_key] = example
            counts["added"] += 1
        elif existing.iteration <= iteration:
            merged[example.state_key] = example
            counts["replaced"] += 1
        else:
            counts["kept_existing"] += 1
    return Dataset(examples=merged), counts


def export_jsonl(
    dataset: Dataset, path: str | Path, scale_name: str, base_value: str | None = None
) -> Path:
    """Write one record per line, ordered by (task id, depth, state key).

    Each line is the example's :attr:`~lookahead.core.TrainingExample.jsonl`,
    so an example exported again (an accumulated dataset) is not re-encoded.

    A sidecar ``<path>.meta.json`` records the example count, the value scale
    the completions were rendered with, so reloaders parse them correctly,
    and, when given, ``base_value``: the spec of the base model the dataset
    was trained over, which a reload answers unseen states with.  Exporting
    an empty dataset is refused.
    """
    if len(dataset) == 0:
        raise ValueError("refusing to export an empty dataset")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [example.jsonl for example in dataset.sorted_examples()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    meta = {"count": len(dataset), "scale": scale_name}
    if base_value is not None:
        meta["base_value"] = base_value
    write_json(f"{path}.meta.json", meta)
    return path


def import_metadata(path: str | Path, records: int) -> tuple[ValueScale, str | None]:
    """The scale and base value spec that ``<path>.meta.json`` records for
    the dataset at ``path``, which holds ``records`` records.

    Without the file, or without its keys, the scale is ``numeric10`` and
    the spec ``None``.  A ``count`` that is not ``records`` (a dataset cut
    short or edited), a scale that is not shipped, or a base spec that is
    itself ``stl-dataset:`` raises :class:`ConfigError` naming the file.
    """
    meta_path = Path(f"{path}.meta.json")
    if not meta_path.exists():
        return NUMERIC10, None
    meta = read_json(meta_path, "dataset metadata")
    where = f"dataset metadata {meta_path}"
    try:
        scale = get_scale(check_str(meta.get("scale", NUMERIC10.name), f"{where}: 'scale'"))
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    count = check_int(meta.get("count", records), f"{where}: 'count'", 0)
    if count != records:
        raise ConfigError(f"{where}: 'count' is {count}, but {path} has {records} records")
    base_value = check_str(meta.get("base_value"), f"{where}: 'base_value'", nullable=True)
    if base_value is not None and base_value.startswith("stl-dataset:"):
        raise ConfigError(f"{where}: 'base_value' {base_value!r} is itself a dataset")
    return scale, base_value


def import_jsonl(path: str | Path) -> Dataset:
    """Load a dataset previously written by :func:`export_jsonl`.

    The file does not name its scale, so the examples carry no ``value``.

    A line that is not UTF-8, not JSON or not a record raises
    :class:`ConfigError` naming the file and line.  A record's ``depth`` and
    ``iteration`` must be ints that are not bools and its other fields
    strings (a missing field reads as null); nothing is coerced.  A
    ``state_key`` may appear on one line only; a repeat raises
    :class:`ConfigError` naming both lines.
    """
    path = Path(path)
    dataset = Dataset()
    first_lines: dict[str, int] = {}
    with path.open("rb") as handle:
        for line_number, data in enumerate(handle, start=1):
            bad = f"{path}:{line_number}: bad dataset record"
            try:
                line = data.decode("utf-8").strip()
                if not line:
                    continue
                record = check_object(json.loads(line), f"{bad}: the line")
                fields = {name: record.get(name) for name in TrainingExample.RECORD_FIELDS}
                for name, value in fields.items():
                    check = check_int if name in ("depth", "iteration") else check_str
                    check(value, f"{bad}: {name!r}")
                example = TrainingExample(**fields)
            except ValueError as exc:  # not UTF-8 or JSON, or a depth or iteration out of range
                raise ConfigError(f"{bad}: {exc}") from None
            earlier = first_lines.setdefault(example.state_key, line_number)
            if earlier != line_number:
                raise ConfigError(
                    f"{path}:{line_number}: 'state_key' {example.state_key!r} repeats line {earlier}"
                )
            dataset.examples[example.state_key] = example
    return dataset


class Trainer(ABC):
    """Turns (base model, dataset) into a trained value model.

    Implementations must always start from the base model, never from the
    previous iteration's output.
    """

    @abstractmethod
    def fine_tune(self, base_model: ValueModel, dataset: Dataset) -> ValueModel: ...


class TabularValueModel(ValueModel):
    """Training double: memorizes (state key -> completion, target) exactly.

    Unseen states delegate to the base model; ``hits`` and ``fallbacks``
    count the states answered from the table and by the base model.  The
    stored target is the value parsed back out of the stored completion,
    which is what an external trainer would be optimizing toward.  An
    example built by the pipeline carries that value already; only one
    without (an imported dataset) is parsed here, with the base model's
    scale.
    """

    def __init__(self, base_model: ValueModel, dataset: Dataset) -> None:
        self.base_model = base_model
        self.scale = base_model.scale
        self.table: dict[str, ValueEstimate] = {}
        for key, example in dataset.examples.items():
            value = example.value
            if value is None:
                value = parse_simulated_lookahead(example.completion, self.scale)[3]
            self.table[key] = ValueEstimate(example.completion, value, (value,))
        self.hits = self.fallbacks = 0
        self._count_lock = threading.Lock()

    def _count(self, hits: int, fallbacks: int) -> None:
        with self._count_lock:
            self.hits += hits
            self.fallbacks += fallbacks

    def evaluate(self, trajectory: Trajectory) -> ValueEstimate:
        stored = self.table.get(state_key(trajectory))
        if stored is None:
            self._count(0, 1)
            return self.base_model.evaluate(trajectory)
        self._count(1, 0)
        return stored

    def evaluate_many(
        self, trajectories: Sequence[Trajectory]
    ) -> list[ValueEstimate | MalformedRationale]:
        """Answer hits from the table; send all misses to the base model at once."""
        stored = [self.table.get(state_key(t)) for t in trajectories]
        misses = [t for t, hit in zip(trajectories, stored) if hit is None]
        self._count(len(stored) - len(misses), len(misses))
        answers = iter(self.base_model.evaluate_many(misses))
        return [next(answers) if hit is None else hit for hit in stored]


class TabularTrainer(Trainer):
    def fine_tune(self, base_model: ValueModel, dataset: Dataset) -> TabularValueModel:
        """The gradient-free stand-in for LLM fine-tuning used throughout the tests."""
        return TabularValueModel(base_model, dataset)


def collect_candidates(
    tree: SearchTree, gamma: float, min_depth: int = 0
) -> tuple[list[LookaheadRecord], int]:
    """Records for every visited state with evaluated successors.

    Within one tree, only the first occurrence of a state key yields a
    record; the second return value counts the skipped duplicates.
    """
    records: list[LookaheadRecord] = []
    seen: set[str] = set()
    intra_tree_duplicates = 0
    for node, children in tree.lookahead_entries():
        if node.depth < min_depth:
            continue
        successors = [(child.state, child.estimate) for child in children]
        record = lookahead_target(Trajectory(tree.task, node.state), successors, gamma)
        if record.key in seen:
            intra_tree_duplicates += 1
            continue
        seen.add(record.key)
        records.append(record)
    return records, intra_tree_duplicates


@dataclass
class IterationReport:
    iteration: int
    task_ids: list[str]
    candidates: int
    kept: int
    rejected: dict[str, int]
    intra_tree_duplicates: int
    merge: dict[str, int]
    dataset_size: int
    per_depth_sizes: dict[int, int]
    dataset_paths: list[str]

    def to_dict(self) -> dict:
        data = asdict(self)
        # String keys: json would sort int keys numerically, not as text.
        data["per_depth_sizes"] = {str(d): s for d, s in self.per_depth_sizes.items()}
        return data


def check_schedule(stl_config: StlConfig, task_count: int) -> None:
    """Raise :class:`ConfigError` unless ``task_count`` tasks cover the schedule."""
    needed = stl_config.iterations * stl_config.tasks_per_iteration
    if needed > task_count:
        raise ConfigError(
            f"schedule needs {needed} rollout tasks "
            f"({stl_config.iterations} x {stl_config.tasks_per_iteration}) "
            f"but only {task_count} were provided"
        )


def stl_run(
    tasks: Sequence[Task],
    env: Environment,
    policy: Policy,
    base_model: ValueModel,
    trainer: Trainer,
    stl_config: StlConfig,
    search_config: SearchConfig,
    out_dir: str | Path,
    ledger: "Ledger | None" = None,
    parallel: int = 1,
    base_value: str | None = None,
) -> tuple[ValueModel, list[IterationReport]]:
    """Run the full self-training loop (see module docstring), write its
    trees, datasets, ``stl_report.json`` and ``final_model.jsonl`` under
    ``out_dir``, and return the last iteration's model and every
    iteration's report.

    Every iteration trains from ``base_model``, never from the previous
    iteration's model, and rolls out ``parallel`` tasks at a time with its
    model frozen.  Each dataset partition (one per depth with ``per_depth``,
    else the whole non-empty dataset) is exported before it is trained on,
    so a trainer's own exception ends the loop with that file on disk.
    Each ``.meta.json`` records ``base_value``, the spec ``base_model`` was
    built from, when given (see :func:`export_jsonl`).
    """
    check_schedule(stl_config, len(tasks))
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    trees_dir = out_path / "trees"

    scale = base_model.scale
    current_model = base_model
    dataset = Dataset()
    reports: list[IterationReport] = []
    collect = partial(
        collect_candidates, gamma=stl_config.gamma, min_depth=stl_config.min_example_depth
    )

    for iteration in range(1, stl_config.iterations + 1):
        start = (iteration - 1) * stl_config.tasks_per_iteration
        task_slice = tasks[start : start + stl_config.tasks_per_iteration]
        prefix = f"iter{iteration:02d}__"
        jobs = [(task, trees_dir / f"{prefix}{safe_name(task.id)}.json") for task in task_slice]
        collected = run_rollouts(
            jobs, stl_config.engine, env, policy, current_model, search_config, collect, ledger,
            parallel,
        )
        records = [record for found, _ in collected for record in found]
        intra_tree_duplicates = sum(duplicates for _, duplicates in collected)

        new_examples, rejections = filter_examples(records, scale, iteration)
        base_dataset = dataset if stl_config.accumulate else Dataset()
        dataset, merge_counts = dedup_latest(base_dataset, new_examples, iteration)

        if stl_config.per_depth:
            partitions = dataset.by_depth()
        else:
            partitions = {None: dataset} if len(dataset) > 0 else {}
        dataset_paths: list[str] = []
        models: dict[int | None, ValueModel] = {}
        for depth, partition in partitions.items():
            suffix = "" if depth is None else f"_depth{depth}"
            file_path = export_jsonl(
                partition, out_path / f"dataset_iter{iteration:02d}{suffix}.jsonl", scale.name,
                base_value,
            )
            dataset_paths.append(file_path.name)
            models[depth] = trainer.fine_tune(base_model, partition)
        if stl_config.per_depth:
            current_model = RoutedValueModel(models, fallback=base_model)
        else:
            current_model = models.get(None, base_model)

        reports.append(
            IterationReport(
                iteration=iteration,
                task_ids=[t.id for t in task_slice],
                candidates=len(records),
                kept=len(new_examples),
                # A plain dict: asdict would rebuild a Counter from its (key, count) pairs.
                rejected=dict(rejections),
                intra_tree_duplicates=intra_tree_duplicates,
                merge=merge_counts,
                dataset_size=len(dataset),
                per_depth_sizes={d: len(p) for d, p in partitions.items() if d is not None},
                dataset_paths=dataset_paths,
            )
        )

    write_json(out_path / "stl_report.json", [r.to_dict() for r in reports])
    if len(dataset) > 0:
        model_path = out_path / "final_model.jsonl"
        if stl_config.per_depth:
            export_jsonl(dataset, model_path, scale.name, base_value)
        else:
            # The last iteration exported this very dataset; copy that file pair.
            for suffix in ("", ".meta.json"):
                shutil.copyfile(f"{out_path / dataset_paths[0]}{suffix}", f"{model_path}{suffix}")
    return current_model, reports
