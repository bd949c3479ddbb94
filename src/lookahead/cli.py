"""Command-line entry point: run searches, self-training, evals, reports.

One structured JSON config file drives everything; every flag overrides its
config field (flags win).  The ``search`` and ``stl`` flags are built from the
scalar fields each command reads, one each, and their values pass the same
checks as a file's (a file may set keys its command ignores).  Each run
writes ``manifest.json`` — the package version and the fully-resolved
config — and re-running from a manifest with scripted agents reproduces
every artifact byte-for-byte.

Exit codes: 0 success, 2 configuration error (a rejected command line
included), 3 transport-fatal error, 4 I/O error; each error is one stderr
line.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import Any, Callable, Mapping, NoReturn, Sequence

from . import __version__
from .core import (
    Aggregation, ConfigError, Task, check_bool, check_choice, check_int, check_list,
    check_number, check_object, check_str, json_written_after, read_json, write_json,
)
from .envs.base import Environment
from .envs.game24 import Game24Env
from .envs.scripted import ScriptedEnvironment
from .agents.policies import ExhaustivePolicy, Policy, RemotePolicy
from .agents.scales import GAME24, NUMERIC10, MalformedRationale, get_scale
from .agents.transport import DEFAULT_API_KEY_ENV, HttpTransport, TransportError
from .agents.values import (
    ConstantValueModel,
    OracleValueModel,
    RemoteValueModel,
    ScriptedValueModel,
    ValueModel,
)
from .evaluation import (
    Ledger,
    MethodResult,
    PricingTable,
    TaskOutcome,
    emit_report,
    paired_bootstrap,
)
from .search import ENGINES, SearchConfig, SearchTree, run_rollouts, safe_name
from .stl import (
    StlConfig,
    TabularTrainer,
    TabularValueModel,
    check_schedule,
    import_jsonl,
    import_metadata,
    stl_run,
)


_AGGREGATIONS = tuple(a.value for a in Aggregation)
# An attempt succeeds when its ground-truth score reaches 1 (the paper's
# success rate); search reports pass@k at this k or the attempts, if fewer.
_SOLVED_SCORE = 1.0
_PASS_K = 3


@dataclass
class ExperimentConfig:
    """Everything one run needs, resolvable from a JSON file plus flags.

    Spec strings: ``environment`` is ``game24`` or ``scripted:<fixture>``;
    ``policy`` is ``exhaustive`` or ``remote:<model>``; ``value`` is one of
    ``oracle``, ``constant:<v>``, ``scripted:<fixture>``, ``remote:<model>``,
    or ``stl-dataset:<path>`` (mutually exclusive by construction); the
    value model's scale comes from its source (see :func:`build_value_model`).

    Construction checks the numbers and choices; the spec strings and the
    files they name are checked by the builders that read them.
    """

    environment: str = "game24"
    engine: str = "greedy"
    policy: str = "exhaustive"
    value: str = "oracle"
    tasks: str | None = None
    out: str | None = None
    method: str | None = None
    attempts: int = 1
    parallel: int = 1
    pricing: str | None = None
    value_samples: int = 1
    value_aggregation: str = Aggregation.MEDIAN.value
    base_url: str = "https://api.openai.com/v1"
    api_key_env: str = DEFAULT_API_KEY_ENV
    search: SearchConfig = field(default_factory=SearchConfig)
    stl: StlConfig = field(default_factory=StlConfig)

    def __post_init__(self) -> None:
        check_choice(self.engine, "'engine'", ENGINES)
        for name in ("attempts", "parallel", "value_samples"):
            check_int(getattr(self, name), f"'{name}'", 1)
        check_choice(self.value_aggregation, "'value_aggregation'", _AGGREGATIONS)

    def method_name(self) -> str:
        return self.method or f"{self.engine}+{self.value}"

    def to_dict(self) -> dict:
        return asdict(self)


# Declared field type -> the type its flag converts to, and the check its
# value passes.  A number must be finite: JSON's NaN/Infinity and the flags'
# "nan"/"inf" parse as floats, but no comparison with NaN holds.
_SCALAR_TYPES: dict[str, tuple[type, Callable[[Any, str], object]]] = {
    "int": (int, check_int),
    "float": (float, check_number),
    "bool": (bool, check_bool),
    "str": (str, check_str),
    "str | None": (str, partial(check_str, nullable=True)),
}


def _check_types(data: Mapping, cls: type, source: str, section: str | None = None) -> None:
    """Refuse a key of ``data`` that names no field of ``cls``, then a scalar
    field's value of the wrong type."""
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {section or 'config'} key(s): {', '.join(unknown)}")
    prefix = f"{section}." if section else ""
    for f in fields(cls):
        if f.type in _SCALAR_TYPES and f.name in data:
            check = _SCALAR_TYPES[f.type][1]
            check(data[f.name], f"{source}: '{prefix}{f.name}'")


def _sub_config(data: Any, cls: type, where: str, source: str) -> Any:
    kwargs = dict(check_object(data, f"{source}: {where!r}"))
    _check_types(kwargs, cls, source, where)
    if "excluded_actions" in kwargs:
        excluded = check_list(kwargs["excluded_actions"], f"{source}: 'excluded_actions'", str)
        kwargs["excluded_actions"] = tuple(excluded)
    return cls(**kwargs)


def config_from_dict(data: Mapping, source: str = "config") -> ExperimentConfig:
    """Build a config, checking its keys, types, numbers and choices; raises
    :class:`ConfigError` on any problem.  The spec strings are checked when
    the agents are built.

    ``source`` names where ``data`` came from in messages about a value's
    type or a section's shape.
    """
    _check_types(data, ExperimentConfig, source)
    kwargs: dict[str, Any] = dict(data)
    search = _sub_config(kwargs.pop("search", {}), SearchConfig, "search", source)
    stl = _sub_config(kwargs.pop("stl", {}), StlConfig, "stl", source)
    return ExperimentConfig(search=search, stl=stl, **kwargs)


def load_config(path: str | Path | None, overrides: Mapping[str, Any]) -> ExperimentConfig:
    """Merge a config file (or manifest) with the flags given, keyed by field
    name (``search.<name>``, ``stl.<name>``); flags win."""
    data: dict[str, Any] = {}
    if path is not None:
        data = read_json(path, "config")
        # A manifest is a valid config source: unwrap its config snapshot.
        if "config" in data and "version" in data:
            data = check_object(data["config"], f"config file {path}: 'config'")
    for key, value in overrides.items():
        section, _, name = key.rpartition(".")
        if not section:
            data[key] = value
        elif isinstance(data.setdefault(section, {}), dict):
            # A section that is not an object is left for config_from_dict to name.
            data[section] = {**data[section], name: value}
    return config_from_dict(data, f"config file {path}" if path is not None else "config")


def load_tasks(path: str | Path, env: Environment | None = None) -> list[Task]:
    """Read a ``{"tasks": [{id, instruction}]}`` JSON file.

    Other keys in an entry (the fixtures' ``split``) are ignored.
    With ``env``, every task must also yield an initial state there.  Ids
    must stay distinct as tree file names (:func:`~lookahead.search.safe_name`).
    """
    data = read_json(path, "tasks")
    entries = check_list(data.get("tasks"), f"tasks file {path}: 'tasks'", nonempty=True)
    tasks: list[Task] = []
    seen: dict[str, str] = {}
    for index, entry in enumerate(entries):
        where = f"tasks file {path}, entry {index}"
        entry = check_object(entry, where)
        task_id, instruction = (
            check_str(entry.get(key), f"{where}: {key!r}") for key in ("id", "instruction")
        )
        try:
            task = Task(id=task_id, instruction=instruction)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        name = safe_name(task.id)
        if name in seen:
            if seen[name] == task.id:
                raise ConfigError(f"tasks file {path}: duplicate task id {task.id!r}")
            raise ConfigError(
                f"tasks file {path}: task ids {seen[name]!r} and {task.id!r} "
                f"share the file name {name!r}"
            )
        if env is not None:
            try:
                env.initial_state(task)
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from None
        seen[name] = task.id
        tasks.append(task)
    return tasks


def build_environment(config: ExperimentConfig) -> Environment:
    if config.environment == "game24":
        return Game24Env()
    if not config.environment.startswith("scripted:"):
        raise ConfigError(
            f"environment must be 'game24' or 'scripted:<fixture>', got {config.environment!r}"
        )
    return ScriptedEnvironment.load(config.environment[len("scripted:") :])


def _transport(config: ExperimentConfig) -> HttpTransport:
    return HttpTransport(base_url=config.base_url, api_key_env=config.api_key_env)


def build_policy(
    config: ExperimentConfig, env: Environment, ledger: Ledger
) -> Policy:
    if config.policy == "exhaustive":
        return ExhaustivePolicy(env)
    if not config.policy.startswith("remote:"):
        raise ConfigError(
            f"policy must be 'exhaustive' or 'remote:<model>', got {config.policy!r}"
        )
    model = config.policy[len("remote:") :]
    try:
        return RemotePolicy(_transport(config), model, env, ledger=ledger)
    except ConfigError as exc:
        raise ConfigError(f"policy {config.policy!r}: {exc}") from None


def build_value_model(
    config: ExperimentConfig, env: Environment, ledger: Ledger
) -> ValueModel:
    """The value model ``config.value`` names, on the scale of its source:
    ``oracle`` on ``game24``, ``scripted:`` on its fixture's ``scale``,
    ``stl-dataset:`` on its ``.meta.json``'s ``scale`` (over the base model
    its ``base_value`` names, built from ``config`` and on that scale too,
    else a constant at the scale's lowest value), ``remote:`` on
    ``game24`` (the verdicts of the one shipped value prompt, game24's), and
    ``constant:`` on ``numeric10``.
    """
    value = config.value
    if value == "oracle":
        if config.environment != "game24":
            raise ConfigError("the oracle value model requires the game24 environment")
        return OracleValueModel()
    if value.startswith("constant:"):
        try:
            constant = float(value[len("constant:") :])
        except ValueError:
            constant = math.nan
        if not math.isfinite(constant):
            raise ConfigError(f"constant value spec is not a finite number: {value!r}")
        return ConstantValueModel(constant, scale=NUMERIC10)
    if value.startswith("scripted:"):
        path = Path(value[len("scripted:") :])
        data = read_json(path, "value fixture")
        where = f"value fixture {path}"
        values = check_object(data.get("values"), f"{where}: 'values'")
        try:
            scale = get_scale(check_str(data.get("scale", "numeric10"), f"{where}: 'scale'"))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        for key, number in values.items():
            check_number(number, f"{where}: 'values' entry {key!r}")
        default = check_number(data.get("default", 0.0), f"{where}: 'default'")
        try:
            return ScriptedValueModel(values=values, default=default, scale=scale)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    if value.startswith("stl-dataset:"):
        path = Path(value[len("stl-dataset:") :])
        if not path.exists():
            raise ConfigError(f"value dataset path does not exist: {path}")
        if path.is_dir():
            raise ConfigError(f"value dataset path {path} is a directory")
        dataset = import_jsonl(path)
        scale, base_value = import_metadata(path, len(dataset))
        if base_value is None:
            base = ConstantValueModel(scale.bounds[0], scale=scale)
        else:
            base = build_value_model(replace(config, value=base_value), env, ledger)
            if base.scale.name != scale.name:
                raise ConfigError(
                    f"dataset metadata {path}.meta.json: 'base_value' {base_value!r} is on "
                    f"the {base.scale.name!r} scale, not {scale.name!r}"
                )
        try:
            return TabularValueModel(base, dataset)
        except MalformedRationale as exc:
            raise ConfigError(f"value dataset {path}: a completion does not parse: {exc}") from None
    if not value.startswith("remote:"):
        raise ConfigError(
            "value must be one of oracle | constant:<v> | scripted:<fixture> | "
            f"remote:<model> | stl-dataset:<path>, got {value!r}"
        )
    model = value[len("remote:") :]
    try:
        return RemoteValueModel(
            _transport(config),
            model,
            env,
            scale=GAME24,
            n_samples=config.value_samples,
            aggregation=Aggregation(config.value_aggregation),
            ledger=ledger,
        )
    except ConfigError as exc:
        raise ConfigError(f"value {value!r}: {exc}") from None


def load_pricing(path: str | Path | None) -> PricingTable:
    """The rates in the pricing file at ``path``; the default rates without one."""
    if path is None:
        return PricingTable()
    data = read_json(path, "pricing")
    try:
        return PricingTable.from_dict(data)
    except ConfigError as exc:
        raise ConfigError(f"pricing file {path}: {exc}") from None


def build_pricing(config: ExperimentConfig) -> PricingTable:
    return load_pricing(config.pricing)


def resolve_out_dir(config: ExperimentConfig) -> Path:
    if config.out is not None:
        return Path(config.out)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return Path("runs") / stamp


def write_manifest(config: ExperimentConfig, out_dir: Path) -> Path:
    manifest = {"version": __version__, "config": config.to_dict()}
    path = out_dir / "manifest.json"
    write_json(path, manifest)
    return path


def set_up_run(
    config: ExperimentConfig, command: str
) -> tuple[Environment, list[Task], PricingTable | None, Ledger, Policy, ValueModel, Path]:
    """Build the agents of ``command`` (``search`` or ``stl``) and read its
    inputs; only then create the output directory and write the manifest.

    Each builder and loader checks the spec string or file it reads.  Under
    ``stl``, a discount (``gamma < 1``) is checked against the built value
    model's scale, since a label scale cannot hold a discounted target;
    ``search`` builds no targets, so it ignores the ``stl`` section, but its
    report prices every ``remote:`` model, so each must be in the pricing
    table.  ``stl`` prices nothing, so it reads no pricing file (``None``).
    """
    if config.tasks is None:
        raise ConfigError(f"{command} requires a tasks file (--tasks)")
    env = build_environment(config)
    ledger = Ledger()
    policy = build_policy(config, env, ledger)
    value_model = build_value_model(config, env, ledger)
    if command == "stl" and config.stl.gamma < 1.0 and value_model.scale.labels is not None:
        raise ConfigError(
            f"gamma {config.stl.gamma} discounts lookahead targets, which the "
            f"{value_model.scale.name!r} label scale cannot express; "
            "use gamma 1 or a value model on a numeric scale"
        )
    tasks = load_tasks(config.tasks, env)
    pricing = None
    if command == "search":
        pricing = build_pricing(config)
        agents = [policy, value_model]
        if isinstance(value_model, TabularValueModel):  # a reloaded dataset's base model
            agents.append(value_model.base_model)
        for agent in agents:
            if isinstance(agent, (RemotePolicy, RemoteValueModel)):
                pricing.get(agent.model)
    else:
        check_schedule(config.stl, len(tasks))
    out_dir = resolve_out_dir(config)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except ValueError as exc:  # a NUL or an unencodable character
        raise ConfigError(f"out directory {out_dir} cannot be made: {exc}") from None
    write_manifest(config, out_dir)
    return env, tasks, pricing, ledger, policy, value_model, out_dir


def _tally(env: Environment, tree: SearchTree) -> tuple[int, float | None]:
    """A search tree's failure count and its final trajectory's ground-truth score."""
    return len(tree.stats.failures), env.ground_truth_score(tree.final_trajectory())


def cmd_search(config: ExperimentConfig) -> int:
    """Run the configured engine over every task; always exits 0 once the
    run completes, with per-task failures tallied in the artifacts.

    Each tree is reduced to its failure count and score in its rollout's
    worker, so a run holds at most ``parallel`` trees.  ``ledger.json`` is
    written even when a rollout fails, with what the run spent until then.
    """
    env, tasks, pricing, ledger, policy, value_model, out_dir = set_up_run(config, "search")
    jobs = [
        (task, out_dir / "trees" / f"{safe_name(task.id)}__a{attempt}.json")
        for task in tasks
        for attempt in range(1, config.attempts + 1)
    ]
    with json_written_after(out_dir / "ledger.json", ledger.to_dict):
        tallies = run_rollouts(
            jobs, config.engine, env, policy, value_model, config.search, partial(_tally, env),
            ledger, config.parallel,
        )
    failures = sum(count for count, _ in tallies)
    scores = [score for _, score in tallies]

    outcomes: list[TaskOutcome] = []
    for index, task in enumerate(tasks):
        attempt_scores = scores[index * config.attempts : (index + 1) * config.attempts]
        successes = tuple(
            s is not None and s >= _SOLVED_SCORE for s in attempt_scores
        )
        known = [s for s in attempt_scores if s is not None]
        outcomes.append(
            TaskOutcome(
                task_id=task.id,
                score=max(known) if known else None,
                success=any(successes),
                attempts=successes,
            )
        )

    result = MethodResult(method=config.method_name(), outcomes=outcomes, ledger=ledger)
    write_json(out_dir / "results.json", result.to_dict())
    emit_report([result], out_dir / "report", pricing, k=min(_PASS_K, config.attempts))

    solved = sum(o.success for o in outcomes)
    print(f"method: {result.method}")
    print(f"tasks: {len(tasks)}  solved: {solved}  failures-tallied: {failures}")
    print(f"states expanded: {ledger.states_expanded}")
    if isinstance(value_model, TabularValueModel):
        print(f"table hits: {value_model.hits}  fallbacks: {value_model.fallbacks}")
    print(f"artifacts: {out_dir}")
    return 0


def cmd_stl(config: ExperimentConfig) -> int:
    """Run the self-training loop and write datasets, reports, the
    reloadable tabular model artifact and ``ledger.json``, which is written
    even when the loop fails, with what the run spent until then."""
    env, tasks, _pricing, ledger, policy, base_model, out_dir = set_up_run(config, "stl")
    with json_written_after(out_dir / "ledger.json", ledger.to_dict):
        _final_model, reports = stl_run(
            tasks=tasks,
            env=env,
            policy=policy,
            base_model=base_model,
            trainer=TabularTrainer(),
            stl_config=config.stl,
            search_config=config.search,
            out_dir=out_dir / "stl",
            ledger=ledger,
            parallel=config.parallel,
            base_value=config.value,
        )

    last = reports[-1]
    print(f"iterations: {len(reports)}")
    print(f"final dataset size: {last.dataset_size}")
    if last.per_depth_sizes:
        sizes = ", ".join(f"d{d}:{n}" for d, n in sorted(last.per_depth_sizes.items()))
        print(f"per-depth sizes: {sizes}")
    if last.dataset_size > 0:
        print(f"model artifact: {out_dir / 'stl' / 'final_model.jsonl'}")
    print(f"artifacts: {out_dir}")
    return 0


def _load_result(path: str | Path) -> MethodResult:
    data = read_json(path, "results")
    try:
        return MethodResult.from_dict(data)
    except ConfigError as exc:
        raise ConfigError(f"results file {path} is malformed: {exc}") from None


def _metric_values(result: MethodResult, metric: str) -> dict[str, float]:
    if metric == "score":
        return {
            o.task_id: (o.score if o.score is not None else 0.0)
            for o in result.outcomes
        }
    return {o.task_id: float(o.success) for o in result.outcomes}


def cmd_eval(
    path_a: str,
    path_b: str,
    metric: str,
    b_samples: int,
    seed: int,
    out: str | None,
) -> int:
    """Paired bootstrap comparison of two results files, both directions."""
    result_a = _load_result(path_a)
    result_b = _load_result(path_b)
    for path, result in ((path_a, result_a), (path_b, result_b)):
        if not result.outcomes:
            raise ConfigError(f"results file {path} has no outcomes to compare")
    values_a = _metric_values(result_a, metric)
    values_b = _metric_values(result_b, metric)
    if set(values_a) != set(values_b):
        only_a = sorted(set(values_a) - set(values_b))
        only_b = sorted(set(values_b) - set(values_a))
        raise ConfigError(
            "task ids are misaligned; "
            f"only in {path_a}: {only_a or '[]'}; only in {path_b}: {only_b or '[]'}"
        )
    task_ids = sorted(values_a)
    scores_a = [values_a[t] for t in task_ids]
    scores_b = [values_b[t] for t in task_ids]
    mean_a = sum(scores_a) / len(scores_a)
    mean_b = sum(scores_b) / len(scores_b)
    delta = mean_a - mean_b
    p_a_gt_b, p_b_gt_a = paired_bootstrap(scores_a, scores_b, b_samples, seed)

    print(f"method_a: {result_a.method} ({path_a})")
    print(f"method_b: {result_b.method} ({path_b})")
    print(f"metric: {metric}  tasks: {len(task_ids)}  b_samples: {b_samples}  seed: {seed}")
    print(f"delta (a - b): {delta:.6f}")
    print(f"p (a > b): {p_a_gt_b:.6f}")
    print(f"p (b > a): {p_b_gt_a:.6f}")
    if delta == 0:
        print("no difference between the two systems (delta = 0)")

    if out is not None:
        out_path = Path(out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        row = dict(
            metric=metric, method_a=result_a.method, method_b=result_b.method, tasks=len(task_ids),
            delta=f"{delta:.6f}", p_a_gt_b=f"{p_a_gt_b:.6f}", p_b_gt_a=f"{p_b_gt_a:.6f}",
            b_samples=b_samples, seed=seed, no_difference=int(delta == 0),
        )
        with out_path.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(row), lineterminator="\n")
            writer.writeheader()
            writer.writerow(row)
        print(f"wrote {out_path}")
    return 0


def cmd_report(
    result_paths: Sequence[str], pricing_path: str | None, k: int, out: str
) -> int:
    """Aggregate one or more results files into the CSV report pair."""
    check_int(k, "--k", 1)
    results = [_load_result(p) for p in result_paths]
    pricing = load_pricing(pricing_path)
    usable_k = min([k] + [len(o.attempts) for r in results for o in r.outcomes])
    paths = emit_report(results, out, pricing, k=usable_k)
    print(f"wrote {paths['summary']}")
    print(f"wrote {paths['per_task']}")
    return 0


# Help for the flags whose value is a spec string or a path.
_FLAG_HELP = {
    "config": "JSON config file or a previous manifest.json",
    "environment": "game24 | scripted:<fixture>",
    "policy": "exhaustive | remote:<model>",
    "value": "oracle | constant:<v> | scripted:<fixture> | remote:<model> | stl-dataset:<path>",
    "tasks": "tasks JSON file",
    "out": "output directory (default: runs/<stamp>)",
    "pricing": "pricing JSON file",
}


# The settings each command never reads, by key or whole section: they get no
# flag there, though a config file or manifest may still set them.
_UNREAD = {"search": ("stl",), "stl": ("engine", "method", "attempts", "pricing")}


def _add_config_flags(parser: argparse.ArgumentParser, command: str) -> None:
    """``--config`` plus one flag per scalar config field ``command`` reads.

    A field's flag is ``--<name-with-dashes>`` with dest ``name``,
    ``search.name`` or ``stl.name``, typed by the field's declared type; a
    name already taken gets its section's prefix (``stl.engine`` is
    ``--stl-engine``, also where ``--engine`` is unread).  The values are
    checked when the config loads.
    """
    parser.add_argument("--config", help=_FLAG_HELP["config"])
    taken = {"config"}
    for section, cls in (("", ExperimentConfig), ("search", SearchConfig), ("stl", StlConfig)):
        for f in fields(cls):
            if f.type not in _SCALAR_TYPES:
                continue
            flag_type = _SCALAR_TYPES[f.type][0]
            name = f"{section}_{f.name}" if f.name in taken else f.name
            taken.add(name)
            flag = "--" + name.replace("_", "-")
            dest = f"{section}.{f.name}" if section else f.name
            if (section or dest) in _UNREAD[command]:
                continue
            if flag_type is bool:
                parser.add_argument(flag, dest=dest, action=argparse.BooleanOptionalAction)
            else:
                parser.add_argument(flag, dest=dest, type=flag_type, help=_FLAG_HELP.get(name))


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one :class:`ConfigError` line."""

    def error(self, message: str) -> NoReturn:
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lookahead",
        description="Value-guided tree search and lookahead self-training.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for command, about in (
        ("search", "run value-guided search over tasks"), ("stl", "run the self-training loop")
    ):
        _add_config_flags(sub.add_parser(command, help=about), command)

    p_eval = sub.add_parser("eval", help="paired bootstrap between two results files")
    p_eval.add_argument("results_a", help="results.json for system A")
    p_eval.add_argument("results_b", help="results.json for system B")
    p_eval.add_argument("--metric", choices=("score", "success"), default="score")
    p_eval.add_argument("--b-samples", type=int, default=1_000_000, dest="b_samples")
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--out", help="CSV output path")
    p_eval.set_defaults(command="eval")

    p_report = sub.add_parser("report", help="aggregate results files into CSVs")
    p_report.add_argument("results", nargs="+", help="results.json files")
    p_report.add_argument("--pricing", help="pricing JSON file")
    p_report.add_argument("--k", type=int, default=_PASS_K)
    p_report.add_argument("--out", required=True, help="report output directory")
    p_report.set_defaults(command="report")
    return parser


def _overrides_from_args(args: argparse.Namespace) -> dict[str, Any]:
    skip = {"command", "config"}
    return {
        key: value
        for key, value in vars(args).items()
        if key not in skip and value is not None
    }


def _fail(kind: str, exc: Exception, code: int) -> int:
    """Print ``exc`` as one stderr line (a line break in a file name prints
    as ``\\n``) and return the exit ``code``."""
    message = str(exc).replace("\n", "\\n")
    print(f"{kind} error: {message}", file=sys.stderr)
    return code


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command in ("search", "stl"):
            config = load_config(args.config, _overrides_from_args(args))
            if args.command == "search":
                return cmd_search(config)
            return cmd_stl(config)
        if args.command == "eval":
            check_int(args.b_samples, "--b-samples", 1)
            check_int(args.seed, "--seed", 0)
            return cmd_eval(
                args.results_a,
                args.results_b,
                args.metric,
                args.b_samples,
                args.seed,
                args.out,
            )
        return cmd_report(args.results, args.pricing, args.k, args.out)
    except ConfigError as exc:
        return _fail("config", exc, 2)
    except TransportError as exc:
        return _fail("transport", exc, 3)
    except OSError as exc:
        return _fail("i/o", exc, 4)


if __name__ == "__main__":
    sys.exit(main())
