"""End-to-end command-line behaviour: configs, artifacts, exit codes."""

import csv
import gc
import hashlib
import json
import re
import statistics
import threading
import weakref
from collections import defaultdict
from dataclasses import fields, replace
from importlib import resources
from pathlib import Path

import pytest
from transport_doubles import PromptKeyedTransport

from lookahead import cli, stl
from lookahead.agents.transport import HttpTransport, TransportError
from lookahead.agents.values import ConstantValueModel, OracleValueModel
from lookahead.cli import (
    ExperimentConfig,
    build_parser,
    config_from_dict,
    load_config,
    main,
    resolve_out_dir,
    write_manifest,
)
from lookahead.core import ConfigError, Task
from lookahead.envs.game24 import Game24Env
from lookahead.envs.scripted import ScriptedEnvironment
from lookahead.evaluation import Ledger
from lookahead.search import ENGINES, SearchConfig
from lookahead.stl import StlConfig

WEBSHOP_ENV = "scripted:fixtures/webshop_demo_env.json"
WEBSHOP_VALUES = "scripted:fixtures/webshop_demo_values.json"


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_tasks(path: Path, entries) -> str:
    path.write_text(
        json.dumps({"tasks": entries}, indent=2), encoding="utf-8"
    )
    return str(path)


def webshop_tasks(path: Path, n: int = 2) -> str:
    entries = [
        {"id": f"w{i}", "instruction": f"buy the gray sofa, request {i}", "split": "rollout"}
        for i in range(1, n + 1)
    ]
    return write_tasks(path, entries)


def game24_tasks(path: Path, n: int = 2) -> str:
    source = json.loads(Path("fixtures/game24_test_50.json").read_text())
    return write_tasks(path, source["tasks"][:n])


def game24_dataset(tmp_path: Path, tasks: str, capsys) -> Path:
    """The final model of a one-iteration game24 ``stl`` run over ``tasks``;
    its ``.meta.json`` names the ``game24`` label scale."""
    argv = ["stl", "--stl-engine", "greedy", "--tasks-per-iteration", "2", "--tasks", tasks]
    code, _, err = run_cli([*argv, "--out", str(tmp_path / "model")], capsys)
    assert code == 0, err
    return tmp_path / "model" / "stl" / "final_model.jsonl"


def artifact_bytes(out: Path) -> dict[str, bytes]:
    """Every file a run wrote except its manifest, by path under ``out``."""
    return {
        p.relative_to(out).as_posix(): p.read_bytes()
        for p in out.rglob("*")
        if p.is_file() and p.name != "manifest.json"
    }


def webshop_search_args(tasks: str, out: Path, *extra: str) -> list[str]:
    return [
        "search",
        "--environment",
        WEBSHOP_ENV,
        "--value",
        WEBSHOP_VALUES,
        "--engine",
        "greedy",
        "--tasks",
        tasks,
        "--out",
        str(out),
        *extra,
    ]


class TestConfigHandling:
    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"bogus_key": 1}), encoding="utf-8")
        code, _, err = run_cli(["search", "--config", str(config)], capsys)
        assert code == 2
        assert "bogus_key" in err

    def test_missing_tasks_path_exits_2_naming_path(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        code, _, err = run_cli(
            ["search", "--tasks", str(missing), "--out", str(tmp_path / "out")],
            capsys,
        )
        assert code == 2
        assert str(missing) in err

    @pytest.mark.parametrize(
        "flag",
        ["--environment=scripted:{path}", "--value=scripted:{path}", "--value=stl-dataset:{path}"],
        ids=["environment-fixture", "value-fixture", "value-dataset"],
    )
    def test_missing_spec_file_exits_2_naming_it(self, tmp_path, capsys, flag):
        missing = tmp_path / "absent.json"
        tasks = game24_tasks(tmp_path / "tasks.json", n=1)
        argv = ["search", flag.format(path=missing), "--tasks", tasks, "--out", str(tmp_path / "o")]
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert err.startswith("config error:") and err.count("\n") == 1
        assert str(missing) in err
        assert not (tmp_path / "o").exists()

    def test_missing_environment_fixture_is_named_once(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        tasks = game24_tasks(tmp_path / "tasks.json", n=1)
        argv = ["search", f"--environment=scripted:{missing}", "--tasks", tasks,
                "--out", str(tmp_path / "o")]
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert err == f"config error: environment fixture file does not exist: {missing}\n"
        assert err.count(str(missing)) == 1

    @pytest.mark.parametrize(
        "edit",
        [
            lambda fixture: fixture.update(nodes=5),
            lambda fixture: fixture["nodes"][0].update(score="high"),
            lambda fixture: fixture["edges"][0].update(action=["buy"]),
        ],
        ids=["nodes-int", "score-string", "action-list"],
    )
    def test_wrongly_typed_environment_fixture_exits_2(self, tmp_path, capsys, edit):
        fixture = json.loads(Path("fixtures/webshop_demo_env.json").read_text(encoding="utf-8"))
        edit(fixture)
        path = tmp_path / "env.json"
        path.write_text(json.dumps(fixture), encoding="utf-8")
        tasks = webshop_tasks(tmp_path / "tasks.json")
        argv = ["search", f"--environment=scripted:{path}", "--tasks", tasks,
                "--out", str(tmp_path / "o")]
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert err.startswith(f"config error: environment fixture file {path}: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "payload",
        [b'{"tasks": [], "n": ' + b"7" * 5001 + b"}", b"\xff\xfe[]"],
        ids=["5001-digit-integer", "not-utf8"],
    )
    @pytest.mark.parametrize("reader", ["tasks", "environment"])
    def test_unreadable_json_exits_2_naming_the_file(self, tmp_path, capsys, payload, reader):
        bad = tmp_path / "bad.json"
        bad.write_bytes(payload)
        if reader == "tasks":
            argv = ["search", "--tasks", str(bad)]
        else:
            tasks = webshop_tasks(tmp_path / "tasks.json")
            argv = ["search", f"--environment=scripted:{bad}", "--tasks", tasks]
        code, _, err = run_cli([*argv, "--out", str(tmp_path / "o")], capsys)
        assert code == 2
        assert err.startswith("config error:") and err.count("\n") == 1
        assert f"{bad} cannot be read: " in err
        assert not (tmp_path / "o").exists()

    def test_search_without_tasks_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(["search", "--out", str(tmp_path)], capsys)
        assert code == 2
        assert "tasks" in err

    def test_oracle_requires_game24_environment(self, tmp_path, capsys):
        tasks = webshop_tasks(tmp_path / "tasks.json")
        code, _, err = run_cli(
            [
                "search",
                "--environment",
                WEBSHOP_ENV,
                "--value",
                "oracle",
                "--tasks",
                tasks,
                "--out",
                str(tmp_path / "out"),
            ],
            capsys,
        )
        assert code == 2
        assert "oracle" in err

    @pytest.mark.parametrize(
        "value_flags",
        [
            ["--value", "oracle"],
            ["--value", "remote:m"],
            ["--value", "stl-dataset:{dataset}"],
            ["--value", "scripted:{fixture}"],
        ],
        ids=["oracle", "remote-default-scale", "dataset-meta-scale", "fixture-scale"],
    )
    def test_discounted_targets_on_label_scale_exit_2(self, tmp_path, capsys, value_flags):
        tasks = game24_tasks(tmp_path / "tasks.json")
        dataset = game24_dataset(tmp_path, tasks, capsys)
        fixture = tmp_path / "values.json"
        fixture.write_text(
            json.dumps({"values": {}, "default": 0.001, "scale": "game24"}), encoding="utf-8"
        )
        code, out, err = run_cli(
            [
                "stl",
                "--environment",
                "game24",
                *[flag.format(dataset=dataset, fixture=fixture) for flag in value_flags],
                "--gamma",
                "0.9",
                "--base-url",
                "http://127.0.0.1:9",
                "--tasks",
                tasks,
                "--out",
                str(tmp_path / "out"),
            ],
            capsys,
        )
        assert code == 2
        assert err.startswith("config error:") and "gamma" in err
        assert err.endswith("use gamma 1 or a value model on a numeric scale\n")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_discount_allowed_on_numeric_scale(self, tmp_path, capsys):
        tasks = webshop_tasks(tmp_path / "tasks.json")
        code, _, err = run_cli(
            [
                "stl",
                "--environment",
                WEBSHOP_ENV,
                "--value",
                WEBSHOP_VALUES,
                "--stl-engine",
                "greedy",
                "--gamma",
                "0.9",
                "--tasks-per-iteration",
                "2",
                "--tasks",
                tasks,
                "--out",
                str(tmp_path / "out"),
            ],
            capsys,
        )
        assert code == 0, err

    def test_search_ignores_gamma(self, tmp_path, capsys):
        # search builds no targets, so a config file's discount under the
        # oracle's label scale is no configuration error there.
        tasks = game24_tasks(tmp_path / "tasks.json")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"stl": {"gamma": 0.5}}), encoding="utf-8")
        argv = ["search", "--config", str(config), "--tasks", tasks, "--out", str(tmp_path / "out")]
        code, _, err = run_cli(argv, capsys)
        assert code == 0, err

    @pytest.mark.parametrize(
        "argv", [["search", "--gamma", "0.5"], ["stl", "--engine", "beam"]], ids=" ".join
    )
    def test_a_flag_the_command_does_not_read_exits_2(self, tmp_path, capsys, argv):
        tasks = game24_tasks(tmp_path / "tasks.json")
        out = tmp_path / "out"
        code, stdout, err = run_cli([*argv, "--tasks", tasks, "--out", str(out)], capsys)
        assert (code, stdout) == (2, "")
        assert err == f"config error: unrecognized arguments: {' '.join(argv[1:])}\n"
        assert not out.exists()

    def test_dataset_completion_that_does_not_parse_exits_2(self, tmp_path, capsys):
        tasks = game24_tasks(tmp_path / "tasks.json")
        dataset = game24_dataset(tmp_path, tasks, capsys)
        first, *rest = dataset.read_text(encoding="utf-8").splitlines(keepends=True)
        record = json.loads(first)
        record["completion"] = "no lookahead here"
        dataset.write_text(json.dumps(record) + "\n" + "".join(rest), encoding="utf-8")
        out = tmp_path / "out"
        argv = ["search", "--value", f"stl-dataset:{dataset}", "--tasks", tasks, "--out", str(out)]
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert err.startswith("config error:") and err.count("\n") == 1
        assert str(dataset) in err and "section-missing" in err
        assert not out.exists()

    def test_dataset_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        tasks = game24_tasks(tmp_path / "tasks.json")
        dataset = tmp_path / "model.jsonl"
        dataset.write_bytes(b"\xff\xfe{}\n")
        out = tmp_path / "out"
        argv = ["search", "--value", f"stl-dataset:{dataset}", "--tasks", tasks, "--out", str(out)]
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert err.startswith("config error:") and err.count("\n") == 1
        assert f"{dataset}:1:" in err and "utf-8" in err
        assert not out.exists()

    def test_dataset_with_a_repeated_state_key_exits_2(self, tmp_path, capsys):
        tasks = game24_tasks(tmp_path / "tasks.json")
        dataset = game24_dataset(tmp_path, tasks, capsys)
        first = dataset.read_text(encoding="utf-8").splitlines(keepends=True)[0]
        dataset.write_text(first + first, encoding="utf-8")
        out = tmp_path / "out"
        argv = ["search", "--value", f"stl-dataset:{dataset}", "--tasks", tasks, "--out", str(out)]
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        key = json.loads(first)["state_key"]
        assert err == f"config error: {dataset}:2: 'state_key' {key!r} repeats line 1\n"
        assert not out.exists()

    def test_dataset_cut_below_its_metadata_count_exits_2(self, tmp_path, capsys):
        tasks = game24_tasks(tmp_path / "tasks.json")
        dataset = game24_dataset(tmp_path, tasks, capsys)
        lines = dataset.read_text(encoding="utf-8").splitlines(keepends=True)
        dataset.write_text(lines[0], encoding="utf-8")
        out = tmp_path / "out"
        argv = ["search", "--value", f"stl-dataset:{dataset}", "--tasks", tasks, "--out", str(out)]
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert err == (
            f"config error: dataset metadata {dataset}.meta.json: "
            f"'count' is {len(lines)}, but {dataset} has 1 records\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("meta", ["[1]", '{"count": -1}', '{"count": true}'])
    def test_dataset_metadata_not_an_object_or_with_a_bad_count_exits_2(
        self, tmp_path, capsys, meta
    ):
        tasks = game24_tasks(tmp_path / "tasks.json")
        dataset = game24_dataset(tmp_path, tasks, capsys)
        Path(f"{dataset}.meta.json").write_text(meta, encoding="utf-8")
        out = tmp_path / "out"
        argv = ["search", "--value", f"stl-dataset:{dataset}", "--tasks", tasks, "--out", str(out)]
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert err.startswith("config error: dataset metadata") and err.count("\n") == 1
        assert f"{dataset}.meta.json" in err
        assert not out.exists()

    def test_a_dataset_reloads_over_the_base_model_its_metadata_names(self, tmp_path, capsys):
        tasks = game24_tasks(tmp_path / "tasks.json")
        dataset = game24_dataset(tmp_path, tasks, capsys)  # an stl run over the oracle
        path = Path(f"{dataset}.meta.json")
        meta = json.loads(path.read_text(encoding="utf-8"))
        assert meta == {"base_value": "oracle", "count": meta["count"], "scale": "game24"}
        config = ExperimentConfig(value=f"stl-dataset:{dataset}")
        model = cli.build_value_model(config, Game24Env(), Ledger())
        assert isinstance(model.base_model, OracleValueModel)
        # A dataset written before its metadata named the base keeps the constant.
        del meta["base_value"]
        path.write_text(json.dumps(meta), encoding="utf-8")
        model = cli.build_value_model(config, Game24Env(), Ledger())
        assert isinstance(model.base_model, ConstantValueModel)
        assert model.base_model.scale.name == "game24"

    @pytest.mark.parametrize(
        "base_value,problem",
        [
            (
                "stl-dataset:other.jsonl",
                "dataset metadata {meta}: 'base_value' 'stl-dataset:other.jsonl' is itself a dataset",
            ),
            (
                "constant:3",
                "dataset metadata {meta}: 'base_value' 'constant:3' is on the 'numeric10' scale, "
                "not 'game24'",
            ),
            ("remote:unpriced-model", "no pricing known for model 'unpriced-model'"),
        ],
        ids=["a-dataset", "another-scale", "unpriced"],
    )
    def test_a_dataset_base_that_cannot_serve_exits_2(
        self, tmp_path, capsys, base_value, problem
    ):
        tasks = game24_tasks(tmp_path / "tasks.json")
        dataset = game24_dataset(tmp_path, tasks, capsys)
        path = Path(f"{dataset}.meta.json")
        meta = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps({**meta, "base_value": base_value}), encoding="utf-8")
        out = tmp_path / "out"
        argv = ["search", "--value", f"stl-dataset:{dataset}", "--tasks", tasks, "--out", str(out),
                "--base-url", "http://127.0.0.1:9/v1"]
        code, _, err = run_cli(argv, capsys)
        assert (code, err) == (2, f"config error: {problem.format(meta=path)}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("completion", 5),
            ("state_key", 5),
            ("task_id", None),
            ("context", ["x"]),
            ("depth", True),
            ("iteration", 1.0),
        ],
    )
    def test_dataset_field_of_the_wrong_type_exits_2(self, tmp_path, capsys, field, value):
        tasks = game24_tasks(tmp_path / "tasks.json")
        dataset = game24_dataset(tmp_path, tasks, capsys)
        first, *rest = dataset.read_text(encoding="utf-8").splitlines(keepends=True)
        dataset.write_text(
            json.dumps({**json.loads(first), field: value}) + "\n" + "".join(rest), encoding="utf-8"
        )
        out = tmp_path / "out"
        argv = ["search", "--value", f"stl-dataset:{dataset}", "--tasks", tasks, "--out", str(out)]
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert err.startswith("config error:") and err.count("\n") == 1
        assert f"{dataset}:1:" in err and repr(field) in err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["fixture", "dataset-meta"])
    @pytest.mark.parametrize("name", ["likert10-odd", "attribute4"])
    def test_a_scale_name_offers_only_the_shipped_scales(self, tmp_path, capsys, name, source):
        tasks = game24_tasks(tmp_path / "tasks.json")
        if source == "fixture":
            path = tmp_path / "values.json"
            path.write_text(json.dumps({"values": {}, "scale": name}), encoding="utf-8")
            value, where = f"scripted:{path}", f"value fixture {path}"
        else:
            dataset = game24_dataset(tmp_path, tasks, capsys)
            path = Path(f"{dataset}.meta.json")
            meta = json.loads(path.read_text(encoding="utf-8"))
            path.write_text(json.dumps({**meta, "scale": name}), encoding="utf-8")
            value, where = f"stl-dataset:{dataset}", f"dataset metadata {path}"
        out = tmp_path / "o"
        argv = ["search", "--value", value, "--tasks", tasks, "--out", str(out)]
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert err == f"config error: {where}: unknown value scale {name!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--value-scale", "game24"],
            ["--success-threshold", "1"],
            ["--k", "3"],
            ["--exploration", "1"],
            ["--no-normalize-backup"],
            ["--mask", "none"],
        ],
        ids=lambda flags: flags[0],
    )
    def test_a_flag_of_a_removed_setting_is_unrecognized(self, tmp_path, capsys, flags):
        tasks = game24_tasks(tmp_path / "tasks.json")
        out = tmp_path / "o"
        code, _, err = run_cli(["stl", *flags, "--tasks", tasks, "--out", str(out)], capsys)
        assert code == 2
        assert err == f"config error: unrecognized arguments: {' '.join(flags)}\n"
        assert not out.exists()

    def test_bad_value_spec_exits_2(self, tmp_path, capsys):
        tasks = webshop_tasks(tmp_path / "tasks.json")
        code, _, err = run_cli(
            ["search", "--value", "psychic", "--tasks", tasks, "--out", str(tmp_path / "o")],
            capsys,
        )
        assert code == 2
        assert "psychic" in err

    def test_duplicate_task_ids_exit_2(self, tmp_path, capsys):
        tasks = write_tasks(
            tmp_path / "tasks.json",
            [
                {"id": "dup", "instruction": "1 2 3 4"},
                {"id": "dup", "instruction": "4 6 6 8"},
            ],
        )
        code, _, err = run_cli(
            ["search", "--tasks", tasks, "--out", str(tmp_path / "out")], capsys
        )
        assert code == 2
        assert "dup" in err

    @pytest.mark.parametrize("command", ["search", "stl"])
    @pytest.mark.parametrize("instruction", ["1 2 3 4 5", "one two"])
    def test_task_invalid_for_environment_exits_2_before_manifest(
        self, tmp_path, capsys, command, instruction
    ):
        tasks = write_tasks(
            tmp_path / "tasks.json",
            [
                {"id": "ok", "instruction": "4 6 6 8"},
                {"id": "bad", "instruction": instruction},
            ],
        )
        out = tmp_path / "out"
        code, _, err = run_cli([command, "--tasks", tasks, "--out", str(out)], capsys)
        assert code == 2
        assert err.count("\n") == 1 and "error:" in err
        assert "entry 1" in err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize(
        "command,filename,content,flag",
        [
            ("search", "tasks.json", {"tasks": 5}, "--tasks={path}"),
            ("stl", "tasks.json", {"tasks": []}, "--tasks={path}"),
            ("search", "config.json", {"search": 5}, "--config={path}"),
            ("stl", "config.json", {"stl": 5}, "--config={path}"),
            ("search", "config.json", {"search": {"excluded_actions": 5}}, "--config={path}"),
            ("search", "config.json", {"search": {"excluded_actions": [1]}}, "--config={path}"),
            ("search", "tasks.json", {"tasks": [{"id": 5, "instruction": "4 6 6 8"}]}, "--tasks={path}"),
            ("search", "values.json", {"values": 5}, "--value=scripted:{path}"),
            ("search", "values.json", {"values": {"s": "high"}}, "--value=scripted:{path}"),
            ("search", "values.json", {"values": {}, "scale": "bogus"}, "--value=scripted:{path}"),
            ("search", "values.json", {"values": {}, "default": "high"}, "--value=scripted:{path}"),
            ("stl", "m.jsonl.meta.json", {"scale": "bogus"}, "--value=stl-dataset:{dir}/m.jsonl"),
            ("search", "config.json", {"attempts": "2"}, "--config={path}"),
            ("search", "config.json", {"parallel": "2"}, "--config={path}"),
            ("search", "config.json", {"search": {"max_depth": "3"}}, "--config={path}"),
            ("stl", "config.json", {"stl": {"gamma": "x"}}, "--config={path}"),
            ("search", "config.json", {"value_samples": "3"}, "--config={path}"),
            ("search", "tasks.json", {"tasks": [{"id": "x", "instruction": 5}]}, "--tasks={path}"),
        ],
        ids=[
            "tasks-not-a-list",
            "stl-tasks-empty",
            "search-not-an-object",
            "stl-not-an-object",
            "excluded-actions-not-a-list",
            "excluded-action-not-a-string",
            "task-id-not-a-string",
            "value-fixture-values-not-an-object",
            "value-fixture-non-numeric-value",
            "value-fixture-unknown-scale",
            "value-fixture-non-numeric-default",
            "dataset-meta-unknown-scale",
            "attempts-not-a-number",
            "parallel-not-a-number",
            "max-depth-not-a-number",
            "gamma-not-a-number",
            "value-samples-not-a-number",
            "task-instruction-not-a-string",
        ],
    )
    def test_malformed_input_file_exits_2_naming_it(
        self, tmp_path, capsys, command, filename, content, flag
    ):
        bad = tmp_path / filename
        bad.write_text(json.dumps(content), encoding="utf-8")
        (tmp_path / "m.jsonl").write_text("", encoding="utf-8")
        tasks = game24_tasks(tmp_path / "good_tasks.json", n=1)
        argv = [command, "--tasks", tasks, "--out", str(tmp_path / "out")]
        code, _, err = run_cli([*argv, flag.format(path=bad, dir=tmp_path)], capsys)
        assert code == 2
        assert err.startswith("config error:") and err.count("\n") == 1
        assert str(bad) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "content,named",
        [
            ({"attempts": "2"}, "'attempts'"),
            ({"parallel": 2.0}, "'parallel'"),
            ({"stl": {"gamma": "x"}}, "'stl.gamma'"),
            ({"value_samples": True}, "'value_samples'"),
            ({"environment": 5}, "'environment'"),
            ({"search": {"branching": "5"}}, "'search.branching'"),
            ({"stl": {"accumulate": "no"}}, "'stl.accumulate'"),
        ],
    )
    def test_config_value_of_the_wrong_type_exits_2_naming_its_key(
        self, tmp_path, capsys, content, named
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(content), encoding="utf-8")
        tasks = game24_tasks(tmp_path / "tasks.json", n=1)
        argv = ["search", "--config", str(config), "--tasks", tasks, "--out", str(tmp_path / "o")]
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert err.startswith("config error:") and err.count("\n") == 1
        assert named in err

    @pytest.mark.parametrize(
        "content,named",
        [
            ('{"stl": {"gamma": Infinity}}', "'stl.gamma'"),
            ('{"stl": {"gamma": -Infinity}}', "'stl.gamma'"),
            ('{"search": {"max_depth": Infinity}}', "'search.max_depth'"),
            ('{"stl": {"gamma": NaN}}', "'stl.gamma'"),
        ],
    )
    def test_non_finite_config_number_exits_2_naming_its_key(
        self, tmp_path, capsys, content, named
    ):
        config = tmp_path / "config.json"
        config.write_text(content, encoding="utf-8")
        tasks = game24_tasks(tmp_path / "tasks.json", n=2)
        argv = ["search", "--config", str(config), "--tasks", tasks, "--out", str(tmp_path / "o")]
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert err.startswith("config error:") and err.count("\n") == 1
        assert named in err and str(config) in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("spec", ["constant:nan", "constant:inf", "constant:1e999"])
    def test_non_finite_constant_value_spec_exits_2_naming_it(self, tmp_path, capsys, spec):
        tasks = game24_tasks(tmp_path / "tasks.json", n=1)
        argv = ["search", "--value", spec, "--tasks", tasks, "--out", str(tmp_path / "o")]
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert err.startswith("config error:") and err.count("\n") == 1
        assert repr(spec) in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "content,named",
        [
            ('{"values": {"s": NaN}}', "'values' entry 's'"),
            ('{"values": {"s": 1e999}}', "'values' entry 's'"),
            ('{"values": {"s": true}}', "'values' entry 's'"),
            ('{"values": {"s": "5"}}', "'values' entry 's'"),
            ('{"values": {}, "default": NaN}', "'default'"),
            ('{"values": {}, "default": 1e999}', "'default'"),
            ('{"values": {}, "default": true}', "'default'"),
            ('{"values": {}, "default": "5"}', "'default'"),
            pytest.param(
                '{"values": {}, "default": 1%s}' % ("0" * 400), "'default'", id="int-past-float"
            ),
        ],
    )
    def test_value_fixture_number_that_is_not_finite_exits_2_naming_its_key(
        self, tmp_path, capsys, content, named
    ):
        fixture = tmp_path / "values.json"
        fixture.write_text(content, encoding="utf-8")
        tasks = game24_tasks(tmp_path / "tasks.json", n=1)
        argv = ["search", "--value", f"scripted:{fixture}", "--tasks", tasks,
                "--out", str(tmp_path / "o")]
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert err.startswith("config error:") and err.count("\n") == 1
        assert named in err and str(fixture) in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command,flag,value,named",
        [
            ("stl", "--gamma", "inf", "'stl.gamma'"),
            ("stl", "--gamma", "-inf", "'stl.gamma'"),
            ("stl", "--gamma", "nan", "'stl.gamma'"),
        ],
    )
    def test_non_finite_flag_exits_2_naming_its_key(
        self, tmp_path, capsys, command, flag, value, named
    ):
        tasks = game24_tasks(tmp_path / "tasks.json", n=2)
        argv = [command, f"{flag}={value}", "--tasks", tasks, "--out", str(tmp_path / "o")]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert err.startswith("config error:") and err.count("\n") == 1
        assert named in err
        assert out == ""
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "data,message",
        [
            ({"attempts": 0}, "attempts must be at least 1"),
            ({"parallel": 0}, "parallel must be at least 1"),
            ({"value_samples": 0}, "value_samples must be at least 1"),
            ({"value_aggregation": "mode"}, "value_aggregation must be one of"),
            ({"search": 5}, "'search' must be a JSON object"),
            ({"stl": [1]}, "'stl' must be a JSON object"),
            ({"search": {"excluded_actions": [1]}}, "'excluded_actions' must be a list"),
            ({"search": {"excluded_actions": "Click[Back]"}}, "'excluded_actions' must be a list"),
        ],
    )
    def test_config_from_dict_checks_numbers_choices_and_shapes(self, data, message):
        with pytest.raises(ConfigError, match=message):
            config_from_dict(data)

    def test_flag_into_a_section_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"search": 5}), encoding="utf-8")
        tasks = game24_tasks(tmp_path / "tasks.json", n=1)
        argv = ["search", "--config", str(config), "--branching", "3", "--tasks", tasks]
        code, _, err = run_cli([*argv, "--out", str(tmp_path / "o")], capsys)
        assert code == 2
        assert err == f"config error: config file {config}: 'search' must be a JSON object\n"
        assert not (tmp_path / "o").exists()

    def test_value_samples_below_one_exits_2(self, tmp_path, capsys):
        tasks = game24_tasks(tmp_path / "tasks.json", n=1)
        argv = ["search", "--value-samples", "0", "--tasks", tasks, "--out", str(tmp_path / "o")]
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert err == "config error: value_samples must be at least 1\n"

    def test_flag_overrides_config_file(self, tmp_path, capsys):
        tasks = webshop_tasks(tmp_path / "tasks.json")
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "environment": WEBSHOP_ENV,
                    "value": WEBSHOP_VALUES,
                    "tasks": tasks,
                    "attempts": 1,
                    "out": str(tmp_path / "out"),
                }
            ),
            encoding="utf-8",
        )
        code, _, _ = run_cli(
            ["search", "--config", str(config), "--attempts", "2"], capsys
        )
        assert code == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config"]["attempts"] == 2
        assert (tmp_path / "out" / "trees" / "w1__a2.json").exists()

    def test_task_ids_sharing_a_tree_file_name_exit_2(self, tmp_path, capsys):
        tasks = write_tasks(
            tmp_path / "tasks.json",
            [
                {"id": "a/b", "instruction": "1 2 3 4"},
                {"id": "a-b", "instruction": "4 6 6 8"},
            ],
        )
        out = tmp_path / "out"
        code, _, err = run_cli(["search", "--tasks", tasks, "--out", str(out)], capsys)
        assert code == 2
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "'a/b'" in err and "'a-b'" in err
        assert not out.exists()

    def test_extra_task_keys_are_ignored(self, tmp_path):
        tasks = write_tasks(
            tmp_path / "tasks.json",
            [{"id": "a", "instruction": "4 6 6 8", "split": "bogus", "note": 5}],
        )
        assert cli.load_tasks(tasks, Game24Env()) == [Task(id="a", instruction="4 6 6 8")]

    @pytest.mark.parametrize(
        "entries,message",
        [
            ([5], "entry 0 must be a JSON object"),
            (["x"], "entry 0 must be a JSON object"),
            ([{"id": "a", "instruction": "1 2 3 4"}, [1]], "entry 1 must be a JSON object"),
            ([{"instruction": "1 2 3 4"}], "entry 0: 'id' must be a string, got None"),
            ([{"id": "a"}], "entry 0: 'instruction' must be a string, got None"),
        ],
    )
    def test_malformed_task_entry_exits_2_saying_what_is_wrong(
        self, tmp_path, capsys, entries, message
    ):
        tasks = write_tasks(tmp_path / "tasks.json", entries)
        code, _, err = run_cli(["search", "--tasks", tasks, "--out", str(tmp_path / "o")], capsys)
        assert code == 2
        assert err == f"config error: tasks file {tasks}, {message}\n"

    def test_stl_schedule_larger_than_task_list_exits_2_before_out_dir(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["stl", "--tasks", "fixtures/game24_rollout_100.json", "--iterations", "30"]
        code, _, err = run_cli([*argv, "--tasks-per-iteration", "5", "--out", str(out)], capsys)
        assert code == 2
        assert err.startswith("config error: schedule needs 150 rollout tasks")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_default_out_dir_is_the_time_stamp(self):
        assert re.fullmatch(r"runs/\d{8}-\d{6}", resolve_out_dir(ExperimentConfig()).as_posix())

    def test_readme_lists_exactly_the_config_keys(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        listing = readme.split("Top-level keys:", 1)[1].split("Unknown keys are rejected.", 1)[0]
        nested = dict(re.findall(r"`(search|stl)` \(([^)]*)\)", listing))
        top_level = re.sub(r"`(search|stl)` \([^)]*\)", "", listing)

        def keys(text):
            return re.findall(r"`(\w+)`", text)

        assert keys(top_level) == [
            f.name for f in fields(ExperimentConfig) if f.name not in ("search", "stl")
        ]
        assert keys(nested["search"]) == [f.name for f in fields(SearchConfig)]
        assert keys(nested["stl"]) == [f.name for f in fields(StlConfig)]

    def test_rerun_from_manifest_reproduces_results(self, tmp_path, capsys):
        tasks = webshop_tasks(tmp_path / "tasks.json")
        first_out = tmp_path / "run1"
        code, _, _ = run_cli(webshop_search_args(tasks, first_out), capsys)
        assert code == 0
        second_out = tmp_path / "run2"
        code, _, _ = run_cli(
            [
                "search",
                "--config",
                str(first_out / "manifest.json"),
                "--out",
                str(second_out),
            ],
            capsys,
        )
        assert code == 0
        assert (first_out / "results.json").read_bytes() == (
            second_out / "results.json"
        ).read_bytes()


# The manifest an earlier release wrote for the same config: its dropped keys
# (`seed`, `search.seed`, `search.feed_candidate_actions`) no longer load.
V1_MANIFEST = """\
{
  "config": {
    "api_key_env": "LOOKAHEAD_API_KEY",
    "attempts": 2,
    "base_url": "https://api.openai.com/v1",
    "engine": "beam",
    "environment": "game24",
    "k": 3,
    "method": "golden",
    "out": null,
    "parallel": 1,
    "policy": "exhaustive",
    "pricing": null,
    "search": {
      "beam_width": 3,
      "branching": 5,
      "excluded_actions": [
        "Click[Back]",
        "Search[sofa]"
      ],
      "exploration": 0.5,
      "feed_candidate_actions": false,
      "max_depth": 5,
      "mcts_iterations": 5,
      "normalize_backup": true,
      "seed": 0,
      "value_aggregation": "mean",
      "value_samples": 1
    },
    "seed": 3,
    "stl": {
      "accumulate": false,
      "engine": "greedy",
      "gamma": 0.5,
      "iterations": 1,
      "mask": "completion-only",
      "min_example_depth": 1,
      "per_depth": true,
      "tasks_per_iteration": 1
    },
    "success_threshold": 1.0,
    "tasks": null,
    "value": "constant:5",
    "value_scale": null
  },
  "seed": 3,
  "version": "0.1.0"
}
"""


# The manifest a later release wrote for the same config: its settings that
# became constants (`k`, `success_threshold`, `value_scale`,
# `search.exploration`, `search.normalize_backup`, `stl.mask`) no longer load.
V2_MANIFEST = """\
{
  "config": {
    "api_key_env": "LOOKAHEAD_API_KEY",
    "attempts": 2,
    "base_url": "https://api.openai.com/v1",
    "engine": "beam",
    "environment": "game24",
    "k": 3,
    "method": "golden",
    "out": null,
    "parallel": 1,
    "policy": "exhaustive",
    "pricing": null,
    "search": {
      "beam_width": 3,
      "branching": 5,
      "excluded_actions": [
        "Click[Back]",
        "Search[sofa]"
      ],
      "exploration": 0.5,
      "max_depth": 5,
      "mcts_iterations": 5,
      "normalize_backup": true
    },
    "stl": {
      "accumulate": false,
      "engine": "greedy",
      "gamma": 0.5,
      "iterations": 1,
      "mask": "completion-only",
      "min_example_depth": 1,
      "per_depth": true,
      "tasks_per_iteration": 1
    },
    "success_threshold": 1.0,
    "tasks": null,
    "value": "constant:5",
    "value_aggregation": "mean",
    "value_samples": 1,
    "value_scale": null
  },
  "version": "0.1.0"
}
"""


GOLDEN_MANIFEST = """\
{
  "config": {
    "api_key_env": "LOOKAHEAD_API_KEY",
    "attempts": 2,
    "base_url": "https://api.openai.com/v1",
    "engine": "beam",
    "environment": "game24",
    "method": "golden",
    "out": null,
    "parallel": 1,
    "policy": "exhaustive",
    "pricing": null,
    "search": {
      "beam_width": 3,
      "branching": 5,
      "excluded_actions": [
        "Click[Back]",
        "Search[sofa]"
      ],
      "max_depth": 5,
      "mcts_iterations": 5
    },
    "stl": {
      "accumulate": false,
      "engine": "greedy",
      "gamma": 0.5,
      "iterations": 1,
      "min_example_depth": 1,
      "per_depth": true,
      "tasks_per_iteration": 1
    },
    "tasks": null,
    "value": "constant:5",
    "value_aggregation": "mean",
    "value_samples": 1
  },
  "version": "0.1.0"
}
"""


class TestManifest:
    def test_manifest_bytes_are_pinned_for_a_non_default_config(self, tmp_path):
        config = config_from_dict(
            {
                "engine": "beam",
                "value": "constant:5",
                "method": "golden",
                "attempts": 2,
                "value_aggregation": "mean",
                "search": {
                    "beam_width": 3,
                    "excluded_actions": ["Click[Back]", "Search[sofa]"],
                },
                "stl": {
                    "per_depth": True,
                    "engine": "greedy",
                    "gamma": 0.5,
                    "min_example_depth": 1,
                },
            }
        )
        path = write_manifest(config, tmp_path)
        assert path.read_text(encoding="utf-8") == GOLDEN_MANIFEST
        assert load_config(path, {}) == config

    def test_replaying_a_manifest_with_sampling_keys_under_search_exits_2(
        self, tmp_path, capsys
    ):
        manifest = json.loads(GOLDEN_MANIFEST)
        config = manifest["config"]
        for key in ("value_aggregation", "value_samples"):
            config["search"][key] = config.pop(key)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        code, _, err = run_cli(["search", "--config", str(path)], capsys)
        assert code == 2
        assert err == (
            "config error: unknown search key(s): value_aggregation, value_samples\n"
        )

    def test_replaying_a_v2_manifest_exits_2_naming_the_removed_keys(
        self, tmp_path, capsys
    ):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(V2_MANIFEST, encoding="utf-8")
        code, _, err = run_cli(["search", "--config", str(manifest)], capsys)
        assert code == 2
        assert err == "config error: unknown config key(s): k, success_threshold, value_scale\n"

    def test_replaying_a_v1_manifest_exits_2_naming_seed(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(V1_MANIFEST, encoding="utf-8")
        code, _, err = run_cli(["search", "--config", str(manifest)], capsys)
        assert code == 2
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "seed" in err


class TestEngineChoices:
    def test_configs_accept_exactly_the_engine_registry(self):
        for name in ENGINES:
            assert config_from_dict({"engine": name, "stl": {"engine": name}}).engine == name
            assert StlConfig(engine=name).engine == name
        with pytest.raises(ConfigError, match="engine must be one of"):
            config_from_dict({"engine": "dfs"})
        with pytest.raises(ValueError, match="engine must be one of"):
            StlConfig(engine="dfs")


# Every flag of ``search`` and of ``stl`` with its dest, in help order: each
# command offers a flag only for a setting it reads.
CONFIG_FLAGS = {
    "search": [
        (("--config",), "config"),
        (("--environment",), "environment"),
        (("--engine",), "engine"),
        (("--policy",), "policy"),
        (("--value",), "value"),
        (("--tasks",), "tasks"),
        (("--out",), "out"),
        (("--method",), "method"),
        (("--attempts",), "attempts"),
        (("--parallel",), "parallel"),
        (("--pricing",), "pricing"),
        (("--value-samples",), "value_samples"),
        (("--value-aggregation",), "value_aggregation"),
        (("--base-url",), "base_url"),
        (("--api-key-env",), "api_key_env"),
        (("--branching",), "search.branching"),
        (("--max-depth",), "search.max_depth"),
        (("--beam-width",), "search.beam_width"),
        (("--mcts-iterations",), "search.mcts_iterations"),
    ],
    "stl": [
        (("--config",), "config"),
        (("--environment",), "environment"),
        (("--policy",), "policy"),
        (("--value",), "value"),
        (("--tasks",), "tasks"),
        (("--out",), "out"),
        (("--parallel",), "parallel"),
        (("--pricing",), "pricing"),
        (("--value-samples",), "value_samples"),
        (("--value-aggregation",), "value_aggregation"),
        (("--base-url",), "base_url"),
        (("--api-key-env",), "api_key_env"),
        (("--branching",), "search.branching"),
        (("--max-depth",), "search.max_depth"),
        (("--beam-width",), "search.beam_width"),
        (("--mcts-iterations",), "search.mcts_iterations"),
        (("--iterations",), "stl.iterations"),
        (("--tasks-per-iteration",), "stl.tasks_per_iteration"),
        (("--gamma",), "stl.gamma"),
        (("--stl-engine",), "stl.engine"),
        (("--accumulate", "--no-accumulate"), "stl.accumulate"),
        (("--per-depth", "--no-per-depth"), "stl.per_depth"),
        (("--min-example-depth",), "stl.min_example_depth"),
    ],
}


def benchmark_inputs(name: str, tmp_path: Path, monkeypatch):
    """The inputs and command line of one benchmark workload, seed 1."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    (tmp_path / "in").mkdir()
    prepare = workloads.WORKLOADS[name].prepare
    return workloads, prepare(1, tmp_path / "in", tmp_path / "out", "http://127.0.0.1:9")


class TestFlagTable:
    @pytest.mark.parametrize("command", ["search", "stl"])
    def test_search_and_stl_offer_exactly_the_pinned_flags(self, command):
        parser = build_parser()._subparsers._group_actions[0].choices[command]
        flags = [(tuple(a.option_strings), a.dest) for a in parser._actions[1:]]
        assert flags == CONFIG_FLAGS[command]

    @pytest.mark.parametrize(
        "name", ["search-beam-oracle", "stl-mcts-oracle", "search-beam-remote"]
    )
    def test_benchmark_command_lines_parse_to_the_pinned_configs(
        self, name, tmp_path, monkeypatch
    ):
        workloads, inputs = benchmark_inputs(name, tmp_path, monkeypatch)
        paths = dict(tasks=str(tmp_path / "in" / "tasks.json"), out=str(tmp_path / "out"))
        expected = {
            "search-beam-oracle": ExperimentConfig(
                engine="beam",
                search=SearchConfig(branching=100, beam_width=5, max_depth=3),
                **paths,
            ),
            "stl-mcts-oracle": ExperimentConfig(
                search=SearchConfig(mcts_iterations=30, branching=5, max_depth=3),
                stl=StlConfig(
                    engine="mcts",
                    iterations=workloads.STL_ITERATIONS,
                    tasks_per_iteration=workloads.STL_TASKS_PER_ITERATION,
                    accumulate=True,
                ),
                **paths,
            ),
            "search-beam-remote": ExperimentConfig(
                engine="beam",
                value="remote:gpt-3.5-turbo",
                value_samples=workloads.REMOTE_VALUE_SAMPLES,
                base_url="http://127.0.0.1:9",
                api_key_env=workloads.NO_KEY_ENV,
                search=SearchConfig(branching=5, beam_width=5, max_depth=3),
                **paths,
            ),
        }[name]
        args = build_parser().parse_args(inputs.argv)
        config = load_config(args.config, cli._overrides_from_args(args))
        # Compared as manifests, so an int where a float was parsed fails too.
        assert json.dumps(config.to_dict()) == json.dumps(expected.to_dict())

    def test_the_benchmark_eval_command_line_parses_to_the_pinned_arguments(
        self, tmp_path, monkeypatch
    ):
        workloads, inputs = benchmark_inputs("eval-bootstrap", tmp_path, monkeypatch)
        args = build_parser().parse_args(inputs.argv)
        assert vars(args) == {
            "command": "eval",
            "results_a": str(tmp_path / "in" / "results_a.json"),
            "results_b": str(tmp_path / "in" / "results_b.json"),
            "metric": "score",
            "b_samples": workloads.EVAL_RESAMPLES,
            "seed": 1,
            "out": str(tmp_path / "out" / "eval.csv"),
        }


class TestCommandLineErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "--attempts", "x"],
            ["search", "--bogus"],
            ["search", "--engine", "dfs"],
            ["search", "--value-aggregation", "mode"],
            ["stl", "--mask", "bad"],
            ["stl", "--stl-engine", "dfs"],
            ["stl", "--accumulate=yes"],
            ["eval", "a.json"],
            ["eval", "a.json", "b.json", "--b-samples", "many"],
            ["eval", "a.json", "b.json", "--metric", "mean"],
            ["report", "--out", "r"],
            ["report", "a.json", "--out", "r", "--k", "x"],
            [],
            ["fly"],
        ],
        ids=lambda argv: " ".join(argv) or "no-subcommand",
    )
    def test_a_bad_command_line_is_one_config_error_line(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert err.startswith("config error:") and err.count("\n") == 1
        assert out == ""

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["search", "--help"]])
    def test_help_and_version_still_exit_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
        assert capsys.readouterr().out


class TestSearchCommand:
    def test_game24_beam_oracle_solves_fixture_tasks(self, tmp_path, capsys):
        tasks = game24_tasks(tmp_path / "tasks.json")
        out = tmp_path / "out"
        code, stdout, _ = run_cli(
            [
                "search",
                "--environment",
                "game24",
                "--engine",
                "beam",
                "--value",
                "oracle",
                "--tasks",
                tasks,
                "--branching",
                "5",
                "--beam-width",
                "5",
                "--max-depth",
                "3",
                "--out",
                str(out),
            ],
            capsys,
        )
        assert code == 0
        assert "solved: 2" in stdout
        results = json.loads((out / "results.json").read_text())
        assert all(o["success"] for o in results["outcomes"])
        ledger = json.loads((out / "ledger.json").read_text())
        assert ledger["states_expanded"] > 0
        assert (out / "report" / "summary.csv").exists()
        assert (out / "report" / "per_task.csv").exists()

    def test_webshop_greedy_scripted_values_reach_goal(self, tmp_path, capsys):
        tasks = webshop_tasks(tmp_path / "tasks.json")
        out = tmp_path / "out"
        code, stdout, _ = run_cli(webshop_search_args(tasks, out), capsys)
        assert code == 0
        results = json.loads((out / "results.json").read_text())
        assert [o["score"] for o in results["outcomes"]] == [1.0, 1.0]
        assert "solved: 2" in stdout

    def test_tree_dump_per_task_attempt(self, tmp_path, capsys):
        tasks = webshop_tasks(tmp_path / "tasks.json", n=1)
        out = tmp_path / "out"
        code, _, _ = run_cli(
            webshop_search_args(tasks, out, "--attempts", "2"), capsys
        )
        assert code == 0
        assert (out / "trees" / "w1__a1.json").exists()
        assert (out / "trees" / "w1__a2.json").exists()
        results = json.loads((out / "results.json").read_text())
        assert results["outcomes"][0]["attempts"] == [True, True]

    def test_constant_value_model_spec(self, tmp_path, capsys):
        tasks = webshop_tasks(tmp_path / "tasks.json", n=1)
        out = tmp_path / "out"
        code, _, _ = run_cli(
            [
                "search",
                "--environment",
                WEBSHOP_ENV,
                "--value",
                "constant:5.0",
                "--tasks",
                tasks,
                "--out",
                str(out),
            ],
            capsys,
        )
        assert code == 0
        results = json.loads((out / "results.json").read_text())
        assert results["method"] == "greedy+constant:5.0"

    def test_oracle_beam_solves_every_test_puzzle(self, tmp_path, capsys):
        """The upper bound any value model can reach under this budget: with
        the exact oracle only proposal truncation can miss a puzzle, and the
        test fixture holds only puzzles that width-5 beam solves."""
        argv = ["search", "--engine", "beam", "--value", "oracle", "--branching", "5",
                "--beam-width", "5", "--max-depth", "3",
                "--tasks", "fixtures/game24_test_50.json", "--out", str(tmp_path / "out")]
        code, out, err = run_cli(argv, capsys)
        assert code == 0, err
        lines = out.splitlines()
        assert "tasks: 50  solved: 50  failures-tallied: 0" in lines
        assert "states expanded: 2739" in lines

    # (task id, score, per-attempt successes) with every third rollout cut
    # to one level.
    STREAMED_OUTCOMES = {
        1: [
            ("g24t001", 0.0, [False]),
            ("g24t002", 1.0, [True]),
            ("g24t003", 1.0, [True]),
            ("g24t004", 0.0, [False]),
            ("g24t005", 1.0, [True]),
            ("g24t006", 1.0, [True]),
        ],
        2: [
            ("g24t001", 1.0, [False, True]),
            ("g24t002", 1.0, [True, False]),
            ("g24t003", 1.0, [True, True]),
            ("g24t004", 1.0, [False, True]),
            ("g24t005", 1.0, [True, False]),
            ("g24t006", 1.0, [True, True]),
        ],
    }

    @pytest.mark.parametrize("attempts", sorted(STREAMED_OUTCOMES))
    def test_serial_search_holds_one_earlier_tree_when_a_rollout_starts(
        self, tmp_path, capsys, monkeypatch, attempts
    ):
        beam = ENGINES["beam"]
        built = weakref.WeakSet()
        alive_at_start: list[int] = []

        def tracked(task, env, policy, value_model, config, ledger):
            gc.collect()
            alive_at_start.append(len(built))
            if len(alive_at_start) % 3 == 1:
                # One level cannot reach 24, so a task's attempts differ.
                config = replace(config, max_depth=1)
            tree = beam(task, env, policy, value_model, config, ledger)
            built.add(tree)
            return tree

        monkeypatch.setitem(ENGINES, "beam", tracked)
        tasks = game24_tasks(tmp_path / "tasks.json", n=6)
        out = tmp_path / "out"
        code, stdout, err = run_cli(
            [
                "search", "--engine", "beam", "--value", "oracle", "--tasks", tasks,
                "--branching", "5", "--beam-width", "5", "--max-depth", "3",
                "--attempts", str(attempts), "--out", str(out),
            ],
            capsys,
        )
        assert code == 0, err
        assert len(alive_at_start) == 6 * attempts
        assert max(alive_at_start) <= 1, alive_at_start
        results = json.loads((out / "results.json").read_text())
        outcomes = [(o["task_id"], o["score"], o["attempts"]) for o in results["outcomes"]]
        assert outcomes == self.STREAMED_OUTCOMES[attempts]
        solved = sum(any(successes) for _, _, successes in outcomes)
        assert f"tasks: 6  solved: {solved}  failures-tallied: 0" in stdout
        assert "table hits" not in stdout

    def test_parallel_search_holds_at_most_parallel_trees_behind_a_slow_rollout(
        self, tmp_path, capsys, monkeypatch
    ):
        # The first rollout waits until the last one has started, so the
        # other thread runs every later job meanwhile; no finished tree may
        # wait for the slow one.
        beam = ENGINES["beam"]
        built = weakref.WeakSet()
        alive: list[int] = []  # trees alive as each rollout starts and ends
        starts = []
        lock = threading.Lock()
        last_started = threading.Event()

        def count_alive() -> None:
            with lock:
                gc.collect()
                alive.append(len(built))

        def slow_first(task, *args):
            count_alive()
            with lock:
                starts.append(task.id)
                first, last = len(starts) == 1, len(starts) == 40
            if first:
                last_started.wait(timeout=5.0)
            if last:
                last_started.set()
            tree = beam(task, *args)
            built.add(tree)
            count_alive()
            return tree

        monkeypatch.setitem(ENGINES, "beam", slow_first)
        tasks = game24_tasks(tmp_path / "tasks.json", n=40)
        argv = ["search", "--engine", "beam", "--value", "oracle", "--tasks", tasks]
        argv += ["--branching", "5", "--beam-width", "5", "--max-depth", "3", "--parallel", "2"]
        code, stdout, err = run_cli([*argv, "--out", str(tmp_path / "o")], capsys)
        assert code == 0, err
        assert last_started.is_set()
        assert len(alive) == 2 * 40
        assert max(alive) <= 2, alive
        assert "tasks: 40  solved:" in stdout

    def test_an_error_while_scoring_shuts_the_rollout_pool_down(
        self, tmp_path, capsys, monkeypatch
    ):
        def failing_score(self, trajectory):
            raise RuntimeError("scoring failed")

        monkeypatch.setattr(Game24Env, "ground_truth_score", failing_score)
        tasks = game24_tasks(tmp_path / "tasks.json", n=6)
        argv = ["search", "--engine", "beam", "--value", "oracle", "--tasks", tasks]
        argv += ["--parallel", "2", "--out", str(tmp_path / "out")]
        before = set(threading.enumerate())
        # ``failure`` holds the traceback and with it cmd_search's frame, so
        # only an explicit close can have shut the pool down by now.
        with pytest.raises(RuntimeError, match="scoring failed") as failure:
            main(argv)
        assert failure.value.args == ("scoring failed",)
        assert set(threading.enumerate()) - before == set()

    def test_parallel_matches_serial_results(self, tmp_path, capsys):
        tasks = webshop_tasks(tmp_path / "tasks.json", n=3)
        serial_out = tmp_path / "serial"
        parallel_out = tmp_path / "parallel"
        assert run_cli(webshop_search_args(tasks, serial_out), capsys)[0] == 0
        assert (
            run_cli(
                webshop_search_args(tasks, parallel_out, "--parallel", "3"), capsys
            )[0]
            == 0
        )
        serial = json.loads((serial_out / "results.json").read_text())
        parallel = json.loads((parallel_out / "results.json").read_text())
        assert serial["outcomes"] == parallel["outcomes"]
        assert artifact_bytes(parallel_out) == artifact_bytes(serial_out)


class TestRemoteValueFlags:
    def test_sampling_flags_reach_the_remote_value_model(self, tmp_path, capsys, monkeypatch):
        def reply(prompt, draw):
            return "Weighing the numbers.\n" + ("sure", "likely", "impossible")[draw % 3]

        transport = PromptKeyedTransport(reply)
        monkeypatch.setattr(cli, "_transport", lambda config: transport)
        tasks = game24_tasks(tmp_path / "tasks.json", n=1)
        out = tmp_path / "out"
        argv = ["search", "--value", "remote:gpt-3.5-turbo", "--value-samples", "3"]
        argv += ["--value-aggregation", "mean", "--tasks", tasks, "--out", str(out)]
        code, _, err = run_cli(argv, capsys)
        assert code == 0, err
        assert transport.ns and set(transport.ns) == {3}
        (tree_path,) = (out / "trees").glob("*.json")
        nodes = json.loads(tree_path.read_text())["nodes"]
        judged = [n for n in nodes if n["value"] is not None]
        assert len(judged) == transport.sends
        for node in judged:
            assert len(node["samples"]) == 3
            assert node["value"] == pytest.approx(statistics.mean(node["samples"]))
        assert any(n["value"] != statistics.median(n["samples"]) for n in judged)
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert (config["value_samples"], config["value_aggregation"]) == (3, "mean")


# The first 16 hex digits of the sha256 of every file two per-depth beam
# ``stl`` runs write under ``stl/``, pinned before the lookahead record
# replaced the candidate wrapper: refactoring the pipeline must not move a byte.
class TestLabelScaleDoubles:
    """Scripted and constant value models state each value on their own
    scale, so a label scale's rationales parse."""

    def stl_report(self, tmp_path, capsys, value: str, tasks: str) -> dict:
        out = tmp_path / "out"
        argv = ["stl", "--value", value, "--stl-engine", "greedy", "--tasks-per-iteration", "4"]
        code, _, err = run_cli([*argv, "--tasks", tasks, "--out", str(out)], capsys)
        assert code == 0, err
        [report] = json.loads((out / "stl" / "stl_report.json").read_text(encoding="utf-8"))
        return report

    def test_a_label_scale_fixture_keeps_every_candidate(self, tmp_path, capsys):
        tasks = game24_tasks(tmp_path / "tasks.json", n=4)
        fixture = tmp_path / "values.json"
        fixture.write_text(
            json.dumps({"values": {}, "default": 0.001, "scale": "game24"}), encoding="utf-8"
        )
        report = self.stl_report(tmp_path, capsys, f"scripted:{fixture}", tasks)
        assert report["rejected"] == {}
        assert report["kept"] == report["candidates"] > 0

    def test_a_dataset_model_states_unseen_states_on_its_label_scale(self, tmp_path, capsys):
        tasks = game24_tasks(tmp_path / "tasks.json", n=4)
        dataset = game24_dataset(tmp_path, tasks, capsys)  # from the first two tasks only
        report = self.stl_report(tmp_path, capsys, f"stl-dataset:{dataset}", tasks)
        assert "scaffolding-missing" not in report["rejected"]
        assert report["kept"] > 0

    @pytest.mark.parametrize(
        "fixture, named",
        [
            ({"values": {"a": 7}, "scale": "game24"}, "value 7.0"),
            ({"values": {}, "default": 5, "scale": "game24"}, "value 5.0"),
        ],
        ids=["fixture-value", "fixture-default"],
    )
    def test_a_value_the_label_scale_cannot_state_exits_2(self, tmp_path, capsys, fixture, named):
        tasks = game24_tasks(tmp_path / "tasks.json", n=1)
        path = tmp_path / "values.json"
        path.write_text(json.dumps(fixture), encoding="utf-8")
        out = tmp_path / "out"
        argv = ["search", "--value", f"scripted:{path}", "--tasks", tasks, "--out", str(out)]
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert err.startswith("config error:") and err.count("\n") == 1
        assert f"{named} is not one of the 'game24' label values" in err
        assert not out.exists()


STL_WEBSHOP_PER_DEPTH_ARGS = [
    "--environment", WEBSHOP_ENV, "--value", WEBSHOP_VALUES,
    "--tasks", "fixtures/webshop_tasks_50.json", "--stl-engine", "beam",
    "--per-depth", "--gamma", "0.9", "--iterations", "2", "--tasks-per-iteration", "3",
]
STL_WEBSHOP_PER_DEPTH_DIGESTS = {
    "dataset_iter01_depth0.jsonl": "c31916dccc7021ab",
    "dataset_iter01_depth0.jsonl.meta.json": "1ff7ffa7af695ccf",
    "dataset_iter01_depth1.jsonl": "eda9b57b7ed96f10",
    "dataset_iter01_depth1.jsonl.meta.json": "476e6d6e7770b71b",
    "dataset_iter01_depth2.jsonl": "fddd206c344057bb",
    "dataset_iter01_depth2.jsonl.meta.json": "2bf496f22ebef598",
    "dataset_iter01_depth3.jsonl": "b079caf8083d47e2",
    "dataset_iter01_depth3.jsonl.meta.json": "f1f38beb5cd3e289",
    "dataset_iter01_depth4.jsonl": "bf53106e4e9cc8f1",
    "dataset_iter01_depth4.jsonl.meta.json": "735be92c02b11041",
    "dataset_iter02_depth0.jsonl": "9e5db9a5e4ce25b9",
    "dataset_iter02_depth0.jsonl.meta.json": "1ff7ffa7af695ccf",
    "dataset_iter02_depth1.jsonl": "4a4c102c47158b15",
    "dataset_iter02_depth1.jsonl.meta.json": "476e6d6e7770b71b",
    "dataset_iter02_depth2.jsonl": "254ddfbd806777ba",
    "dataset_iter02_depth2.jsonl.meta.json": "2bf496f22ebef598",
    "dataset_iter02_depth3.jsonl": "ea57edcaddbc5490",
    "dataset_iter02_depth3.jsonl.meta.json": "f1f38beb5cd3e289",
    "dataset_iter02_depth4.jsonl": "98b797d448df42ec",
    "dataset_iter02_depth4.jsonl.meta.json": "735be92c02b11041",
    "final_model.jsonl": "98652c38d030bda0",
    "final_model.jsonl.meta.json": "69f8a6ef954a5834",
    "stl_report.json": "b4d3c57ccc3c4909",
    "trees/iter01__w001.json": "e447131e30a5594a",
    "trees/iter01__w002.json": "f9b125137da267ea",
    "trees/iter01__w003.json": "5bec04be82cc1a37",
    "trees/iter02__w004.json": "3528c39f621b1dde",
    "trees/iter02__w005.json": "6a9587c309fdc489",
    "trees/iter02__w006.json": "e78b5712e8f3030f",
}
STL_GAME24_PER_DEPTH_ARGS = [
    "--value", "oracle", "--tasks", "fixtures/game24_rollout_100.json",
    "--stl-engine", "beam", "--per-depth", "--min-example-depth", "1",
    "--iterations", "2", "--tasks-per-iteration", "5",
]
STL_GAME24_PER_DEPTH_DIGESTS = {
    "dataset_iter01_depth1.jsonl": "d4589ecef02dcb3c",
    "dataset_iter01_depth1.jsonl.meta.json": "bd280f8ca32619c3",
    "dataset_iter01_depth2.jsonl": "012b490e97f1a537",
    "dataset_iter01_depth2.jsonl.meta.json": "bd280f8ca32619c3",
    "dataset_iter02_depth1.jsonl": "09a74c92a2274b78",
    "dataset_iter02_depth1.jsonl.meta.json": "118b7e32f6d6ff50",
    "dataset_iter02_depth2.jsonl": "7f4fe1edce457409",
    "dataset_iter02_depth2.jsonl.meta.json": "bd280f8ca32619c3",
    "final_model.jsonl": "a018465e54a6cb36",
    "final_model.jsonl.meta.json": "7e98fc836e148f85",
    "stl_report.json": "576a325605c409b0",
    "trees/iter01__g24r001.json": "3be4c0cc57ec0de5",
    "trees/iter01__g24r002.json": "e900c953f0373efa",
    "trees/iter01__g24r003.json": "3ba5309cf58c723b",
    "trees/iter01__g24r004.json": "2a8ea2531a3ad81e",
    "trees/iter01__g24r005.json": "159af9c7d58045f9",
    "trees/iter02__g24r006.json": "8d6494d629f10b58",
    "trees/iter02__g24r007.json": "dedd1bce7e36c849",
    "trees/iter02__g24r008.json": "d858d531611d555e",
    "trees/iter02__g24r009.json": "920c6a11d40af007",
    "trees/iter02__g24r010.json": "40f3d9d414cda4f7",
}


class TestStlCommand:
    def test_parallel_overlaps_rollouts_and_leaves_artifacts_unchanged(
        self, tmp_path, capsys, monkeypatch
    ):
        tasks = webshop_tasks(tmp_path / "tasks.json", n=4)
        argv = ["stl", "--environment", WEBSHOP_ENV, "--value", WEBSHOP_VALUES]
        argv += ["--stl-engine", "greedy", "--iterations", "2", "--tasks-per-iteration", "2"]
        argv += ["--accumulate", "--tasks", tasks]
        serial_out, parallel_out = tmp_path / "parallel1", tmp_path / "parallel4"
        code, _, err = run_cli([*argv, "--parallel", "1", "--out", str(serial_out)], capsys)
        assert code == 0, err
        # Each rollout of the parallel run waits (up to a timeout) until both
        # rollouts of its iteration are in flight at once.
        in_flight = [0, 0]  # now, most
        lock = threading.Lock()
        both_started = threading.Barrier(2, timeout=2.0)
        greedy = ENGINES["greedy"]

        def overlapping_greedy(*args, **kwargs):
            with lock:
                in_flight[0] += 1
                in_flight[1] = max(in_flight)
            try:
                both_started.wait()
            except threading.BrokenBarrierError:
                pass
            try:
                return greedy(*args, **kwargs)
            finally:
                with lock:
                    in_flight[0] -= 1

        monkeypatch.setitem(ENGINES, "greedy", overlapping_greedy)
        code, _, err = run_cli([*argv, "--parallel", "4", "--out", str(parallel_out)], capsys)
        assert code == 0, err
        assert in_flight[1] == 2
        assert artifact_bytes(parallel_out) == artifact_bytes(serial_out)

    def test_final_model_copies_the_last_dataset_without_exporting_it_again(
        self, tmp_path, capsys, monkeypatch
    ):
        exported = []
        export = stl.export_jsonl

        def counted(dataset, path, *args, **kwargs):
            exported.append(Path(path).name)
            return export(dataset, path, *args, **kwargs)

        monkeypatch.setattr(stl, "export_jsonl", counted)
        tasks = webshop_tasks(tmp_path / "tasks.json", n=4)
        out = tmp_path / "out"
        argv = ["stl", "--environment", WEBSHOP_ENV, "--value", WEBSHOP_VALUES]
        argv += ["--stl-engine", "greedy", "--iterations", "2", "--tasks-per-iteration", "2"]
        code, stdout, err = run_cli([*argv, "--tasks", tasks, "--out", str(out)], capsys)
        assert code == 0, err
        assert exported == ["dataset_iter01.jsonl", "dataset_iter02.jsonl"]
        stl_dir = out / "stl"
        for suffix in ("", ".meta.json"):
            final = (stl_dir / f"final_model.jsonl{suffix}").read_bytes()
            assert final == (stl_dir / f"dataset_iter02.jsonl{suffix}").read_bytes()
        assert f"model artifact: {stl_dir / 'final_model.jsonl'}" in stdout

    def test_webshop_per_depth_artifacts(self, tmp_path, capsys):
        tasks = webshop_tasks(tmp_path / "tasks.json")
        out = tmp_path / "out"
        code, stdout, _ = run_cli(
            [
                "stl",
                "--environment",
                WEBSHOP_ENV,
                "--value",
                WEBSHOP_VALUES,
                "--tasks",
                tasks,
                "--stl-engine",
                "greedy",
                "--per-depth",
                "--min-example-depth",
                "1",
                "--iterations",
                "1",
                "--tasks-per-iteration",
                "2",
                "--out",
                str(out),
            ],
            capsys,
        )
        assert code == 0
        for depth in (1, 2, 3, 4):
            assert (out / "stl" / f"dataset_iter01_depth{depth}.jsonl").exists()
        assert (out / "stl" / "final_model.jsonl").exists()
        assert (out / "stl" / "stl_report.json").exists()
        assert "per-depth sizes" in stdout

    def test_tree_files_use_safe_task_names(self, tmp_path, capsys):
        tasks = write_tasks(
            tmp_path / "tasks.json",
            [
                {"id": "a/b", "instruction": "buy the gray sofa"},
                {"id": "../../escape/x", "instruction": "buy the gray sofa again"},
            ],
        )
        out = tmp_path / "out"
        argv = ["stl", "--environment", WEBSHOP_ENV, "--value", WEBSHOP_VALUES]
        argv += ["--stl-engine", "greedy", "--tasks-per-iteration", "2"]
        code, _, err = run_cli([*argv, "--tasks", tasks, "--out", str(out)], capsys)
        assert code == 0, err
        trees = sorted(p.relative_to(out).as_posix() for p in out.rglob("*.json") if "trees" in p.parts)
        assert trees == ["stl/trees/iter01__..-..-escape-x.json", "stl/trees/iter01__a-b.json"]

    def test_game24_stl_artifact_reloads_for_search(self, tmp_path, capsys):
        tasks = game24_tasks(tmp_path / "tasks.json")
        stl_out = tmp_path / "stl-run"
        code, _, _ = run_cli(
            [
                "stl",
                "--environment",
                "game24",
                "--value",
                "oracle",
                "--tasks",
                tasks,
                "--stl-engine",
                "beam",
                "--branching",
                "5",
                "--beam-width",
                "5",
                "--max-depth",
                "3",
                "--iterations",
                "1",
                "--tasks-per-iteration",
                "2",
                "--out",
                str(stl_out),
            ],
            capsys,
        )
        assert code == 0
        artifact = stl_out / "stl" / "final_model.jsonl"
        meta = json.loads(Path(str(artifact) + ".meta.json").read_text())
        assert meta["scale"] == "game24"
        search_out = tmp_path / "search-run"
        code, stdout, _ = run_cli(
            [
                "search",
                "--environment",
                "game24",
                "--engine",
                "beam",
                "--value",
                f"stl-dataset:{artifact}",
                "--tasks",
                tasks,
                "--branching",
                "5",
                "--beam-width",
                "5",
                "--max-depth",
                "3",
                "--out",
                str(search_out),
            ],
            capsys,
        )
        assert code == 0
        assert "tasks: 2" in stdout
        # Every evaluated state is a table hit or a fallback to the base model.
        counts = re.search(r"states expanded: (\d+)\ntable hits: (\d+)  fallbacks: (\d+)\n", stdout)
        expanded, hits, fallbacks = map(int, counts.groups())
        assert hits > 0 and hits + fallbacks == expanded
        results = json.loads((search_out / "results.json").read_text())
        assert results["method"].startswith("beam+stl-dataset:")

    @pytest.mark.parametrize(
        "args, digests",
        [
            (STL_WEBSHOP_PER_DEPTH_ARGS, STL_WEBSHOP_PER_DEPTH_DIGESTS),
            (STL_GAME24_PER_DEPTH_ARGS, STL_GAME24_PER_DEPTH_DIGESTS),
        ],
        ids=["webshop-gamma-0.9", "game24-min-depth-1"],
    )
    def test_per_depth_artifact_bytes_are_pinned(self, tmp_path, capsys, args, digests):
        code, _, err = run_cli(["stl", *args, "--out", str(tmp_path)], capsys)
        assert code == 0, err
        stl_dir = tmp_path / "stl"
        written = {
            p.relative_to(stl_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()[:16]
            for p in sorted(stl_dir.rglob("*"))
            if p.is_file()
        }
        assert written == digests


def fake_results(path: Path, method: str, scores: dict[str, float]) -> str:
    payload = {
        "method": method,
        "outcomes": [
            {
                "task_id": task_id,
                "score": score,
                "success": score >= 1.0,
                "attempts": [score >= 1.0],
            }
            for task_id, score in scores.items()
        ],
        "ledger": {"per_task": {}},
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestEvalCommand:
    def test_identical_results_report_no_difference(self, tmp_path, capsys):
        scores = {"t1": 1.0, "t2": 0.0, "t3": 1.0}
        a = fake_results(tmp_path / "a.json", "m-a", scores)
        b = fake_results(tmp_path / "b.json", "m-b", scores)
        out_csv = tmp_path / "eval.csv"
        code, stdout, _ = run_cli(
            ["eval", a, b, "--b-samples", "1000", "--out", str(out_csv)], capsys
        )
        assert code == 0
        assert "no difference between the two systems (delta = 0)" in stdout
        rows = out_csv.read_text().splitlines()
        assert rows[0].endswith("no_difference")
        assert rows[1].endswith(",1")

    def test_dominant_difference_reports_zero_p(self, tmp_path, capsys):
        a = fake_results(tmp_path / "a.json", "m-a", {"t1": 1.0, "t2": 1.0, "t3": 1.0})
        b = fake_results(tmp_path / "b.json", "m-b", {"t1": 0.0, "t2": 0.0, "t3": 0.0})
        code, stdout, _ = run_cli(["eval", a, b, "--b-samples", "2000"], capsys)
        assert code == 0
        assert "p (a > b): 0.000000" in stdout
        assert "delta (a - b): 1.000000" in stdout

    def test_misaligned_task_ids_exit_2(self, tmp_path, capsys):
        a = fake_results(tmp_path / "a.json", "m-a", {"t1": 1.0, "t2": 0.0})
        b = fake_results(tmp_path / "b.json", "m-b", {"t1": 1.0, "t9": 0.0})
        code, _, err = run_cli(["eval", a, b, "--b-samples", "100"], capsys)
        assert code == 2
        assert "misaligned" in err
        assert "t2" in err and "t9" in err

    def test_negative_seed_exits_2_with_one_line(self, tmp_path, capsys):
        scores = {"t1": 1.0, "t2": 0.0}
        a = fake_results(tmp_path / "a.json", "m-a", scores)
        b = fake_results(tmp_path / "b.json", "m-b", scores)
        code, stdout, err = run_cli(["eval", a, b, "--b-samples", "100", "--seed", "-1"], capsys)
        assert code == 2
        assert err == "config error: --seed must be non-negative, got -1\n"
        assert stdout == ""

    def test_results_without_outcomes_exit_2(self, tmp_path, capsys):
        a = fake_results(tmp_path / "a.json", "m-a", {})
        b = fake_results(tmp_path / "b.json", "m-b", {})
        code, _, err = run_cli(["eval", a, b, "--b-samples", "100"], capsys)
        assert code == 2
        assert err.startswith("config error:") and err.count("\n") == 1
        assert a in err

    def test_out_csv_quotes_a_method_name_with_a_comma(self, tmp_path, capsys):
        scores = {"t1": 1.0, "t2": 0.0}
        a = fake_results(tmp_path / "a.json", "beam, oracle", scores)
        b = fake_results(tmp_path / "b.json", 'say "greedy"', scores)
        out_csv = tmp_path / "eval.csv"
        code, _, err = run_cli(["eval", a, b, "--b-samples", "100", "--out", str(out_csv)], capsys)
        assert code == 0, err
        with out_csv.open(encoding="utf-8", newline="") as handle:
            (row,) = csv.DictReader(handle)
        assert (row["method_a"], row["method_b"]) == ("beam, oracle", 'say "greedy"')
        assert (row["tasks"], row["no_difference"]) == ("2", "1")

    def test_plain_out_csv_bytes(self, tmp_path, capsys):
        a = fake_results(tmp_path / "a.json", "m-a", {"t1": 1.0, "t2": 1.0})
        b = fake_results(tmp_path / "b.json", "m-b", {"t1": 0.0, "t2": 1.0})
        out_csv = tmp_path / "eval.csv"
        argv = ["eval", a, b, "--b-samples", "100", "--seed", "3", "--out", str(out_csv)]
        assert run_cli(argv, capsys)[0] == 0
        header, row = out_csv.read_bytes().decode("utf-8").split("\n")[:2]
        assert header == (
            "metric,method_a,method_b,tasks,delta,p_a_gt_b,p_b_gt_a,b_samples,seed,no_difference"
        )
        assert re.fullmatch(r"score,m-a,m-b,2,0\.500000,\d\.\d{6},\d\.\d{6},100,3,0", row)
        assert out_csv.read_bytes().endswith(b",0\n") and b"\r" not in out_csv.read_bytes()

    def test_out_csv_bytes_at_100k_resamples_are_pinned(self, tmp_path, capsys):
        # Written by the two-call, one-thread bootstrap; one shared draw on
        # threads must keep every byte.
        a = fake_results(
            tmp_path / "a.json", "m-a", {f"t{i:02d}": ((i * 37) % 101) / 101 for i in range(60)}
        )
        b = fake_results(
            tmp_path / "b.json", "m-b", {f"t{i:02d}": ((i * 53 + 17) % 89) / 89 for i in range(60)}
        )
        out_csv = tmp_path / "eval.csv"
        argv = ["eval", a, b, "--b-samples", "100000", "--seed", "3", "--out", str(out_csv)]
        assert run_cli(argv, capsys)[0] == 0
        assert out_csv.read_bytes() == (
            b"metric,method_a,method_b,tasks,delta,p_a_gt_b,p_b_gt_a,b_samples,seed,no_difference\n"
            b"score,m-a,m-b,60,-0.018163,0.629290,0.372080,100000,3,0\n"
        )

    def test_success_metric(self, tmp_path, capsys):
        a = fake_results(tmp_path / "a.json", "m-a", {"t1": 1.0, "t2": 1.0})
        b = fake_results(tmp_path / "b.json", "m-b", {"t1": 0.0, "t2": 0.0})
        code, stdout, _ = run_cli(
            ["eval", a, b, "--metric", "success", "--b-samples", "500"], capsys
        )
        assert code == 0
        assert "metric: success" in stdout


@pytest.mark.parametrize("command", ["report", "eval"])
@pytest.mark.parametrize("ledger", [[], {"per_task": []}], ids=["list", "per-task-list"])
def test_malformed_ledger_in_results_exits_2(tmp_path, capsys, command, ledger):
    bad = tmp_path / "bad.json"
    good = fake_results(tmp_path / "good.json", "m", {"t1": 1.0})
    payload = json.loads(Path(good).read_text(encoding="utf-8"))
    bad.write_text(json.dumps({**payload, "ledger": ledger}), encoding="utf-8")
    if command == "report":
        argv = ["report", str(bad), "--out", str(tmp_path / "out")]
    else:
        argv = ["eval", good, str(bad), "--b-samples", "10"]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith(f"config error: results file {bad} is malformed:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["report", "eval"])
@pytest.mark.parametrize(
    "change,field",
    [
        ({"task_id": 7}, "'task_id'"),
        ({"score": "hi"}, "'score'"),
        ({"score": float("nan")}, "'score'"),
        ({"score": 10**400}, "'score'"),
        ({"score": True}, "'score'"),
        ({"success": "no"}, "'success'"),
        ({"attempts": []}, "'attempts'"),
        ({"attempts": ["x"]}, "'attempts'"),
    ],
    ids=[
        "task_id-int", "score-text", "score-nan", "score-huge", "score-bool",
        "success-text", "attempts-empty", "attempts-text",
    ],
)
def test_outcome_field_of_the_wrong_type_exits_2(tmp_path, capsys, command, change, field):
    good = fake_results(tmp_path / "good.json", "m", {"t1": 1.0, "t2": 0.0})
    payload = json.loads(Path(good).read_text(encoding="utf-8"))
    payload["outcomes"][1].update(change)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    if command == "report":
        argv = ["report", good, str(bad), "--out", str(tmp_path / "out")]
    else:
        argv = ["eval", good, str(bad), "--b-samples", "10"]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith(f"config error: results file {bad} is malformed: outcome 1: {field}")
    assert err.count("\n") == 1


def results_with_a_repeated_id(tmp_path: Path) -> tuple[str, Path]:
    """A 50-task results file, and a copy whose first outcome comes again
    as a failure at the end."""
    good = fake_results(tmp_path / "good.json", "m", {f"t{i:02d}": 1.0 for i in range(50)})
    payload = json.loads(Path(good).read_text(encoding="utf-8"))
    failure = {"score": 0.0, "success": False, "attempts": [False]}
    payload["outcomes"].append({**payload["outcomes"][0], **failure})
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    return good, bad


@pytest.mark.parametrize("command", ["report", "eval"])
@pytest.mark.parametrize(
    "success,attempts,fault",
    [
        (False, [False, True], "'success' is false, but an attempt succeeded"),
        (True, [False], "'success' is true, but no attempt succeeded"),
    ],
)
def test_a_success_that_is_not_any_attempt_exits_2(
    tmp_path, capsys, command, success, attempts, fault
):
    # eval reads 'success' and report's pass@k reads 'attempts', so the two
    # must agree for one file to give one answer.
    good = fake_results(tmp_path / "good.json", "m", {"t0": 1.0, "t1": 0.0})
    payload = json.loads(Path(good).read_text(encoding="utf-8"))
    payload["outcomes"][1].update(success=success, attempts=attempts)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    if command == "report":
        argv = ["report", str(bad), "--out", str(tmp_path / "out")]
    else:
        argv = ["eval", good, str(bad), "--b-samples", "10"]
    code, stdout, err = run_cli(argv, capsys)
    assert (code, stdout) == (2, "")
    assert err == f"config error: results file {bad} is malformed: outcome 1: {fault}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["report", "eval"])
def test_repeated_task_id_exits_2(tmp_path, capsys, command):
    good, bad = results_with_a_repeated_id(tmp_path)
    if command == "report":
        argv = ["report", str(bad), "--out", str(tmp_path / "out")]
    else:
        argv = ["eval", good, str(bad), "--b-samples", "10"]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err == (
        f"config error: results file {bad} is malformed: "
        "outcome 50: 'task_id' 't00' repeats outcome 0\n"
    )


@pytest.mark.parametrize("reader", ["results", "pricing", "environment fixture"])
def test_a_document_that_is_a_long_list_is_named_not_shown(tmp_path, capsys, reader):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([{"task_id": f"t{i}", "score": 1.0} for i in range(300)]))
    out = str(tmp_path / "out")
    argv = {
        "results": ["report", str(bad), "--out", out],
        "pricing": ["report", fake_results(tmp_path / "a.json", "m", {"t1": 1.0}),
                    "--pricing", str(bad), "--out", out],
        "environment fixture": ["search", f"--environment=scripted:{bad}",
                                "--tasks", webshop_tasks(tmp_path / "tasks.json"), "--out", out],
    }[reader]
    code, _, err = run_cli(argv, capsys)
    assert (code, err) == (2, f"config error: {reader} file {bad} must be a JSON object\n")
    assert not (tmp_path / "out").exists()


def test_a_tasks_section_that_is_a_large_object_is_named_not_shown(tmp_path, capsys):
    tasks = tmp_path / "tasks.json"
    entries = {f"t{i}": {"id": f"t{i}", "instruction": "1 2 3 4"} for i in range(300)}
    tasks.write_text(json.dumps({"tasks": entries}), encoding="utf-8")
    argv = ["search", "--tasks", str(tasks), "--out", str(tmp_path / "out")]
    code, _, err = run_cli(argv, capsys)
    assert (code, err) == (
        2, f"config error: tasks file {tasks}: 'tasks' must be a non-empty list, got an object\n"
    )


def test_benchmark_child_refuses_a_repeated_task_id(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import child

    good, bad = results_with_a_repeated_id(tmp_path)
    with pytest.raises(ConfigError, match="outcome 50: 'task_id' 't00' repeats outcome 0"):
        child._build(cli, ["eval", good, str(bad)])


@pytest.mark.parametrize("command", ["report", "eval"])
@pytest.mark.parametrize(
    "ledger,problem",
    [
        ({"per_task": {"t1": 5}}, "ledger task 't1' must be a JSON object"),
        (
            {"per_task": {"t1": {"tokens": []}}},
            "ledger task 't1': 'tokens' must be a JSON object",
        ),
        (
            {"per_task": {"t1": {"tokens": {"gpt-4o": {"prompt": 1, "completion": 1}}}}},
            "ledger task 't1': token key 'gpt-4o' is not '<role>|<model>'",
        ),
        (
            {"per_task": {"t1": {"tokens": {"value|gpt-4o": 3}}}},
            "ledger task 't1': 'value|gpt-4o' must be a JSON object",
        ),
        (
            {"per_task": {"t1": {"tokens": {"value|gpt-4o": {"prompt": 1.5, "completion": 1}}}}},
            "ledger task 't1': 'value|gpt-4o': 'prompt' must be an int of at least 0, got 1.5",
        ),
        (
            {"per_task": {"t1": {"tokens": {"value|gpt-4o": {"prompt": 1, "completion": True}}}}},
            "ledger task 't1': 'value|gpt-4o': 'completion' must be an int of at least 0, "
            "got True",
        ),
        (
            {"per_task": {"t1": {"tokens": {"value|gpt-4o": {"prompt": -1, "completion": 1}}}}},
            "ledger task 't1': 'value|gpt-4o': 'prompt' must be an int of at least 0, got -1",
        ),
        (
            {"per_task": {"t1": {"tokens": {"value|gpt-4o": {"prompt": 1}}}}},
            "ledger task 't1': 'value|gpt-4o': 'completion' must be an int of at least 0, "
            "got None",
        ),
        (
            {"per_task": {"t1": {"states_expanded": 2.5}}},
            "ledger task 't1': 'states_expanded' must be an int of at least 0, got 2.5",
        ),
        (
            {"per_task": {"t1": {"states_expanded": True}}},
            "ledger task 't1': 'states_expanded' must be an int of at least 0, got True",
        ),
    ],
    ids=[
        "entry-int", "tokens-list", "key-without-bar", "counts-int", "prompt-float",
        "completion-bool", "prompt-negative", "completion-missing", "states-float", "states-bool",
    ],
)
def test_ledger_count_of_the_wrong_type_exits_2(tmp_path, capsys, command, ledger, problem):
    good = fake_results(tmp_path / "good.json", "m", {"t1": 1.0})
    payload = json.loads(Path(good).read_text(encoding="utf-8"))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**payload, "ledger": ledger}), encoding="utf-8")
    if command == "report":
        argv = ["report", str(bad), "--out", str(tmp_path / "out")]
    else:
        argv = ["eval", good, str(bad), "--b-samples", "10"]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err == f"config error: results file {bad} is malformed: {problem}\n"


@pytest.mark.parametrize("ledger", [{}, None], ids=["empty", "missing"])
def test_empty_or_missing_ledger_reads_as_no_usage(tmp_path, capsys, ledger):
    good = fake_results(tmp_path / "good.json", "m", {"t1": 1.0})
    payload = json.loads(Path(good).read_text(encoding="utf-8"))
    payload.pop("ledger")
    if ledger is not None:
        payload["ledger"] = ledger
    results = tmp_path / "results.json"
    results.write_text(json.dumps(payload), encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli(["report", str(results), "--out", str(out)], capsys)[0] == 0
    header, values = (out / "summary.csv").read_text().splitlines()
    row = dict(zip(header.split(","), values.split(",")))
    assert (row["prompt_tokens"], row["states_expanded"], row["cost_usd"]) == ("0", "0", "0.000000")


def test_non_string_method_exits_2(tmp_path, capsys):
    good = fake_results(tmp_path / "good.json", "m", {"t1": 1.0})
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({**json.loads(Path(good).read_text(encoding="utf-8")), "method": 5}),
        encoding="utf-8",
    )
    code, _, err = run_cli(["report", good, str(bad), "--out", str(tmp_path / "out")], capsys)
    assert code == 2
    assert err == (
        f"config error: results file {bad} is malformed: 'method' must be a string, got 5\n"
    )


@pytest.mark.parametrize("command", ["report", "eval"])
@pytest.mark.parametrize(
    "edit,problem",
    [
        ({"outcomes": {}}, "'outcomes' must be a list, got {}"),
        (
            {"ledger": {"tokens": {"value|gpt-4o": {"completion": 0, "prompt": 999999}}}},
            'ledger \'tokens\' is {"value|gpt-4o": {"completion": 0, "prompt": 999999}}, '
            "not the per-task sum {}",
        ),
        (
            {"ledger": {"states_expanded": True, "per_task": {"t1": {"states_expanded": 1}}}},
            "ledger 'states_expanded' is true, not the per-task sum 1",
        ),
    ],
    ids=["outcomes-object", "tokens-over-per-task", "states-bool-for-int"],
)
def test_results_that_contradict_themselves_exit_2(tmp_path, capsys, command, edit, problem):
    good = fake_results(tmp_path / "good.json", "m", {"t1": 1.0})
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({**json.loads(Path(good).read_text(encoding="utf-8")), **edit}),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    if command == "report":
        argv = ["report", str(bad), "--out", str(out)]
    else:
        argv = ["eval", good, str(bad), "--b-samples", "10", "--out", str(out / "eval.csv")]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err == f"config error: results file {bad} is malformed: {problem}\n"
    assert not out.exists()


class TestReportCommand:
    def test_multi_result_summary_sorted(self, tmp_path, capsys):
        a = fake_results(tmp_path / "a.json", "zeta", {"t1": 1.0})
        b = fake_results(tmp_path / "b.json", "alpha", {"t1": 0.0})
        out = tmp_path / "report"
        code, stdout, _ = run_cli(
            ["report", a, b, "--out", str(out)], capsys
        )
        assert code == 0
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[1].startswith("alpha,")
        assert lines[2].startswith("zeta,")
        assert "summary.csv" in stdout

    def test_k_clamped_to_shortest_attempts(self, tmp_path, capsys):
        a = fake_results(tmp_path / "a.json", "m", {"t1": 1.0})
        out = tmp_path / "report"
        code, _, _ = run_cli(["report", a, "--k", "3", "--out", str(out)], capsys)
        assert code == 0
        lines = (out / "summary.csv").read_text().splitlines()
        header = lines[0].split(",")
        row = lines[1].split(",")
        assert row[header.index("k")] == "1"


class TestPricingFile:
    @pytest.mark.parametrize("command", ["report", "search", "stl"])
    @pytest.mark.parametrize(
        "content",
        [[], {"gpt-4o": {"prompt_per_1k": "abc", "completion_per_1k": 0.01}}],
        ids=["not-an-object", "non-numeric-rate"],
    )
    def test_bad_pricing_file_exits_2(self, tmp_path, capsys, command, content):
        pricing = tmp_path / "pricing.json"
        pricing.write_text(json.dumps(content), encoding="utf-8")
        out = str(tmp_path / "out")
        if command == "report":
            argv = ["report", fake_results(tmp_path / "a.json", "m", {"t1": 1.0}), "--out", out]
        else:
            argv = [command, "--tasks", game24_tasks(tmp_path / "tasks.json", n=1), "--out", out]
        code, _, err = run_cli([*argv, "--pricing", str(pricing)], capsys)
        assert code == 2
        assert err.startswith("config error:") and err.count("\n") == 1
        assert str(pricing) in err


    def gpt4o_results(self, tmp_path):
        """A results file that bills 1,000 prompt and 1,000 completion gpt-4o tokens."""
        path = fake_results(tmp_path / "a.json", "m", {"t1": 1.0})
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        counts = {"prompt": 1000, "completion": 1000}
        payload["ledger"] = {"per_task": {"t1": {"tokens": {"value|gpt-4o": counts}}}}
        Path(path).write_text(json.dumps(payload), encoding="utf-8")
        return path

    @pytest.mark.parametrize(
        "entry,problem",
        [
            ("5", "its entry must be a JSON object"),
            (
                '{"prompt_per_1k": "NaN", "completion_per_1k": 0.01}',
                "'prompt_per_1k' must be a finite number of at least 0, got 'NaN'",
            ),
            (
                '{"prompt_per_1k": 0.0025, "completion_per_1k": 1e999}',
                "'completion_per_1k' must be a finite number of at least 0, got inf",
            ),
            (
                '{"prompt_per_1k": -1, "completion_per_1k": 0.01}',
                "'prompt_per_1k' must be a finite number of at least 0, got -1",
            ),
            (
                '{"prompt_per_1k": "-0.5", "completion_per_1k": 0.01}',
                "'prompt_per_1k' must be a finite number of at least 0, got '-0.5'",
            ),
            (
                '{"prompt_per_1k": true, "completion_per_1k": 0.01}',
                "'prompt_per_1k' must be a finite number of at least 0, got True",
            ),
            (
                '{"prompt_per_1k": 0.0025}',
                "'completion_per_1k' must be a finite number of at least 0, got None",
            ),
            (
                '{"prompt_per_1k": 0.0025, "completion_per_1k": 0.01, "open_source": "no"}',
                "'open_source' must be a bool, got 'no'",
            ),
        ],
        ids=[
            "entry-int", "rate-nan-text", "rate-overflow", "rate-negative", "rate-negative-text",
            "rate-bool", "rate-missing", "open-source-text",
        ],
    )
    def test_malformed_model_entry_exits_2(self, tmp_path, capsys, entry, problem):
        pricing = tmp_path / "pricing.json"
        pricing.write_text('{"gpt-4o": ' + entry + "}", encoding="utf-8")
        argv = ["report", self.gpt4o_results(tmp_path), "--out", str(tmp_path / "out")]
        code, _, err = run_cli([*argv, "--pricing", str(pricing)], capsys)
        assert code == 2
        assert err == f"config error: pricing file {pricing}: model 'gpt-4o': {problem}\n"

    @pytest.mark.parametrize("flag", ["--policy", "--value"])
    def test_search_prices_its_remote_models_before_it_writes(self, tmp_path, capsys, flag):
        # Nothing listens on port 9: a run that got as far as the transport
        # would exit 3 after its retries.
        out = tmp_path / "out"
        argv = ["search", "--engine", "beam", flag, "remote:my-local-model",
                "--base-url", "http://127.0.0.1:9/v1",
                "--tasks", game24_tasks(tmp_path / "tasks.json", n=1), "--out", str(out)]
        code, _, err = run_cli(argv, capsys)
        assert (code, err) == (2, "config error: no pricing known for model 'my-local-model'\n")
        assert not out.exists()

    def test_report_on_an_unpriced_model_writes_nothing(self, tmp_path, capsys):
        pricing = tmp_path / "pricing.json"
        pricing.write_text('{"m": {"prompt_per_1k": 0, "completion_per_1k": 0}}', encoding="utf-8")
        out = tmp_path / "out"
        argv = ["report", self.gpt4o_results(tmp_path), "--pricing", str(pricing), "--out", str(out)]
        code, _, err = run_cli(argv, capsys)
        assert (code, err) == (2, "config error: no pricing known for model 'gpt-4o'\n")
        assert not out.exists()


class TestPromptTemplates:
    def test_every_template_belongs_to_a_shipped_environment_and_role(self):
        environments = {Game24Env.name, ScriptedEnvironment.name}
        for template in resources.files("lookahead").joinpath("prompts").iterdir():
            env, _, role = template.name.removesuffix(".txt").partition("__")
            assert template.name.endswith(".txt"), template.name
            assert env in environments and role in ("policy", "value"), template.name

    def test_remote_value_on_scripted_environment_exits_2(self, tmp_path, capsys):
        tasks = webshop_tasks(tmp_path / "tasks.json")
        argv = ["search", "--environment", WEBSHOP_ENV, "--value", "remote:m"]
        code, _, err = run_cli([*argv, "--tasks", tasks, "--out", str(tmp_path / "o")], capsys)
        assert code == 2
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "scripted__value.txt" in err


@pytest.fixture
def backoff_delays(monkeypatch):
    """Build the CLI's transport with a sleep that records and returns at once,
    and a jitter source fixed at 0.5, which leaves each backoff step as it is.

    Yields the delays each thread asked for, in order, keyed by thread id.
    """
    delays: dict[int, list[float]] = defaultdict(list)

    def record(seconds: float) -> None:
        delays[threading.get_ident()].append(seconds)

    def transport(config):
        return HttpTransport(
            base_url=config.base_url,
            api_key_env=config.api_key_env,
            sleep=record,
            random=lambda: 0.5,
        )

    monkeypatch.setattr(cli, "_transport", transport)
    return delays


def assert_exponential_backoff(delays: dict[int, list[float]]) -> None:
    """Each failed send waited 0.5 s, then 1 s: the default three attempts."""
    schedule = [0.5, 1.0]
    assert delays
    for waits in delays.values():
        assert waits == schedule * (len(waits) // len(schedule))


class TestExitCodes:
    def test_transport_failure_exits_3(self, tmp_path, capsys, backoff_delays):
        tasks = game24_tasks(tmp_path / "tasks.json", n=1)
        code, _, err = run_cli(
            [
                "search",
                "--environment",
                "game24",
                "--policy",
                "remote:gpt-4o",
                "--value",
                "oracle",
                "--base-url",
                "http://127.0.0.1:9",
                "--tasks",
                tasks,
                "--out",
                str(tmp_path / "out"),
            ],
            capsys,
        )
        assert code == 3
        assert "transport error" in err
        assert_exponential_backoff(backoff_delays)

    def test_a_malformed_provider_reply_exits_3(self, tmp_path, capsys, monkeypatch):
        class Reply:
            status_code = 200
            headers: dict = {}

            def raise_for_status(self):
                pass

            def json(self):
                return {"choices": [{"message": {"content": None}}]}

        def transport(config):
            return HttpTransport(config.base_url, post=lambda *a, **k: Reply(), sleep=lambda s: None)

        monkeypatch.setattr(cli, "_transport", transport)
        tasks = game24_tasks(tmp_path / "tasks.json", n=1)
        argv = ["search", "--value", "remote:gpt-3.5-turbo", "--engine", "beam",
                "--tasks", tasks, "--out", str(tmp_path / "out")]
        code, _, err = run_cli(argv, capsys)
        assert (code, err) == (3, (
            "transport error: chat completion failed after 3 attempts: "
            "reply choice 0: 'content' must be a string, got None\n"
        ))

    def test_remote_value_transport_failure_exits_3(self, tmp_path, capsys, backoff_delays):
        # Every child of the root expansion fails at once on its own thread;
        # the run still ends with exit 3 and a single message line.
        tasks = game24_tasks(tmp_path / "tasks.json", n=1)
        code, _, err = run_cli(
            [
                "search",
                "--environment",
                "game24",
                "--engine",
                "beam",
                "--value",
                "remote:gpt-4o",
                "--base-url",
                "http://127.0.0.1:9",
                "--tasks",
                tasks,
                "--out",
                str(tmp_path / "out"),
            ],
            capsys,
        )
        assert code == 3
        assert err.startswith("transport error:")
        assert len(err.strip().splitlines()) == 1
        assert_exponential_backoff(backoff_delays)

    def test_transport_failure_after_a_finished_task_keeps_its_ledger(
        self, tmp_path, capsys, monkeypatch
    ):
        tasks = game24_tasks(tmp_path / "tasks.json", n=2)
        first, second = json.loads(Path(tasks).read_text(encoding="utf-8"))["tasks"]

        def reply(prompt, draw):
            if second["instruction"] in prompt:
                raise TransportError("value endpoint gone")
            return "Weighing the numbers.\nlikely"

        transport = PromptKeyedTransport(reply)
        monkeypatch.setattr(cli, "_transport", lambda config: transport)
        out = tmp_path / "out"
        argv = ["search", "--value", "remote:gpt-3.5-turbo", "--tasks", tasks, "--out", str(out)]
        code, _, err = run_cli(argv, capsys)
        assert (code, err) == (3, "transport error: value endpoint gone\n")
        ledger = json.loads((out / "ledger.json").read_text(encoding="utf-8"))
        finished = ledger["per_task"][first["id"]]
        assert finished["states_expanded"] > 0
        assert finished["tokens"]["value|gpt-3.5-turbo"]["prompt"] > 0
        assert not (out / "results.json").exists()

    @pytest.mark.parametrize(
        "error, code, kind",
        [
            (ConfigError("optimizer settings rejected"), 2, "config"),
            (TransportError("training endpoint gone"), 3, "transport"),
            (OSError(28, "No space left on device"), 4, "i/o"),
        ],
        ids=["ConfigError", "TransportError", "OSError"],
    )
    def test_trainer_failure_exits_with_its_own_code_and_keeps_the_dataset(
        self, tmp_path, capsys, monkeypatch, error, code, kind
    ):
        class FailingTrainer(stl.Trainer):
            def fine_tune(self, base_model, dataset):
                raise error

        monkeypatch.setattr(cli, "TabularTrainer", FailingTrainer)
        tasks = webshop_tasks(tmp_path / "tasks.json", n=1)
        out = tmp_path / "out"
        argv = ["stl", "--environment", WEBSHOP_ENV, "--value", WEBSHOP_VALUES]
        argv += ["--stl-engine", "greedy", "--tasks", tasks, "--out", str(out)]
        exit_code, _, err = run_cli(argv, capsys)
        assert exit_code == code
        assert err.splitlines() == [f"{kind} error: {error}"]
        assert (out / "stl" / "dataset_iter01.jsonl").exists()
        ledger = json.loads((out / "ledger.json").read_text(encoding="utf-8"))
        assert ledger["states_expanded"] > 0

    def test_a_failed_ledger_write_keeps_the_runs_own_error(self, tmp_path, capsys, monkeypatch):
        class FailingTrainer(stl.Trainer):
            def fine_tune(self, base_model, dataset):
                raise ConfigError("optimizer settings rejected")

        def write_json(path, data):
            if Path(path).name == "ledger.json":
                raise OSError(28, "No space left on device")
            real_write_json(path, data)

        real_write_json = cli.write_json
        monkeypatch.setattr(cli, "TabularTrainer", FailingTrainer)
        monkeypatch.setattr(cli, "write_json", write_json)
        tasks = webshop_tasks(tmp_path / "tasks.json", n=1)
        out = tmp_path / "out"
        argv = ["stl", "--environment", WEBSHOP_ENV, "--value", WEBSHOP_VALUES]
        argv += ["--stl-engine", "greedy", "--tasks", tasks, "--out", str(out)]
        exit_code, _, err = run_cli(argv, capsys)
        assert (exit_code, err) == (2, "config error: optimizer settings rejected\n")
        assert not (out / "ledger.json").exists()

    def test_unwritable_out_path_exits_4(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory", encoding="utf-8")
        a = fake_results(tmp_path / "a.json", "m", {"t1": 1.0})
        b = fake_results(tmp_path / "b.json", "m2", {"t1": 1.0})
        code, _, err = run_cli(
            [
                "eval",
                a,
                b,
                "--b-samples",
                "10",
                "--out",
                str(blocker / "deeper" / "eval.csv"),
            ],
            capsys,
        )
        assert code == 4
        assert "i/o error" in err
