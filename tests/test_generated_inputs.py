"""Every input reader, given a valid file with one value swapped for a drawn
one, ends ``cli.main`` with exit 0, or with exit 2, one stderr line and
nothing written: never a traceback, another exit code or a second line."""

import contextlib
import copy
import io
import json
import os
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lookahead.cli import ExperimentConfig, main
from lookahead.evaluation import DEFAULT_PRICING, Ledger
from lookahead.search import SearchConfig

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def _fixture(name: str):
    return json.loads((FIXTURES / name).read_text(encoding="utf-8"))


def _results() -> dict:
    ledger = Ledger()
    ledger.add_tokens("value", "gpt-4o", 120, 30, "t1")
    ledger.add_tokens("policy", "llama-3.1-8b-instruct", 50, 5, "t2")
    ledger.add_states(7, "t1")
    outcomes = [
        {"task_id": "t1", "score": 1.0, "success": True, "attempts": [False, True]},
        {"task_id": "t2", "score": None, "success": False, "attempts": [False, False]},
    ]
    return {"method": "m", "outcomes": outcomes, "ledger": ledger.to_dict()}


GAME24_TASKS = {"tasks": _fixture("game24_test_50.json")["tasks"][:2]}
WEBSHOP_TASKS = {"tasks": [{"id": f"w{i}", "instruction": f"buy the gray sofa, request {i}"}
                           for i in (1, 2)]}
# One greedy game24 search at depth 3 over the tasks file; "out" stays
# inside the example's working directory.
SEARCH_CONFIG = ExperimentConfig(
    tasks="tasks.json", out="out", search=replace(SearchConfig(), branching=2, max_depth=3)
).to_dict()
PRICING = {
    model: {"prompt_per_1k": str(p.prompt_per_1k), "completion_per_1k": str(p.completion_per_1k),
            "open_source": p.open_source}
    for model, p in DEFAULT_PRICING.items()
}
SEARCH = ["search", "--engine", "greedy", "--max-depth", "3", "--branching", "2", "--out", "out"]
SCRIPTED = [*SEARCH, "--environment", "scripted:env.json", "--value", "scripted:values.json",
            "--tasks", "webshop.json"]
DATASET = [*SEARCH, "--value", "stl-dataset:ds.jsonl", "--tasks", "tasks.json"]

# reader -> (the file the swap lands in, the command that reads it)
READERS = {
    "config": ("config.json", ["search", "--config", "config.json"]),
    "tasks": ("tasks.json", [*SEARCH, "--tasks", "tasks.json"]),
    "environment-fixture": ("env.json", SCRIPTED),
    "value-fixture": ("values.json", SCRIPTED),
    "pricing": ("pricing.json", ["report", "results.json", "--pricing", "pricing.json",
                                 "--out", "out"]),
    "results": ("results.json", ["report", "results.json", "--k", "2", "--out", "out"]),
    "dataset": ("ds.jsonl", DATASET),
    "dataset-meta": ("ds.jsonl.meta.json", DATASET),
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory) -> dict[str, object]:
    """Each input file's valid content; the dataset is a list of records,
    written one per line, from a one-iteration game24 ``stl`` run."""
    work = tmp_path_factory.mktemp("stl")
    tasks = work / "tasks.json"
    tasks.write_text(json.dumps(GAME24_TASKS), encoding="utf-8")
    argv = ["stl", "--stl-engine", "greedy", "--tasks-per-iteration", "2",
            "--tasks", str(tasks), "--out", str(work / "model")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    model = work / "model" / "stl" / "final_model.jsonl"
    lines = model.read_text(encoding="utf-8").splitlines()
    return {
        "config.json": SEARCH_CONFIG,
        "tasks.json": GAME24_TASKS,
        "webshop.json": WEBSHOP_TASKS,
        "env.json": _fixture("webshop_demo_env.json"),
        "values.json": _fixture("webshop_demo_values.json"),
        "pricing.json": PRICING,
        "results.json": _results(),
        "ds.jsonl": [json.loads(line) for line in lines[:3]],
        "ds.jsonl.meta.json": json.loads(Path(f"{model}.meta.json").read_text(encoding="utf-8")),
    }


def json_paths(value, prefix=()):
    """Every path into ``value``, the root's ``()`` included."""
    yield prefix
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(
        value, list) else ()
    for key, item in items:
        yield from json_paths(item, (*prefix, key))


_SLOT = "@@swapped@@"


def swap(document, path, raw: str) -> str:
    """``document`` as JSON text with the value at ``path`` replaced by the
    JSON text ``raw``, which may be what ``json.dumps`` cannot write."""
    if not path:
        return raw
    document = copy.deepcopy(document)
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = _SLOT
    return json.dumps(document).replace(json.dumps(_SLOT), raw)


# No "/" in drawn text, so a drawn path (the config's "out" included) stays
# inside the example's working directory, two levels below a fresh one.
# The sampled strings name that directory, or hold a NUL or a line break.
_TEXT = st.text(st.characters(blacklist_characters="/", blacklist_categories=("Cs",)), max_size=8)
RAW_VALUES = st.one_of(
    _TEXT.map(json.dumps),
    st.sampled_from(['""', '"."', '"a\\u0000b"', '"a\\nb"']),
    st.sampled_from(["true", "false", "null", "NaN", "1e999", "9" * 5000]),
    st.lists(st.one_of(st.integers(-3, 3), _TEXT), max_size=2).map(json.dumps),
    st.dictionaries(_TEXT, st.one_of(st.integers(-3, 3), _TEXT), max_size=2).map(json.dumps),
)


def run_swapped(files: dict[str, object], target: str, path, raw: str, argv):
    """Run ``argv`` on ``files`` with the swap made; the exit code, the
    stderr text, and whether the run wrote anything."""
    with tempfile.TemporaryDirectory() as root:
        cwd = Path(root) / "a" / "b"
        cwd.mkdir(parents=True)
        for name, document in files.items():
            if name == target == "ds.jsonl":
                lines = [json.dumps(record) for record in document]
                lines[path[0]] = swap(document[path[0]], path[1:], raw)
                text = "\n".join(lines) + "\n"
            elif name == target:
                text = swap(document, path, raw)
            elif name == "ds.jsonl":
                text = "".join(json.dumps(record) + "\n" for record in document)
            else:
                text = json.dumps(document)
            (cwd / name).write_text(text, encoding="utf-8")
        inputs = set(Path(root).rglob("*"))
        err = io.StringIO()
        previous = os.getcwd()
        os.chdir(cwd)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(previous)
        wrote = set(Path(root).rglob("*")) != inputs
    return code, err.getvalue(), wrote


@pytest.mark.parametrize("reader", sorted(READERS))
@settings(max_examples=25)
@given(data=st.data())
def test_one_swapped_value_exits_0_or_2_with_one_line(valid_files, reader, data):
    target, argv = READERS[reader]
    document = valid_files[target]
    if target == "ds.jsonl":  # a path into one record: the line, then the key
        paths = [p for p in json_paths(document) if p]
    else:
        paths = list(json_paths(document))
    path = data.draw(st.sampled_from(paths), label="path")
    raw = data.draw(RAW_VALUES, label="value")
    code, err, wrote = run_swapped(valid_files, target, path, raw, argv)
    if code == 0:
        assert err == ""
    else:
        assert code == 2, err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert not wrote


@pytest.mark.parametrize(
    "reader, path, raw",
    [
        ("results", ("outcomes",), "{}"),
        ("results", ("ledger", "per_task"), "{}"),
        ("results", ("ledger", "states_expanded"), "true"),
        ("config", ("tasks",), '""'),
        ("config", ("pricing",), '"."'),
        ("config", ("environment",), '"scripted:"'),
        ("config", ("value",), '"stl-dataset:"'),
        ("config", ("out",), '"a\\u0000b"'),
        ("config", ("tasks",), '"a\\nb"'),
    ],
    ids=[
        "outcomes-object", "ledger-totals-without-tasks", "ledger-states-bool",
        "tasks-empty-path", "pricing-directory", "environment-directory", "dataset-directory",
        "out-nul", "tasks-line-break",
    ],
)
def test_swaps_that_must_exit_2(valid_files, reader, path, raw):
    target, argv = READERS[reader]
    code, err, wrote = run_swapped(valid_files, target, path, raw, argv)
    assert code == 2, err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert not wrote
