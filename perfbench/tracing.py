"""Outside-in tracing: span wrappers around the package's public functions.

:func:`install` replaces every binding of each traced function - module
attributes, re-exports, and module-level dispatch dicts such as
``cli._ENGINE_FNS`` and ``stl._ENGINES`` - then scans the package again and
fails if any binding of an original survives, so a call site cannot silently
escape the trace.  Spans (name, start, end, parent, task id) are kept in
memory and written out once, after the traced run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from types import FunctionType, ModuleType

# Span name -> (module, attribute) for module-level functions.
FUNCTIONS = {
    "cli": ("lookahead.cli", "main"),
    "envs.oracle": ("lookahead.envs.game24", "solve_verdict"),
    "core.state_key": ("lookahead.core", "state_key"),
    "core.render_context": ("lookahead.core", "render_context"),
    "rationales.format": ("lookahead.agents.rationales", "format_lookahead_block"),
    "rationales.parse": ("lookahead.agents.rationales", "parse_simulated_lookahead"),
    "scales.parse_value": ("lookahead.agents.scales", "parse_value"),
    "search.beam": ("lookahead.search", "beam_search"),
    "search.mcts": ("lookahead.search", "mcts_search"),
    "search.dump_tree": ("lookahead.search", "dump_tree"),
    "stl.collect_candidates": ("lookahead.stl", "collect_candidates"),
    "stl.filter_examples": ("lookahead.stl", "filter_examples"),
    "stl.make_training_example": ("lookahead.stl", "make_training_example"),
    "stl.dedup_latest": ("lookahead.stl", "dedup_latest"),
    "stl.export_jsonl": ("lookahead.stl", "export_jsonl"),
    "evaluation.paired_bootstrap": ("lookahead.evaluation", "paired_bootstrap"),
    "evaluation.emit_report": ("lookahead.evaluation", "emit_report"),
    "transport.attempt": ("requests", "post"),
}

# Span name -> (module, class, method); classmethods are unwrapped and rewrapped.
METHODS = {
    "envs.transition": ("lookahead.envs.game24", "Game24Env", "transition"),
    "envs.is_terminal": ("lookahead.envs.game24", "Game24Env", "is_terminal"),
    "envs.enumerable_actions": ("lookahead.envs.game24", "Game24Env", "enumerable_actions"),
    "policies.propose": ("lookahead.agents.policies", "ExhaustivePolicy", "propose"),
    "values.oracle.evaluate": ("lookahead.agents.values", "OracleValueModel", "evaluate"),
    "values.remote.evaluate": ("lookahead.agents.values", "RemoteValueModel", "evaluate"),
    "values.tabular.evaluate": ("lookahead.stl", "TabularValueModel", "evaluate"),
    "transport.send": ("lookahead.agents.transport", "HttpTransport", "send"),
    "stl.fine_tune": ("lookahead.stl", "TabularTrainer", "fine_tune"),
    "evaluation.ledger_add_states": ("lookahead.evaluation", "Ledger", "add_states"),
    "core.trajectory_from_state": ("lookahead.core", "Trajectory", "from_state"),
}


class TraceError(Exception):
    """The wrappers could not be installed without missing a binding."""


class Recorder:
    """Collects spans from every wrapped call; one span stack per thread."""

    def __init__(self, task_type: type) -> None:
        self.spans: list[list] = []
        self._task_type = task_type
        self._local = threading.local()

    def wrap(self, name: str, fn):
        spans = self.spans
        local = self._local
        task_type = self._task_type
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            task = None
            for arg in args[:3]:
                if type(arg) is task_type:
                    task = arg.id
                    break
            else:
                if parent is not None:
                    task = parent[4]
            span = [name, clock(), 0.0, parent, task]
            spans.append(span)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def dump(self, path: Path) -> None:
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [
            [name, start, end, -1 if parent is None else index[id(parent)], task]
            for name, start, end, parent, task in self.spans
        ]
        path.write_text(json.dumps(rows), encoding="utf-8")


def _package_modules() -> list[ModuleType]:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "lookahead" or name.startswith("lookahead."))
    ]


def _rebind(originals: dict[int, object], replacements: dict[int, object]) -> None:
    """Point every module attribute and module-level dict entry at the wrapper."""
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            if id(value) in replacements and value is originals[id(value)]:
                setattr(module, attr, replacements[id(value)])
            elif isinstance(value, dict):
                for key, entry in list(value.items()):
                    if id(entry) in replacements and entry is originals[id(entry)]:
                        value[key] = replacements[id(entry)]


def _leftovers(originals: dict[int, object]) -> list[str]:
    """Every binding in the package that still reaches an unwrapped original."""
    found = []

    def check(where: str, value: object) -> None:
        if id(value) in originals and value is originals[id(value)]:
            found.append(where)

    def check_defaults(where: str, fn: object) -> None:
        if isinstance(fn, FunctionType):
            for default in (fn.__defaults__ or ()) + tuple((fn.__kwdefaults__ or {}).values()):
                check(f"{where} default", default)

    for module in _package_modules():
        for attr, value in vars(module).items():
            where = f"{module.__name__}.{attr}"
            check(where, value)
            if isinstance(value, dict):
                for key, entry in value.items():
                    check(f"{where}[{key!r}]", entry)
            elif isinstance(value, (list, tuple)):
                for i, entry in enumerate(value):
                    check(f"{where}[{i}]", entry)
            elif isinstance(value, type):
                for name, member in vars(value).items():
                    member = getattr(member, "__func__", member)
                    check(f"{where}.{name}", member)
                    check_defaults(f"{where}.{name}", member)
            check_defaults(where, value)
    return found


def install(recorder: Recorder) -> None:
    """Wrap every traced function and method; raise if a binding is missed."""
    originals: dict[int, object] = {}
    replacements: dict[int, object] = {}
    for name, (module_name, attr) in FUNCTIONS.items():
        module = sys.modules[module_name]
        original = getattr(module, attr)
        wrapper = recorder.wrap(name, original)
        setattr(module, attr, wrapper)
        originals[id(original)] = original
        replacements[id(original)] = wrapper
    for name, (module_name, class_name, attr) in METHODS.items():
        cls = getattr(sys.modules[module_name], class_name)
        member = vars(cls)[attr]
        if isinstance(member, classmethod):
            original = member.__func__
            setattr(cls, attr, classmethod(recorder.wrap(name, original)))
        else:
            original = member
            setattr(cls, attr, recorder.wrap(name, original))
        originals[id(original)] = original
    _rebind(originals, replacements)
    missed = _leftovers(originals)
    if missed:
        raise TraceError("unwrapped bindings remain: " + ", ".join(missed))


def layer_metrics(rows: list[list]) -> dict[str, float]:
    """Per-name ``.calls`` and ``.self_s`` plus derived ratios from span rows.

    Self time is a span's duration minus the time its child spans cover;
    children of one span never overlap because each thread keeps one stack.
    """
    child_time = [0.0] * len(rows)
    for name, start, end, parent, _task in rows:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    sends: list[float] = []
    delegated = 0
    for i, (name, start, end, parent, _task) in enumerate(rows):
        calls[name] += 1
        self_s[name] += (end - start) - child_time[i]
        if name == "transport.send":
            sends.append(end - start)
        if parent >= 0 and rows[parent][0] == "values.tabular.evaluate" and name.startswith("values."):
            delegated += 1
    out: dict[str, float] = {}
    for name in list(FUNCTIONS) + list(METHODS):
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    tabular = calls.get("values.tabular.evaluate", 0)
    out["values.tabular.hit_ratio"] = (tabular - delegated) / tabular if tabular else 0.0
    if len(sends) >= 2:
        cuts = statistics.quantiles(sends, n=100, method="inclusive")
        out["transport.send.p50_ms"] = cuts[49] * 1e3
        out["transport.send.p99_ms"] = cuts[98] * 1e3
    else:
        out["transport.send.p50_ms"] = out["transport.send.p99_ms"] = sum(sends) * 1e3
    out["transport.send.total_s"] = sum(sends)
    return out
