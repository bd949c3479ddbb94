"""Efficiency accounting and statistical evaluation.

The :class:`Ledger` keeps prompt/completion tokens per (task, role, model) and
environment transitions per task, and sums them for its totals.  :func:`cost`
prices a ledger with exact decimal arithmetic; :func:`paired_bootstrap` is a
seeded, machine-stable paired bootstrap test that returns both directions'
p-values from one draw of resample indices.  The resamples come in fixed
chunks, each from its own counter-derived stream, drawn a block of rows at a
time on one thread per usable CPU (at most eight), so the p-values depend
only on the scores, ``b_samples`` and the seed.  numpy is imported on the
first bootstrap call, not with this module, so commands that never run one do
not load it.  :func:`emit_report` writes deterministic CSV summaries.
"""

from __future__ import annotations

import csv
import io
import json
import os
import threading
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .core import (
    ConfigError, check_bool, check_int, check_list, check_number, check_object, check_str
)

if TYPE_CHECKING:
    import numpy as np


@dataclass
class TokenCount:
    prompt: int = 0
    completion: int = 0

    def add(self, prompt: int, completion: int) -> None:
        self.prompt += prompt
        self.completion += completion


class Ledger:
    """Thread-safe accumulator for token usage and state expansions, kept per task."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.per_task_tokens: dict[str, dict[tuple[str, str], TokenCount]] = {}
        self.per_task_states: dict[str, int] = {}

    def add_tokens(
        self,
        role: str,
        model: str,
        prompt_tokens: int,
        completion_tokens: int,
        task_id: str,
    ) -> None:
        if prompt_tokens < 0 or completion_tokens < 0:
            raise ValueError("token counts must be non-negative")
        with self._lock:
            per_task = self.per_task_tokens.setdefault(task_id, {})
            per_task.setdefault((role, model), TokenCount()).add(prompt_tokens, completion_tokens)

    def add_states(self, count: int, task_id: str) -> None:
        if count < 0:
            raise ValueError("state counts must be non-negative")
        with self._lock:
            self.per_task_states[task_id] = self.per_task_states.get(task_id, 0) + count

    @property
    def tokens(self) -> dict[tuple[str, str], TokenCount]:
        """Token counts per (role, model), summed over tasks."""
        totals: dict[tuple[str, str], TokenCount] = {}
        with self._lock:
            for task_counts in self.per_task_tokens.values():
                for key, count in task_counts.items():
                    totals.setdefault(key, TokenCount()).add(count.prompt, count.completion)
        return totals

    @property
    def states_expanded(self) -> int:
        with self._lock:
            return sum(self.per_task_states.values())

    def total_tokens(self) -> tuple[int, int]:
        tokens = self.tokens.values()
        return sum(c.prompt for c in tokens), sum(c.completion for c in tokens)

    def tokens_by_model(self) -> dict[str, TokenCount]:
        out: dict[str, TokenCount] = {}
        for (_, model), count in self.tokens.items():
            out.setdefault(model, TokenCount()).add(count.prompt, count.completion)
        return out

    def to_dict(self) -> dict:
        return {
            "tokens": _tokens_dict(self.tokens),
            "states_expanded": self.states_expanded,
            "per_task": {
                task_id: {
                    "tokens": _tokens_dict(self.per_task_tokens.get(task_id, {})),
                    "states_expanded": self.per_task_states.get(task_id, 0),
                }
                for task_id in sorted(
                    set(self.per_task_tokens) | set(self.per_task_states)
                )
            },
        }

    @classmethod
    def from_dict(cls, data: object) -> "Ledger":
        """Read :meth:`to_dict`'s layout back from its ``per_task`` entries,
        coercing nothing: every count must be an int, not a bool, of at least
        0, and a value of the wrong type raises :class:`ConfigError` naming
        its task and key.  Top-level ``tokens`` and ``states_expanded``, where
        given, must be the per-task sums, as JSON text (so ``true`` is not
        ``1``)."""
        data = check_object(data, "ledger")
        per_task = check_object(data.get("per_task", {}), "ledger 'per_task'")
        ledger = cls()
        for task_id, entry in per_task.items():
            where = f"ledger task {task_id!r}"
            entry = check_object(entry, where)
            for key, counts in check_object(entry.get("tokens", {}), f"{where}: 'tokens'").items():
                role, bar, model = key.partition("|")
                if not bar:
                    raise ConfigError(f"{where}: token key {key!r} is not '<role>|<model>'")
                at = f"{where}: {key!r}"
                counts = check_object(counts, at)
                prompt, completion = (
                    check_int(counts.get(n), f"{at}: {n!r}", 0) for n in ("prompt", "completion")
                )
                ledger.add_tokens(role, model, prompt, completion, task_id)
            states = check_int(entry.get("states_expanded", 0), f"{where}: 'states_expanded'", 0)
            if states:
                ledger.add_states(states, task_id)
        sums = ledger.to_dict()
        for name in ("tokens", "states_expanded"):
            given, summed = (json.dumps(d.get(name), sort_keys=True) for d in (data, sums))
            if name in data and given != summed:
                raise ConfigError(f"ledger {name!r} is {given}, not the per-task sum {summed}")
        return ledger


def _tokens_dict(tokens: Mapping[tuple[str, str], TokenCount]) -> dict:
    return {
        f"{role}|{model}": {"prompt": c.prompt, "completion": c.completion}
        for (role, model), c in sorted(tokens.items())
    }


@dataclass(frozen=True)
class Pricing:
    prompt_per_1k: Decimal
    completion_per_1k: Decimal
    open_source: bool = False


DEFAULT_PRICING: dict[str, Pricing] = {
    "gpt-3.5-turbo": Pricing(Decimal("0.0005"), Decimal("0.0015"), open_source=False),
    "gpt-4o": Pricing(Decimal("0.0025"), Decimal("0.01"), open_source=False),
    "llama-3.1-8b-instruct": Pricing(
        Decimal("0.00005"), Decimal("0.00008"), open_source=True
    ),
}


class PricingTable:
    """Per-1000-token dollar rates, with an open/closed-source flag per model."""

    def __init__(self, rates: Mapping[str, Pricing] | None = None) -> None:
        self.rates = dict(DEFAULT_PRICING if rates is None else rates)

    @classmethod
    def from_dict(cls, data: object) -> "PricingTable":
        """Rates keyed by model, coercing nothing: a malformed entry raises
        :class:`ConfigError` naming its model and field.  A per-1000-token
        rate is a finite number of at least 0, given as a JSON number (not a
        bool) or a numeric string."""
        rates = {}
        for model, entry in check_object(data, "pricing").items():
            where = f"model {model!r}"
            entry = check_object(entry, f"{where}: its entry")
            open_source = check_bool(entry.get("open_source", False), f"{where}: 'open_source'")
            per_1k = []
            for name in ("prompt_per_1k", "completion_per_1k"):
                value = entry.get(name)
                try:
                    rate = Decimal(value) if isinstance(value, str) else None
                except InvalidOperation:
                    rate = None
                if rate is None or not rate.is_finite() or rate < 0:
                    # Anything but a good numeric string must be a number; a string fails.
                    rate = Decimal(str(check_number(value, f"{where}: {name!r}", 0)))
                per_1k.append(rate)
            rates[model] = Pricing(*per_1k, open_source=open_source)
        return cls(rates)

    def get(self, model: str) -> Pricing:
        try:
            return self.rates[model]
        except KeyError:
            raise ConfigError(f"no pricing known for model {model!r}") from None


def cost(ledger: Ledger, pricing: PricingTable) -> dict[str, Decimal]:
    """Dollar cost of a ledger's token usage per model, in model order;
    linear in token counts.

    Raises :class:`ConfigError` naming any model absent from the table.
    """
    per_model: dict[str, Decimal] = {}
    for model, counts in sorted(ledger.tokens_by_model().items()):
        rates = pricing.get(model)
        per_model[model] = (
            Decimal(counts.prompt) / 1000 * rates.prompt_per_1k
            + Decimal(counts.completion) / 1000 * rates.completion_per_1k
        )
    return per_model


def pass_at_k(attempt_outcomes: Sequence[bool], k: int) -> bool:
    """Whether any of the first ``k`` attempts succeeded."""
    if k <= 0:
        raise ValueError("k must be positive")
    if k > len(attempt_outcomes):
        raise ValueError(
            f"k={k} exceeds the {len(attempt_outcomes)} recorded attempts"
        )
    return any(attempt_outcomes[:k])


_BOOTSTRAP_CHUNK = 8192  # fixed: resample i always lives in chunk i // 8192
_BOOTSTRAP_BLOCK = 1024  # rows drawn at a time; bounds each thread's working memory
# At most one chunk's worth of rows in flight, whatever the host's size.
_BOOTSTRAP_THREADS = _BOOTSTRAP_CHUNK // _BOOTSTRAP_BLOCK


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _paired_arrays(
    scores_a: Sequence[float], scores_b: Sequence[float], b_samples: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

    if len(scores_a) != len(scores_b):
        raise ValueError(
            f"paired scores differ in length: {len(scores_a)} vs {len(scores_b)}"
        )
    if len(scores_a) == 0:
        raise ValueError("paired bootstrap requires at least one task")
    if b_samples < 1:
        raise ValueError("b_samples must be positive")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return np.asarray(scores_a, dtype=np.float64), np.asarray(scores_b, dtype=np.float64)


def _bootstrap(differences: Sequence[np.ndarray], b_samples: int, seed: int) -> list[float]:
    """For each difference vector, the fraction of ``b_samples`` resampled
    means above twice its observed mean.

    Each vector is sorted first, so the result does not depend on task
    order.  Every vector is resampled with the same indices, drawn once per
    chunk.  Chunks run on one thread per usable CPU, at most
    ``_BOOTSTRAP_THREADS``; their counts are summed in chunk order.
    """
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np  # here, not in a pool thread

    sorted_diffs = [np.sort(diffs) for diffs in differences]
    n = sorted_diffs[0].shape[0]
    thresholds = [2 * float(diffs.mean()) for diffs in sorted_diffs]

    def chunk_counts(chunk_index: int) -> list[int]:
        # Consecutive ``integers`` calls on one generator yield exactly the
        # rows of a single whole-chunk draw, so blocks keep every resample.
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, chunk_index])))
        stop = min(b_samples, (chunk_index + 1) * _BOOTSTRAP_CHUNK)
        counts = [0] * len(sorted_diffs)
        for start in range(chunk_index * _BOOTSTRAP_CHUNK, stop, _BOOTSTRAP_BLOCK):
            indices = rng.integers(0, n, size=(min(_BOOTSTRAP_BLOCK, stop - start), n))
            for i, (diffs, threshold) in enumerate(zip(sorted_diffs, thresholds)):
                counts[i] += int((diffs[indices].mean(axis=1) > threshold).sum())
        return counts

    chunks = range((b_samples + _BOOTSTRAP_CHUNK - 1) // _BOOTSTRAP_CHUNK)
    workers = min(_usable_cpus(), _BOOTSTRAP_THREADS, len(chunks))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        per_chunk = list(pool.map(chunk_counts, chunks))
    return [sum(counts) / b_samples for counts in zip(*per_chunk)]


def paired_bootstrap(
    scores_a: Sequence[float],
    scores_b: Sequence[float],
    b_samples: int = 1_000_000,
    seed: int = 0,
) -> tuple[float, float]:
    """Paired bootstrap probabilities ``(p_a_gt_b, p_b_gt_a)`` that system
    A's lead over B, and B's over A, is spurious.

    With observed mean difference ``delta``, resamples task indices with
    replacement ``b_samples`` times and reports the fraction of resamples
    whose difference exceeds ``2 * delta``.  Both directions come from one
    draw of the same resamples.  The paired differences are sorted before
    resampling, so the result is exactly invariant to task order; each
    fixed-size chunk of resamples draws from its own counter-derived stream,
    so resample ``i`` is identical across runs, machines and thread counts.
    ``seed`` must be non-negative.  numpy is imported on the first call.
    """
    a, b = _paired_arrays(scores_a, scores_b, b_samples, seed)
    p_a_gt_b, p_b_gt_a = _bootstrap([a - b, b - a], b_samples, seed)
    return p_a_gt_b, p_b_gt_a


@dataclass(frozen=True)
class TaskOutcome:
    task_id: str
    score: float | None
    success: bool
    attempts: tuple[bool, ...]


@dataclass
class MethodResult:
    method: str
    outcomes: list[TaskOutcome] = field(default_factory=list)
    ledger: Ledger = field(default_factory=Ledger)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "outcomes": [
                {
                    "task_id": o.task_id,
                    "score": o.score,
                    "success": o.success,
                    "attempts": list(o.attempts),
                }
                for o in self.outcomes
            ],
            "ledger": self.ledger.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: object) -> "MethodResult":
        """Read :meth:`to_dict`'s layout back, coercing nothing: a value of
        the wrong type raises :class:`ConfigError` naming its field and
        outcome.  A missing field reads as null."""
        data = check_object(data, "results")
        method = check_str(data.get("method"), "'method'")
        outcomes = check_list(data.get("outcomes"), "'outcomes'")
        outcomes = [_outcome_from_dict(i, o) for i, o in enumerate(outcomes)]
        first_index: dict[str, int] = {}
        for index, outcome in enumerate(outcomes):
            earlier = first_index.setdefault(outcome.task_id, index)
            if earlier != index:
                raise ConfigError(
                    f"outcome {index}: 'task_id' {outcome.task_id!r} repeats outcome {earlier}"
                )
        return cls(method, outcomes, Ledger.from_dict(data.get("ledger", {})))


def _outcome_from_dict(index: int, data: object) -> TaskOutcome:
    """One outcome entry; its ``success`` must be whether any attempt succeeded,
    as ``eval`` reads the one and ``report``'s pass@k the other."""
    where = f"outcome {index}"
    data = check_object(data, where)
    outcome = TaskOutcome(
        check_str(data.get("task_id"), f"{where}: 'task_id'"),
        check_number(data.get("score"), f"{where}: 'score'", nullable=True),
        check_bool(data.get("success"), f"{where}: 'success'"),
        tuple(check_list(data.get("attempts"), f"{where}: 'attempts'", bool, nonempty=True)),
    )
    if outcome.success != any(outcome.attempts):
        some = "no" if outcome.success else "an"
        raise ConfigError(
            f"{where}: 'success' is {json.dumps(outcome.success)}, but {some} attempt succeeded"
        )
    return outcome


_SUMMARY_COLUMNS = [
    "method",
    "tasks",
    "score_mean",
    "success_rate",
    "pass_at_k",
    "k",
    "prompt_tokens",
    "completion_tokens",
    "tokens_open_source",
    "tokens_closed_source",
    "states_expanded",
    "cost_usd",
]

_PER_TASK_COLUMNS = ["method", "task_id", "score", "success", "attempts"]


def _format_float(value: float | None) -> str:
    return "" if value is None else f"{value:.6f}"


def summary_row(result: MethodResult, pricing: PricingTable, k: int) -> dict[str, str]:
    outcomes = result.outcomes
    scores = [o.score for o in outcomes if o.score is not None]
    usable_k = [o for o in outcomes if len(o.attempts) >= k]
    open_tokens = 0
    closed_tokens = 0
    for model, counts in result.ledger.tokens_by_model().items():
        total = counts.prompt + counts.completion
        if pricing.get(model).open_source:
            open_tokens += total
        else:
            closed_tokens += total
    prompt_total, completion_total = result.ledger.total_tokens()
    total_cost = sum(cost(result.ledger, pricing).values(), Decimal(0))
    return {
        "method": result.method,
        "tasks": str(len(outcomes)),
        "score_mean": _format_float(
            sum(scores) / len(scores) if scores else None
        ),
        "success_rate": _format_float(
            sum(o.success for o in outcomes) / len(outcomes) if outcomes else None
        ),
        "pass_at_k": _format_float(
            sum(pass_at_k(o.attempts, k) for o in usable_k) / len(usable_k)
            if usable_k
            else None
        ),
        "k": str(k),
        "prompt_tokens": str(prompt_total),
        "completion_tokens": str(completion_total),
        "tokens_open_source": str(open_tokens),
        "tokens_closed_source": str(closed_tokens),
        "states_expanded": str(result.ledger.states_expanded),
        "cost_usd": f"{total_cost:.6f}",
    }


def emit_report(
    results: Iterable[MethodResult],
    out_dir: str | Path,
    pricing: PricingTable,
    k: int = 3,
) -> dict[str, Path]:
    """Write ``summary.csv`` (one row per method) and ``per_task.csv``.

    Rows are sorted by method name (then task id); re-emitting the same
    results is byte-identical.  Every row is built before ``out_dir`` is
    created, so a model missing from ``pricing`` writes nothing.
    """
    ordered = sorted(results, key=lambda r: r.method)

    summary_io = io.StringIO()
    writer = csv.DictWriter(summary_io, fieldnames=_SUMMARY_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for result in ordered:
        writer.writerow(summary_row(result, pricing, k))

    per_task_io = io.StringIO()
    writer = csv.DictWriter(per_task_io, fieldnames=_PER_TASK_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for result in ordered:
        for outcome in sorted(result.outcomes, key=lambda o: o.task_id):
            writer.writerow(
                {
                    "method": result.method,
                    "task_id": outcome.task_id,
                    "score": _format_float(outcome.score),
                    "success": str(int(outcome.success)),
                    "attempts": "".join("1" if a else "0" for a in outcome.attempts),
                }
            )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {"summary": out_dir / "summary.csv", "per_task": out_dir / "per_task.csv"}
    paths["summary"].write_text(summary_io.getvalue(), encoding="utf-8")
    paths["per_task"].write_text(per_task_io.getvalue(), encoding="utf-8")
    return paths
