"""Value models: oracle, scripted doubles, remote and depth-routed.

A value model maps the trajectory ending at the state under judgment to a
:class:`~lookahead.core.ValueEstimate` under a declared scale.
Every model's primitive is ``evaluate(task, trajectory)``; wrappers hand the
caller's trajectory to their inner model unchanged.  Only the remote model
samples, so its sample count and aggregation are constructor arguments.

Concurrency safety belongs to the transport: only the remote model overlaps
its calls, at most :data:`MAX_IN_FLIGHT` at a time, and only on a transport
that declares itself safe for that.  A search hands it a whole beam level
in one :meth:`ValueModel.evaluate_many` call.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from dataclasses import replace
from typing import TYPE_CHECKING, Mapping, Sequence

from ..core import Aggregation, Task, Trajectory, ValueEstimate, render_context
from ..envs.base import Environment
from ..envs.game24 import Verdict, solve_verdict
from .prompts import load_template, render_template
from .scales import (
    GAME24,
    NUMERIC10,
    MalformedRationale,
    ValueScale,
    aggregate_estimate,
    parse_value,
)
from .transport import ChatMessage, ChatRequest, Transport

if TYPE_CHECKING:
    from ..evaluation import Ledger

MAX_IN_FLIGHT = 16
"""Most evaluations :meth:`RemoteValueModel.evaluate_many` runs at once."""


class ValueModel(ABC):
    scale: ValueScale = NUMERIC10

    @abstractmethod
    def evaluate(self, task: Task, trajectory: Trajectory) -> ValueEstimate: ...

    def evaluate_many(
        self, task: Task, trajectories: Sequence[Trajectory]
    ) -> list[ValueEstimate | MalformedRationale]:
        """Evaluate ``trajectories`` in order, one result per trajectory.

        A parse failure is returned in its trajectory's slot rather than
        raised; any other exception propagates.
        """
        return [self._evaluate_one(task, trajectory) for trajectory in trajectories]

    def _evaluate_one(
        self, task: Task, trajectory: Trajectory
    ) -> ValueEstimate | MalformedRationale:
        try:
            return self.evaluate(task, trajectory)
        except MalformedRationale as exc:
            return exc


class OracleValueModel(ValueModel):
    """Exact solvability judge for the arithmetic environment.

    Sure states score 20, impossible states 0.001; the rationale is a fixed
    template ending in the verdict word, so it parses like any sampled one.
    The estimate depends on the verdict alone, so both are built once.
    """

    scale = GAME24

    def __init__(self) -> None:
        self._estimates: dict[Verdict, ValueEstimate] = {}
        for verdict in Verdict:
            value = self.scale.labels[verdict.value]  # type: ignore[index]
            reach = "can" if verdict is Verdict.SURE else "cannot"
            rationale = (
                f"Exhaustive check: the remaining numbers {reach} reach 24.\n"
                f"{verdict.value}"
            )
            self._estimates[verdict] = ValueEstimate(
                rationale=rationale, value=value, samples=(value,)
            )

    def evaluate(self, task: Task, trajectory: Trajectory) -> ValueEstimate:
        return self._estimates[solve_verdict(trajectory.final_state)]


class ScriptedValueModel(ValueModel):
    """Fixture-backed double mapping state ids to values.

    Unknown states receive ``default``.  Rationales are synthesized in the
    canonical score-sentence form so downstream filters can parse them.
    """

    def __init__(
        self,
        values: Mapping[str, float],
        default: float = 0.0,
        scale: ValueScale = NUMERIC10,
    ) -> None:
        self.values = dict(values)
        self.default = default
        self.scale = scale

    def evaluate(self, task: Task, trajectory: Trajectory) -> ValueEstimate:
        state = trajectory.final_state
        value = self.values.get(state.id, self.default)
        rationale = (
            f"Scripted evaluation of state {state.id}. "
            f"Thus, the correctness score is {value:.2f} / 10.00."
        )
        return ValueEstimate(rationale=rationale, value=value, samples=(value,))


class ConstantValueModel(ValueModel):
    """Answers every state with the same value."""

    def __init__(self, value: float, scale: ValueScale = NUMERIC10) -> None:
        self.value = value
        self.scale = scale

    def evaluate(self, task: Task, trajectory: Trajectory) -> ValueEstimate:
        rationale = (
            f"Constant evaluation. "
            f"Thus, the correctness score is {self.value:.2f} / 10.00."
        )
        return ValueEstimate(rationale=rationale, value=self.value, samples=(self.value,))


class RemoteValueModel(ValueModel):
    """Samples rationales from a chat model and aggregates parsed values.

    Draws come in rounds: one chat request with ``n = n_samples``, then up to
    ``redraw_limit`` more, each asking only for the samples still missing
    because a reply failed to parse.  So each sample slot gets at most
    ``1 + redraw_limit`` draws, and malformed replies never count toward the
    aggregate.  Parsed replies keep their round and choice order.  If no
    reply parses the evaluation raises :class:`MalformedRationale`.

    :meth:`evaluate_many` overlaps the trajectories' :meth:`evaluate` calls,
    at most :data:`MAX_IN_FLIGHT` at once, when the transport is safe for
    concurrent use.  Every evaluation's rounds still run in order on one
    thread, so a transport whose replies depend only on the prompt and its
    draw count answers exactly as it does serially.
    """

    def __init__(
        self,
        transport: Transport,
        model: str,
        environment: Environment,
        scale: ValueScale,
        n_samples: int = 1,
        aggregation: Aggregation = Aggregation.MEDIAN,
        redraw_limit: int = 2,
        ledger: "Ledger | None" = None,
    ) -> None:
        if n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        self.transport = transport
        self.model = model
        self.scale = scale
        self.n_samples = n_samples
        self.aggregation = aggregation
        self.template = load_template(environment.name, "value")
        self.redraw_limit = redraw_limit
        self.ledger = ledger
        self.malformed_count = 0
        self._malformed_lock = threading.Lock()

    def evaluate(self, task: Task, trajectory: Trajectory) -> ValueEstimate:
        prompt = render_template(self.template, input=render_context(trajectory))
        chat = ChatRequest(
            model=self.model, messages=(ChatMessage(role="user", content=prompt),)
        )
        samples: list[tuple[str, float]] = []
        for _round in range(1 + self.redraw_limit):
            missing = self.n_samples - len(samples)
            if missing <= 0:
                break
            response = self.transport.send(replace(chat, n=missing))
            if self.ledger is not None:
                self.ledger.add_tokens(
                    "value",
                    self.model,
                    response.prompt_tokens,
                    response.completion_tokens,
                    task_id=task.id,
                )
            malformed = 0
            for text in response.texts:
                try:
                    samples.append((text, parse_value(text, self.scale)))
                except MalformedRationale:
                    malformed += 1
            if malformed:
                with self._malformed_lock:
                    self.malformed_count += malformed
        if not samples:
            raise MalformedRationale(
                "no-parsed-samples",
                f"all {self.n_samples} draws (with redraws) were malformed",
            )
        return aggregate_estimate(samples, self.aggregation)

    def evaluate_many(
        self, task: Task, trajectories: Sequence[Trajectory]
    ) -> list[ValueEstimate | MalformedRationale]:
        """Overlap the evaluations on a pool of at most :data:`MAX_IN_FLIGHT`
        threads.

        The pool drains before any result is read, so the earliest failure
        in trajectory order (for example a :class:`TransportError`) is the
        one raised.
        """
        if not self.transport.concurrent_safe or len(trajectories) < 2:
            return super().evaluate_many(task, trajectories)
        from concurrent.futures import ThreadPoolExecutor  # loaded only when calls overlap

        with ThreadPoolExecutor(max_workers=min(len(trajectories), MAX_IN_FLIGHT)) as pool:
            futures = [
                pool.submit(self._evaluate_one, task, trajectory) for trajectory in trajectories
            ]
        return [future.result() for future in futures]


class RoutedValueModel(ValueModel):
    """Delegates each evaluation to the model trained for the state's depth.

    Depths without a model of their own go to ``fallback``.
    """

    def __init__(self, models: Mapping[int, ValueModel], fallback: ValueModel) -> None:
        self.models = dict(models)
        self.fallback = fallback
        self.scale = fallback.scale

    def _route(self, depth: int) -> ValueModel:
        return self.models.get(depth, self.fallback)

    def evaluate(self, task: Task, trajectory: Trajectory) -> ValueEstimate:
        return self._route(trajectory.depth).evaluate(task, trajectory)

    def evaluate_many(
        self, task: Task, trajectories: Sequence[Trajectory]
    ) -> list[ValueEstimate | MalformedRationale]:
        """Route once when every trajectory shares a depth, as a beam level does."""
        depths = {trajectory.depth for trajectory in trajectories}
        if len(depths) != 1:
            return super().evaluate_many(task, trajectories)
        return self._route(depths.pop()).evaluate_many(task, trajectories)
