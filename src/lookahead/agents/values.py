"""Value models: oracle, scripted doubles, remote and depth-routed.

A value model maps the trajectory ending at the state under judgment to a
:class:`~lookahead.core.ValueEstimate` under a declared scale.  Every model's
primitive is ``evaluate(trajectory)`` and its batch form is
``evaluate_many(trajectories)``; a trajectory carries its task, and wrappers
hand it to their inner model unchanged.  Only the remote model samples, so
its sample count and aggregation are constructor arguments; its redraw
limit is the module constant ``_REDRAW_LIMIT``.  The scripted and constant
doubles end their rationales in their scale's own score form, so every
model's rationales parse on its scale.

Concurrency safety belongs to the transport: only the remote model overlaps
its calls, at most :data:`MAX_IN_FLIGHT` at a time, and only on a transport
that declares itself safe for that.  A search hands it a whole beam level
in one :meth:`ValueModel.evaluate_many` call.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Mapping, Sequence

from ..core import Aggregation, Trajectory, ValueEstimate, render_context
from ..envs.base import Environment
from ..envs.game24 import Verdict, solve_verdict
from .prompts import load_template, render_template
from .scales import (
    GAME24,
    NUMERIC10,
    MalformedRationale,
    ValueScale,
    aggregate_estimate,
    format_score_sentence,
    parse_value,
    with_score,
)
from .transport import ChatRequest, Transport

if TYPE_CHECKING:
    from ..evaluation import Ledger

MAX_IN_FLIGHT = 16
"""Most evaluations :meth:`RemoteValueModel.evaluate_many` runs at once."""
# Rounds after the first that re-ask for the samples whose replies failed to parse.
_REDRAW_LIMIT = 2


class ValueModel(ABC):
    scale: ValueScale = NUMERIC10

    @abstractmethod
    def evaluate(self, trajectory: Trajectory) -> ValueEstimate: ...

    def evaluate_many(
        self, trajectories: Sequence[Trajectory]
    ) -> list[ValueEstimate | MalformedRationale]:
        """Evaluate ``trajectories`` in order, one result per trajectory.

        A parse failure is returned in its trajectory's slot rather than
        raised; any other exception propagates.
        """
        return [self._evaluate_one(trajectory) for trajectory in trajectories]

    def _evaluate_one(self, trajectory: Trajectory) -> ValueEstimate | MalformedRationale:
        try:
            return self.evaluate(trajectory)
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

    def evaluate(self, trajectory: Trajectory) -> ValueEstimate:
        return self._estimates[solve_verdict(trajectory.final_state)]


class ScriptedValueModel(ValueModel):
    """Fixture-backed double mapping state ids to values.

    Unknown states receive ``default``.  Every value is kept as a float, and
    each rationale ends in the value's score sentence (or verdict label)
    under ``scale``, so downstream filters parse it; a value the scale cannot
    state raises ``ValueError`` here.
    """

    def __init__(
        self,
        values: Mapping[str, float],
        default: float = 0.0,
        scale: ValueScale = NUMERIC10,
    ) -> None:
        self.values = {state_id: float(value) for state_id, value in values.items()}
        self.default = float(default)
        self.scale = scale
        for value in (*self.values.values(), self.default):
            format_score_sentence(value, scale)

    def evaluate(self, trajectory: Trajectory) -> ValueEstimate:
        state = trajectory.final_state
        value = self.values.get(state.id, self.default)
        rationale = with_score(f"Scripted evaluation of state {state.id}.", value, self.scale)
        return ValueEstimate(rationale=rationale, value=value, samples=(value,))


class ConstantValueModel(ValueModel):
    """Answers every state with the same value, stated under ``scale``; a
    value the scale cannot state raises ``ValueError`` here."""

    def __init__(self, value: float, scale: ValueScale = NUMERIC10) -> None:
        self.scale = scale
        rationale = with_score("Constant evaluation.", value, scale)
        self._estimate = ValueEstimate(rationale=rationale, value=value, samples=(value,))

    def evaluate(self, trajectory: Trajectory) -> ValueEstimate:
        return self._estimate


class RemoteValueModel(ValueModel):
    """Samples rationales from a chat model and aggregates parsed values.

    Draws come in rounds: one chat request with ``n = n_samples``, then up to
    :data:`_REDRAW_LIMIT` more, each asking only for the samples still
    missing because a reply failed to parse.  So each sample slot gets at
    most three draws, and malformed replies never count toward the
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
        self.ledger = ledger
        self.malformed_count = 0
        self._malformed_lock = threading.Lock()

    def evaluate(self, trajectory: Trajectory) -> ValueEstimate:
        prompt = render_template(self.template, input=render_context(trajectory))
        samples: list[tuple[str, float]] = []
        for _round in range(1 + _REDRAW_LIMIT):
            missing = self.n_samples - len(samples)
            if missing <= 0:
                break
            response = self.transport.send(ChatRequest(model=self.model, prompt=prompt, n=missing))
            if self.ledger is not None:
                self.ledger.add_tokens(
                    "value",
                    self.model,
                    response.prompt_tokens,
                    response.completion_tokens,
                    task_id=trajectory.task.id,
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
        self, trajectories: Sequence[Trajectory]
    ) -> list[ValueEstimate | MalformedRationale]:
        """Overlap the evaluations on a pool of at most :data:`MAX_IN_FLIGHT`
        threads.

        The pool drains before any result is read, so the earliest failure
        in trajectory order (for example a :class:`TransportError`) is the
        one raised.
        """
        if not self.transport.concurrent_safe or len(trajectories) < 2:
            return super().evaluate_many(trajectories)
        from concurrent.futures import ThreadPoolExecutor  # loaded only when calls overlap

        with ThreadPoolExecutor(max_workers=min(len(trajectories), MAX_IN_FLIGHT)) as pool:
            futures = [pool.submit(self._evaluate_one, trajectory) for trajectory in trajectories]
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

    def evaluate(self, trajectory: Trajectory) -> ValueEstimate:
        return self._route(trajectory.depth).evaluate(trajectory)

    def evaluate_many(
        self, trajectories: Sequence[Trajectory]
    ) -> list[ValueEstimate | MalformedRationale]:
        """Route once when every trajectory shares a depth, as a beam level does."""
        depths = {trajectory.depth for trajectory in trajectories}
        if len(depths) != 1:
            return super().evaluate_many(trajectories)
        return self._route(depths.pop()).evaluate_many(trajectories)
