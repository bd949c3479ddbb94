"""Serializing gates for agents that are not safe under concurrency.

Scripted doubles are stateful and declare ``concurrent_safe = False``; when
rollouts run in parallel the framework wraps them so calls are serialized
behind a lock.  Already-safe agents are returned unchanged.
"""

from __future__ import annotations

import threading
from typing import Sequence

from ..core import Task, Trajectory, ValueEstimate
from .policies import Policy
from .scales import MalformedRationale
from .values import ValueModel


class SerializedPolicy(Policy):
    def __init__(self, inner: Policy) -> None:
        self.inner = inner
        self._lock = threading.Lock()
        self.concurrent_safe = True

    def propose(self, task, trajectory, branching, disallowed=frozenset()):
        with self._lock:
            return self.inner.propose(task, trajectory, branching, disallowed)


class SerializedValueModel(ValueModel):
    def __init__(self, inner: ValueModel) -> None:
        self.inner = inner
        self.scale = inner.scale
        self._lock = threading.Lock()
        self.concurrent_safe = True

    def evaluate(self, task: Task, trajectory: Trajectory) -> ValueEstimate:
        with self._lock:
            return self.inner.evaluate(task, trajectory)

    def evaluate_many(
        self, task: Task, trajectories: Sequence[Trajectory]
    ) -> list[ValueEstimate | MalformedRationale]:
        with self._lock:
            return self.inner.evaluate_many(task, trajectories)


def ensure_concurrent_policy(policy: Policy) -> Policy:
    return policy if policy.concurrent_safe else SerializedPolicy(policy)


def ensure_concurrent_value_model(model: ValueModel) -> ValueModel:
    return model if model.concurrent_safe else SerializedValueModel(model)
