"""Thread-safe chat transport doubles for the concurrent value-call tests."""

from __future__ import annotations

import hashlib
import threading
from typing import Callable

from lookahead.agents.transport import ChatRequest, ChatResponse, Transport, approx_tokens


def digest(text: str) -> int:
    """A stable (process-independent) integer hash of ``text``."""
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


class PromptKeyedTransport(Transport):
    """Answers ``reply(prompt, draw)`` for each of a request's ``n`` choices,
    where ``draw`` counts earlier draws of the same prompt, so reordering or
    overlapping calls never changes a reply.  ``sends`` counts requests,
    ``draws`` counts choices and ``ns`` lists each request's ``n``.

    With ``gate=k`` every send waits (up to ``timeout`` seconds) until ``k``
    sends have been in flight at once; after that the gate stays open.  A
    caller that never overlaps its sends therefore leaves ``max_in_flight``
    below ``k``.
    """

    def __init__(
        self,
        reply: Callable[[str, int], str],
        gate: int = 0,
        timeout: float = 2.0,
        concurrent_safe: bool = True,
    ) -> None:
        self.reply = reply
        self.gate = gate
        self.timeout = timeout
        self.concurrent_safe = concurrent_safe
        self.sends = 0
        self.draws = 0
        self.in_flight = 0
        self.max_in_flight = 0
        self.prompts: list[str] = []
        self.ns: list[int] = []
        self._draws: dict[str, int] = {}
        self._lock = threading.Lock()
        self._open = threading.Event()

    def send(self, request: ChatRequest) -> ChatResponse:
        prompt = request.prompt
        with self._lock:
            first = self._draws.get(prompt, 0)
            self._draws[prompt] = first + request.n
            self.sends += 1
            self.draws += request.n
            self.prompts.append(prompt)
            self.ns.append(request.n)
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
            if self.in_flight >= self.gate:
                self._open.set()
        try:
            self._open.wait(self.timeout)
            texts = tuple(self.reply(prompt, first + i) for i in range(request.n))
        finally:
            with self._lock:
                self.in_flight -= 1
        return ChatResponse(
            texts=texts,
            prompt_tokens=approx_tokens(prompt),
            completion_tokens=sum(approx_tokens(text) for text in texts),
        )
