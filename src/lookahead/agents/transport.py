"""Chat-completions transport abstraction.

Remote policies and value models speak to an OpenAI-compatible
``/chat/completions`` endpoint through a :class:`Transport`.  Tests use the
:class:`ScriptedTransport` double, which replays canned responses and
approximates token usage by whitespace word count; the HTTP transport reports
the token counts echoed by the provider.

``requests`` is loaded lazily: the module is registered in ``sys.modules``
through :class:`importlib.util.LazyLoader` and its body runs on the first
attribute access, which :class:`HttpTransport`'s constructor makes.  So
oracle, tabular, scripted and ``eval`` runs never run it (it is about half of
a cold ``import lookahead.cli``), while ``sys.modules["requests"].post`` still
names the function every HTTP request goes through, for code that wraps it.
A function-level import would leave no such module before the first
transport is built.
"""

from __future__ import annotations

import importlib.util
import os
import random
import sys
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Iterable


def _lazy_module(name: str):
    """``sys.modules[name]`` if it is loaded, else a module whose body runs on
    its first attribute access."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


requests = _lazy_module("requests")

DEFAULT_TEMPERATURE = 1.0
DEFAULT_MAX_TOKENS = 3192
DEFAULT_API_KEY_ENV = "LOOKAHEAD_API_KEY"
# The longest wait a server's Retry-After header can impose before a retry.
MAX_RETRY_AFTER_SECONDS = 60.0


class TransportError(Exception):
    """A transport failure that persisted through bounded retries."""


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str


@dataclass(frozen=True)
class ChatRequest:
    model: str
    messages: tuple[ChatMessage, ...]
    temperature: float = DEFAULT_TEMPERATURE
    max_tokens: int = DEFAULT_MAX_TOKENS
    n: int = 1


@dataclass(frozen=True)
class ChatResponse:
    """The ``n`` completion texts of one request, in choice order, and the
    request's usage (the prompt is billed once per request)."""

    texts: tuple[str, ...]
    prompt_tokens: int
    completion_tokens: int

    @property
    def text(self) -> str:
        return self.texts[0]


def approx_tokens(text: str) -> int:
    """Whitespace-token approximation used by scripted transports."""
    return len(text.split())


class Transport(ABC):
    """Sends one chat request and returns its ``n`` completion texts plus usage."""

    concurrent_safe: bool = True

    @abstractmethod
    def send(self, request: ChatRequest) -> ChatResponse: ...


def _retry_after(header: str | None) -> float | None:
    """The wait a numeric ``Retry-After`` header asks for, at most
    :data:`MAX_RETRY_AFTER_SECONDS`; ``None`` if it is absent, negative or
    not a number."""
    try:
        seconds = float(header)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return None
    return min(seconds, MAX_RETRY_AFTER_SECONDS) if seconds >= 0 else None


class HttpTransport(Transport):
    """OpenAI-compatible HTTP client with exponential-backoff retries.

    Rate limiting (429), server errors (5xx), timeouts, connection errors and
    malformed bodies, including a body whose choice count is not the
    request's ``n``, are retried; any other 4xx status fails at once.  The
    wait before retry ``k`` is ``backoff_seconds * 2 ** (k - 1)`` scaled by
    ``0.5 + random()``, so it is uniform over half to one and a half times
    that step and calls that fail together do not retry together.  If the
    failed attempt was a 429 or 503 with a numeric ``Retry-After`` header,
    its seconds (capped at :data:`MAX_RETRY_AFTER_SECONDS`) are the wait
    instead, with no jitter.  ``sleep`` and ``random`` (a source of floats in
    ``[0, 1)``) are injectable for tests.  The bearer token is read from the
    environment variable named by ``api_key_env`` at call time; a missing
    key sends no Authorization header.

    The constructor runs the lazily loaded ``requests`` module on the thread
    that builds the transport, even when ``post`` is injected:
    :class:`importlib.util.LazyLoader` takes no lock around that first run,
    so a pool thread must never be the first to touch the module, and the
    import cost stays in the run's set-up rather than its first request.
    """

    def __init__(
        self,
        base_url: str,
        api_key_env: str = DEFAULT_API_KEY_ENV,
        max_attempts: int = 3,
        backoff_seconds: float = 0.5,
        timeout_seconds: float = 120.0,
        post: Callable[..., requests.Response] | None = None,
        sleep: Callable[[float], None] = time.sleep,
        random: Callable[[], float] = random.random,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.api_key_env = api_key_env
        self.max_attempts = max_attempts
        self.backoff_seconds = backoff_seconds
        self.timeout_seconds = timeout_seconds
        self._post = post if post is not None else requests.post
        # Reading requests' exception here runs the module on this thread.
        self._retryable = (requests.RequestException, KeyError, IndexError, ValueError)
        self._sleep = sleep
        self._random = random

    def send(self, request: ChatRequest) -> ChatResponse:
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.api_key_env)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        payload = {
            "model": request.model,
            "messages": [
                {"role": m.role, "content": m.content} for m in request.messages
            ],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
            "n": request.n,
        }
        last_error: Exception | None = None
        retry_after: float | None = None
        for attempt in range(self.max_attempts):
            if attempt:
                wait = retry_after
                if wait is None:
                    wait = self.backoff_seconds * 2 ** (attempt - 1) * (0.5 + self._random())
                self._sleep(wait)
                retry_after = None
            try:
                response = self._post(
                    f"{self.base_url}/chat/completions",
                    json=payload,
                    headers=headers,
                    timeout=self.timeout_seconds,
                )
                status = response.status_code
                if status in (429, 503):
                    retry_after = _retry_after(response.headers.get("Retry-After"))
                if 400 <= status < 500 and status != 429:
                    raise TransportError(
                        f"chat completion rejected with HTTP status {status}"
                    )
                response.raise_for_status()
                body = response.json()
                texts = tuple(choice["message"]["content"] for choice in body["choices"])
                if len(texts) != request.n:
                    raise ValueError(f"expected {request.n} choices, got {len(texts)}")
                usage = body.get("usage", {})
                return ChatResponse(
                    texts=texts,
                    prompt_tokens=int(usage.get("prompt_tokens", 0)),
                    completion_tokens=int(usage.get("completion_tokens", 0)),
                )
            except self._retryable as exc:
                last_error = exc
        raise TransportError(
            f"chat completion failed after {self.max_attempts} attempts: {last_error}"
        )


class ScriptedTransport(Transport):
    """Replays canned completion texts in order; raises when exhausted.

    ``responses`` may be longer than needed; each ``send`` consumes ``n``
    entries.  Usage is the whitespace-token approximation of the prompt (once
    per send) and of every completion.
    The double replays its replies in call order, so it is not safe for
    concurrent use.
    """

    def __init__(self, responses: Iterable[str]) -> None:
        self.responses = list(responses)
        self.concurrent_safe = False
        self.requests_seen = []
        self._cursor = 0

    def send(self, request: ChatRequest) -> ChatResponse:
        self.requests_seen.append(request)
        if self._cursor + request.n > len(self.responses):
            raise TransportError(
                f"scripted transport exhausted after {len(self.responses)} responses"
            )
        texts = tuple(self.responses[self._cursor : self._cursor + request.n])
        self._cursor += request.n
        prompt_tokens = sum(approx_tokens(m.content) for m in request.messages)
        return ChatResponse(
            texts=texts,
            prompt_tokens=prompt_tokens,
            completion_tokens=sum(approx_tokens(text) for text in texts),
        )
