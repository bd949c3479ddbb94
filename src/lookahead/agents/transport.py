"""Chat-completions transport abstraction.

Remote policies and value models speak to an OpenAI-compatible
``/chat/completions`` endpoint through a :class:`Transport`.  A
:class:`ChatRequest` is a model, a prompt and a choice count; the HTTP
transport sends the prompt as one user message at a fixed temperature and
completion-token cap.  Tests use the :class:`ScriptedTransport` double,
which replays canned responses and approximates token usage by whitespace
word count; the HTTP transport reports the token counts echoed by the
provider.

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

from ..core import ConfigError, check_int, check_list, check_object, check_str


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

# Every request sends its prompt as one user message, sampled at these settings.
_TEMPERATURE = 1.0
_MAX_TOKENS = 3192
# Retries: attempts per request, the first backoff step, and each attempt's timeout.
_MAX_ATTEMPTS = 3
_BACKOFF_SECONDS = 0.5
_TIMEOUT_SECONDS = 120.0
DEFAULT_API_KEY_ENV = "LOOKAHEAD_API_KEY"
# The longest wait a server's Retry-After header can impose before a retry.
MAX_RETRY_AFTER_SECONDS = 60.0


class TransportError(Exception):
    """A transport failure that persisted through bounded retries."""


@dataclass(frozen=True)
class ChatRequest:
    """One prompt to ``model``, asking for ``n`` completions."""

    model: str
    prompt: str
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


def _chat_response(body: object, n: int) -> ChatResponse:
    """The reply ``body`` of a request for ``n`` choices; a malformed one
    raises :class:`ConfigError` or :class:`ValueError` naming its fault."""
    body = check_object(body, "reply body")
    choices = check_list(body.get("choices"), "reply 'choices'", dict)
    if len(choices) != n:
        raise ValueError(f"expected {n} choices, got {len(choices)}")
    texts = tuple(
        check_str(
            check_object(choice.get("message"), f"reply choice {i}: 'message'").get("content"),
            f"reply choice {i}: 'content'",
        )
        for i, choice in enumerate(choices)
    )
    usage = check_object(body.get("usage", {}), "reply 'usage'")
    prompt, completion = (
        check_int(usage.get(name, 0), f"reply 'usage': {name!r}", 0)
        for name in ("prompt_tokens", "completion_tokens")
    )
    return ChatResponse(texts=texts, prompt_tokens=prompt, completion_tokens=completion)


class HttpTransport(Transport):
    """OpenAI-compatible HTTP client with exponential-backoff retries.

    Rate limiting (429), server errors (5xx), timeouts, connection errors and
    malformed bodies are retried; any other 4xx status fails at once.  A body
    is malformed unless it is a JSON object whose ``choices`` is a list of
    the request's ``n`` objects, each with a string ``message.content``, and
    whose ``usage``, when present, is an object whose token counts, when
    present, are ints of at least 0 (an absent count reads as 0).  The
    wait before retry ``k`` is ``_BACKOFF_SECONDS * 2 ** (k - 1)`` scaled by
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
        post: Callable[..., requests.Response] | None = None,
        sleep: Callable[[float], None] = time.sleep,
        random: Callable[[], float] = random.random,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.api_key_env = api_key_env
        self._post = post if post is not None else requests.post
        # Reading requests' exception here runs the module on this thread.
        self._retryable = (requests.RequestException, ValueError, ConfigError)
        self._sleep = sleep
        self._random = random

    def send(self, request: ChatRequest) -> ChatResponse:
        # Each post opens its own connection; asking the server to close it frees a
        # thread-per-connection server's worker as soon as the reply is written.
        headers = {"Content-Type": "application/json", "Connection": "close"}
        api_key = os.environ.get(self.api_key_env)
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        payload = {
            "model": request.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": _TEMPERATURE,
            "max_tokens": _MAX_TOKENS,
            "n": request.n,
        }
        last_error: Exception | None = None
        retry_after: float | None = None
        for attempt in range(_MAX_ATTEMPTS):
            if attempt:
                wait = retry_after
                if wait is None:
                    wait = _BACKOFF_SECONDS * 2 ** (attempt - 1) * (0.5 + self._random())
                self._sleep(wait)
                retry_after = None
            try:
                response = self._post(
                    f"{self.base_url}/chat/completions",
                    json=payload,
                    headers=headers,
                    timeout=_TIMEOUT_SECONDS,
                )
                status = response.status_code
                if status in (429, 503):
                    retry_after = _retry_after(response.headers.get("Retry-After"))
                if 400 <= status < 500 and status != 429:
                    raise TransportError(
                        f"chat completion rejected with HTTP status {status}"
                    )
                response.raise_for_status()
                return _chat_response(response.json(), request.n)
            except self._retryable as exc:
                last_error = exc
        raise TransportError(
            f"chat completion failed after {_MAX_ATTEMPTS} attempts: {last_error}"
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
        return ChatResponse(
            texts=texts,
            prompt_tokens=approx_tokens(request.prompt),
            completion_tokens=sum(approx_tokens(text) for text in texts),
        )
