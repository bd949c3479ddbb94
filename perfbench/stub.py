"""Loopback OpenAI-style chat-completions stub with a fixed service delay.

Each reply is a pure function of the prompt and of how many times the stub
has already answered that prompt since the last :meth:`ChatStub.reset`, so a
client that reorders or overlaps its calls still gets the same answers.  A
fixed share of first draws is malformed (no verdict word), which makes the
client redraw.  The stub honours ``n``, bills the prompt once per request,
writes every response with a single send, and runs at most ``workers``
handler threads.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, HTTPServer

VERDICTS = ("sure", "likely", "impossible")
MALFORMED_PERCENT = 10
MALFORMED_TEXT = "The remaining numbers need a closer look before I can judge them."


def _digest(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def reply_text(prompt: str, draw: int) -> tuple[str, bool]:
    """The ``draw``-th reply to ``prompt`` and whether it is malformed."""
    if draw == 0 and _digest(prompt) % 100 < MALFORMED_PERCENT:
        return MALFORMED_TEXT, True
    choice = _digest(f"{draw}\x00{prompt}")
    verdict = VERDICTS[choice % len(VERDICTS)]
    steps = 1 + (choice >> 8) % 4
    reasoning = " ".join(f"Combining pair {i + 1} gives a new partial result." for i in range(steps))
    return f"{reasoning}\n{verdict}", False


def approx_tokens(text: str) -> int:
    return len(text.split())


class ChatStub:
    """Counters and per-prompt draw state shared by the handler threads."""

    def __init__(self, delay_s: float) -> None:
        self.delay_s = delay_s
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.seen: dict[str, int] = {}
            self.requests = 0
            self.malformed_served = 0
            self.service_s = 0.0
            self.prompt_tokens = 0
            self.completion_tokens = 0
            self.in_flight = 0
            self.max_concurrent = 0

    def counters(self) -> dict[str, float]:
        with self._lock:
            return {
                "requests": self.requests,
                "malformed_served": self.malformed_served,
                "service_s": self.service_s,
                "prompt_tokens": self.prompt_tokens,
                "completion_tokens": self.completion_tokens,
                "max_concurrent": self.max_concurrent,
            }

    def begin(self) -> float:
        """Count a request as in flight; returns its start time."""
        with self._lock:
            self.in_flight += 1
            self.max_concurrent = max(self.max_concurrent, self.in_flight)
        return time.perf_counter()

    def finish(self, started: float) -> None:
        with self._lock:
            self.in_flight -= 1
            self.requests += 1
            self.service_s += time.perf_counter() - started

    def answer(self, body: dict) -> dict:
        prompt = "\n".join(m["content"] for m in body["messages"])
        n = int(body.get("n", 1))
        with self._lock:
            first = self.seen.get(prompt, 0)
            self.seen[prompt] = first + n
        choices, malformed, completion = [], 0, 0
        for index in range(n):
            text, bad = reply_text(prompt, first + index)
            malformed += bad
            completion += approx_tokens(text)
            choices.append(
                {"index": index, "message": {"role": "assistant", "content": text}, "finish_reason": "stop"}
            )
        usage = {"prompt_tokens": approx_tokens(prompt), "completion_tokens": completion}
        with self._lock:
            self.malformed_served += malformed
            self.prompt_tokens += usage["prompt_tokens"]
            self.completion_tokens += completion
        return {"object": "chat.completion", "model": body.get("model", ""), "choices": choices, "usage": usage}


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = 30
    server: "_PooledServer"

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        stub = self.server.stub
        started = stub.begin()
        try:
            length = int(self.headers.get("Content-Length", 0))
            body = json.loads(self.rfile.read(length))
            payload = json.dumps(stub.answer(body)).encode("utf-8")
            time.sleep(stub.delay_s)
            head = (
                "HTTP/1.1 200 OK\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n\r\n"
            ).encode("ascii")
            # One write: split header/body sends trip delayed-ACK on loopback.
            self.wfile.write(head + payload)
        finally:
            stub.finish(started)

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass


class _PooledServer(HTTPServer):
    """An HTTP server that hands connections to a fixed-size thread pool."""

    def __init__(self, stub: ChatStub, workers: int) -> None:
        super().__init__(("127.0.0.1", 0), _Handler)
        self.stub = stub
        self._pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="stub")

    def process_request(self, request, client_address) -> None:  # type: ignore[override]
        self._pool.submit(self._serve, request, client_address)

    def _serve(self, request, client_address) -> None:
        try:
            self.finish_request(request, client_address)
        except Exception:
            self.handle_error(request, client_address)
        finally:
            self.shutdown_request(request)

    def server_close(self) -> None:
        super().server_close()
        self._pool.shutdown(wait=True)


class StubServer:
    """Runs a :class:`ChatStub` on an ephemeral loopback port until closed."""

    def __init__(self, delay_s: float, workers: int) -> None:
        self.stub = ChatStub(delay_s)
        self._server = _PooledServer(self.stub, workers)
        self._thread = threading.Thread(target=self._server.serve_forever, name="stub-accept")
        self._thread.start()

    @property
    def base_url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/v1"

    def close(self) -> None:
        self._server.shutdown()
        self._thread.join()
        self._server.server_close()
