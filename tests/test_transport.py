"""Chat transports: scripted replay semantics and HTTP retry behaviour."""

import json
import random
import threading
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
import requests

from lookahead.agents.transport import (
    ChatRequest,
    MAX_RETRY_AFTER_SECONDS,
    HttpTransport,
    ScriptedTransport,
    TransportError,
    approx_tokens,
)


# A jitter source at the middle of [0, 1): each backoff wait is then exactly
# backoff_seconds * 2 ** (k - 1).
MIDPOINT = lambda: 0.5  # noqa: E731


def make_request(prompt: str = "evaluate this state please") -> ChatRequest:
    return ChatRequest(model="test-model", prompt=prompt)


class TestScriptedTransport:
    def test_replays_in_order(self):
        transport = ScriptedTransport(["first reply", "second reply"])
        assert transport.send(make_request()).text == "first reply"
        assert transport.send(make_request()).text == "second reply"

    def test_exhaustion_raises(self):
        transport = ScriptedTransport(["only one"])
        transport.send(make_request())
        with pytest.raises(TransportError, match="exhausted after 1"):
            transport.send(make_request())

    def test_usage_is_whitespace_tokens(self):
        transport = ScriptedTransport(["three word reply"])
        response = transport.send(make_request("two words"))
        assert response.completion_tokens == 3
        assert response.prompt_tokens == approx_tokens("two words")

    def test_records_requests(self):
        transport = ScriptedTransport(["a", "b"])
        transport.send(make_request("first prompt"))
        transport.send(make_request("second prompt"))
        assert [r.prompt for r in transport.requests_seen] == [
            "first prompt",
            "second prompt",
        ]

    def test_send_consumes_n_entries(self):
        transport = ScriptedTransport(["a b", "c", "d e f", "g"])
        response = transport.send(replace(make_request("two words"), n=3))
        assert response.texts == ("a b", "c", "d e f")
        assert response.text == "a b"
        assert response.completion_tokens == 6
        assert response.prompt_tokens == approx_tokens("two words")
        assert transport.send(make_request()).texts == ("g",)
        with pytest.raises(TransportError, match="exhausted after 4"):
            transport.send(make_request())

    def test_not_concurrent_safe(self):
        assert ScriptedTransport([]).concurrent_safe is False


class FakeResponse:
    def __init__(
        self,
        payload: dict | None,
        status: int = 200,
        raw: str | None = None,
        headers: dict | None = None,
    ):
        self._payload = payload
        self._raw = raw
        self.status_code = status
        self.headers = headers or {}

    def raise_for_status(self):
        if self.status_code >= 400:
            raise requests.HTTPError(f"status {self.status_code}")

    def json(self):
        if self._payload is None:
            raise ValueError(f"invalid JSON: {self._raw!r}")
        return self._payload


def ok_payload(*texts: str, prompt: int = 11, completion: int = 7) -> dict:
    return {
        "choices": [
            {"index": i, "message": {"content": text}}
            for i, text in enumerate(texts or ("fine",))
        ],
        "usage": {"prompt_tokens": prompt, "completion_tokens": completion},
    }


class TestHttpTransport:
    def test_success_parses_usage(self):
        calls = []

        def fake_post(url, json=None, headers=None, timeout=None):
            calls.append((url, json, headers, timeout))
            return FakeResponse(ok_payload("the verdict"))

        transport = HttpTransport(
            "http://example.test/v1/", post=fake_post, sleep=lambda s: None
        )
        response = transport.send(make_request())
        assert response == transport.send(make_request())  # pure replay of the double
        assert response.text == "the verdict"
        assert (response.prompt_tokens, response.completion_tokens) == (11, 7)
        url, payload, headers, timeout = calls[0]
        assert url == "http://example.test/v1/chat/completions"
        assert payload == {
            "model": "test-model",
            "messages": [{"role": "user", "content": "evaluate this state please"}],
            "temperature": 1.0,
            "max_tokens": 3192,
            "n": 1,
        }
        assert timeout == 120.0

    def test_sends_n_and_returns_every_choice_in_order(self):
        payloads = []

        def fake_post(url, json=None, headers=None, timeout=None):
            payloads.append(json)
            return FakeResponse(ok_payload("first", "second", "third"))

        transport = HttpTransport(
            "http://example.test", post=fake_post, sleep=lambda s: None
        )
        response = transport.send(replace(make_request(), n=3))
        assert payloads[0]["n"] == 3
        assert response.texts == ("first", "second", "third")
        assert response.text == "first"
        assert (response.prompt_tokens, response.completion_tokens) == (11, 7)

    def test_wrong_choice_count_is_retried_then_raises(self):
        attempts = []

        def fake_post(url, json=None, headers=None, timeout=None):
            attempts.append(json["n"])
            return FakeResponse(ok_payload("only", "two"))

        transport = HttpTransport(
            "http://example.test", post=fake_post, sleep=lambda s: None
        )
        with pytest.raises(TransportError, match="expected 3 choices, got 2"):
            transport.send(replace(make_request(), n=3))
        assert attempts == [3, 3, 3]

    @pytest.mark.parametrize("status", [400, 401, 404])
    def test_client_error_status_fails_fast(self, status):
        attempts = []
        sleeps = []

        def fake_post(url, json=None, headers=None, timeout=None):
            attempts.append(url)
            return FakeResponse(None, status=status)

        transport = HttpTransport(
            "http://example.test", post=fake_post, sleep=sleeps.append
        )
        with pytest.raises(TransportError, match=f"HTTP status {status}"):
            transport.send(make_request())
        assert len(attempts) == 1
        assert sleeps == []

    def test_rate_limit_status_is_retried(self):
        responses = [FakeResponse(None, status=429), FakeResponse(ok_payload("later"))]
        sleeps = []

        def fake_post(url, json=None, headers=None, timeout=None):
            return responses.pop(0)

        transport = HttpTransport(
            "http://example.test", post=fake_post, sleep=sleeps.append, random=MIDPOINT
        )
        assert transport.send(make_request()).text == "later"
        assert sleeps == [0.5]

    @staticmethod
    def waits(responses, random=MIDPOINT):
        """The delays a transport sleeps through while ``responses`` are served."""
        sleeps = []

        def fake_post(url, json=None, headers=None, timeout=None):
            return responses.pop(0)

        transport = HttpTransport(
            "http://example.test", post=fake_post, sleep=sleeps.append, random=random
        )
        assert transport.send(make_request()).text == "later"
        return sleeps

    @pytest.mark.parametrize(
        "status, retry_after, wait",
        [
            (429, "2", 2.0),
            (503, "2", 2.0),
            (429, "0.25", 0.25),
            (429, "86400", MAX_RETRY_AFTER_SECONDS),
            (503, "1e308", MAX_RETRY_AFTER_SECONDS),
            (429, None, 0.5),
            (429, "soon", 0.5),
            (503, "Wed, 21 Oct 2015 07:28:00 GMT", 0.5),
            (429, "-3", 0.5),
            (429, "nan", 0.5),
        ],
    )
    def test_retry_after_replaces_the_backoff_delay(self, status, retry_after, wait):
        headers = {} if retry_after is None else {"Retry-After": retry_after}
        failed = FakeResponse(None, status=status, headers=headers)
        assert self.waits([failed, FakeResponse(ok_payload("later"))]) == [wait]

    def test_retry_after_sets_only_the_wait_after_its_own_attempt(self):
        responses = [
            FakeResponse(None, status=429, headers={"Retry-After": "7"}),
            FakeResponse(None, status=503),
            FakeResponse(ok_payload("later")),
        ]
        assert self.waits(responses) == [7.0, 1.0]

    def test_retry_after_on_other_server_errors_is_ignored(self):
        failed = FakeResponse(None, status=500, headers={"Retry-After": "7"})
        assert self.waits([failed, FakeResponse(ok_payload("later"))]) == [0.5]

    def test_authorization_header_from_env(self, monkeypatch):
        seen = {}

        def fake_post(url, json=None, headers=None, timeout=None):
            seen.update(headers)
            return FakeResponse(ok_payload())

        monkeypatch.setenv("LOOKAHEAD_API_KEY", "sk-test-123")
        HttpTransport("http://example.test", post=fake_post, sleep=lambda s: None).send(
            make_request()
        )
        assert seen["Authorization"] == "Bearer sk-test-123"

    def test_no_header_when_env_missing(self, monkeypatch):
        seen = {}

        def fake_post(url, json=None, headers=None, timeout=None):
            seen.update(headers)
            return FakeResponse(ok_payload())

        monkeypatch.delenv("LOOKAHEAD_API_KEY", raising=False)
        HttpTransport("http://example.test", post=fake_post, sleep=lambda s: None).send(
            make_request()
        )
        assert "Authorization" not in seen

    def test_retries_with_exponential_backoff(self):
        attempts = []
        sleeps = []

        def flaky_post(url, json=None, headers=None, timeout=None):
            attempts.append(url)
            if len(attempts) < 3:
                raise requests.ConnectionError("refused")
            return FakeResponse(ok_payload("recovered"))

        transport = HttpTransport(
            "http://example.test", post=flaky_post, sleep=sleeps.append, random=MIDPOINT
        )
        assert transport.send(make_request()).text == "recovered"
        assert len(attempts) == 3
        assert sleeps == [0.5, 1.0]

    @pytest.mark.parametrize("draw", [0.0, 0.25, 0.999999])
    def test_backoff_is_jittered_over_half_to_one_and_a_half_steps(self, draw):
        responses = [
            FakeResponse(None, status=500),
            FakeResponse(None, status=429),
            FakeResponse(ok_payload("later")),
        ]
        waits = self.waits(responses, random=lambda: draw)
        assert waits == [0.5 * (0.5 + draw), 1.0 * (0.5 + draw)]
        assert 0.25 <= waits[0] < 0.75 and 0.5 <= waits[1] < 1.5

    def test_retry_after_wait_is_not_jittered(self):
        draws = []

        def source():
            draws.append(None)
            return 0.0

        responses = [
            FakeResponse(None, status=503, headers={"Retry-After": "2"}),
            FakeResponse(None, status=500),
            FakeResponse(ok_payload("later")),
        ]
        assert self.waits(responses, random=source) == [2.0, 0.5]
        assert len(draws) == 1  # only the backoff wait drew

    def test_default_jitter_source_is_random_random(self):
        state = random.getstate()
        try:
            random.seed(1234)
            expected = [0.5 * (0.5 + random.random()), 1.0 * (0.5 + random.random())]
            random.seed(1234)
            sleeps = []
            failures = [requests.ConnectionError("refused")] * 2

            def flaky_post(url, json=None, headers=None, timeout=None):
                if failures:
                    raise failures.pop()
                return FakeResponse(ok_payload("recovered"))

            HttpTransport("http://example.test", post=flaky_post, sleep=sleeps.append).send(
                make_request()
            )
        finally:
            random.setstate(state)
        assert sleeps == expected

    def test_gives_up_after_max_attempts(self):
        attempts = []

        def failing_post(url, json=None, headers=None, timeout=None):
            attempts.append(url)
            raise requests.ConnectionError("refused")

        transport = HttpTransport("http://example.test", post=failing_post, sleep=lambda s: None)
        with pytest.raises(TransportError, match="after 3 attempts"):
            transport.send(make_request())
        assert len(attempts) == 3

    def test_http_error_status_is_retried(self):
        responses = [FakeResponse(None, status=500), FakeResponse(ok_payload("ok now"))]

        def fake_post(url, json=None, headers=None, timeout=None):
            return responses.pop(0)

        transport = HttpTransport(
            "http://example.test", post=fake_post, sleep=lambda s: None
        )
        assert transport.send(make_request()).text == "ok now"

    def test_malformed_body_is_retried(self):
        responses = [
            FakeResponse(None, raw="<html>gateway error</html>"),
            FakeResponse({"choices": []}),
            FakeResponse(ok_payload("eventually")),
        ]

        def fake_post(url, json=None, headers=None, timeout=None):
            return responses.pop(0)

        transport = HttpTransport(
            "http://example.test", post=fake_post, sleep=lambda s: None
        )
        assert transport.send(make_request()).text == "eventually"

    @pytest.mark.parametrize(
        "body,fault",
        [
            (
                {**ok_payload(), "usage": {"prompt_tokens": None, "completion_tokens": 7}},
                "reply 'usage': 'prompt_tokens' must be an int of at least 0, got None",
            ),
            ([ok_payload()], "reply body must be a JSON object"),
            ({**ok_payload(), "usage": None}, "reply 'usage' must be a JSON object"),
            ({"choices": None}, "reply 'choices' must be a list of objects, got None"),
            (
                {"choices": [{"message": {"content": None}}]},
                "reply choice 0: 'content' must be a string, got None",
            ),
            (
                {**ok_payload(), "usage": {"prompt_tokens": -5, "completion_tokens": 7}},
                "reply 'usage': 'prompt_tokens' must be an int of at least 0, got -5",
            ),
        ],
        ids=["null-count", "list-body", "null-usage", "null-choices", "null-content",
             "negative-count"],
    )
    def test_a_malformed_body_is_retried_then_raises(self, body, fault):
        attempts = []

        def fake_post(url, json=None, headers=None, timeout=None):
            attempts.append(url)
            return FakeResponse(body)

        transport = HttpTransport("http://example.test", post=fake_post, sleep=lambda s: None)
        with pytest.raises(TransportError) as failure:
            transport.send(make_request())
        assert str(failure.value) == f"chat completion failed after 3 attempts: {fault}"
        assert len(attempts) == 3

    def test_missing_usage_defaults_to_zero(self):
        def fake_post(url, json=None, headers=None, timeout=None):
            return FakeResponse({"choices": [{"message": {"content": "bare"}}]})

        response = HttpTransport(
            "http://example.test", post=fake_post, sleep=lambda s: None
        ).send(make_request())
        assert (response.prompt_tokens, response.completion_tokens) == (0, 0)

    def test_each_request_asks_a_real_server_to_close_its_connection(self):
        # An HTTP/1.1 server keeps a connection (and, thread per connection,
        # its worker) open after replying unless the request asks to close it.
        seen = []

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_POST(self):
                seen.append(self.headers.get("Connection"))
                self.rfile.read(int(self.headers["Content-Length"]))
                body = json.dumps(ok_payload("served")).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            transport = HttpTransport(f"http://127.0.0.1:{server.server_port}/v1")
            assert transport.send(make_request()).text == "served"
        finally:
            server.shutdown()
            server.server_close()
            thread.join()
        assert seen == ["close"]
