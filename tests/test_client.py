"""Chat-completions client tests against an in-process mock server."""
import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from derivekit.client import (
    AuthError,
    ClientError,
    EndpointConfig,
    MalformedResponse,
    ModelTimeout,
    ServerError,
    build_request_body,
    query_model,
)


class MockChatHandler(BaseHTTPRequestHandler):
    """Scriptable chat-completions endpoint; behaviour set per server."""

    def log_message(self, *args):
        pass

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        self.server.requests.append(
            {"path": self.path, "auth": self.headers.get("Authorization"), "body": body}
        )
        plan = self.server.plan
        action = plan[0] if len(plan) == 1 else plan.pop(0)
        if action == "echo":
            content = body["messages"][0]["content"]
            self._reply(200, {"choices": [{"message": {"content": content}}]})
        elif action == "500":
            self._reply(500, {"error": "transient"})
        elif action == "401":
            self._reply(401, {"error": "bad token"})
        elif action == "404":
            self._reply(404, {"error": "no such model"})
        elif action == "number":
            self._reply(200, {"choices": [{"message": {"content": 5}}]})
        elif action == "garbage":
            self._reply(200, {"unexpected": True})
        elif action == "sleep":
            time.sleep(1.0)
            self._reply(200, {"choices": [{"message": {"content": "late"}}]})
        elif action == "close":  # no reply at all: the connection just closes
            self.close_connection = True
        elif action == "truncate":  # a body cut short of its Content-Length
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", "100")
            self.end_headers()
            self.wfile.write(b'{"choices": ')
            self.close_connection = True

    def _reply(self, status, payload):
        data = json.dumps(payload).encode()
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
        except BrokenPipeError:
            pass  # client gave up (timeout tests)


@pytest.fixture
def mock_server():
    server = HTTPServer(("127.0.0.1", 0), MockChatHandler)
    server.plan = ["echo"]
    server.requests = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()


def make_config(server, **kwargs) -> EndpointConfig:
    defaults = dict(
        base_url=f"http://127.0.0.1:{server.server_address[1]}/v1",
        model="mock-model",
        token_env="DERIVEKIT_TEST_TOKEN",
        timeout_s=5.0,
        max_retries=2,
    )
    defaults.update(kwargs)
    return EndpointConfig(**defaults)


@pytest.fixture(autouse=True)
def token_env(monkeypatch):
    monkeypatch.setenv("DERIVEKIT_TEST_TOKEN", "secret-token")


def test_echo_round_trip(mock_server):
    cfg = make_config(mock_server)
    out = query_model(cfg, "Given $x = 1$, then obtain $x = 1$")
    assert out == "Given $x = 1$, then obtain $x = 1$"
    assert mock_server.requests[0]["path"] == "/v1/chat/completions"
    assert mock_server.requests[0]["auth"] == "Bearer secret-token"


def test_request_body_carries_temperature_zero(mock_server):
    cfg = make_config(mock_server)
    query_model(cfg, "hello")
    body = mock_server.requests[0]["body"]
    assert body["model"] == "mock-model"
    assert body["temperature"] == 0.0
    assert body["messages"] == [{"role": "user", "content": "hello"}]
    assert build_request_body(cfg, "p")["temperature"] == 0.0


def test_retries_once_on_transient_500(mock_server):
    mock_server.plan = ["500", "echo"]
    cfg = make_config(mock_server, max_retries=1)
    assert query_model(cfg, "retry me") == "retry me"
    assert len(mock_server.requests) == 2


def test_persistent_500_surfaces_server_error(mock_server):
    mock_server.plan = ["500"]
    cfg = make_config(mock_server, max_retries=1)
    with pytest.raises(ServerError):
        query_model(cfg, "x")
    assert len(mock_server.requests) == 2


def test_auth_failure_distinct_and_not_retried(mock_server):
    mock_server.plan = ["401"]
    cfg = make_config(mock_server)
    with pytest.raises(AuthError):
        query_model(cfg, "x")
    assert len(mock_server.requests) == 1


def test_missing_token_is_auth_error(mock_server, monkeypatch):
    monkeypatch.delenv("DERIVEKIT_TEST_TOKEN")
    cfg = make_config(mock_server)
    with pytest.raises(AuthError):
        query_model(cfg, "x")
    assert not mock_server.requests


def test_timeout_distinct(mock_server):
    mock_server.plan = ["sleep"]
    cfg = make_config(mock_server, timeout_s=0.2, max_retries=0)
    with pytest.raises(ModelTimeout):
        query_model(cfg, "x")


def test_malformed_response_distinct(mock_server):
    mock_server.plan = ["garbage"]
    cfg = make_config(mock_server)
    with pytest.raises(MalformedResponse):
        query_model(cfg, "x")


def test_other_http_errors_are_client_errors_and_not_retried(mock_server):
    mock_server.plan = ["404"]
    with pytest.raises(ClientError, match="HTTP 404"):
        query_model(make_config(mock_server), "x")
    assert len(mock_server.requests) == 1


def test_non_string_content_is_malformed(mock_server):
    mock_server.plan = ["number"]
    with pytest.raises(MalformedResponse, match="not a string"):
        query_model(make_config(mock_server), "x")


def test_refused_connections_are_retried_then_a_server_error():
    with socket.socket() as sock:  # a port that nothing listens on once closed
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    cfg = EndpointConfig(base_url=f"http://127.0.0.1:{port}/v1", model="m",
                         token_env="DERIVEKIT_TEST_TOKEN", max_retries=1)
    with pytest.raises(ServerError, match="no response after 2 attempts"):
        query_model(cfg, "x")


@pytest.mark.parametrize("drop", ["close", "truncate"])
def test_dropped_connections_are_retried_then_a_server_error(mock_server, drop):
    mock_server.plan = [drop]
    cfg = make_config(mock_server, max_retries=2)
    with pytest.raises(ServerError, match="no response after 3 attempts"):
        query_model(cfg, "x")
    assert len(mock_server.requests) == 3


@pytest.mark.parametrize("drop", ["close", "truncate"])
def test_a_dropped_connection_then_a_reply_succeeds(mock_server, drop):
    mock_server.plan = [drop, "echo"]
    assert query_model(make_config(mock_server, max_retries=1), "again") == "again"
    assert len(mock_server.requests) == 2
