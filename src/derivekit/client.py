"""Minimal chat-completions client: plain JSON over HTTP, no vendor SDK.

Requests carry {"model", "messages", "temperature"} and the bearer token
named by the config's environment variable. Transient 5xx responses and
connection drops are retried up to max_retries; auth failures, timeouts,
and malformed responses raise distinct exceptions.
"""
from __future__ import annotations

import http.client
import json
import os
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Optional


class ClientError(Exception):
    pass


class AuthError(ClientError):
    pass


class ModelTimeout(ClientError):
    pass


class MalformedResponse(ClientError):
    pass


class ServerError(ClientError):
    pass


@dataclass(frozen=True)
class EndpointConfig:
    base_url: str
    model: str
    token_env: str = "DERIVEKIT_API_TOKEN"
    temperature: float = 0.0
    timeout_s: float = 30.0
    max_retries: int = 2

    def url(self) -> str:
        return self.base_url.rstrip("/") + "/chat/completions"


def build_request_body(cfg: EndpointConfig, prompt: str) -> dict:
    return {
        "model": cfg.model,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": cfg.temperature,
    }


def query_model(cfg: EndpointConfig, prompt: str) -> str:
    """Send one chat-completions request and return the first choice text."""
    token = os.environ.get(cfg.token_env)
    if not token:
        raise AuthError(f"no API token in ${cfg.token_env}")
    body = json.dumps(build_request_body(cfg, prompt)).encode("utf-8")
    headers = {
        "Content-Type": "application/json",
        "Authorization": f"Bearer {token}",
    }
    last_error: Optional[Exception] = None
    for attempt in range(cfg.max_retries + 1):
        request = urllib.request.Request(cfg.url(), data=body, headers=headers, method="POST")
        try:
            with urllib.request.urlopen(request, timeout=cfg.timeout_s) as response:
                payload = response.read()
            return _extract_completion(payload)
        except urllib.error.HTTPError as exc:
            if exc.code in (401, 403):
                raise AuthError(f"authentication rejected (HTTP {exc.code})") from exc
            if 500 <= exc.code < 600:
                last_error = ServerError(f"HTTP {exc.code}")
                continue
            raise ClientError(f"HTTP {exc.code}") from exc
        except urllib.error.URLError as exc:
            if isinstance(exc.reason, TimeoutError):
                raise ModelTimeout(f"request timed out after {cfg.timeout_s}s") from exc
            last_error = exc
        except (http.client.HTTPException, ConnectionError) as exc:
            last_error = exc  # the connection dropped before a whole response came
        except TimeoutError as exc:
            raise ModelTimeout(f"request timed out after {cfg.timeout_s}s") from exc
    raise ServerError(f"no response after {cfg.max_retries + 1} attempts: {last_error}")


def _extract_completion(payload: bytes) -> str:
    try:
        data = json.loads(payload.decode("utf-8"))
        content = data["choices"][0]["message"]["content"]
    except (json.JSONDecodeError, KeyError, IndexError, TypeError, UnicodeDecodeError) as exc:
        raise MalformedResponse(f"unexpected completion payload: {exc}") from exc
    if not isinstance(content, str):
        raise MalformedResponse("completion content is not a string")
    return content
