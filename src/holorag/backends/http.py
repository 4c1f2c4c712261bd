"""OpenAI-compatible chat-completions backend.

Generation posts to ``{base_url}/chat/completions`` at temperature 0 with a
budget of ``MAX_TOKENS`` tokens for every role and per-token log-probabilities
requested, passed on unchanged; a missing, non-numeric, non-finite or
positive one raises MissingLogprobsError.  Embeddings post to
``{base_url}/embeddings``.  Only a 2xx reply is a success.  Transport
failures, 429 and 5xx are retried; any other status, a 3xx included, fails
at once and names its status.  The base URL's http or https scheme, its host
and its port (none, or an integer in 0-65535) are checked on construction, as
a ConfigError before any request.  The transport is injectable so wire
transcripts replay in tests.

The real transport is the standard library's ``urllib.request``: one
connection per call, HTTPS through Python's default SSL context, proxies
from the ``*_proxy`` environment variables as set when this module is
imported, and no redirect followed.  It maps each outcome for ``_post``:

- a reply with a status, including an ``HTTPError`` (status >= 400 or a
  3xx), is ``(status, parsed body)``;
- a body that is not JSON, or not UTF-8, is a BackendUnavailableError;
- every other failure is a BackendUnavailableError too: an ``OSError``
  (urllib's ``URLError``, a refused connection, a timeout), an
  ``http.client.HTTPException`` and a ``ValueError`` (a URL urllib cannot
  use).  A bare ``OSError`` would exit as a user error.
"""

import http.client
import json
import os
import time
import urllib.error
import urllib.parse
import urllib.request
from typing import Callable, Optional, Tuple

from ..errors import BackendUnavailableError, ConfigError, MissingLogprobsError
from ..masking import Embedding
from .base import GenerationRequest, GenerationResult, ModelBackend
from .prompts import render_prompt

DEFAULT_API_KEY_ENV = "HOLORAG_API_KEY"
MAX_TOKENS = 256

# transport(url, payload, headers, timeout) -> (status_code, parsed_json_body)
Transport = Callable[[str, dict, dict, float], Tuple[int, dict]]


class _NoRedirects(urllib.request.HTTPRedirectHandler):
    """Leave a 3xx as an HTTPError: urllib would resend the API key to any host."""

    def redirect_request(self, req, fp, code, msg, headers, newurl):
        return None


_OPENER = urllib.request.build_opener(_NoRedirects)


def _urllib_transport(url: str, payload: dict, headers: dict, timeout: float) -> Tuple[int, dict]:
    try:
        data = json.dumps(payload, allow_nan=False).encode("utf-8")
        request = urllib.request.Request(url, data=data, headers=headers, method="POST")
        try:
            with _OPENER.open(request, timeout=timeout) as response:
                status, raw = response.status, response.read()
        except urllib.error.HTTPError as exc:
            with exc:
                status, raw = exc.code, exc.read()
    except (OSError, http.client.HTTPException, ValueError) as exc:
        raise BackendUnavailableError(f"request to {url} failed: {exc}") from exc
    try:
        return status, json.loads(raw)
    except ValueError as exc:
        raise BackendUnavailableError(f"non-JSON response from {url}") from exc


def resolve_api_key(api_key_env: str = DEFAULT_API_KEY_ENV) -> str:
    """Read the API key from the configured environment variable."""
    key = os.environ.get(api_key_env, "").strip()
    if not key:
        raise ConfigError(
            f"missing API key: set the {api_key_env} environment variable "
            f"(or switch to the mock backend)"
        )
    return key


class HttpBackend(ModelBackend):
    """Client for an OpenAI-compatible endpoint with bounded retries.

    On construction, a base URL that does not parse, is not http or https,
    has no host or has a port that is not an integer in 0-65535 is a
    ConfigError, and without an injected transport the API key is read from
    ``api_key_env`` once, so a missing key is a ConfigError before any request.
    """

    def __init__(
        self,
        base_url: str,
        model: str,
        api_key_env: str = DEFAULT_API_KEY_ENV,
        timeout: float = 30.0,
        max_retries: int = 2,
        transport: Optional[Transport] = None,
        retry_wait: float = 0.2,
    ):
        if not base_url:
            raise ConfigError("HTTP backend needs a base URL")
        try:
            parts = urllib.parse.urlsplit(base_url)
            parts.port  # raises ValueError unless the port is empty or 0-65535
        except ValueError as exc:
            raise ConfigError(f"malformed base URL {base_url!r}: {exc}") from exc
        if parts.scheme not in ("http", "https") or not parts.netloc:
            raise ConfigError(f"base URL must be http:// or https:// and a host, got {base_url!r}")
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.timeout = timeout
        self.max_retries = max_retries
        self.retry_wait = retry_wait
        self._headers = {"Content-Type": "application/json"}
        # only the real transport needs credentials; injected ones replay transcripts
        if transport is None:
            self._headers["Authorization"] = f"Bearer {resolve_api_key(api_key_env)}"
        self._transport = transport or _urllib_transport

    def _post(self, path: str, payload: dict) -> dict:
        url = f"{self.base_url}{path}"
        last_error: Optional[Exception] = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                time.sleep(self.retry_wait * attempt)
            try:
                status, body = self._transport(url, payload, self._headers, self.timeout)
            except BackendUnavailableError as exc:
                last_error = exc
                continue
            if 200 <= status < 300:
                return body
            last_error = BackendUnavailableError(f"{url} returned status {status}: {body}")
            if status < 500 and status != 429:
                raise last_error
        raise BackendUnavailableError(
            f"{url} failed after {self.max_retries + 1} attempts: {last_error}"
        )

    def generate(self, request: GenerationRequest) -> GenerationResult:
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": render_prompt(request)}],
            "temperature": 0,
            "logprobs": True,
            "max_tokens": MAX_TOKENS,
        }
        body = self._post("/chat/completions", payload)
        try:
            choice = body["choices"][0]
            text = choice["message"]["content"]
            if not isinstance(text, str):
                raise TypeError("message content is not a string")
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendUnavailableError(f"malformed completion response: {body!r}") from exc
        logprobs = choice.get("logprobs")
        content = logprobs.get("content") if isinstance(logprobs, dict) else None
        if not content:
            raise MissingLogprobsError(
                "backend returned no token log-probabilities; entropy routing "
                "cannot run (enable logprobs support or use the mock backend)"
            )
        finish = choice.get("finish_reason", "stop")
        if finish not in ("stop", "length"):
            finish = "error"
        try:
            token_logprobs = tuple(t["logprob"] for t in content)
            return GenerationResult(text, token_logprobs, finish)
        except (KeyError, TypeError, ValueError) as exc:
            raise MissingLogprobsError(f"malformed logprob entries ({exc}): {content!r}") from exc

    def embed_query(self, query: str) -> Embedding:
        body = self._post("/embeddings", {"model": self.model, "input": query})
        try:
            return Embedding(body["data"][0]["embedding"])
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise BackendUnavailableError(f"malformed embedding response: {body!r}") from exc
