"""OpenAI-compatible chat-completions backend.

Generation posts to ``{base_url}/chat/completions`` at temperature 0 with a
budget of ``MAX_TOKENS`` tokens for every role and per-token log-probabilities
requested, passed on unchanged; a missing, non-numeric, non-finite or
positive one raises MissingLogprobsError.  Embeddings post to
``{base_url}/embeddings``.  Only a 2xx reply is a success.  Transport
failures, 429 and 5xx are retried; any other status, a 3xx included, fails
at once and names its status.  Before a retry ``_post`` sleeps what a 429 or
5xx reply's ``Retry-After`` asks (delta-seconds or an HTTP-date, RFC 9110
§10.2.3), at most ``RETRY_AFTER_CAP_S``; otherwise it sleeps a full-jitter
exponential backoff, ``uniform(0, RETRY_WAIT_S * 2**(attempt - 1))``.  The
base URL's http or https scheme, its host, its port (none, or an integer in
0-65535) and its lack of a query or fragment are checked on construction,
as are the syntax and the port of the proxy URL in use: each is a
ConfigError before any request.

The transport is the standard library's ``http.client``.  Each thread
keeps one HTTP/1.1 connection per backend alive and sends every request
through it: ``http.client`` connections are not thread-safe, and
``evaluate_e2e`` shares one backend across its worker threads.  HTTPS goes
through Python's default SSL context, and no redirect is followed.  Two
rules keep a kept-alive connection in step with its replies:

- any exception while a request is sent or its reply read closes the
  connection, so a late or half-read reply never answers the next request;
- a reused connection that fails with a reset, a broken pipe or a close
  before the reply's head arrives (the server dropped it while idle) is
  resent once, at once, on a fresh connection.  That resend is not an
  attempt and does not sleep; the same failure on a fresh connection is.

Proxies come from the ``*_proxy`` environment variables, read with
``urllib.request.getproxies`` when the backend is constructed, and a host
that ``no_proxy`` names goes direct.  An http:// request goes to the proxy
with the absolute URL as its target; an https:// one tunnels through it
with CONNECT.  Credentials in the proxy URL go out as
``Proxy-Authorization``.  A thread's connection closes when the thread ends
or the backend is discarded.  The transport maps each outcome for ``_post``:

- a reply with a status, any status, is ``(status, parsed body, headers)``;
- a body that is not JSON, or not UTF-8, is a BackendUnavailableError;
- every other failure is a BackendUnavailableError too: an ``OSError`` (a
  refused connection, a timeout, a failed tunnel), an
  ``http.client.HTTPException`` and a ``ValueError`` (a URL that
  ``http.client`` cannot use).  A bare ``OSError`` would exit as a user error.
"""

import base64
import email.utils
import http.client
import json
import os
import random
import ssl
import threading
import time
import urllib.parse
import urllib.request
import weakref
from datetime import timezone
from typing import Optional

from ..errors import BackendUnavailableError, ConfigError, MissingLogprobsError
from ..masking import Embedding
from .base import GenerationRequest, GenerationResult, ModelBackend
from .prompts import render_prompt

DEFAULT_API_KEY_ENV = "HOLORAG_API_KEY"
MAX_TOKENS = 256
RETRY_WAIT_S = 0.2  # the full-jitter backoff's bound before the first retry; it doubles per retry
RETRY_AFTER_CAP_S = 30.0  # a longer Retry-After is cut to this, so no run stalls for hours


class _OwnedConnection:
    """A thread's connection, closed when the thread ends or the transport is discarded.

    A finalizer, not ``__del__``: when the transport dies in a reference cycle,
    the collector runs finalizer callbacks before it finalizes the socket.
    """

    def __init__(self, conn: http.client.HTTPConnection):
        self.conn = conn
        weakref.finalize(self, conn.close)


class _KeepAliveTransport:
    """One kept-alive connection per thread to one origin or its proxy."""

    def __init__(self, base_url: str):
        parts = urllib.parse.urlsplit(base_url)
        self._origin = self._address = parts.netloc.rpartition("@")[2]
        self._context = ssl.create_default_context() if parts.scheme == "https" else None
        self._proxy_headers = {}
        proxy = urllib.request.getproxies().get(parts.scheme)
        self._proxied = bool(proxy) and not urllib.request.proxy_bypass(parts.netloc)
        if self._proxied:
            try:
                proxy_parts = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
                proxy_parts.port  # raises ValueError unless the port is empty or 0-65535
            except ValueError as exc:  # the URL is not echoed: it may hold a password
                raise ConfigError(f"malformed {parts.scheme} proxy URL: {exc}") from exc
            self._address = proxy_parts.netloc.rpartition("@")[2]
            if proxy_parts.username is not None:
                user = urllib.parse.unquote(proxy_parts.username)
                password = urllib.parse.unquote(proxy_parts.password or "")
                token = base64.b64encode(f"{user}:{password}".encode()).decode("ascii")
                self._proxy_headers["Proxy-Authorization"] = f"Basic {token}"
        self._local = threading.local()

    def _connection(self) -> http.client.HTTPConnection:
        owned = getattr(self._local, "owned", None)
        if owned is None:
            if self._context is None:
                conn = http.client.HTTPConnection(self._address)
            else:
                conn = http.client.HTTPSConnection(self._address, context=self._context)
                if self._proxied:
                    conn.set_tunnel(self._origin, headers=self._proxy_headers)
            owned = self._local.owned = _OwnedConnection(conn)
        return owned.conn

    def _exchange(self, target: str, body: bytes, headers: dict, timeout: float):
        conn = self._connection()
        while True:
            reused, response = conn.sock is not None, None
            conn.timeout = timeout
            if reused:
                conn.sock.settimeout(timeout)
            try:
                conn.request("POST", target, body, headers)
                response = conn.getresponse()
                return response.status, response.read(), response.headers
            except BaseException as exc:
                conn.close()  # drop it: what is left on it must not answer the next request
                stale = isinstance(exc, (ConnectionResetError, BrokenPipeError))
                if not (reused and response is None and stale):
                    raise

    def __call__(self, url: str, payload: dict, headers: dict, timeout: float):
        try:
            body = json.dumps(payload, allow_nan=False).encode("utf-8")
            if self._proxied and self._context is None:  # http:// through a proxy
                target, headers = url, {**headers, **self._proxy_headers}
            else:
                parts = urllib.parse.urlsplit(url)
                target = urllib.parse.urlunsplit(("", "", parts.path or "/", parts.query, ""))
            status, raw, reply_headers = self._exchange(target, body, headers, timeout)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            raise BackendUnavailableError(f"request to {url} failed: {exc}") from exc
        try:
            return status, json.loads(raw), reply_headers
        except ValueError as exc:
            raise BackendUnavailableError(f"non-JSON response from {url}") from exc


def _retry_after(value: Optional[str]) -> Optional[float]:
    """Seconds a ``Retry-After`` value asks for, at most RETRY_AFTER_CAP_S.

    The value is delta-seconds or an HTTP-date; None when it is absent or
    neither, and a date in the past asks for 0.
    """
    if value is None:
        return None
    value = value.strip()
    if value.isascii() and value.isdigit():
        seconds = float(value)
    else:
        try:
            when = email.utils.parsedate_to_datetime(value)
        except (TypeError, ValueError):
            return None
        if when.tzinfo is None:  # an HTTP-date is always in GMT
            when = when.replace(tzinfo=timezone.utc)
        seconds = when.timestamp() - time.time()
    return min(max(seconds, 0.0), RETRY_AFTER_CAP_S)


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
    has no host, has a port that is not an integer in 0-65535 or carries a
    query or a fragment is a ConfigError, and so is a malformed proxy URL.
    The API key is read from ``api_key_env`` once, so a missing key is a
    ConfigError before any request.
    """

    def __init__(
        self,
        base_url: str,
        model: str,
        api_key_env: str = DEFAULT_API_KEY_ENV,
        timeout: float = 30.0,
        max_retries: int = 2,
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
        if "?" in base_url or "#" in base_url:
            # "/embeddings" would land in the query or be dropped with the fragment
            raise ConfigError(f"malformed base URL {base_url!r}: it has a query or fragment")
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.timeout = timeout
        self.max_retries = max_retries
        key = resolve_api_key(api_key_env)
        self._headers = {"Content-Type": "application/json", "Authorization": f"Bearer {key}"}
        self._transport = _KeepAliveTransport(self.base_url)

    def _post(self, path: str, payload: dict) -> dict:
        url = f"{self.base_url}{path}"
        # the last failure's message only: a kept exception's traceback holds
        # this frame, which would keep the backend alive in a reference cycle
        failure = ""
        retry_after: Optional[float] = None  # seconds the last refusal asked to wait
        for attempt in range(self.max_retries + 1):
            if attempt:
                backoff_cap = RETRY_WAIT_S * 2 ** (attempt - 1)
                time.sleep(random.uniform(0.0, backoff_cap) if retry_after is None else retry_after)
            retry_after = None
            try:
                status, body, reply_headers = self._transport(
                    url, payload, self._headers, self.timeout
                )
            except BackendUnavailableError as exc:
                failure = str(exc)
                continue
            if 200 <= status < 300:
                return body
            failure = f"{url} returned status {status}: {body}"
            if status < 500 and status != 429:
                raise BackendUnavailableError(failure)
            retry_after = _retry_after(reply_headers.get("Retry-After"))
        raise BackendUnavailableError(
            f"{url} failed after {self.max_retries + 1} attempts: {failure}"
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
