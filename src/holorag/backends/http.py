"""OpenAI-compatible chat-completions backend.

Generation posts to ``{base_url}/chat/completions`` at temperature 0 with
per-token log-probabilities requested, passed on unchanged; a missing,
non-numeric, non-finite or positive one raises MissingLogprobsError.
Embeddings post to ``{base_url}/embeddings``.  Transport failures, 429 and 5xx
are retried.  The transport is injectable so wire transcripts replay in tests.
"""

import os
import time
from typing import Callable, Optional, Tuple

from ..errors import BackendUnavailableError, ConfigError, MissingLogprobsError
from ..masking import Embedding
from .base import GenerationRequest, GenerationResult, ModelBackend
from .prompts import render_prompt

DEFAULT_API_KEY_ENV = "HOLORAG_API_KEY"

# transport(url, payload, headers, timeout) -> (status_code, parsed_json_body)
Transport = Callable[[str, dict, dict, float], Tuple[int, dict]]


def _requests_transport(url: str, payload: dict, headers: dict, timeout: float) -> Tuple[int, dict]:
    import requests

    try:
        response = requests.post(url, json=payload, headers=headers, timeout=timeout)
    except requests.RequestException as exc:
        raise BackendUnavailableError(f"request to {url} failed: {exc}") from exc
    try:
        body = response.json()
    except ValueError as exc:
        raise BackendUnavailableError(f"non-JSON response from {url}") from exc
    return response.status_code, body


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
    """Client for an OpenAI-compatible endpoint with bounded retries."""

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
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.api_key_env = api_key_env
        self.timeout = timeout
        self.max_retries = max_retries
        self.retry_wait = retry_wait
        self._transport = transport or _requests_transport
        # only the real transport needs credentials; injected ones replay transcripts
        self._needs_key = transport is None

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        if self._needs_key:
            headers["Authorization"] = f"Bearer {resolve_api_key(self.api_key_env)}"
        return headers

    def _post(self, path: str, payload: dict) -> dict:
        url = f"{self.base_url}{path}"
        last_error: Optional[Exception] = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                time.sleep(self.retry_wait * attempt)
            try:
                status, body = self._transport(url, payload, self._headers(), self.timeout)
            except BackendUnavailableError as exc:
                last_error = exc
                continue
            if status < 400:
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
            "max_tokens": request.max_tokens,
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
