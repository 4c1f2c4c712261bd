"""Scripted mock backend for deterministic tests and offline runs.

Generation fixtures are keyed by (role, query, doc-id set, iteration);
query embedding fixtures by query text.  Strict mode errors on any miss;
lenient mode answers generation misses with a role-appropriate canned
response but never invents embeddings.
"""

import math
import operator
import threading
from pathlib import Path
from typing import Dict, FrozenSet, Sequence, Tuple, Union

from ..errors import FixtureMissError
from ..jsonl import json_objects, line_error
from ..masking import Embedding
from .base import GenerationRequest, GenerationResult, ModelBackend, PromptRole

GenKey = Tuple[str, str, FrozenSet[str], int]


def _canned_result(role: PromptRole) -> GenerationResult:
    if role == PromptRole.SUFFICIENCY_PROBE:
        return GenerationResult(text="NO - unscripted probe", token_logprobs=(0.0,))
    if role == PromptRole.JUDGE_SCORE:
        return GenerationResult(text="unscripted judgement\n1", token_logprobs=(0.0,))
    # low-confidence filler: entropy high enough to land on the deep path
    return GenerationResult(text="unknown", token_logprobs=(math.log(0.5),) * 2)


def _check_str(name: str, value) -> None:
    if not isinstance(value, str):
        raise TypeError(f"{name} must be a string, got {type(value).__name__}")


class MockBackend(ModelBackend):
    """Fixture-table backend; all lookups are serialized behind one lock."""

    def __init__(self, strict: bool = True):
        self.strict = strict
        self._lock = threading.Lock()
        self._generations: Dict[GenKey, GenerationResult] = {}
        self._embeddings: Dict[str, Embedding] = {}

    # -- fixture loading ---------------------------------------------------

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "MockBackend":
        """Load fixtures from a JSON-lines file read by `jsonl.json_objects` into a strict backend.

        Generation lines: {"role", "query", "docs": [ids], "iteration",
        "text", "token_probs"}; each probability in (0, 1] becomes a logprob.
        Embedding lines: {"embed": "query", "key", "vector"}.  A malformed line,
        a query, key or doc id that is not a string, an empty or out-of-range
        probability list, or a vector that `Embedding` rejects raises
        CorpusParseError with its number.
        """
        backend = cls()
        with Path(path).open("rb") as handle:
            for line_number, data in json_objects(handle):
                try:
                    if "embed" in data:
                        backend.add_embedding(data["embed"], data["key"], data["vector"])
                    else:
                        backend.add_generation(
                            role=data["role"],
                            query=data["query"],
                            doc_ids=data["docs"],
                            iteration=data.get("iteration", 0),
                            text=data["text"],
                            token_probs=data["token_probs"],
                            finish_reason=data.get("finish_reason", "stop"),
                        )
                except KeyError as exc:
                    raise line_error(line_number, f"missing fixture field {exc}") from exc
                except (TypeError, ValueError) as exc:
                    raise line_error(line_number, f"bad fixture ({exc})") from exc
        return backend

    def add_generation(
        self,
        role: Union[str, PromptRole],
        query: str,
        doc_ids: Sequence[str],
        iteration: int = 0,
        text: str = "",
        token_probs: Sequence[float] = (1.0,),
        finish_reason: str = "stop",
    ) -> None:
        _check_str("query", query)
        if isinstance(doc_ids, str):
            raise TypeError(f"docs must be a list of strings, got the string {doc_ids!r}")
        for doc_id in doc_ids:
            _check_str("each doc id", doc_id)
        key = (PromptRole(role).value, query, frozenset(doc_ids), operator.index(iteration))
        logprobs = tuple(math.log(p) for p in token_probs)
        if not logprobs:
            raise ValueError("token_probs must not be empty")
        self._generations[key] = GenerationResult(text, logprobs, finish_reason)

    def add_embedding(self, kind: str, key: str, vector: Sequence[float]) -> None:
        if kind != "query":
            raise ValueError(f"embedding kind must be 'query', got {kind!r}")
        _check_str("key", key)
        self._embeddings[key] = Embedding(vector)

    # -- ModelBackend interface --------------------------------------------

    def embed_query(self, query: str) -> Embedding:
        with self._lock:
            embedding = self._embeddings.get(query)
        if embedding is None:
            raise FixtureMissError(f"no query embedding fixture for {query!r}")
        return embedding

    def generate(self, request: GenerationRequest) -> GenerationResult:
        key = (
            request.prompt_role.value,
            request.query,
            frozenset(request.doc_ids()),
            request.iteration,
        )
        with self._lock:
            result = self._generations.get(key)
        if result is not None:
            return result
        if self.strict:
            raise FixtureMissError(
                f"no fixture for role={key[0]} query={key[1]!r} "
                f"docs={sorted(key[2])} iteration={key[3]}"
            )
        return _canned_result(request.prompt_role)
