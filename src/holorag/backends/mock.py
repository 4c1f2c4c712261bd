"""Scripted mock backend for deterministic tests and offline runs.

Generation fixtures are keyed by (role, query, doc-id set, iteration);
query embedding fixtures by query text.  Strict mode errors on any miss;
lenient mode answers generation misses with a role-appropriate canned
response but never invents embeddings.
"""

import json
import threading
from pathlib import Path
from typing import Dict, FrozenSet, Sequence, Tuple, Union

import numpy as np

from ..errors import CorpusParseError, FixtureMissError
from ..masking import Embedding
from .base import GenerationRequest, GenerationResult, ModelBackend, PromptRole

GenKey = Tuple[str, str, FrozenSet[str], int]


def _canned_result(role: PromptRole) -> GenerationResult:
    if role == PromptRole.SUFFICIENCY_PROBE:
        return GenerationResult(text="NO - unscripted probe", token_probs=(1.0,))
    if role == PromptRole.JUDGE_SCORE:
        return GenerationResult(text="unscripted judgement\n1", token_probs=(1.0,))
    # low-confidence filler: entropy high enough to land on the deep path
    return GenerationResult(text="unknown", token_probs=(0.5, 0.5))


class MockBackend(ModelBackend):
    """Fixture-table backend; all lookups are serialized behind one lock."""

    def __init__(self, strict: bool = True):
        self.strict = strict
        self._lock = threading.Lock()
        self._generations: Dict[GenKey, GenerationResult] = {}
        self._embeddings: Dict[str, np.ndarray] = {}

    # -- fixture loading ---------------------------------------------------

    @classmethod
    def from_file(cls, path: Union[str, Path], strict: bool = True) -> "MockBackend":
        """Load fixtures from a JSON-lines file.

        Generation lines: {"role", "query", "docs": [ids], "iteration",
        "text", "token_probs"}.  Embedding lines: {"embed": "query", "key",
        "vector"}.  A malformed line raises CorpusParseError with its number.
        """
        backend = cls(strict=strict)
        path = Path(path)
        with path.open("r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    data = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise CorpusParseError(
                        f"line {line_number}: invalid JSON ({exc.msg})", line_number
                    ) from exc
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
                    raise CorpusParseError(
                        f"line {line_number}: missing fixture field {exc}", line_number
                    ) from exc
                except (TypeError, ValueError) as exc:
                    raise CorpusParseError(
                        f"line {line_number}: bad fixture ({exc})", line_number
                    ) from exc
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
        key = (PromptRole(role).value, query, frozenset(doc_ids), int(iteration))
        self._generations[key] = GenerationResult(
            text=text, token_probs=tuple(token_probs), finish_reason=finish_reason
        )

    def add_embedding(self, kind: str, key: str, vector: Sequence[float]) -> None:
        if kind != "query":
            raise ValueError(f"embedding kind must be 'query', got {kind!r}")
        self._embeddings[key] = np.asarray(vector, dtype=np.float64)

    # -- ModelBackend interface --------------------------------------------

    def embed_query(self, query: str) -> Embedding:
        with self._lock:
            vec = self._embeddings.get(query)
        if vec is None:
            raise FixtureMissError(f"no query embedding fixture for {query!r}")
        return Embedding(vec)

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
