"""Abstract boundary to the vision-language model.

Backends embed queries and generate text with per-token log-probabilities.
Requests carry a prompt role that selects the template and the constrained
output shape the pipeline parses.
"""

import math
import re
from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

from ..errors import ProbabilityOutOfRangeError, UnparseableVerdictError
from ..masking import Embedding, check_numbers


class PromptRole(str, Enum):
    ANSWER = "answer"
    SUFFICIENCY_PROBE = "sufficiency_probe"
    SALIENT_EXTRACT = "salient_extract"
    FINEPRINT_MINE = "fineprint_mine"
    DECOUPLE = "decouple"
    SUMMARIZE = "summarize"
    JUDGE_SCORE = "judge_score"


# Roles whose prompts read retrieved material; their requests need context docs.
DOC_READING_ROLES = frozenset(
    {
        PromptRole.ANSWER,
        PromptRole.SUFFICIENCY_PROBE,
        PromptRole.SALIENT_EXTRACT,
        PromptRole.SUMMARIZE,
        PromptRole.JUDGE_SCORE,
    }
)

FINISH_REASONS = ("stop", "length", "error")


@dataclass(frozen=True)
class DocRef:
    """Reference to one context item: id plus optional text or image handle."""

    doc_id: str
    text: Optional[str] = None
    image: Optional[str] = None


@dataclass(frozen=True)
class GenerationRequest:
    """One backend invocation.

    ``prior`` carries the previous iteration's knowledge for the iterative
    mining roles; ``iteration`` numbers repeat calls with the same role and
    context so scripted backends can distinguish them.
    """

    prompt_role: PromptRole
    query: str
    context_docs: Tuple[DocRef, ...] = ()
    prior: Optional[str] = None
    iteration: int = 0

    def __post_init__(self):
        object.__setattr__(self, "prompt_role", PromptRole(self.prompt_role))
        object.__setattr__(self, "context_docs", tuple(self.context_docs))
        if self.prompt_role in DOC_READING_ROLES and not self.context_docs:
            raise ValueError(f"role {self.prompt_role.value} requires context documents")

    def doc_ids(self) -> Tuple[str, ...]:
        return tuple(ref.doc_id for ref in self.context_docs)


@dataclass(frozen=True)
class GenerationResult:
    """Generated text plus the natural-log probability of each emitted token.

    The one check on token confidence: each logprob is a number, finite and <= 0, unclamped.
    """

    text: str
    token_logprobs: Tuple[float, ...]
    finish_reason: str = "stop"

    def __post_init__(self):
        if not isinstance(self.text, str):
            raise TypeError(f"text must be a string, got {type(self.text).__name__}")
        check_numbers(self.token_logprobs, "token logprobs")
        logprobs = tuple(float(lp) for lp in self.token_logprobs)
        for lp in logprobs:
            if not (math.isfinite(lp) and lp <= 0.0):
                raise ProbabilityOutOfRangeError(f"token logprob {lp} is not finite and <= 0")
        object.__setattr__(self, "token_logprobs", logprobs)
        if self.finish_reason not in FINISH_REASONS:
            raise ValueError(f"finish_reason must be one of {FINISH_REASONS}")


_VERDICT_RE = re.compile(r"[a-zA-Z]+")


def parse_verdict(text: str) -> bool:
    """Parse a constrained yes/no response: True for "yes", False for "no".

    The first alphabetic word must be "yes" or "no" (any case); the rest of
    the response is ignored.  Anything else is an error, never a silent
    default.
    """
    match = _VERDICT_RE.search(text)
    if match is None:
        raise UnparseableVerdictError(f"no yes/no found in {text!r}")
    word = match.group(0).lower()
    if word not in ("yes", "no"):
        raise UnparseableVerdictError(f"expected yes or no, got {match.group(0)!r}")
    return word == "yes"


class ModelBackend(ABC):
    """Embedding + generation provider; implementations must be thread-safe."""

    @abstractmethod
    def embed_query(self, query: str) -> Embedding:
        """Embed a textual query."""

    @abstractmethod
    def generate(self, request: GenerationRequest) -> GenerationResult:
        """Run one generation request."""
