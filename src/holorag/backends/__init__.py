from .base import (
    DOC_READING_ROLES,
    DocRef,
    GenerationRequest,
    GenerationResult,
    ModelBackend,
    PromptRole,
    parse_verdict,
)
from .http import HttpBackend, resolve_api_key
from .mock import MockBackend
from .prompts import load_template, render_prompt

__all__ = [
    "DOC_READING_ROLES",
    "DocRef",
    "GenerationRequest",
    "GenerationResult",
    "HttpBackend",
    "MockBackend",
    "ModelBackend",
    "PromptRole",
    "load_template",
    "parse_verdict",
    "render_prompt",
    "resolve_api_key",
]
