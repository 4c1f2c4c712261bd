"""Prompt template loading and rendering.

Templates are versioned text artifacts shipped with the package, one per
prompt role.  The template's placeholders are filled in one pass, each
literally (no format-string parsing), so a query, document or prior that
contains braces, or a placeholder's name, is never filled again.  The judge's
retry (``iteration`` >= 1) gets a corrective line after its template: at
temperature 0 an unchanged prompt would get the same unparseable reply.
"""

import re
from functools import lru_cache
from importlib import resources

from .base import GenerationRequest, PromptRole

# Appended, never prepended: a server may route on the prompt's first line.
JUDGE_RETRY_NOTE = (
    "\nYour previous reply did not end with a bare score. Reply again, and put "
    "only the integer score, 1-5, on the final line.\n"
)

_PLACEHOLDER = re.compile(r"\{(query|context|prior)\}")


@lru_cache(maxsize=None)
def load_template(role: PromptRole) -> str:
    """Read the template text for a role from the packaged template files."""
    name = f"{PromptRole(role).value}.txt"
    return (resources.files("holorag.backends") / "templates" / name).read_text("utf-8")


def render_context(request: GenerationRequest) -> str:
    """One "[doc_id] text" line per context document."""
    lines = []
    for ref in request.context_docs:
        body = ref.text if ref.text is not None else (ref.image or "")
        lines.append(f"[{ref.doc_id}] {body}".rstrip())
    return "\n".join(lines)


def render_prompt(request: GenerationRequest) -> str:
    """Fill a role template with the request's query, context, and prior.

    The judge's retry, at ``iteration`` >= 1, ends with JUDGE_RETRY_NOTE.
    """
    values = {
        "query": request.query,
        "context": render_context(request),
        "prior": request.prior or "(none)",
    }
    text = _PLACEHOLDER.sub(lambda match: values[match[1]], load_template(request.prompt_role))
    if request.prompt_role is PromptRole.JUDGE_SCORE and request.iteration >= 1:
        text += JUDGE_RETRY_NOTE
    return text
