"""Uncertainty-guided four-agent answer pipeline.

Stages: retrieve, prune the ranking down to a sufficient buffer, measure the
entropy of an initial answer, then route.  Low-uncertainty queries go
straight to synthesis; high-uncertainty queries get salient-knowledge
extraction and iterative fine-print mining first.  The initial answer exists
only to be measured: it is never fed back into any later request.

Each stage takes the documents it reads.  Every generation call in the
package, the judge's in ``evaluation`` included, goes through ``_generate``,
which builds, sends and logs one request.
Every run produces an AnswerTrace whose agent log uses logical step counters
(never wall-clock time) so identical runs serialize byte-identically.
"""

import json
import math
from dataclasses import asdict, dataclass, field
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .backends.base import (
    DocRef,
    GenerationRequest,
    GenerationResult,
    ModelBackend,
    PromptRole,
    parse_verdict,
)
from .config import RunConfig
from .errors import EmptySequenceError, HoloRagError
from .index import Pool, RankedResult, top_k

ROUTE_LQP = "LQP"
ROUTE_HQP = "HQP"

SALIENT_DOC_ID = "knowledge:salient"
DECOUPLED_DOC_ID = "knowledge:decoupled"


@dataclass(frozen=True)
class UncertaintyScore:
    """Average token entropy, raw and normalized to [0, 1]."""

    raw_entropy: float
    normalized: float
    token_count: int


@dataclass(frozen=True)
class RouteDecision:
    """LQP/HQP classification of one query-document pair."""

    kind: str
    threshold: float
    score: UncertaintyScore

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class PrunedSet:
    """Buffer contents at pruning termination; always a ranking prefix."""

    selected: Tuple[DocRef, ...]
    n_used: int
    capacity: int
    terminated_early: bool

    def to_dict(self) -> dict:
        return {
            "selected": [ref.doc_id for ref in self.selected],
            "n_used": self.n_used,
            "capacity": self.capacity,
            "terminated_early": self.terminated_early,
        }


class FineprintIteration(NamedTuple):
    mined: str
    decoupled: str


@dataclass(frozen=True)
class AnswerTrace:
    """Complete audit record of one pipeline run."""

    query: str
    config: dict
    ranked: Optional[RankedResult]
    pruned: Optional[PrunedSet]
    route: Optional[RouteDecision]
    salient: Optional[str]
    fineprint_iterations: Tuple[FineprintIteration, ...]
    final_answer: Optional[str]
    error: Optional[str]
    agent_log: Tuple[dict, ...]
    # the error a failed run caught, so callers keep its family; not serialized
    exception: Optional[HoloRagError] = field(default=None, compare=False, repr=False)

    @property
    def failed(self) -> bool:
        return self.error is not None

    def to_dict(self) -> dict:
        return {
            "query": self.query,
            "config": self.config,
            "ranked": self.ranked.to_dict() if self.ranked else None,
            "pruned": self.pruned.to_dict() if self.pruned else None,
            "route": self.route.to_dict() if self.route else None,
            "salient": self.salient,
            "fineprint_iterations": [
                {"mined": it.mined, "decoupled": it.decoupled}
                for it in self.fineprint_iterations
            ],
            "final_answer": self.final_answer,
            "error": self.error,
            "agent_log": list(self.agent_log),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), ensure_ascii=False, indent=2)


def answer_entropy(result: GenerationResult) -> UncertaintyScore:
    """Average entropy of the emitted tokens, normalized to [0, 1].

    raw = -(1/L) * sum(e^lp * lp) over the result's token logprobs, which
    GenerationResult has already checked to be finite and <= 0.  Each term
    -p ln p peaks at p = 1/e, so raw is at most 1/e and e * raw normalizes it,
    clamped against floating-point overshoot.  A term tends to 0 as
    lp -> -inf, so a very unlikely token adds 0 instead of failing.
    """
    logprobs = result.token_logprobs
    if not logprobs:
        raise EmptySequenceError("entropy of an empty token sequence is undefined")
    raw = -sum(math.exp(lp) * lp for lp in logprobs) / len(logprobs)
    normalized = min(1.0, max(0.0, math.e * raw))
    return UncertaintyScore(raw_entropy=raw, normalized=normalized, token_count=len(logprobs))


def decide_route(normalized: float, h: float) -> str:
    """LQP below the threshold, HQP at or above it (ties take the deep path)."""
    return ROUTE_LQP if normalized < h else ROUTE_HQP


def classify_pair(result: GenerationResult, h: float) -> RouteDecision:
    """Classify a measured initial answer against the uncertainty threshold."""
    if not (0.0 < h < 1.0):
        raise ValueError(f"uncertainty threshold must be in (0, 1), got {h}")
    score = answer_entropy(result)
    return RouteDecision(kind=decide_route(score.normalized, h), threshold=h, score=score)


def _log_event(log: Optional[List[dict]], agent: str, action: str, **detail) -> None:
    if log is not None:
        log.append({"step": len(log) + 1, "agent": agent, "action": action, **detail})


def _generate(
    backend: ModelBackend,
    log: Optional[List[dict]],
    agent: str,
    role: PromptRole,
    query: str,
    docs: Sequence[DocRef],
    prior: Optional[str] = None,
    iteration: int = 0,
) -> GenerationResult:
    """Build, send and log one request: the package's only generation call.

    The "generate" event is appended to ``log`` after the call returns, so a
    call that raises leaves no event; with ``log`` None nothing is logged.
    """
    request = GenerationRequest(
        prompt_role=role,
        query=query,
        context_docs=tuple(docs),
        prior=prior,
        iteration=iteration,
    )
    result = backend.generate(request)
    _log_event(
        log,
        agent,
        "generate",
        role=role.value,
        doc_ids=list(request.doc_ids()),
        doc_texts=[ref.text or "" for ref in request.context_docs],
        prior=prior,
        iteration=iteration,
        output=result.text,
    )
    return result


def prune(
    query: str,
    candidates: Sequence[DocRef],
    k: int,
    backend: ModelBackend,
    log: Optional[List[dict]] = None,
) -> PrunedSet:
    """Admit ranked documents one at a time until a probe says they suffice.

    ``candidates`` are the ranked documents, best first, with the text the
    probes read.  After each admission the whole buffer is probed; the first
    positive verdict stops early.  If no probe ever succeeds the buffer keeps
    the top min(k, len(candidates)) documents.  A failing probe's error
    propagates.
    """
    if k < 1:
        raise ValueError("buffer capacity k must be >= 1")
    if not candidates:
        raise ValueError("cannot prune an empty ranking")
    limit = min(k, len(candidates))
    top = tuple(candidates[:limit])
    for n in range(1, limit + 1):
        probe = _generate(
            backend, log, "pruner", PromptRole.SUFFICIENCY_PROBE, query, top[:n], iteration=n
        )
        sufficient = parse_verdict(probe.text)
        _log_event(log, "pruner", "verdict", n=n, sufficient=sufficient)
        if sufficient:
            return PrunedSet(selected=top[:n], n_used=n, capacity=k, terminated_early=True)
    return PrunedSet(selected=top, n_used=limit, capacity=k, terminated_early=False)


def extract_salient(
    query: str,
    pruned: Sequence[DocRef],
    backend: ModelBackend,
    log: Optional[List[dict]] = None,
) -> str:
    """Pull the visually prominent, query-relevant knowledge from the buffer."""
    return _generate(backend, log, "decoupler", PromptRole.SALIENT_EXTRACT, query, pruned).text


def decouple(
    query: str,
    salient: str,
    backend: ModelBackend,
    max_iters: int,
    log: Optional[List[dict]] = None,
) -> Tuple[FineprintIteration, ...]:
    """Iteratively mine fine-print knowledge anchored on the salient summary.

    Each iteration mines details from (salient, previous decoupled knowledge)
    and then decouples the mined details from the salient anchor.  After each
    iteration an answerability probe runs on the decoupled knowledge alone;
    the loop stops early on a positive verdict, else at ``max_iters``.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    anchor = (DocRef(doc_id=SALIENT_DOC_ID, text=salient),)
    iterations: List[FineprintIteration] = []
    previous = ""
    for t in range(1, max_iters + 1):
        mined = _generate(
            backend, log, "decoupler", PromptRole.FINEPRINT_MINE, query, anchor, previous, t
        ).text
        decoupled = _generate(
            backend, log, "decoupler", PromptRole.DECOUPLE, query, anchor, mined, t
        ).text
        iterations.append(FineprintIteration(mined=mined, decoupled=decoupled))
        previous = decoupled
        fineprint = (DocRef(doc_id=DECOUPLED_DOC_ID, text=decoupled),)
        probe = _generate(
            backend, log, "decoupler", PromptRole.SUFFICIENCY_PROBE, query, fineprint, iteration=t
        )
        sufficient = parse_verdict(probe.text)
        _log_event(log, "decoupler", "answerable", t=t, sufficient=sufficient)
        if sufficient:
            break
    return tuple(iterations)


def summarize(
    query: str,
    context: Sequence[DocRef],
    backend: ModelBackend,
    log: Optional[List[dict]] = None,
) -> str:
    """Synthesize the final answer from ``context``.

    The low-uncertainty path passes the pruned documents; the
    high-uncertainty path passes the salient and decoupled fine-print
    knowledge as two documents.  An empty context raises ValueError.
    """
    return _generate(backend, log, "summarizer", PromptRole.SUMMARIZE, query, context).text


def run_pipeline(query: str, pool: Pool, config: RunConfig, backend: ModelBackend) -> AnswerTrace:
    """Run the whole retrieve-prune-judge-generate pipeline for one query.

    Stage failures do not raise: the trace records the error event and comes
    back without a final answer.  An empty pool raises EmptySequenceError and
    an invalid ``config`` raises ConfigError before any backend call.  The
    trace echoes ``config.to_dict()``.
    """
    if len(pool) == 0:
        raise EmptySequenceError("pipeline needs a nonempty pool")
    config.validate()
    config_echo = config.to_dict()

    log: List[dict] = []
    ranked: Optional[RankedResult] = None
    pruned: Optional[PrunedSet] = None
    route: Optional[RouteDecision] = None
    salient: Optional[str] = None
    iterations: Tuple[FineprintIteration, ...] = ()
    final: Optional[str] = None
    error: Optional[str] = None
    exception: Optional[HoloRagError] = None

    try:
        query_embedding = backend.embed_query(query)
        ranked = top_k(
            pool,
            query_embedding,
            config.k,
            scoring=config.scoring_mode,
            alpha=config.alpha,
        )
        _log_event(
            log,
            "retriever",
            "retrieve",
            pool=pool.name,
            k=config.k,
            doc_ids=[e.doc_id for e in ranked.entries],
        )
        metadata = [pool.metadata[pool.rows[key]] for key in ranked.doc_keys()]
        candidates = [
            DocRef(doc_id=entry.doc_id, text=meta.get("text"), image=meta.get("image"))
            for entry, meta in zip(ranked.entries, metadata)
        ]
        pruned = prune(query, candidates, config.k, backend, log=log)

        initial = _generate(backend, log, "judger", PromptRole.ANSWER, query, pruned.selected)

        route = classify_pair(initial, config.h)
        # measured for uncertainty only; the text is never reused downstream
        _log_event(
            log,
            "judger",
            "route",
            kind=route.kind,
            normalized_entropy=route.score.normalized,
            initial_answer=initial.text,
        )

        if route.kind == ROUTE_LQP:
            context: Sequence[DocRef] = pruned.selected
        else:
            salient = extract_salient(query, pruned.selected, backend, log=log)
            iterations = decouple(query, salient, backend, config.max_iters, log=log)
            context = (
                DocRef(doc_id=SALIENT_DOC_ID, text=salient),
                DocRef(doc_id=DECOUPLED_DOC_ID, text=iterations[-1].decoupled),
            )
        final = summarize(query, context, backend, log=log)
        _log_event(log, "summarizer", "final", answer=final)
    except HoloRagError as exc:
        exception = exc
        error = f"{type(exc).__name__}: {exc}"
        _log_event(log, "pipeline", "error", message=error)

    return AnswerTrace(
        query=query,
        config=config_echo,
        ranked=ranked,
        pruned=pruned,
        route=route,
        salient=salient,
        fineprint_iterations=iterations,
        final_answer=final,
        error=error,
        agent_log=tuple(log),
        exception=exception,
    )


def initial_answer_leaked(trace: AnswerTrace) -> bool:
    """Audit a trace for reuse of the measured initial answer.

    True if the initial answer text appears in the prior or context of any
    generation request issued after the routing decision.
    """
    initial: Optional[str] = None
    for event in trace.agent_log:
        if initial is None:
            if event.get("action") == "route":
                initial = event.get("initial_answer")
            continue
        if event.get("action") != "generate":
            continue
        haystacks = [event.get("prior") or ""]
        haystacks.extend(event.get("doc_texts", []))
        if any(initial in h for h in haystacks if initial):
            return True
    return False
