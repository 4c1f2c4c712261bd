"""Retrieval and end-to-end evaluation harness.

Retrieval quality is normalized DCG over the top 5 with binary gains;
generated answers are scored 1-5 by a judge backend, with 4 and 5 counted
correct.  Examples evaluate independently (optionally in parallel) and the
report is a deterministic reduction ordered by query_id.
"""

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Hashable, Optional, Sequence, Set, Tuple, Union

from .backends.base import DocRef, GenerationRequest, ModelBackend, PromptRole
from .config import RunConfig
from .errors import HoloRagError, MissingGoldDocumentError, UnparseableScoreError
from .index import Pool, merge_pools, pools_by_name, top_k
from .jsonl import json_objects, line_error
from .pipeline import ROUTE_HQP, ROUTE_LQP, run_pipeline

NDCG_K = 5
CORRECT_THRESHOLD = 4


@dataclass(frozen=True)
class QaExample:
    """One evaluation item: a query, its gold documents, and the gold answer."""

    query_id: str
    query: str
    gold_doc_ids: frozenset  # of (pool_name, doc_id)
    gold_answer: str

    def __post_init__(self):
        if not all(isinstance(v, str) for v in (self.query_id, self.query, self.gold_answer)):
            raise TypeError("query_id, query and gold_answer must be strings")
        object.__setattr__(self, "gold_doc_ids", frozenset(tuple(g) for g in self.gold_doc_ids))
        if not self.gold_doc_ids:
            raise ValueError(f"example {self.query_id!r} has no gold documents")


@dataclass(frozen=True)
class ExampleResult:
    query_id: str
    ndcg5: Optional[float] = None
    judge_score: Optional[int] = None
    correct: Optional[bool] = None
    route: Optional[str] = None
    iterations: Optional[int] = None
    answer: Optional[str] = None
    error: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "query_id": self.query_id,
            "ndcg5": self.ndcg5,
            "judge_score": self.judge_score,
            "correct": self.correct,
            "route": self.route,
            "iterations": self.iterations,
            "answer": self.answer,
            "error": self.error,
        }


@dataclass(frozen=True)
class EvalReport:
    """Per-example rows plus aggregates; accuracy is the fraction scored >= 4."""

    mode: str
    per_example: Tuple[ExampleResult, ...]
    mean_ndcg5: Optional[float]
    accuracy: Optional[float]
    lqp_count: Optional[int]
    hqp_count: Optional[int]
    mean_decoupler_iterations: Optional[float]
    config: dict

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "aggregates": {
                "mean_ndcg5": self.mean_ndcg5,
                "accuracy": self.accuracy,
                "lqp_count": self.lqp_count,
                "hqp_count": self.hqp_count,
                "mean_decoupler_iterations": self.mean_decoupler_iterations,
                "examples": len(self.per_example),
            },
            "per_example": [r.to_dict() for r in self.per_example],
            "config": self.config,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), ensure_ascii=False, indent=2)

    def render_table(self) -> str:
        """Small fixed-width table for terminal output."""
        lines = [f"{'query_id':<16} {'ndcg@5':>8} {'score':>6} {'correct':>8} {'route':>6}"]
        for row in self.per_example:
            ndcg = f"{row.ndcg5:.4f}" if row.ndcg5 is not None else "-"
            score = str(row.judge_score) if row.judge_score is not None else "-"
            correct = {True: "yes", False: "no", None: "-"}[row.correct]
            route = row.route or ("error" if row.error else "-")
            lines.append(f"{row.query_id:<16} {ndcg:>8} {score:>6} {correct:>8} {route:>6}")
        return "\n".join(lines)


def load_dataset(path: Union[str, Path]) -> Tuple[QaExample, ...]:
    """Read a JSON-lines dataset of QA examples with `jsonl.json_objects`.

    Lines look like {"query_id", "query", "gold_doc_ids": [{"pool", "doc_id"},
    ...], "gold_answer"}; other keys are ignored.
    """
    examples = []
    with Path(path).open("rb") as handle:
        for line_number, data in json_objects(handle):
            try:
                gold = frozenset((g["pool"], g["doc_id"]) for g in data["gold_doc_ids"])
                examples.append(
                    QaExample(
                        query_id=data["query_id"],
                        query=data["query"],
                        gold_doc_ids=gold,
                        gold_answer=data["gold_answer"],
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise line_error(line_number, f"malformed example ({exc})") from exc
    return tuple(examples)


def ndcg_at_k(ranked: Sequence[Hashable], relevant: Set[Hashable], k: int = NDCG_K) -> float:
    """Normalized DCG with binary gains over the top k.

    A relevant document at rank r contributes 1/log2(r + 1); the ideal DCG
    places min(|relevant|, k) relevant documents at the top.  Empty relevance
    scores 0.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not relevant:
        return 0.0
    dcg = 0.0
    for i, doc in enumerate(ranked[:k]):
        if doc in relevant:
            dcg += 1.0 / math.log2(i + 2)
    ideal = sum(1.0 / math.log2(i + 2) for i in range(min(len(relevant), k)))
    return dcg / ideal


def _parse_judge_score(text: str) -> int:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise UnparseableScoreError("judge response was empty")
    last = lines[-1]
    if last not in ("1", "2", "3", "4", "5"):
        raise UnparseableScoreError(f"expected a bare 1-5 on the final line, got {last!r}")
    return int(last)


def judge_accuracy(
    prediction: str,
    gold: str,
    judge: ModelBackend,
    query: str = "",
) -> Tuple[int, bool]:
    """Score a prediction against the gold answer on the 1-5 judge scale.

    The judge sees only the query, the prediction, and the gold answer, and
    must end its reply with a bare integer.  One retry on an unparseable
    response, then the error propagates.  Scores of 4 or 5 count as correct.
    """
    request = GenerationRequest(
        prompt_role=PromptRole.JUDGE_SCORE,
        query=query,
        context_docs=(
            DocRef(doc_id="prediction", text=prediction),
            DocRef(doc_id="gold", text=gold),
        ),
    )
    try:
        score = _parse_judge_score(judge.generate(request).text)
    except UnparseableScoreError:
        retry = GenerationRequest(
            prompt_role=PromptRole.JUDGE_SCORE,
            query=query,
            context_docs=request.context_docs,
            iteration=1,
        )
        score = _parse_judge_score(judge.generate(retry).text)
    return score, score >= CORRECT_THRESHOLD


def _single_pool_for(example: QaExample, by_name: Dict[str, Pool]) -> Pool:
    names = {pool_name for pool_name, _ in example.gold_doc_ids}
    if len(names) != 1:
        raise MissingGoldDocumentError(
            f"example {example.query_id!r} spans pools {sorted(names)}; "
            f"single-pool mode needs exactly one"
        )
    name = names.pop()
    if name not in by_name:
        raise MissingGoldDocumentError(
            f"example {example.query_id!r} references unknown pool {name!r}"
        )
    return by_name[name]


def _check_gold_present(dataset: Sequence[QaExample], pools: Sequence[Pool]) -> None:
    for example in dataset:
        missing = {
            key for key in example.gold_doc_ids if not any(key in p.rows for p in pools)
        }
        if missing:
            raise MissingGoldDocumentError(
                f"example {example.query_id!r} references missing documents "
                f"{sorted(missing)}"
            )


def _run_parallel(worker, items, parallelism: int):
    if parallelism <= 1 or len(items) <= 1:
        return [worker(item) for item in items]
    with ThreadPoolExecutor(max_workers=parallelism) as executor:
        return list(executor.map(worker, items))


def evaluate_retrieval(
    dataset: Sequence[QaExample],
    pool_mode: str,
    pools: Sequence[Pool],
    backend: ModelBackend,
    config: Optional[RunConfig] = None,
) -> EvalReport:
    """Mean nDCG@5 of top-5 retrieval over the dataset.

    Single-pool mode restricts each example to the pool its gold documents
    live in; all-pool mode retrieves from the merged corpus.
    """
    config = config or RunConfig()
    _check_gold_present(dataset, pools)
    by_name = pools_by_name(pools)
    merged = merge_pools(pools) if pool_mode == "all" else None

    def worker(example: QaExample) -> ExampleResult:
        pool = merged if pool_mode == "all" else _single_pool_for(example, by_name)
        try:
            query_embedding = backend.embed_query(example.query)
            ranked = top_k(
                pool,
                query_embedding,
                NDCG_K,
                scoring=config.scoring_mode,
                alpha=config.alpha,
                eps=config.eps,
            )
            score = ndcg_at_k(ranked.doc_keys(), set(example.gold_doc_ids), NDCG_K)
            return ExampleResult(query_id=example.query_id, ndcg5=score)
        except HoloRagError as exc:
            if not config.skip_on_error:
                raise
            return ExampleResult(query_id=example.query_id, error=f"{type(exc).__name__}: {exc}")

    results = sorted(
        _run_parallel(worker, list(dataset), config.parallelism), key=lambda r: r.query_id
    )
    scored = [r.ndcg5 for r in results if r.ndcg5 is not None]
    return EvalReport(
        mode="retrieval",
        per_example=tuple(results),
        mean_ndcg5=(sum(scored) / len(scored)) if scored else None,
        accuracy=None,
        lqp_count=None,
        hqp_count=None,
        mean_decoupler_iterations=None,
        config=config.to_dict(),
    )


def evaluate_e2e(
    dataset: Sequence[QaExample],
    pools: Sequence[Pool],
    config: RunConfig,
    answer_backend: ModelBackend,
    judge_backend: ModelBackend,
) -> EvalReport:
    """Run the full pipeline per example and judge every final answer.

    Accuracy is the fraction of judged examples scoring 4 or 5.  Failed
    examples are recorded and excluded from accuracy when skip_on_error is
    set; otherwise the first failure aborts the run with that example's error.
    """
    _check_gold_present(dataset, pools)
    by_name = pools_by_name(pools)
    merged = merge_pools(pools) if config.pool_mode == "all" else None

    def worker(example: QaExample) -> ExampleResult:
        pool = merged if config.pool_mode == "all" else _single_pool_for(example, by_name)
        trace = run_pipeline(example.query, pool, config, answer_backend)
        if trace.failed:
            if not config.skip_on_error:
                raise trace.exception
            return ExampleResult(query_id=example.query_id, error=trace.error)
        try:
            score, correct = judge_accuracy(
                trace.final_answer, example.gold_answer, judge_backend, query=example.query
            )
        except HoloRagError as exc:
            if not config.skip_on_error:
                raise
            return ExampleResult(
                query_id=example.query_id,
                route=trace.route.kind if trace.route else None,
                error=f"{type(exc).__name__}: {exc}",
            )
        return ExampleResult(
            query_id=example.query_id,
            judge_score=score,
            correct=correct,
            route=trace.route.kind if trace.route else None,
            iterations=len(trace.fineprint_iterations),
            answer=trace.final_answer,
        )

    results = _run_parallel(worker, list(dataset), config.parallelism)
    results = tuple(sorted(results, key=lambda r: r.query_id))

    judged = [r for r in results if r.judge_score is not None]
    routed = [r for r in results if r.route is not None]
    iteration_counts = [r.iterations for r in results if r.iterations is not None]
    return EvalReport(
        mode="e2e",
        per_example=results,
        mean_ndcg5=None,
        accuracy=(sum(1 for r in judged if r.correct) / len(judged)) if judged else None,
        lqp_count=sum(1 for r in routed if r.route == ROUTE_LQP),
        hqp_count=sum(1 for r in routed if r.route == ROUTE_HQP),
        mean_decoupler_iterations=(
            sum(iteration_counts) / len(iteration_counts) if iteration_counts else None
        ),
        config=config.to_dict(),
    )
