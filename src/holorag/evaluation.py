"""Retrieval and end-to-end evaluation harness.

Retrieval quality is normalized DCG over the top 5 with binary gains;
generated answers are scored 1-5 by a judge backend, with 4 and 5 counted
correct.  Both modes run through one loop, ``_evaluate``: it validates the
config, checks that every gold document exists, picks each example's pool,
scores the examples independently (optionally in parallel), records or
re-raises each failure by ``skip_on_error`` and orders the rows by query_id.
A mode supplies only its ``score(example, pool)``.  The report stores the
rows, and every aggregate is computed from them.
"""

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Dict, Hashable, Iterable, Optional, Sequence, Set, Tuple, Union

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
        return asdict(self)


def _mean(values: Iterable[float]) -> Optional[float]:
    values = list(values)
    return sum(values) / len(values) if values else None


@dataclass(frozen=True)
class EvalReport:
    """Per-example rows ordered by query_id; every aggregate is computed from them."""

    mode: str
    per_example: Tuple[ExampleResult, ...]
    config: dict

    @property
    def mean_ndcg5(self) -> Optional[float]:
        return _mean(r.ndcg5 for r in self.per_example if r.ndcg5 is not None)

    @property
    def accuracy(self) -> Optional[float]:
        """Fraction of the judged examples scored 4 or 5."""
        return _mean(r.correct for r in self.per_example if r.judge_score is not None)

    @property
    def mean_decoupler_iterations(self) -> Optional[float]:
        return _mean(r.iterations for r in self.per_example if r.iterations is not None)

    def _route_count(self, kind: str) -> Optional[int]:
        return sum(r.route == kind for r in self.per_example) if self.mode == "e2e" else None

    @property
    def lqp_count(self) -> Optional[int]:
        return self._route_count(ROUTE_LQP)

    @property
    def hqp_count(self) -> Optional[int]:
        return self._route_count(ROUTE_HQP)

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
        retry = replace(request, iteration=1)
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


def _failed(example: QaExample, exc: HoloRagError, config: RunConfig, **fields) -> ExampleResult:
    """The error row of an example that raised ``exc``; re-raise it unless skip_on_error."""
    if not config.skip_on_error:
        raise exc
    return ExampleResult(query_id=example.query_id, error=f"{type(exc).__name__}: {exc}", **fields)


def _evaluate(
    mode: str,
    dataset: Sequence[QaExample],
    pools: Sequence[Pool],
    pool_mode: str,
    config: RunConfig,
    score: Callable[[QaExample, Pool], ExampleResult],
) -> EvalReport:
    """Score every example with ``score(example, pool)`` into a report of one mode.

    The config is validated, every gold document checked and every
    example's pool chosen before any example runs, so an invalid dataset
    fails before any backend call.  All-pool mode scores against one merged
    pool; single-pool mode against the pool that holds the example's gold
    documents.  A HoloRagError from ``score`` becomes the example's error row
    when skip_on_error is set and aborts the run otherwise.
    """
    config.validate()
    _check_gold_present(dataset, pools)
    by_name = pools_by_name(pools)
    examples = list(dataset)
    if pool_mode == "all":
        chosen = [merge_pools(pools)] * len(examples)
    else:
        chosen = [_single_pool_for(example, by_name) for example in examples]

    def run(example: QaExample, pool: Pool) -> ExampleResult:
        try:
            return score(example, pool)
        except HoloRagError as exc:
            return _failed(example, exc, config)

    if config.parallelism <= 1 or len(examples) <= 1:
        rows = list(map(run, examples, chosen))
    else:
        with ThreadPoolExecutor(max_workers=config.parallelism) as executor:
            rows = list(executor.map(run, examples, chosen))
    rows.sort(key=lambda r: r.query_id)
    return EvalReport(mode=mode, per_example=tuple(rows), config=config.to_dict())


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

    def score(example: QaExample, pool: Pool) -> ExampleResult:
        ranked = top_k(
            pool,
            backend.embed_query(example.query),
            NDCG_K,
            scoring=config.scoring_mode,
            alpha=config.alpha,
        )
        ndcg = ndcg_at_k(ranked.doc_keys(), set(example.gold_doc_ids), NDCG_K)
        return ExampleResult(query_id=example.query_id, ndcg5=ndcg)

    return _evaluate("retrieval", dataset, pools, pool_mode, config, score)


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
    A judge failure's row keeps the example's route.
    """

    def score(example: QaExample, pool: Pool) -> ExampleResult:
        trace = run_pipeline(example.query, pool, config, answer_backend)
        if trace.failed:
            raise trace.exception
        route = trace.route.kind
        try:
            judged, correct = judge_accuracy(
                trace.final_answer, example.gold_answer, judge_backend, query=example.query
            )
        except HoloRagError as exc:
            return _failed(example, exc, config, route=route)
        return ExampleResult(
            query_id=example.query_id,
            judge_score=judged,
            correct=correct,
            route=route,
            iterations=len(trace.fineprint_iterations),
            answer=trace.final_answer,
        )

    return _evaluate("e2e", dataset, pools, config.pool_mode, config, score)
