"""Retrieval workload: masked ``evaluate_retrieval`` over a seeded corpus.

One client sends one query per ``evaluate_retrieval`` call and waits for the
result before the next (a closed loop).  Set-up ingests a JSON-lines corpus,
saves it as a snapshot, loads that snapshot and runs one warm-up ``top_k``,
so the index's write side is timed beside its reads.  Every returned top-5
is checked against a numpy brute-force ranking.
"""

import gc
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import holorag.evaluation as evaluation
import holorag.index as index
from holorag.backends.mock import MockBackend
from holorag.config import RunConfig
from holorag.masking import DEFAULT_ALPHA, DEFAULT_EPS

import datagen
from common import Outcome, median, peak_rss_mb, percentile
from tracing import TracedBackend, trace_layers

K = evaluation.NDCG_K
SCORE_TOLERANCE = 1e-9
MIN_OPS = 1  # per timed window
SETUP_REPS = 3  # each followed by a timed window of queries


@dataclass(frozen=True)
class RetrievalSpec:
    collection: datagen.CollectionSpec
    queries: int = 256


def masked_scores(matrix: np.ndarray, q: np.ndarray, alpha: float, eps: float) -> np.ndarray:
    """Row-wise hybrid-mask cosine, the documented ``scoring="masked"`` rule.

    Scored once per distinct row, so duplicate rows get exactly the same
    score and tie, as they do in ``top_k``'s per-record loop.
    """
    unique, inverse = np.unique(matrix, axis=0, return_inverse=True)
    scores = np.zeros(len(unique))
    norms = np.linalg.norm(unique, axis=1)
    rows = np.flatnonzero(norms > 0.0)
    docs = unique[rows]
    raw = np.abs((q / np.linalg.norm(q)) * (docs / norms[rows, None]))
    z = (raw - raw.mean(axis=1, keepdims=True)) / (raw.std(axis=1, keepdims=True) + eps)
    s = 1.0 / (1.0 + np.exp(-z))
    mu = s.mean(axis=1, keepdims=True)
    sigma = s.std(axis=1, keepdims=True)
    weights = ((s > mu - alpha * sigma).astype(float) + (s > mu + alpha * sigma)) / 2.0
    weights[sigma[:, 0] < eps] = 1.0
    masked = docs * weights
    mnorm = np.linalg.norm(masked, axis=1)
    ok = mnorm > 0.0
    scores[rows[ok]] = (masked[ok] @ q) / (np.linalg.norm(q) * mnorm[ok])
    return scores[inverse.reshape(-1)]


def _ndcg(keys, gold) -> float:
    # one gold document, so the ideal DCG is 1
    return sum(1.0 / math.log2(i + 2) for i, key in enumerate(keys[:K]) if key in gold)


def check_ranking(ranked, expected: np.ndarray, n: int) -> str:
    """Empty string if ``ranked`` is the top-K of ``expected``, else why not.

    Scores must match within SCORE_TOLERANCE and entries must be ordered by
    the returned score descending, then doc_id, then pool.  The set must be
    the brute-force top-K.  Exact ties go by ascending doc_id, as ``top_k``
    documents: tied entries must be in doc_id order, and of the documents
    tied exactly at the K-th score the lowest doc_ids must be the ones
    returned.  Only scores that differ by at most SCORE_TOLERANCE from the
    K-th may stand in for each other at the cut.
    """
    entries = ranked.entries
    if len(entries) != min(K, n):
        return f"{len(entries)} entries"
    rows = [int(e.doc_id[1:]) for e in entries]
    for e, row in zip(entries, rows):
        if e.pool_name != datagen.POOL_NAME or abs(e.score - expected[row]) > SCORE_TOLERANCE:
            return f"{e.doc_id} scored {e.score!r}, brute force {expected[row]!r}"
    for (a, ra), (b, rb) in zip(zip(entries, rows), zip(entries[1:], rows[1:])):
        if ((-a.score, a.doc_id, a.pool_name) >= (-b.score, b.doc_id, b.pool_name)
                or (expected[ra] == expected[rb] and a.doc_id > b.doc_id)):
            return f"{a.doc_id} ranked before {b.doc_id}"
    kth = np.partition(expected, n - len(entries))[n - len(entries)]
    must = set(np.flatnonzero(expected > kth + SCORE_TOLERANCE).tolist())
    if not must <= set(rows) or any(expected[r] < kth - SCORE_TOLERANCE for r in rows):
        return f"top-{K} set differs from brute force"
    # doc_id(row) is zero-padded, so ascending rows are ascending doc_ids.
    tied = np.flatnonzero(expected == kth).tolist()
    taken = sorted(r for r in rows if expected[r] == kth)
    if taken != tied[:len(taken)]:
        return f"tie at the cut: returned rows {taken}, lowest doc_ids are {tied[:len(taken)]}"
    return ""


def run(spec: RetrievalSpec, seed: int, seconds: float, tracer, work: Path) -> Outcome:
    coll_spec = spec.collection
    coll = datagen.ensure_collection(work / "cache", coll_spec, "corpus")
    gold, qvecs = datagen.queries(coll, coll_spec, seed, spec.queries)
    source = coll / "records.jsonl"
    saved = work / "tmp" / f"snapshot-{coll.name}.jsonl"
    saved.parent.mkdir(parents=True, exist_ok=True)

    backend = MockBackend(strict=True)
    texts = [f"query {seed}-{i}" for i in range(len(gold))]
    for text, vec in zip(texts, qvecs):
        backend.add_embedding("query", text, vec)
    if tracer:
        backend = TracedBackend(backend, tracer)
    config = RunConfig(scoring_mode="masked", parallelism=1)

    original_top_k = evaluation.top_k
    captured = []

    def capture(*args, **kwargs):
        ranked = original_top_k(*args, **kwargs)
        captured.append(ranked)
        return ranked

    evaluation.top_k = capture
    if tracer:
        for owner, attr in (
            (index, "ingest_corpus"), (index, "save_snapshot"), (index, "load_snapshot"),
            (index, "top_k"), (evaluation, "evaluate_retrieval"), (evaluation, "top_k"),
            (evaluation, "_check_gold_present"), (evaluation, "ndcg_at_k"),
        ):
            tracer.wrap(owner, attr, f"{owner.__name__.split('.')[-1]}.{attr}")
        tracer.wrap(index, "mask_pipeline", "masking.mask_pipeline", aggregate=True)
    try:
        # Each set-up is followed by an equal share of the timed queries, so the
        # queries spread over the whole run and average out slow spells of
        # a shared machine instead of landing in one.
        setup_s, ingest_s, op_ms, results = [], [], [], []
        elapsed = 0.0
        for rep in range(SETUP_REPS):
            if tracer:
                tracer.phase = "setup"
            pool = None
            gc.collect()  # set up from a collected heap, as a fresh process would
            start = time.perf_counter()
            index.save_snapshot(index.ingest_corpus(source), saved)
            ingest_s.append(time.perf_counter() - start)
            pool = index.load_snapshot(saved)
            index.top_k(pool, qvecs[0], K, scoring="masked")
            setup_s.append(time.perf_counter() - start)

            if tracer:
                tracer.phase = "measure"
            window = seconds / SETUP_REPS
            started = time.perf_counter()
            while (len(op_ms) < MIN_OPS * (rep + 1)
                   or time.perf_counter() - started < window):
                qi = len(op_ms) % len(texts)
                example = evaluation.QaExample(
                    query_id=f"q{len(op_ms):06d}",
                    query=texts[qi],
                    gold_doc_ids={(datagen.POOL_NAME, datagen.doc_id(gold[qi]))},
                    gold_answer="",
                )
                t0 = time.perf_counter()
                report = evaluation.evaluate_retrieval([example], "single", [pool], backend, config)
                op_ms.append((time.perf_counter() - t0) * 1000.0)
                results.append((qi, captured[-1] if captured else None, report.per_example[0]))
                captured.clear()
            elapsed += time.perf_counter() - started
        pool = None
        rss = peak_rss_mb()
    finally:
        if tracer:
            tracer.restore()
        evaluation.top_k = original_top_k

    out = Outcome(
        setup_s=setup_s,
        op_ms=op_ms,
        ops_per_s=len(op_ms) / elapsed,
        attempted=len(results),
        failed=sum(1 for _, _, row in results if row.error is not None),
        peak_rss_mb=rss,
    )
    _check(out, coll, results, qvecs, gold)
    ndcgs = [row.ndcg5 for _, _, row in results if row.ndcg5 is not None]
    n = len(op_ms)
    out.named += [
        ("setup_s", median(setup_s), "s", len(setup_s),
         "ingest_corpus + save_snapshot + load_snapshot + warm-up top_k"),
        ("ingest_s", median(ingest_s), "s", len(ingest_s), "ingest_corpus + save_snapshot"),
        ("retrieval_qps", out.ops_per_s, "1/s", n, "evaluate_retrieval queries per second"),
        ("latency_mean_ms", sum(op_ms) / n, "ms", n, "per evaluate_retrieval call"),
        ("latency_p50_ms", percentile(op_ms, 50), "ms", n, "per evaluate_retrieval call"),
        ("latency_p90_ms", percentile(op_ms, 90), "ms", n, "per evaluate_retrieval call"),
        ("ndcg5", sum(ndcgs) / len(ndcgs) if ndcgs else 0.0, "score", len(ndcgs), "mean nDCG@5"),
    ]
    if tracer:
        out.layers = _layers(tracer, n, elapsed, saved, coll_spec.n)
    return out


def _check(out: Outcome, coll, results, qvecs, gold) -> None:
    matrix = np.load(coll / "docs.npy")
    expected = {}
    bad_rank, bad_ndcg, cut_ties, first = 0, 0, 0, ""
    for qi, ranked, row in results:
        if row.error is not None or ranked is None:
            continue
        if qi not in expected:
            expected[qi] = masked_scores(matrix, qvecs[qi], DEFAULT_ALPHA, DEFAULT_EPS)
        kth = np.sort(expected[qi])[-K]
        cut_ties += int(np.count_nonzero(expected[qi] >= kth) > K)
        why = check_ranking(ranked, expected[qi], len(matrix))
        if why:
            bad_rank += 1
            first = first or f"{row.query_id}: {why}"
        keys = list(ranked.doc_keys())
        if abs(_ndcg(keys, {(datagen.POOL_NAME, datagen.doc_id(gold[qi]))}) - row.ndcg5) > 1e-12:
            bad_ndcg += 1
    checked = sum(1 for _, ranked, row in results if row.error is None and ranked is not None)
    out.check("no failed queries", out.failed == 0, f"{out.failed} of {out.attempted} failed")
    out.check(f"top-{K} keys, scores and tie order match brute force", bad_rank == 0,
              f"{bad_rank} of {checked} wrong, {cut_ties} with an exact tie at the cut; "
              f"{first}".rstrip("; "))
    out.check("nDCG@5 matches the returned ranking", bad_ndcg == 0, f"{bad_ndcg} of {checked} wrong")


def _layers(tracer, ops: int, elapsed: float, snapshot: Path, n: int) -> dict:
    setup, view = tracer.view("setup"), tracer.view("measure")
    worker_ms = sum(view.total_ms(name) for name in (
        "backend.embed", "evaluation.top_k", "evaluation.ndcg_at_k"))
    wall_ms = view.total_ms("evaluation.evaluate_retrieval")
    mask_calls, mask_s = tracer.counter("masking.mask_pipeline", "measure")
    layers = {
        "index.load_snapshot_s": median([s.ms for s in setup.named("index.load_snapshot")]) / 1000.0,
        "index.first_query_ms": median([s.ms for s in setup.named("index.top_k")]),
        "index.top_k_ms": view.mean_ms("evaluation.top_k"),
        "index.top_k_calls": view.count("evaluation.top_k") / ops,
        "index.snapshot_bytes_per_record": snapshot.stat().st_size / n,
        "index.ingest_corpus_s": median([s.ms for s in setup.named("index.ingest_corpus")]) / 1000.0,
        "index.save_snapshot_s": median([s.ms for s in setup.named("index.save_snapshot")]) / 1000.0,
        "masking.mask_pipeline_calls_per_query": mask_calls / ops,
        "masking.mask_pipeline_ms_per_query": mask_s * 1000.0 / ops,
        "backends.calls.embed": view.count("backend.embed") / ops,
        "backends.call_ms.embed": view.mean_ms("backend.embed"),
        "evaluation.check_gold_ms": view.mean_ms("evaluation._check_gold_present"),
        "evaluation.worker_busy_share": worker_ms / wall_ms if wall_ms else 0.0,
    }
    layers.update(trace_layers(tracer, "measure", ops, elapsed))
    return layers
