"""Shared builders for scripted pipeline scenarios, and the wire transcripts
that the loopback server replays."""

import json
import math
from pathlib import Path

import numpy as np

from holorag.backends import MockBackend
from holorag.config import RunConfig
from holorag.index import Pool

DATA_DIR = Path(__file__).parent / "data"

INV_E = 1.0 / math.e


def make_pool(name: str, vectors, metadata=None) -> Pool:
    """Pool ``name`` from (doc_id, vector) pairs; ``metadata`` maps a doc_id to its dict."""
    metadata = metadata or {}
    return Pool(
        name=name,
        matrix=np.array([vec for _, vec in vectors], dtype=np.float64),
        keys=tuple((name, doc_id) for doc_id, _ in vectors),
        metadata=tuple(metadata.get(doc_id, {}) for doc_id, _ in vectors),
    )


def demo_pool(name: str = "charts") -> Pool:
    """Four orthogonal documents; a query along axis 0 ranks d1, d2, d3, d4."""
    vectors = {
        "d1": [1.0, 0.0, 0.0, 0.0],
        "d2": [0.5, 0.8660254037844387, 0.0, 0.0],
        "d3": [0.25, 0.0, 0.9682458365518543, 0.0],
        "d4": [0.1, 0.0, 0.0, 0.99498743710662],
    }
    texts = {doc_id: {"text": f"page {doc_id} of {name}"} for doc_id in vectors}
    return make_pool(name, list(vectors.items()), texts)


def scripted_scenario(kind: str, query: str | None = None, mock: MockBackend | None = None):
    """Build a (query, pool, config, backend, expected) scripted pipeline run.

    Kinds: "lqp" (prune stops at 2), "lqp_first" (prune stops at 1),
    "hqp_early" (one decoupler iteration), "hqp_two" (two iterations),
    "hqp_max" (never answerable, hits max_iters=3), "failure" (missing
    summarize fixture aborts mid-pipeline).  Fixtures go into ``mock`` when
    given, so several scenarios can share one backend.
    """
    query = query or f"query::{kind}"
    pool = demo_pool()
    config = RunConfig(k=3, h=0.8, max_iters=3).validate()
    mock = mock if mock is not None else MockBackend()
    mock.add_embedding("query", query, [1.0, 0.05, 0.02, 0.01])
    initial = f"measured-initial::{kind}::do-not-reuse"
    final = f"final::{kind}"
    docs_texts = {doc_id: meta["text"] for (_, doc_id), meta in zip(pool.keys, pool.metadata)}
    expected = {"query": query, "final": final, "initial": initial, "kind": kind}

    def probe(doc_ids, n, verdict):
        mock.add_generation(
            "sufficiency_probe", query, doc_ids, n, f"{verdict} - scripted", [1.0]
        )

    if kind in ("lqp", "lqp_first"):
        if kind == "lqp_first":
            probe(["d1"], 1, "YES")
            pruned = ["d1"]
        else:
            probe(["d1"], 1, "NO")
            probe(["d1", "d2"], 2, "YES")
            pruned = ["d1", "d2"]
        mock.add_generation("answer", query, pruned, 0, initial, [0.9, 0.95])
        mock.add_generation("summarize", query, pruned, 0, final, [1.0])
        expected.update(route="LQP", pruned=pruned, iterations=0, early=True)
        return query, pool, config, mock, expected

    if kind == "failure":
        probe(["d1"], 1, "YES")
        mock.add_generation("answer", query, ["d1"], 0, initial, [1.0])
        # no summarize fixture: strict mock raises mid-pipeline
        expected.update(route="LQP", pruned=["d1"], error=True)
        return query, pool, config, mock, expected

    # high-uncertainty variants
    if kind == "hqp_two":
        probe(["d1"], 1, "NO")
        probe(["d1", "d2"], 2, "YES")
        pruned = ["d1", "d2"]
        early = True
        answer_probs = [0.5, 0.5]  # normalized entropy ~0.942
        n_iters = 2
    else:
        probe(["d1"], 1, "NO")
        probe(["d1", "d2"], 2, "NO")
        probe(["d1", "d2", "d3"], 3, "NO")
        pruned = ["d1", "d2", "d3"]
        early = False
        answer_probs = [INV_E, INV_E, INV_E]  # normalized entropy 1.0
        n_iters = 1 if kind == "hqp_early" else 3

    mock.add_generation("answer", query, pruned, 0, initial, answer_probs)
    salient = f"salient::{kind}"
    mock.add_generation("salient_extract", query, pruned, 0, salient, [1.0])
    for t in range(1, n_iters + 1):
        mock.add_generation(
            "fineprint_mine", query, ["knowledge:salient"], t, f"mined::{kind}::{t}", [1.0]
        )
        mock.add_generation(
            "decouple", query, ["knowledge:salient"], t, f"decoupled::{kind}::{t}", [1.0]
        )
        answerable = "YES" if (t == n_iters and kind != "hqp_max") else "NO"
        mock.add_generation(
            "sufficiency_probe",
            query,
            ["knowledge:decoupled"],
            t,
            f"{answerable} - scripted",
            [1.0],
        )
    mock.add_generation(
        "summarize", query, ["knowledge:salient", "knowledge:decoupled"], 0, final, [1.0]
    )
    expected.update(
        route="HQP", pruned=pruned, iterations=n_iters, early=early, salient=salient
    )
    return query, pool, config, mock, expected


ALL_SCENARIOS = ("lqp", "lqp_first", "hqp_early", "hqp_two", "hqp_max", "failure")


def load_transcript(name: str):
    """A recorded list of wire replies: ``{"status", "body"}`` with optional reply
    ``"headers"``, or ``{"raise": message}`` for a transport failure."""
    return json.loads((DATA_DIR / name).read_text("utf-8"))
