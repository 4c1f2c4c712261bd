"""Seeded synthetic inputs for the workloads, cached in the checkout.

Document collections depend only on the workload and its size: they are
drawn from a fixed corpus seed, so a checkout writes each one once rather
than once per run.  The
run's ``--seed`` draws everything a run sends: queries, their gold
documents, the stub server's per-query plan and the training batches.  The
same seed gives the same inputs.  Nothing here is timed.
"""

import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

import numpy as np

CORPUS_SEED = 2511
POOL_NAME = "corpus"
DUPLICATE_SHARE = 0.01
ZERO_ROWS = 4
# TIE_GROUP identical rows, the gold document of every TIE_QUERY_EVERY-th
# query from the first: they fill the top of its ranking and the cut at
# rank 5 splits them, so the doc_id tie-break at the cut is always checked.
TIE_GROUP = 7
TIE_QUERY_EVERY = 8
# Query = gold vector + QUERY_NOISE * N(0, I): at d=128 the gold document's
# cosine is ~0.37, near the best of 2k-10k random documents (0.33-0.38), so
# the gold document is often but not always ranked first.
QUERY_NOISE = 2.5


@dataclass(frozen=True)
class CollectionSpec:
    n: int
    d: int
    text_words: int = 0  # page text per document; 0 for none


def doc_id(row: int) -> str:
    return f"d{row:06d}"


def _documents(spec: CollectionSpec):
    """(matrix, zero rows, tie group rows): a Gaussian matrix with
    DUPLICATE_SHARE exact duplicate rows, to exercise ties, ZERO_ROWS zero
    rows and one group of TIE_GROUP identical rows."""
    rng = np.random.default_rng(CORPUS_SEED)
    matrix = rng.standard_normal((spec.n, spec.d))
    n_dup = max(1, int(spec.n * DUPLICATE_SHARE))
    rows = rng.choice(spec.n, size=n_dup * 2 + ZERO_ROWS + TIE_GROUP, replace=False)
    sources, copies = rows[:n_dup], rows[n_dup:2 * n_dup]
    zeros, ties = rows[2 * n_dup:2 * n_dup + ZERO_ROWS], rows[2 * n_dup + ZERO_ROWS:]
    matrix[copies] = matrix[sources]
    matrix[zeros] = 0.0
    matrix[ties] = matrix[ties[0]]
    return matrix, zeros, ties


def _page_texts(n: int, words: int) -> List[str]:
    rng = random.Random(CORPUS_SEED)
    vocab = ["".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(rng.randint(3, 9)))
             for _ in range(600)]
    return [f"Page {i}. " + " ".join(rng.choice(vocab) for _ in range(words)) for i in range(n)]


def _write_records(path: Path, header: Optional[dict], matrix, texts) -> None:
    """JSON lines in the byte format of ``save_snapshot`` (format version 1)."""
    with path.open("w", encoding="utf-8") as handle:
        if header is not None:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
        for i, row in enumerate(matrix.tolist()):
            metadata = {"text": texts[i]} if texts else {}
            record = {"doc_id": doc_id(i), "embedding": row, "metadata": metadata, "pool": POOL_NAME}
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def ensure_collection(cache: Path, spec: CollectionSpec, kind: str) -> Path:
    """Create (once) the collection directory and return it.

    ``kind`` is "snapshot" (a v1 snapshot, what ``load_snapshot`` reads) or
    "corpus" (a JSON-lines corpus, what ``ingest_corpus`` reads).  The
    directory also holds ``docs.npy``, ``zeros.npy`` and ``ties.npy`` for the output
    checks.
    """
    final = cache / _collection_name(spec, kind)
    if not (final / "done").is_file():
        # In a child process, so that generating does not raise the peak RSS
        # that the run reports.
        args = [str(cache), kind, str(spec.n), str(spec.d), str(spec.text_words)]
        subprocess.run([sys.executable, __file__, *args], check=True)
    return final


def _collection_name(spec: CollectionSpec, kind: str) -> str:
    return f"{kind}-n{spec.n}-d{spec.d}-w{spec.text_words}-c{CORPUS_SEED}-t{TIE_GROUP}"


def _generate(cache: Path, spec: CollectionSpec, kind: str) -> None:
    final = cache / _collection_name(spec, kind)
    tmp = final.with_name(final.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    matrix, zeros, ties = _documents(spec)
    texts = _page_texts(spec.n, spec.text_words) if spec.text_words else None
    header = None
    if kind == "snapshot":
        header = {"count": spec.n, "dimension": spec.d, "format_version": 1, "name": POOL_NAME}
    _write_records(tmp / "records.jsonl", header, matrix, texts)
    np.save(tmp / "docs.npy", matrix)
    np.save(tmp / "zeros.npy", zeros)
    np.save(tmp / "ties.npy", ties)
    (tmp / "done").write_text("ok\n")
    shutil.rmtree(final, ignore_errors=True)
    os.replace(tmp, final)


def queries(collection: Path, spec: CollectionSpec, seed: int, count: int):
    """``count`` seeded queries: (gold row indices, query vectors)."""
    rng = np.random.default_rng([seed, spec.n, spec.d])
    matrix = np.load(collection / "docs.npy", mmap_mode="r")
    candidates = np.setdiff1d(np.arange(spec.n), np.load(collection / "zeros.npy"))
    gold = rng.choice(candidates, size=count, replace=False)
    gold[::TIE_QUERY_EVERY] = np.load(collection / "ties.npy")[0]
    vectors = np.array(matrix[gold]) + QUERY_NOISE * rng.standard_normal((count, spec.d))
    return gold, vectors


def training_batches(seed: int, count: int, b: int, d: int):
    """``count`` raw (queries, documents) pairs of independent Gaussian (b, d)
    arrays.  Strongly correlated pairs would saturate the softmax at tau=0.01
    (loss ~1e-14), leaving nothing for the checks to see."""
    rng = np.random.default_rng([seed, b, d])
    return [(rng.standard_normal((b, d)), rng.standard_normal((b, d))) for _ in range(count)]


# One plan block: LQP at prune depths 1..3 (three times each) and HQP at
# every (depth, decouple iterations) pair, so each route is half of every
# block.
PLAN_BLOCK = [("LQP", depth, 0) for depth in (1, 2, 3)] * 3 + [
    ("HQP", depth, iters) for depth in (1, 2, 3) for iters in (1, 2, 3)
]
# Judge scores of each 36-query superblock: 22 of 36 are correct (>= 4).
PLAN_SCORES = [5] * 11 + [4] * 11 + [3] * 5 + [2] * 5 + [1] * 4
SUPERBLOCK = 2 * len(PLAN_BLOCK)


def answer_plan(collection: Path, spec: CollectionSpec, seed: int, superblocks: int,
                delays_ms: dict) -> dict:
    """Seeded per-query plan that the stub server follows.

    Each 36-query superblock holds two shuffled plan blocks, the judge scores
    of PLAN_SCORES, one query whose first answer request gets a 503 and one
    whose first judge reply is unparseable.
    """
    rng = random.Random(seed)
    count = superblocks * SUPERBLOCK
    gold, vectors = queries(collection, spec, seed, count)
    order, items = [], {}
    for sb in range(superblocks):
        combos = rng.sample(PLAN_BLOCK, len(PLAN_BLOCK)) + rng.sample(PLAN_BLOCK, len(PLAN_BLOCK))
        scores = rng.sample(PLAN_SCORES, len(PLAN_SCORES))
        fault_503, fault_judge = rng.sample(range(SUPERBLOCK), 2)
        for j, (route, depth, iters) in enumerate(combos):
            i = sb * SUPERBLOCK + j
            qid = f"q{i:04d}"
            text = f"{qid} (seed {seed}): which figure does the page report?"
            order.append(text)
            items[text] = {
                "qid": qid,
                "gold": doc_id(gold[i]),
                "embedding": vectors[i].tolist(),
                "route": route,
                "depth": depth,
                "iters": iters,
                "score": scores[j],
                "fault": "503" if j == fault_503 else "judge" if j == fault_judge else None,
            }
    return {"order": order, "queries": items, "delays_ms": delays_ms}


if __name__ == "__main__":
    _cache, _kind, _n, _d, _words = sys.argv[1:]
    _generate(Path(_cache), CollectionSpec(int(_n), int(_d), int(_words)), _kind)
