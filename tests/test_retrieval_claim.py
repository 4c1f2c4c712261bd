"""The paper's retrieval claim on synthetic salient-plus-fine-print data.

Hybrid masking should find documents that differ only in fine print, which
plain cosine similarity drowns under the salient dimensions they share.  On
isotropic data, where no dimensions are salient, it has nothing to find and
ranks slightly worse than cosine; that known limitation is pinned here too.
"""

import numpy as np
import pytest

from holorag.evaluation import ndcg_at_k
from holorag.index import Pool, top_k

N_DOCS = 500
DIM = 64
N_QUERIES = 100
SALIENT_DIMS = 8
N_CENTRES = 20
CENTRE_SCALE = 5.0
FINE_PRINT_SCALE = 0.2
QUERY_FINE_PRINT_DIMS = 8
MIN_NDCG_GAIN = 0.1
ISOTROPIC_NOISE = 2.0


def fine_print_data(seed: int):
    """A pool and (query, gold key) pairs whose gold documents differ only in fine print.

    Every document's first SALIENT_DIMS dims are one of N_CENTRES Gaussian
    centres scaled by CENTRE_SCALE, so about N_DOCS / N_CENTRES documents
    share them exactly; the other dims are fine print drawn from
    N(0, FINE_PRINT_SCALE^2).  A query copies its gold document's salient dims
    and QUERY_FINE_PRINT_DIMS of its fine-print dims, and is zero elsewhere.
    """
    rng = np.random.default_rng(seed)
    centres = CENTRE_SCALE * rng.normal(size=(N_CENTRES, SALIENT_DIMS))
    docs = np.empty((N_DOCS, DIM))
    docs[:, :SALIENT_DIMS] = centres[rng.integers(N_CENTRES, size=N_DOCS)]
    docs[:, SALIENT_DIMS:] = rng.normal(scale=FINE_PRINT_SCALE, size=(N_DOCS, DIM - SALIENT_DIMS))
    pool = Pool(
        name="p",
        matrix=docs,
        keys=tuple(("p", f"d{i:03d}") for i in range(N_DOCS)),
        metadata=({},) * N_DOCS,
    )
    queries = []
    for gold in rng.choice(N_DOCS, size=N_QUERIES, replace=False):
        kept = SALIENT_DIMS + rng.choice(
            DIM - SALIENT_DIMS, size=QUERY_FINE_PRINT_DIMS, replace=False
        )
        query = np.zeros(DIM)
        query[:SALIENT_DIMS] = docs[gold, :SALIENT_DIMS]
        query[kept] = docs[gold, kept]
        queries.append((query, pool.keys[gold]))
    return pool, queries


def isotropic_data(seed: int):
    """A pool of Gaussian documents and queries that are their gold document plus noise.

    Documents are N(0, 1) in every dimension; each query is its gold document
    plus N(0, ISOTROPIC_NOISE^2) noise, so no dimension matters more than another.
    """
    rng = np.random.default_rng(seed)
    docs = rng.normal(size=(N_DOCS, DIM))
    pool = Pool(
        name="p",
        matrix=docs,
        keys=tuple(("p", f"d{i:03d}") for i in range(N_DOCS)),
        metadata=({},) * N_DOCS,
    )
    gold = rng.choice(N_DOCS, size=N_QUERIES, replace=False)
    queries = docs[gold] + ISOTROPIC_NOISE * rng.normal(size=(N_QUERIES, DIM))
    return pool, [(query, pool.keys[g]) for query, g in zip(queries, gold)]


def mean_ndcg5(pool: Pool, queries, scoring: str) -> float:
    scores = [ndcg_at_k(top_k(pool, q, 5, scoring).doc_keys(), {gold}) for q, gold in queries]
    return float(np.mean(scores))


@pytest.mark.parametrize("seed", range(5))
def test_masked_beats_cosine_on_fine_print(seed):
    pool, queries = fine_print_data(seed)
    cosine = mean_ndcg5(pool, queries, "cosine")
    masked = mean_ndcg5(pool, queries, "masked")
    assert masked - cosine >= MIN_NDCG_GAIN, (cosine, masked)


@pytest.mark.parametrize("seed", range(5))
def test_cosine_at_least_masked_on_isotropic_data(seed):
    pool, queries = isotropic_data(seed)
    cosine = mean_ndcg5(pool, queries, "cosine")
    masked = mean_ndcg5(pool, queries, "masked")
    assert cosine >= masked, (cosine, masked)
