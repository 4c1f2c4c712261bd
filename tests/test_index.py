"""Tests for corpus ingestion, exact retrieval, merging, and snapshots."""

import contextlib
import json
import math
import os
import subprocess
import sys
import textwrap
import threading
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mask_oracle
from helpers import DATA_DIR, EDGE_ROW, demo_pool, make_pool, pool_workers, traced_peak
from holorag import evaluation, index
from holorag.backends import MockBackend
from holorag.cli import EXIT_USER_ERROR, main
from holorag.config import RunConfig
from holorag.errors import (
    CorpusParseError,
    DimensionMismatchError,
    DuplicateIdError,
    FormatVersionMismatchError,
    ZeroVectorError,
)
from holorag.index import (
    Pool,
    ingest_corpus,
    load_snapshot,
    merge_pools,
    pools_by_name,
    save_snapshot,
    top_k,
)
from holorag.evaluation import QaExample, evaluate_retrieval
from holorag.masking import Embedding


def write_corpus(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")


class TestIngest:
    def test_three_records(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_corpus(
            path,
            [
                {"doc_id": f"d{i}", "pool": "charts", "embedding": [float(i), 1.0], "metadata": {}}
                for i in range(3)
            ],
        )
        pool = ingest_corpus(path)
        assert len(pool) == 3
        assert pool.name == "charts"
        assert pool.dimension == 2

    def test_empty_file_warns(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.warns(UserWarning):
            pool = ingest_corpus(path)
        assert len(pool) == 0

    def test_wrong_length_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_corpus(
            path,
            [
                {"doc_id": "a", "pool": "p", "embedding": [1.0, 2.0]},
                {"doc_id": "b", "pool": "p", "embedding": [1.0, 2.0, 3.0]},
            ],
        )
        with pytest.raises(DimensionMismatchError, match="line 2"):
            ingest_corpus(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"doc_id": "a", "pool": "p", "embedding": [1.0]}\nnot json\n')
        with pytest.raises(CorpusParseError) as info:
            ingest_corpus(path)
        assert info.value.line_number == 2

    def test_duplicate_doc_id(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        write_corpus(
            path,
            [
                {"doc_id": "a", "pool": "p", "embedding": [1.0]},
                {"doc_id": "a", "pool": "p", "embedding": [2.0]},
            ],
        )
        with pytest.raises(DuplicateIdError):
            ingest_corpus(path)

    def test_mixed_pools_rejected(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        write_corpus(
            path,
            [
                {"doc_id": "a", "pool": "p", "embedding": [1.0]},
                {"doc_id": "b", "pool": "q", "embedding": [2.0]},
            ],
        )
        with pytest.raises(CorpusParseError, match="one pool"):
            ingest_corpus(path)

    def test_overflowing_norm_names_line(self, tmp_path):
        path = tmp_path / "huge.jsonl"
        write_corpus(
            path,
            [
                {"doc_id": "a", "pool": "p", "embedding": [1.0, 1.0]},
                {"doc_id": "b", "pool": "p", "embedding": [1e200, 1.0]},
            ],
        )
        with pytest.raises(CorpusParseError, match="norm") as info:
            ingest_corpus(path)
        assert info.value.line_number == 2

    def test_row_only_the_pool_refuses_names_line(self, tmp_path):
        """A row whose squared norm is finite by `Embedding`'s dot but not by `Pool`'s
        pairwise sum is a CorpusParseError naming its line."""
        edge = np.array([EDGE_ROW])
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.einsum("ij,ij->i", edge, edge)[0])
        Embedding(EDGE_ROW)  # accepted: its one dot of the squares is finite
        path = tmp_path / "edge.jsonl"
        write_corpus(
            path,
            [
                {"doc_id": "a", "pool": "p", "embedding": [1.0, 1.0]},
                {"doc_id": "b", "pool": "p", "embedding": EDGE_ROW},
            ],
        )
        with pytest.raises(CorpusParseError, match="^line 2: .*'b'.* finite norm") as info:
            ingest_corpus(path)
        assert info.value.line_number == 2

    @pytest.mark.parametrize(
        "embedding, kind",
        [(["1.0", "0.0"], "str"), ([True, False], "bool"), ([None, 1.0], "NoneType")],
        ids=["str", "bool", "null"],
    )
    def test_wrong_entry_type_names_line(self, tmp_path, embedding, kind):
        path = tmp_path / "typed.jsonl"
        write_corpus(
            path,
            [
                {"doc_id": "a", "pool": "p", "embedding": [1.0, 0.0]},
                {"doc_id": "b", "pool": "p", "embedding": embedding},
            ],
        )
        with pytest.raises(CorpusParseError, match=f"must be numbers, got {kind}") as info:
            ingest_corpus(path)
        assert info.value.line_number == 2


class TestTopK:
    def test_single_document(self):
        pool = make_pool("p", [("only", [0.6, 0.8])])
        result = top_k(pool, Embedding([1.0, 0.0]), k=1)
        assert [e.doc_id for e in result.entries] == ["only"]
        assert result.entries[0].score == pytest.approx(0.6)

    def test_exact_match_ranks_first(self):
        pool = make_pool("p", [("a", [1.0, 0.0, 0.0]), ("b", [0.0, 1.0, 0.0]), ("c", [0.0, 0.0, 1.0])])
        result = top_k(pool, Embedding([0.0, 1.0, 0.0]), k=3)
        assert result.entries[0].doc_id == "b"
        assert result.entries[0].score == pytest.approx(1.0)

    def test_hand_set_angles(self):
        angles = {"d10": 10, "d30": 30, "d50": 50, "d70": 70, "d85": 85}
        pool = make_pool(
            "p",
            [
                (doc_id, [math.cos(math.radians(a)), math.sin(math.radians(a))])
                for doc_id, a in angles.items()
            ],
        )
        result = top_k(pool, Embedding([1.0, 0.0]), k=5)
        assert [e.doc_id for e in result.entries] == ["d10", "d30", "d50", "d70", "d85"]
        for entry in result.entries:
            assert entry.score == pytest.approx(math.cos(math.radians(angles[entry.doc_id])))

    def test_tie_break_by_doc_id(self):
        same = [0.5, 0.5]
        pool = make_pool("p", [("zz", same), ("aa", same), ("mm", same)])
        result = top_k(pool, Embedding([1.0, 1.0]), k=3)
        assert [e.doc_id for e in result.entries] == ["aa", "mm", "zz"]

    def test_k_larger_than_pool(self):
        pool = make_pool("p", [("a", [1.0]), ("b", [2.0])])
        assert len(top_k(pool, Embedding([1.0]), k=10).entries) == 2

    def test_k_must_be_positive(self):
        pool = make_pool("p", [("a", [1.0])])
        with pytest.raises(ValueError):
            top_k(pool, Embedding([1.0]), k=0)

    def test_dimension_mismatch(self):
        pool = make_pool("p", [("a", [1.0, 0.0])])
        with pytest.raises(DimensionMismatchError):
            top_k(pool, Embedding([1.0, 0.0, 0.0]), k=1)

    @pytest.mark.parametrize("scoring", ["cosine", "masked"])
    def test_empty_pool_returns_no_entries(self, scoring):
        pool = Pool(name="p", matrix=np.zeros((0, 2)), keys=(), metadata=())
        ranked = top_k(pool, Embedding([1.0, 0.0]), k=3, scoring=scoring)
        assert (ranked.entries, ranked.k) == ((), 3)

    def test_zero_query(self):
        pool = make_pool("p", [("a", [1.0, 0.0])])
        with pytest.raises(ZeroVectorError):
            top_k(pool, Embedding([0.0, 0.0]), k=1)

    @pytest.mark.parametrize("query", [[1e200, 1.0], [math.nan, 1.0]], ids=["overflow", "nan"])
    def test_plain_sequence_query_checked(self, query):
        pool = make_pool("p", [("a", [1.0, 0.0]), ("b", [0.0, 1.0])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must be finite"):
                top_k(pool, query, k=2)

    def test_plain_sequence_query_type_checked(self):
        pool = make_pool("p", [("a", [1.0, 0.0]), ("b", [0.0, 1.0])])
        with pytest.raises(TypeError, match="got bool"):
            top_k(pool, [True, False], k=2)

    @pytest.mark.parametrize("scoring", ["cosine", "masked"])
    def test_zero_document_scores_zero(self, scoring):
        # "tiny" is nonzero, but its squared entries underflow to a zero norm
        pool = make_pool(
            "p", [("zero", [0.0, 0.0]), ("real", [-1.0, 0.0]), ("tiny", [1e-200, 2e-200])]
        )
        result = top_k(pool, Embedding([1.0, 0.0]), k=3, scoring=scoring)
        scores = {e.doc_id: e.score for e in result.entries}
        assert scores["zero"] == 0.0
        assert scores["tiny"] == 0.0
        assert scores["real"] == pytest.approx(-1.0)
        assert [e.doc_id for e in result.entries] == ["tiny", "zero", "real"]

    def test_matches_full_scan_oracle(self):
        rng = np.random.default_rng(13)
        vectors = [(f"doc{i:04d}", rng.normal(size=16)) for i in range(500)]
        pool = make_pool("p", vectors)
        query = rng.normal(size=16)
        result = top_k(pool, Embedding(query), k=20)

        qn = np.linalg.norm(query)
        scored = []
        for doc_id, vec in vectors:
            vec = np.asarray(vec)
            scored.append((float(vec @ query / (np.linalg.norm(vec) * qn)), doc_id))
        oracle = sorted(scored, key=lambda t: (-t[0], t[1]))[:20]
        assert [e.doc_id for e in result.entries] == [doc_id for _, doc_id in oracle]
        np.testing.assert_allclose(
            [e.score for e in result.entries], [s for s, _ in oracle], atol=1e-12
        )

    def test_monotone_scores(self):
        rng = np.random.default_rng(14)
        pool = make_pool("p", [(f"d{i}", rng.normal(size=8)) for i in range(50)])
        result = top_k(pool, Embedding(rng.normal(size=8)), k=50)
        scores = [e.score for e in result.entries]
        assert all(a >= b for a, b in zip(scores, scores[1:]))

    def test_masked_scoring_mode(self):
        rng = np.random.default_rng(15)
        pool = make_pool("p", [(f"d{i}", rng.normal(size=12)) for i in range(10)])
        query = Embedding(rng.normal(size=12))
        first = top_k(pool, query, k=5, scoring="masked")
        second = top_k(pool, query, k=5, scoring="masked")
        assert [e.doc_id for e in first.entries] == [e.doc_id for e in second.entries]
        assert all(-1.0 - 1e-12 <= e.score <= 1.0 + 1e-12 for e in first.entries)

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        d=st.integers(1, 8),
        n=st.integers(1, 12),
        scoring=st.sampled_from(["cosine", "masked"]),
    )
    def test_matches_per_record_loop(self, data, d, n, scoring):
        # entries on a quarter grid; zero rows are kept
        grid = st.integers(-8, 8)
        distinct = data.draw(arrays(np.int8, (n, d), elements=grid)) / 4.0
        # row i stores row picks[i], so equal picks are exact duplicates;
        # doc_ids are shuffled so row order is not doc_id order
        picks = [data.draw(st.integers(0, i)) for i in range(n)]
        ids = data.draw(st.permutations([f"d{i:02d}" for i in range(n)]))
        query = data.draw(arrays(np.int8, d, elements=grid)) / 4.0
        query[-1] = query[-1] or 1.0
        k = data.draw(st.integers(1, n))
        # masked scoring walks the rows in blocks; small blocks put edges inside these pools
        block = data.draw(st.sampled_from([1, 2, 3, index._BLOCK_ROWS]))
        # rows from `split` on form pool "p", which reuses the doc_ids of pool
        # "q" stored before it, so equal rows can tie on doc_id and fall back
        # to the pool name
        split = data.draw(st.integers(1, n))
        pools = [make_pool("q", [(ids[i], distinct[picks[i]]) for i in range(split)])]
        if split < n:
            pools.append(
                make_pool("p", [(ids[i - split], distinct[picks[i]]) for i in range(split, n)])
            )
        pool = merge_pools(pools)
        loop = {"cosine": mask_oracle.loop_top_k_cosine, "masked": mask_oracle.loop_top_k_masked}

        with mock.patch.object(index, "_BLOCK_ROWS", block):
            got = top_k(pool, Embedding(query), k=k, scoring=scoring)
            everything = top_k(pool, Embedding(query), k=n, scoring=scoring)
        want = loop[scoring](pool, query, k)
        assert got.doc_keys() == want.doc_keys()
        for g, w in zip(got.entries, want.entries):
            assert abs(g.score - w.score) <= 1e-12

        pick_of = dict(zip(pool.keys, picks))
        by_row = {}
        for e in everything.entries:
            by_row.setdefault(pick_of[(e.pool_name, e.doc_id)], set()).add(e.score)
        assert all(len(scores) == 1 for scores in by_row.values())

    @pytest.mark.parametrize("scoring", ["cosine", "masked"])
    def test_duplicates_tie_exactly(self, scoring):
        # Gaussian entries: a matrix-vector product may round equal rows
        # differently, which would break the doc_id order among duplicates
        rng = np.random.default_rng(16)
        for d in (5, 37, 128):
            vectors = rng.normal(size=(41, d))
            copies = [1, 6, 13, 22, 39, 40]
            vectors[copies] = vectors[0]
            pool = make_pool("p", [(f"d{40 - i:02d}", v) for i, v in enumerate(vectors)])
            query = Embedding(rng.normal(size=d))
            # blocks of 1, 2 and 3 rows put copies in different blocks
            for block in (1, 2, 3, index._BLOCK_ROWS):
                with mock.patch.object(index, "_BLOCK_ROWS", block):
                    entries = top_k(pool, query, k=41, scoring=scoring).entries
                tied = [e for e in entries if e.doc_id in {f"d{40 - i:02d}" for i in [0] + copies}]
                assert len({e.score for e in tied}) == 1
                ranks = [entries.index(e) for e in tied]
                assert ranks == list(range(ranks[0], ranks[0] + len(tied)))
                assert [e.doc_id for e in tied] == sorted(e.doc_id for e in tied)

    def test_unknown_scoring_mode(self):
        pool = make_pool("p", [("a", [1.0])])
        with pytest.raises(ValueError):
            top_k(pool, Embedding([1.0]), k=1, scoring="bm25")


def gaussian_pool(rng, n, d, rows=None):
    """Pool "p" of Gaussian rows, with ``rows`` (index -> vector) written over them.

    doc_ids are a seeded shuffle, so row order is not doc_id order.
    """
    vectors = rng.normal(size=(n, d))
    for i, vec in (rows or {}).items():
        vectors[i] = vec
    ids = rng.permutation(n)
    return make_pool("p", [(f"d{ids[i]:05d}", vectors[i]) for i in range(n)])


def assert_same_ranking(got, want):
    assert got.doc_keys() == want.doc_keys()
    assert np.array_equal([e.score for e in got.entries], [e.score for e in want.entries])


WHOLE_POOL = {"cosine": mask_oracle.whole_top_k_cosine, "masked": mask_oracle.whole_top_k_masked}


class TestBlockedScoring:
    """Masked scoring walks the live rows in blocks of `index._BLOCK_ROWS`; every
    score must equal, bit for bit, the one pass over the whole pool it replaced."""

    B = index._BLOCK_ROWS

    @pytest.mark.parametrize("scoring", ["cosine", "masked"])
    @pytest.mark.parametrize("n", [B - 1, B, B + 1, 2 * B + 3])
    def test_scores_equal_whole_pool_oracle(self, n, scoring):
        rng = np.random.default_rng(n)
        pool = gaussian_pool(rng, n, 24)
        for query in rng.normal(size=(3, 24)):
            got = top_k(pool, Embedding(query), k=n, scoring=scoring)
            assert_same_ranking(got, WHOLE_POOL[scoring](pool, query, n))

    @pytest.mark.parametrize("scoring", ["cosine", "masked"])
    def test_duplicates_across_block_edges(self, scoring):
        rng = np.random.default_rng(21)
        copy = rng.normal(size=16)
        # copies on both sides of the first and of the second block edge
        at = [self.B - 2, self.B - 1, self.B, 2 * self.B - 1, 2 * self.B, 2 * self.B + 2]
        pool = gaussian_pool(rng, 2 * self.B + 3, 16, {i: copy for i in at})
        copies = {pool.keys[i] for i in at}
        query = rng.normal(size=16)
        got = top_k(pool, Embedding(query), k=len(pool), scoring=scoring)
        tied = [e for e in got.entries if (e.pool_name, e.doc_id) in copies]
        assert len({e.score for e in tied}) == 1
        ranks = [got.entries.index(e) for e in tied]
        assert ranks == list(range(ranks[0], ranks[0] + len(tied)))
        assert [e.doc_id for e in tied] == sorted(e.doc_id for e in tied)
        assert_same_ranking(got, WHOLE_POOL[scoring](pool, query, len(pool)))

    @pytest.mark.parametrize("scoring", ["cosine", "masked"])
    def test_zero_and_underflowed_rows_at_block_edge(self, scoring):
        rng = np.random.default_rng(22)
        zero, tiny = np.zeros(8), np.array([1e-200, 2e-200] * 4)
        dead = {self.B - 1: zero, self.B: tiny, self.B + 1: zero, 2 * self.B: tiny}
        pool = gaussian_pool(rng, 2 * self.B + 3, 8, dead)
        query = rng.normal(size=8)
        got = top_k(pool, Embedding(query), k=len(pool), scoring=scoring)
        scores = {(e.pool_name, e.doc_id): e.score for e in got.entries}
        assert all(scores[pool.keys[i]] == 0.0 for i in dead)
        assert_same_ranking(got, WHOLE_POOL[scoring](pool, query, len(pool)))

    @pytest.mark.parametrize("scoring", ["cosine", "masked"])
    def test_tie_at_the_cut(self, scoring):
        # seven equal rows on both sides of a block edge, each with a twin of the
        # same doc_id in pool "a", merged after pool "p"; k cuts the 14 tied rows at
        # every place: which make the cut goes by doc_id, then pool name, never
        # by partition or row order
        rng = np.random.default_rng(23)
        query = rng.normal(size=16)
        at = [3, self.B - 1, self.B, self.B + 1, 40, 2 * self.B + 1, 7]
        own = gaussian_pool(rng, 2 * self.B + 3, 16, {i: query for i in at})
        twins = make_pool("a", [(own.keys[i][1], query) for i in at])
        pool = merge_pools([own, twins])
        everything = WHOLE_POOL[scoring](pool, query, len(pool))
        group = {own.keys[i] for i in at} | set(twins.keys)
        first = next(r for r, key in enumerate(everything.doc_keys()) if key in group)
        tied = everything.doc_keys()[first:first + len(group)]
        assert tied == tuple(sorted(group, key=lambda key: (key[1], key[0])))
        assert [key[0] for key in tied] == ["a", "p"] * len(at)
        for k in range(first + 1, first + len(group) + 1):
            assert_same_ranking(
                top_k(pool, Embedding(query), k=k, scoring=scoring),
                WHOLE_POOL[scoring](pool, query, k),
            )

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        block=st.sampled_from([2, 3, 5, 8, index._BLOCK_ROWS]),
        edges=st.integers(1, 3),
        d=st.integers(1, 24),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_masked_gather_matches_whole_pool_oracle(self, data, block, edges, d, seed):
        # the live rows cross 1 to 3 block edges, usually ending in a partial
        # block, and the gather skips dead rows wherever they fall
        live = data.draw(st.integers(edges * block + 1, (edges + 1) * block), label="live")
        n_dead = data.draw(st.integers(0, 6), label="n_dead")
        n = live + n_dead
        at = data.draw(
            st.lists(st.integers(0, n - 1), min_size=n_dead, max_size=n_dead, unique=True)
        )
        kinds = data.draw(st.lists(st.booleans(), min_size=n_dead, max_size=n_dead))
        rng = np.random.default_rng(seed)
        dead = {i: np.full(d, 1e-200 if tiny else 0.0) for i, tiny in zip(at, kinds)}
        pool = gaussian_pool(rng, n, d, dead)
        query = rng.normal(size=d)
        k = data.draw(st.integers(1, n), label="k")
        with mock.patch.object(index, "_BLOCK_ROWS", block):
            everything = top_k(pool, Embedding(query), k=n, scoring="masked")
            cut = top_k(pool, Embedding(query), k=k, scoring="masked")
        assert_same_ranking(everything, mask_oracle.whole_top_k_masked(pool, query, n))
        assert_same_ranking(cut, mask_oracle.whole_top_k_masked(pool, query, k))

    @pytest.mark.parametrize(
        "n, dead",
        [
            (2 * B + 3, {5: 0.0, B + 7: 1e-200}),
            # the benchmark's pool: 10k rows, 4 of them zero, so 20 blocks
            (10_000, {3: 0.0, 999: 0.0, 5_000: 0.0, 9_999: 0.0}),
        ],
    )
    def test_mask_pipeline_called_once_per_block_through_module_global(
        self, monkeypatch, n, dead
    ):
        """The benchmark wraps `index.mask_pipeline` to count and time it per query."""
        sizes = []
        original = index.mask_pipeline

        def spy(queries, documents, *args, **kwargs):
            sizes.append(len(documents))
            return original(queries, documents, *args, **kwargs)

        monkeypatch.setattr(index, "mask_pipeline", spy)
        rng = np.random.default_rng(25)
        pool = gaussian_pool(rng, n, 8, {i: np.full(8, v) for i, v in dead.items()})
        live = n - len(dead)
        top_k(pool, Embedding(rng.normal(size=8)), k=5, scoring="masked")
        assert len(sizes) == math.ceil(live / self.B)
        # the blocks may run on several threads, so only the smallest may be partial
        assert sum(sizes) == live and set(sorted(sizes)[1:]) <= {self.B}
        top_k(pool, Embedding(rng.normal(size=8)), k=5, scoring="cosine")
        assert len(sizes) == math.ceil(live / self.B)

    def test_masked_top_k_allocates_no_pool_sized_temporary(self):
        rng = np.random.default_rng(24)
        n, d = 20_000, 64
        pool = Pool(
            name="p",
            matrix=rng.normal(size=(n, d)),
            keys=tuple(("p", f"d{i:05d}") for i in range(n)),
            metadata=({},) * n,
        )
        query = Embedding(rng.normal(size=d))
        _, peak = traced_peak(lambda: top_k(pool, query, k=5, scoring="masked"))
        assert peak < pool.matrix.nbytes // 2


@contextlib.contextmanager
def scan_workers(count, block):
    """Masked scans split the live rows into blocks of ``block`` rows for ``count``
    workers (see `pool_workers`).  Yields the set of threads that masked a block.

    Each block takes a millisecond longer, so the pool threads, which take the next
    free block, get blocks even when the caller alone could mask them all first.
    """
    threads, original = set(), index.mask_pipeline

    def slowed(queries, documents, *args, **kwargs):
        threads.add(threading.get_ident())
        time.sleep(0.001)
        return original(queries, documents, *args, **kwargs)

    with contextlib.ExitStack() as stack:
        stack.enter_context(pool_workers(count))
        for name, value in (("_BLOCK_ROWS", block), ("mask_pipeline", slowed)):
            stack.enter_context(mock.patch.object(index, name, value))
        yield threads


class TestParallelScan:
    """Masked scoring deals its blocks to several threads; every score must still
    equal, bit for bit, the one pass over the whole pool."""

    @pytest.mark.parametrize("block", [1, 2, 3])
    @pytest.mark.parametrize("case", ["no-live-rows", "one-block", "edges"])
    def test_scores_equal_whole_pool_oracle(self, block, case):
        rng = np.random.default_rng(block)
        zero, tiny = np.zeros(8), np.full(8, 1e-200)
        copy = rng.normal(size=8)
        if case == "no-live-rows":
            pool = gaussian_pool(rng, 4, 8, {0: zero, 1: tiny, 2: zero, 3: tiny})
        elif case == "one-block":
            pool = gaussian_pool(rng, block + 2, 8, {0: zero, block + 1: tiny})
        else:
            # ten blocks of live rows; a dead row at each of the first edges, and
            # copies on both sides of the others, which threads may scan apart
            edges = [block * i for i in range(1, 10)]
            dead = {edge: (zero if i % 2 else tiny) for i, edge in enumerate(edges[:4])}
            copies = {at: copy for edge in edges[4:] for at in (edge - 1, edge + 4)}
            pool = gaussian_pool(rng, 10 * block + 4, 8, {**copies, **dead})
        used = set()
        for query in rng.normal(size=(3, 8)):
            with scan_workers(3, block) as threads:
                got = top_k(pool, Embedding(query), k=len(pool), scoring="masked")
                cut = top_k(pool, Embedding(query), k=2, scoring="masked")
            used |= threads
            assert_same_ranking(got, mask_oracle.whole_top_k_masked(pool, query, len(pool)))
            assert_same_ranking(cut, mask_oracle.whole_top_k_masked(pool, query, 2))
        # a scan of no rows or of one block runs in the caller alone
        caller = {threading.get_ident()}
        assert {"no-live-rows": not used, "one-block": used == caller}.get(case, len(used) > 1)

    @pytest.mark.parametrize("alpha", [0.0, float("nan")])
    def test_bad_alpha_raises_the_one_block_error(self, alpha):
        """Whatever the pool holds: live rows, no live rows (nothing to mask), or none."""
        rng = np.random.default_rng(26)
        query = Embedding(rng.normal(size=4))
        dead = {i: np.zeros(4) for i in range(3)}
        empty = Pool(name="p", matrix=np.zeros((0, 4)), keys=(), metadata=())
        for pool in (gaussian_pool(rng, 10, 4), gaussian_pool(rng, 3, 4, dead), empty):
            with pytest.raises(ValueError) as one_block:
                top_k(pool, query, k=3, scoring="masked", alpha=alpha)
            with scan_workers(3, 2):
                with pytest.raises(ValueError) as parallel:
                    top_k(pool, query, k=3, scoring="masked", alpha=alpha)
            assert str(parallel.value) == str(one_block.value) == (
                f"alpha must be finite and > 0, got {alpha}"
            )

    def test_error_on_a_scan_thread_reaches_the_caller(self, monkeypatch):
        original, raised = index.mask_pipeline, threading.Event()

        def fails_off_the_caller(queries, documents, *args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raised.set()
                raise ZeroVectorError("raised on a scan thread")
            # leave blocks for the scan threads, which take the next free block
            raised.wait(timeout=10)
            return original(queries, documents, *args, **kwargs)

        monkeypatch.setattr(index, "mask_pipeline", fails_off_the_caller)
        rng = np.random.default_rng(27)
        pool = gaussian_pool(rng, 10, 4)
        with scan_workers(3, 2):
            with pytest.raises(ZeroVectorError, match="raised on a scan thread"):
                top_k(pool, Embedding(rng.normal(size=4)), k=3, scoring="masked")

    def test_parallel_evaluation_equals_serial(self, monkeypatch):
        """Evaluation threads share the scan threads; nothing they compute may differ."""
        rng = np.random.default_rng(28)
        pool = gaussian_pool(rng, 40, 8)
        backend = MockBackend()
        dataset = []
        for i in range(12):
            gold = pool.keys[i * 3]
            backend.add_embedding("query", f"q{i}", pool.matrix[i * 3] + rng.normal(size=8))
            dataset.append(QaExample(f"e{i:02d}", f"q{i}", {gold}, ""))
        original, ranked = evaluation.top_k, {}

        def record(pool, query, *args, **kwargs):
            result = original(pool, query, *args, **kwargs)
            ranked.setdefault(query.values.tobytes(), []).append(result.to_dict())
            return result

        monkeypatch.setattr(evaluation, "top_k", record)
        reports, interval = {}, sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, to shake out shared state
        try:
            for parallelism, workers in ((1, 1), (4, 3)):
                config = RunConfig(scoring_mode="masked", parallelism=parallelism)
                with scan_workers(workers, 3):
                    reports[parallelism] = evaluate_retrieval(
                        dataset, "single", [pool], backend, config
                    )
        finally:
            sys.setswitchinterval(interval)
        assert reports[4].per_example == reports[1].per_example
        assert len(ranked) == len(dataset)
        assert all(len(runs) == 2 and runs[0] == runs[1] for runs in ranked.values())

    @staticmethod
    def run_script(body):
        """Run ``body`` in a fresh interpreter, after a setup that imports holorag and
        builds ``pool``, eight blocks of four rows, with three workers."""
        setup = """
            import multiprocessing
            import threading
            import numpy as np
            from holorag import index, losses, workers

            assert threading.active_count() == 1, "import"
            workers._WORKERS, index._BLOCK_ROWS = 3, 4
            rng = np.random.default_rng(0)
            n = 30
            keys = tuple(("p", f"d{i}") for i in range(n))
            pool = index.Pool("p", rng.normal(size=(n, 8)), keys, ({},) * n)
            """
        script = textwrap.dedent(setup) + textwrap.dedent(body)
        env = dict(os.environ, PYTHONPATH=str(Path(index.__file__).parent.parent))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    @pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="no fork here")
    def test_no_call_starts_a_thread_of_its_own(self):
        """Importing, cosine scoring and a loss step on a small batch start no thread;
        masked scoring and loss steps on shared batches start at most the pool's
        workers - 1 threads, however often they run, here and in a forked child."""
        out = self.run_script(
            """
            def step():
                batch = losses.build_batch(rng.normal(size=(4, 8)), rng.normal(size=(4, 8)))
                losses.total_loss(batch, 0.1, 1.0)
                losses.loss_gradients(batch, 0.1, 1.0)

            index.top_k(pool, rng.normal(size=8), 5)
            step()
            assert threading.active_count() == 1, "cosine and a small batch"
            losses._SHARED_WORK = 0

            def busy():
                for _ in range(50):
                    index.top_k(pool, rng.normal(size=8), 5, scoring="masked")
                    step()
                return threading.active_count()

            def child():
                raise SystemExit(busy())

            print(busy())
            proc = multiprocessing.get_context("fork").Process(target=child)
            proc.start()
            proc.join(timeout=30)
            print(proc.is_alive(), proc.exitcode)
            if proc.is_alive():
                proc.kill()
                proc.join()
            """
        )
        here, alive, child = out.split()
        assert alive == "False"
        for count in (int(here), int(child)):
            assert 1 < count <= 1 + 3 - 1

    @pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="no fork here")
    def test_forked_child_scans_on_threads_of_its_own(self):
        """A child forked after a masked scan has none of the scan threads, so it must
        not wait for them."""
        out = self.run_script(
            """
            query = rng.normal(size=8)
            want = index.top_k(pool, query, 5, scoring="masked").to_dict()

            def child():
                assert index.top_k(pool, query, 5, scoring="masked").to_dict() == want

            proc = multiprocessing.get_context("fork").Process(target=child)
            proc.start()
            proc.join(timeout=20)
            print(proc.is_alive(), proc.exitcode)
            if proc.is_alive():
                proc.kill()
                proc.join()
            """
        )
        assert out == "False 0\n"


class TestMergePools:
    def test_merge_single_pool_keeps_contents(self):
        pool = make_pool("p", [("a", [1.0, 0.0]), ("b", [0.0, 1.0])])
        merged = merge_pools([pool])
        assert merged.name == "all"
        assert merged.keys == pool.keys
        assert merged.metadata == pool.metadata
        np.testing.assert_array_equal(merged.matrix, pool.matrix)

    def test_merge_sizes_add_up(self):
        p1 = make_pool("p1", [("a", [1.0]), ("b", [2.0])])
        p2 = make_pool("p2", [("c", [3.0]), ("d", [4.0]), ("e", [5.0])])
        assert len(merge_pools([p1, p2])) == 5

    def test_same_doc_id_different_pools_allowed(self):
        p1 = make_pool("p1", [("page1", [1.0])])
        p2 = make_pool("p2", [("page1", [2.0])])
        merged = merge_pools([p1, p2])
        assert len(merged) == 2

    def test_duplicate_key_rejected(self):
        p1 = make_pool("p1", [("page1", [1.0])])
        with pytest.raises(DuplicateIdError):
            merge_pools([p1, p1])

    def test_dimension_mismatch(self):
        p1 = make_pool("p1", [("a", [1.0])])
        p2 = make_pool("p2", [("b", [1.0, 2.0])])
        with pytest.raises(DimensionMismatchError):
            merge_pools([p1, p2])

    def test_merge_of_no_pools_rejected(self):
        with pytest.raises(ValueError, match="^merge_pools needs at least one pool$"):
            merge_pools([])

    def test_pools_by_name_rejects_a_repeated_name(self):
        p1 = make_pool("p1", [("a", [1.0])])
        with pytest.raises(DuplicateIdError, match="^two pools named 'p1'$"):
            pools_by_name([p1, make_pool("p2", [("a", [1.0])]), p1])

    def test_pool_isolation(self):
        p1 = make_pool("p1", [("a", [1.0, 0.0])])
        result = top_k(p1, Embedding([1.0, 0.0]), k=5)
        assert all(e.pool_name == "p1" for e in result.entries)


@pytest.fixture(scope="module")
def built_from_files(tmp_path_factory):
    """A 2000 x 256 pool, read-only, with the paths of its corpus file and of its
    snapshots in format 1 and format 2."""
    n, d = 2000, 256
    pool = gaussian_pool(np.random.default_rng(47), n, d)
    folder = tmp_path_factory.mktemp("built")
    records = "".join(
        json.dumps({"doc_id": doc_id, "embedding": row.tolist(), "metadata": meta, "pool": name})
        + "\n"
        for (name, doc_id), meta, row in zip(pool.keys, pool.metadata, pool.matrix)
    )
    paths = {"corpus": folder / "p.jsonl", "v1": folder / "p.v1.snap", "v2": folder / "p.snap"}
    paths["corpus"].write_text(records, encoding="utf-8")
    header = {"count": n, "dimension": d, "format_version": 1, "name": pool.name}
    paths["v1"].write_text(json.dumps(header) + "\n" + records, encoding="utf-8")
    save_snapshot(pool, paths["v2"])
    return pool, paths


def halves(pool):
    """``pool``'s rows as two pools, named "a" and "b", for `merge_pools`."""
    half = len(pool) // 2
    return [
        Pool(name=name, matrix=pool.matrix[rows], keys=pool.keys[rows],
             metadata=pool.metadata[rows])
        for name, rows in (("a", slice(None, half)), ("b", slice(half, None)))
    ]


# each builds a pool from what `built_from_files` made before tracing starts
BUILDS = {
    "ingest": lambda paths, parts: ingest_corpus(paths["corpus"]),
    "load-v1": lambda paths, parts: load_snapshot(paths["v1"]),
    "load-v2": lambda paths, parts: load_snapshot(paths["v2"]),
    "merge": lambda paths, parts: merge_pools(parts),
}


class TestMatrixOwnership:
    """`Pool` copies a caller's matrix; the readers and `merge_pools` hand over the
    matrix they just built, so building a pool never holds two matrices."""

    def test_pool_copies_the_callers_matrix(self):
        """The caller's array stays writable, and a later write to it changes neither
        the pool's matrix nor a score."""
        arr = np.random.default_rng(48).normal(size=(4, 3))
        want = arr.copy()
        pool = Pool(name="p", matrix=arr, keys=tuple(("p", f"d{i}") for i in range(4)),
                    metadata=({},) * 4)
        before = top_k(pool, Embedding(want[0]), k=4).to_dict()
        assert arr.flags.writeable
        assert not np.shares_memory(pool.matrix, arr)
        arr[:] = 1.0
        np.testing.assert_array_equal(pool.matrix, want)
        assert top_k(pool, Embedding(want[0]), k=4).to_dict() == before

    @pytest.mark.parametrize("shape", [(3, 2), (4,), (4, 2, 1)])
    def test_matrix_that_does_not_fit_the_keys_rejected(self, shape):
        with pytest.raises(DimensionMismatchError, match=rf"^matrix of shape \({shape[0]},"):
            Pool(name="p", matrix=np.ones(shape), keys=tuple(("p", f"d{i}") for i in range(4)),
                 metadata=({},) * 4)

    @pytest.mark.parametrize("build", sorted(BUILDS))
    def test_built_pool_is_read_only_and_equal(self, build, built_from_files):
        pool, paths = built_from_files
        parts = halves(pool)
        got = BUILDS[build](paths, parts)
        assert not got.matrix.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            got.matrix[0, 0] = 1.0
        assert got.matrix.tobytes() == pool.matrix.tobytes()
        assert [key[1] for key in got.keys] == [key[1] for key in pool.keys]
        assert not any(np.shares_memory(got.matrix, part.matrix) for part in parts)

    @pytest.mark.parametrize("build", sorted(BUILDS))
    def test_high_water_is_one_matrix(self, build, built_from_files):
        """Building the pool traces a peak below 1.5 times its matrix's bytes: the
        matrix, plus the key and metadata columns and one record's parse."""
        pool, paths = built_from_files
        parts = halves(pool)
        got, peak = traced_peak(lambda: BUILDS[build](paths, parts))
        assert got.matrix.shape == pool.matrix.shape
        assert peak < 1.5 * got.matrix.nbytes


class TestSnapshots:
    def _big_pool(self):
        rng = np.random.default_rng(99)
        ids = [f"doc{i:03d}" for i in range(100)]
        metadata = {doc_id: {"text": f"body {i}", "page": i} for i, doc_id in enumerate(ids)}
        return make_pool("snap", list(zip(ids, rng.normal(size=(100, 6)))), metadata)

    def test_round_trip_equality(self, tmp_path):
        pool = self._big_pool()
        path = tmp_path / "pool.snap"
        save_snapshot(pool, path)
        assert load_snapshot(path) == pool

    def test_deterministic_bytes(self, tmp_path):
        pool = self._big_pool()
        a, b = tmp_path / "a.snap", tmp_path / "b.snap"
        save_snapshot(pool, a)
        save_snapshot(pool, b)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.snap"
        for header in (b"garbage\n", b"\xff\n"):
            path.write_bytes(header)
            with pytest.raises(FormatVersionMismatchError, match="unreadable snapshot header"):
                load_snapshot(path)

    # the header checks are the same for both formats; each test covers both
    @pytest.mark.parametrize(
        "field, value",
        [
            ("dimension", -1),
            ("count", -1),
            ("name", 7),
            ("dimension", 2.0),
            ("count", "0"),
            ("count", True),
        ],
    )
    def test_malformed_header_field(self, tmp_path, field, value):
        path = tmp_path / "bad.snap"
        for version in (1, 2):
            header = {"count": 0, "dimension": 2, "format_version": version, "name": "x"}
            path.write_text(json.dumps({**header, field: value}) + "\n", encoding="utf-8")
            with pytest.raises(CorpusParseError, match="snapshot header malformed"):
                load_snapshot(path)

    @pytest.mark.parametrize("header", [{"count": 0, "dimension": 2, "name": "x"}, [2]])
    def test_header_without_format_version(self, tmp_path, header):
        path = tmp_path / "bad.snap"
        path.write_text(json.dumps(header) + "\n", encoding="utf-8")
        missing = "^snapshot header missing format_version$"
        with pytest.raises(FormatVersionMismatchError, match=missing):
            load_snapshot(path)

    def test_missing_header_field(self, tmp_path):
        path = tmp_path / "bad.snap"
        for version in (1, 2):
            path.write_text(json.dumps({"count": 0, "format_version": version, "name": "x"}) + "\n")
            with pytest.raises(CorpusParseError, match="snapshot header malformed"):
                load_snapshot(path)

    def test_unknown_version(self, tmp_path):
        path = tmp_path / "v9.snap"
        for version in (9, 0, 3, True, 2.0, "2", None):
            path.write_text(
                json.dumps({"count": 0, "dimension": 2, "format_version": version, "name": "x"})
                + "\n"
            )
            with pytest.raises(FormatVersionMismatchError, match="unsupported"):
                load_snapshot(path)

    def test_truncated_snapshot_never_partial(self, tmp_path):
        pool = self._big_pool()
        path = tmp_path / "trunc.snap"
        save_snapshot(pool, path)
        data = path.read_bytes()
        # cut five rows off the matrix, then every line after doc095's record
        after_record_95 = data.index(b'"doc095"')
        after_record_95 = data.index(b"\n", after_record_95) + 1
        for size in (len(data) - 5 * 6 * 8, after_record_95):
            path.write_bytes(data[:size])
            with pytest.raises(CorpusParseError, match="declares 100"):
                load_snapshot(path)

    def test_format1_row_only_the_pool_refuses_names_its_line(self, tmp_path):
        """In a format 1 snapshot, a row that `Embedding` accepts and `Pool` refuses is
        named by its own line, after blank lines too."""
        header = {"count": 2, "dimension": 2, "format_version": 1, "name": "p"}
        records = [
            {"doc_id": "a", "embedding": [1.0, 1.0], "metadata": {}, "pool": "p"},
            {"doc_id": "b", "embedding": EDGE_ROW, "metadata": {}, "pool": "p"},
        ]
        lines = [json.dumps(header), json.dumps(records[0]), "", "", json.dumps(records[1])]
        path = tmp_path / "edge.snap"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(CorpusParseError, match="^line 5: .*'b'.* finite norm") as info:
            load_snapshot(path)
        assert info.value.line_number == 5

    def test_empty_pool_round_trip(self, tmp_path):
        pool = Pool(name="void", matrix=np.zeros((0, 0)), keys=(), metadata=())
        path = tmp_path / "void.snap"
        save_snapshot(pool, path)
        assert load_snapshot(path) == pool

    def test_golden_v1_snapshot_round_trips_bytes(self, tmp_path):
        # holds -0.0, 5e-324, 1e20, 0.1, non-ASCII metadata and one doc_id in two pools;
        # saving it writes the golden format 2 file, which loads to the same pool
        golden = DATA_DIR / "snapshot_v1.jsonl"
        pool = load_snapshot(golden)
        assert pool.keys == (("charts", "p1"), ("charts", "p2"), ("slides", "p1"))
        assert pool.matrix[0].tolist() == [-0.0, 5e-324, 1e20]
        assert np.signbit(pool.matrix[0, 0])
        path = tmp_path / "copy.snap"
        save_snapshot(pool, path)
        golden_v2 = DATA_DIR / "snapshot_v2.snap"
        assert path.read_bytes() == golden_v2.read_bytes()
        again = load_snapshot(golden_v2)
        assert again == pool
        assert again.matrix.tobytes() == pool.matrix.tobytes()

    def test_interrupted_save_keeps_previous_snapshot(self, tmp_path):
        old = self._big_pool()
        path = tmp_path / "pool.snap"
        save_snapshot(old, path)
        before = path.read_bytes()

        # the last row's metadata cannot be serialized, so the save fails
        # after the rows before it were written
        rows = [(f"new{i:03d}", np.ones(6)) for i in range(100)]
        bad = make_pool("snap", rows, {"new099": {"tags": {"not", "json"}}})
        with pytest.raises(TypeError, match="not JSON serializable"):
            save_snapshot(bad, path)
        assert path.read_bytes() == before
        assert load_snapshot(path) == old
        assert [p.name for p in tmp_path.iterdir()] == ["pool.snap"]



def snapshot_parts(pool, tmp_path):
    """Save ``pool`` and split the file into header dict, record dicts and matrix bytes."""
    path = tmp_path / "parts.snap"
    save_snapshot(pool, path)
    *lines, tail = path.read_bytes().split(b"\n", len(pool) + 1)
    return json.loads(lines[0]), [json.loads(line) for line in lines[1:]], tail


def join_parts(header, records, tail) -> bytes:
    lines = [json.dumps(value, sort_keys=True).encode() + b"\n" for value in [header, *records]]
    return b"".join(lines) + tail


def with_entry(tail: bytes, at: int, value: float) -> bytes:
    """``tail`` with its float64 entry number ``at`` set to ``value``."""
    return tail[:8 * at] + np.float64(value).tobytes() + tail[8 * at + 8:]


def without(record: dict, field: str) -> dict:
    return {name: value for name, value in record.items() if name != field}


# (header, records, tail) -> the same parts damaged, for a format 2 snapshot
# of `demo_pool`: 4 records of dimension 4
DAMAGED_V2 = {
    "tail-short-one-byte": lambda h, r, t: (h, r, t[:-1]),
    "tail-short-one-row": lambda h, r, t: (h, r, t[:-4 * 8]),
    "extra-bytes": lambda h, r, t: (h, r, t + b"\0"),
    "count-beyond-records": lambda h, r, t: ({**h, "count": 5}, r, t),
    "count-huge": lambda h, r, t: ({**h, "count": 2**62}, r, t),
    "count-beyond-maxsize": lambda h, r, t: ({**h, "count": 2**64}, r, t),
    "size-overflows": lambda h, r, t: ({**h, "dimension": 2**61}, r, t),
    "size-beyond-file": lambda h, r, t: ({**h, "dimension": 5}, r, t),
    "dimension-zero": lambda h, r, t: ({**h, "dimension": 0}, r, b""),
    "nan-row": lambda h, r, t: (h, r, with_entry(t, 5, math.nan)),
    "huge-row": lambda h, r, t: (h, r, with_entry(t, 9, 1e200)),
    "missing-doc-id": lambda h, r, t: (h, [without(r[0], "doc_id"), *r[1:]], t),
    "pool-not-string": lambda h, r, t: (h, [r[0], {**r[1], "pool": 7}, *r[2:]], t),
    "metadata-not-object": lambda h, r, t: (h, [*r[:3], {**r[3], "metadata": [1]}], t),
}
# the text some errors must hold: a fifth "record line" is the matrix's first bytes
DAMAGED_V2_MESSAGES = {"count-beyond-records": "line 6: .* declares 5 records"}


class TestSnapshotV2:
    @pytest.mark.parametrize("kind", DAMAGED_V2)
    def test_damaged_file_is_rejected(self, kind, tmp_path, capsys):
        """A damaged format 2 snapshot is a CorpusParseError, and exit 1 through the CLI."""
        path = tmp_path / "damaged.snap"
        path.write_bytes(join_parts(*DAMAGED_V2[kind](*snapshot_parts(demo_pool(), tmp_path))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CorpusParseError, match=DAMAGED_V2_MESSAGES.get(kind)):
                load_snapshot(path)
        fixtures = tmp_path / "fixtures.jsonl"
        fixtures.write_text(
            json.dumps({"embed": "query", "key": "q", "vector": [1.0, 0.0, 0.0, 0.0]}) + "\n"
        )
        argv = ["retrieve", str(path), "--query", "q", "--fixtures", str(fixtures)]
        assert main(argv) == EXIT_USER_ERROR
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("kind, line", [("nan-row", 3), ("huge-row", 4)])
    def test_non_finite_row_names_its_record(self, kind, line, tmp_path):
        path = tmp_path / "damaged.snap"
        path.write_bytes(join_parts(*DAMAGED_V2[kind](*snapshot_parts(demo_pool(), tmp_path))))
        with pytest.raises(CorpusParseError, match=f"charts', 'd{line - 1}'") as info:
            load_snapshot(path)
        assert info.value.line_number == line

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_round_trip_keeps_every_bit(self, data, tmp_path_factory):
        """save -> load gives an equal pool with equal bits; two saves give equal bytes."""
        d = data.draw(st.integers(1, 4))
        # -0.0, the least subnormal and entries up to 1e150, whose squares stay finite
        entry = st.one_of(
            st.sampled_from([-0.0, 5e-324, -5e-324, 1e150, -1e150]),
            st.floats(-1e150, 1e150),
        )
        text = st.text(max_size=6)  # includes non-ASCII characters
        meta = st.dictionaries(text, st.one_of(text, st.integers(), st.lists(text, max_size=2)))
        # the two pools draw doc_ids from one small set, so one doc_id can sit in both
        pools = []
        for name in ("charts", "slides"):
            ids = data.draw(st.lists(st.sampled_from(["p1", "p2", "p3", "ü"]), unique=True))
            rows = data.draw(arrays(np.float64, (len(ids), d), elements=entry))
            pools.append(
                Pool(
                    name=name,
                    matrix=rows,
                    keys=tuple((name, doc_id) for doc_id in ids),
                    metadata=tuple(data.draw(meta) for _ in ids),
                )
            )
        pool = merge_pools(pools)  # empty when both draw no doc_id
        folder = tmp_path_factory.mktemp("round-trip")
        first, second = folder / "first.snap", folder / "second.snap"
        save_snapshot(pool, first)
        save_snapshot(pool, second)
        loaded = load_snapshot(first)
        assert loaded == pool
        assert np.array_equal(loaded.matrix, pool.matrix)
        assert np.array_equal(np.signbit(loaded.matrix), np.signbit(pool.matrix))
        assert first.read_bytes() == second.read_bytes()
