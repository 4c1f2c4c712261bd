"""Tests for corpus ingestion, exact retrieval, merging, and snapshots."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mask_oracle

from holorag.errors import (
    CorpusParseError,
    DimensionMismatchError,
    DuplicateIdError,
    FormatVersionMismatchError,
    ZeroVectorError,
)
from holorag.index import (
    DocumentRecord,
    Pool,
    ingest_corpus,
    load_snapshot,
    merge_pools,
    save_snapshot,
    top_k,
)
from holorag.masking import Embedding


def write_corpus(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")


def make_pool(name, vectors, texts=None):
    records = tuple(
        DocumentRecord(
            doc_id,
            name,
            Embedding(vec),
            {"text": texts[doc_id]} if texts and doc_id in texts else {},
        )
        for doc_id, vec in vectors
    )
    return Pool(name=name, dimension=len(records[0].embedding.values), records=records)


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

    def test_zero_query(self):
        pool = make_pool("p", [("a", [1.0, 0.0])])
        with pytest.raises(ZeroVectorError):
            top_k(pool, Embedding([0.0, 0.0]), k=1)

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
    @given(data=st.data(), d=st.integers(1, 8), n=st.integers(1, 12))
    def test_masked_matches_per_record_loop(self, data, d, n):
        # entries on a quarter grid; zero rows are kept
        grid = st.integers(-8, 8)
        distinct = data.draw(arrays(np.int8, (n, d), elements=grid)) / 4.0
        # record i stores row picks[i], so equal picks are exact duplicates;
        # doc_ids are shuffled so pool order is not doc_id order
        picks = [data.draw(st.integers(0, i)) for i in range(n)]
        ids = data.draw(st.permutations([f"d{i:02d}" for i in range(n)]))
        query = data.draw(arrays(np.int8, d, elements=grid)) / 4.0
        query[-1] = query[-1] or 1.0
        k = data.draw(st.integers(1, n))
        pool = make_pool("p", [(ids[i], distinct[j]) for i, j in enumerate(picks)])

        got = top_k(pool, Embedding(query), k=k, scoring="masked")
        want = mask_oracle.loop_top_k_masked(pool, query, k)
        assert got.doc_keys() == want.doc_keys()
        for g, w in zip(got.entries, want.entries):
            assert abs(g.score - w.score) <= 1e-12

        every = top_k(pool, Embedding(query), k=n, scoring="masked").entries
        by_row = {}
        for e in every:
            by_row.setdefault(picks[ids.index(e.doc_id)], set()).add(e.score)
        assert all(len(scores) == 1 for scores in by_row.values())

    def test_masked_duplicates_tie_exactly(self):
        # Gaussian entries: a matrix-vector product may round equal rows
        # differently, which would break the doc_id order among duplicates
        rng = np.random.default_rng(16)
        for d in (5, 37, 128):
            vectors = rng.normal(size=(41, d))
            copies = [1, 6, 13, 22, 39, 40]
            vectors[copies] = vectors[0]
            pool = make_pool("p", [(f"d{40 - i:02d}", v) for i, v in enumerate(vectors)])
            entries = top_k(pool, Embedding(rng.normal(size=d)), k=41, scoring="masked").entries
            tied = [e for e in entries if e.doc_id in {f"d{40 - i:02d}" for i in [0] + copies}]
            assert len({e.score for e in tied}) == 1
            ranks = [entries.index(e) for e in tied]
            assert ranks == list(range(ranks[0], ranks[0] + len(tied)))
            assert [e.doc_id for e in tied] == sorted(e.doc_id for e in tied)

    def test_unknown_scoring_mode(self):
        pool = make_pool("p", [("a", [1.0])])
        with pytest.raises(ValueError):
            top_k(pool, Embedding([1.0]), k=1, scoring="bm25")


class TestMergePools:
    def test_merge_single_pool_keeps_contents(self):
        pool = make_pool("p", [("a", [1.0, 0.0]), ("b", [0.0, 1.0])])
        merged = merge_pools([pool])
        assert merged.name == "all"
        assert merged.records == pool.records

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

    def test_pool_isolation(self):
        p1 = make_pool("p1", [("a", [1.0, 0.0])])
        result = top_k(p1, Embedding([1.0, 0.0]), k=5)
        assert all(e.pool_name == "p1" for e in result.entries)


class TestSnapshots:
    def _big_pool(self):
        rng = np.random.default_rng(99)
        records = tuple(
            DocumentRecord(
                f"doc{i:03d}",
                "snap",
                Embedding(rng.normal(size=6)),
                {"text": f"body {i}", "page": i},
            )
            for i in range(100)
        )
        return Pool(name="snap", dimension=6, records=records)

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
        path.write_text("garbage\n", encoding="utf-8")
        with pytest.raises(FormatVersionMismatchError):
            load_snapshot(path)

    def test_unknown_version(self, tmp_path):
        path = tmp_path / "v9.snap"
        path.write_text(
            json.dumps({"count": 0, "dimension": 2, "format_version": 9, "name": "x"}) + "\n"
        )
        with pytest.raises(FormatVersionMismatchError):
            load_snapshot(path)

    def test_truncated_snapshot_never_partial(self, tmp_path):
        pool = self._big_pool()
        path = tmp_path / "trunc.snap"
        save_snapshot(pool, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-5]) + "\n", encoding="utf-8")
        with pytest.raises(CorpusParseError, match="declares 100"):
            load_snapshot(path)

    def test_empty_pool_round_trip(self, tmp_path):
        pool = Pool(name="void", dimension=0, records=())
        path = tmp_path / "void.snap"
        save_snapshot(pool, path)
        assert load_snapshot(path) == pool

    def test_interrupted_save_keeps_previous_snapshot(self, tmp_path, monkeypatch):
        old = self._big_pool()
        path = tmp_path / "pool.snap"
        save_snapshot(old, path)
        before = path.read_bytes()

        def write_half_then_fail(self, data, encoding=None, errors=None, newline=None):
            with open(self, "w", encoding=encoding) as handle:
                handle.write(data[: len(data) // 2])
            raise OSError("simulated interruption mid-write")

        monkeypatch.setattr(Path, "write_text", write_half_then_fail)
        with pytest.raises(OSError, match="simulated"):
            save_snapshot(make_pool("snap", [("new", [1.0, 0.0])]), path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert load_snapshot(path) == old
        assert [p.name for p in tmp_path.iterdir()] == ["pool.snap"]
