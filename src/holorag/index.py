"""Document embedding store with exact cosine top-k retrieval.

Pools are immutable after construction; ingestion and merging build new
pools.  Retrieval is an exact full scan (corpora here are desk scale), with
deterministic tie-breaking so rankings are reproducible.
"""

import json
import os
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Dict, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .config import CHOICES
from .errors import (
    CorpusParseError,
    DimensionMismatchError,
    DuplicateIdError,
    FormatVersionMismatchError,
    ZeroVectorError,
)
from .masking import DEFAULT_ALPHA, DEFAULT_EPS, Embedding, mask_pipeline

SNAPSHOT_FORMAT_VERSION = 1

MERGED_POOL_NAME = "all"


@dataclass(frozen=True, eq=False)
class DocumentRecord:
    """One stored document: identity, provenance pool, embedding, metadata."""

    doc_id: str
    pool_name: str
    embedding: Embedding
    metadata: dict = field(default_factory=dict)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DocumentRecord):
            return NotImplemented
        return (
            self.doc_id == other.doc_id
            and self.pool_name == other.pool_name
            and self.embedding == other.embedding
            and self.metadata == other.metadata
        )

    def to_dict(self) -> dict:
        return {
            "doc_id": self.doc_id,
            "embedding": [float(x) for x in self.embedding.values],
            "metadata": self.metadata,
            "pool": self.pool_name,
        }


class RankedEntry(NamedTuple):
    doc_id: str
    pool_name: str
    score: float


@dataclass(frozen=True, eq=False)
class RankedResult:
    """Top-k retrieval outcome, scores descending, ties by ascending doc_id."""

    entries: Tuple[RankedEntry, ...]
    k: int

    def doc_keys(self) -> Tuple[Tuple[str, str], ...]:
        """(pool_name, doc_id) pairs in rank order."""
        return tuple((e.pool_name, e.doc_id) for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "entries": [
                {"doc_id": e.doc_id, "pool": e.pool_name, "score": e.score}
                for e in self.entries
            ],
        }


@dataclass(frozen=True, eq=False)
class Pool:
    """Named, immutable collection of document records sharing one dimension.

    ``by_key`` maps each record's (pool_name, doc_id) to the record.
    """

    name: str
    dimension: int
    records: Tuple[DocumentRecord, ...]
    by_key: Dict[Tuple[str, str], DocumentRecord] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        by_key = {}
        for rec in self.records:
            if rec.embedding.dimension != self.dimension:
                raise DimensionMismatchError(
                    f"record {rec.doc_id!r} has dimension {rec.embedding.dimension}, "
                    f"pool declares {self.dimension}"
                )
            key = (rec.pool_name, rec.doc_id)
            if key in by_key:
                raise DuplicateIdError(f"duplicate document key {key!r}")
            by_key[key] = rec
        object.__setattr__(self, "by_key", by_key)

    def __len__(self) -> int:
        return len(self.records)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Pool):
            return NotImplemented
        return (
            self.name == other.name
            and self.dimension == other.dimension
            and self.records == other.records
        )

    @cached_property
    def _matrix(self) -> np.ndarray:
        if not self.records:
            return np.zeros((0, self.dimension))
        return np.stack([rec.embedding.values for rec in self.records])

    @cached_property
    def _norms(self) -> np.ndarray:
        return np.linalg.norm(self._matrix, axis=1)


def _record_from_dict(data: dict, line_number: int, expect_dim: Optional[int]) -> DocumentRecord:
    if not isinstance(data, dict):
        raise CorpusParseError(f"line {line_number}: expected a JSON object", line_number)
    try:
        doc_id = data["doc_id"]
        pool_name = data["pool"]
        embedding = data["embedding"]
    except KeyError as exc:
        raise CorpusParseError(f"line {line_number}: missing field {exc}", line_number) from exc
    if not isinstance(doc_id, str) or not isinstance(pool_name, str):
        raise CorpusParseError(f"line {line_number}: doc_id and pool must be strings", line_number)
    if not isinstance(embedding, list) or not embedding:
        raise CorpusParseError(
            f"line {line_number}: embedding must be a nonempty array", line_number
        )
    if expect_dim is not None and len(embedding) != expect_dim:
        raise DimensionMismatchError(
            f"line {line_number}: embedding length {len(embedding)} != expected {expect_dim}"
        )
    metadata = data.get("metadata", {})
    if not isinstance(metadata, dict):
        raise CorpusParseError(f"line {line_number}: metadata must be an object", line_number)
    try:
        emb = Embedding(embedding)
    except (ValueError, TypeError) as exc:
        raise CorpusParseError(f"line {line_number}: bad embedding ({exc})", line_number) from exc
    return DocumentRecord(doc_id=doc_id, pool_name=pool_name, embedding=emb, metadata=metadata)


def ingest_corpus(path: Union[str, Path]) -> Pool:
    """Load a JSON-lines corpus file into a single pool.

    Each line is {"doc_id": str, "pool": str, "embedding": [floats],
    "metadata": object}; all lines must name the same pool and share one
    embedding dimension (inferred from the first record).  An empty file
    yields an empty pool and a warning.
    """
    path = Path(path)
    records = []
    pool_name: Optional[str] = None
    dimension: Optional[int] = None
    keys = set()
    with path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusParseError(
                    f"line {line_number}: invalid JSON ({exc.msg})", line_number
                ) from exc
            record = _record_from_dict(data, line_number, dimension)
            if pool_name is None:
                pool_name = record.pool_name
                dimension = record.embedding.dimension
            elif record.pool_name != pool_name:
                raise CorpusParseError(
                    f"line {line_number}: pool {record.pool_name!r} differs from "
                    f"{pool_name!r}; one corpus file holds one pool",
                    line_number,
                )
            key = (record.pool_name, record.doc_id)
            if key in keys:
                raise DuplicateIdError(f"line {line_number}: duplicate doc_id {record.doc_id!r}")
            keys.add(key)
            records.append(record)
    if not records:
        warnings.warn(f"corpus file {path} contained no records")
        return Pool(name=path.stem, dimension=0, records=())
    return Pool(name=pool_name, dimension=dimension, records=tuple(records))


def top_k(
    pool: Pool,
    query: Union[Embedding, Sequence[float]],
    k: int,
    scoring: str = "cosine",
    alpha: float = DEFAULT_ALPHA,
    eps: float = DEFAULT_EPS,
) -> RankedResult:
    """Exact top-k retrieval by cosine similarity.

    ``scoring="masked"`` first multiplies every document by its hybrid mask
    against the query (`mask_pipeline`, one call over the whole pool), then
    takes the cosine.  In both modes a record whose embedding norm is 0,
    all-zero or underflowed, scores 0, as does a document its mask zeroes.
    Ties break by ascending doc_id, then pool name.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if scoring not in CHOICES["scoring_mode"]:
        raise ValueError(f"unknown scoring mode {scoring!r}")
    q = query.values if isinstance(query, Embedding) else np.asarray(query, dtype=np.float64)
    if not pool.records:
        return RankedResult(entries=(), k=k)
    if q.shape != (pool.dimension,):
        raise DimensionMismatchError(
            f"query dimension {q.shape} does not match pool dimension {pool.dimension}"
        )
    qn = float(np.linalg.norm(q))
    if qn == 0.0:
        raise ZeroVectorError("query embedding is all zero")

    norms = pool._norms
    live = norms > 0.0
    if scoring == "cosine":
        dots = pool._matrix @ q
        scores = np.where(live, dots / (np.where(live, norms, 1.0) * qn), 0.0)
    else:
        docs = pool._matrix[live]
        masked = docs * mask_pipeline(q, docs, alpha, eps)
        # row-wise reductions, not a matrix product, so equal rows score equal
        dots = (masked * q).sum(axis=1)
        mn = np.linalg.norm(masked, axis=1)
        scores = np.zeros(len(pool.records))
        scores[live] = np.divide(dots, qn * mn, out=np.zeros_like(mn), where=mn > 0.0)

    order = sorted(
        range(len(pool.records)),
        key=lambda i: (-scores[i], pool.records[i].doc_id, pool.records[i].pool_name),
    )
    entries = tuple(
        RankedEntry(pool.records[i].doc_id, pool.records[i].pool_name, float(scores[i]))
        for i in order[: min(k, len(pool.records))]
    )
    return RankedResult(entries=entries, k=k)


def merge_pools(pools: Sequence[Pool]) -> Pool:
    """Union of several pools under the name "all".

    Records keep their original pool_name, so the same doc_id may appear once
    per source pool; a repeated (pool_name, doc_id) key is an error.
    """
    if not pools:
        raise ValueError("merge_pools needs at least one pool")
    dimensions = {p.dimension for p in pools if p.records}
    if len(dimensions) > 1:
        raise DimensionMismatchError(f"pools have mixed dimensions {sorted(dimensions)}")
    dimension = dimensions.pop() if dimensions else 0
    records = tuple(rec for pool in pools for rec in pool.records)
    return Pool(name=MERGED_POOL_NAME, dimension=dimension, records=records)


def save_snapshot(pool: Pool, path: Union[str, Path]) -> None:
    """Persist a pool as a versioned JSON-lines snapshot.

    The header line carries format version, dimension, count, and pool name;
    records follow in order with canonically sorted keys, so identical pools
    produce byte-identical files.  The file is written beside ``path`` and
    renamed over it, so an interrupted save leaves any previous snapshot
    intact.
    """
    path = Path(path)
    header = {
        "count": len(pool.records),
        "dimension": pool.dimension,
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "name": pool.name,
    }
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(json.dumps(rec.to_dict(), sort_keys=True) for rec in pool.records)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_snapshot(path: Union[str, Path]) -> Pool:
    """Load a snapshot written by `save_snapshot`; never yields a partial pool."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        header_line = handle.readline()
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise FormatVersionMismatchError(f"unreadable snapshot header: {exc.msg}") from exc
        if not isinstance(header, dict) or "format_version" not in header:
            raise FormatVersionMismatchError("snapshot header missing format_version")
        if header["format_version"] != SNAPSHOT_FORMAT_VERSION:
            raise FormatVersionMismatchError(
                f"snapshot format {header['format_version']!r} unsupported "
                f"(expected {SNAPSHOT_FORMAT_VERSION})"
            )
        try:
            name = header["name"]
            dimension = int(header["dimension"])
            count = int(header["count"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CorpusParseError(f"snapshot header malformed: {exc}") from exc
        records = []
        for line_number, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusParseError(
                    f"line {line_number}: invalid JSON ({exc.msg})", line_number
                ) from exc
            records.append(_record_from_dict(data, line_number, dimension if count else None))
    if len(records) != count:
        raise CorpusParseError(
            f"snapshot declares {count} records but contains {len(records)}"
        )
    return Pool(name=name, dimension=dimension, records=tuple(records))


def pools_by_name(pools: Sequence[Pool]) -> Dict[str, Pool]:
    """Index pools by name, rejecting duplicates."""
    out: Dict[str, Pool] = {}
    for pool in pools:
        if pool.name in out:
            raise DuplicateIdError(f"two pools named {pool.name!r}")
        out[pool.name] = pool
    return out
