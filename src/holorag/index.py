"""Document embedding store with exact cosine top-k retrieval.

A pool is stored as columns: one read-only (n, d) float64 matrix holding
every embedding once, and beside it the (pool_name, doc_id) key and the
metadata of each row.  Pools are immutable after construction; ingestion and
merging build new pools.  A pool copies a caller's matrix, but ingestion,
snapshot loading and merging hand over the fresh matrix they just built, so
the high-water mark of ingesting or loading a pool is one matrix plus the key
and metadata columns: the JSON-lines reader appends each checked row to one
growing buffer, and the format 2 reader reads the whole matrix into one array.
Retrieval is an exact full scan (corpora here are desk scale): both
scoring modes share one row-wise cosine formula, so equal rows score
equal, and one tie-safe cut ranks both modes: it sorts only the rows it
keeps, by score, then doc_id, then pool name.  Masked scoring hands the
matrix's fixed blocks of rows to `workers.share`, which scores them on the
calling thread and the threads of the pool that `workers` owns, which the
losses use too, and returns each block's dots and masked norms in block
order.  A block is a view of the matrix, masked and scored on its own, so no
query copies a row or allocates an (n, d) temporary.  Every row is scored
by the same arithmetic whichever thread scans it, so scores do not depend
on the worker count.  A snapshot (format 2) holds the records' keys and
metadata as JSON lines and the matrix after them as raw little-endian
float64, so saving and loading never format or parse a float; format 1
snapshots, all JSON lines, still load.  Every JSON line, of a corpus or a
snapshot, is read by the shared reader, `jsonl.json_objects`.
"""

import functools
import itertools
import json
import os
import sys
import warnings
from dataclasses import InitVar, dataclass, field
from pathlib import Path
from typing import BinaryIO, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from . import workers
from .config import CHOICES
from .errors import (
    CorpusParseError,
    DimensionMismatchError,
    DuplicateIdError,
    FormatVersionMismatchError,
    ZeroVectorError,
)
from .jsonl import atomic_write, json_objects, line_error
from .masking import DEFAULT_ALPHA, Embedding, check_alpha, mask_pipeline

SNAPSHOT_FORMAT_VERSION = 2

# the matrix tail of a format 2 snapshot: row-major little-endian float64
_MATRIX_DTYPE = np.dtype("<f8")

MERGED_POOL_NAME = "all"

# rows per block of masked scoring: the block's mask temporaries stay in cache
_BLOCK_ROWS = 512

Key = Tuple[str, str]


class RankedEntry(NamedTuple):
    doc_id: str
    pool_name: str
    score: float


@dataclass(frozen=True, eq=False)
class RankedResult:
    """Top-k retrieval outcome, scores descending, ties by ascending doc_id, then pool name."""

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


class _NonFiniteRowError(ValueError):
    """A pool row that is not finite or whose norm overflows; ``row`` is its index."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


@dataclass(frozen=True, eq=False)
class Pool:
    """Named, immutable set of documents stored as columns.

    Row i of the read-only (n, d) ``matrix`` is the embedding of the document
    keyed ``keys[i]``, a (pool_name, doc_id) pair, whose metadata is
    ``metadata[i]``.  ``rows`` maps each key to its row.  A caller's matrix
    is copied, so later writes to it cannot reach the pool.  ``_owned`` lets
    `ingest_corpus`, `load_snapshot` and `merge_pools` hand over the fresh
    float64 matrix they just built, which nothing else holds, uncopied, so
    building a pool never holds two matrices.  Every row must be finite with
    a finite norm, or the error names the first row's key.  The row norms are
    computed once here and stored, so cosine scoring computes only the dots.
    No tie order is stored: `top_k` orders the rows at its cut.
    """

    name: str
    matrix: np.ndarray
    keys: Tuple[Key, ...]
    metadata: Tuple[dict, ...]
    rows: Dict[Key, int] = field(init=False, repr=False)
    _norms: np.ndarray = field(init=False, repr=False)
    _owned: InitVar[bool] = False

    def __post_init__(self, _owned: bool):
        matrix = np.array(self.matrix, dtype=np.float64, copy=not _owned)
        keys, metadata = tuple(self.keys), tuple(self.metadata)
        if matrix.ndim != 2 or not (matrix.shape[0] == len(keys) == len(metadata)):
            raise DimensionMismatchError(
                f"matrix of shape {matrix.shape} does not match "
                f"{len(keys)} keys and {len(metadata)} metadata entries"
            )
        rows = {}
        for i, key in enumerate(keys):
            if key in rows:
                raise DuplicateIdError(f"duplicate document key {key!r}")
            rows[key] = i
        with np.errstate(over="ignore"):
            squared_norms = np.einsum("ij,ij->i", matrix, matrix)
        bad = np.flatnonzero(~np.isfinite(squared_norms))
        if bad.size:
            row = int(bad[0])
            message = f"embedding of {keys[row]!r} must be finite with a finite norm"
            raise _NonFiniteRowError(message, row)
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "metadata", metadata)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_norms", np.sqrt(squared_norms))

    @property
    def dimension(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return self.matrix.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Pool):
            return NotImplemented
        return (
            self.name == other.name
            and self.keys == other.keys
            and self.metadata == other.metadata
            and np.array_equal(self.matrix, other.matrix)
        )


def _read_rows(
    handle: BinaryIO, first_line: int, dimension: Optional[int], one_pool: bool
) -> Tuple[List[Key], List[dict], np.ndarray, List[int]]:
    """Parse JSON-lines documents into key, metadata, matrix and line-number columns.

    `json_objects` reads the binary ``handle``, numbering lines from
    ``first_line``; each object is {"doc_id": str, "pool": str, "embedding":
    [floats], "metadata": object}.  Every embedding must pass `Embedding`'s
    check and have ``dimension`` entries, or as many as the first one when
    ``dimension`` is None.  With ``one_pool`` every line must name the same
    pool.  Errors name the line; a repeated key is left to `Pool`.  The
    checked rows are appended, end to end, to one growing buffer, which the
    matrix views, so the rows are never held twice.
    """
    keys: List[Key] = []
    metadata: List[dict] = []
    lines: List[int] = []
    rows = bytearray()
    for line_number, data in json_objects(handle, first_line):
        key, meta = _key_and_metadata(line_number, data)
        try:
            values = Embedding(data["embedding"]).values
        except KeyError as exc:
            raise line_error(line_number, f"missing field {exc}") from exc
        except (ValueError, TypeError) as exc:
            raise line_error(line_number, f"bad embedding ({exc})") from exc
        if dimension is not None and len(values) != dimension:
            raise DimensionMismatchError(
                f"line {line_number}: embedding length {len(values)} != expected {dimension}"
            )
        if one_pool and keys and key[0] != keys[0][0]:
            raise line_error(
                line_number,
                f"pool {key[0]!r} differs from {keys[0][0]!r}; one corpus file holds one pool",
            )
        dimension = len(values)
        keys.append(key)
        metadata.append(meta)
        lines.append(line_number)
        rows += values.data
    matrix = np.frombuffer(rows, dtype=np.float64).reshape(len(keys), dimension or 0)
    return keys, metadata, matrix, lines


def _owned_pool(name: str, matrix, keys, metadata, lines: Sequence[int]) -> Pool:
    """`Pool` over the columns a reader just built; row i's error names ``lines[i]``.
    `Pool`'s pairwise sum, which `Embedding`'s dot may find finite, has the last word."""
    try:
        return Pool(name=name, matrix=matrix, keys=keys, metadata=metadata, _owned=True)
    except _NonFiniteRowError as exc:
        raise line_error(lines[exc.row], str(exc)) from exc


def _key_and_metadata(line_number: int, data: dict) -> Tuple[Key, dict]:
    """The (pool, doc_id) key and the metadata of one record line, checked."""
    try:
        doc_id = data["doc_id"]
        pool_name = data["pool"]
    except KeyError as exc:
        raise line_error(line_number, f"missing field {exc}") from exc
    if not isinstance(doc_id, str) or not isinstance(pool_name, str):
        raise line_error(line_number, "doc_id and pool must be strings")
    meta = data.get("metadata", {})
    if not isinstance(meta, dict):
        raise line_error(line_number, "metadata must be an object")
    return (pool_name, doc_id), meta


def _read_records(handle: BinaryIO, count: int) -> Tuple[List[Key], List[dict]]:
    """Read the ``count`` record lines of a format 2 snapshot, numbered from 2.

    Each holds "doc_id", "pool" and "metadata" and gets the field checks of
    `_read_rows`.  A failing line's error also gives the declared count, since
    a count above the record lines makes the matrix's first bytes a "line".
    """
    keys: List[Key] = []
    metadata: List[dict] = []
    # no file holds sys.maxsize lines, and islice takes no larger stop
    lines = itertools.islice(handle, min(count, sys.maxsize))
    try:
        for line_number, data in json_objects(lines, 2):
            key, meta = _key_and_metadata(line_number, data)
            keys.append(key)
            metadata.append(meta)
    except CorpusParseError as exc:
        message = f"{exc}; the snapshot header declares {count} records"
        raise CorpusParseError(message, exc.line_number) from exc
    return keys, metadata


def _read_matrix(handle: BinaryIO, count: int, dimension: int) -> np.ndarray:
    """Read the (``count``, ``dimension``) matrix that ends a format 2 snapshot.

    The bytes left must be exactly ``count`` x ``dimension`` float64 values;
    that is checked against the file size before any of them is read, so a
    header that lies about its sizes never sizes an allocation.  Its rows are
    checked by `Pool`, whose error `_owned_pool` gives the record's line.
    """
    size = count * dimension * _MATRIX_DTYPE.itemsize
    left = os.fstat(handle.fileno()).st_size - handle.tell()
    if left != size:
        raise CorpusParseError(
            f"snapshot declares {count} records of dimension {dimension}, "
            f"{size} bytes of matrix, but {left} bytes follow the records"
        )
    matrix = np.fromfile(handle, dtype=_MATRIX_DTYPE, count=count * dimension)
    if matrix.size != count * dimension:
        raise CorpusParseError(f"snapshot matrix ended after {matrix.size} values")
    return matrix.reshape(count, dimension)


def ingest_corpus(path: Union[str, Path]) -> Pool:
    """Load a JSON-lines corpus file into a single pool.

    Each line is {"doc_id": str, "pool": str, "embedding": [floats],
    "metadata": object}; all lines must name the same pool and share one
    embedding dimension (inferred from the first record).  An empty file
    yields an empty pool and a warning.
    """
    path = Path(path)
    with path.open("rb") as handle:
        keys, metadata, matrix, lines = _read_rows(handle, 1, None, one_pool=True)
    if not keys:
        warnings.warn(f"corpus file {path} contained no records")
        return Pool(name=path.stem, matrix=matrix, keys=(), metadata=(), _owned=True)
    return _owned_pool(keys[0][0], matrix, keys, metadata, lines)


def _score_block(
    pool: Pool, q: np.ndarray, alpha: float, start: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The dots with ``q`` and the masked norms of the block of rows from ``start``,
    a view of the matrix masked by `mask_pipeline`, looked up as this module's
    global once per block, and multiplied into the weights it returns."""
    docs = pool.matrix[start : start + _BLOCK_ROWS]
    masked = mask_pipeline(q, docs, alpha)
    np.multiply(masked, docs, out=masked)
    return np.einsum("ij,j->i", masked, q), np.sqrt(np.einsum("ij,ij->i", masked, masked))


def top_k(
    pool: Pool,
    query: Union[Embedding, Sequence[float]],
    k: int,
    scoring: str = "cosine",
    alpha: float = DEFAULT_ALPHA,
) -> RankedResult:
    """Exact top-k retrieval by cosine similarity.

    A plain-sequence query gets `Embedding`'s checks, so a NaN raises
    ValueError.  The query must be nonzero and as long as the pool's rows,
    in an empty pool too; only a (0, 0) pool, as an empty corpus file or a
    merge of empty pools gives, has no dimension to match.
    ``scoring="masked"`` first multiplies every document by its hybrid mask
    against the query, whose band width is ``alpha``; its numerical guard eps
    is a constant, and ``alpha`` is checked whatever the pool holds.
    `workers.share` scores the matrix's blocks of ``_BLOCK_ROWS`` rows by
    `_score_block` on the calling thread and on up to one pool thread per
    further CPU in this process's affinity mask, and returns them in block
    order; a one-block scan, or a one-CPU process, runs in the caller alone.
    Both modes then score each row by one row-wise formula, dot(q, x) /
    (|q| |x|), the same in any block on any thread, so the scores do not
    depend on the worker count and exact duplicate rows score bit-identically.
    Cosine mode divides by the norms the pool stored, which are the same
    row-wise sums.  A row of norm 0, all-zero or underflowed, scores 0 in
    both modes, as does a document its mask zeroes.  The cut keeps every row
    scoring at least the k-th largest score, k rows plus any tied with the
    k-th, and sorts only those by (-score, doc_id, pool_name), a total order
    since keys are unique: the same doc_id in two pools of a merged pool
    falls back to the pool name.

    Known limitation: masked scoring pays off when a query matches its gold
    document on a few informative dimensions among many it leaves out.  On
    isotropic data, a Gaussian document plus Gaussian noise, there is nothing
    for the mask to single out, and masked ranks slightly below cosine
    (nDCG@5 lower by 0.003-0.043 at n = 500, d = 64, noise sigma = 2;
    `tests/test_retrieval_claim.py` pins the direction).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if scoring not in CHOICES["scoring_mode"]:
        raise ValueError(f"unknown scoring mode {scoring!r}")
    if scoring == "masked":
        check_alpha(alpha)
    q = (query if isinstance(query, Embedding) else Embedding(query)).values
    if q.shape != (pool.dimension,) and pool.matrix.shape != (0, 0):
        raise DimensionMismatchError(
            f"query dimension {q.shape} does not match pool dimension {pool.dimension}"
        )
    qn = float(np.linalg.norm(q))
    if qn == 0.0:
        raise ZeroVectorError("query embedding is all zero")
    if len(pool) == 0:
        return RankedResult(entries=(), k=k)

    # per-row sums of products, not a BLAS product, so equal rows score equal
    if scoring == "masked":
        starts = range(0, len(pool), _BLOCK_ROWS)
        scored = workers.share(functools.partial(_score_block, pool, q, alpha), starts)
        dots, norms = map(np.concatenate, zip(*scored))
    else:
        dots, norms = np.einsum("ij,j->i", pool.matrix, q), pool._norms
    scores = np.divide(dots, qn * norms, out=np.zeros_like(norms), where=norms > 0.0)

    # every row tied with the k-th largest score is kept, so the sort, not
    # the partition, decides which tied rows make the cut
    n = len(pool)
    if k < n:
        kept = np.flatnonzero(scores >= np.partition(scores, n - k)[n - k])
    else:
        kept = np.arange(n)
    order = sorted(kept, key=lambda i: (-scores[i], pool.keys[i][1], pool.keys[i][0]))[:k]
    entries = tuple(
        RankedEntry(pool.keys[i][1], pool.keys[i][0], float(scores[i])) for i in order
    )
    return RankedResult(entries=entries, k=k)


def merge_pools(pools: Sequence[Pool]) -> Pool:
    """Union of several pools under the name "all".

    Records keep their original pool_name, so the same doc_id may appear once
    per source pool; a repeated (pool_name, doc_id) key is an error.
    """
    if not pools:
        raise ValueError("merge_pools needs at least one pool")
    filled = [p for p in pools if len(p)]
    dimensions = {p.dimension for p in filled}
    if len(dimensions) > 1:
        raise DimensionMismatchError(f"pools have mixed dimensions {sorted(dimensions)}")
    return Pool(
        name=MERGED_POOL_NAME,
        matrix=np.concatenate([p.matrix for p in filled]) if filled else np.zeros((0, 0)),
        keys=tuple(key for p in filled for key in p.keys),
        metadata=tuple(meta for p in filled for meta in p.metadata),
        _owned=True,
    )


def _json_line(value: dict) -> bytes:
    return (json.dumps(value, sort_keys=True) + "\n").encode("ascii")


def save_snapshot(pool: Pool, path: Union[str, Path]) -> None:
    """Persist a pool as a format 2 snapshot.

    The file holds, in order:

    - a JSON header line with format_version, dimension, count and name;
    - ``count`` JSON lines, one per record in row order:
      {"doc_id", "metadata", "pool"};
    - the (count, dimension) matrix, row-major little-endian float64, to the
      end of the file.

    JSON keys are sorted and non-ASCII text is escaped, so identical pools
    produce byte-identical files.  `atomic_write` writes the file beside
    ``path`` and renames it over it, so an interrupted save leaves any
    previous snapshot intact.
    """
    header = {
        "count": len(pool),
        "dimension": pool.dimension,
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "name": pool.name,
    }
    with atomic_write(path) as handle:
        handle.write(_json_line(header))
        for (pool_name, doc_id), metadata in zip(pool.keys, pool.metadata):
            record = {"doc_id": doc_id, "metadata": metadata, "pool": pool_name}
            handle.write(_json_line(record))
        handle.write(np.ascontiguousarray(pool.matrix, dtype=_MATRIX_DTYPE).data)


def load_snapshot(path: Union[str, Path]) -> Pool:
    """Load a snapshot written by `save_snapshot`; never yields a partial pool.

    Format 2 is the layout `save_snapshot` writes.  Format 1, in which every
    record is a JSON line with its "embedding" list, is still read.  Any
    damage to the file raises `CorpusParseError`, or
    `FormatVersionMismatchError` for an unreadable header or unknown format.
    """
    path = Path(path)
    with path.open("rb") as handle:
        try:
            header = json.loads(handle.readline())
        except ValueError as exc:
            raise FormatVersionMismatchError(f"unreadable snapshot header: {exc}") from exc
        if not isinstance(header, dict) or "format_version" not in header:
            raise FormatVersionMismatchError("snapshot header missing format_version")
        version = header["format_version"]
        if type(version) is not int or version not in (1, SNAPSHOT_FORMAT_VERSION):
            raise FormatVersionMismatchError(
                f"snapshot format {version!r} unsupported "
                f"(expected 1 or {SNAPSHOT_FORMAT_VERSION})"
            )
        name, dimension, count = (header.get(f) for f in ("name", "dimension", "count"))
        sizes_ok = all(type(n) is int and n >= 0 for n in (dimension, count))
        # every embedding is nonempty, so records need a dimension of at least 1
        if not (isinstance(name, str) and sizes_ok and (dimension or not count)):
            raise CorpusParseError(
                "snapshot header malformed: need a string name, an integer count >= 0 and "
                "an integer dimension >= 0, >= 1 if count > 0, got "
                f"name={name!r}, dimension={dimension!r}, count={count!r}"
            )
        if version == 1:
            keys, metadata, matrix, lines = _read_rows(handle, 2, dimension, one_pool=False)
        else:
            keys, metadata = _read_records(handle, count)
            lines = range(2, count + 2)  # no blank record lines: record i is on line i + 2
        if len(keys) != count:
            raise CorpusParseError(f"snapshot declares {count} records but contains {len(keys)}")
        if version == 2:
            matrix = _read_matrix(handle, count, dimension)
    return _owned_pool(name, matrix, keys, metadata, lines)


def pools_by_name(pools: Sequence[Pool]) -> Dict[str, Pool]:
    """Index pools by name, rejecting duplicates."""
    out: Dict[str, Pool] = {}
    for pool in pools:
        if pool.name in out:
            raise DuplicateIdError(f"two pools named {pool.name!r}")
        out[pool.name] = pool
    return out
