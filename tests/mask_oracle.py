"""Per-pair staged mask derivation and the per-row top-k scans.

This is the code `holorag.masking` and the masked branch of
`holorag.index.top_k` ran before the mask math became one row-wise
`mask_pipeline`: one query-document pair at a time, through frozen
intermediate objects.  It is kept, arithmetic unchanged, as the reference
the row-wise code is tested against.  The cosine scan beside it scores one
row at a time, and both scans rank with a Python sort.

`whole_top_k_cosine` and `whole_top_k_masked` are the scoring `top_k` ran
before it walked the rows in blocks and stored the row norms: one row-wise
pass over the whole pool, whose scores the blocked code must match bit for
bit.
"""

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from holorag.errors import DimensionMismatchError, PartitionTooFineError, ZeroVectorError
from holorag.index import RankedEntry, RankedResult
from holorag.losses import Batch
from holorag.masking import DEFAULT_ALPHA, DEFAULT_EPS, MASK_LEVELS
from holorag.masking import mask_pipeline as row_mask_pipeline

# Tolerance on the unit-norm invariant of normalized embeddings.
NORM_TOLERANCE = 1e-6

VectorLike = Union[Sequence[float], np.ndarray]


def _as_vector(values: VectorLike) -> np.ndarray:
    arr = np.array(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a nonempty 1-D real vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector entries must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Embedding:
    """Fixed-dimension real vector with an explicit normalization flag."""

    values: np.ndarray
    is_normalized: bool = False

    def __post_init__(self):
        object.__setattr__(self, "values", _as_vector(self.values))
        if self.is_normalized:
            norm = float(np.linalg.norm(self.values))
            if abs(norm - 1.0) > NORM_TOLERANCE:
                raise ValueError(f"embedding flagged normalized but has norm {norm:.9f}")

    @property
    def dimension(self) -> int:
        return int(self.values.shape[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Embedding):
            return NotImplemented
        return (
            self.is_normalized == other.is_normalized
            and self.values.shape == other.values.shape
            and bool(np.all(self.values == other.values))
        )


@dataclass(frozen=True, eq=False)
class CorrelationVector:
    """Per-dimension correlation between a query and a document.

    ``raw`` holds the nonnegative elementwise correlations with their mean and
    population standard deviation; ``standardized`` is the sigmoid-scaled
    version in (0, 1), absent until `standardize_sigmoid` runs.
    """

    raw: np.ndarray
    mean: float
    std: float
    standardized: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "raw", _as_vector(self.raw))
        if np.any(self.raw < 0):
            raise ValueError("raw correlations must be nonnegative")
        if self.standardized is not None:
            std = _as_vector(self.standardized)
            if std.shape != self.raw.shape:
                raise DimensionMismatchError("raw and standardized dimensions differ")
            if np.any(std <= 0.0) or np.any(std >= 1.0):
                raise ValueError("standardized correlations must lie strictly in (0, 1)")
            object.__setattr__(self, "standardized", std)

    @property
    def dimension(self) -> int:
        return int(self.raw.shape[0])


@dataclass(frozen=True, eq=False)
class HybridMask:
    """Per-dimension weights in {0, 0.5, 1} plus the band-width parameter used."""

    weights: np.ndarray
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "weights", _as_vector(self.weights))
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")
        if not np.all(np.isin(self.weights, MASK_LEVELS)):
            raise ValueError("mask weights must be 0, 0.5, or 1")

    @property
    def dimension(self) -> int:
        return int(self.weights.shape[0])

    def support(self) -> np.ndarray:
        """Indices of nonzero weights."""
        return np.flatnonzero(self.weights)


@dataclass(frozen=True, eq=False)
class SubmaskSet:
    """Disjoint parts of a hybrid mask whose elementwise max rebuilds it."""

    parts: tuple
    seed: int

    def __post_init__(self):
        if not self.parts:
            raise ValueError("a submask set needs at least one part")
        parts = tuple(_as_vector(p) for p in self.parts)
        dim = parts[0].shape[0]
        if any(p.shape[0] != dim for p in parts):
            raise DimensionMismatchError("all submask parts must share one dimension")
        object.__setattr__(self, "parts", parts)

    @property
    def n_parts(self) -> int:
        return len(self.parts)


def l2_normalize(v: VectorLike) -> Embedding:
    """Scale a vector to unit Euclidean norm, preserving its direction.

    Raises:
        ZeroVectorError: if every entry is zero (no direction to preserve).
    """
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a nonempty 1-D real vector")
    norm = float(np.linalg.norm(arr))
    if norm == 0.0:
        raise ZeroVectorError("cannot normalize an all-zero vector")
    return Embedding(arr / norm, is_normalized=True)


def correlation(vq_n: Embedding, vd_n: Embedding) -> CorrelationVector:
    """Absolute elementwise product of two normalized embeddings.

    Records the mean and population standard deviation of the raw vector for
    the later sigmoid standardization.
    """
    if not (vq_n.is_normalized and vd_n.is_normalized):
        raise ValueError("correlation requires normalized embeddings")
    if vq_n.dimension != vd_n.dimension:
        raise DimensionMismatchError(
            f"query dimension {vq_n.dimension} != document dimension {vd_n.dimension}"
        )
    raw = np.abs(vq_n.values * vd_n.values)
    return CorrelationVector(raw=raw, mean=float(raw.mean()), std=float(raw.std()))


def standardize_sigmoid(c: CorrelationVector, eps: float = DEFAULT_EPS) -> CorrelationVector:
    """Squash raw correlations into (0, 1) via a z-scored sigmoid.

    Each entry becomes 1 / (1 + exp(-(raw - mean) / (std + eps))); ``eps``
    keeps the division defined when the correlations are constant, in which
    case every output is exactly 0.5.
    """
    if eps <= 0:
        raise ValueError("eps must be > 0")
    z = (c.raw - c.mean) / (c.std + eps)
    standardized = 1.0 / (1.0 + np.exp(-z))
    return CorrelationVector(raw=c.raw, mean=c.mean, std=c.std, standardized=standardized)


def hybrid_mask(
    c_std: CorrelationVector,
    alpha: float = DEFAULT_ALPHA,
    eps: float = DEFAULT_EPS,
) -> HybridMask:
    """Two-threshold mask over standardized correlations.

    With mu and sigma the mean and population standard deviation of the
    standardized vector, an entry scores (1[c > mu - alpha*sigma] +
    1[c > mu + alpha*sigma]) / 2, so weights land in {0, 0.5, 1}.  Both
    inequalities are strict; threshold ties fall to the lower level.

    A constant standardized vector (sigma < eps) carries no correlation
    signal; strict thresholds would zero the whole mask and annihilate the
    document embedding, so the all-ones mask is returned instead.
    """
    if c_std.standardized is None:
        raise ValueError("standardized correlations required; run standardize_sigmoid first")
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    s = c_std.standardized
    mu = float(s.mean())
    sigma = float(s.std())
    if sigma < eps:
        return HybridMask(np.ones_like(s), alpha)
    lower = s > (mu - alpha * sigma)
    upper = s > (mu + alpha * sigma)
    weights = (lower.astype(np.float64) + upper.astype(np.float64)) / 2.0
    return HybridMask(weights, alpha)


def partition_mask(m: HybridMask, n_parts: int, seed: int) -> SubmaskSet:
    """Split a mask into ``n_parts`` disjoint submasks at randomized positions.

    The nonzero support is shuffled with a seeded generator and cut into
    contiguous chunks as equal as possible, so every part is nonempty, the
    parts are pairwise disjoint, and their elementwise max rebuilds ``m``
    exactly.  Identical (mask, n_parts, seed) always produce the same split.

    Raises:
        PartitionTooFineError: if ``n_parts`` exceeds the nonzero support size.
    """
    if n_parts < 1:
        raise ValueError("n_parts must be >= 1")
    support = m.support()
    if n_parts > support.size:
        raise PartitionTooFineError(
            f"cannot split {support.size} nonzero coordinates into {n_parts} parts"
        )
    rng = np.random.default_rng(seed)
    order = rng.permutation(support)
    parts = []
    for chunk in np.array_split(order, n_parts):
        part = np.zeros(m.dimension, dtype=np.float64)
        part[chunk] = m.weights[chunk]
        parts.append(part)
    return SubmaskSet(parts=tuple(parts), seed=seed)


def apply_mask(values: VectorLike, weights: VectorLike) -> np.ndarray:
    """Elementwise product of an embedding with mask weights."""
    v = np.asarray(values, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if v.shape != w.shape:
        raise DimensionMismatchError(f"vector shape {v.shape} != mask shape {w.shape}")
    return v * w


def mask_pipeline(
    query: VectorLike,
    document: VectorLike,
    alpha: float = DEFAULT_ALPHA,
    eps: float = DEFAULT_EPS,
) -> HybridMask:
    """Full mask derivation for one pair: normalize, correlate, standardize, threshold."""
    c = correlation(l2_normalize(query), l2_normalize(document))
    return hybrid_mask(standardize_sigmoid(c, eps), alpha, eps)


def _rank_rows(pool, scores: np.ndarray, k: int) -> RankedResult:
    """Rows by score descending, then doc_id, then pool name, with a Python sort."""
    order = sorted(
        range(len(pool)),
        key=lambda i: (-scores[i], pool.keys[i][1], pool.keys[i][0]),
    )
    entries = tuple(
        RankedEntry(pool.keys[i][1], pool.keys[i][0], float(scores[i]))
        for i in order[: min(k, len(pool))]
    )
    return RankedResult(entries=entries, k=k)


def loop_top_k_cosine(pool, query: np.ndarray, k: int) -> RankedResult:
    """Cosine top-k as one dot product per row of ``pool.matrix``, in a Python loop."""
    q = np.asarray(query, dtype=np.float64)
    qn = float(np.linalg.norm(q))
    scores = np.zeros(len(pool))
    for i, vals in enumerate(pool.matrix):
        norm = float(np.linalg.norm(vals))
        if norm > 0.0:
            scores[i] = float(np.dot(q, vals) / (qn * norm))
    return _rank_rows(pool, scores, k)


def loop_top_k_masked(
    pool,
    query: np.ndarray,
    k: int,
    alpha: float = DEFAULT_ALPHA,
) -> RankedResult:
    """Masked top-k as one `mask_pipeline` call per row of ``pool.matrix``, in a Python loop."""
    q = np.asarray(query, dtype=np.float64)
    qn = float(np.linalg.norm(q))
    scores = np.zeros(len(pool))
    for i, vals in enumerate(pool.matrix):
        if not np.any(vals):
            continue
        masked = apply_mask(vals, mask_pipeline(q, vals, alpha).weights)
        mn = float(np.linalg.norm(masked))
        if mn > 0.0:
            scores[i] = float(np.dot(q, masked) / (qn * mn))
    return _rank_rows(pool, scores, k)


def _rank_whole(pool, q: np.ndarray, rows, docs: np.ndarray, k: int) -> RankedResult:
    """Score ``docs``, the pool's ``rows``, in one row-wise pass; other rows score 0."""
    qn = float(np.linalg.norm(q))
    dots = np.einsum("ij,j->i", docs, q)
    norms = np.sqrt(np.einsum("ij,ij->i", docs, docs))
    scores = np.zeros(len(pool))
    scores[rows] = np.divide(dots, qn * norms, out=np.zeros_like(norms), where=norms > 0.0)
    return _rank_rows(pool, scores, k)


def whole_top_k_cosine(pool, query: np.ndarray, k: int) -> RankedResult:
    """Cosine top-k with the row norms recomputed over the whole pool."""
    q = np.asarray(query, dtype=np.float64)
    return _rank_whole(pool, q, slice(None), pool.matrix, k)


def whole_top_k_masked(
    pool,
    query: np.ndarray,
    k: int,
    alpha: float = DEFAULT_ALPHA,
) -> RankedResult:
    """Masked top-k as one row-wise `mask_pipeline` call over every live row."""
    q = np.asarray(query, dtype=np.float64)
    live = np.einsum("ij,ij->i", pool.matrix, pool.matrix) > 0.0
    docs = pool.matrix[live]
    return _rank_whole(pool, q, live, docs * row_mask_pipeline(q, docs, alpha), k)


def loop_build_batch(
    queries: Sequence,
    documents: Sequence,
    alpha: float = DEFAULT_ALPHA,
    n_parts: int = 2,
    seed: int = 0,
) -> Batch:
    """`build_batch` with one `mask_pipeline` and one `partition_mask` call per pair."""
    if len(queries) != len(documents):
        raise ValueError("queries and documents must align")
    masks = [mask_pipeline(q, d, alpha) for q, d in zip(queries, documents)]
    return Batch(
        queries=np.stack(queries),
        positives=np.stack(documents),
        masks=np.stack([m.weights for m in masks]),
        submasks=np.stack(
            [np.stack(partition_mask(m, n_parts, seed + i).parts) for i, m in enumerate(masks)]
        ),
    )
