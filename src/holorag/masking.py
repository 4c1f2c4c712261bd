"""Correlation-based hybrid masking, computed row-wise over embedding arrays.

`mask_pipeline` pairs query rows with document rows.  For each pair it takes
the absolute elementwise product of the two unit vectors, squashes it into
(0, 1) with a z-scored sigmoid, and gives each dimension a weight from a
two-threshold test at mu +/- alpha * sigma of that squashed row: 1 above the
upper band (salient), 0.5 inside it (detail at half strength), 0 below it.
One call masks a whole document matrix against a query, or a whole batch of
pairs, so retrieval and batch construction share the same arithmetic.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, PartitionTooFineError, ZeroVectorError

DEFAULT_EPS = 1e-8
DEFAULT_ALPHA = 0.5

MASK_LEVELS = (0.0, 0.5, 1.0)


@dataclass(frozen=True, eq=False)
class Embedding:
    """Nonempty, finite, read-only 1-D real vector."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("expected a nonempty 1-D real vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("vector entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def dimension(self) -> int:
        return int(self.values.shape[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Embedding):
            return NotImplemented
        return self.values.shape == other.values.shape and bool(
            np.all(self.values == other.values)
        )


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(rows, axis=-1, keepdims=True)
    if not np.all(norms > 0.0):
        raise ZeroVectorError("cannot normalize a vector with zero norm")
    return rows / norms


def mask_pipeline(
    queries: np.ndarray,
    documents: np.ndarray,
    alpha: float = DEFAULT_ALPHA,
    eps: float = DEFAULT_EPS,
) -> np.ndarray:
    """Hybrid mask weights in {0, 0.5, 1} for every query-document row pair.

    ``queries`` is one (d,) row broadcast over (n, d) ``documents``, or a
    (B, d) array paired row by row with (B, d) ``documents``; the weights
    have the documents' shape.  Per pair, with c = |q/|q| * x/|x||:

        s = sigmoid((c - mean(c)) / (std(c) + eps))
        w = (1[s > mu - alpha*sigma] + 1[s > mu + alpha*sigma]) / 2

    where mu and sigma are the mean and population standard deviation of s.
    Both inequalities are strict, so threshold ties fall to the lower level.
    A row with sigma < eps carries no correlation signal; strict thresholds
    would zero it and annihilate the document, so it gets all ones instead.

    Raises:
        ValueError: if alpha <= 0 or eps <= 0.
        DimensionMismatchError: if the shapes do not pair up.
        ZeroVectorError: if any query or document row has zero norm.
    """
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    if eps <= 0:
        raise ValueError("eps must be > 0")
    q = np.asarray(queries, dtype=np.float64)
    d = np.asarray(documents, dtype=np.float64)
    if q.shape[-1:] != d.shape[-1:] or (q.ndim > 1 and q.shape != d.shape):
        raise DimensionMismatchError(
            f"query shape {q.shape} does not pair with document shape {d.shape}"
        )
    raw = np.abs(_unit_rows(q) * _unit_rows(d))
    z = (raw - raw.mean(axis=-1, keepdims=True)) / (raw.std(axis=-1, keepdims=True) + eps)
    s = 1.0 / (1.0 + np.exp(-z))
    mu = s.mean(axis=-1, keepdims=True)
    sigma = s.std(axis=-1, keepdims=True)
    weights = ((s > mu - alpha * sigma).astype(np.float64) + (s > mu + alpha * sigma)) / 2.0
    weights[sigma[..., 0] < eps] = 1.0
    return weights


def partition_mask(weights: np.ndarray, n_parts: int, seed: int) -> np.ndarray:
    """Split one mask row into ``n_parts`` disjoint submasks at randomized positions.

    The nonzero support is shuffled with a seeded generator and cut into
    contiguous chunks as equal as possible, so every part (a row of the
    returned (n_parts, d) array) is nonempty, the parts are pairwise
    disjoint, and their elementwise max rebuilds ``weights`` exactly.
    Identical (weights, n_parts, seed) always produce the same split.

    Raises:
        PartitionTooFineError: if ``n_parts`` exceeds the nonzero support size.
    """
    if n_parts < 1:
        raise ValueError("n_parts must be >= 1")
    support = np.flatnonzero(weights)
    if n_parts > support.size:
        raise PartitionTooFineError(
            f"cannot split {support.size} nonzero coordinates into {n_parts} parts"
        )
    order = np.random.default_rng(seed).permutation(support)
    parts = np.zeros((n_parts, weights.shape[0]))
    for part, chunk in zip(parts, np.array_split(order, n_parts)):
        part[chunk] = weights[chunk]
    return parts
