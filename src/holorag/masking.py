"""Correlation-based hybrid masking, computed row-wise over embedding arrays.

`mask_pipeline` pairs query rows with document rows.  For each pair it takes
the absolute elementwise product of the two unit vectors, squashes it into
(0, 1) with a z-scored sigmoid, and gives each dimension a weight from a
two-threshold test at mu +/- alpha * sigma of that squashed row: 1 above the
upper band (salient), 0.5 inside it (detail at half strength), 0 below it.
The band width alpha is the method's one setting.  ``DEFAULT_EPS``, fixed at
1e-8, is a numerical guard with two jobs: it keeps the z-score's divisor
nonzero, and a squashed row whose spread falls below it counts as degenerate.
One call masks a whole document matrix against a query, or a whole batch of
pairs, so retrieval and batch construction share the same arithmetic.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, PartitionTooFineError, ZeroVectorError

# a constant, not a setting; perfbench/retrieve.py and tests/mask_oracle.py import it
DEFAULT_EPS = 1e-8
DEFAULT_ALPHA = 0.5

MASK_LEVELS = (0.0, 0.5, 1.0)

# JSON value types that np.array(..., dtype=float64) would silently turn into numbers
_NOT_NUMBERS = frozenset({str, bool, type(None)})


@dataclass(frozen=True, eq=False)
class Embedding:
    """Nonempty, finite, read-only 1-D real vector whose L2 norm is finite.

    A list or tuple holding a string, boolean or null entry is a TypeError
    that names the type.
    """

    values: np.ndarray

    def __post_init__(self):
        if isinstance(self.values, (list, tuple)):
            wrong = _NOT_NUMBERS.intersection(map(type, self.values))
            if wrong:
                name = min(kind.__name__ for kind in wrong)
                raise TypeError(f"vector entries must be numbers, got {name}")
        arr = np.array(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("expected a nonempty 1-D real vector")
        # a NaN or infinite entry, or an overflowing square, makes this non-finite
        with np.errstate(over="ignore"):
            squared_norm = arr @ arr
        if not np.isfinite(squared_norm):
            raise ValueError("vector entries and L2 norm must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(rows, axis=-1, keepdims=True)
    if not np.all(norms > 0.0):
        raise ZeroVectorError("cannot normalize a vector with zero norm")
    return rows / norms


def mask_pipeline(
    queries: np.ndarray,
    documents: np.ndarray,
    alpha: float = DEFAULT_ALPHA,
) -> np.ndarray:
    """Hybrid mask weights in {0, 0.5, 1} for every query-document row pair.

    ``queries`` is one (d,) row broadcast over (n, d) ``documents``, or a
    (B, d) array paired row by row with (B, d) ``documents``; the weights
    have the documents' shape.  Per pair, with c = |q/|q| * x/|x||:

        s = sigmoid((c - mean(c)) / (std(c) + eps))
        w = (1[s > mu - alpha*sigma] + 1[s > mu + alpha*sigma]) / 2

    where mu and sigma are the mean and population standard deviation of s,
    and eps is the fixed ``DEFAULT_EPS``.  Both inequalities are strict, so
    threshold ties fall to the lower level.  A row with sigma < eps carries
    no correlation signal; strict thresholds would zero it and annihilate the
    document, so it gets all ones instead.

    Raises:
        ValueError: if alpha is not finite and > 0 (NaN fails).
        DimensionMismatchError: if the shapes do not pair up.
        ZeroVectorError: if any query or document row has zero norm.
    """
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")
    q = np.asarray(queries, dtype=np.float64)
    d = np.asarray(documents, dtype=np.float64)
    if q.shape[-1:] != d.shape[-1:] or (q.ndim > 1 and q.shape != d.shape):
        raise DimensionMismatchError(
            f"query shape {q.shape} does not pair with document shape {d.shape}"
        )
    raw = np.abs(_unit_rows(q) * _unit_rows(d))
    z = (raw - raw.mean(axis=-1, keepdims=True)) / (raw.std(axis=-1, keepdims=True) + DEFAULT_EPS)
    s = 1.0 / (1.0 + np.exp(-z))
    mu = s.mean(axis=-1, keepdims=True)
    sigma = s.std(axis=-1, keepdims=True)
    weights = ((s > mu - alpha * sigma).astype(np.float64) + (s > mu + alpha * sigma)) / 2.0
    weights[sigma[..., 0] < DEFAULT_EPS] = 1.0
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
