"""Correlation-based hybrid masking, computed row-wise over embedding arrays.

`mask_pipeline` pairs query rows with document rows.  For each pair it takes
the absolute elementwise product of the two unit vectors, squashes it into
(0, 1) with a z-scored sigmoid, and gives each dimension a weight from a
two-threshold test at mu +/- alpha * sigma of that squashed row: 1 above the
upper band (salient), 0.5 inside it (detail at half strength), 0 below it.
The band width alpha is the method's one setting.  ``DEFAULT_EPS``, fixed at
1e-8, is a numerical guard with two jobs: it keeps the z-score's divisor
nonzero, and a squashed row whose spread falls below it counts as degenerate
and gets all ones, as does every pair with a query or document of norm 0.
One call masks a whole document matrix against a query, or a whole batch of
pairs, so retrieval and batch construction share the same arithmetic.

`mask_pipeline` works in two (n, d) buffers with ``out=`` ufuncs.  Its
reductions are the formulas ``np.linalg.norm``, ``.mean`` and ``.std`` use on
one 1-D vector, spelled out so none allocates an (n, d) array: sqrt(x.dot(x)),
one BLAS dot per row, add.reduce(x) / n and sqrt(add.reduce((x - mean)**2) / n).
So the weights equal the staged oracle in ``tests/mask_oracle.py`` bit for
bit.  The row-wise ``np.linalg.norm(rows, axis=-1)`` sums pairwise instead,
which differs in the last bit and moves entries tied at a threshold.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, PartitionTooFineError

# a constant, not a setting; perfbench/retrieve.py and tests/mask_oracle.py import it
DEFAULT_EPS = 1e-8
DEFAULT_ALPHA = 0.5

MASK_LEVELS = (0.0, 0.5, 1.0)

# JSON value types, and bytes, that float() or np.array(..., dtype=float64) would turn into numbers
_NOT_NUMBERS = frozenset({str, bytes, bool, type(None)})


def check_numbers(values, what: str) -> None:
    """Raise a TypeError naming the type of any string, bytes, boolean or null in ``values``."""
    wrong = _NOT_NUMBERS.intersection(map(type, values))
    if wrong:
        raise TypeError(f"{what} must be numbers, got {min(kind.__name__ for kind in wrong)}")


@dataclass(frozen=True, eq=False)
class Embedding:
    """Nonempty, finite, read-only 1-D real vector whose L2 norm is finite.

    A list or tuple holding a string, bytes, boolean or null entry is a
    TypeError that names the type.
    """

    values: np.ndarray

    def __post_init__(self):
        if isinstance(self.values, (list, tuple)):
            check_numbers(self.values, "vector entries")
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


def check_alpha(alpha: float) -> None:
    """Reject a band width outside (0, inf), NaN included."""
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")


def _unit_rows(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``rows`` scaled to unit length into ``out``, rows of norm 0 left as they are;
    each norm is one BLAS dot per row, as ``np.linalg.norm`` takes it of one vector."""
    norms = np.sqrt(np.matmul(rows[..., None, :], rows[..., :, None])[..., 0])
    return np.divide(rows, np.where(norms > 0.0, norms, 1.0), out=out)


def _row_mean_std(rows: np.ndarray, scratch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and population standard deviation of each row, as ``ndarray.mean``
    and ``.std`` compute them; ``scratch`` receives the squared deviations."""
    n = rows.shape[-1]
    mean = np.add.reduce(rows, axis=-1, keepdims=True) / n
    np.subtract(rows, mean, out=scratch)
    np.multiply(scratch, scratch, out=scratch)
    return mean, np.sqrt(np.add.reduce(scratch, axis=-1, keepdims=True) / n)


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
    document, so it gets all ones instead.  So does a pair whose query or
    document has norm 0, all-zero or underflowed: c is so small that s is 0.5.

    Raises:
        ValueError: if alpha is not finite and > 0 (NaN fails).
        DimensionMismatchError: if the shapes do not pair up.
    """
    check_alpha(alpha)
    # contiguous rows, so every row is reduced in the same order as a 1-D vector
    q = np.asarray(queries, dtype=np.float64, order="C")
    d = np.asarray(documents, dtype=np.float64, order="C")
    if q.shape[-1:] != d.shape[-1:] or (q.ndim > 1 and q.shape != d.shape):
        raise DimensionMismatchError(
            f"query shape {q.shape} does not pair with document shape {d.shape}"
        )
    # s holds the unit queries, then |q * x|, then the sigmoid; weights holds
    # the unit documents, then the squared deviations, then the weights
    s = np.empty(d.shape)
    weights = np.empty(d.shape)
    unit_q = _unit_rows(q, s if q.ndim > 1 else np.empty(q.shape))
    np.multiply(unit_q, _unit_rows(d, weights), out=s)
    np.abs(s, out=s)
    mean, std = _row_mean_std(s, weights)
    # sigmoid(z) = 1 / (1 + exp(-z)); a / (-b) is bitwise -(a / b)
    np.subtract(s, mean, out=s)
    np.divide(s, -(std + DEFAULT_EPS), out=s)
    np.exp(s, out=s)
    np.add(s, 1.0, out=s)
    np.divide(1.0, s, out=s)
    mu, sigma = _row_mean_std(s, weights)
    level = np.greater(s, mu - alpha * sigma).view(np.uint8)
    level += np.greater(s, mu + alpha * sigma)
    np.multiply(level, 0.5, out=weights)
    weights[sigma[..., 0] < DEFAULT_EPS] = 1.0
    return weights


def partition_mask(weights: np.ndarray, n_parts: int, seed: int) -> np.ndarray:
    """Split each (B, d) mask row into ``n_parts`` disjoint submasks at randomized positions.

    Row i's nonzero support is shuffled by ``default_rng(seed + i)`` and cut
    into contiguous chunks as equal as possible (the first chunks one longer,
    as ``np.array_split`` cuts), so in the returned (B, n_parts, d) array
    every part is nonempty, the parts of a row are pairwise disjoint, and
    their elementwise max rebuilds the row exactly.  Identical (weights,
    n_parts, seed) always produce the same split.

    Raises:
        PartitionTooFineError: if ``n_parts`` exceeds a row's nonzero support size.
    """
    if n_parts < 1:
        raise ValueError("n_parts must be >= 1")
    support = weights != 0.0  # flatnonzero is several times faster on booleans
    flat = np.flatnonzero(support)
    sizes = np.count_nonzero(support, axis=1)
    if n_parts > sizes.min():
        raise PartitionTooFineError(
            f"cannot split {sizes.min()} nonzero coordinates into {n_parts} parts"
        )
    starts = np.cumsum(sizes) - sizes
    for i, (start, size) in enumerate(zip(starts, sizes)):
        # in place, as Generator.permutation shuffles its copy of row i's support
        np.random.default_rng(seed + i).shuffle(flat[start : start + size])
    # row i's chunk c > 0 starts at c * short + min(c, extra), where np.array_split
    # cuts it; counting the cuts at or before an entry gives i * (n_parts - 1) + c,
    # which moves its flat index i * d + j to (i * n_parts + c) * d + j
    c = np.arange(1, n_parts)
    short, extra = np.divmod(sizes[:, None], n_parts)
    cuts = np.zeros(flat.size, dtype=np.intp)
    cuts[starts[:, None] + c * short + np.minimum(c, extra)] = 1
    parts = np.zeros((weights.shape[0], n_parts, weights.shape[1]))
    np.put(parts, flat + np.cumsum(cuts) * weights.shape[1], np.take(weights, flat))
    return parts
