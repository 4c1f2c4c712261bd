"""Bidirectional retriever-tuning objectives with analytic gradients.

Three contrastive quantities over a batch of (query, positive-document)
pairs with in-batch negatives:

* plain matching: query anchors against unmasked documents;
* dense matching: the symmetrized form over hybrid-masked documents, where a
  query-anchored term masks every candidate with the anchor pair's mask and a
  document-anchored term keeps each document under its own mask;
* sparse matching: the query-anchored form averaged over the disjoint submask
  parts of the anchor pair, again masking every candidate per term.

The combined objective is dense + beta * sparse.  Gradients treat the masks
as constants (the thresholding that builds them is piecewise constant) and a
central-difference checker provides an independent numerical cross-check.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import DimensionMismatchError, TemperatureNonPositiveError
from .masking import (
    DEFAULT_ALPHA,
    MASK_LEVELS,
    Embedding,
    mask_pipeline,
    partition_mask,
)


class ZeroSimilarityWarning(UserWarning):
    """Masking produced an all-zero vector; its similarity is defined as 0."""


@dataclass(frozen=True, eq=False)
class Batch:
    """Aligned contrastive batch: row i of every array belongs to pair i.

    ``queries`` and ``positives`` are (B, d); ``masks`` is (B, d) with entries
    in {0, 0.5, 1}; ``submasks`` is (B, N, d) holding each pair's N disjoint
    mask parts.  positives[j], j != i serve as in-batch negatives for pair i.
    """

    queries: np.ndarray
    positives: np.ndarray
    masks: np.ndarray
    submasks: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.queries, dtype=np.float64)
        d = np.asarray(self.positives, dtype=np.float64)
        m = np.asarray(self.masks, dtype=np.float64)
        s = np.asarray(self.submasks, dtype=np.float64)
        if q.ndim != 2 or q.shape[0] < 1:
            raise ValueError("queries must be a (B, d) array with B >= 1")
        if d.shape != q.shape or m.shape != q.shape:
            raise DimensionMismatchError("queries, positives, and masks must share (B, d)")
        if s.ndim != 3 or s.shape[0] != q.shape[0] or s.shape[2] != q.shape[1] or s.shape[1] < 1:
            raise DimensionMismatchError("submasks must be (B, N, d) with N >= 1")
        if not np.all(np.isin(m, MASK_LEVELS)) or not np.all(np.isin(s, MASK_LEVELS)):
            raise ValueError("mask weights must be 0, 0.5, or 1")
        for name, arr in (("queries", q), ("positives", d), ("masks", m), ("submasks", s)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def size(self) -> int:
        return int(self.queries.shape[0])

    @property
    def n_submasks(self) -> int:
        return int(self.submasks.shape[1])


@dataclass(frozen=True)
class LossReport:
    """All loss values for one batch; total = l_din + beta * l_sin."""

    l_in: float
    l_din: float
    l_sin: float
    total: float


def build_batch(
    queries: Sequence,
    documents: Sequence,
    alpha: float = DEFAULT_ALPHA,
    n_parts: int = 2,
    seed: int = 0,
) -> Batch:
    """Derive masks and submasks for raw vector pairs and pack a Batch.

    The masks come from one `mask_pipeline` call with band width ``alpha``
    (its eps is a constant).  Pair i's partition uses seed + i so distinct
    pairs randomize independently while the whole batch stays reproducible.

    Raises:
        ZeroVectorError: if any query or document has zero norm.
        PartitionTooFineError: if ``n_parts`` exceeds a pair's mask support.
        ValueError: if alpha is not finite and > 0, or the lists misalign.
    """
    if len(queries) != len(documents):
        raise ValueError("queries and documents must align")
    qs = np.stack([v.values if isinstance(v, Embedding) else v for v in queries])
    ds = np.stack([v.values if isinstance(v, Embedding) else v for v in documents])
    masks = mask_pipeline(qs, ds, alpha)
    return Batch(
        queries=qs,
        positives=ds,
        masks=masks,
        submasks=np.stack([partition_mask(m, n_parts, seed + i) for i, m in enumerate(masks)]),
    )


def _softmax_loss_rows(sims: np.ndarray, tau: float) -> np.ndarray:
    """Row-wise -log softmax probability of the diagonal entry, max-shifted."""
    z = sims / tau
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    return lse - np.diagonal(z)


def _masked_sims(
    anchors: np.ndarray, cands: np.ndarray, mask_rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """sims[i, j] = cos(a_i, c_j * m_i); a pair with a zero vector scores 0.

    Also returns the anchor norms (B,), the masked candidate norms
    |c_j * m_i| as a (B, B) matrix, and the (B, B) boolean matrix of pairs
    whose vectors are both nonzero.
    """
    an = np.linalg.norm(anchors, axis=1)
    # dot(a_i, c_j * m_i) == dot(a_i * m_i, c_j); |c_j * m_i|^2 == m_i^2 . c_j^2
    dots = (anchors * mask_rows) @ cands.T
    cn = np.sqrt(np.square(mask_rows) @ np.square(cands).T)
    denom = an[:, None] * cn
    valid = denom > 0.0
    sims = np.divide(dots, denom, out=np.zeros_like(dots), where=valid)
    return sims, an, cn, valid


def _term_rows(
    anchors: np.ndarray, cands: np.ndarray, mask_rows: np.ndarray, tau: float
) -> Tuple[np.ndarray, int]:
    """Per-anchor loss of one contrastive term and its count of zero-vector pairs."""
    sims, _, _, valid = _masked_sims(anchors, cands, mask_rows)
    return _softmax_loss_rows(sims, tau), int(valid.size - np.count_nonzero(valid))


def _warn_zero_sims(count: int) -> None:
    if count > 0:
        warnings.warn(
            f"{count} masked vector(s) were all zero; their similarities were set to 0",
            ZeroSimilarityWarning,
            stacklevel=3,
        )


def _check_tau_beta(tau: float, beta: float) -> None:
    """Reject a temperature outside (0, inf) or a sparse weight outside [0, inf), NaN included."""
    if not 0 < tau < math.inf:
        raise TemperatureNonPositiveError(f"temperature must be finite and > 0, got {tau}")
    if not 0 <= beta < math.inf:
        raise ValueError(f"beta must be finite and >= 0, got {beta}")


def _forward(
    queries: np.ndarray,
    documents: np.ndarray,
    masks: np.ndarray,
    submasks: np.ndarray,
    tau: float,
) -> Tuple[float, float, float, int]:
    """Vectorized (l_in, l_din, l_sin, zero_count) for one batch."""
    ones = np.ones_like(queries)
    plain, z0 = _term_rows(queries, documents, ones, tau)
    fwd, z1 = _term_rows(queries, documents, masks, tau)
    bwd, z2 = _term_rows(documents * masks, queries, ones, tau)
    sparse = [
        _term_rows(queries, documents, submasks[:, s], tau) for s in range(submasks.shape[1])
    ]
    l_in = float(plain.mean())
    l_din = float((0.5 * (fwd + bwd)).mean())
    l_sin = float((sum(rows for rows, _ in sparse) / len(sparse)).mean())
    return l_in, l_din, l_sin, z0 + z1 + z2 + sum(z for _, z in sparse)


def total_loss(batch: Batch, tau: float, beta: float) -> LossReport:
    """Full loss report: plain, dense, sparse, and dense + beta * sparse."""
    _check_tau_beta(tau, beta)
    l_in, l_din, l_sin, zeros = _forward(
        batch.queries, batch.positives, batch.masks, batch.submasks, tau
    )
    _warn_zero_sims(zeros)
    return LossReport(l_in=l_in, l_din=l_din, l_sin=l_sin, total=l_din + beta * l_sin)


def _term_backward(
    anchors: np.ndarray, cands: np.ndarray, mask_rows: np.ndarray, tau: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Gradients of the summed `_term_rows` loss w.r.t. anchors and candidates.

    With S from `_masked_sims`, coef = (softmax(S / tau) - I) / tau is the
    gradient w.r.t. S, W = coef / (|a_i| |c_j m_i|) and V = coef S / |c_j m_i|^2:

        d_anchors = M (W C) - rowsum(coef S) A / |A|^2
        d_cands = W^T (M A) - C (V^T M^2)

    Products of same-shape arrays are elementwise.  Pairs with a zero vector
    have the constant similarity 0 and pass no gradient.
    """
    sims, an, cn, valid = _masked_sims(anchors, cands, mask_rows)
    z = sims / tau
    p = np.exp(z - z.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    coef = (p - np.eye(p.shape[0])) / tau
    coef_s = coef * sims
    w = np.divide(coef, an[:, None] * cn, out=np.zeros_like(coef), where=valid)
    v = np.divide(coef_s, np.square(cn), out=np.zeros_like(coef), where=valid)
    an_sq = np.square(an)
    radial = coef_s.sum(axis=1) / np.where(an_sq > 0.0, an_sq, 1.0)
    d_anchors = mask_rows * (w @ cands) - radial[:, None] * anchors
    d_cands = w.T @ (mask_rows * anchors) - cands * (v.T @ np.square(mask_rows))
    return d_anchors, d_cands


def loss_gradients(batch: Batch, tau: float, beta: float) -> Tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of the combined loss w.r.t. every query and positive.

    Masks are constants: no gradient flows through the threshold indicators
    that built them.  Returns (grad_queries, grad_positives), each (B, d).
    """
    _check_tau_beta(tau, beta)
    q, d, m = batch.queries, batch.positives, batch.masks
    w_dense = 0.5 / batch.size

    # dense, query anchors: candidates are the documents under the anchor pair's mask
    da, dc = _term_backward(q, d, m, tau)
    grad_q = w_dense * da
    grad_d = w_dense * dc

    # dense, masked-document anchors: candidates are the raw queries
    da, dc = _term_backward(d * m, q, np.ones_like(q), tau)
    grad_d += w_dense * da * m
    grad_q += w_dense * dc

    w_sparse = beta / (batch.size * batch.n_submasks)
    for s in range(batch.n_submasks):
        da, dc = _term_backward(q, d, batch.submasks[:, s], tau)
        grad_q += w_sparse * da
        grad_d += w_sparse * dc
    return grad_q, grad_d


def finite_difference_check(point: Batch, tau: float, beta: float, step: float) -> float:
    """Worst central-difference discrepancy of the analytic gradients.

    Perturbs every query and positive coordinate by +/- step, recomputes the
    combined loss, and compares against `loss_gradients`.  The per-coordinate
    error is |fd - analytic| / max(1, |fd|, |analytic|), so near-zero
    gradients are judged on absolute error.  Steps near the rounding floor
    (1e-12 and below) lose all their significant digits to cancellation and
    report large errors by design.

    Raises:
        ValueError: if step is not finite and > 0.
    """
    if not 0 < step < math.inf:
        raise ValueError(f"step must be finite and > 0, got {step}")
    gradients = loss_gradients(point, tau, beta)

    def shifted(which: int, idx: Tuple[int, ...], delta: float) -> float:
        """The combined loss with coordinate ``idx`` of array ``which`` moved by ``delta``."""
        arrays = [point.queries, point.positives]
        arrays[which] = arrays[which].copy()
        arrays[which][idx] += delta
        _, l_din, l_sin, _ = _forward(*arrays, point.masks, point.submasks, tau)
        return l_din + beta * l_sin

    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ZeroSimilarityWarning)
        for which, grads in enumerate(gradients):
            for idx in np.ndindex(grads.shape):
                fd = (shifted(which, idx, step) - shifted(which, idx, -step)) / (2 * step)
                an = grads[idx]
                err = abs(fd - an) / max(1.0, abs(fd), abs(an))
                worst = max(worst, err)
    return float(worst)
