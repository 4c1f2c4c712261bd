"""Bidirectional retriever-tuning objectives with analytic gradients.

Three contrastive quantities over a batch of (query, positive-document)
pairs with in-batch negatives:

* plain matching: query anchors against unmasked documents;
* dense matching: the symmetrized form over hybrid-masked documents, where a
  query-anchored term masks every candidate with the anchor pair's mask and a
  document-anchored term keeps each document under its own mask;
* sparse matching: the query-anchored form averaged over the disjoint submask
  parts of the anchor pair, again masking every candidate per term.

The combined objective is dense + beta * sparse.  A `Batch` computes every
term's similarities once, on first use, for `total_loss` and `loss_gradients`
both; the unmasked terms need no mask product.  The 3 + N terms of a
similarity pass, and the 2 + N of a gradient pass, are independent jobs: for
a batch whose B * B * d reaches ``_SHARED_WORK`` they are spread by
`workers.share` over the calling thread and the pool that `workers` owns,
which the masked scan of `index` uses too; a smaller batch runs them in the
caller alone.  Each term is computed whole on one thread, never split by
rows, and the results come back in term order, in which the caller sums the
gradients, so losses and gradients are the same bits at any worker count.
Gradients treat the masks as constants (the thresholding that builds them is
piecewise constant) and a central-difference checker, recomputing each loss
from raw arrays, provides an independent numerical cross-check.
"""

import math
import warnings
from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from . import workers
from .errors import DimensionMismatchError, TemperatureNonPositiveError
from .masking import (
    DEFAULT_ALPHA,
    MASK_LEVELS,
    mask_pipeline,
    partition_mask,
)


# B * B * d from which a batch's terms are shared among the worker threads.  In
# alternated timings on a 2-core host at one BLAS thread, sharing was slower up
# to about 2 << 20, where handing out a term costs as much as it saves, won 8 of
# 9 times at 3 << 20, and took 30% off a step at 128 * 128 * 768.
_SHARED_WORK = 3 << 20


class ZeroSimilarityWarning(UserWarning):
    """Masking produced an all-zero vector; its similarity is defined as 0."""


@dataclass(frozen=True, eq=False)
class Batch:
    """Aligned contrastive batch: row i of every array belongs to pair i.

    ``queries`` and ``positives`` are (B, d); ``masks`` is (B, d) with entries
    in {0, 0.5, 1}; ``submasks`` is (B, N, d) holding each pair's N disjoint
    mask parts.  positives[j], j != i serve as in-batch negatives for pair i.
    It keeps read-only copies, so its cached similarities cannot go stale;
    ``_owned`` lets `build_batch` hand over the fresh arrays it made uncopied.
    """

    queries: np.ndarray
    positives: np.ndarray
    masks: np.ndarray
    submasks: np.ndarray
    _owned: InitVar[bool] = False

    def __post_init__(self, _owned: bool):
        q, d, m, s = (
            np.array(arr, dtype=np.float64, copy=not _owned)
            for arr in (self.queries, self.positives, self.masks, self.submasks)
        )
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

    @cached_property
    def _sims(self) -> list:
        """`_masked_sims` of every term, in term order, built on first use."""
        arrays = (self.queries, self.positives, self.masks, self.submasks)
        terms = range(3 + self.n_submasks)
        return _per_term(self, lambda k: _masked_sims(*_term_inputs(k, *arrays)), terms)


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
    (its eps is a constant), and the submasks from one `partition_mask` call,
    which seeds pair i's split with seed + i so distinct pairs randomize
    independently while the whole batch stays reproducible.

    Raises:
        ZeroVectorError: if any query or document has zero norm.
        PartitionTooFineError: if ``n_parts`` exceeds a pair's mask support.
        ValueError: if alpha is not finite and > 0, the lists are empty or
            misalign, an array is not 2-D, or a row or its squared norm is
            not finite.
    """
    if len(queries) != len(documents) or len(queries) == 0:
        raise ValueError("queries and documents must be nonempty and align")
    qs, ds = np.array(queries, dtype=np.float64), np.array(documents, dtype=np.float64)
    for name, rows in (("queries", qs), ("documents", ds)):
        if rows.ndim != 2:
            raise ValueError(f"{name} must be a (B, d) array with B >= 1")
        # the squared-norm test of `index.Pool`
        with np.errstate(over="ignore"):
            bad = np.flatnonzero(~np.isfinite(np.einsum("ij,ij->i", rows, rows)))
        if bad.size:
            raise ValueError(f"{name} row {bad[0]} must be finite with a finite norm")
    masks = mask_pipeline(qs, ds, alpha)
    return Batch(qs, ds, masks, partition_mask(masks, n_parts, seed), _owned=True)


def _softmax_loss_rows(sims: np.ndarray, tau: float) -> np.ndarray:
    """Row-wise -log softmax probability of the diagonal entry, max-shifted."""
    z = sims / tau
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    return lse - np.diagonal(z)


def _masked_sims(
    anchors: np.ndarray, cands: np.ndarray, mask_rows: Optional[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """sims[i, j] = cos(a_i, c_j * m_i); a pair with a zero vector scores 0.

    Also returns the anchor norms (B,), the masked candidate norms
    |c_j * m_i| as a (B, B) matrix, and the (B, B) boolean matrix of pairs
    whose vectors are both nonzero.  With ``mask_rows`` None no candidate is
    masked, and the candidate norms are the (B,) row norms |c_j|.
    """
    an = np.linalg.norm(anchors, axis=1)
    if mask_rows is None:
        dots = anchors @ cands.T
        cn = np.linalg.norm(cands, axis=1)
    else:
        # dot(a_i, c_j * m_i) == dot(a_i * m_i, c_j); |c_j * m_i|^2 == m_i^2 . c_j^2
        dots = (anchors * mask_rows) @ cands.T
        cn = np.sqrt(np.square(mask_rows) @ np.square(cands).T)
    denom = an[:, None] * cn
    valid = denom > 0.0
    sims = np.divide(dots, denom, out=np.zeros_like(dots), where=valid)
    return sims, an, cn, valid


def _term_inputs(
    k: int, q: np.ndarray, d: np.ndarray, masks: np.ndarray, submasks: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """(anchors, candidates, mask rows or None) of term ``k``: the plain, dense
    query-anchored and dense document-anchored terms, then one sparse term per part."""
    if k == 0:
        return q, d, None
    if k == 1:
        return q, d, masks
    if k == 2:
        return d * masks, q, None
    return q, d, submasks[:, k - 3]


def _per_term(batch: Batch, job: Callable[[int], tuple], terms: Sequence[int]) -> list:
    """``[job(k) for k in terms]``, shared by `workers.share` among the caller and
    the pool threads when the batch's B * B * d reaches ``_SHARED_WORK``; below
    it, where handing the terms out would cost more than it saves, the caller
    runs them alone.  The jobs get arrays, never the batch: on Python 3.11 and
    older its `cached_property` holds a lock.
    """
    if batch.size * batch.queries.size >= _SHARED_WORK:
        return workers.share(job, terms)
    return [job(k) for k in terms]


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


def _dense_sparse(similarities: list, tau: float) -> Tuple[float, float]:
    """(l_din, l_sin) from the `_masked_sims` of every term but the plain one, in term order."""
    fwd, bwd, *sparse = (_softmax_loss_rows(sims, tau) for sims, _, _, _ in similarities)
    l_din = float((0.5 * (fwd + bwd)).mean())
    l_sin = float((sum(sparse) / len(sparse)).mean())
    return l_din, l_sin


def total_loss(batch: Batch, tau: float, beta: float) -> LossReport:
    """Full loss report: plain, dense, sparse, and dense + beta * sparse."""
    _check_tau_beta(tau, beta)
    similarities = batch._sims
    l_in = float(_softmax_loss_rows(similarities[0][0], tau).mean())
    l_din, l_sin = _dense_sparse(similarities[1:], tau)
    _warn_zero_sims(sum(int(v.size - np.count_nonzero(v)) for _, _, _, v in similarities))
    return LossReport(l_in=l_in, l_din=l_din, l_sin=l_sin, total=l_din + beta * l_sin)


def _softmax_weights(similarities: tuple, tau: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """W, V and rowsum(coef S) / |A|^2 of one term, as `_term_backward` defines them.

    Its (B, B) temporaries are freed on return, before the term's (B, d) work.
    The in-place steps are the same IEEE operations as the formulas there.
    """
    sims, an, cn, valid = similarities
    coef = sims / tau
    coef -= coef.max(axis=1, keepdims=True)
    np.exp(coef, out=coef)
    coef /= coef.sum(axis=1, keepdims=True)
    coef.flat[:: len(coef) + 1] -= 1.0  # softmax(S / tau) - I
    coef /= tau
    coef_s = coef * sims
    w = np.divide(coef, an[:, None] * cn, out=np.zeros_like(coef), where=valid)
    v = np.divide(coef_s, np.square(cn), out=np.zeros_like(coef), where=valid)
    an_sq = np.square(an)
    return w, v, coef_s.sum(axis=1) / np.where(an_sq > 0.0, an_sq, 1.0)


def _term_backward(term: tuple, similarities: tuple, tau: float) -> Tuple[np.ndarray, np.ndarray]:
    """Gradients of one term's summed row losses w.r.t. its anchors and candidates.

    With S from `_masked_sims`, coef = (softmax(S / tau) - I) / tau is the
    gradient w.r.t. S, W = coef / (|a_i| |c_j m_i|) and V = coef S / |c_j m_i|^2:

        d_anchors = M (W C) - rowsum(coef S) A / |A|^2
        d_cands = W^T (M A) - C (V^T M^2)

    Products of same-shape arrays are elementwise.  An unmasked term (M = 1)
    drops the mask products, and V^T M^2 becomes the column sums of V.
    Pairs with a zero vector have the constant similarity 0 and pass no
    gradient.
    """
    anchors, cands, mask_rows = term
    w, v, radial = _softmax_weights(similarities, tau)
    # the formulas above, one IEEE operation at a time, in place where the
    # operands allow: a term holds at most three (B, d) arrays
    if mask_rows is None:
        d_cands = w.T @ anchors
        part = np.multiply(cands, v.sum(axis=0)[:, None])
        d_cands -= part
        d_anchors = w @ cands
    else:
        part = np.square(mask_rows)
        scale = v.T @ part
        scale *= cands
        np.multiply(mask_rows, anchors, out=part)
        d_cands = w.T @ part
        d_cands -= scale
        d_anchors = np.matmul(w, cands, out=scale)
        d_anchors *= mask_rows
    np.multiply(radial[:, None], anchors, out=part)
    d_anchors -= part
    return d_anchors, d_cands


def loss_gradients(batch: Batch, tau: float, beta: float) -> Tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of the combined loss w.r.t. every query and positive.

    Masks are constants: no gradient flows through the threshold indicators
    that built them.  Returns (grad_queries, grad_positives), each (B, d).
    """
    _check_tau_beta(tau, beta)
    arrays = (batch.queries, batch.positives, batch.masks, batch.submasks)
    similarities = batch._sims
    w_dense = 0.5 / batch.size
    w_sparse = beta / (batch.size * batch.n_submasks)

    def weighted(k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Term k's weighted gradients w.r.t. the queries and the positives."""
        da, dc = _term_backward(_term_inputs(k, *arrays), similarities[k], tau)
        weight = w_dense if k < 3 else w_sparse
        da *= weight
        dc *= weight
        if k == 2:
            # dense, masked-document anchors: the candidates are the raw queries
            da *= arrays[2]
            return dc, da
        return da, dc

    # the plain term 0 is not in the combined loss
    (grad_q, grad_d), *rest = _per_term(batch, weighted, range(1, 3 + batch.n_submasks))
    for da, dc in rest:
        grad_q += da
        grad_d += dc
    return grad_q, grad_d


def finite_difference_check(point: Batch, tau: float, beta: float, step: float) -> float:
    """Worst central-difference discrepancy of the analytic gradients.

    Perturbs every query and positive coordinate by +/- step, recomputes the
    combined loss from the raw arrays (never from the batch's cached
    similarities), and compares against `loss_gradients`.  The per-coordinate
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
        arrays = [point.queries, point.positives, point.masks, point.submasks]
        arrays[which] = arrays[which].copy()
        arrays[which][idx] += delta
        # the plain term 0 is not in the combined loss
        terms = range(1, 3 + point.n_submasks)
        l_din, l_sin = _dense_sparse([_masked_sims(*_term_inputs(k, *arrays)) for k in terms], tau)
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
