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

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import DimensionMismatchError, TemperatureNonPositiveError
from .masking import (
    DEFAULT_ALPHA,
    DEFAULT_EPS,
    MASK_LEVELS,
    Embedding,
    HybridMask,
    SubmaskSet,
    correlation,
    hybrid_mask,
    l2_normalize,
    partition_mask,
    standardize_sigmoid,
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
    def dimension(self) -> int:
        return int(self.queries.shape[1])

    @property
    def n_submasks(self) -> int:
        return int(self.submasks.shape[1])

    @classmethod
    def from_parts(
        cls,
        queries: Sequence[Embedding],
        positives: Sequence[Embedding],
        masks: Sequence[HybridMask],
        submask_sets: Sequence[SubmaskSet],
    ) -> "Batch":
        """Assemble a batch from the typed per-pair objects."""
        if not (len(queries) == len(positives) == len(masks) == len(submask_sets)):
            raise ValueError("queries, positives, masks, and submask sets must align")
        n_parts = {s.n_parts for s in submask_sets}
        if len(n_parts) != 1:
            raise ValueError("every submask set must have the same part count")
        return cls(
            queries=np.stack([e.values for e in queries]),
            positives=np.stack([e.values for e in positives]),
            masks=np.stack([m.weights for m in masks]),
            submasks=np.stack([np.stack(s.parts) for s in submask_sets]),
        )


@dataclass(frozen=True)
class LossReport:
    """All loss values for one batch; total = l_din + beta * l_sin."""

    l_in: float
    l_din: float
    l_sin: float
    total: float
    beta: float
    tau: float

    def to_dict(self) -> dict:
        return {
            "l_in": self.l_in,
            "l_din": self.l_din,
            "l_sin": self.l_sin,
            "total": self.total,
            "beta": self.beta,
            "tau": self.tau,
        }


def build_batch(
    queries: Sequence,
    documents: Sequence,
    alpha: float = DEFAULT_ALPHA,
    n_parts: int = 2,
    seed: int = 0,
    eps: float = DEFAULT_EPS,
) -> Batch:
    """Derive masks and submasks for raw vector pairs and pack a Batch.

    Pair i's partition uses seed + i so distinct pairs randomize independently
    while the whole batch stays reproducible.
    """
    embs_q = [v if isinstance(v, Embedding) else Embedding(v) for v in queries]
    embs_d = [v if isinstance(v, Embedding) else Embedding(v) for v in documents]
    masks = []
    subs = []
    for i, (q, d) in enumerate(zip(embs_q, embs_d)):
        c = correlation(l2_normalize(q.values), l2_normalize(d.values))
        m = hybrid_mask(standardize_sigmoid(c, eps), alpha, eps)
        masks.append(m)
        subs.append(partition_mask(m, n_parts, seed + i))
    return Batch.from_parts(embs_q, embs_d, masks, subs)


def _softmax_loss_rows(sims: np.ndarray, tau: float) -> np.ndarray:
    """Row-wise -log softmax probability of the diagonal entry, max-shifted."""
    z = sims / tau
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    return lse - np.diagonal(z)


def _pairwise_sims(anchors: np.ndarray, cands: np.ndarray) -> Tuple[np.ndarray, int]:
    """Cosine matrix between anchor rows and candidate rows; zeros score 0."""
    an = np.linalg.norm(anchors, axis=1)
    cn = np.linalg.norm(cands, axis=1)
    denom = np.outer(an, cn)
    zeros = int(np.count_nonzero(an == 0.0) * cands.shape[0])
    zeros += int(np.count_nonzero(cn == 0.0) * np.count_nonzero(an > 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        sims = np.where(denom > 0.0, (anchors @ cands.T) / np.where(denom > 0, denom, 1.0), 0.0)
    return sims, zeros


def _anchor_masked_sims(
    queries: np.ndarray, documents: np.ndarray, mask_rows: np.ndarray
) -> Tuple[np.ndarray, int]:
    """sims[i, j] = cos(q_i, d_j * mask_rows[i]) with the zero convention."""
    qn = np.linalg.norm(queries, axis=1)
    # dot(q_i, d_j * m_i) == dot(q_i * m_i, d_j); candidate norms need m_i^2 x d_j^2
    dots = (queries * mask_rows) @ documents.T
    cand_norms = np.sqrt(np.square(mask_rows) @ np.square(documents).T)
    denom = qn[:, None] * cand_norms
    zeros = int(np.count_nonzero(denom == 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        sims = np.where(denom > 0.0, dots / np.where(denom > 0, denom, 1.0), 0.0)
    return sims, zeros


def _warn_zero_sims(count: int) -> None:
    if count > 0:
        warnings.warn(
            f"{count} masked vector(s) were all zero; their similarities were set to 0",
            ZeroSimilarityWarning,
            stacklevel=3,
        )


def _check_tau(tau: float) -> None:
    if tau <= 0:
        raise TemperatureNonPositiveError(f"temperature must be > 0, got {tau}")


def _forward(
    queries: np.ndarray,
    documents: np.ndarray,
    masks: np.ndarray,
    submasks: np.ndarray,
    tau: float,
) -> Tuple[float, float, float, int]:
    """Vectorized (l_in, l_din, l_sin, zero_count) for one batch."""
    sims_plain, z0 = _pairwise_sims(queries, documents)
    l_in = float(_softmax_loss_rows(sims_plain, tau).mean())

    sims_fwd, z1 = _anchor_masked_sims(queries, documents, masks)
    masked_docs = documents * masks
    sims_bwd, z2 = _pairwise_sims(masked_docs, queries)
    l_din = float(
        (0.5 * (_softmax_loss_rows(sims_fwd, tau) + _softmax_loss_rows(sims_bwd, tau))).mean()
    )

    n_parts = submasks.shape[1]
    sparse_rows = np.zeros(queries.shape[0])
    z3 = 0
    for s in range(n_parts):
        sims_s, zs = _anchor_masked_sims(queries, documents, submasks[:, s, :])
        z3 += zs
        sparse_rows += _softmax_loss_rows(sims_s, tau)
    l_sin = float((sparse_rows / n_parts).mean())

    return l_in, l_din, l_sin, z0 + z1 + z2 + z3


def total_loss(batch: Batch, tau: float, beta: float) -> LossReport:
    """Full loss report: plain, dense, sparse, and dense + beta * sparse."""
    _check_tau(tau)
    if beta < 0:
        raise ValueError("beta must be >= 0")
    l_in, l_din, l_sin, zeros = _forward(
        batch.queries, batch.positives, batch.masks, batch.submasks, tau
    )
    _warn_zero_sims(zeros)
    return LossReport(
        l_in=l_in,
        l_din=l_din,
        l_sin=l_sin,
        total=l_din + beta * l_sin,
        beta=beta,
        tau=tau,
    )


def _term_grads(
    anchor: np.ndarray, cands: np.ndarray, pos: int, tau: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Gradients of -log softmax_pos(cos(anchor, cands)/tau) w.r.t. both sides.

    Returns (d_anchor, d_cands); rows of all-zero vectors contribute nothing
    (their similarity is the constant 0).
    """
    b, dim = cands.shape
    an = float(np.linalg.norm(anchor))
    cn = np.linalg.norm(cands, axis=1)
    sims = np.zeros(b)
    valid = cn > 0.0
    if an > 0.0:
        sims[valid] = (cands[valid] @ anchor) / (cn[valid] * an)
    z = sims / tau
    p = np.exp(z - z.max())
    p /= p.sum()
    coef = p / tau
    coef[pos] -= 1.0 / tau

    d_anchor = np.zeros(dim)
    d_cands = np.zeros((b, dim))
    if an > 0.0 and np.any(valid):
        a_hat = anchor / an
        c_hat = cands[valid] / cn[valid, None]
        cv = coef[valid, None]
        sv = sims[valid, None]
        d_anchor = (cv * (c_hat - sv * a_hat)).sum(axis=0) / an
        d_cands[valid] = cv * (a_hat[None, :] - sv * c_hat) / cn[valid, None]
    return d_anchor, d_cands


def loss_gradients(batch: Batch, tau: float, beta: float) -> Tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of the combined loss w.r.t. every query and positive.

    Masks are constants: no gradient flows through the threshold indicators
    that built them.  Returns (grad_queries, grad_positives), each (B, d).
    """
    _check_tau(tau)
    if beta < 0:
        raise ValueError("beta must be >= 0")
    q, d = batch.queries, batch.positives
    m, s = batch.masks, batch.submasks
    b = batch.size
    n = batch.n_submasks
    grad_q = np.zeros_like(q)
    grad_d = np.zeros_like(d)
    w_dense = 0.5 / b
    w_sparse = beta / (b * n)

    masked_docs = d * m
    for i in range(b):
        # dense, query anchor: candidates are documents under pair i's mask
        da, dc = _term_grads(q[i], d * m[i], i, tau)
        grad_q[i] += w_dense * da
        grad_d += w_dense * dc * m[i]

        # dense, masked-document anchor: candidates are the raw queries
        da, dc = _term_grads(masked_docs[i], q, i, tau)
        grad_d[i] += w_dense * da * m[i]
        grad_q += w_dense * dc

        if beta > 0:
            for part in range(n):
                da, dc = _term_grads(q[i], d * s[i, part], i, tau)
                grad_q[i] += w_sparse * da
                grad_d += w_sparse * dc * s[i, part]
    return grad_q, grad_d


def finite_difference_check(
    point: Batch,
    tau: float,
    beta: float,
    step: float = 1e-4,
    _gradients: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> float:
    """Worst central-difference discrepancy of the analytic gradients.

    Perturbs every query and positive coordinate by +/- step, recomputes the
    combined loss, and compares against `loss_gradients` (or the supplied
    ``_gradients``, a hook the self-testing loss checker uses to prove a wrong
    gradient is flagged).  The per-coordinate error is |fd - analytic| /
    max(1, |fd|, |analytic|), so near-zero gradients are judged on absolute
    error.  Steps near the rounding floor (1e-12 and below) lose all their
    significant digits to cancellation and report large errors by design.
    """
    if step <= 0:
        raise ValueError("step must be > 0")
    grad_q, grad_d = _gradients if _gradients is not None else loss_gradients(point, tau, beta)

    def objective(queries: np.ndarray, positives: np.ndarray) -> float:
        _, l_din, l_sin, _ = _forward(queries, positives, point.masks, point.submasks, tau)
        return l_din + beta * l_sin

    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ZeroSimilarityWarning)
        for arr, grads, is_query in (
            (point.queries, grad_q, True),
            (point.positives, grad_d, False),
        ):
            for idx in np.ndindex(arr.shape):
                plus = arr.copy()
                minus = arr.copy()
                plus[idx] += step
                minus[idx] -= step
                if is_query:
                    fd = (objective(plus, point.positives) - objective(minus, point.positives)) / (
                        2 * step
                    )
                else:
                    fd = (objective(point.queries, plus) - objective(point.queries, minus)) / (
                        2 * step
                    )
                an = grads[idx]
                err = abs(fd - an) / max(1.0, abs(fd), abs(an))
                worst = max(worst, err)
    return float(worst)
