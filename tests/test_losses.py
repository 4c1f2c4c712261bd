"""Value, property, and gradient tests for the retrieval-tuning losses."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mask_oracle
from holorag import checks
from holorag.checks import random_batch
from holorag.errors import (
    DimensionMismatchError,
    PartitionTooFineError,
    TemperatureNonPositiveError,
    ZeroVectorError,
)
from holorag.losses import (
    Batch,
    ZeroSimilarityWarning,
    build_batch,
    finite_difference_check,
    loss_gradients,
    total_loss,
)
from holorag.masking import MASK_LEVELS
from holorag.reference import ref_info_nce, ref_losses

# frozen via the naive reference recomputation (see reference.ref_losses);
# no mask zeroes a document here, so the loss is smooth at this point
CRAFTED_QUERIES = [[1.0, 0.2, 0.0, 0.1], [0.1, 1.0, 0.3, 0.0]]
CRAFTED_DOCS = [[0.5, 0.5, 0.1, 0.1], [0.2, 0.8, 0.6, 0.3]]
CRAFTED_MASKS = [[1.0, 0.5, 0.0, 1.0], [0.5, 1.0, 0.0, 0.5]]
CRAFTED_SUBMASKS = [
    [[1.0, 0.0, 0.0, 0.0], [0.0, 0.5, 0.0, 1.0]],
    [[0.5, 0.0, 0.0, 0.5], [0.0, 1.0, 0.0, 0.0]],
]
CRAFTED_TAU = 0.5
CRAFTED_L_IN = 0.4513451148718423
CRAFTED_L_DIN = 0.402021690364527
CRAFTED_L_SIN = 0.7028141907875651
CRAFTED_TOTAL = 1.1048358811520922

INFONCE_B2_TAU1 = 0.31326168751822286  # -log(e / (e + 1))


# vector entries on a quarter grid: exact zeros are common and no norm underflows
GRID = st.integers(-8, 8).map(lambda k: k / 4.0)


def crafted_batch() -> Batch:
    return Batch(
        queries=np.array(CRAFTED_QUERIES),
        positives=np.array(CRAFTED_DOCS),
        masks=np.array(CRAFTED_MASKS),
        submasks=np.array(CRAFTED_SUBMASKS),
    )


def loop_term_grads(anchor, cands, pos, tau):
    """Per-anchor gradients of -log softmax_pos(cos(anchor, cands)/tau).

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


def loop_loss_gradients(batch, tau, beta):
    """Gradient oracle for `loss_gradients`: one `loop_term_grads` call per anchor and term."""
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
        da, dc = loop_term_grads(q[i], d * m[i], i, tau)
        grad_q[i] += w_dense * da
        grad_d += w_dense * dc * m[i]

        # dense, masked-document anchor: candidates are the raw queries
        da, dc = loop_term_grads(masked_docs[i], q, i, tau)
        grad_d[i] += w_dense * da * m[i]
        grad_q += w_dense * dc

        if beta > 0:
            for part in range(n):
                da, dc = loop_term_grads(q[i], d * s[i, part], i, tau)
                grad_q[i] += w_sparse * da
                grad_d += w_sparse * dc * s[i, part]
    return grad_q, grad_d


@st.composite
def degenerate_batches(draw):
    """Small batches on GRID whose query, positive, mask and submask rows are
    each zeroed with probability 1/2, so zero-vector pairs are common."""
    b = draw(st.integers(1, 4))
    d = draw(st.integers(1, 5))
    n = draw(st.integers(1, 3))
    levels = st.sampled_from(MASK_LEVELS)
    queries = draw(arrays(np.float64, (b, d), elements=GRID))
    positives = draw(arrays(np.float64, (b, d), elements=GRID))
    masks = draw(arrays(np.float64, (b, d), elements=levels))
    submasks = draw(arrays(np.float64, (b, n, d), elements=levels))
    for arr, rows in ((queries, b), (positives, b), (masks, b), (submasks, (b, n))):
        arr[draw(arrays(np.bool_, rows))] = 0.0
    return Batch(queries=queries, positives=positives, masks=masks, submasks=submasks)


class TestInfoNce:
    def test_two_candidates_hand_value(self):
        # anchor [1,0]: similarity 1 to the positive, 0 to the negative
        loss = ref_info_nce([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], 0, tau=1.0)
        assert loss == pytest.approx(INFONCE_B2_TAU1, abs=1e-12)

    def test_sharp_temperature_saturates(self):
        loss = ref_info_nce([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], 0, tau=0.01)
        assert 0.0 <= loss < 1e-9

    def test_temperature_must_be_positive(self):
        for fn in (total_loss, loss_gradients):
            for tau in (0.0, -0.5, math.nan, math.inf):
                with pytest.raises(TemperatureNonPositiveError, match="must be finite and > 0"):
                    fn(crafted_batch(), tau=tau, beta=1.0)

    @pytest.mark.parametrize("fn", [total_loss, loss_gradients])
    @pytest.mark.parametrize("beta", [-0.5, math.nan, math.inf])
    def test_weight_must_be_finite_and_nonnegative(self, fn, beta):
        with pytest.raises(ValueError, match="beta must be finite and >= 0"):
            fn(crafted_batch(), CRAFTED_TAU, beta)


class TestDenseLoss:
    def test_b1_is_zero(self):
        batch = build_batch([[1.0, 2.0, 3.0]], [[3.0, 1.0, 2.0]], n_parts=1, seed=0)
        assert total_loss(batch, tau=0.01, beta=1.0).l_din == 0.0

    def test_symmetric_batch_equals_plain(self):
        # all-ones masks and documents equal to queries: both directions match
        # the unmasked loss exactly
        q = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        batch = Batch(
            queries=q,
            positives=q.copy(),
            masks=np.ones((2, 3)),
            submasks=np.ones((2, 1, 3)),
        )
        report = total_loss(batch, tau=0.2, beta=1.0)
        assert report.l_din == pytest.approx(report.l_in, abs=1e-12)
        direction = np.mean([ref_info_nce(q[i], q, i, 0.2) for i in range(2)])
        assert report.l_din == pytest.approx(direction, abs=1e-12)

    def test_crafted_value(self):
        assert total_loss(crafted_batch(), CRAFTED_TAU, beta=1.0).l_din == pytest.approx(
            CRAFTED_L_DIN, abs=1e-12
        )


class TestSparseLoss:
    def test_single_part_equals_forward_direction(self):
        rng = np.random.default_rng(5)
        batch = build_batch(rng.normal(size=(3, 6)), rng.normal(size=(3, 6)), n_parts=1, seed=1)
        forward = np.mean(
            [
                ref_info_nce(batch.queries[i], batch.positives * batch.masks[i], i, 0.1)
                for i in range(batch.size)
            ]
        )
        assert total_loss(batch, 0.1, beta=1.0).l_sin == pytest.approx(float(forward), abs=1e-12)

    def test_zeroing_submask_warns_and_stays_finite(self):
        # the first submask of pair 0 keeps only coordinates where doc 0 is zero
        batch = Batch(
            queries=np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]),
            positives=np.array([[0.0, 0.0, 1.0, 1.0], [0.0, 1.0, 1.0, 0.0]]),
            masks=np.array([[1.0, 1.0, 0.5, 0.0], [0.0, 1.0, 1.0, 0.0]]),
            submasks=np.array(
                [
                    [[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.5, 0.0]],
                    [[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]],
                ]
            ),
        )
        with pytest.warns(ZeroSimilarityWarning):
            value = total_loss(batch, tau=0.5, beta=1.0).l_sin
        assert math.isfinite(value)

    def test_crafted_value(self):
        assert total_loss(crafted_batch(), CRAFTED_TAU, beta=1.0).l_sin == pytest.approx(
            CRAFTED_L_SIN, abs=1e-12
        )


class TestTotalLoss:
    def test_beta_zero_drops_sparse(self):
        report = total_loss(crafted_batch(), CRAFTED_TAU, beta=0.0)
        assert report.total == report.l_din

    def test_weighted_sum_identity(self):
        report = total_loss(crafted_batch(), CRAFTED_TAU, beta=2.5)
        assert report.total == pytest.approx(report.l_din + 2.5 * report.l_sin, abs=1e-12)

    def test_crafted_full_report(self):
        report = total_loss(crafted_batch(), CRAFTED_TAU, beta=1.0)
        assert report.l_in == pytest.approx(CRAFTED_L_IN, abs=1e-12)
        assert report.l_din == pytest.approx(CRAFTED_L_DIN, abs=1e-12)
        assert report.l_sin == pytest.approx(CRAFTED_L_SIN, abs=1e-12)
        assert report.total == pytest.approx(CRAFTED_TOTAL, abs=1e-12)

    def test_nonnegativity_random(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            batch = random_batch(rng)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ZeroSimilarityWarning)
                report = total_loss(batch, 0.1, 1.0)
            assert report.l_in >= 0.0
            assert report.l_din >= 0.0
            assert report.l_sin >= 0.0

    def test_b1_degenerate_all_zero(self):
        batch = build_batch([[1.0, -2.0, 0.5]], [[0.3, 0.4, 0.5]], n_parts=1, seed=2)
        report = total_loss(batch, 0.01, 1.0)
        assert (report.l_in, report.l_din, report.l_sin, report.total) == (0.0, 0.0, 0.0, 0.0)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(19)
        batch = random_batch(rng, b=5, d=8, n_parts=2)
        perm = rng.permutation(5)
        shuffled = Batch(
            queries=batch.queries[perm],
            positives=batch.positives[perm],
            masks=batch.masks[perm],
            submasks=batch.submasks[perm],
        )
        a = total_loss(batch, 0.1, 1.3)
        b = total_loss(shuffled, 0.1, 1.3)
        for key in ("l_in", "l_din", "l_sin", "total"):
            assert abs(a.to_dict()[key] - b.to_dict()[key]) < 1e-12

    def test_overflow_safety_extreme_sims(self):
        # documents exactly aligned/anti-aligned with queries: similarities +/-1
        q = np.array([[1.0, 0.0], [0.0, 1.0]])
        batch = Batch(
            queries=q,
            positives=np.array([[1.0, 0.0], [0.0, -1.0]]),
            masks=np.ones((2, 2)),
            submasks=np.ones((2, 1, 2)),
        )
        report = total_loss(batch, tau=0.01, beta=1.0)
        for value in report.to_dict().values():
            assert math.isfinite(value)

    def test_oracle_equivalence_small_batches(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            batch = random_batch(rng)
            tau = float(rng.choice([0.01, 0.1, 1.0]))
            beta = float(rng.uniform(0.0, 2.0))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ZeroSimilarityWarning)
                got = total_loss(batch, tau, beta).to_dict()
            want = ref_losses(
                batch.queries.tolist(),
                batch.positives.tolist(),
                batch.masks.tolist(),
                [[list(p) for p in batch.submasks[i]] for i in range(batch.size)],
                tau,
                beta,
            )
            for key, expected in want.items():
                assert got[key] == pytest.approx(expected, abs=1e-9)


class TestGradients:
    def test_b1_gradients_zero(self):
        batch = build_batch([[1.0, 2.0, 3.0]], [[3.0, 1.0, 2.0]], n_parts=1, seed=0)
        grad_q, grad_d = loss_gradients(batch, 0.01, 1.0)
        np.testing.assert_array_equal(grad_q, np.zeros((1, 3)))
        np.testing.assert_array_equal(grad_d, np.zeros((1, 3)))
        assert finite_difference_check(batch, 0.01, 1.0, 1e-4) == 0.0

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(29)
        for b, d, tau in ((2, 4, 1.0), (4, 8, 0.1), (3, 16, 0.01)):
            batch = random_batch(rng, b=b, d=d, n_parts=2)
            assert finite_difference_check(batch, tau, 1.0, 1e-4) < 1e-4

    def test_crafted_batch_gradient(self):
        assert finite_difference_check(crafted_batch(), CRAFTED_TAU, 1.0, 1e-4) < 1e-5

    def test_tiny_step_cancellation(self):
        rng = np.random.default_rng(31)
        batch = random_batch(rng, b=4, d=8, n_parts=2)
        good = finite_difference_check(batch, 0.01, 1.0, 1e-4)
        bad = finite_difference_check(batch, 0.01, 1.0, 1e-12)
        assert bad > 10 * good
        assert bad > 1e-6

    @settings(max_examples=200, deadline=None)
    @given(
        batch=degenerate_batches(),
        tau=st.sampled_from([0.01, 0.1, 1.0]),
        beta=st.sampled_from([0.0, 0.7, 2.0]),
    )
    def test_matches_per_anchor_loop(self, batch, tau, beta):
        # zero vectors make the loss discontinuous, so finite differences
        # cannot check these points; the per-anchor loop can
        got = loss_gradients(batch, tau, beta)
        want = loop_loss_gradients(batch, tau, beta)
        for g, w in zip(got, want):
            assert np.abs(g - w).max() <= 1e-10 * max(1.0, float(np.abs(w).max()))

    def test_step_must_be_positive(self):
        for step in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="step must be finite and > 0"):
                finite_difference_check(crafted_batch(), 0.5, 1.0, step=step)


class TestCheckHarness:
    def test_tune_workload_calls(self):
        """The self-checks run as the tune benchmark calls them, by keyword, and pass."""
        oracle = checks.run_oracle_check(seed=0, n_batches=2)
        gradient = checks.run_gradient_check(seed=0, n_batches=1, sizes=((2, 16),))
        assert oracle["passed"] and gradient["passed"]
        assert oracle["max_abs_error"] < oracle["tolerance"] == checks.ORACLE_TOLERANCE
        assert gradient["max_relative_error"] < gradient["tolerance"] == checks.GRADIENT_TOLERANCE


class TestBatchConstruction:
    def test_misaligned_shapes(self):
        with pytest.raises(DimensionMismatchError):
            Batch(
                queries=np.ones((2, 3)),
                positives=np.ones((2, 4)),
                masks=np.ones((2, 3)),
                submasks=np.ones((2, 1, 3)),
            )

    def test_bad_mask_values(self):
        with pytest.raises(ValueError):
            Batch(
                queries=np.ones((1, 2)),
                positives=np.ones((1, 2)),
                masks=np.array([[0.3, 1.0]]),
                submasks=np.ones((1, 1, 2)),
            )

    def test_build_batch_length_mismatch(self):
        with pytest.raises(ValueError, match="align"):
            build_batch([[1.0, 2.0, 3.0]] * 2, [[3.0, 1.0, 2.0]], n_parts=1)

    @pytest.mark.parametrize("zero", ["query", "document"])
    def test_build_batch_zero_vector(self, zero):
        rng = np.random.default_rng(38)
        queries, documents = rng.normal(size=(3, 6)), rng.normal(size=(3, 6))
        (queries if zero == "query" else documents)[2] = 0.0
        with pytest.raises(ZeroVectorError):
            build_batch(queries, documents, n_parts=1)

    def test_build_batch_partition_too_fine(self):
        # a 2-d mask has at most 2 nonzero coordinates to split
        with pytest.raises(PartitionTooFineError):
            build_batch([[1.0, 2.0], [2.0, 1.0]], [[2.0, 1.0], [1.0, 3.0]], n_parts=3)

    # each id names alpha and the fixed eps, DEFAULT_EPS
    @pytest.mark.parametrize("alpha", [0.0, -0.5], ids=["0.0-1e-08", "-0.5-1e-08"])
    def test_build_batch_nonpositive_alpha_or_eps(self, alpha):
        with pytest.raises(ValueError):
            build_batch([[1.0, 2.0, 3.0]], [[3.0, 1.0, 2.0]], alpha=alpha, n_parts=1)

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        b=st.integers(1, 5),
        d=st.integers(1, 16),
        n_parts=st.integers(1, 3),
        seed=st.integers(0, 2**31),
        alpha=st.sampled_from([0.25, 0.5, 2.0]),
    )
    def test_build_batch_matches_per_pair_build(self, data, b, d, n_parts, seed, alpha):
        quarters = st.integers(-8, 8)
        queries = data.draw(arrays(np.int8, (b, d), elements=quarters)) / 4.0
        documents = data.draw(arrays(np.int8, (b, d), elements=quarters)) / 4.0
        for rows in (queries, documents):
            rows[~np.any(rows, axis=1), 0] = 1.0
        try:
            want = mask_oracle.loop_build_batch(queries, documents, alpha, n_parts, seed)
        except PartitionTooFineError:
            with pytest.raises(PartitionTooFineError):
                build_batch(queries, documents, alpha, n_parts, seed)
            return
        got = build_batch(queries, documents, alpha, n_parts, seed)
        for name in ("queries", "positives", "masks", "submasks"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

    def test_build_batch_round_trip(self):
        rng = np.random.default_rng(37)
        batch = build_batch(rng.normal(size=(3, 8)), rng.normal(size=(3, 8)), n_parts=2, seed=4)
        assert batch.size == 3
        assert batch.n_submasks == 2
        np.testing.assert_array_equal(batch.submasks.max(axis=1), batch.masks)
