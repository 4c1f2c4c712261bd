"""Value, property, and gradient tests for the retrieval-tuning losses."""

import math
import warnings

import numpy as np
import pytest

from holorag.checks import random_batch
from holorag.errors import DimensionMismatchError, TemperatureNonPositiveError
from holorag.losses import (
    Batch,
    ZeroSimilarityWarning,
    build_batch,
    finite_difference_check,
    loss_gradients,
    total_loss,
)
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


def crafted_batch() -> Batch:
    return Batch(
        queries=np.array(CRAFTED_QUERIES),
        positives=np.array(CRAFTED_DOCS),
        masks=np.array(CRAFTED_MASKS),
        submasks=np.array(CRAFTED_SUBMASKS),
    )


class TestInfoNce:
    def test_two_candidates_hand_value(self):
        # anchor [1,0]: similarity 1 to the positive, 0 to the negative
        loss = ref_info_nce([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], 0, tau=1.0)
        assert loss == pytest.approx(INFONCE_B2_TAU1, abs=1e-12)

    def test_sharp_temperature_saturates(self):
        loss = ref_info_nce([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], 0, tau=0.01)
        assert 0.0 <= loss < 1e-9

    def test_temperature_must_be_positive(self):
        for tau in (0.0, -0.5):
            with pytest.raises(TemperatureNonPositiveError):
                total_loss(crafted_batch(), tau=tau, beta=1.0)


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
            batch = random_batch(rng, max_b=3, max_d=8)
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

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            finite_difference_check(crafted_batch(), 0.5, 1.0, step=0.0)


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

    def test_build_batch_round_trip(self):
        rng = np.random.default_rng(37)
        batch = build_batch(rng.normal(size=(3, 8)), rng.normal(size=(3, 8)), n_parts=2, seed=4)
        assert batch.size == 3
        assert batch.n_submasks == 2
        np.testing.assert_array_equal(batch.submasks.max(axis=1), batch.masks)
