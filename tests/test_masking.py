"""Tests for the row-wise hybrid mask and the per-pair staged oracle it replaced.

The staged classes (`TestL2Normalize` to `TestHybridMask`) pin the hand cases
of the mask math on `mask_oracle`, and `TestMaskPipeline` requires the
row-wise `mask_pipeline` to reproduce that oracle bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mask_oracle
from holorag import masking
from holorag.errors import DimensionMismatchError, PartitionTooFineError, ZeroVectorError
from holorag.masking import mask_pipeline, partition_mask
from mask_oracle import (
    CorrelationVector,
    Embedding,
    correlation,
    hybrid_mask,
    l2_normalize,
    standardize_sigmoid,
)

SIGMOID_PLUS_ONE = 0.7310585786300049
SIGMOID_MINUS_ONE = 0.2689414213699951


class TestEmbedding:
    def test_large_finite_norm_accepted(self):
        assert masking.Embedding([1e150, 1.0]).values[0] == 1e150

    @pytest.mark.parametrize("values", [[1e200, 1.0], [1e154, 1e154, 1e154]])
    def test_overflowing_norm_rejected(self, values):
        # the suite turns RuntimeWarning into errors, so the check must not warn
        with pytest.raises(ValueError, match="norm must be finite"):
            masking.Embedding(values)

    @pytest.mark.parametrize(
        "values, kind",
        [
            (["1.0", 0.0], "str"),
            ([b"1.0", 0.0], "bytes"),
            ([1.0, True], "bool"),
            ((None, 1.0), "NoneType"),
            ([None, "1", True], "NoneType"),
        ],
        ids=["str", "bytes", "bool", "null", "three-kinds"],
    )
    def test_non_number_entries_rejected(self, values, kind):
        with pytest.raises(TypeError, match=f"got {kind}$"):
            masking.Embedding(values)

    @pytest.mark.parametrize(
        "values",
        [[1, 2.0], (np.float64(1.0), np.int64(2)), np.array([1, 2]), np.array([1.0, 2.0])],
        ids=["int-and-float", "numpy-scalars", "int-array", "float-array"],
    )
    def test_real_entries_accepted(self, values):
        assert masking.Embedding(values).values.tolist() == [1.0, 2.0]


class TestL2Normalize:
    def test_three_four_five(self):
        emb = l2_normalize([3.0, 4.0])
        np.testing.assert_allclose(emb.values, [0.6, 0.8], atol=1e-15)
        assert emb.is_normalized

    def test_already_unit(self):
        np.testing.assert_array_equal(l2_normalize([1.0, 0.0, 0.0]).values, [1.0, 0.0, 0.0])

    def test_zero_vector(self):
        with pytest.raises(ZeroVectorError):
            l2_normalize([0.0, 0.0])

    def test_direction_preserved(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            v = rng.normal(size=rng.integers(2, 64))
            unit = l2_normalize(v).values
            assert np.linalg.norm(unit) == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(unit * np.linalg.norm(v), v, atol=1e-9)

    def test_normalized_flag_checked(self):
        with pytest.raises(ValueError):
            Embedding([3.0, 4.0], is_normalized=True)


class TestCorrelation:
    def test_hand_case(self):
        c = correlation(l2_normalize([1.0, 0.0]), l2_normalize([0.6, 0.8]))
        np.testing.assert_allclose(c.raw, [0.6, 0.0], atol=1e-15)
        assert c.mean == pytest.approx(0.3)
        assert c.std == pytest.approx(0.3)

    def test_orthogonal_axes(self):
        c = correlation(l2_normalize([1.0, 0.0]), l2_normalize([0.0, 1.0]))
        np.testing.assert_array_equal(c.raw, [0.0, 0.0])

    def test_absolute_value_kills_sign(self):
        c = correlation(l2_normalize([1.0, 0.0]), l2_normalize([-1.0, 0.0]))
        np.testing.assert_array_equal(c.raw, [1.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            correlation(l2_normalize([1.0, 0.0]), l2_normalize([1.0, 0.0, 0.0]))

    def test_requires_normalized(self):
        with pytest.raises(ValueError):
            correlation(Embedding([1.0, 0.0]), l2_normalize([1.0, 0.0]))


class TestStandardizeSigmoid:
    def test_plus_minus_one_zscores(self):
        # raw [0.6, 0] has mean 0.3 and population std 0.3, so z = +/-1
        c = CorrelationVector(raw=np.array([0.6, 0.0]), mean=0.3, std=0.3)
        out = standardize_sigmoid(c, eps=1e-15)
        np.testing.assert_allclose(
            out.standardized, [SIGMOID_PLUS_ONE, SIGMOID_MINUS_ONE], atol=1e-12
        )

    def test_entry_at_mean_gives_half(self):
        c = CorrelationVector(raw=np.array([0.2, 0.4, 0.3]), mean=0.3, std=0.1)
        out = standardize_sigmoid(c)
        assert out.standardized[2] == pytest.approx(0.5, abs=1e-12)

    def test_constant_vector_all_half(self):
        raw = np.full(7, 0.25)
        c = CorrelationVector(raw=raw, mean=0.25, std=0.0)
        out = standardize_sigmoid(c)
        np.testing.assert_array_equal(out.standardized, np.full(7, 0.5))

    def test_bounds_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            raw = np.abs(rng.normal(size=rng.integers(2, 513)))
            c = CorrelationVector(raw=raw, mean=float(raw.mean()), std=float(raw.std()))
            s = standardize_sigmoid(c).standardized
            assert np.all(s > 0.0) and np.all(s < 1.0)

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=2, max_size=64)
    )
    def test_bounds_hypothesis(self, values):
        raw = np.asarray(values)
        c = CorrelationVector(raw=raw, mean=float(raw.mean()), std=float(raw.std()))
        s = standardize_sigmoid(c).standardized
        assert np.all(s > 0.0) and np.all(s < 1.0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(11)
        raw = np.abs(rng.normal(size=32))
        shifted = raw + 5.0
        base = standardize_sigmoid(
            CorrelationVector(raw=raw, mean=float(raw.mean()), std=float(raw.std()))
        ).standardized
        moved = standardize_sigmoid(
            CorrelationVector(raw=shifted, mean=float(shifted.mean()), std=float(shifted.std()))
        ).standardized
        np.testing.assert_allclose(base, moved, atol=1e-9)

    def test_scale_invariance(self):
        rng = np.random.default_rng(12)
        raw = np.abs(rng.normal(size=32)) + 0.1
        scaled = raw * 37.0
        base = standardize_sigmoid(
            CorrelationVector(raw=raw, mean=float(raw.mean()), std=float(raw.std()))
        ).standardized
        moved = standardize_sigmoid(
            CorrelationVector(raw=scaled, mean=float(scaled.mean()), std=float(scaled.std()))
        ).standardized
        np.testing.assert_allclose(base, moved, atol=1e-9)

    def test_eps_must_be_positive(self):
        c = CorrelationVector(raw=np.array([0.1, 0.2]), mean=0.15, std=0.05)
        with pytest.raises(ValueError):
            standardize_sigmoid(c, eps=0.0)


def _corr_with_standardized(standardized) -> CorrelationVector:
    standardized = np.asarray(standardized, dtype=np.float64)
    raw = np.linspace(0.1, 0.9, standardized.size)
    return CorrelationVector(
        raw=raw, mean=float(raw.mean()), std=float(raw.std()), standardized=standardized
    )


class TestHybridMask:
    def test_three_band_case(self):
        # mu = 0.5, sigma ~ 0.32660, band (0.33670, 0.66330) at alpha 0.5
        mask = hybrid_mask(_corr_with_standardized([0.9, 0.5, 0.1]), alpha=0.5)
        np.testing.assert_array_equal(mask.weights, [1.0, 0.5, 0.0])

    def test_degenerate_constant_gives_all_ones(self):
        raw = np.full(5, 0.3)
        c = standardize_sigmoid(CorrelationVector(raw=raw, mean=0.3, std=0.0))
        mask = hybrid_mask(c, alpha=0.5)
        np.testing.assert_array_equal(mask.weights, np.ones(5))

    def test_strict_inequality_at_exact_thresholds(self):
        # mu = 0.5 and sigma = 0.25 exactly; at alpha = 1 both thresholds are
        # exactly representable, so the equal entries fall to the lower level
        mask = hybrid_mask(_corr_with_standardized([0.25, 0.75]), alpha=1.0)
        np.testing.assert_array_equal(mask.weights, [0.0, 0.5])

    def test_tiny_alpha_band_collapse(self):
        mask = hybrid_mask(_corr_with_standardized([0.25, 0.5, 0.75]), alpha=1e-12)
        np.testing.assert_array_equal(mask.weights, [0.0, 0.5, 1.0])

    def test_requires_standardized(self):
        c = CorrelationVector(raw=np.array([0.1, 0.2]), mean=0.15, std=0.05)
        with pytest.raises(ValueError):
            hybrid_mask(c)

    def test_alpha_positive(self):
        with pytest.raises(ValueError):
            hybrid_mask(_corr_with_standardized([0.2, 0.8]), alpha=0.0)

    def test_mask_range_random(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            raw = np.abs(rng.normal(size=rng.integers(2, 513)))
            c = standardize_sigmoid(
                CorrelationVector(raw=raw, mean=float(raw.mean()), std=float(raw.std()))
            )
            weights = hybrid_mask(c, alpha=float(rng.uniform(0.05, 3.0))).weights
            assert np.all(np.isin(weights, (0.0, 0.5, 1.0)))

    def test_alpha_monotonicity(self):
        rng = np.random.default_rng(22)
        grid = (0.1, 0.5, 1.0, 2.0)
        for _ in range(100):
            raw = np.abs(rng.normal(size=rng.integers(3, 128)))
            c = standardize_sigmoid(
                CorrelationVector(raw=raw, mean=float(raw.mean()), std=float(raw.std()))
            )
            zeros, ones = [], []
            for alpha in grid:
                w = hybrid_mask(c, alpha=alpha).weights
                zeros.append(int(np.sum(w == 0.0)))
                ones.append(int(np.sum(w == 1.0)))
            assert all(a >= b for a, b in zip(zeros, zeros[1:]))
            assert all(a >= b for a, b in zip(ones, ones[1:]))


class TestPartitionMask:
    def _mask(self, weights):
        return np.asarray(weights, dtype=np.float64)

    def _split(self, weights, n_parts, seed):
        """The (n_parts, d) split of one mask row, through the batched function."""
        return partition_mask(self._mask(weights)[None], n_parts, seed)[0]

    def test_single_part_identity(self):
        mask = self._mask([1.0, 0.5, 0.0, 1.0])
        parts = self._split(mask, 1, seed=3)
        assert parts.shape == (1, 4)
        np.testing.assert_array_equal(parts[0], mask)

    def test_two_parts_disjoint_and_reconstruct(self):
        mask = self._mask([1.0, 0.5, 0.0, 1.0])
        parts = self._split(mask, 2, seed=9)
        assert parts.shape == (2, 4)
        np.testing.assert_array_equal(parts[0] * parts[1], np.zeros(4))
        np.testing.assert_array_equal(parts.max(axis=0), mask)
        assert all(np.any(p) for p in parts)

    def test_empty_support(self):
        with pytest.raises(PartitionTooFineError):
            self._split([0.0, 0.0, 0.0], 2, seed=0)

    def test_too_many_parts(self):
        with pytest.raises(PartitionTooFineError):
            self._split([1.0, 0.0, 0.5], 3, seed=0)

    def test_n_parts_at_least_one(self):
        with pytest.raises(ValueError):
            self._split([1.0, 1.0], 0, seed=0)

    def test_determinism(self):
        mask = self._mask([1.0, 0.5, 1.0, 0.0, 0.5, 1.0])
        np.testing.assert_array_equal(
            self._split(mask, 3, seed=123), self._split(mask, 3, seed=123)
        )

    def test_random_partitions_lawful(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            dim = int(rng.integers(4, 64))
            levels = rng.choice([0.0, 0.5, 1.0], size=dim)
            if not np.any(levels):
                levels[0] = 1.0
            mask = self._mask(levels)
            n = int(rng.integers(1, min(4, np.count_nonzero(mask)) + 1))
            stacked = self._split(mask, n, seed=int(rng.integers(1 << 31)))
            np.testing.assert_array_equal(stacked.max(axis=0), mask)
            for i in range(n):
                for j in range(i + 1, n):
                    assert not np.any(stacked[i] * stacked[j])

    def test_matches_staged_oracle(self):
        # every row of a batch, seeded seed + i, splits as the oracle splits it alone
        rng = np.random.default_rng(34)
        for _ in range(100):
            shape = (int(rng.integers(1, 6)), int(rng.integers(1, 32)))
            levels = rng.choice([0.0, 0.5, 1.0], size=shape)
            levels[:, 0] = 1.0
            n = int(rng.integers(1, np.count_nonzero(levels, axis=1).min() + 1))
            seed = int(rng.integers(1 << 31))
            got = partition_mask(levels, n, seed)
            for i, row in enumerate(levels):
                want = mask_oracle.partition_mask(mask_oracle.HybridMask(row, 0.5), n, seed + i)
                np.testing.assert_array_equal(got[i], np.stack(want.parts))

    def test_fails_on_the_row_too_narrow_to_split(self):
        masks = self._mask([[1.0, 0.5, 1.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.5]])
        assert partition_mask(masks, 1, seed=0).shape == (3, 1, 3)
        with pytest.raises(PartitionTooFineError, match="cannot split 1 nonzero"):
            partition_mask(masks, 2, seed=0)


@st.composite
def grid_rows(draw, count, d):
    """(count, d) nonzero rows on a quarter grid in [-2, 2]; some are constant,
    some repeat the row before.  Sums of squares of grid values are exact, so
    a row's norm does not depend on summation order, and equal entries, which
    tie at any threshold together, are common."""
    out = draw(arrays(np.int8, (count, d), elements=st.integers(-8, 8))) / 4.0
    kinds = draw(st.lists(st.integers(0, 2), min_size=count, max_size=count))
    for i, kind in enumerate(kinds):
        if kind == 1:
            out[i] = out[i, 0]
        elif kind == 2 and i > 0:
            out[i] = out[i - 1]
    out[~np.any(out, axis=1), -1] = 1.0
    return out


def assert_rows_match_oracle(queries, documents, weights, alpha=0.5):
    paired = np.broadcast_to(queries, documents.shape)
    for q, d, w in zip(paired, documents, weights):
        np.testing.assert_array_equal(w, mask_oracle.mask_pipeline(q, d, alpha).weights)


def threshold_ties(query, document, alpha):
    """How many entries of the pair's staged sigmoid equal mu +/- alpha*sigma exactly."""
    c = standardize_sigmoid(correlation(l2_normalize(query), l2_normalize(document)))
    s = c.standardized
    mu, sigma = float(s.mean()), float(s.std())
    return int(np.sum(s == mu - alpha * sigma) + np.sum(s == mu + alpha * sigma))


def large_d_rows(rng, d, k):
    """Nine (d,) rows for the large-d cases, each nonzero.

    Rows 0 and 1 take two values, k entries the larger one: 2.0 and 1.0 on
    the quarter grid, then 0.3 and 0.1, whose sums round.  Against a
    constant-magnitude query at alpha = sqrt((d - k) / k), their larger
    entries land exactly on the upper threshold, so a norm, mean or std
    summed in another order moves them off it.  Row 2 is a constant
    magnitude with random signs, so against such a query sigma < eps.
    Rows 3-5 are on the quarter grid of [-2, 2], row 5 repeating row 3;
    rows 6-8 are Gaussian.
    """
    rows = np.empty((9, d))
    rows[0], rows[1] = 1.0, 0.1
    rows[0, :k], rows[1, :k] = 2.0, 0.3
    rows[2] = rng.choice([-0.75, 0.75], size=d)
    rows[3:5] = rng.integers(-8, 9, size=(2, d)) / 4.0
    rows[3:5, -1] = 1.0
    rows[5] = rows[3]
    rows[6:] = rng.normal(size=(3, d))
    return rows


class TestMaskPipeline:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), d=st.integers(1, 64), n=st.integers(1, 6), one_query=st.booleans())
    def test_matches_staged_oracle_bitwise(self, data, d, n, one_query):
        documents = data.draw(grid_rows(n, d))
        queries = data.draw(grid_rows(1, d))[0] if one_query else data.draw(grid_rows(n, d))
        alpha = data.draw(st.sampled_from((0.25, 0.5, 1.0, 2.0)))
        weights = mask_pipeline(queries, documents, alpha)
        assert weights.shape == documents.shape
        assert_rows_match_oracle(queries, documents, weights, alpha)

    def test_gaussian_rows_match_staged_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            d = int(rng.integers(2, 200))
            documents = rng.normal(size=(int(rng.integers(1, 40)), d))
            documents[1::5] = documents[0]
            for queries in (rng.normal(size=d), rng.normal(size=documents.shape)):
                assert_rows_match_oracle(queries, documents, mask_pipeline(queries, documents))

    @pytest.mark.parametrize("paired", [False, True], ids=["broadcast", "paired"])
    @pytest.mark.parametrize("d, k", [(129, 54), (256, 105), (768, 365)])
    def test_large_d_matches_staged_oracle_bitwise(self, d, k, paired):
        # np.add.reduce sums more than 128 entries in pairwise blocks; the
        # row-wise reductions must still agree with the oracle's 1-D ones
        rng = np.random.default_rng(d)
        documents = large_d_rows(rng, d, k)
        if paired:
            queries = large_d_rows(rng, d, k)[::-1].copy()
            queries[:3] = rng.choice([-1.0, 1.0], size=(3, d))
        else:
            queries = np.ones(d)
        alpha = math.sqrt((d - k) / k)
        paired_queries = np.broadcast_to(queries, documents.shape)
        for row in (0, 1):
            ties = threshold_ties(paired_queries[row], documents[row], alpha)
            assert ties == k, "no exact threshold tie: this numpy rounds differently; change k"
        weights = mask_pipeline(queries, documents, alpha)
        assert np.all(weights[2] == 1.0)
        assert_rows_match_oracle(queries, documents, weights, alpha)

    def test_read_only_inputs_left_unchanged(self):
        rng = np.random.default_rng(42)
        documents = rng.normal(size=(6, 130))
        for queries in (rng.normal(size=130), rng.normal(size=(6, 130))):
            want = mask_pipeline(queries.copy(), documents.copy())
            frozen_q, frozen_d = queries.copy(), documents.copy()
            frozen_q.setflags(write=False)
            frozen_d.setflags(write=False)
            np.testing.assert_array_equal(mask_pipeline(frozen_q, frozen_d), want)
            np.testing.assert_array_equal(frozen_q, queries)
            np.testing.assert_array_equal(frozen_d, documents)

    def test_three_band_hand_case(self):
        # c = [0.6, 0.3, 0] z-scores to [1.22, 0, -1.22]: one entry per band
        weights = mask_pipeline([1.0, 1.0, 1.0], [[0.6, 0.3, 0.0]], alpha=0.5)
        np.testing.assert_array_equal(weights, [[1.0, 0.5, 0.0]])

    def test_constant_correlation_gives_all_ones(self):
        # |q * d| is the same in every dimension of both rows
        weights = mask_pipeline([1.0, -2.0, 0.5], [[2.0, 1.0, 4.0], [-1.0, 0.5, -2.0]])
        np.testing.assert_array_equal(weights, np.ones((2, 3)))

    @pytest.mark.parametrize("side", ["query", "document"])
    @pytest.mark.parametrize("d", [3, 33, 129])
    def test_rows_of_norm_zero_get_all_ones(self, side, d):
        """A block mixing ordinary, all-zero and underflowed rows: the rows of norm 0
        get all ones, and every other row the weights it gets masked alone."""
        rng = np.random.default_rng(d)
        ordinary = rng.normal(size=(6, d))
        dead = ordinary.copy()
        dead[1] = 0.0
        dead[3] = 1e-200
        dead[3, 2::3] = 2e-200  # [1e-200, 1e-200, 2e-200] at d = 3
        dead[4] = 1e-170 * rng.normal(size=d)  # its largest square underflows too
        if side == "query":
            weights = mask_pipeline(dead, ordinary)
            alone = [mask_pipeline(dead[i : i + 1], ordinary[i : i + 1]) for i in range(6)]
        else:
            query = rng.normal(size=d)
            weights = mask_pipeline(query, dead)
            alone = [mask_pipeline(query, dead[i : i + 1]) for i in range(6)]
        assert not np.any(np.einsum("ij,ij->i", dead, dead)[[1, 3, 4]])
        for i in range(6):
            want = np.ones((1, d)) if i in (1, 3, 4) else alone[i]
            np.testing.assert_array_equal(weights[i : i + 1], want)
            np.testing.assert_array_equal(alone[i], want)

    def test_underflowing_row_gets_all_ones(self):
        # every square of the second row underflows, so its norm is 0
        documents = [[1.0, 0.0, 0.0], [1e-200, 1e-200, 2e-200]]
        weights = mask_pipeline([1.0, 1.0, 1.0], documents)
        np.testing.assert_array_equal(weights[1], np.ones(3))
        np.testing.assert_array_equal(weights[:1], mask_pipeline([1.0, 1.0, 1.0], documents[:1]))

    @pytest.mark.parametrize(
        "alpha",
        # NaN would score every document 0, and an infinity would switch masking off
        [0.0, -1.0, math.nan, math.inf],
        # each id names alpha and the fixed eps, DEFAULT_EPS
        ids=["0.0-1e-08", "-1.0-1e-08", "nan-1e-08", "inf-1e-08"],
    )
    def test_alpha_and_eps_positive(self, alpha):
        with pytest.raises(ValueError, match="must be finite and > 0"):
            mask_pipeline([1.0, 2.0], [[2.0, 1.0]], alpha=alpha)

    @pytest.mark.parametrize(
        "queries, documents",
        [([1.0, 0.0], [[1.0, 0.0, 0.0]]), ([[1.0, 0.0]] * 2, [[1.0, 0.0]] * 3)],
    )
    def test_shapes_must_pair(self, queries, documents):
        with pytest.raises(DimensionMismatchError):
            mask_pipeline(queries, documents)
