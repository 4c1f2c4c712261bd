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

    def test_single_part_identity(self):
        mask = self._mask([1.0, 0.5, 0.0, 1.0])
        parts = partition_mask(mask, 1, seed=3)
        assert parts.shape == (1, 4)
        np.testing.assert_array_equal(parts[0], mask)

    def test_two_parts_disjoint_and_reconstruct(self):
        mask = self._mask([1.0, 0.5, 0.0, 1.0])
        parts = partition_mask(mask, 2, seed=9)
        assert parts.shape == (2, 4)
        np.testing.assert_array_equal(parts[0] * parts[1], np.zeros(4))
        np.testing.assert_array_equal(parts.max(axis=0), mask)
        assert all(np.any(p) for p in parts)

    def test_empty_support(self):
        with pytest.raises(PartitionTooFineError):
            partition_mask(self._mask([0.0, 0.0, 0.0]), 2, seed=0)

    def test_too_many_parts(self):
        with pytest.raises(PartitionTooFineError):
            partition_mask(self._mask([1.0, 0.0, 0.5]), 3, seed=0)

    def test_n_parts_at_least_one(self):
        with pytest.raises(ValueError):
            partition_mask(self._mask([1.0, 1.0]), 0, seed=0)

    def test_determinism(self):
        mask = self._mask([1.0, 0.5, 1.0, 0.0, 0.5, 1.0])
        np.testing.assert_array_equal(
            partition_mask(mask, 3, seed=123), partition_mask(mask, 3, seed=123)
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
            stacked = partition_mask(mask, n, seed=int(rng.integers(1 << 31)))
            np.testing.assert_array_equal(stacked.max(axis=0), mask)
            for i in range(n):
                for j in range(i + 1, n):
                    assert not np.any(stacked[i] * stacked[j])

    def test_matches_staged_oracle(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            levels = rng.choice([0.0, 0.5, 1.0], size=int(rng.integers(1, 32)))
            levels[0] = 1.0
            n = int(rng.integers(1, np.count_nonzero(levels) + 1))
            seed = int(rng.integers(1 << 31))
            want = mask_oracle.partition_mask(mask_oracle.HybridMask(levels, 0.5), n, seed)
            np.testing.assert_array_equal(partition_mask(levels, n, seed), np.stack(want.parts))


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

    def test_three_band_hand_case(self):
        # c = [0.6, 0.3, 0] z-scores to [1.22, 0, -1.22]: one entry per band
        weights = mask_pipeline([1.0, 1.0, 1.0], [[0.6, 0.3, 0.0]], alpha=0.5)
        np.testing.assert_array_equal(weights, [[1.0, 0.5, 0.0]])

    def test_constant_correlation_gives_all_ones(self):
        # |q * d| is the same in every dimension of both rows
        weights = mask_pipeline([1.0, -2.0, 0.5], [[2.0, 1.0, 4.0], [-1.0, 0.5, -2.0]])
        np.testing.assert_array_equal(weights, np.ones((2, 3)))

    @pytest.mark.parametrize("zero", ["query", "document"])
    def test_any_zero_row_raises(self, zero):
        queries = np.ones((3, 2))
        documents = np.ones((3, 2))
        (queries if zero == "query" else documents)[1] = 0.0
        with pytest.raises(ZeroVectorError):
            mask_pipeline(queries, documents)

    def test_underflowing_row_raises(self):
        with pytest.raises(ZeroVectorError):
            mask_pipeline([1.0, 1.0, 1.0], [[1.0, 0.0, 0.0], [1e-200, 1e-200, 2e-200]])

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
