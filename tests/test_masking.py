"""Unit and property tests for normalization, correlation, and hybrid masks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holorag.errors import DimensionMismatchError, PartitionTooFineError, ZeroVectorError
from holorag.masking import (
    CorrelationVector,
    Embedding,
    HybridMask,
    correlation,
    hybrid_mask,
    l2_normalize,
    partition_mask,
    standardize_sigmoid,
)

SIGMOID_PLUS_ONE = 0.7310585786300049
SIGMOID_MINUS_ONE = 0.2689414213699951


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
        return HybridMask(np.asarray(weights, dtype=np.float64), alpha=0.5)

    def test_single_part_identity(self):
        mask = self._mask([1.0, 0.5, 0.0, 1.0])
        parts = partition_mask(mask, 1, seed=3).parts
        assert len(parts) == 1
        np.testing.assert_array_equal(parts[0], mask.weights)

    def test_two_parts_disjoint_and_reconstruct(self):
        mask = self._mask([1.0, 0.5, 0.0, 1.0])
        sub = partition_mask(mask, 2, seed=9)
        assert len(sub.parts) == 2
        np.testing.assert_array_equal(sub.parts[0] * sub.parts[1], np.zeros(4))
        np.testing.assert_array_equal(np.stack(sub.parts).max(axis=0), mask.weights)
        assert all(np.any(p) for p in sub.parts)

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
        first = partition_mask(mask, 3, seed=123)
        second = partition_mask(mask, 3, seed=123)
        for p, q in zip(first.parts, second.parts):
            np.testing.assert_array_equal(p, q)

    def test_random_partitions_lawful(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            dim = int(rng.integers(4, 64))
            levels = rng.choice([0.0, 0.5, 1.0], size=dim)
            if not np.any(levels):
                levels[0] = 1.0
            mask = self._mask(levels)
            n = int(rng.integers(1, min(4, mask.support().size) + 1))
            sub = partition_mask(mask, n, seed=int(rng.integers(1 << 31)))
            stacked = np.stack(sub.parts)
            np.testing.assert_array_equal(stacked.max(axis=0), mask.weights)
            for i in range(n):
                for j in range(i + 1, n):
                    assert not np.any(stacked[i] * stacked[j])
