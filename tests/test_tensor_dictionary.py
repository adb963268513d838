"""Tests for per-tensor dictionary fitting, encoding and decoding."""

import numpy as np
import pytest

from repro.core.tensor_dictionary import TensorDictionary


def _gaussian_with_outliers(rng, n=4000, mean=0.5, std=2.0, outlier_fraction=0.02):
    values = rng.normal(mean, std, n)
    k = int(n * outlier_fraction)
    idx = rng.choice(n, k, replace=False)
    values[idx] = mean + rng.choice([-1, 1], k) * rng.uniform(6 * std, 12 * std, k)
    return values


class TestFitting:
    def test_fit_from_values_records_statistics(self, golden, rng):
        values = _gaussian_with_outliers(rng)
        dictionary = TensorDictionary.fit("t", golden, values=values)
        assert dictionary.mean == pytest.approx(values.mean(), abs=0.05)
        assert dictionary.std == pytest.approx(values.std(), rel=0.05)
        assert dictionary.has_outliers

    def test_fit_from_stats_matches_fit_from_values(self, golden, rng):
        values = _gaussian_with_outliers(rng)
        from_values = TensorDictionary.fit("a", golden, values=values)
        from_stats = TensorDictionary.fit(
            "b",
            golden,
            mean=float(values.mean()),
            std=float(values.std()),
            minimum=float(values.min()),
            maximum=float(values.max()),
            outlier_samples=values,
        )
        assert from_stats.mean == pytest.approx(from_values.mean)
        assert from_stats.std == pytest.approx(from_values.std)
        assert np.allclose(from_stats.outlier_centroids, from_values.outlier_centroids)

    def test_fit_requires_values_or_stats(self, golden):
        with pytest.raises(ValueError):
            TensorDictionary.fit("t", golden)

    def test_empty_tensor_rejected(self, golden):
        with pytest.raises(ValueError):
            TensorDictionary.fit("t", golden, values=np.empty(0))

    def test_no_outliers_for_pure_gaussian_without_tail(self, golden, rng):
        values = np.clip(rng.normal(0, 1, 2000), -2, 2)
        dictionary = TensorDictionary.fit("t", golden, values=values)
        assert not dictionary.has_outliers

    def test_outlier_centroid_count_bounded(self, golden, rng):
        values = _gaussian_with_outliers(rng, outlier_fraction=0.1)
        dictionary = TensorDictionary.fit("t", golden, values=values, max_outlier_entries=16)
        assert 0 < dictionary.outlier_centroids.size <= 16

    def test_few_distinct_outliers_get_one_centroid_each(self, golden, rng):
        # More outliers than entries but only three distinct values: no
        # duplicate centroids, and the metadata counts three entries.
        values = rng.normal(0, 1, 4000)
        values[:40] = np.repeat([8.0, -9.0, 12.0], [15, 5, 20])
        dictionary = TensorDictionary.fit("t", golden, values=values, max_outlier_entries=16)
        assert np.array_equal(dictionary.outlier_centroids, [-9.0, 8.0, 12.0])
        assert dictionary.metadata_bits() == (8 + 3 + 4) * 16

    def test_threshold_scales_with_std(self, golden, rng):
        narrow = TensorDictionary.fit("n", golden, values=rng.normal(0, 0.1, 2000))
        wide = TensorDictionary.fit("w", golden, values=rng.normal(0, 10.0, 2000))
        assert wide.threshold > narrow.threshold * 50

    def test_metadata_bits_small(self, golden, rng):
        values = _gaussian_with_outliers(rng)
        dictionary = TensorDictionary.fit("t", golden, values=values)
        # 8 Gaussian + <=16 outlier centroids + 4 constants at 16 bits each.
        assert dictionary.metadata_bits() <= (8 + 16 + 4) * 16


class TestEncodeDecode:
    def test_round_trip_error_small_for_gaussian_core(self, golden, rng):
        values = rng.normal(1.0, 2.0, 5000)
        dictionary = TensorDictionary.fit("t", golden, values=values)
        recon = dictionary.quantize_dequantize(values)
        relative = np.abs(recon - values).mean() / np.abs(values).mean()
        assert relative < 0.35  # 4-bit quantization error envelope

    def test_outliers_reconstructed_closely(self, golden, rng):
        values = _gaussian_with_outliers(rng)
        dictionary = TensorDictionary.fit("t", golden, values=values)
        encoded = dictionary.encode(values)
        recon = dictionary.decode(encoded)
        outlier_positions = encoded.is_outlier
        if outlier_positions.any():
            errors = np.abs(recon[outlier_positions] - values[outlier_positions])
            spans = np.abs(values[outlier_positions])
            assert np.median(errors / spans) < 0.35

    def test_encode_preserves_shape(self, golden, rng):
        values = rng.normal(0, 1, (13, 7))
        dictionary = TensorDictionary.fit("t", golden, values=values)
        encoded = dictionary.encode(values)
        assert encoded.shape == (13, 7)
        assert dictionary.decode(encoded).shape == (13, 7)

    def test_gaussian_index_within_range(self, golden, rng):
        values = rng.normal(0, 3, 1000)
        dictionary = TensorDictionary.fit("t", golden, values=values)
        encoded = dictionary.encode(values)
        assert encoded.gaussian_index.min() >= 0
        assert encoded.gaussian_index.max() <= 7

    def test_sign_matches_centred_value(self, golden, rng):
        values = rng.normal(0, 1, 1000)
        dictionary = TensorDictionary.fit("t", golden, values=values)
        encoded = dictionary.encode(values)
        centred = values - dictionary.mean
        assert np.all((encoded.sign >= 0) == (centred >= 0))

    def test_outlier_fraction_accounting(self, golden, rng):
        values = _gaussian_with_outliers(rng, outlier_fraction=0.03)
        dictionary = TensorDictionary.fit("t", golden, values=values)
        encoded = dictionary.encode(values)
        assert encoded.outlier_fraction == pytest.approx(
            encoded.outlier_count / values.size
        )
        assert 0.005 < encoded.outlier_fraction < 0.08

    def test_decode_without_fixed_point_is_exact_dictionary_value(self, golden, rng):
        values = rng.normal(0, 1, 100)
        dictionary = TensorDictionary.fit("t", golden, values=values)
        encoded = dictionary.encode(values)
        exact = dictionary.decode(encoded, apply_fixed_point=False)
        rounded = dictionary.decode(encoded, apply_fixed_point=True)
        assert np.max(np.abs(exact - rounded)) <= dictionary.fixed_point.scale / 2 + 1e-12

    def test_gaussian_centroids_sorted_and_symmetric_about_mean(self, golden, rng):
        values = rng.normal(2.0, 1.5, 2000)
        dictionary = TensorDictionary.fit("t", golden, values=values)
        centroids = dictionary.gaussian_centroids()
        assert centroids.size == 16
        assert np.all(np.diff(centroids) > 0)
        mid = (centroids[:8][::-1] + centroids[8:]) / 2.0
        assert np.allclose(mid, dictionary.mean, atol=2 * dictionary.fixed_point.scale)

    def test_all_centroids_combines_both_dictionaries(self, golden, rng):
        values = _gaussian_with_outliers(rng)
        dictionary = TensorDictionary.fit("t", golden, values=values)
        combined = dictionary.all_centroids()
        assert combined.size == 16 + dictionary.outlier_centroids.size
        assert np.all(np.diff(combined) >= 0)
