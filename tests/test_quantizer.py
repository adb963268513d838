"""Tests for the tensor-level MokeyQuantizer and QuantizedTensor."""

import numpy as np
import pytest

from repro.core.quantizer import MokeyQuantizer, QuantizedTensor


class TestQuantizeTensor:
    def test_quantize_returns_quantized_tensor(self, quantizer, rng):
        values = rng.normal(0, 0.02, (64, 32))
        q = quantizer.quantize(values, name="w")
        assert isinstance(q, QuantizedTensor)
        assert q.shape == (64, 32)
        assert q.size == 64 * 32
        assert q.name == "w"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("path", ["fit", "supplied dictionary"])
    def test_non_finite_values_rejected_in_one_line(self, quantizer, rng, bad, path):
        values = rng.normal(0, 1, (4, 8))
        # The supplied-dictionary path is the KV-cache append.
        dictionary = None
        if path == "supplied dictionary":
            dictionary = quantizer.quantize(values, "kv.key").dictionary
        values[1, 2] = values[3, 0] = bad
        with pytest.raises(ValueError) as info:
            quantizer.quantize(values, "act.in", dictionary=dictionary)
        message = str(info.value)
        assert "\n" not in message
        assert "'act.in'" in message
        assert "2 non-finite" in message and "of 32 values" in message

    def test_dequantize_shape_and_dtype(self, quantizer, rng):
        values = rng.normal(0, 1, (8, 8))
        q = quantizer.quantize(values)
        recon = q.dequantize()
        assert recon.shape == values.shape
        assert recon.dtype == np.float32

    def test_reconstruction_close_for_weight_like_tensor(self, quantizer, rng):
        values = rng.normal(0, 0.02, 4096)
        q = quantizer.quantize(values)
        err = q.quantization_error(values)
        assert err["relative_mae"] < 0.3
        assert err["mae"] < 0.01

    def test_reuse_of_prefit_dictionary(self, quantizer, rng):
        values = rng.normal(0, 1, 1000)
        dictionary = quantizer.fit_dictionary("act", values)
        q1 = quantizer.quantize(values, dictionary=dictionary)
        q2 = quantizer.quantize(values, name="act")
        assert np.allclose(q1.dequantize(), q2.dequantize())

    def test_quantize_dequantize_convenience(self, quantizer, rng):
        values = rng.normal(0, 1, 256)
        direct = quantizer.quantize_dequantize(values)
        via_object = quantizer.quantize(values).dequantize()
        assert np.allclose(direct, via_object)

    def test_fit_dictionary_from_stats(self, quantizer, rng):
        samples = rng.normal(3.0, 2.0, 5000)
        dictionary = quantizer.fit_dictionary_from_stats(
            "act", mean=3.0, std=2.0, minimum=float(samples.min()),
            maximum=float(samples.max()), samples=samples,
        )
        recon = dictionary.quantize_dequantize(samples)
        assert np.abs(recon - samples).mean() / np.abs(samples).mean() < 0.35


class TestFootprintAccounting:
    def test_value_bits_is_four_per_value(self, quantizer, rng):
        q = quantizer.quantize(rng.normal(0, 1, 128))
        assert q.value_bits() == 128 * 4

    def test_memory_bits_includes_pointers_and_metadata(self, quantizer, rng):
        q = quantizer.quantize(rng.normal(0, 1, 128))
        assert q.memory_bits() > q.value_bits()
        # Metadata is bounded: dictionaries + constants + group pointers.
        assert q.memory_bits() < q.value_bits() + 2000

    def test_compression_ratio_against_fp32(self, quantizer, rng):
        # Large tensors amortise the dictionary metadata: ratio approaches 8x
        # against FP32 (32b -> ~4.1b effective).
        q = quantizer.quantize(rng.normal(0, 0.02, 100_000))
        assert 6.0 < q.compression_ratio(32) < 8.1

    def test_compression_ratio_against_fp16(self, quantizer, rng):
        q = quantizer.quantize(rng.normal(0, 0.02, 100_000))
        assert 3.0 < q.compression_ratio(16) < 4.1

    def test_outlier_fraction_matches_encoding(self, quantizer, rng):
        values = rng.normal(0, 1, 10_000)
        values[:200] = 40.0  # forced outliers
        q = quantizer.quantize(values)
        assert q.outlier_count >= 200
        assert q.outlier_fraction == pytest.approx(q.outlier_count / 10_000)


class TestConfiguration:
    def test_default_golden_generated_lazily(self):
        # Constructing without a golden dictionary must still work (slow path
        # exercised once here with reduced parameters via explicit argument).
        from repro.core.golden_dictionary import generate_golden_dictionary

        golden = generate_golden_dictionary(num_samples=2000, num_repeats=1)
        q = MokeyQuantizer(golden)
        assert q.golden is golden

    def test_non_exponential_mode(self, golden, rng):
        q = MokeyQuantizer(golden, use_exponential=False)
        values = rng.normal(0, 1, 1000)
        recon = q.quantize_dequantize(values)
        assert np.abs(recon - values).mean() / np.abs(values).mean() < 0.35


class TestFitMemoAndDigest:
    """The fit memo (ISSUE 9) and the content digest the plane cache keys on."""

    def test_identical_values_hit_the_memo_with_identical_fit(self, golden, rng):
        q = MokeyQuantizer(golden)
        values = rng.normal(0, 0.5, 512)
        first = q.fit_dictionary("w", values)
        second = q.fit_dictionary("w", values)
        assert second is first  # the exact same fit object, not a refit
        assert (q.fit_memo_hits, q.fit_memo_misses) == (1, 1)

    def test_memo_hit_renames_without_refitting(self, golden, rng):
        q = MokeyQuantizer(golden)
        values = rng.normal(0, 0.5, 256)
        first = q.fit_dictionary("first", values)
        renamed = q.fit_dictionary("second", values)
        assert renamed.name == "second"
        assert renamed.mean == first.mean and renamed.std == first.std
        assert np.array_equal(renamed.gaussian_half, first.gaussian_half)
        assert q.fit_memo_hits == 1

    def test_memoised_fit_equals_fresh_fit_bitwise(self, golden, rng):
        values = rng.normal(0, 0.5, 512)
        memo_q = MokeyQuantizer(golden)
        fresh_q = MokeyQuantizer(golden, fit_memo=False)
        memo_q.fit_dictionary("w", values)  # prime
        via_memo = memo_q.quantize(values, "w")
        fresh = fresh_q.quantize(values, "w")
        assert fresh_q.fit_memo_hits == 0
        assert np.array_equal(via_memo.encoded.codes, fresh.encoded.codes)
        assert via_memo.content_digest() == fresh.content_digest()

    def test_memo_is_lru_bounded(self, golden, rng):
        q = MokeyQuantizer(golden, fit_memo_entries=2)
        tensors = [rng.normal(0, 0.5, 128) for _ in range(3)]
        for values in tensors:
            q.fit_dictionary("w", values)
        assert len(q._fit_memo) == 2
        q.fit_dictionary("w", tensors[0])  # evicted: must refit
        assert q.fit_memo_misses == 4 and q.fit_memo_hits == 0

    def test_quantizer_pickles_without_the_memo(self, golden, rng):
        import pickle

        q = MokeyQuantizer(golden)
        values = rng.normal(0, 0.5, 128)
        q.fit_dictionary("w", values)
        clone = pickle.loads(pickle.dumps(q))
        assert len(clone._fit_memo) == 0
        # And the clone still works (lock was recreated).
        clone.fit_dictionary("w", values)

    def test_content_digest_distinguishes_values_and_shape(self, quantizer, rng):
        values = rng.normal(0, 0.5, (8, 8))
        base = quantizer.quantize(values, "w")
        same = quantizer.quantize(values.copy(), "w")
        other = quantizer.quantize(values + 1e-3, "w")
        reshaped = quantizer.quantize(values.reshape(4, 16), "w")
        assert base.content_digest() == same.content_digest()
        assert base.content_digest() != other.content_digest()
        assert base.content_digest() != reshaped.content_digest()
