"""Tests for the index-domain MAC decomposition (paper Eq. 3-6, Fig. 4).

The central claim of the paper is that the dot product of two
Mokey-quantized tensors can be computed exactly from exponent-sum
histograms plus a handful of constants.  These tests verify that claim by
comparing the index-domain result against the dot product of the decoded
(dequantized) operands, and lock the vectorized engine's guarantee —
values equal to the scalar reference within fp tolerance, operation
statistics *identical* — with hypothesis property tests.  Checks at
``rtol=1e-9`` run on :class:`Float64Engine`, the vectorized engine with
float64 planes; the float32 default is held to a derived accumulation
bound against it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Float64Engine

from repro.core.index_compute import (
    IndexComputeStats,
    IndexDomainEngine,
    IndexMatmulResult,
    VectorizedIndexDomainEngine,
    index_domain_dot,
    index_domain_matmul,
)
from repro.core.quantizer import MokeyQuantizer


def _engine_matmul(aq, wq, engine=VectorizedIndexDomainEngine):
    return engine(aq.dictionary, wq.dictionary).matmul(aq, wq)


def _float64_matmul(aq, wq):
    return _engine_matmul(aq, wq, Float64Engine)


def _quantized_pair(quantizer, rng, n=512, act_outliers=0.04, w_outliers=0.01):
    w = rng.normal(0, 0.02, n)
    if w_outliers > 0:
        w[rng.choice(n, max(1, int(n * w_outliers)), replace=False)] = rng.choice([-1, 1]) * 0.3
    else:
        w = np.clip(w, -0.05, 0.05)
    a = rng.normal(0.5, 2.0, n)
    if act_outliers > 0:
        a[rng.choice(n, max(1, int(n * act_outliers)), replace=False)] = rng.choice([-1, 1]) * 60.0
    else:
        a = np.clip(a, -4.5, 5.5)
    return quantizer.quantize(a, "a"), quantizer.quantize(w, "w")


def _reference_dot(aq, wq):
    a = aq.dictionary.decode(aq.encoded, apply_fixed_point=False)
    w = wq.dictionary.decode(wq.encoded, apply_fixed_point=False)
    return float(a @ w)


class TestDotProduct:
    def test_matches_decoded_dot_product(self, quantizer, rng):
        aq, wq = _quantized_pair(quantizer, rng)
        result = index_domain_dot(aq, wq)
        assert result.value == pytest.approx(_reference_dot(aq, wq), rel=1e-9, abs=1e-9)

    def test_matches_without_outliers(self, quantizer, rng):
        aq, wq = _quantized_pair(quantizer, rng, act_outliers=0.0, w_outliers=0.0)
        result = index_domain_dot(aq, wq)
        assert result.value == pytest.approx(_reference_dot(aq, wq), rel=1e-9, abs=1e-9)
        assert result.outlier_contribution == 0.0

    def test_matches_with_many_outliers(self, quantizer, rng):
        """Force a large outlier population by fitting the activation
        dictionary on a profiling sample and then feeding a vector whose
        tail extends well beyond the profiled range."""
        n = 512
        profile = rng.normal(0.5, 2.0, 4000)
        profile[:40] = 80.0  # make sure an outlier dictionary exists
        act_dict = quantizer.fit_dictionary("a", profile)
        a = rng.normal(0.5, 2.0, n)
        a[rng.choice(n, 60, replace=False)] = rng.choice([-1, 1], 60) * 70.0
        w = rng.normal(0, 0.02, n)
        aq = quantizer.quantize(a, dictionary=act_dict)
        wq = quantizer.quantize(w, "w")
        result = index_domain_dot(aq, wq)
        assert result.value == pytest.approx(_reference_dot(aq, wq), rel=1e-9, abs=1e-9)
        assert result.stats.outlier_pairs >= 60

    def test_terms_sum_to_value(self, quantizer, rng):
        aq, wq = _quantized_pair(quantizer, rng)
        result = index_domain_dot(aq, wq)
        assert result.value == pytest.approx(sum(result.terms().values()), rel=1e-12)

    def test_close_to_original_fp_dot_product(self, quantizer, rng):
        """The quantized dot product approximates the FP one (model fidelity)."""
        n = 2048
        w = rng.normal(0, 0.02, n)
        a = rng.normal(0.0, 1.5, n)
        aq, wq = quantizer.quantize(a, "a"), quantizer.quantize(w, "w")
        result = index_domain_dot(aq, wq)
        exact = float(a @ w)
        scale = np.abs(a).mean() * np.abs(w).mean() * np.sqrt(n)
        assert abs(result.value - exact) < 0.5 * scale

    def test_length_mismatch_rejected(self, quantizer, rng):
        aq = quantizer.quantize(rng.normal(0, 1, 16), "a")
        wq = quantizer.quantize(rng.normal(0, 1, 8), "w")
        with pytest.raises(ValueError):
            index_domain_dot(aq, wq)

    def test_mismatched_golden_dictionaries_rejected(self, quantizer, rng):
        from repro.core.golden_dictionary import generate_golden_dictionary
        from repro.core.quantizer import MokeyQuantizer

        other = MokeyQuantizer(generate_golden_dictionary(num_samples=2000, num_repeats=1, seed=99))
        aq = quantizer.quantize(rng.normal(0, 1, 16), "a")
        wq = other.quantize(rng.normal(0, 1, 16), "w")
        if np.isclose(aq.dictionary.golden.fit.a, wq.dictionary.golden.fit.a):
            pytest.skip("randomly identical fits")
        with pytest.raises(ValueError):
            IndexDomainEngine(aq.dictionary, wq.dictionary)


class TestStatistics:
    def test_pair_counts(self, quantizer, rng):
        aq, wq = _quantized_pair(quantizer, rng, n=256)
        result = index_domain_dot(aq, wq)
        assert result.stats.total_pairs == 256
        assert result.stats.gaussian_pairs + result.stats.outlier_pairs == 256

    def test_counter_updates_four_per_gaussian_pair(self, quantizer, rng):
        aq, wq = _quantized_pair(quantizer, rng, n=128)
        result = index_domain_dot(aq, wq)
        assert result.stats.counter_updates == 4 * result.stats.gaussian_pairs

    def test_merge_accumulates(self):
        a = IndexComputeStats(gaussian_pairs=10, outlier_pairs=1, index_additions=10,
                              counter_updates=40, post_processing_macs=30)
        b = IndexComputeStats(gaussian_pairs=5, outlier_pairs=2, index_additions=5,
                              counter_updates=20, post_processing_macs=32)
        a.merge(b)
        assert a.gaussian_pairs == 15
        assert a.outlier_pairs == 3
        assert a.outlier_pair_fraction == pytest.approx(3 / 18)


class TestMatmul:
    def test_matmul_matches_decoded_matmul(self, quantizer, rng):
        a = rng.normal(0.2, 1.0, (4, 24))
        w = rng.normal(0, 0.05, (24, 3))
        aq = quantizer.quantize(a, "a")
        wq = quantizer.quantize(w, "w")
        result, stats = index_domain_matmul(aq, wq, engine=Float64Engine)
        a_dec = aq.dictionary.decode(aq.encoded, apply_fixed_point=False).reshape(a.shape)
        w_dec = wq.dictionary.decode(wq.encoded, apply_fixed_point=False).reshape(w.shape)
        assert np.allclose(result, a_dec @ w_dec, rtol=1e-9, atol=1e-9)
        assert stats.total_pairs == 4 * 24 * 3

    def test_matmul_requires_2d(self, quantizer, rng):
        aq = quantizer.quantize(rng.normal(0, 1, 8), "a")
        wq = quantizer.quantize(rng.normal(0, 1, (8, 2)), "w")
        with pytest.raises(ValueError):
            index_domain_matmul(aq, wq)

    def test_matmul_inner_dim_mismatch(self, quantizer, rng):
        aq = quantizer.quantize(rng.normal(0, 1, (2, 8)), "a")
        wq = quantizer.quantize(rng.normal(0, 1, (4, 2)), "w")
        with pytest.raises(ValueError):
            index_domain_matmul(aq, wq)


def _decoded_matmul(aq, wq):
    a = aq.dictionary.decode(aq.encoded, apply_fixed_point=False).reshape(aq.shape)
    w = wq.dictionary.decode(wq.encoded, apply_fixed_point=False).reshape(wq.shape)
    return a @ w


def _quantized_matrices(quantizer, rng, m, k, n, act_outliers=0.05, w_outliers=0.02):
    a = rng.normal(0.2, 1.5, (m, k))
    if act_outliers > 0 and a.size:
        count = max(1, int(a.size * act_outliers))
        a.ravel()[rng.choice(a.size, count, replace=False)] = (
            rng.choice([-1, 1], count) * 50.0
        )
    w = rng.normal(0, 0.03, (k, n))
    if w_outliers > 0 and w.size:
        count = max(1, int(w.size * w_outliers))
        w.ravel()[rng.choice(w.size, count, replace=False)] = (
            rng.choice([-1, 1], count) * 0.4
        )
    return quantizer.quantize(a, "a"), quantizer.quantize(w, "w")


class TestVectorizedEngine:
    """Vectorized == scalar: values to fp tolerance, statistics identical."""

    def test_matches_scalar_values_and_stats(self, quantizer, rng):
        aq, wq = _quantized_matrices(quantizer, rng, 9, 64, 7)
        scalar_values, scalar_stats = index_domain_matmul(aq, wq, engine="scalar")
        result = _float64_matmul(aq, wq)
        assert isinstance(result, IndexMatmulResult)
        assert np.allclose(result.values, scalar_values, rtol=1e-9, atol=1e-9)
        assert result.stats == scalar_stats

    def test_matches_decoded_matmul(self, quantizer, rng):
        aq, wq = _quantized_matrices(quantizer, rng, 6, 48, 5)
        result = _float64_matmul(aq, wq)
        assert np.allclose(result.values, _decoded_matmul(aq, wq), rtol=1e-9, atol=1e-9)

    def test_default_matmul_engine_is_vectorized_and_equivalent(self, quantizer, rng):
        aq, wq = _quantized_matrices(quantizer, rng, 4, 32, 3)
        default_values, default_stats = index_domain_matmul(aq, wq)
        scalar_values, scalar_stats = index_domain_matmul(aq, wq, engine="scalar")
        float64_values, _ = index_domain_matmul(aq, wq, engine=Float64Engine)
        assert np.array_equal(default_values, _engine_matmul(aq, wq).values)
        assert np.allclose(float64_values, scalar_values, rtol=1e-9, atol=1e-9)
        assert default_stats == scalar_stats

    def test_unknown_engine_rejected(self, quantizer, rng):
        aq, wq = _quantized_matrices(quantizer, rng, 2, 8, 2)
        with pytest.raises(ValueError):
            index_domain_matmul(aq, wq, engine="simd")

    def test_shape_validation_matches_scalar(self, quantizer, rng):
        aq = quantizer.quantize(rng.normal(0, 1, 8), "a")
        wq = quantizer.quantize(rng.normal(0, 1, (8, 2)), "w")
        with pytest.raises(ValueError):
            _engine_matmul(aq, wq)
        aq2 = quantizer.quantize(rng.normal(0, 1, (2, 8)), "a")
        wq2 = quantizer.quantize(rng.normal(0, 1, (4, 2)), "w")
        with pytest.raises(ValueError):
            _engine_matmul(aq2, wq2)

    def test_mismatched_golden_dictionaries_rejected(self, quantizer, rng):
        from repro.core.golden_dictionary import generate_golden_dictionary

        other = MokeyQuantizer(
            generate_golden_dictionary(num_samples=2000, num_repeats=1, seed=99)
        )
        aq = quantizer.quantize(rng.normal(0, 1, (2, 8)), "a")
        wq = other.quantize(rng.normal(0, 1, (8, 2)), "w")
        if np.isclose(aq.dictionary.golden.fit.a, wq.dictionary.golden.fit.a):
            pytest.skip("randomly identical fits")
        with pytest.raises(ValueError):
            VectorizedIndexDomainEngine(aq.dictionary, wq.dictionary)

    @pytest.mark.parametrize("engine", ["scalar", "vectorized"])
    @pytest.mark.parametrize("raw_side", ["act", "w"])
    def test_non_exponential_dictionaries_rejected(self, golden, quantizer, rng, engine, raw_side):
        # Clustered (non-exponential) centroids decode to values Eq. 3-6
        # cannot regenerate; computing on them would be silently wrong.
        raw = MokeyQuantizer(golden, use_exponential=False)
        act_q, w_q = (raw, quantizer) if raw_side == "act" else (quantizer, raw)
        aq = act_q.quantize(rng.normal(0.5, 2.0, (4, 64)), f"{raw_side}.act")
        wq = w_q.quantize(rng.normal(0, 0.02, (64, 5)), f"{raw_side}.w")
        name = aq.name if raw_side == "act" else wq.name
        with pytest.raises(ValueError, match=rf"'{name}'.*use_exponential=True"):
            index_domain_matmul(aq, wq, engine=engine)

    @settings(max_examples=20, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=4),
        k=st.integers(min_value=1, max_value=12),
        n=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        act_outliers=st.sampled_from([0.0, 0.1]),
    )
    def test_property_vectorized_equals_scalar(
        self, quantizer, m, k, n, seed, act_outliers
    ):
        rng = np.random.default_rng(seed)
        aq, wq = _quantized_matrices(
            quantizer, rng, m, k, n, act_outliers=act_outliers, w_outliers=0.05
        )
        scalar_values, scalar_stats = index_domain_matmul(aq, wq, engine="scalar")
        result = _float64_matmul(aq, wq)
        scale = max(1.0, float(np.abs(scalar_values).max()))
        assert np.allclose(result.values, scalar_values, rtol=1e-9, atol=1e-9 * scale)
        assert result.stats == scalar_stats


class TestFloat32Contract:
    """The float32 default against the float64 engine on the same operands.

    Decoding a 16-bit centroid to float32 rounds it by at most 2**-24
    relative, and a K-term float32 dot product accumulates at most K
    more roundings, so every value lies within ``(K + 2) * 2**-24`` of
    ``|A| @ |W|`` of the float64 result.  The statistics come from the
    outlier masks alone and are identical.
    """

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=6),
        k=st.integers(min_value=1, max_value=96),
        n=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        act_outliers=st.sampled_from([0.0, 0.1]),
    )
    def test_float32_within_accumulation_bound_of_float64(
        self, quantizer, m, k, n, seed, act_outliers
    ):
        rng = np.random.default_rng(seed)
        aq, wq = _quantized_matrices(
            quantizer, rng, m, k, n, act_outliers=act_outliers, w_outliers=0.05
        )
        default = _engine_matmul(aq, wq)
        reference = _float64_matmul(aq, wq)
        assert default.values.dtype == np.float32
        assert reference.values.dtype == np.float64
        assert default.stats == reference.stats
        a = np.abs(aq.dictionary.decode(aq.encoded, apply_fixed_point=False)).reshape(aq.shape)
        w = np.abs(wq.dictionary.decode(wq.encoded, apply_fixed_point=False)).reshape(wq.shape)
        bound = (k + 2) * 2.0**-24 * (a @ w)
        assert np.all(np.abs(default.values - reference.values) <= bound)


class TestEdgeCases:
    """Empty, length-1, and all-outlier operands; error paths; identities."""

    def _empty_pair(self, quantizer, rng, shape_a, shape_w):
        # An empty tensor cannot fit its own dictionary; borrow one fitted
        # on a real sample (the runtime path for streamed activations).
        act_dict = quantizer.fit_dictionary("a", rng.normal(0, 1.5, 256))
        w_dict = quantizer.fit_dictionary("w", rng.normal(0, 0.02, 256))
        return (
            quantizer.quantize(np.empty(shape_a), dictionary=act_dict),
            quantizer.quantize(np.empty(shape_w), dictionary=w_dict),
        )

    def test_empty_dot_is_zero(self, quantizer, rng):
        aq, wq = self._empty_pair(quantizer, rng, (0,), (0,))
        result = index_domain_dot(aq, wq)
        assert result.value == 0.0
        assert result.stats.total_pairs == 0
        assert result.stats.counter_updates == 0
        # The fixed post-processing drain happens even for an empty output.
        assert result.stats.post_processing_macs > 0

    def test_empty_inner_dimension_matmul(self, quantizer, rng):
        aq, wq = self._empty_pair(quantizer, rng, (3, 0), (0, 2))
        scalar_values, scalar_stats = index_domain_matmul(aq, wq, engine="scalar")
        result = _engine_matmul(aq, wq)
        assert result.values.shape == (3, 2)
        assert np.all(result.values == 0.0)
        assert np.all(scalar_values == 0.0)
        assert result.stats == scalar_stats
        assert result.stats.total_pairs == 0

    def test_empty_output_plane_matmul(self, quantizer, rng):
        aq, wq = self._empty_pair(quantizer, rng, (0, 4), (4, 0))
        aq = quantizer.quantize(np.empty((0, 4)), dictionary=aq.dictionary)
        result = _engine_matmul(aq, wq)
        assert result.values.shape == (0, 0)
        assert result.stats.total_pairs == 0

    def test_length_one_vectors(self, quantizer, rng):
        aq = quantizer.quantize(np.array([1.7]), "a")
        wq = quantizer.quantize(np.array([-0.02]), "w")
        result = index_domain_dot(aq, wq)
        reference = _reference_dot(aq, wq)
        assert result.value == pytest.approx(reference, rel=1e-9, abs=1e-12)
        assert result.stats.total_pairs == 1

    def test_length_one_matmul(self, quantizer, rng):
        aq, wq = _quantized_matrices(quantizer, rng, 1, 1, 1, act_outliers=0, w_outliers=0)
        scalar_values, scalar_stats = index_domain_matmul(aq, wq, engine="scalar")
        result = _float64_matmul(aq, wq)
        assert result.values.shape == (1, 1)
        assert np.allclose(result.values, scalar_values, rtol=1e-9, atol=1e-12)
        assert result.stats == scalar_stats

    def test_all_outlier_vectors(self, quantizer, rng):
        # Fit on a sample with a heavy tail so an outlier dictionary
        # exists, then feed vectors living entirely in that tail.
        profile = rng.normal(0, 1.0, 2048)
        profile[:64] = rng.choice([-1, 1], 64) * 90.0
        act_dict = quantizer.fit_dictionary("a", profile)
        a = rng.choice([-1, 1], (4, 6)) * rng.uniform(80.0, 100.0, (4, 6))
        aq = quantizer.quantize(a, dictionary=act_dict)
        assert bool(aq.encoded.is_outlier.all())
        wq = quantizer.quantize(rng.normal(0, 0.02, (6, 3)), "w")
        scalar_values, scalar_stats = index_domain_matmul(aq, wq, engine="scalar")
        result = _float64_matmul(aq, wq)
        assert scalar_stats.gaussian_pairs == 0
        assert scalar_stats.outlier_pairs == 4 * 6 * 3
        assert result.stats == scalar_stats
        assert np.allclose(result.values, scalar_values, rtol=1e-9, atol=1e-9)
        assert np.allclose(result.values, _decoded_matmul(aq, wq), rtol=1e-9, atol=1e-9)

    def test_merge_identities(self):
        zero = IndexComputeStats()
        some = IndexComputeStats(
            gaussian_pairs=7, outlier_pairs=2, index_additions=7,
            counter_updates=28, post_processing_macs=35,
        )
        # Zero is the identity on both sides.
        assert IndexComputeStats().merge(some) == some
        assert some.copy().merge(zero) == some
        # Merge order does not matter (component-wise addition).
        other = IndexComputeStats(
            gaussian_pairs=1, outlier_pairs=5, index_additions=1,
            counter_updates=4, post_processing_macs=38,
        )
        assert some.copy().merge(other) == other.copy().merge(some)
        # merge(x) n times == scaled(n) starting from x.
        tripled = some.copy().merge(some).merge(some)
        assert tripled == some.scaled(3)
        assert some.scaled(1) == some
        assert some.scaled(0) == zero

    def test_merge_returns_self_for_chaining(self):
        stats = IndexComputeStats(gaussian_pairs=1)
        assert stats.merge(IndexComputeStats(gaussian_pairs=2)) is stats
        assert stats.gaussian_pairs == 3
