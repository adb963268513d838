"""Property-based tests (hypothesis) on the core invariants.

The invariants exercised here are the ones the paper's correctness rests
on: the index-domain decomposition always equals the decoded dot product,
encode/decode round-trips never increase the error beyond the dictionary
resolution, the memory container is lossless for arbitrary outlier
patterns, and the fixed-point conversion respects Eq. 7-8 for any range.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.fixed_point import FixedPointFormat
from repro.core.golden_dictionary import generate_golden_dictionary
from repro.core.index_compute import (
    VectorizedIndexDomainEngine,
    index_domain_dot,
    index_domain_matmul,
)
from repro.core.quantizer import MokeyQuantizer
from repro.core.tensor_dictionary import TensorDictionary
from repro.memory.layout import pack_offchip, pack_onchip_5bit, unpack_offchip, unpack_onchip_5bit
from repro.transformer.index_execution import _encode_family
from repro.transformer.tasks import spearman_correlation

# A module-level quantizer keeps hypothesis examples fast; the golden
# dictionary structure is identical to the full-size one.
_GOLDEN = generate_golden_dictionary(num_samples=4000, num_repeats=1, seed=21)
_QUANTIZER = MokeyQuantizer(_GOLDEN)

finite_floats = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False, width=32
)


@st.composite
def value_arrays(draw, min_size=16, max_size=200):
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    values = draw(
        hnp.arrays(dtype=np.float64, shape=size, elements=finite_floats)
    )
    # Reject degenerate all-equal arrays (std = 0 has no meaningful dictionary).
    if np.std(values) < 1e-6:
        values = values + np.linspace(0, 1, size)
    return values


class TestQuantizationProperties:
    @given(values=value_arrays())
    @settings(max_examples=30, deadline=None)
    def test_round_trip_error_bounded_by_dictionary_resolution(self, values):
        q = _QUANTIZER.quantize(values, "t")
        recon = q.dequantize().astype(np.float64)
        dictionary = q.dictionary
        # Gaussian values are off by at most half the largest inter-centroid
        # gap (in tensor units) plus the fixed-point step; outliers by the
        # outlier dictionary resolution which is bounded by the value range.
        half = dictionary.gaussian_half * dictionary.std
        max_gap = np.max(np.diff(np.concatenate([[0.0], half])))
        gaussian_bound = max_gap + dictionary.fixed_point.scale + 1e-9
        errors = np.abs(recon - values)
        gaussian_mask = ~q.encoded.is_outlier.ravel()
        inside = np.abs(values - dictionary.mean) <= dictionary.threshold
        check = gaussian_mask & inside
        assert np.all(errors[check] <= gaussian_bound)

    @given(values=value_arrays())
    @settings(max_examples=30, deadline=None)
    def test_quantize_dequantize_idempotent(self, values):
        dictionary = _QUANTIZER.fit_dictionary("t", values)
        once = dictionary.quantize_dequantize(values)
        twice = dictionary.quantize_dequantize(once)
        assert np.allclose(once, twice, atol=2 * dictionary.fixed_point.scale)

    @given(values=value_arrays())
    @settings(max_examples=30, deadline=None)
    def test_outlier_fraction_between_zero_and_one(self, values):
        q = _QUANTIZER.quantize(values, "t")
        assert 0.0 <= q.outlier_fraction <= 1.0
        assert q.memory_bits() >= q.size * 4


class TestIndexComputeProperties:
    @given(
        values=st.tuples(value_arrays(min_size=8, max_size=64), st.integers(0, 2 ** 31 - 1))
    )
    @settings(max_examples=25, deadline=None)
    def test_index_domain_equals_decoded_dot(self, values):
        activations, seed = values
        rng = np.random.default_rng(seed)
        weights = rng.normal(0, 0.05, activations.size)
        aq = _QUANTIZER.quantize(activations, "a")
        wq = _QUANTIZER.quantize(weights, "w")
        result = index_domain_dot(aq, wq)
        a_dec = aq.dictionary.decode(aq.encoded, apply_fixed_point=False)
        w_dec = wq.dictionary.decode(wq.encoded, apply_fixed_point=False)
        reference = float(a_dec @ w_dec)
        assert result.value == pytest.approx(reference, rel=1e-8, abs=1e-8)


@st.composite
def tensors_with_outliers(draw):
    """A Gaussian core plus a few far values, so both dictionaries encode."""
    seed = draw(st.integers(0, 2**31 - 1))
    size = draw(st.integers(min_value=1, max_value=300))
    rng = np.random.default_rng(seed)
    values = rng.normal(draw(finite_floats), 1.0 + abs(draw(finite_floats)), size)
    spikes = rng.choice(size, draw(st.integers(0, max(1, size // 10))), replace=True)
    values[spikes] *= draw(st.floats(5.0, 200.0))
    return values


class TestEncodeProperties:
    @given(values=tensors_with_outliers(), narrow=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_encode_equals_full_array_formulas(self, values, narrow):
        # ``narrow`` encodes against a supplied dictionary profiled on a
        # tighter range, as activations are, so values land beyond it.
        dictionary = _QUANTIZER.fit_dictionary("t", values / 4.0 if narrow else values)
        encoded = dictionary.encode(values)
        centred = values - dictionary.mean
        if dictionary.has_outliers:
            is_outlier = np.abs(centred) > dictionary.threshold
            centroids = dictionary.outlier_centroids
            full = np.searchsorted((centroids[:-1] + centroids[1:]) / 2.0, values)
        else:
            is_outlier = np.zeros(values.shape, dtype=bool)
            full = np.zeros(values.shape, dtype=np.int8)
        halves = dictionary.gaussian_half
        normalised = np.abs(centred) / dictionary.std
        gaussian_index = np.searchsorted((halves[:-1] + halves[1:]) / 2.0, normalised)
        gaussian = ~is_outlier
        assert np.array_equal(encoded.is_outlier, is_outlier)
        # Outliers store no sign or Gaussian index (Fig. 5).
        assert np.array_equal(encoded.sign[gaussian], np.where(centred >= 0, 1, -1)[gaussian])
        assert np.array_equal(encoded.gaussian_index[gaussian], gaussian_index[gaussian])
        # Every stored bit: sign * G + index for Gaussian values, 2G + index
        # for outliers.
        g = halves.size
        expected = np.where(
            is_outlier, 2 * g + full, np.where(centred >= 0, 0, g) + gaussian_index
        )
        assert encoded.codes.dtype == np.uint8
        assert np.array_equal(encoded.codes, expected)


# Golden Dictionaries by their G, the number of Gaussian half entries.
_GOLDENS = {
    4: generate_golden_dictionary(num_entries=8, num_samples=4000, num_repeats=1, seed=21),
    8: _GOLDEN,
    16: generate_golden_dictionary(num_entries=32, num_samples=4000, num_repeats=1, seed=21),
}


def _arithmetic_decode(dictionary, encoded, fixed):
    """Decode by the per-field arithmetic: sign * half * std + mean, or
    the outlier centroid where the dictionary-select bit is set."""
    g = dictionary.gaussian_half.size
    codes = encoded.codes.astype(np.int64)
    is_outlier = codes >= 2 * g
    sign = np.where((codes >= g) & ~is_outlier, -1, 1).astype(np.int8)
    decoded = sign * dictionary.gaussian_half[codes % g] * dictionary.std + dictionary.mean
    if dictionary.has_outliers:
        outliers = dictionary.outlier_centroids[np.where(is_outlier, codes - 2 * g, 0)]
        decoded = np.where(is_outlier, outliers, decoded)
    return dictionary.fixed_point.quantize(decoded) if fixed else decoded


class TestDecodeProperties:
    @given(
        values=tensors_with_outliers(),
        half_entries=st.sampled_from(sorted(_GOLDENS)),
        dtype=st.sampled_from([np.float32, np.float64]),
        outlier_entries=st.sampled_from([0, 16]),
        transpose=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_lookup_equals_arithmetic_decode(
        self, values, half_entries, dtype, outlier_entries, transpose
    ):
        dictionary = TensorDictionary.fit(
            "t", _GOLDENS[half_entries], values=values, max_outlier_entries=outlier_entries
        )
        operand = values.astype(dtype)
        if transpose and operand.size % 2 == 0:
            operand = operand.reshape(2, -1).T
        encoded = dictionary.encode(operand)
        assert encoded.half_entries == half_entries
        assert encoded.shape == operand.shape
        for fixed in (True, False):
            ours = dictionary.decode(encoded, apply_fixed_point=fixed)
            assert ours.dtype == np.float64
            assert np.array_equal(ours, _arithmetic_decode(dictionary, encoded, fixed))


@st.composite
def operand_families(draw):
    """Operands of one family: mixed shapes and dtypes, transposed views
    (like the encoder's K slices) and 1-element operands, plus the
    profiled dictionary they share."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    shapes = draw(
        st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)), min_size=1, max_size=6)
    )
    operands = []
    for rows, cols in shapes:
        values = rng.normal(draw(finite_floats), 1.0 + abs(draw(finite_floats)), (rows, cols))
        values[rng.random((rows, cols)) < 0.1] *= 30.0
        values = values.astype(draw(st.sampled_from([np.float32, np.float64])))
        operands.append(values.T if draw(st.booleans()) else values)
    profile = rng.normal(0.0, 2.0, 256)
    profile[:8] *= 20.0
    return operands, _QUANTIZER.fit_dictionary("family", profile)


class TestFamilyEncodeProperties:
    @given(family=operand_families())
    @settings(max_examples=40, deadline=None)
    def test_family_codes_equal_per_operand_codes(self, family):
        operands, dictionary = family
        batched = _encode_family(_QUANTIZER, "family", operands, dictionary)
        assert len(batched) == len(operands)
        for operand, ours in zip(operands, batched):
            alone = _QUANTIZER.quantize(
                np.asarray(operand, dtype=np.float64), "family", dictionary=dictionary
            )
            assert ours.shape == alone.shape == operand.shape
            assert ours.dictionary is dictionary
            mine, theirs = ours.encoded.codes, alone.encoded.codes
            assert mine.dtype == theirs.dtype
            assert np.array_equal(mine, theirs)
            assert ours.encoded.half_entries == alone.encoded.half_entries

    @given(family=operand_families(), data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_non_finite_member_fails_in_one_line(self, family, data):
        operands, dictionary = family
        poisoned = data.draw(st.integers(0, len(operands) - 1))
        operands[poisoned] = operands[poisoned].copy()
        operands[poisoned].flat[0] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        with pytest.raises(ValueError, match="1 non-finite") as info:
            _encode_family(_QUANTIZER, "family", operands, dictionary)
        assert "\n" not in str(info.value)


@st.composite
def adversarial_gemms(draw):
    """``(kind, activations, weights, activation dictionary or None)``."""
    kind = draw(
        st.sampled_from(
            ["constant", "one-element", "subnormal", "huge-range", "all-outlier", "overflow"]
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    m, k, n = (1, 1, 1) if kind == "one-element" else draw(
        st.tuples(st.integers(1, 4), st.integers(1, 8), st.integers(1, 4))
    )
    weights = rng.normal(0.0, 0.5, (k, n))
    dictionary = None
    if kind == "constant":
        activations = np.full((m, k), draw(finite_floats))
    elif kind == "one-element":
        activations = np.array([[draw(finite_floats)]])
    elif kind == "subnormal":
        activations = rng.uniform(-1.0, 1.0, (m, k)) * 1e-310
    elif kind == "huge-range":
        magnitudes = 10.0 ** rng.uniform(-150.0, 150.0, (m, k))
        activations = rng.choice([-1.0, 1.0], (m, k)) * magnitudes
    elif kind == "all-outlier":
        # A dictionary profiled on a unit core whose samples held a few far
        # values; the tensor holds nothing but those far values.
        far = rng.choice([-1.0, 1.0], 6) * rng.uniform(20.0, 90.0, 6)
        dictionary = _QUANTIZER.fit_dictionary_from_stats(
            "profiled", 0.0, 1.0, -100.0, 100.0, samples=np.concatenate([far, [0.5]])
        )
        activations = rng.choice(far, (m, k))
    else:  # overflow: the sum or square behind the statistics exceeds float64
        activations = rng.choice([-1.0, 1.0], (m, k + 1)) * 1.5e308
        weights = rng.normal(0.0, 0.5, (k + 1, n))
    return kind, activations, weights, dictionary


class TestAdversarialTensorProperties:
    """Degenerate tensors through quantize -> encode -> index-domain GEMM."""

    @staticmethod
    def _error_bound(values, quantized):
        # 4-bit codes may miss a value by a few multiples of the tensor's
        # own magnitude, plus one step of its 16-bit outlier grid.
        magnitude = float(np.max(np.abs(values)))
        return 4.0 * magnitude + quantized.dictionary.fixed_point.scale

    @given(case=adversarial_gemms())
    @settings(max_examples=60, deadline=None)
    def test_index_matmul_tracks_fp_or_fails_in_one_line(self, case):
        kind, activations, weights, dictionary = case
        try:
            aq = _QUANTIZER.quantize(activations, "a", dictionary=dictionary)
            wq = _QUANTIZER.quantize(weights, "w")
            values, stats = index_domain_matmul(aq, wq)
        except ValueError as exc:
            message = str(exc)
            assert message and "\n" not in message
            assert kind == "overflow", f"{kind} tensor rejected: {message}"
            return
        assert kind != "overflow", "float64-overflowing statistics were accepted"
        assert np.isfinite(values).all()
        assert stats.total_pairs == activations.size * weights.shape[1]
        if kind == "all-outlier":
            assert aq.encoded.is_outlier.all()
        error_a = self._error_bound(activations, aq)
        error_w = self._error_bound(weights, wq)
        decoded = aq.dictionary.decode(aq.encoded, apply_fixed_point=False)
        assert np.all(np.abs(decoded.reshape(activations.shape) - activations) <= error_a)
        k = activations.shape[1]
        bound = k * (
            np.max(np.abs(activations)) * error_w
            + np.max(np.abs(weights)) * error_a
            + error_a * error_w
        )
        assert np.all(np.abs(values - activations @ weights) <= bound * (1 + 1e-9))

    @pytest.mark.parametrize(
        "activations",
        [
            # A falsifying huge-range draw: 9.57e93 decodes outside float32.
            np.array([[9.57e93, -2.4e-71, 3.1e12], [-6.6e40, 1.8e-140, -4.2e93]]),
            np.array([[1.5e-310, -2.0e-309, 7.0e-311], [3.3e-310, -1.1e-310, 2.2e-309]]),
        ],
        ids=["huge-range", "subnormal"],
    )
    def test_operand_outside_float32_keeps_float64_planes(self, activations):
        weights = np.random.default_rng(0).normal(0.0, 0.5, (3, 2))
        aq = _QUANTIZER.quantize(activations, "a")
        wq = _QUANTIZER.quantize(weights, "w")
        values, stats = index_domain_matmul(aq, wq)
        assert values.dtype == np.float64
        assert np.isfinite(values).all()
        assert stats.total_pairs == activations.size * weights.shape[1]
        engine = VectorizedIndexDomainEngine(aq.dictionary, wq.dictionary)
        assert engine._plane_set(aq, "lhs", aq.shape).dec.dtype == np.float64
        assert engine._plane_set(wq, "rhs", wq.shape).dec.dtype == np.float32
        error_a = self._error_bound(activations, aq)
        error_w = self._error_bound(weights, wq)
        bound = activations.shape[1] * (
            np.max(np.abs(activations)) * error_w
            + np.max(np.abs(weights)) * error_a
            + error_a * error_w
        )
        assert np.all(np.abs(values - activations @ weights) <= bound * (1 + 1e-9))


class TestMemoryLayoutProperties:
    @given(values=value_arrays(min_size=1, max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_offchip_container_lossless(self, values):
        encoded = _QUANTIZER.quantize(values, "t").encoded
        restored = unpack_offchip(pack_offchip(encoded))
        assert np.array_equal(restored.codes, encoded.codes.ravel())

    @given(values=value_arrays(min_size=1, max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_onchip_5bit_lossless(self, values):
        encoded = _QUANTIZER.quantize(values, "t").encoded
        restored = unpack_onchip_5bit(pack_onchip_5bit(encoded))
        assert np.array_equal(restored.codes, encoded.codes.ravel())


class TestFixedPointProperties:
    @given(
        minimum=st.floats(-1000, 999, allow_nan=False),
        span=st.floats(1e-3, 2000, allow_nan=False),
        bits=st.integers(4, 24),
    )
    @settings(max_examples=50, deadline=None)
    def test_format_always_valid(self, minimum, span, bits):
        fmt = FixedPointFormat.for_range(minimum, minimum + span, total_bits=bits)
        assert fmt.total_bits == bits
        assert fmt.scale > 0

    @given(
        values=hnp.arrays(
            dtype=np.float64, shape=50, elements=st.floats(-3.99, 3.99, allow_nan=False)
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_quantize_error_within_half_lsb(self, values):
        # Values strictly inside the representable range (the positive end of
        # the range itself is clipped by one LSB in two's-complement formats).
        fmt = FixedPointFormat.for_range(-4, 4, 16)
        assert np.max(np.abs(fmt.quantize(values) - values)) <= fmt.scale / 2 + 1e-12


class TestMetricProperties:
    @given(
        x=hnp.arrays(dtype=np.float64, shape=20, elements=st.floats(-100, 100, allow_nan=False)),
    )
    @settings(max_examples=50, deadline=None)
    def test_spearman_bounded(self, x):
        y = np.linspace(0, 1, x.size)
        value = spearman_correlation(x, y)
        assert -100.0 - 1e-9 <= value <= 100.0 + 1e-9

    @given(
        x=hnp.arrays(dtype=np.float64, shape=20, elements=st.floats(-100, 100, allow_nan=False)),
    )
    @settings(max_examples=30, deadline=None)
    def test_spearman_symmetric(self, x):
        y = np.sin(x)
        assert spearman_correlation(x, y) == pytest.approx(spearman_correlation(y, x), abs=1e-9)
