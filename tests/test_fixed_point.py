"""Tests for the fixed-point conversion (paper Eq. 7-8)."""

import numpy as np
import pytest

from repro.core.fixed_point import FixedPointFormat, quantization_step, to_fixed_point


class TestFormatDerivation:
    def test_equation_seven(self):
        # frac = b - ceil(log2(max - min)); range 6.0 -> ceil(log2 6) = 3.
        fmt = FixedPointFormat.for_range(-3.0, 3.0, total_bits=16)
        assert fmt.frac_bits == 13

    def test_one_sided_range_still_representable(self):
        # [0, 1] needs one integer bit in a signed format.
        fmt = FixedPointFormat.for_range(0.0, 1.0, total_bits=16)
        assert fmt.frac_bits == 15
        assert fmt.max_magnitude >= 0.999

    def test_degenerate_zero_range_keeps_all_fraction_bits(self):
        fmt = FixedPointFormat.for_range(0.0, 0.0, total_bits=16)
        assert fmt.frac_bits == 16

    def test_degenerate_nonzero_range_representable(self):
        fmt = FixedPointFormat.for_range(2.0, 2.0, total_bits=16)
        assert fmt.quantize(np.array([2.0]))[0] == pytest.approx(2.0, abs=fmt.scale)

    def test_subnormal_range_keeps_a_finite_scale(self):
        # Eq. 7 asks for 1044 fractional bits here; 2**1044 overflows float64.
        fmt = FixedPointFormat.for_range(1e-310, 2e-310, total_bits=16)
        assert fmt.frac_bits == 1023
        assert np.isfinite(fmt.quantize(np.array([1e-310, 2e-310]))).all()

    def test_range_near_float_max_is_representable(self):
        fmt = FixedPointFormat.for_range(-1.7e308, 1.7e308, total_bits=16)
        assert np.isfinite(fmt.max_magnitude) and fmt.max_magnitude >= 1.7e308

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            FixedPointFormat.for_range(1.0, 0.0)

    def test_scale_is_two_to_minus_frac(self):
        fmt = FixedPointFormat(total_bits=16, frac_bits=13)
        assert fmt.scale == pytest.approx(2 ** -13)


class TestQuantize:
    def test_round_trip_error_bounded_by_half_step(self, rng):
        values = rng.uniform(-3, 3, 1000)
        fmt = FixedPointFormat.for_range(-3, 3, 16)
        quantized = fmt.quantize(values)
        assert np.max(np.abs(quantized - values)) <= fmt.scale / 2 + 1e-12

    def test_equation_eight_matches_definition(self):
        fmt = FixedPointFormat(total_bits=16, frac_bits=8)
        values = np.array([0.1234, -1.762, 3.0])
        expected = np.round(values * 2 ** 8) / 2 ** 8
        assert np.allclose(fmt.quantize(values), expected)

    def test_idempotent(self, rng):
        fmt = FixedPointFormat.for_range(-2, 2, 16)
        values = rng.normal(0, 1, 100)
        once = fmt.quantize(values)
        twice = fmt.quantize(once)
        assert np.array_equal(once, twice)

    def test_int_round_trip(self, rng):
        fmt = FixedPointFormat.for_range(-4, 4, 16)
        values = fmt.quantize(rng.normal(0, 1, 100))
        ints = fmt.to_int(values)
        assert np.allclose(fmt.from_int(ints), values)

    def test_to_int_clips_to_width(self):
        fmt = FixedPointFormat(total_bits=8, frac_bits=4)
        ints = fmt.to_int(np.array([100.0, -100.0]))
        assert ints.max() <= 127
        assert ints.min() >= -128

    def test_quantization_error_helper(self, rng):
        fmt = FixedPointFormat.for_range(-1, 1, 12)
        values = rng.uniform(-1, 1, 50)
        assert fmt.quantization_error(values) <= fmt.scale / 2 + 1e-12


class TestHelpers:
    def test_quantization_step(self):
        assert quantization_step(-3, 3, 16) == pytest.approx(2 ** -13)

    def test_to_fixed_point_one_shot(self, rng):
        values = rng.normal(0, 1, 64)
        direct = to_fixed_point(values, -4, 4, 16)
        fmt = FixedPointFormat.for_range(-4, 4, 16)
        assert np.allclose(direct, fmt.quantize(values))

    def test_16bit_step_is_small_relative_to_transformer_ranges(self):
        # Transformer tensors span a few units; 16-bit fixed point resolves
        # them to ~1e-4, far finer than the 4-bit dictionary spacing.
        assert quantization_step(-8, 8, 16) < 1e-3
