"""Tests for Golden Dictionary generation (paper Step 1, Fig. 2)."""

import numpy as np
import pytest

from repro.core.golden_dictionary import GoldenDictionary, generate_golden_dictionary


class TestGeneration:
    def test_default_half_size_is_eight(self, golden):
        assert golden.num_half_entries == 8
        assert golden.num_entries == 16

    def test_bits_per_value_is_four(self, golden):
        assert golden.index_bits == 3
        assert golden.bits_per_value == 4

    def test_half_is_positive_and_increasing(self, golden):
        assert np.all(golden.half > 0)
        assert np.all(np.diff(golden.half) > 0)

    def test_full_dictionary_is_symmetric(self, golden):
        full = golden.full()
        assert full.size == 16
        assert np.allclose(full, -full[::-1])

    def test_innermost_centroid_near_zero(self, golden):
        """Ward clustering of N(0,1) puts the first centroid close to zero."""
        assert golden.half[0] < 0.3

    def test_outermost_centroid_in_tail(self, golden):
        assert 1.8 < golden.half[-1] < 3.5

    def test_threshold_beyond_last_centroid(self, golden):
        assert golden.gaussian_threshold() > golden.half[-1]

    def test_generation_is_deterministic(self):
        a = generate_golden_dictionary(num_samples=4000, num_repeats=1, seed=5)
        b = generate_golden_dictionary(num_samples=4000, num_repeats=1, seed=5)
        assert np.allclose(a.half, b.half)

    def test_default_dictionary_is_pinned(self):
        """The default build every MokeyQuantizer() uses, bit for bit."""
        expected = [
            "0x1.beef3b9fb265bp-4", "0x1.6ea9b26ff5dafp-2",
            "0x1.4f2abd266cd71p-1", "0x1.e91f7252e764ap-1",
            "0x1.45c153cb23942p+0", "0x1.a971f9a806b03p+0",
            "0x1.113777883bbecp+1", "0x1.67b7f644d0958p+1",
        ]
        assert [float(x).hex() for x in generate_golden_dictionary().half] == expected

    def test_different_seed_changes_little(self):
        """The Golden Dictionary is stable across generated distributions.

        Individual centroids move a little between random draws (Ward merges
        near the tail are data dependent) but the fitted exponential — which
        is what the datapath actually uses — stays put.
        """
        a = generate_golden_dictionary(num_samples=8000, num_repeats=1, seed=1)
        b = generate_golden_dictionary(num_samples=8000, num_repeats=1, seed=2)
        assert a.fit.a == pytest.approx(b.fit.a, abs=0.06)
        assert a.fit.b == pytest.approx(b.fit.b, abs=0.15)
        assert np.allclose(a.half, b.half, rtol=0.4, atol=0.2)

    def test_odd_entry_count_rejected(self):
        with pytest.raises(ValueError):
            generate_golden_dictionary(num_entries=15, num_samples=1000)

    def test_zero_repeats_rejected(self):
        with pytest.raises(ValueError):
            generate_golden_dictionary(num_repeats=0, num_samples=1000)

    def test_eight_entry_dictionary(self):
        gd = generate_golden_dictionary(num_entries=8, num_samples=4000, num_repeats=1)
        assert gd.num_half_entries == 4
        assert gd.bits_per_value == 3


class TestExponentialView:
    def test_fit_attached(self, golden):
        assert golden.fit.num_entries == golden.num_half_entries
        assert golden.fit.a > 1.0

    def test_paper_fit_ballpark(self, golden):
        """The fitted curve should be in the neighbourhood of the paper's
        a=1.179, b=-0.977 (our clustering is not bit-identical to
        SciKit-Learn's, so the tolerance is wide)."""
        assert 1.1 < golden.fit.a < 1.35
        assert -1.2 < golden.fit.b < -0.6

    def test_exponential_half_close_to_clustered_half(self, golden):
        error = np.abs(golden.exponential_half() - golden.half)
        # The inner (heavily weighted) bins must fit tightly.
        assert error[0] < 0.1
        assert error[:4].max() < 0.2

    def test_stored_half_exponential_vs_raw(self, golden):
        assert np.allclose(golden.stored_half(True), golden.fit.magnitudes())
        assert np.allclose(golden.stored_half(False), golden.half, atol=golden.fixed_point.scale)


class TestValidation:
    def test_rejects_negative_half(self, golden):
        with pytest.raises(ValueError):
            GoldenDictionary(
                half=np.array([-0.1, 0.5, 1.0]),
                fit=golden.fit,
                fixed_point=golden.fixed_point,
            )

    def test_rejects_non_increasing_half(self, golden):
        with pytest.raises(ValueError):
            GoldenDictionary(
                half=np.array([0.5, 0.5, 1.0]),
                fit=golden.fit,
                fixed_point=golden.fixed_point,
            )
