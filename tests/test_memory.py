"""Tests for the memory subpackage: layout, compression, DRAM and SRAM."""

import numpy as np
import pytest

from repro.core.golden_dictionary import generate_golden_dictionary
from repro.core.quantizer import MokeyQuantizer
from repro.memory.compression import (
    FootprintBreakdown,
    method_footprint,
    model_memory_footprint,
    mokey_stream_bits,
)
from repro.memory.dram import DramModel
from repro.memory.layout import (
    GROUP_SIZE,
    pack_offchip,
    pack_onchip_5bit,
    unpack_offchip,
    unpack_onchip_5bit,
)
from repro.memory.sram import SramBuffer
from repro.transformer.model_zoo import bert_base, bert_large


def _encode(quantizer, rng, n=500, outliers=0.05):
    values = rng.normal(0, 1, n)
    k = max(1, int(n * outliers))
    values[rng.choice(n, k, replace=False)] = rng.choice([-1, 1], k) * 20.0
    q = quantizer.quantize(values, "t")
    return q.encoded


class TestOffchipLayout:
    def test_round_trip_is_lossless(self, quantizer, rng):
        encoded = _encode(quantizer, rng)
        container = pack_offchip(encoded)
        restored = unpack_offchip(container)
        assert np.array_equal(restored.codes, encoded.codes.ravel())

    def test_value_stream_is_half_a_byte_per_value(self, quantizer, rng):
        encoded = _encode(quantizer, rng, n=640)
        container = pack_offchip(encoded)
        assert container.value_bits == 640 * 4
        assert container.value_stream.size == 320

    def test_pointer_bits_formula(self, quantizer, rng):
        encoded = _encode(quantizer, rng, n=640)
        container = pack_offchip(encoded)
        groups = int(np.ceil(640 / GROUP_SIZE))
        expected = groups * 6 + int(encoded.is_outlier.sum()) * 6
        assert container.pointer_bits == expected

    def test_compression_ratio_close_to_4x_vs_fp16(self, quantizer, rng):
        encoded = _encode(quantizer, rng, n=20_000, outliers=0.02)
        container = pack_offchip(encoded)
        assert 3.3 < container.compression_ratio(16) < 4.0

    def test_odd_length_tensor(self, quantizer, rng):
        encoded = _encode(quantizer, rng, n=333)
        container = pack_offchip(encoded)
        restored = unpack_offchip(container)
        assert restored.is_outlier.size == 333

    def test_no_outliers(self, quantizer, rng):
        values = np.clip(rng.normal(0, 1, 128), -2, 2)
        encoded = quantizer.quantize(values, "t").encoded
        container = pack_offchip(encoded)
        restored = unpack_offchip(container)
        assert not restored.is_outlier.any()


class TestOnchipLayout:
    def test_round_trip(self, quantizer, rng):
        encoded = _encode(quantizer, rng)
        packed = pack_onchip_5bit(encoded)
        restored = unpack_onchip_5bit(packed)
        assert np.array_equal(restored.codes, encoded.codes.ravel())

    def test_one_byte_per_value_staging(self, quantizer, rng):
        encoded = _encode(quantizer, rng, n=100)
        assert pack_onchip_5bit(encoded).size == 100


class TestLayoutHalfEntries:
    """The Fig. 5 layout has a 3-bit Gaussian index: any other half size
    must be refused, not silently corrupted."""

    @pytest.mark.parametrize("pack", [pack_offchip, pack_onchip_5bit])
    def test_sixteen_half_entries_fail_in_one_line(self, pack, rng):
        golden = generate_golden_dictionary(
            num_entries=32, num_samples=4000, num_repeats=1, seed=3
        )
        encoded = MokeyQuantizer(golden).quantize(rng.normal(0, 1, 256), "t").encoded
        with pytest.raises(ValueError, match="16 half entries") as info:
            pack(encoded)
        assert "\n" not in str(info.value)


class TestCompressionAccounting:
    def test_mokey_stream_bits_matches_container(self, quantizer, rng):
        encoded = _encode(quantizer, rng, n=2000, outliers=0.03)
        container = pack_offchip(encoded)
        estimate = mokey_stream_bits(2000, float(encoded.is_outlier.mean()))
        assert estimate == pytest.approx(container.total_bits, rel=0.02)

    def test_zero_values(self):
        assert mokey_stream_bits(0, 0.0) == 0.0

    def test_footprint_activation_share_grows_with_sequence(self):
        cfg = bert_large()
        short = model_memory_footprint(cfg, 128, 16, 16)
        long = model_memory_footprint(cfg, 2048, 16, 16)
        assert long.activation_share > short.activation_share
        assert long.activation_share > 0.5

    def test_method_footprint_compression_ratios_match_table_iv_ordering(self):
        cfg = bert_base()
        fp32 = method_footprint(cfg, 128, 32, 32, "FP32")
        q8 = method_footprint(cfg, 128, 8, 8, "Q8BERT")
        mokey = method_footprint(cfg, 128, 4.4, 4.4, "Mokey")
        ternary = method_footprint(cfg, 128, 2, 8, "TernaryBERT")
        assert q8.compression_ratio(fp32) == pytest.approx(4.0, rel=0.01)
        assert 6.5 < mokey.compression_ratio(fp32) < 8.0
        assert ternary.compression_ratio(fp32) > mokey.compression_ratio(fp32)

    def test_breakdown_unit_conversions(self):
        breakdown = FootprintBreakdown(weight_bits=8 * 2 ** 20 * 8, activation_bits=0, label="x")
        assert breakdown.total_mb == pytest.approx(8.0)
        assert breakdown.weight_mb == pytest.approx(8.0)


class TestDram:
    def test_peak_bandwidth(self):
        dram = DramModel()
        assert dram.peak_bandwidth_bytes_per_second == pytest.approx(51.2e9)

    def test_transfer_cycles_scale_linearly(self):
        dram = DramModel()
        one = dram.transfer_cycles(1 << 20)
        four = dram.transfer_cycles(4 << 20)
        assert four == pytest.approx(4 * one, rel=0.01)

    def test_burst_granularity_rounding(self):
        dram = DramModel()
        assert dram.transfer_bytes(1) == 64
        assert dram.transfer_bytes(65) == 128
        assert dram.transfer_bytes(0) == 0

    def test_energy_proportional_to_traffic(self):
        dram = DramModel()
        assert dram.transfer_energy_joules(2 << 20) == pytest.approx(
            2 * dram.transfer_energy_joules(1 << 20), rel=0.01
        )


class TestSram:
    def test_area_grows_with_capacity(self):
        small = SramBuffer(256 * 1024, 16)
        large = SramBuffer(4 * 1024 * 1024, 16)
        assert large.area_mm2 > small.area_mm2

    def test_narrow_interface_buffer_is_smaller(self):
        wide = SramBuffer(1024 * 1024, 16)
        narrow = SramBuffer(1024 * 1024, 5)
        assert narrow.area_mm2 < wide.area_mm2

    def test_paper_area_relation_mokey_1mb_close_to_tc_256kb(self):
        """Table III: Mokey's 1MB buffer area is comparable to TC's 256KB."""
        tc_256 = SramBuffer(256 * 1024, 16).area_mm2
        mokey_1mb = SramBuffer(1024 * 1024, 5).area_mm2
        assert mokey_1mb == pytest.approx(tc_256, rel=0.35)

    def test_access_energy_positive_and_linear(self):
        buffer = SramBuffer(512 * 1024, 16)
        assert buffer.read_energy_joules(1e6) > 0
        assert buffer.write_energy_joules(2e6) == pytest.approx(
            2 * buffer.write_energy_joules(1e6)
        )

    def test_effective_value_capacity(self):
        buffer = SramBuffer(1024, 16)
        assert buffer.effective_value_capacity(16) == 512
        assert buffer.effective_value_capacity(5) == 1638
        with pytest.raises(ValueError):
            buffer.effective_value_capacity(0)
