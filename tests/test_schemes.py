"""Tests for the quantization-scheme registry and the staged simulator.

The parity constants below were captured from the pre-refactor simulator
(string-datapath dispatch) on fixed workloads; the scheme-dispatching
simulator must reproduce them bit-for-bit.
"""

import numpy as np
import pytest

from repro.accelerator.compression_modes import CompressionMode, tensor_cores_with_mokey_compression
from repro.accelerator.designs import AcceleratorDesign, DEFAULT_REGISTER_REUSE
from repro.accelerator.gobo_accel import gobo_design
from repro.accelerator.mokey_accel import mokey_design
from repro.accelerator.simulator import (
    AcceleratorSimulator,
    MemoryModel,
    OverlapModel,
    OverlapParameters,
)
from repro.accelerator.tensor_cores import tensor_cores_design
from repro.accelerator.workloads import model_workload
from repro.baselines import ALL_BASELINES
from repro.schemes import SCHEMES, ComputePhase, QuantizationScheme

KB = 1024


def _designs():
    return {
        "tensor-cores": tensor_cores_design(),
        "gobo": gobo_design(),
        "mokey": mokey_design(),
        "oc": tensor_cores_with_mokey_compression(CompressionMode.OFF_CHIP),
        "oc+on": tensor_cores_with_mokey_compression(CompressionMode.OFF_CHIP_AND_ON_CHIP),
    }


# (compute_cycles, memory_cycles, total_cycles, traffic_bytes,
#  energy.dram, energy.sram, energy.compute) at a 512KB buffer, captured
# from the pre-refactor simulator.
PARITY_GOLDENS = {
    ("bert-base/mnli/seq128", "tensor-cores"): (
        5455872.0, 16672581.818181815, 19473262.778181814, 469499904.0,
        0.05633998848, 0.00084915781632, 0.07262856806399999,
    ),
    ("bert-base/mnli/seq128", "gobo"): (
        4364697.6, 4679236.363636363, 6919781.1316363625, 131766681.60000001,
        0.01581207552, 0.0005009870684160001, 0.0726667886592,
    ),
    ("bert-base/mnli/seq128", "mokey"): (
        3592541.6755200005, 2833936.3636363633, 3883492.475520001, 79803187.19999999,
        0.009576437759999999, 0.00026536181760000005, 0.028822715938897916,
    ),
    ("bert-base/mnli/seq128", "oc"): (
        5455872.0, 4584981.818181817, 7809496.0, 129112473.60000001,
        0.01549357056, 0.00084915781632, 0.0726986391552,
    ),
    ("bert-base/mnli/seq128", "oc+on"): (
        5455872.0, 2833936.3636363633, 5746822.800000001, 79803187.19999999,
        0.009576437759999999, 0.00026536181760000005, 0.0726986391552,
    ),
    ("bert-large/squad/seq384", "tensor-cores"): (
        60162048.0, 166893381.8181818, 207001413.8181818, 4699717632.0,
        0.56396611584, 0.00899778871296, 0.800877182976,
    ),
    ("bert-large/squad/seq384", "gobo"): (
        48129638.400000006, 50000999.99999999, 82087425.6, 1408027852.8000002,
        0.16896337919999999, 0.005440574324736, 0.8010130784256,
    ),
    ("bert-large/squad/seq384", "mokey"): (
        39615054.15168001, 21934090.909090906, 52629281.42440727, 617663692.8000001,
        0.07411968, 0.0028118089728, 0.3173687411657933,
    ),
    ("bert-large/squad/seq384", "oc"): (
        60162048.0, 45895690.90909091, 90759175.27272727, 1292422348.8000002,
        0.15509071872, 0.00899778871296, 0.8013528170495999,
    ),
    ("bert-large/squad/seq384", "oc+on"): (
        60162048.0, 21934090.909090906, 73176275.27272728, 617663692.8000001,
        0.07411968, 0.0028118089728, 0.8013528170495999,
    ),
}


class TestRegistry:
    def test_builtin_schemes_registered(self):
        names = SCHEMES.names()
        for expected in ("fp16", "gobo", "mokey", "mokey-oc", "mokey-oc+on",
                         "q8bert", "ibert", "qbert", "ternarybert"):
            assert expected in names

    def test_lookup_returns_singleton(self):
        assert SCHEMES.get("mokey") is SCHEMES.get("mokey")

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            SCHEMES.get("tpu")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            SCHEMES.register("fp16", SCHEMES.get("fp16"))

    def test_invalid_design_datapath_still_rejected(self):
        with pytest.raises(ValueError):
            AcceleratorDesign(name="x", datapath="tpu", num_units=8, unit_area_mm2=0.01)

    def test_design_resolves_its_scheme(self):
        assert mokey_design().scheme() is SCHEMES.get("mokey")
        assert tensor_cores_design().scheme() is SCHEMES.get("fp16")


class TestParity:
    @pytest.mark.parametrize("workload_name,design_key", sorted(PARITY_GOLDENS))
    def test_scheme_dispatch_matches_prerefactor_outputs(self, workload_name, design_key):
        model, task, _ = workload_name.split("/")
        workload = model_workload(model, task)
        result = AcceleratorSimulator(_designs()[design_key]).simulate(workload, 512 * KB)
        golden = PARITY_GOLDENS[(workload_name, design_key)]
        got = (
            result.compute_cycles,
            result.memory_cycles,
            result.total_cycles,
            result.traffic_bytes,
            result.energy.dram,
            result.energy.sram,
            result.energy.compute,
        )
        for value, expected in zip(got, golden):
            assert value == pytest.approx(expected, rel=1e-12)


class TestSchemeNumerics:
    def test_fp16_identity(self):
        values = np.linspace(-1, 1, 32)
        assert np.array_equal(SCHEMES.get("fp16").quantize_dequantize(values), values)

    def test_gobo_reduces_unique_values(self):
        rng = np.random.default_rng(0)
        values = rng.normal(0, 1, 4096)
        recon = SCHEMES.get("gobo").quantize_dequantize(values)
        assert recon.shape == values.shape
        # 8 centroids + a handful of FP32 outliers.
        assert np.unique(recon).size < 64

    def test_ternary_three_levels(self):
        rng = np.random.default_rng(1)
        values = rng.normal(0, 1, 1024)
        recon = SCHEMES.get("ternarybert").quantize_dequantize(values)
        assert np.unique(recon).size <= 3

    def test_q8bert_reduces_error_vs_ternary(self):
        rng = np.random.default_rng(2)
        values = rng.normal(0, 1, 1024)
        err8 = np.abs(SCHEMES.get("q8bert").quantize_dequantize(values) - values).mean()
        err2 = np.abs(SCHEMES.get("ternarybert").quantize_dequantize(values) - values).mean()
        assert err8 < err2

    def test_baseline_classes_declare_registered_schemes(self):
        for cls in ALL_BASELINES:
            instance = cls()
            scheme = instance.as_scheme()
            assert scheme is SCHEMES.get(cls.scheme_name)


class TestExtension:
    def test_new_scheme_needs_only_registration(self):
        class Int8TestScheme(QuantizationScheme):
            name = "test-int8"
            weight_bits = 8.0
            activation_bits = 8.0

            def layer_compute(self, workload, design):
                macs = float(sum(g.macs for g in workload.layer_gemms))
                return ComputePhase(
                    cycles=macs / design.peak_macs_per_cycle,
                    energy_joules=macs * design.energies.int16_mac * 0.5 * 1e-12,
                )

        SCHEMES.register("test-int8", Int8TestScheme())
        try:
            design = AcceleratorDesign(
                name="test-int8",
                datapath="test-int8",
                num_units=2048,
                unit_area_mm2=0.005,
                weight_bits_offchip=8.0,
                activation_bits_offchip=8.0,
                weight_bits_onchip=8.0,
                activation_bits_onchip=8.0,
                buffer_interface_bits=8,
            )
            result = AcceleratorSimulator(design).simulate(
                model_workload("bert-base", "mnli"), 512 * KB
            )
        finally:
            # Left registered, the scheme would join the golden grid of any
            # test that runs later.
            SCHEMES._entries.pop("test-int8")
        assert result.compute_cycles > 0
        assert result.energy.total > 0

    def test_with_scheme_adopts_storage_defaults(self):
        variant = tensor_cores_design().with_scheme("mokey")
        assert variant.datapath == "mokey"
        assert variant.weight_bits_offchip == pytest.approx(4.4)
        assert variant.buffer_interface_bits == 5
        assert variant.num_units == tensor_cores_design().num_units
        # Scheme-coupled outlier rates come along too (the Tensor-Cores base
        # has 0/0, which would silently disable Mokey's OPP path).
        assert variant.weight_outlier_fraction == pytest.approx(0.015)
        assert variant.activation_outlier_fraction == pytest.approx(0.045)

    def test_compression_designs_match_scheme_storage(self):
        for mode, scheme_name in (
            (CompressionMode.OFF_CHIP, "mokey-oc"),
            (CompressionMode.OFF_CHIP_AND_ON_CHIP, "mokey-oc+on"),
        ):
            design = tensor_cores_with_mokey_compression(mode)
            storage = SCHEMES.get(scheme_name).storage()
            assert design.datapath == scheme_name
            assert design.weight_bits_offchip == storage.weight_bits_offchip
            assert design.weight_bits_onchip == storage.weight_bits_onchip
            assert design.buffer_interface_bits == storage.buffer_interface_bits
            assert design.decompression_lut == storage.decompression_lut


class TestEngineParameters:
    def test_register_reuse_default_and_effect(self):
        from dataclasses import replace

        design = tensor_cores_design()
        assert design.register_reuse == DEFAULT_REGISTER_REUSE
        workload = model_workload("bert-base", "mnli")
        low_reuse = AcceleratorSimulator(
            replace(design, register_reuse=4.0)
        ).simulate(workload, 512 * KB)
        base = AcceleratorSimulator(design).simulate(workload, 512 * KB)
        # Less register reuse means more buffer reads, hence more SRAM energy.
        assert low_reuse.energy.sram > base.energy.sram

    def test_invalid_register_reuse_rejected(self):
        from dataclasses import replace

        with pytest.raises(ValueError):
            replace(tensor_cores_design(), register_reuse=0.0)

    def test_overlap_parameters_defaults_match_legacy_constants(self):
        params = OverlapParameters()
        assert params.max_efficiency == 0.98
        assert params.min_efficiency == 0.25
        assert params.base_efficiency == 0.3
        assert params.residency_slope == 0.7

    def test_custom_overlap_model_changes_totals(self):
        workload = model_workload("bert-large", "squad")
        design = tensor_cores_design()
        base = AcceleratorSimulator(design).simulate(workload, 256 * KB)
        no_overlap = AcceleratorSimulator(
            design,
            overlap=OverlapModel(OverlapParameters(
                max_efficiency=0.0, min_efficiency=0.0,
                base_efficiency=0.0, residency_slope=0.0,
            )),
        ).simulate(workload, 256 * KB)
        assert no_overlap.total_cycles == pytest.approx(
            no_overlap.compute_cycles + no_overlap.memory_cycles
        )
        assert no_overlap.total_cycles > base.total_cycles

    def test_memory_model_dram_accessor(self):
        sim = AcceleratorSimulator(tensor_cores_design())
        assert sim.dram is sim.memory.dram
        assert isinstance(sim.memory, MemoryModel)
