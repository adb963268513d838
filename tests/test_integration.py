"""End-to-end integration tests across the library layers.

These tests tie the pieces together the way the paper's evaluation does:
quantize a model with Mokey, check fidelity against the FP baseline,
verify the quantized tensors survive the off-chip memory container, and
confirm the accelerator-level conclusions follow from the same artefacts.
"""

import numpy as np
import pytest

from conftest import Float64Engine

from repro.accelerator.simulator import AcceleratorSimulator
from repro.accelerator.mokey_accel import mokey_design
from repro.accelerator.tensor_cores import tensor_cores_design
from repro.accelerator.workloads import model_workload
from repro.core.index_compute import index_domain_matmul
from repro.core.model_quantizer import MokeyModelQuantizer, QuantizationMode
from repro.memory.layout import pack_offchip, unpack_offchip
from repro.transformer.model_zoo import build_simulation_model
from repro.transformer.tasks import evaluate, generate_inputs, label_with_model


class TestEndToEndQuantizedInference:
    @pytest.fixture(scope="class")
    def pipeline(self, golden):
        model = build_simulation_model("bert-base", task="mnli", scale=16, max_layers=2, seed=8)
        inputs = generate_inputs(model.config.vocab_size, 24, 20, "classification", seed=13)
        dataset = label_with_model(model, inputs)
        quantizer = MokeyModelQuantizer(golden)
        bundle = quantizer.quantize(
            model,
            mode=QuantizationMode.WEIGHTS_AND_ACTIVATIONS,
            profiling_dataset=dataset.subset(np.arange(8)),
        )
        return model, dataset, bundle

    def test_quantized_model_tracks_fp_model(self, pipeline):
        model, dataset, bundle = pipeline
        fp_score = evaluate(model, dataset)
        weight_only_score = evaluate(bundle.model, dataset)
        full_score = evaluate(bundle.model, dataset, hook=bundle.activation_hook())
        assert fp_score == pytest.approx(100.0)
        assert weight_only_score >= 70.0
        assert full_score >= 60.0

    def test_outlier_fractions_in_expected_ranges(self, pipeline):
        _, dataset, bundle = pipeline
        hook = bundle.activation_hook()
        evaluate(bundle.model, dataset, hook=hook)
        assert 0.001 < bundle.report.weight_outlier_fraction < 0.06
        assert hook.outlier_fraction < 0.25

    def test_quantized_weights_survive_memory_container(self, pipeline):
        _, _, bundle = pipeline
        name, quantized = next(iter(bundle.quantized_weights.items()))
        container = pack_offchip(quantized.encoded)
        restored = unpack_offchip(container)
        # Rebuild a QuantizedTensor from the unpacked stream and compare the
        # dequantized values against the original reconstruction.
        from repro.core.quantizer import QuantizedTensor

        rebuilt = QuantizedTensor(
            name=name,
            shape=(quantized.size,),
            encoded=restored,
            dictionary=quantized.dictionary,
        )
        assert np.allclose(
            rebuilt.dequantize(), quantized.dequantize().reshape(-1), atol=1e-6
        )

    def test_layer_matmul_in_index_domain_matches_dequantized_layer(self, pipeline, golden):
        """A real layer's GEMM computed purely on indexes matches decoding."""
        from repro.core.quantizer import MokeyQuantizer

        model, dataset, bundle = pipeline
        quantizer = MokeyQuantizer(golden)
        weight = model.weight_matrices()["encoder.0.attention.query.weight"][:24, :6]
        activations = np.asarray(
            model.embeddings(dataset.token_ids[:1, :8], dataset.segment_ids[:1, :8])
        )[0, :, :24]
        aq = quantizer.quantize(activations, "act")
        wq = quantizer.quantize(weight, "w")
        result, stats = index_domain_matmul(aq, wq, engine=Float64Engine)
        a_dec = aq.dictionary.decode(aq.encoded, apply_fixed_point=False).reshape(activations.shape)
        w_dec = wq.dictionary.decode(wq.encoded, apply_fixed_point=False).reshape(weight.shape)
        assert np.allclose(result, a_dec @ w_dec, rtol=1e-8, atol=1e-8)
        assert stats.total_pairs == activations.shape[0] * 24 * 6


class TestEndToEndAcceleratorStory:
    def test_headline_claims_hold_together(self):
        """The paper's headline: Mokey is faster and far more energy
        efficient than the FP16 baseline, with a smaller chip, across
        buffer sizes — and the advantage is largest when buffers are small."""
        wl = model_workload("bert-large", "squad")
        tc = AcceleratorSimulator(tensor_cores_design())
        mk = AcceleratorSimulator(mokey_design())
        small_tc, small_mk = tc.simulate(wl, 256 * 1024), mk.simulate(wl, 256 * 1024)
        large_tc, large_mk = tc.simulate(wl, 4 << 20), mk.simulate(wl, 4 << 20)

        assert small_mk.speedup_over(small_tc) > 2.0
        assert large_mk.speedup_over(large_tc) > 1.0
        assert small_mk.speedup_over(small_tc) > large_mk.speedup_over(large_tc)
        assert small_mk.energy_efficiency_over(small_tc) > 2.0
        assert small_mk.area.total < small_tc.area.total
        assert small_mk.traffic_bytes < small_tc.traffic_bytes / 2
