"""Parity tests for the optional torch index-domain engine.

The torch backend replaces only the one decoded-operand GEMM
(``einsum``); the integer statistics are computed from the NumPy masks
in the shared base class, so against the NumPy oracle the contract is:

* **identical** :class:`~repro.core.index_compute.IndexComputeStats`
  (not approximately — by construction), and
* values equal to floating-point round-off.

The whole module skips cleanly when torch is not installed (it is an
optional dependency; CI exercises this file in a dedicated matrix leg).
"""

import numpy as np
import pytest

torch = pytest.importorskip("torch")

from repro.core.index_compute import (  # noqa: E402
    TorchIndexDomainEngine,
    VectorizedIndexDomainEngine,
    index_domain_matmul,
    index_domain_matmul_many,
)
from repro.transformer.config import TransformerConfig  # noqa: E402
from repro.transformer.index_model import execute_decoder, execute_model  # noqa: E402

NANO_CONFIG = TransformerConfig(
    name="bert-nano-torch-test",
    num_layers=2,
    hidden_size=32,
    num_heads=4,
    intermediate_size=64,
    vocab_size=128,
    max_position_embeddings=64,
)


def _operands(quantizer, rng, m, k, n, tag):
    activations = rng.normal(0.4, 1.5, (m, k))
    activations.ravel()[rng.choice(m * k, max(1, (m * k) // 40), replace=False)] = 25.0
    weights = rng.normal(0.0, 0.03, (k, n))
    return (
        quantizer.quantize(activations, f"{tag}.act"),
        quantizer.quantize(weights, f"{tag}.w"),
    )


class TestTorchEngineParity:
    def test_matmul_matches_numpy_oracle(self, quantizer, rng):
        aq, wq = _operands(quantizer, rng, 8, 24, 12, "torch0")
        oracle = VectorizedIndexDomainEngine(aq.dictionary, wq.dictionary).matmul(aq, wq)
        result = TorchIndexDomainEngine(aq.dictionary, wq.dictionary).matmul(aq, wq)
        assert result.stats == oracle.stats
        np.testing.assert_allclose(result.values, oracle.values, rtol=1e-9, atol=1e-9)

    def test_engine_switch_through_dispatch(self, quantizer, rng):
        aq, wq = _operands(quantizer, rng, 6, 10, 5, "torch1")
        numpy_values, numpy_stats = index_domain_matmul(aq, wq, engine="vectorized")
        torch_values, torch_stats = index_domain_matmul(aq, wq, engine="torch")
        assert torch_stats == numpy_stats
        np.testing.assert_allclose(torch_values, numpy_values, rtol=1e-9, atol=1e-9)

    def test_batched_matmul_many_matches(self, quantizer, rng):
        pairs = [_operands(quantizer, rng, 5, 12, 6, f"tb{i}") for i in range(3)]
        pairs.append(_operands(quantizer, rng, 3, 7, 4, "tb-odd"))
        numpy_results = index_domain_matmul_many(pairs, engine="vectorized")
        torch_results = index_domain_matmul_many(pairs, engine="torch")
        for n, t in zip(numpy_results, torch_results):
            assert t.stats == n.stats
            np.testing.assert_allclose(t.values, n.values, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_property_stats_identical_values_fp_close(self, quantizer, seed):
        rng = np.random.default_rng(4000 + seed)
        m, k, n = rng.integers(2, 16, size=3)
        aq, wq = _operands(quantizer, rng, int(m), int(k), int(n), f"tp{seed}")
        oracle = VectorizedIndexDomainEngine(aq.dictionary, wq.dictionary).matmul(aq, wq)
        result = TorchIndexDomainEngine(aq.dictionary, wq.dictionary).matmul(aq, wq)
        assert result.stats == oracle.stats
        np.testing.assert_allclose(result.values, oracle.values, rtol=1e-9, atol=1e-9)


class TestTorchFullModelParity:
    def test_model_stats_identical(self, quantizer):
        numpy_run = execute_model(
            NANO_CONFIG, sequence_length=8, quantizer=quantizer, engine="vectorized"
        )
        torch_run = execute_model(
            NANO_CONFIG, sequence_length=8, quantizer=quantizer, engine="torch"
        )
        assert torch_run.stats == numpy_run.stats
        assert torch_run.output_rms_error == pytest.approx(
            numpy_run.output_rms_error, rel=1e-6
        )

    def test_decoder_stats_identical(self, quantizer):
        decoder = TransformerConfig(
            name="gpt-nano-torch-test",
            num_layers=2,
            hidden_size=32,
            num_heads=4,
            intermediate_size=64,
            vocab_size=128,
            max_position_embeddings=64,
        )
        numpy_run = execute_decoder(
            decoder, prompt_length=5, decode_tokens=2, quantizer=quantizer
        )
        torch_run = execute_decoder(
            decoder, prompt_length=5, decode_tokens=2, quantizer=quantizer, engine="torch"
        )
        assert torch_run.stats == numpy_run.stats
        assert torch_run.output_rms_error == pytest.approx(
            numpy_run.output_rms_error, rel=1e-6
        )


class TestDeviceResidentPlanes:
    """Cached planes are uploaded to the device once and reused after."""

    def test_upload_once_reuse_after(self, quantizer, rng):
        from repro.core.index_compute import PlaneCache, use_plane_cache

        aq, wq = _operands(quantizer, rng, 6, 16, 8, "resident")
        engine = TorchIndexDomainEngine(
            aq.dictionary, wq.dictionary, device="cpu"
        )
        oracle = VectorizedIndexDomainEngine(aq.dictionary, wq.dictionary)
        cache = PlaneCache(max_bytes=1 << 30)
        with use_plane_cache(cache):
            first = engine.matmul(aq, wq)
            uploads_after_first = cache.stats().device_uploads
            second = engine.matmul(aq, wq)
            expected = oracle.matmul(aq, wq)
        stats = cache.stats()
        assert uploads_after_first > 0
        # The second GEMM re-used every tensor the first one uploaded.
        assert stats.device_uploads == uploads_after_first
        assert stats.device_reuses >= uploads_after_first
        # Residency is an execution detail: parity with NumPy holds.
        assert first.stats == second.stats == expected.stats
        assert np.allclose(first.values, expected.values, rtol=1e-6, atol=1e-8)

    def test_decoder_with_resident_planes_matches_numpy(self, quantizer):
        from repro.core.index_compute import PlaneCache, use_plane_cache

        decoder = TransformerConfig(
            name="gpt-nano-torch-resident",
            num_layers=1,
            hidden_size=32,
            num_heads=4,
            intermediate_size=64,
            vocab_size=128,
            max_position_embeddings=64,
        )
        cache = PlaneCache(max_bytes=1 << 30)
        with use_plane_cache(cache):
            torch_run = execute_decoder(
                decoder, prompt_length=4, decode_tokens=3,
                quantizer=quantizer, engine="torch", device="cpu",
            )
            numpy_run = execute_decoder(
                decoder, prompt_length=4, decode_tokens=3, quantizer=quantizer
            )
        assert torch_run.stats == numpy_run.stats
        assert np.allclose(
            torch_run.outputs, numpy_run.outputs, rtol=1e-6, atol=1e-6
        )
        assert cache.stats().device_reuses > 0
