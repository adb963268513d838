"""Tests for full-model index-domain execution and the KV-cache decoder.

Covers the layers ISSUE 6 spans:

1. :func:`repro.core.index_compute.index_domain_matmul_many` — the
   batched GEMM API every full-model path routes through — must be a
   pure execution strategy: identical stats and fp-close values to
   per-pair :func:`index_domain_matmul` on any mix of shapes;
2. engine dispatch through the ``engines`` registry — unknown names get
   a did-you-mean :class:`RegistryError`, a missing optional torch
   dependency fails fast with an actionable message;
3. :mod:`repro.transformer.index_model` — whole encoder stacks (counts
   equal depth x analytic layer MACs; batching and the weight cache
   change wall time, never numbers) and the GPT-style decoder with an
   encoded KV cache (growth, determinism, accuracy bound), whose one
   causal FP pass per run equals a step-wise FP reference;
4. the measured-stats join at model scope (``MeasurementSettings(scope=
   "model")``) through ``evaluate_measured`` and the CLI flag.

Everything runs at nano scale; the realistic full-width path (all of
BERT-Base at seq 128) lives in ``benchmarks/bench_perf_index_engine.py``.
"""

import json

import numpy as np
import pytest

from conftest import Float64Engine

from repro.accelerator.workloads import encoder_gemms
from repro.core.index_compute import (
    ENGINES,
    IndexDomainEngine,
    PlaneCache,
    VectorizedIndexDomainEngine,
    index_domain_matmul,
    index_domain_matmul_many,
    use_plane_cache,
)
from repro.experiments import MeasurementSettings, evaluate_measured
from repro.registry import RegistryError
from repro.transformer.config import TransformerConfig
from repro.transformer.index_model import (
    GPT_DECODER_CONFIG,
    IndexDomainModelExecutor,
    IndexKVCache,
    MultiStreamDecoder,
    _concat_quantized,
    _decoder_layer,
    _relative_rms,
    _slice_quantized,
    execute_model,
)
from repro.transformer.prepared import FPKVCache, FPRunner


TINY_SETTINGS = MeasurementSettings(golden_samples=3000, golden_repeats=1)

NANO_MODEL = "bert-nano-model-test"
NANO_CONFIG = TransformerConfig(
    name=NANO_MODEL,
    num_layers=3,
    hidden_size=32,
    num_heads=4,
    intermediate_size=64,
    vocab_size=128,
    max_position_embeddings=64,
)
NANO_DECODER = TransformerConfig(
    name="gpt-nano-test",
    num_layers=2,
    hidden_size=32,
    num_heads=4,
    intermediate_size=64,
    vocab_size=128,
    max_position_embeddings=64,
)


@pytest.fixture()
def nano_model(monkeypatch):
    from repro.transformer.model_zoo import MODEL_CONFIGS

    monkeypatch.setitem(MODEL_CONFIGS, NANO_MODEL, NANO_CONFIG)
    return NANO_MODEL


def _operands(quantizer, rng, m, k, n, tag):
    activations = rng.normal(0.4, 1.5, (m, k))
    activations.ravel()[rng.choice(m * k, max(1, (m * k) // 40), replace=False)] = 25.0
    weights = rng.normal(0.0, 0.03, (k, n))
    return (
        quantizer.quantize(activations, f"{tag}.act"),
        quantizer.quantize(weights, f"{tag}.w"),
    )


class TestMatmulMany:
    def test_matches_per_pair_across_mixed_shapes(self, quantizer, rng):
        # Repeated and unique shapes, every pair with its own weight.
        pairs = [
            _operands(quantizer, rng, 6, 16, 8, "a0"),
            _operands(quantizer, rng, 6, 16, 8, "a1"),
            _operands(quantizer, rng, 6, 16, 8, "a2"),
            _operands(quantizer, rng, 4, 12, 5, "b0"),
            _operands(quantizer, rng, 4, 12, 5, "b1"),
            _operands(quantizer, rng, 9, 7, 3, "c0"),
        ]
        many = index_domain_matmul_many(pairs)
        assert len(many) == len(pairs)
        for (aq, wq), result in zip(pairs, many):
            values, stats = index_domain_matmul(aq, wq)
            assert result.stats == stats
            np.testing.assert_allclose(result.values, values, rtol=1e-9, atol=1e-9)

    def test_order_preserved_within_group(self, quantizer, rng):
        pairs = [_operands(quantizer, rng, 5, 10, 4, f"p{i}") for i in range(4)]
        many = index_domain_matmul_many(pairs)
        for (aq, wq), result in zip(pairs, many):
            solo, _ = index_domain_matmul(aq, wq)
            np.testing.assert_allclose(result.values, solo, rtol=1e-9, atol=1e-9)

    def test_scalar_engine_falls_back_per_pair(self, quantizer, rng):
        pairs = [_operands(quantizer, rng, 3, 6, 4, f"s{i}") for i in range(2)]
        scalar = index_domain_matmul_many(pairs, engine="scalar")
        vectorized = index_domain_matmul_many(pairs, engine=Float64Engine)
        for s, v in zip(scalar, vectorized):
            assert s.stats == v.stats
            np.testing.assert_allclose(s.values, v.values, rtol=1e-9, atol=1e-8)

    def test_one_engine_per_distinct_dictionary_pair(self, quantizer, rng):
        # Per-head GEMMs share both dictionaries, as profiled operands do.
        act = quantizer.fit_dictionary_from_stats("act", 0.0, 1.0, -4.0, 4.0)
        wgt = quantizer.fit_dictionary_from_stats("wgt", 0.0, 0.5, -2.0, 2.0)
        pairs = [
            (
                quantizer.quantize(rng.normal(0, 1, (3, 6)), "a", dictionary=act),
                quantizer.quantize(rng.normal(0, 0.5, (6, 4)), "w", dictionary=wgt),
            )
            for _ in range(5)
        ]
        pairs.append(_operands(quantizer, rng, 3, 6, 4, "own"))
        built = []

        class CountingEngine(VectorizedIndexDomainEngine):
            def __init__(self, act_dict, wgt_dict):
                built.append((act_dict, wgt_dict))
                super().__init__(act_dict, wgt_dict)

        results = index_domain_matmul_many(pairs, engine=CountingEngine)
        assert len(built) == 2
        self._assert_matches_per_pair(pairs, results)

    def test_empty_input(self):
        assert index_domain_matmul_many([]) == []

    def test_mismatched_golden_fits_rejected(self, quantizer, rng):
        from repro.core.golden_dictionary import generate_golden_dictionary
        from repro.core.quantizer import MokeyQuantizer

        other = MokeyQuantizer(
            generate_golden_dictionary(num_samples=2000, num_repeats=1, seed=99)
        )
        pairs = [
            _operands(quantizer, rng, 3, 6, 4, "m0"),
            _operands(other, rng, 3, 6, 4, "m1"),
        ]
        with pytest.raises(ValueError, match="Golden Dictionary"):
            index_domain_matmul_many(pairs)

    @pytest.mark.parametrize("seed", range(5))
    def test_property_batched_equals_per_pair(self, quantizer, seed):
        rng = np.random.default_rng(1000 + seed)
        shapes = [tuple(rng.integers(2, 9, size=3)) for _ in range(rng.integers(2, 5))]
        if seed % 2:  # force at least one shape collision
            shapes.append(shapes[0])
        pairs = [
            _operands(quantizer, rng, m, k, n, f"prop{seed}.{i}")
            for i, (m, k, n) in enumerate(shapes)
        ]
        for (aq, wq), result in zip(pairs, index_domain_matmul_many(pairs)):
            values, stats = index_domain_matmul(aq, wq)
            assert result.stats == stats
            np.testing.assert_allclose(result.values, values, rtol=1e-9, atol=1e-9)

    @staticmethod
    def _run_counting_products(monkeypatch, pairs):
        """``index_domain_matmul_many(pairs)`` and its backend product count.

        Counts every ``_product`` call: Gaussian and outlier pairs alike
        come out of one dense product per weight group.  The operands
        hold outliers, so any extra outlier product would be counted.
        """
        assert any(aq.encoded.is_outlier.any() for aq, _ in pairs)
        calls = []
        product = VectorizedIndexDomainEngine._product

        def counting(self, lhs, rhs):
            calls.append(lhs.shape)
            return product(self, lhs, rhs)

        monkeypatch.setattr(VectorizedIndexDomainEngine, "_product", counting)
        with use_plane_cache(PlaneCache(max_bytes=1 << 30)):
            results = index_domain_matmul_many(pairs)
        return results, len(calls)

    @staticmethod
    def _assert_matches_per_pair(pairs, results):
        for (aq, wq), result in zip(pairs, results):
            values, stats = index_domain_matmul(aq, wq)
            assert result.stats == stats
            np.testing.assert_allclose(result.values, values, rtol=1e-9, atol=1e-9)

    def test_shared_weight_at_mixed_rows_is_one_product(self, quantizer, rng, monkeypatch):
        # Several pairs share one weight object at different M (streams at
        # different prompt lengths); a second weight is shared twice.
        _, shared = _operands(quantizer, rng, 1, 12, 5, "w-shared")
        _, other = _operands(quantizer, rng, 1, 12, 7, "w-other")
        rows_and_weights = ((3, shared), (1, shared), (6, other), (4, shared), (2, other))
        pairs = [
            (_operands(quantizer, rng, m, 12, 5, f"mixed{m}")[0], weights)
            for m, weights in rows_and_weights
        ]
        results, products = self._run_counting_products(monkeypatch, pairs)
        assert products == 2
        self._assert_matches_per_pair(pairs, results)

    def test_one_activation_against_several_weights(self, quantizer, rng, monkeypatch):
        # The Q/K/V shape: one activation object, three distinct weights.
        activation, _ = _operands(quantizer, rng, 6, 16, 1, "qkv")
        weights = [_operands(quantizer, rng, 1, 16, 8, f"qkv.{name}")[1] for name in "qkv"]
        pairs = [(activation, wq) for wq in weights]
        results, products = self._run_counting_products(monkeypatch, pairs)
        assert products == 3
        self._assert_matches_per_pair(pairs, results)

    def test_one_product_per_distinct_weight(self, quantizer, rng, monkeypatch):
        _, shared = _operands(quantizer, rng, 1, 10, 4, "w-many")
        pairs = [_operands(quantizer, rng, 5, 10, 4, f"solo{i}") for i in range(3)]
        pairs += [
            (_operands(quantizer, rng, m, 10, 4, f"streams{m}")[0], shared)
            for m in (1, 2, 3)
        ]
        results, products = self._run_counting_products(monkeypatch, pairs)
        assert products == 4
        self._assert_matches_per_pair(pairs, results)


class TestEngineDispatch:
    def test_resolve_known_engines(self):
        assert ENGINES.get("scalar") is IndexDomainEngine
        assert ENGINES.get("vectorized") is VectorizedIndexDomainEngine

    def test_unknown_engine_suggests_nearest(self):
        with pytest.raises(RegistryError, match="did you mean 'vectorized'"):
            ENGINES.get("vectorised")

    def test_unknown_engine_is_value_error(self):
        # Pre-registry callers caught ValueError; that contract holds.
        with pytest.raises(ValueError):
            ENGINES.get("gpu")

    def test_matmul_accepts_engine_name_or_class(self, quantizer, rng):
        aq, wq = _operands(quantizer, rng, 3, 6, 4, "mk")
        by_name_values, by_name_stats = index_domain_matmul(aq, wq, engine="vectorized")
        by_class_values, by_class_stats = index_domain_matmul(
            aq, wq, engine=VectorizedIndexDomainEngine
        )
        np.testing.assert_array_equal(by_name_values, by_class_values)
        assert by_name_stats == by_class_stats

    def test_executor_rejects_unknown_engine(self):
        from repro.transformer.index_execution import IndexDomainEncoderExecutor

        with pytest.raises(ValueError):
            IndexDomainEncoderExecutor(engine="gpu")


def _has_torch() -> bool:
    try:
        import torch  # noqa: F401
    except ImportError:
        return False
    return True


@pytest.mark.skipif(
    _has_torch(), reason="torch is installed; the missing-dependency path is unreachable"
)
class TestTorchAbsent:
    def test_torch_engine_import_error_is_actionable(self):
        from repro.core.index_compute import TorchIndexDomainEngine

        with pytest.raises(ImportError, match="vectorized"):
            TorchIndexDomainEngine.ensure_available()

    def test_executor_fails_fast_without_torch(self):
        from repro.transformer.index_execution import IndexDomainEncoderExecutor

        with pytest.raises(ImportError, match="torch"):
            IndexDomainEncoderExecutor(engine="torch")


class TestExecuteModel:
    def test_pairs_equal_depth_times_analytic_layer_macs(self, quantizer):
        measurement = execute_model(
            NANO_CONFIG, sequence_length=10, batch_size=2, quantizer=quantizer, seed=5
        )
        layer_macs = sum(g.macs for g in encoder_gemms(NANO_CONFIG, 10, 2))
        assert measurement.num_layers == NANO_CONFIG.num_layers
        assert measurement.stats.total_pairs == NANO_CONFIG.num_layers * layer_macs
        assert len(measurement.layers) == NANO_CONFIG.num_layers
        for layer in measurement.layers:
            assert layer.stats.total_pairs == layer_macs

    def test_batching_and_caching_change_nothing_but_time(self, quantizer):
        baseline = execute_model(
            NANO_CONFIG,
            sequence_length=8,
            quantizer=quantizer,
            oracle=True,
        )
        optimised = execute_model(NANO_CONFIG, sequence_length=8, quantizer=quantizer)
        assert optimised.stats == baseline.stats
        for a, b in zip(baseline.layers, optimised.layers):
            assert a.output_rms_error == pytest.approx(b.output_rms_error, rel=1e-9)
            assert [g.name for g in a.gemms] == [g.name for g in b.gemms]
        assert optimised.output_rms_error == pytest.approx(
            baseline.output_rms_error, rel=1e-9
        )

    def test_weight_cache_hits_on_warm_forward(self, quantizer):
        executor = IndexDomainModelExecutor(
            NANO_CONFIG, quantizer=quantizer, seed=5
        )
        cold = execute_model(NANO_CONFIG, sequence_length=8, executor=executor)
        warm = execute_model(NANO_CONFIG, sequence_length=8, executor=executor)
        # Weights are encoded when the model is prepared, so even the cold
        # forward serves all six weight GEMMs per layer (Q, K, V, attention
        # output, two FFN) from stored encodings.
        assert cold.weight_cache_hits == 6 * NANO_CONFIG.num_layers
        assert warm.weight_cache_hits == 6 * NANO_CONFIG.num_layers
        assert warm.stats == cold.stats
        assert warm.output_rms_error == pytest.approx(cold.output_rms_error, rel=1e-9)

    def test_error_accumulates_monotonically_visible(self, quantizer):
        measurement = execute_model(NANO_CONFIG, sequence_length=8, quantizer=quantizer)
        errors = [layer.output_rms_error for layer in measurement.layers]
        assert all(e > 0 for e in errors)
        assert measurement.output_rms_error == errors[-1]
        assert measurement.output_rms_error < 0.5

    def test_depth_cap_and_validation(self, quantizer):
        capped = execute_model(
            NANO_CONFIG, sequence_length=8, num_layers=1, quantizer=quantizer
        )
        assert capped.num_layers == 1
        with pytest.raises(ValueError):
            execute_model(NANO_CONFIG, sequence_length=0, quantizer=quantizer)
        with pytest.raises(ValueError):
            execute_model(NANO_CONFIG, sequence_length=8, batch_size=0, quantizer=quantizer)
        with pytest.raises(ValueError):
            IndexDomainModelExecutor(NANO_CONFIG, num_layers=0, quantizer=quantizer)

    def test_model_zoo_name_resolution(self, nano_model, quantizer):
        measurement = execute_model(nano_model, sequence_length=8, quantizer=quantizer)
        assert measurement.model == NANO_MODEL
        with pytest.raises(KeyError):
            execute_model("bert-nonexistent", quantizer=quantizer)


class TestKVCache:
    def test_slice_round_trips_decoded_values(self, quantizer, rng):
        values = rng.normal(0, 1, (6, 8))
        tensor = quantizer.quantize(values, "kv.slice")
        window = _slice_quantized(tensor, slice(2, 6))
        assert window.shape == (6, 4)
        np.testing.assert_allclose(window.dequantize(), tensor.dequantize()[:, 2:6])
        transposed = _slice_quantized(tensor, slice(2, 6), transpose=True)
        assert transposed.shape == (4, 6)
        assert transposed.dictionary is tensor.dictionary

    def test_concat_appends_rows_under_one_dictionary(self, quantizer, rng):
        first = quantizer.quantize(rng.normal(0, 1, (3, 5)), "kv.concat")
        more = quantizer.quantize(
            rng.normal(0, 1, (2, 5)), "kv.concat", dictionary=first.dictionary
        )
        joined = _concat_quantized(first, more)
        assert joined.shape == (5, 5)
        assert joined.dictionary is first.dictionary
        np.testing.assert_allclose(joined.dequantize()[:3], first.dequantize())

    def test_concat_rejects_foreign_dictionary(self, quantizer, rng):
        first = quantizer.quantize(rng.normal(0, 1, (3, 5)), "kv.a")
        foreign = quantizer.quantize(rng.normal(0, 1, (2, 5)), "kv.b")
        with pytest.raises(ValueError, match="dictionary"):
            _concat_quantized(first, foreign)

    @staticmethod
    def _kv_dictionaries(quantizer):
        return tuple(
            quantizer.fit_dictionary_from_stats(name, 0.0, 1.0, -4.0, 4.0)
            for name in ("kv.key", "kv.value")
        )

    def test_prefill_then_append_grows_rows(self, quantizer, rng):
        cache = IndexKVCache(quantizer)
        dictionaries = self._kv_dictionaries(quantizer)
        assert 0 not in cache
        assert cache.cached_tokens(0) == 0
        cache.prefill(
            0, rng.normal(0, 1, (4, 8)), rng.normal(0, 1, (4, 8)), dictionaries
        )
        assert 0 in cache
        assert cache.cached_tokens(0) == 4
        cache.append(0, rng.normal(0, 1, (1, 8)), rng.normal(0, 1, (1, 8)))
        assert cache.cached_tokens(0) == 5
        keys, values = cache.tensors(0)
        assert keys.shape == (5, 8) and values.shape == (5, 8)
        # Both encode against the supplied (profiled) dictionaries.
        assert (keys.dictionary, values.dictionary) == dictionaries

    def test_lifecycle_errors(self, quantizer, rng):
        cache = IndexKVCache(quantizer)
        dictionaries = self._kv_dictionaries(quantizer)
        rows = rng.normal(0, 1, (2, 8))
        with pytest.raises(ValueError, match="prefilled"):
            cache.append(0, rows, rows)
        with pytest.raises(ValueError, match="profiled K/V dictionaries"):
            cache.prefill(0, rows, rows, (None, None))
        cache.prefill(0, rows, rows, dictionaries)
        with pytest.raises(ValueError, match="already"):
            cache.prefill(0, rows, rows, dictionaries)


class TestSoloDecoder:
    def test_cache_grows_to_prompt_plus_steps(self, quantizer):
        decoder = MultiStreamDecoder(NANO_DECODER, num_streams=1, quantizer=quantizer)
        measurement = decoder.run(prompt_length=6, decode_tokens=3)
        assert decoder.cache.cached_tokens((0, 0)) == 9
        assert measurement.num_layers == NANO_DECODER.num_layers
        assert measurement.stats.total_pairs > 0
        assert measurement.output_rms_error < 0.5

    def test_deterministic_in_seed(self, quantizer):
        first, second = (
            MultiStreamDecoder(NANO_DECODER, num_streams=1, quantizer=quantizer, seed=3).run(
                prompt_length=5, decode_tokens=2
            )
            for _ in range(2)
        )
        assert first.stats == second.stats
        assert first.output_rms_error == second.output_rms_error

    def test_batched_attention_matches_unbatched(self, quantizer):
        batched, unbatched = (
            MultiStreamDecoder(
                NANO_DECODER, num_streams=1, quantizer=quantizer, oracle=oracle
            ).run(prompt_length=5, decode_tokens=2)
            for oracle in (False, True)
        )
        assert batched.stats == unbatched.stats
        assert batched.output_rms_error == pytest.approx(
            unbatched.output_rms_error, rel=1e-9
        )

    def test_prefill_only(self, quantizer):
        decoder = MultiStreamDecoder(NANO_DECODER, num_streams=1, quantizer=quantizer)
        measurement = decoder.run(prompt_length=4, decode_tokens=0)
        assert decoder.cache.cached_tokens((0, 0)) == 4
        assert measurement.decode_seconds == 0.0 or measurement.tokens_per_second == 0.0

    def test_validation(self, quantizer):
        decoder = MultiStreamDecoder(NANO_DECODER, num_streams=1, quantizer=quantizer)
        with pytest.raises(ValueError):
            decoder.run(prompt_length=0)
        with pytest.raises(ValueError):
            decoder.run(decode_tokens=-1)
        with pytest.raises(ValueError):
            MultiStreamDecoder(NANO_DECODER, num_layers=0, quantizer=quantizer)

    def test_default_config_is_gpt2_shaped_and_unregistered(self):
        from repro.transformer.model_zoo import MODEL_CONFIGS

        assert GPT_DECODER_CONFIG.name == "gpt2-small"
        assert GPT_DECODER_CONFIG.num_layers == 12
        assert "gpt2-small" not in MODEL_CONFIGS


def _stream_sequences(decoder, prompt_length, decode_tokens):
    """Each stream's whole input sequence, drawn as ``run`` draws it."""
    sequences = []
    for s in range(decoder.num_streams):
        rng = np.random.default_rng(decoder.seed + 7919 + 104729 * s)
        sequences.append(np.concatenate([
            rng.normal(0.0, 1.0, size=(tokens, decoder.config.hidden_size)).astype(np.float32)
            for tokens in [prompt_length] + [1] * decode_tokens
        ]))
    return sequences


def _causal_fp_pass(decoder, rows):
    """One causal FP32 prefill of every stream's rows through the stack."""
    cache = FPKVCache()
    for layer in decoder.prepared.layers:
        rows = _decoder_layer(FPRunner(), {}, cache, layer, rows)
    return rows


SHAPES = [
    pytest.param(1, 1, 0, id="1x1+0"),
    pytest.param(1, 5, 3, id="1x5+3"),
    pytest.param(2, 3, 4, id="2x3+4"),
    pytest.param(3, 4, 2, id="3x4+2"),
    pytest.param(3, 1, 5, id="3x1+5"),
]


class TestCausalFPOracle:
    """The decoder's FP oracle is one causal pass per run; the decode is
    teacher-forced, so that pass equals a replay of every step."""

    @pytest.mark.parametrize("num_streams, prompt_length, decode_tokens", SHAPES)
    def test_error_equals_a_step_wise_reference(
        self, quantizer, num_streams, prompt_length, decode_tokens
    ):
        default, uncached = (
            MultiStreamDecoder(
                NANO_DECODER,
                num_streams=num_streams,
                quantizer=quantizer,
                seed=2,
                oracle=oracle,
            )
            for oracle in (False, True)
        )
        result = default.run(prompt_length=prompt_length, decode_tokens=decode_tokens)
        sequences = _stream_sequences(default, prompt_length, decode_tokens)
        # Row t of the reference: a fresh prefill of rows [:t + 1], last row.
        steps = [
            _causal_fp_pass(default, [rows[: t + 1] for rows in sequences])
            for t in range(prompt_length + decode_tokens)
        ]
        reference = [
            np.stack([step[s][-1] for step in steps]) for s in range(num_streams)
        ]
        expected = max(
            _relative_rms(output, ref) for output, ref in zip(result.outputs, reference)
        )
        assert result.output_rms_error == pytest.approx(expected, rel=1e-6)
        # The reference's schedule moves no index-domain number.
        check = uncached.run(prompt_length=prompt_length, decode_tokens=decode_tokens)
        for output, check_output in zip(result.outputs, check.outputs):
            assert np.array_equal(output, check_output)
        assert result.stats == check.stats
        assert result.output_rms_error == check.output_rms_error

    @pytest.mark.parametrize("num_streams, prompt_length, decode_tokens", SHAPES[1:])
    def test_later_rows_never_reach_earlier_outputs(
        self, quantizer, num_streams, prompt_length, decode_tokens
    ):
        decoder = MultiStreamDecoder(
            NANO_DECODER, num_streams=num_streams, quantizer=quantizer, seed=2
        )
        sequences = _stream_sequences(decoder, prompt_length, decode_tokens)
        baseline = _causal_fp_pass(decoder, sequences)
        split, stream = prompt_length, num_streams - 1
        perturbed = [rows.copy() for rows in sequences]
        perturbed[stream][split:] += np.random.default_rng(9).normal(
            0.0, 3.0, size=perturbed[stream][split:].shape
        ).astype(np.float32)
        outputs = _causal_fp_pass(decoder, perturbed)
        assert np.array_equal(outputs[stream][:split], baseline[stream][:split])
        assert not np.array_equal(outputs[stream][split:], baseline[stream][split:])
        for s in range(stream):
            assert np.array_equal(outputs[s], baseline[s])


class TestMeasuredModelScope:
    def test_model_scope_sums_full_depth(self, nano_model):
        layer_scope = evaluate_measured(nano_model, 8, 1, settings=TINY_SETTINGS)
        model_settings = MeasurementSettings(
            golden_samples=3000, golden_repeats=1, scope="model"
        )
        model_scope = evaluate_measured(nano_model, 8, 1, settings=model_settings)
        assert layer_scope.scope == "layer" and layer_scope.layers_measured == 1
        assert model_scope.scope == "model"
        assert model_scope.layers_measured == NANO_CONFIG.num_layers
        depth = NANO_CONFIG.num_layers
        assert model_scope.total_pairs == depth * layer_scope.total_pairs
        assert model_scope.gemm_instances == depth * layer_scope.gemm_instances
        # Different scopes never share a memo slot.
        assert model_scope.settings_digest != layer_scope.settings_digest

    def test_scope_round_trips(self, nano_model):
        from repro.experiments import MeasuredStats

        settings = MeasurementSettings(
            golden_samples=3000, golden_repeats=1, scope="model"
        )
        measured = evaluate_measured(nano_model, 8, 1, settings=settings)
        data = json.loads(json.dumps(measured.to_dict()))
        assert MeasuredStats.from_dict(data) == measured
        assert MeasurementSettings.from_dict(settings.to_dict()) == settings

    def test_unknown_scope_rejected(self, nano_model):
        with pytest.raises(ValueError, match="scope"):
            evaluate_measured(
                nano_model, 8, 1, settings=MeasurementSettings(scope="stack")
            )

    def test_cli_measured_scope_flag(self, nano_model, tmp_path, capsys):
        from repro.cli import main
        from repro.experiments import ArtifactStore, Scenario

        args = [
            "campaign", "run",
            "--models", nano_model,
            "--sequence-lengths", "8",
            "--designs", "mokey",
            "--measured-scope", "model",
            "--store", str(tmp_path / "store"),
            "--format", "json",
        ]
        assert main(args) == 0
        captured = capsys.readouterr()
        # The flag implies --with-measured-stats; the summary counts models.
        assert "1 models measured" in captured.err
        rows = json.loads(captured.out)
        assert rows[0]["measured_gaussian_pairs"] > 0
        stored = ArtifactStore(tmp_path / "store").get_measured(
            Scenario(model=nano_model, sequence_length=8, design="mokey")
        )
        assert stored is not None
        assert stored.scope == "model"
        assert stored.layers_measured == NANO_CONFIG.num_layers
