"""The prepared model: fit offline, encode online.

Locks the contract of :mod:`repro.transformer.prepared`:

1. every executor and decoder of one ``(config, seed, depth, quantizer)``
   shares one :class:`PreparedModel`, and building and running a second
   one fits no dictionary and encodes no weight;
2. a reused prepared model and a freshly prepared one give bit-identical
   outputs and statistics;
3. the memo is keyed by model identity, bounded, and dies with its
   quantizer;
4. profiled dictionaries still reject non-finite activations in one line;
5. the profiling pass's numerics are pinned by a content digest of the
   dictionaries it fits, and the FP reference runs its GEMMs in FP32.
"""

import gc
import hashlib
import weakref

import numpy as np
import pytest

from repro.core.quantizer import MokeyQuantizer
from repro.core.tensor_dictionary import TensorDictionary
from repro.transformer.config import TransformerConfig
from repro.transformer.functional import gelu
from repro.transformer.index_model import (
    IndexDomainModelExecutor,
    MultiStreamDecoder,
    execute_model,
)
from repro.transformer.layers import Linear
from repro.transformer.prepared import (
    KEY_OPERAND,
    PREPARED_PER_QUANTIZER,
    VALUE_OPERAND,
    FPRunner,
    prepare_model,
)

NANO = TransformerConfig(
    name="bert-nano-prepared",
    num_layers=2,
    hidden_size=32,
    num_heads=4,
    intermediate_size=64,
    vocab_size=128,
    max_position_embeddings=64,
)


@pytest.fixture()
def fresh_quantizer(golden):
    """A quantizer with an empty prepared-model memo (and fit memo)."""
    return MokeyQuantizer(golden)


def _count_runtime_work(monkeypatch, prepared):
    """Count dictionary fits, and encodes against ``prepared``'s weight dictionaries."""
    counts = {"fit": 0, "fit_from_stats": 0, "weight_encodes": 0}
    weight_dictionaries = {
        id(weights.dictionary)
        for layer in prepared.layers
        for weights in layer.weights.values()
    }
    fit, fit_from_stats = MokeyQuantizer.fit_dictionary, MokeyQuantizer.fit_dictionary_from_stats
    encode = TensorDictionary.encode

    def counting_fit(self, *args, **kwargs):
        counts["fit"] += 1
        return fit(self, *args, **kwargs)

    def counting_fit_from_stats(self, *args, **kwargs):
        counts["fit_from_stats"] += 1
        return fit_from_stats(self, *args, **kwargs)

    def counting_encode(self, values):
        counts["weight_encodes"] += id(self) in weight_dictionaries
        return encode(self, values)

    monkeypatch.setattr(MokeyQuantizer, "fit_dictionary", counting_fit)
    monkeypatch.setattr(MokeyQuantizer, "fit_dictionary_from_stats", counting_fit_from_stats)
    monkeypatch.setattr(TensorDictionary, "encode", counting_encode)
    return counts


class TestSharing:
    def test_model_executors_share_and_second_fits_nothing(self, fresh_quantizer, monkeypatch):
        first = IndexDomainModelExecutor(NANO, quantizer=fresh_quantizer, seed=3)
        execute_model(NANO, sequence_length=6, executor=first)
        counts = _count_runtime_work(monkeypatch, first.prepared)
        second = IndexDomainModelExecutor(NANO, quantizer=fresh_quantizer, seed=3)
        measurement = execute_model(NANO, sequence_length=6, executor=second)
        assert second.prepared is first.prepared
        assert counts == {"fit": 0, "fit_from_stats": 0, "weight_encodes": 0}
        assert measurement.weight_cache_hits == 6 * NANO.num_layers

    def test_decoders_share_and_second_fits_nothing(self, fresh_quantizer, monkeypatch):
        def decoder():
            return MultiStreamDecoder(NANO, num_streams=2, quantizer=fresh_quantizer, seed=3)

        first = decoder()
        first.run(prompt_length=4, decode_tokens=2)
        counts = _count_runtime_work(monkeypatch, first.prepared)
        second = decoder()
        second.run(prompt_length=5, decode_tokens=3)
        assert second.prepared is first.prepared
        assert counts == {"fit": 0, "fit_from_stats": 0, "weight_encodes": 0}

    def test_single_layer_entry_point_shares_the_one_layer_model(self, fresh_quantizer):
        execute_model(
            NANO, sequence_length=6, num_layers=1, quantizer=fresh_quantizer, seed=4
        )
        executor = IndexDomainModelExecutor(
            NANO, num_layers=1, quantizer=fresh_quantizer, seed=4
        )
        assert executor.prepared is prepare_model(NANO, 4, 1, fresh_quantizer)

    def test_profile_covers_the_kv_cache_operands(self, fresh_quantizer):
        prepared = prepare_model(NANO, 0, NANO.num_layers, fresh_quantizer, causal=True)
        for layer in prepared.layers:
            assert None not in layer.kv_dictionaries
            assert {KEY_OPERAND, VALUE_OPERAND} <= set(layer.dictionaries)
            assert set(layer.weights) == {
                "attention.query",
                "attention.key",
                "attention.value",
                "attention.output",
                "ffn.intermediate",
                "ffn.output",
            }


class TestReuseIsBitIdentical:
    def test_encoder_stack(self, golden, fresh_quantizer):
        warm_executor = IndexDomainModelExecutor(NANO, quantizer=fresh_quantizer, seed=2)
        execute_model(NANO, sequence_length=7, executor=warm_executor)
        reused = execute_model(NANO, sequence_length=7, quantizer=fresh_quantizer, seed=2)
        fresh = execute_model(NANO, sequence_length=7, quantizer=MokeyQuantizer(golden), seed=2)
        assert reused.stats == fresh.stats
        assert [layer.output_rms_error for layer in reused.layers] == [
            layer.output_rms_error for layer in fresh.layers
        ]

    def test_decoder(self, golden, fresh_quantizer):
        def run(quantizer):
            return MultiStreamDecoder(
                NANO, num_streams=2, quantizer=quantizer, seed=2
            ).run(prompt_length=4, decode_tokens=2)

        run(fresh_quantizer)
        reused, fresh = run(fresh_quantizer), run(MokeyQuantizer(golden))
        assert reused.stats == fresh.stats
        for ours, theirs in zip(reused.outputs, fresh.outputs):
            assert np.array_equal(ours, theirs)


class TestMemo:
    def test_keyed_by_model_identity(self, fresh_quantizer):
        base = prepare_model(NANO, 0, 1, fresh_quantizer)
        assert prepare_model(NANO, 0, 1, fresh_quantizer) is base
        assert prepare_model(NANO, 1, 1, fresh_quantizer) is not base
        assert prepare_model(NANO, 0, 1, fresh_quantizer, causal=True) is not base

    def test_bounded_per_quantizer(self, fresh_quantizer):
        first = prepare_model(NANO, 0, 1, fresh_quantizer)
        for seed in range(1, PREPARED_PER_QUANTIZER + 1):
            prepare_model(NANO, seed, 1, fresh_quantizer)
        assert prepare_model(NANO, 0, 1, fresh_quantizer) is not first

    def test_dies_with_its_quantizer(self, golden):
        quantizer = MokeyQuantizer(golden)
        prepared = weakref.ref(prepare_model(NANO, 0, 1, quantizer))
        del quantizer
        gc.collect()
        assert prepared() is None


def test_non_finite_activation_rejected_in_one_line(fresh_quantizer):
    executor = IndexDomainModelExecutor(NANO, quantizer=fresh_quantizer)
    states = np.zeros((1, 4, NANO.hidden_size), dtype=np.float32)
    states[0, 1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite") as info:
        executor.forward(states)
    assert "\n" not in str(info.value)
    dictionary = executor.prepared.layers[0].dictionaries["attention.query.in"]
    with pytest.raises(ValueError, match="1 non-finite") as info:
        fresh_quantizer.quantize(np.array([[1.0, np.inf]]), "x", dictionary=dictionary)
    assert "\n" not in str(info.value)


def _dictionary_digest(prepared):
    """Content digest of every profiled dictionary, at full precision."""
    digest = hashlib.sha256()
    for layer in prepared.layers:
        for name in sorted(layer.dictionaries):
            dictionary = layer.dictionaries[name]
            scalars = (dictionary.mean, dictionary.std, dictionary.threshold)
            digest.update(f"{layer.index}.{name}:{[repr(float(x)) for x in scalars]}".encode())
            digest.update(repr(dictionary.fixed_point).encode())
            digest.update(np.ascontiguousarray(dictionary.gaussian_half, np.float64).tobytes())
            digest.update(
                np.ascontiguousarray(dictionary.outlier_centroids, np.float64).tobytes()
            )
    return digest.hexdigest()[:16]


@pytest.mark.parametrize(
    "causal, expected",
    [
        pytest.param(False, "1ea87bc57ef07693", id="bidirectional"),
        pytest.param(True, "e3fbd05cf9ab67b2", id="causal"),
    ],
)
def test_profiled_dictionaries_are_pinned(fresh_quantizer, causal, expected):
    """The profiling pass defines every activation dictionary: a change to
    its numerics (its GEMM grouping or precision included) moves this."""
    prepared = prepare_model(NANO, 3, NANO.num_layers, fresh_quantizer, causal=causal)
    assert _dictionary_digest(prepared) == expected


def test_fp_reference_runs_grouped_float32_gemms():
    rng = np.random.default_rng(11)
    shared = Linear(rng.normal(size=(16, 8)), rng.normal(size=8))
    other = Linear(rng.normal(size=(16, 8)), rng.normal(size=8))
    # NEP 50: gelu of float32 rows is float64, like the FFN's second input.
    hidden = gelu(rng.normal(size=(3, 16)).astype(np.float32))
    assert hidden.dtype == np.float64
    items = [
        ("ffn.output", hidden, shared),
        ("attention.query", rng.normal(size=(1, 16)).astype(np.float32), other),
        ("ffn.output", rng.normal(size=(5, 16)), shared),
        ("attention.scores", rng.normal(size=(2, 16)).astype(np.float32),
         rng.normal(size=(16, 4)).astype(np.float32)),
    ]
    outputs = FPRunner().gemm({}, items, None)
    assert len(outputs) == len(items)
    for (_name, x, rhs), output in zip(items, outputs):
        assert output.dtype == np.float32
        if isinstance(rhs, Linear):
            expected = x.astype(np.float32) @ rhs.weight + rhs.bias
        else:
            expected = x @ rhs
        np.testing.assert_allclose(output, expected, rtol=1e-5, atol=1e-5)
