"""The plane cache and incremental KV plane slabs — bit-identity locks.

The plane cache and the KV-cache plane slabs are *pure execution
strategies*: they may only move wall time, never values, outlier masks
or operation counts.  This file locks that contract three ways:

1. hypothesis property tests that an incrementally-extended
   :class:`~repro.transformer.index_model._PlaneSlab` yields plane
   arrays byte-identical to a full rebuild over the concatenated cache,
   for any chunking of appends, any head slice, and either orientation;
2. hypothesis property tests that a plane-cached decode run equals the
   uncached oracle exactly — outputs ``array_equal``, stats ``==`` —
   across prompt lengths, decode depths and dictionary fits, plus fixed
   parametrised cases across the scalar / vectorized / torch engines,
   and the same lock on the stream-batched
   :class:`~repro.transformer.index_model.MultiStreamDecoder` (with its
   streams independent of one another and its GEMMs counted per stream);
3. unit tests of the :class:`~repro.core.index_compute.PlaneCache`
   itself — LRU eviction under a byte budget, counters, the scoped
   override, the digest/attached resolution order, and the plane dtype
   as part of every plane identity.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Float64Engine

from repro.core.index_compute import (
    PlaneCache,
    VectorizedIndexDomainEngine,
    get_plane_cache,
    index_domain_matmul,
    set_plane_cache,
    use_plane_cache,
)
from repro.transformer.config import TransformerConfig
from repro.transformer.index_model import (
    MultiStreamDecoder,
    _concat_quantized,
    _PlaneSlab,
    _slice_quantized,
)


MICRO_DECODER = TransformerConfig(
    name="gpt-micro-planes",
    num_layers=1,
    hidden_size=32,
    num_heads=4,
    intermediate_size=64,
    vocab_size=128,
    max_position_embeddings=64,
)


def _kv_rows(rng, rows, width):
    values = rng.normal(0.1, 1.2, (rows, width))
    flat = values.ravel()
    picks = rng.choice(flat.size, max(1, flat.size // 25), replace=False)
    flat[picks] = rng.choice([-1.0, 1.0], picks.size) * 30.0
    return values


def _slab_and_tensor(quantizer, rng, chunks, width):
    """Grow a KV-style tensor chunk by chunk, extending a slab each time."""
    tensor = quantizer.quantize(_kv_rows(rng, chunks[0], width), "kv.prop")
    slab = _PlaneSlab(tensor.dictionary, width)
    slab.extend(tensor)
    for rows in chunks[1:]:
        appended = quantizer.quantize(
            _kv_rows(rng, rows, width), tensor.name, dictionary=tensor.dictionary
        )
        tensor = _concat_quantized(tensor, appended)
        slab.extend(tensor)
    return slab, tensor


class TestSlabEqualsRebuild:
    """Incremental plane append == full plane rebuild, byte for byte."""

    @given(
        chunks=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=5),
        seed=st.integers(min_value=0, max_value=2**16),
        transpose=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_plane_arrays_bit_identical(self, quantizer, chunks, seed, transpose):
        width = 8
        rng = np.random.default_rng(seed)
        slab, tensor = _slab_and_tensor(quantizer, rng, chunks, width)
        columns = slice(2, 6)  # one "head" of the hidden width
        sliced = _slice_quantized(tensor, columns, transpose=transpose)
        engine = VectorizedIndexDomainEngine(tensor.dictionary, tensor.dictionary)
        rebuilt = engine._build_plane_set(sliced, "rhs", sliced.shape)
        incremental = slab.plane_set(columns, transpose=transpose)
        for name in ("out", "dec"):
            ours, oracle = getattr(incremental, name), getattr(rebuilt, name)
            assert ours.dtype == oracle.dtype
            assert ours.shape == oracle.shape
            assert np.array_equal(ours, oracle), f"plane {name} diverged"
        assert np.array_equal(incremental.gauss_per_k, rebuilt.gauss_per_k)

    @given(
        chunks=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=15, deadline=None)
    def test_attached_planes_gemm_bit_identical(self, quantizer, chunks, seed):
        """A GEMM against slab planes == the same GEMM against a rebuild."""
        width = 8
        rng = np.random.default_rng(seed)
        slab, tensor = _slab_and_tensor(quantizer, rng, chunks, width)
        columns = slice(0, 4)
        act = quantizer.quantize(rng.normal(0.2, 1.0, (3, 4)), "q.prop")

        with use_plane_cache(None):
            plain = _slice_quantized(tensor, columns, transpose=True)
            oracle_values, oracle_stats = index_domain_matmul(act, plain)
            attached = _slice_quantized(tensor, columns, transpose=True)
            attached._plane_sets = {
                "rhs": slab.plane_set(columns, transpose=True)
            }
            cached_values, cached_stats = index_domain_matmul(act, attached)
        assert np.array_equal(cached_values, oracle_values)
        assert cached_stats == oracle_stats

    def test_slab_rejects_shrunken_tensor(self, quantizer):
        rng = np.random.default_rng(3)
        slab, tensor = _slab_and_tensor(quantizer, rng, [4], 8)
        shorter = _slice_quantized(tensor, slice(0, 8))  # columns, same rows
        slab.extend(shorter)  # same row count: no-op
        with pytest.raises(ValueError):
            smaller = quantizer.quantize(_kv_rows(rng, 2, 8), "kv.small")
            slab.extend(smaller)


class TestDecodeBitIdentity:
    """Plane-cached decode == uncached decode, across fits and engines."""

    @given(
        prompt_length=st.integers(min_value=1, max_value=5),
        decode_tokens=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=10, deadline=None)
    def test_cached_decode_equals_uncached(
        self, quantizer, prompt_length, decode_tokens, seed
    ):
        options = dict(num_streams=1, quantizer=quantizer, seed=seed)
        run = dict(prompt_length=prompt_length, decode_tokens=decode_tokens)
        cached = MultiStreamDecoder(MICRO_DECODER, **options).run(**run)
        uncached = MultiStreamDecoder(MICRO_DECODER, oracle=True, **options).run(**run)
        assert np.array_equal(cached.outputs[0], uncached.outputs[0])
        assert cached.stats == uncached.stats
        assert cached.output_rms_error == uncached.output_rms_error
        assert uncached.plane_cache is None

    @pytest.mark.parametrize("engine", ["scalar", "vectorized", "torch"])
    def test_cached_decode_equals_uncached_per_engine(self, quantizer, engine):
        if engine == "torch":
            pytest.importorskip("torch")
        options = dict(
            num_streams=1,
            quantizer=quantizer,
            engine=engine,
            device="cpu" if engine == "torch" else None,
        )
        cached = MultiStreamDecoder(MICRO_DECODER, **options).run(
            prompt_length=3, decode_tokens=2
        )
        uncached = MultiStreamDecoder(MICRO_DECODER, oracle=True, **options).run(
            prompt_length=3, decode_tokens=2
        )
        assert np.array_equal(cached.outputs[0], uncached.outputs[0])
        assert cached.stats == uncached.stats

    def test_multi_stream_stream0_matches_solo_decoder(self, quantizer):
        solo = MultiStreamDecoder(
            MICRO_DECODER, num_streams=1, quantizer=quantizer
        ).run(prompt_length=4, decode_tokens=2)
        multi = MultiStreamDecoder(
            MICRO_DECODER, num_streams=3, quantizer=quantizer
        ).run(prompt_length=4, decode_tokens=2)
        assert multi.outputs is not None and len(multi.outputs) == 3
        assert np.allclose(multi.outputs[0], solo.outputs[0], rtol=1e-9, atol=1e-9)
        assert multi.tokens_per_second > 0
        assert multi.output_rms_error < 0.5


class TestMultiStreamDecoder:
    """The stream-batched decoder against its oracle and its solo streams."""

    @given(
        num_streams=st.integers(min_value=1, max_value=3),
        prompt_length=st.integers(min_value=1, max_value=5),
        decode_tokens=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=10, deadline=None)
    def test_oracle_equals_default(
        self, quantizer, num_streams, prompt_length, decode_tokens
    ):
        fast, oracle = (
            MultiStreamDecoder(
                MICRO_DECODER, num_streams=num_streams, quantizer=quantizer, oracle=flag
            ).run(prompt_length=prompt_length, decode_tokens=decode_tokens)
            for flag in (False, True)
        )
        assert len(fast.outputs) == len(oracle.outputs) == num_streams
        for fast_out, oracle_out in zip(fast.outputs, oracle.outputs):
            assert np.array_equal(fast_out, oracle_out)
        assert fast.stats == oracle.stats
        assert fast.output_rms_error == oracle.output_rms_error
        assert oracle.plane_cache is None

    def test_streams_independent_and_counted_per_gemm(self, quantizer):
        config = replace(MICRO_DECODER, num_layers=2)
        decode_tokens = 2
        two, three = (
            MultiStreamDecoder(
                config, num_streams=streams, quantizer=quantizer, seed=4
            ).run(prompt_length=3, decode_tokens=decode_tokens)
            for streams in (2, 3)
        )
        for s in range(2):
            assert np.allclose(three.outputs[s], two.outputs[s], rtol=1e-9, atol=1e-9)
        per_head = {"attention.scores", "attention.context"}
        assert [g.name for g in three.gemms] == [
            "attention.query",
            "attention.key",
            "attention.value",
            "attention.scores",
            "attention.context",
            "attention.output",
            "ffn.intermediate",
            "ffn.output",
        ]
        for gemm in three.gemms:
            heads = config.num_heads if gemm.name in per_head else 1
            assert gemm.count == 3 * (1 + decode_tokens) * config.num_layers * heads


class TestPlaneCacheUnit:
    def _plane_set(self, quantizer, seed=0, rows=6, cols=4):
        rng = np.random.default_rng(seed)
        tensor = quantizer.quantize(rng.normal(0, 0.5, (rows, cols)), f"w.{seed}")
        engine = VectorizedIndexDomainEngine(tensor.dictionary, tensor.dictionary)
        return engine._build_plane_set(tensor, "rhs", tensor.shape)

    def test_lru_eviction_under_byte_budget(self, quantizer):
        sets = [self._plane_set(quantizer, seed=s) for s in range(3)]
        budget = sets[0].nbytes * 2 + sets[1].nbytes // 2  # fits two, not three
        cache = PlaneCache(max_bytes=budget)
        for s, plane_set in enumerate(sets):
            cache.put((f"digest{s}", "rhs"), plane_set)
        assert len(cache) <= 2
        assert cache.stats().evictions >= 1
        # The oldest entry went first.
        assert cache.get(("digest0", "rhs")) is None
        assert cache.get(("digest2", "rhs")) is sets[2]
        assert cache.bytes_cached <= budget

    def test_counters_and_hit_rate(self, quantizer):
        cache = PlaneCache(max_bytes=1 << 30)
        plane_set = self._plane_set(quantizer)
        assert cache.get(("d", "rhs")) is None  # miss
        cache.put(("d", "rhs"), plane_set)
        assert cache.get(("d", "rhs")) is plane_set  # hit
        cache.note_attached_hit()
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.attached_hits) == (1, 1, 1)
        assert stats.hit_rate == pytest.approx(2 / 3)
        delta = cache.stats().minus(stats)
        assert delta.hits == 0 and delta.entries == stats.entries

    def test_budget_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_PLANE_CACHE_MB", "1.5")
        assert PlaneCache().max_bytes == 3 * 512 * 1024

    @pytest.mark.parametrize("raw", ["abc", "", "nan", "inf", "-inf", "-1", "1e400"])
    def test_bad_budget_environment_names_the_variable(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_PLANE_CACHE_MB", raw)
        with pytest.raises(ValueError, match="REPRO_PLANE_CACHE_MB") as info:
            PlaneCache()
        assert repr(raw) in str(info.value)

    def test_zero_budget_caches_nothing(self, quantizer):
        cache = PlaneCache(max_bytes=0)
        cache.put(("d", "rhs"), self._plane_set(quantizer))
        assert len(cache) == 0 and cache.bytes_cached == 0

    def test_use_plane_cache_restores_previous(self):
        original = get_plane_cache()
        try:
            inner = PlaneCache(max_bytes=1 << 20)
            with use_plane_cache(None):
                assert get_plane_cache() is None
                with use_plane_cache(inner):
                    assert get_plane_cache() is inner
                assert get_plane_cache() is None
            assert get_plane_cache() is original
        finally:
            set_plane_cache(original)

    def test_digest_cache_serves_equal_content_fresh_instance(self, quantizer):
        """Two quantizations of the same values share cached weight planes."""
        rng = np.random.default_rng(11)
        values = rng.normal(0, 0.4, (5, 6))
        act = quantizer.quantize(rng.normal(0, 1.0, (3, 5)), "a")
        first = quantizer.quantize(values, "w")
        second = quantizer.quantize(values, "w")
        assert first is not second
        assert first.content_digest() == second.content_digest()
        cache = PlaneCache(max_bytes=1 << 30)
        with use_plane_cache(cache):
            one_values, _ = index_domain_matmul(act, first)
            two_values, _ = index_domain_matmul(act, second)
        assert np.array_equal(one_values, two_values)
        stats = cache.stats()
        assert stats.hits >= 1  # the second GEMM reused the first's planes

    def test_per_request_operands_stay_out_of_the_digest_cache(self, quantizer):
        """Fresh requests re-read the weight planes and cache nothing new.

        The encoder's per-head K/V slices are right operands too, but
        they change every request, so they must never be cached.
        """
        from repro.transformer.index_model import IndexDomainModelExecutor

        executor = IndexDomainModelExecutor(MICRO_DECODER, quantizer=quantizer, seed=9)
        rng = np.random.default_rng(21)
        cache = PlaneCache(max_bytes=1 << 30)
        with use_plane_cache(cache):
            executor.forward(rng.normal(0.0, 1.0, (2, 6, 32)).astype(np.float32))
            first = cache.stats()
            for seq in (5, 7, 6):
                executor.forward(rng.normal(0.0, 1.0, (2, seq, 32)).astype(np.float32))
            later = cache.stats()
        assert (later.bytes_cached, later.entries) == (first.bytes_cached, first.entries)
        assert later.hits > first.hits and later.misses == first.misses

    def test_attached_planes_with_wrong_fit_are_rebuilt(self, quantizer):
        """A stale attachment (mismatched fit key) must not be trusted."""
        rng = np.random.default_rng(13)
        act = quantizer.quantize(rng.normal(0, 1.0, (2, 4)), "a")
        wgt = quantizer.quantize(rng.normal(0, 0.3, (4, 3)), "w")
        engine = VectorizedIndexDomainEngine(act.dictionary, wgt.dictionary)
        good = engine._build_plane_set(wgt, "rhs", wgt.shape)
        with use_plane_cache(None):
            oracle_values, oracle_stats = index_domain_matmul(act, wgt)
            bogus = type(good)(
                dec=good.dec.copy(),
                out=good.out.copy(),
                role="rhs",
                fit_key=(-1.0, -1.0, 1),  # no real fit looks like this
            )
            wgt._plane_sets = {"rhs": bogus}
            values, stats = index_domain_matmul(act, wgt)
        del wgt._plane_sets
        assert np.array_equal(values, oracle_values)
        assert stats == oracle_stats

    def test_plane_dtype_is_part_of_the_cache_key(self, quantizer):
        """The float32 default and a float64 engine never share cached planes."""
        rng = np.random.default_rng(17)
        act = quantizer.quantize(rng.normal(0, 1.0, (3, 5)), "a")
        wgt = quantizer.quantize(rng.normal(0, 0.4, (5, 4)), "w")
        cache = PlaneCache(max_bytes=1 << 30)
        with use_plane_cache(cache):
            for engine_cls in (VectorizedIndexDomainEngine, Float64Engine) * 2:
                engine = engine_cls(act.dictionary, wgt.dictionary)
                planes = engine._plane_set(wgt, "rhs", wgt.shape)
                assert planes.dec.dtype == engine_cls.plane_dtype
                assert engine.matmul(act, wgt).values.dtype == engine_cls.plane_dtype
        stats = cache.stats()
        assert stats.entries == 2
        assert stats.misses == 2  # one build per dtype; every later read hits

    def test_attached_planes_of_another_dtype_are_rebuilt(self, quantizer):
        """A float32 slab attachment is not used by a float64 engine."""
        rng = np.random.default_rng(19)
        slab, tensor = _slab_and_tensor(quantizer, rng, [3, 2], 8)
        act = quantizer.quantize(rng.normal(0.2, 1.0, (2, 4)), "q")
        with use_plane_cache(None):
            plain = _slice_quantized(tensor, slice(0, 4), transpose=True)
            oracle_values, oracle_stats = index_domain_matmul(act, plain, engine=Float64Engine)
            attached = _slice_quantized(tensor, slice(0, 4), transpose=True)
            attached._plane_sets = {"rhs": slab.plane_set(slice(0, 4), transpose=True)}
            assert attached._plane_sets["rhs"].dec.dtype == np.float32
            engine = Float64Engine(act.dictionary, attached.dictionary)
            assert engine._plane_set(attached, "rhs", attached.shape).dec.dtype == np.float64
            values, stats = index_domain_matmul(act, attached, engine=Float64Engine)
        assert values.dtype == np.float64
        assert np.array_equal(values, oracle_values)
        assert stats == oracle_stats
