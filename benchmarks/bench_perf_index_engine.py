"""Perf benchmarks of the quantization and index-domain compute hot paths.

Unlike the figure/table benchmarks (which regenerate the paper's
*results*), the ``bench_perf_*`` files measure this reproduction's own
*throughput* and write it to ``BENCH_PERF.json`` so the perf trajectory
is visible PR-over-PR:

* ``quantization`` — tensor fit+encode throughput (values/s);
* ``cold_path`` — the default Golden Dictionary build (4 x 50,000
  samples), its seconds **asserted** under a 1 s ceiling so the clustering
  can never silently fall back to a merge-at-a-time loop, plus one
  BERT-Base-width activation fit dominated by its outlier clustering;
* ``index_matmul`` — the scalar reference engine vs the vectorized
  engine on a layer-scale GEMM, with the speedup **asserted** against a
  conservative floor so vectorization can never silently regress back to
  the Python loop (>=100x at the full 128x768 @ 768x768 shape, >=20x on
  the tiny CI grid);
* ``encoder_layer`` — an end-to-end index-domain encoder-layer forward
  at realistic shape (BERT-Base, seq 128), which the scalar engine could
  only finish in hours;
* ``full_model`` — the whole encoder stack (BERT-Base, all 12 layers,
  seq 128) end to end in the index domain, per-GEMM (``oracle=True``)
  versus batched+plane-cached execution, with the speedup **asserted**
  so GEMM batching and the plane cache can never silently stop paying
  off, and the cold start (preparing the model — weights encoded,
  activations profiled — plus the first forward) **asserted** under a
  ceiling;
* ``decoder_kv_cache`` — a GPT-style decoder (prefill + autoregressive
  steps) attending against the encoded index-domain KV cache, with the
  incremental plane cache on (and the ``oracle=True`` rebuild path next
  to it), its tokens/s **asserted** against a floor 5x the seed
  measurement and its time to first token (fresh decoder through
  prefill) under a ceiling;
* ``decoder_multi_stream`` — several concurrent serving streams decoded
  in lockstep through ``MultiStreamDecoder``, their independent
  GEMMs batched across streams, with the share of the serving call spent
  outside the index-domain prefill and decode (the FP reference forward
  that ``output_rms_error`` is measured against) **asserted** under a
  ceiling so the reference keeps the cost of an FP32 forward.

Cold-vs-warm pairs (quantization, encoder layer, full model) measure the
fit memo, the prepared model and the plane cache directly: the warm leg
reruns the identical workload so every weight plane digest hits.  Tiny mode
(``REPRO_BENCH_TINY=1``) shrinks the shapes; the assertions stay.
"""

import gc
import time

import numpy as np
import pytest

from conftest import TINY_MODE, record_perf

from repro.core.golden_dictionary import (
    DEFAULT_NUM_REPEATS,
    DEFAULT_NUM_SAMPLES,
    generate_golden_dictionary,
)
from repro.core.index_compute import (
    IndexDomainEngine,
    VectorizedIndexDomainEngine,
    get_plane_cache,
    use_plane_cache,
)
from repro.core.quantizer import MokeyQuantizer
from repro.core.tensor_dictionary import TensorDictionary
from repro.transformer.config import TransformerConfig
from repro.transformer.index_model import (
    GPT_DECODER_CONFIG,
    IndexDomainModelExecutor,
    MultiStreamDecoder,
    execute_model,
)

# Layer-scale GEMM: the acceptance shape in full mode, a CI-sized grid in
# tiny mode.  The speedup floor is deliberately conservative (measured
# speedups are several times higher) so the assertion only fires when the
# vectorized path has actually degenerated.
if TINY_MODE:
    GEMM_M, GEMM_K, GEMM_N = 32, 128, 64
    SPEEDUP_FLOOR = 20.0
else:
    GEMM_M, GEMM_K, GEMM_N = 128, 768, 768
    SPEEDUP_FLOOR = 100.0


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _gemm_operands(mokey_quantizer, m, k, n, seed=0):
    rng = np.random.default_rng(seed)
    activations = rng.normal(0.3, 1.8, (m, k))
    flat = activations.ravel()
    picks = rng.choice(flat.size, max(1, int(0.045 * flat.size)), replace=False)
    flat[picks] = rng.choice([-1, 1], picks.size) * 40.0
    weights = rng.normal(0, 0.02, (k, n))
    flat = weights.ravel()
    picks = rng.choice(flat.size, max(1, int(0.015 * flat.size)), replace=False)
    flat[picks] = rng.choice([-1, 1], picks.size) * 0.25
    return (
        mokey_quantizer.quantize(activations, "activation"),
        mokey_quantizer.quantize(weights, "weight"),
    )


def test_perf_quantization(mokey_quantizer):
    """Tensor fit+encode throughput, cold (fresh fit) vs fit-memo warm."""
    rng = np.random.default_rng(7)
    values = rng.normal(0, 0.02, (GEMM_K, GEMM_N))
    cold_quantizer = MokeyQuantizer(mokey_quantizer.golden, fit_memo=False)
    cold_seconds = _best_of(lambda: cold_quantizer.quantize(values, "weight"))
    hits_before = mokey_quantizer.fit_memo_hits
    mokey_quantizer.quantize(values, "weight")  # prime the memo
    warm_seconds = _best_of(lambda: mokey_quantizer.quantize(values, "weight"))
    cold_throughput = values.size / cold_seconds
    warm_throughput = values.size / warm_seconds
    print(
        f"\nquantization: {values.size} values, cold {cold_seconds * 1e3:.1f} ms "
        f"({cold_throughput / 1e6:.1f} Mvalues/s), fit-memo warm "
        f"{warm_seconds * 1e3:.1f} ms ({warm_throughput / 1e6:.1f} Mvalues/s, "
        f"{cold_seconds / warm_seconds:.1f}x)"
    )
    record_perf(
        "quantization",
        {
            "values": int(values.size),
            "seconds": cold_seconds,
            "values_per_second": cold_throughput,
            "warm_seconds": warm_seconds,
            "warm_values_per_second": warm_throughput,
            "fit_memo_speedup": cold_seconds / warm_seconds,
        },
    )
    assert cold_throughput > 1e5  # fit+encode must stay far from pathological
    # The memo actually hit, and re-quantizing a seen tensor skips the fit.
    assert mokey_quantizer.fit_memo_hits > hits_before
    assert warm_seconds < cold_seconds


# The default Golden Dictionary measured ~0.15 s with batched clustering
# on a 2-vCPU container (4.7-5.5 s with the heap it replaced); the ceiling
# leaves ~5x headroom either way.  The same in tiny mode: the default build
# is what every MokeyQuantizer() pays.
GOLDEN_SECONDS_CEILING = 1.0


def test_perf_cold_path():
    """Golden Dictionary build and one activation outlier fit."""
    golden_seconds = _best_of(generate_golden_dictionary)
    golden = generate_golden_dictionary()
    rng = np.random.default_rng(11)
    activations = rng.normal(0.3, 1.8, (128, 768))
    flat = activations.ravel()
    picks = rng.choice(flat.size, int(0.02 * flat.size), replace=False)
    flat[picks] = 0.3 + rng.choice([-1, 1], picks.size) * rng.uniform(6, 12, picks.size) * 1.8
    fit_seconds = _best_of(lambda: TensorDictionary.fit("activation", golden, values=activations))
    dictionary = TensorDictionary.fit("activation", golden, values=activations)
    outliers = int(np.count_nonzero(np.abs(flat - dictionary.mean) > dictionary.threshold))
    print(
        f"\ncold path: default golden dictionary {golden_seconds:.3f} s "
        f"(ceiling {GOLDEN_SECONDS_CEILING} s), activation fit {activations.shape} "
        f"with {outliers} outliers {fit_seconds * 1e3:.1f} ms"
    )
    record_perf(
        "cold_path",
        {
            "golden_seconds": golden_seconds,
            "golden_seconds_ceiling": GOLDEN_SECONDS_CEILING,
            "golden_samples": DEFAULT_NUM_SAMPLES,
            "golden_repeats": DEFAULT_NUM_REPEATS,
            "activation_fit_seconds": fit_seconds,
            "activation_shape": list(activations.shape),
            "activation_outliers": outliers,
            "outlier_centroids": int(dictionary.outlier_centroids.size),
        },
    )
    assert dictionary.outlier_centroids.size == 16
    assert golden_seconds <= GOLDEN_SECONDS_CEILING, (
        f"default Golden Dictionary took {golden_seconds:.2f} s "
        f"(ceiling {GOLDEN_SECONDS_CEILING} s) — did the clustering fall back "
        "to one merge at a time?"
    )


def test_perf_index_matmul_scalar_vs_vectorized(mokey_quantizer):
    """The tentpole guarantee: vectorized >= {100x, 20x tiny} over scalar."""
    aq, wq = _gemm_operands(mokey_quantizer, GEMM_M, GEMM_K, GEMM_N)
    scalar_engine = IndexDomainEngine(aq.dictionary, wq.dictionary)
    vector_engine = VectorizedIndexDomainEngine(aq.dictionary, wq.dictionary)

    started = time.perf_counter()
    scalar_values, scalar_stats = scalar_engine.matmul(aq, wq)
    scalar_seconds = time.perf_counter() - started
    vector_seconds = _best_of(lambda: vector_engine.matmul(aq, wq))
    result = vector_engine.matmul(aq, wq)

    speedup = scalar_seconds / vector_seconds
    macs = GEMM_M * GEMM_K * GEMM_N
    print(
        f"\nindex matmul {GEMM_M}x{GEMM_K} @ {GEMM_K}x{GEMM_N}: "
        f"scalar {scalar_seconds:.2f}s, vectorized {vector_seconds * 1e3:.1f} ms "
        f"({speedup:.0f}x, {macs / vector_seconds / 1e9:.2f} Gpairs/s vectorized)"
    )
    record_perf(
        "index_matmul",
        {
            "shape": [GEMM_M, GEMM_K, GEMM_N],
            "scalar_seconds": scalar_seconds,
            "vectorized_seconds": vector_seconds,
            "speedup": speedup,
            "speedup_floor": SPEEDUP_FLOOR,
            "vectorized_pairs_per_second": macs / vector_seconds,
        },
    )
    # Equivalence: same values (fp tolerance), identical statistics.
    assert np.allclose(scalar_values, result.values, rtol=1e-9, atol=1e-8)
    assert result.stats == scalar_stats
    assert speedup >= SPEEDUP_FLOOR, (
        f"vectorized engine only {speedup:.1f}x over scalar "
        f"(floor {SPEEDUP_FLOOR}x) — did a code path fall back to Python loops?"
    )


def test_perf_encoder_layer_index_domain(mokey_quantizer):
    """End-to-end index-domain encoder layer at realistic shape."""
    if TINY_MODE:
        model = TransformerConfig(
            name="bert-base-tiny",
            num_layers=1,
            hidden_size=96,
            num_heads=4,
            intermediate_size=384,
            vocab_size=512,
        )
        sequence_length = 32
    else:
        model = "bert-base"
        sequence_length = 128
    executor = IndexDomainModelExecutor(model, num_layers=1, quantizer=mokey_quantizer)
    states = np.random.default_rng(2).normal(
        0.0, 1.0, size=(1, sequence_length, executor.config.hidden_size)
    ).astype(np.float32)
    measurement = executor.forward(states)
    # Warm forward: identical inputs and the same prepared layer, so every
    # weight plane digest hits — the "warm model forward" the plane cache
    # exists for.
    warm = executor.forward(states)
    pairs = measurement.stats.total_pairs
    warm_cache = warm.plane_cache.to_dict() if warm.plane_cache else {}
    print(
        f"\nencoder layer ({measurement.model}, seq {sequence_length}): "
        f"{measurement.total_seconds:.2f}s total "
        f"(quantize {measurement.quantize_seconds:.2f}s, "
        f"engine {measurement.engine_seconds:.2f}s), warm "
        f"{warm.total_seconds:.2f}s (quantize {warm.quantize_seconds:.2f}s, "
        f"plane hit rate {warm_cache.get('hit_rate', 0.0):.2f}), "
        f"{pairs / 1e6:.0f} Mpairs, outlier {100 * measurement.outlier_pair_fraction:.2f}%, "
        f"output RMS err {measurement.output_rms_error:.4f}"
    )
    record_perf(
        "encoder_layer",
        {
            "model": measurement.model,
            "sequence_length": sequence_length,
            "total_seconds": measurement.total_seconds,
            "quantize_seconds": measurement.quantize_seconds,
            "engine_seconds": measurement.engine_seconds,
            "warm_total_seconds": warm.total_seconds,
            "warm_quantize_seconds": warm.quantize_seconds,
            "warm_plane_cache": warm_cache,
            "pairs": pairs,
            "pairs_per_second": pairs / max(measurement.engine_seconds, 1e-9),
            "outlier_pair_fraction": measurement.outlier_pair_fraction,
            "output_rms_error": measurement.output_rms_error,
        },
    )
    # "Completes in seconds": a full BERT-Base layer at seq 128 must stay
    # far below a minute (the scalar engine would need hours).
    assert measurement.total_seconds < 60.0
    assert measurement.output_rms_error < 0.5
    assert 0.0 < measurement.outlier_pair_fraction < 0.2
    # Caching is a pure execution strategy: the warm forward replays the
    # identical arithmetic (bit-identical op counts).  Weights were encoded
    # when the layer was prepared, so it finds every weight plane cached,
    # and the per-request K/V operands never enter the cache to miss.
    assert warm.stats == measurement.stats
    assert warm_cache["misses"] == 0 and warm_cache["hits"] > 0


# Full-model shapes: all of BERT-Base in full mode, a two-layer nano
# stack in tiny mode.  The speedup floor compares a warmed batched+cached
# executor against per-GEMM execution with no plane cache, each leg the
# best of MODEL_REPEATS forwards; it is deliberately conservative so the
# assertion only fires when batching or caching has actually stopped
# working.  The cold-start and time-to-first-token ceilings are ~2x the
# measured values (2-CPU x86_64 host): they fire when a model is fitted
# at run time again, or its preparation regresses badly.
MODEL_REPEATS = 3
if TINY_MODE:
    MODEL_SPEC = TransformerConfig(
        name="bert-nano",
        num_layers=2,
        hidden_size=96,
        num_heads=4,
        intermediate_size=384,
        vocab_size=512,
    )
    MODEL_SEQ = 32
    MODEL_SPEEDUP_FLOOR = 1.1
    COLD_START_CEILING = 0.4
    DECODER_SPEC = TransformerConfig(
        name="gpt-nano",
        num_layers=2,
        hidden_size=96,
        num_heads=4,
        intermediate_size=384,
        vocab_size=512,
    )
    PROMPT_LENGTH, DECODE_TOKENS = 16, 4
    # Plane-cached decode floor: conservative (measured is several times
    # higher) so CI only fires when the incremental cache stops working.
    DECODER_TPS_FLOOR = 2.0
    TTFT_CEILING = 0.3
    STREAMS, STREAM_PROMPT, STREAM_DECODE = 2, 8, 4
    # At this width the reference forward is cheap either way: the share
    # measured 0.07-0.23 with float64 per-stream GEMMs and 0.08-0.16 with
    # grouped FP32 ones, so the tiny ceiling only catches gross regressions.
    ORACLE_SHARE_CEILING = 0.5
else:
    MODEL_SPEC = "bert-base"
    MODEL_SEQ = 128
    MODEL_SPEEDUP_FLOOR = 1.5
    COLD_START_CEILING = 20.0
    DECODER_SPEC = GPT_DECODER_CONFIG
    PROMPT_LENGTH, DECODE_TOKENS = 32, 8
    # Half the lowest measured plane-cached decode rate (6.4-7.9 tokens/s
    # on a 2-CPU x86_64 host with one decoded GEMM per weight group), so
    # it fires only when the engine or the incremental cache regresses.
    DECODER_TPS_FLOOR = 3.2
    TTFT_CEILING = 20.0
    STREAMS, STREAM_PROMPT, STREAM_DECODE = 4, 16, 8
    # Between the measured shares (2-CPU x86_64 host): 0.39-0.44 with a
    # float64 reference forward issuing one GEMV per stream, 0.19-0.44
    # with grouped FP32 GEMMs replaying every decode step, 0.10-0.14 with
    # one causal FP32 pass per run.
    ORACLE_SHARE_CEILING = 0.25


def _release_planes() -> None:
    """Drop resident planes so a cold leg is not coloured by suite order."""
    resident = get_plane_cache()
    if resident is not None:
        resident.clear()
    gc.collect()


def test_perf_full_model_index_domain(mokey_quantizer):
    """End-to-end encoder stack: per-GEMM baseline vs batched+cached."""
    # The baseline must measure the truly uncached cost: a fresh quantizer
    # with the fit memo off, and the module-global plane cache disabled —
    # otherwise the session fixture's caches would speed up the "per-GEMM"
    # leg and understate the real speedup.
    baseline_quantizer = MokeyQuantizer(mokey_quantizer.golden, fit_memo=False)
    with use_plane_cache(None):
        baseline = min(
            (
                execute_model(
                    MODEL_SPEC,
                    sequence_length=MODEL_SEQ,
                    quantizer=baseline_quantizer,
                    oracle=True,
                )
                for _ in range(MODEL_REPEATS)
            ),
            key=lambda measurement: measurement.total_seconds,
        )
    del baseline_quantizer  # and its prepared model
    # Cold start: a fresh quantizer (no prepared model, no fit memo) and
    # no resident planes, timed from the constructor through the first
    # forward — what a user serving a new model waits for.
    _release_planes()
    started = time.perf_counter()
    executor = IndexDomainModelExecutor(
        MODEL_SPEC, quantizer=MokeyQuantizer(mokey_quantizer.golden)
    )
    cold = execute_model(MODEL_SPEC, sequence_length=MODEL_SEQ, executor=executor)
    cold_start_seconds = time.perf_counter() - started
    warm = min(
        (
            execute_model(MODEL_SPEC, sequence_length=MODEL_SEQ, executor=executor)
            for _ in range(MODEL_REPEATS)
        ),
        key=lambda measurement: measurement.total_seconds,
    )

    speedup = baseline.total_seconds / warm.total_seconds
    pairs = warm.stats.total_pairs
    warm_cache = warm.plane_cache.to_dict() if warm.plane_cache else {}
    print(
        f"\nfull model ({baseline.model}, {baseline.num_layers} layers, "
        f"seq {MODEL_SEQ}): per-GEMM {baseline.total_seconds:.2f}s, "
        f"batched+cached cold {cold.total_seconds:.2f}s / warm "
        f"{warm.total_seconds:.2f}s ({speedup:.2f}x, "
        f"cold start {cold_start_seconds:.2f}s, ceiling {COLD_START_CEILING}s, "
        f"{pairs / warm.engine_seconds / 1e9:.2f} Gpairs/s engine), "
        f"{warm.weight_cache_hits} cache hits, plane hit rate "
        f"{warm_cache.get('hit_rate', 0.0):.2f}, "
        f"output RMS err {warm.output_rms_error:.4f}"
    )
    record_perf(
        "full_model",
        {
            "model": baseline.model,
            "num_layers": baseline.num_layers,
            "sequence_length": MODEL_SEQ,
            "per_gemm_seconds": baseline.total_seconds,
            "batched_cold_seconds": cold.total_seconds,
            "batched_warm_seconds": warm.total_seconds,
            "cold_start_seconds": cold_start_seconds,
            "cold_start_seconds_ceiling": COLD_START_CEILING,
            "batched_vs_per_gemm_speedup": speedup,
            "speedup_floor": MODEL_SPEEDUP_FLOOR,
            "pairs": pairs,
            "pairs_per_second": pairs / max(warm.engine_seconds, 1e-9),
            "quantize_seconds_warm": warm.quantize_seconds,
            "engine_seconds_warm": warm.engine_seconds,
            "weight_cache_hits_warm": warm.weight_cache_hits,
            "warm_plane_cache": warm_cache,
            "outlier_pair_fraction": warm.outlier_pair_fraction,
            "output_rms_error": warm.output_rms_error,
        },
    )
    # Equivalence: batching + caching are pure execution strategies — the
    # operation counts and the numerical trajectory must not move.
    assert warm.stats == baseline.stats
    assert np.isclose(warm.output_rms_error, baseline.output_rms_error)
    # Weights are encoded when the model is prepared: every weight GEMM
    # of every forward, cold or warm, reads a stored encoding.
    assert warm.weight_cache_hits == 6 * warm.num_layers
    assert cold.weight_cache_hits == 6 * cold.num_layers
    assert cold_start_seconds <= COLD_START_CEILING, (
        f"cold start took {cold_start_seconds:.2f}s (ceiling "
        f"{COLD_START_CEILING}s) — is the model fitting at run time again?"
    )
    # A full BERT-Base forward must stay interactive (the scalar engine
    # would need days), and the optimisations must keep paying off.
    assert warm.total_seconds < 120.0
    assert speedup >= MODEL_SPEEDUP_FLOOR, (
        f"batched+cached full-model forward only {speedup:.2f}x over per-GEMM "
        f"(floor {MODEL_SPEEDUP_FLOOR}x) — did GEMM batching or the plane "
        f"cache stop being used?"
    )


def test_perf_decoder_kv_cache(mokey_quantizer):
    """GPT-style decode throughput against the encoded KV cache.

    The cached leg runs first on a fresh quantizer (no prepared model,
    cold planes) so its time to first token — constructor through
    prefill, the model prepared on the way — and its tokens/s are honest
    cold-process numbers.  The ``oracle=True`` leg then replays the
    identical workload per GEMM against the same prepared model with no
    plane cache, rebuilding every plane each step, so the comparison
    measures what batching and the caches remove — and its outputs/stats
    double as the bit-identity oracle.

    Earlier bench tests leave gigabytes of encoder planes resident in
    the process-wide cache; releasing them first keeps this a
    reproducible cold-cache measurement instead of one coloured by
    suite order and allocator pressure.
    """
    _release_planes()
    quantizer = MokeyQuantizer(mokey_quantizer.golden)
    started = time.perf_counter()
    decoder = MultiStreamDecoder(DECODER_SPEC, num_streams=1, quantizer=quantizer)
    construct_seconds = time.perf_counter() - started
    measurement = decoder.run(prompt_length=PROMPT_LENGTH, decode_tokens=DECODE_TOKENS)
    time_to_first_token = construct_seconds + measurement.prefill_seconds
    cached_tokens = decoder.cache.cached_tokens((0, 0))
    uncached = MultiStreamDecoder(
        DECODER_SPEC, num_streams=1, quantizer=quantizer, oracle=True
    ).run(prompt_length=PROMPT_LENGTH, decode_tokens=DECODE_TOKENS)
    cache = measurement.plane_cache.to_dict() if measurement.plane_cache else {}
    print(
        f"\ndecoder ({measurement.model}, {measurement.num_layers} layers, "
        f"prompt {PROMPT_LENGTH} + {DECODE_TOKENS} steps): "
        f"time to first token {time_to_first_token:.2f}s (ceiling "
        f"{TTFT_CEILING}s), prefill {measurement.prefill_seconds:.2f}s, decode "
        f"{measurement.decode_seconds:.2f}s "
        f"({measurement.tokens_per_second:.2f} tokens/s, floor "
        f"{DECODER_TPS_FLOOR}), oracle plane-rebuild path "
        f"{uncached.tokens_per_second:.2f} tokens/s, plane hit rate "
        f"{cache.get('hit_rate', 0.0):.2f}, "
        f"{measurement.stats.total_pairs / 1e6:.1f} Mpairs, "
        f"output RMS err {measurement.output_rms_error:.4f}"
    )
    record_perf(
        "decoder_kv_cache",
        {
            "model": measurement.model,
            "num_layers": measurement.num_layers,
            "prompt_length": PROMPT_LENGTH,
            "decode_tokens": DECODE_TOKENS,
            "time_to_first_token": time_to_first_token,
            "time_to_first_token_ceiling": TTFT_CEILING,
            "prefill_seconds": measurement.prefill_seconds,
            "decode_seconds": measurement.decode_seconds,
            "tokens_per_second": measurement.tokens_per_second,
            "tokens_per_second_floor": DECODER_TPS_FLOOR,
            "tokens_per_second_plane_rebuild": uncached.tokens_per_second,
            "plane_cache": cache,
            "pairs": measurement.stats.total_pairs,
            "cached_tokens": cached_tokens,
            "outlier_pair_fraction": measurement.stats.outlier_pair_fraction,
            "output_rms_error": measurement.output_rms_error,
        },
    )
    # The cache must hold exactly one K/V row per processed token, and
    # decoding against encoded K/V must stay interactive and accurate.
    assert cached_tokens == PROMPT_LENGTH + DECODE_TOKENS
    assert measurement.output_rms_error < 0.5
    # Bit-identity: the incremental plane cache is a pure execution
    # strategy — outputs and op counts match the uncached oracle exactly.
    assert np.array_equal(measurement.outputs[0], uncached.outputs[0])
    assert measurement.stats == uncached.stats
    assert time_to_first_token <= TTFT_CEILING, (
        f"time to first token {time_to_first_token:.2f}s (ceiling "
        f"{TTFT_CEILING}s) — is the decoder fitting at run time again?"
    )
    # Plane-cached decode must stay at or above the floor.
    assert measurement.tokens_per_second >= DECODER_TPS_FLOOR, (
        f"plane-cached decode only {measurement.tokens_per_second:.2f} "
        f"tokens/s (floor {DECODER_TPS_FLOOR}) — did the incremental "
        f"plane cache stop being used?"
    )


def test_perf_decoder_multi_stream(mokey_quantizer):
    """Lockstep multi-stream decode through ``MultiStreamDecoder``.

    An untimed one-token call first prepares the model and caches its
    weight planes, as a deployment does before serving, so the timed
    call's share does not depend on suite order.  ``run_seconds`` times
    the whole serving call; ``oracle_share`` is the part of it outside
    the index-domain prefill and decode: the FP reference forward, plus
    bookkeeping.
    """
    quantizer = MokeyQuantizer(mokey_quantizer.golden)
    MultiStreamDecoder(DECODER_SPEC, num_streams=1, quantizer=quantizer).run(
        prompt_length=1, decode_tokens=0
    )
    started = time.perf_counter()
    result = MultiStreamDecoder(DECODER_SPEC, num_streams=STREAMS, quantizer=quantizer).run(
        prompt_length=STREAM_PROMPT, decode_tokens=STREAM_DECODE
    )
    run_seconds = time.perf_counter() - started
    oracle_share = 1.0 - (result.prefill_seconds + result.decode_seconds) / run_seconds
    print(
        f"\nmulti-stream decode ({STREAMS} streams, prompt {STREAM_PROMPT} "
        f"+ {STREAM_DECODE} steps): prefill {result.prefill_seconds:.2f}s, "
        f"decode {result.decode_seconds:.2f}s "
        f"({result.tokens_per_second:.2f} aggregate tokens/s, "
        f"{result.per_stream_tokens_per_second:.2f} per stream), "
        f"whole call {run_seconds:.2f}s (FP reference share {oracle_share:.2f}, "
        f"ceiling {ORACLE_SHARE_CEILING}), "
        f"worst RMS err {result.output_rms_error:.4f}"
    )
    record_perf(
        "decoder_multi_stream",
        {
            **{
                field: getattr(result, field)
                for field in (
                    "num_streams",
                    "prompt_length",
                    "decode_tokens",
                    "tokens_per_second",
                    "per_stream_tokens_per_second",
                    "prefill_seconds",
                    "decode_seconds",
                    "output_rms_error",
                )
            },
            "plane_cache": (
                None if result.plane_cache is None else result.plane_cache.to_dict()
            ),
            "run_seconds": run_seconds,
            "oracle_share": oracle_share,
            "oracle_share_ceiling": ORACLE_SHARE_CEILING,
        },
    )
    assert result.output_rms_error < 0.5
    # Batching S streams into shared GEMMs must beat S serial decodes:
    # aggregate throughput clears the solo floor with streams to spare.
    assert result.tokens_per_second >= DECODER_TPS_FLOOR
    assert oracle_share <= ORACLE_SHARE_CEILING, (
        f"the FP reference forward took {oracle_share:.2f} of the serving call "
        f"(ceiling {ORACLE_SHARE_CEILING}) — is it back to float64 weights, "
        f"one GEMM per stream, or replaying every decode step?"
    )
