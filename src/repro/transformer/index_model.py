"""Full-model index-domain execution: encoder stacks and a KV-cache decoder.

:mod:`repro.transformer.index_execution` runs *one* encoder layer with
every GEMM in the index domain; this module scales that to whole models:

* :class:`IndexDomainModelExecutor` / :func:`execute_model` — the one
  way to run an encoder: a stack of any depth (``num_layers=1`` for one
  layer, up to BERT-Base/Large depth) executes forward layer by layer,
  each layer's index-domain output feeding the next.  Weights and
  activation dictionaries come from the model's
  :class:`~repro.transformer.prepared.PreparedModel`, shared by every
  executor and decoder of the model, so every weight tensor is quantized
  exactly once per model and nothing is fitted at run time.  The FP
  forward of the same blocks, run through the same layer dataflow with
  FP32 GEMMs, is the accuracy oracle at every depth.
* :class:`IndexKVCache` — a GPT-style decoder attention path.  The
  cache stores the *encoded* K/V rows: prefill and every appended
  decode row encode against the layer's profiled K/V dictionaries, so
  the growing cache stays one valid
  :class:`~repro.core.quantizer.QuantizedTensor` per tensor and per-head
  slices share the dictionary (the index-domain engine requires both).
  Each decode step quantizes only the new query/probability rows and
  multiplies them against the cached encodings — the per-step work the
  accelerator would do.  The correctness oracle is one causal FP32 pass
  over each stream's whole teacher-forced input sequence.
* :class:`MultiStreamDecoder` — the one way to run a decoder: a single
  stream-batched layer function serves the prompt pass and every decode
  step of any number of lockstep streams (``num_streams=1`` is a solo
  decode).

Sequential layer dependencies mean a single forward issues its
*independent* GEMMs (per-head score/context products, the Q/K/V
projections over one shared input) together, but only GEMMs that share
a weight object share a BLAS call; the cross-layer wins come from the
prepared model and from :func:`repro.core.index_compute.
index_domain_matmul_many`, which callers with independent GEMM sets
against one weight (multi-stream serving, replayed traces) can feed
directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Tuple, Union

import numpy as np

from repro.core.index_compute import (
    IndexComputeStats,
    PlaneCacheStats,
    PlaneSet,
    get_plane_cache,
)
from repro.core.quantizer import MokeyQuantizer, QuantizedTensor
from repro.core.tensor_dictionary import EncodedValues, TensorDictionary
from repro.transformer.config import TransformerConfig
from repro.transformer.functional import gelu, softmax
from repro.transformer.index_execution import (
    GemmMeasurement,
    IndexDomainEncoderExecutor,
    LayerMeasurement,
    _encoder_layer,
)
from repro.transformer.model_zoo import MODEL_CONFIGS
from repro.transformer.prepared import FPKVCache, FPRunner, PreparedLayer, prepare_model

__all__ = [
    "GPT_DECODER_CONFIG",
    "ModelMeasurement",
    "MultiStreamDecodeMeasurement",
    "IndexDomainModelExecutor",
    "IndexKVCache",
    "MultiStreamDecoder",
    "execute_model",
]

#: GPT-2-small-shaped decoder configuration for the KV-cache path.  Not
#: registered in the model zoo: the zoo enumerates the paper's Table I
#: encoder models and their goldens must stay unchanged.
GPT_DECODER_CONFIG = TransformerConfig(
    name="gpt2-small",
    num_layers=12,
    hidden_size=768,
    num_heads=12,
    intermediate_size=3072,
    vocab_size=50257,
    max_position_embeddings=1024,
)


def _resolve_config(model: Union[str, TransformerConfig]) -> TransformerConfig:
    if isinstance(model, TransformerConfig):
        return model
    if model not in MODEL_CONFIGS:
        raise KeyError(f"unknown model {model!r}; known: {sorted(MODEL_CONFIGS)}")
    return MODEL_CONFIGS[model]


def _relative_rms(output: np.ndarray, reference: np.ndarray) -> float:
    """RMS of ``output - reference`` relative to the reference RMS."""
    reference_rms = float(np.sqrt(np.mean(np.square(reference)))) or 1.0
    return float(np.sqrt(np.mean(np.square(output - reference)))) / reference_rms


def _plane_cache_stats(
    executor: IndexDomainEncoderExecutor, since: Optional[PlaneCacheStats] = None
) -> Optional[PlaneCacheStats]:
    """Plane-cache counters (minus ``since``); ``None`` when not in use."""
    cache = None if executor.oracle else get_plane_cache()
    if cache is None:
        return None
    stats = cache.stats()
    return stats if since is None else stats.minus(since)


@dataclass
class ModelMeasurement:
    """Measured index-domain execution of a whole encoder stack.

    Attributes:
        model: Configuration name the stack was built from.
        sequence_length: Tokens per input.
        batch_size: Inputs per pass.
        num_layers: Encoder layers executed.
        layers: Per-layer measurements, in depth order.  Each layer's
            ``output_rms_error`` is measured against the FP forward at
            the same depth, so quantization error *accumulated* across
            the stack is visible layer by layer.
        stats: Operation counts merged over every GEMM of every layer.
        quantize_seconds: Total activation-operand encode wall time.
        engine_seconds: Total index-domain compute wall time.
        total_seconds: Wall time of the index-domain model forward; the
            FP reference forward is not included.
        output_rms_error: RMS error of the final hidden states against
            the FP forward, relative to the FP output RMS.
        weight_cache_hits: GEMMs served from stored weight encodings
            during this forward (one per weight GEMM, cold or warm).
        plane_cache: Plane-cache counter delta over this forward
            (``None`` when caching is disabled).
    """

    model: str
    sequence_length: int
    batch_size: int
    num_layers: int
    layers: List[LayerMeasurement]
    stats: IndexComputeStats
    quantize_seconds: float
    engine_seconds: float
    total_seconds: float
    output_rms_error: float
    weight_cache_hits: int
    plane_cache: Optional[PlaneCacheStats] = None

    @property
    def outlier_pair_fraction(self) -> float:
        return self.stats.outlier_pair_fraction


class IndexDomainModelExecutor:
    """Runs a whole synthetic encoder stack with index-domain GEMMs.

    The stack is the quantizer's :class:`~repro.transformer.prepared.
    PreparedModel` for ``(model, seed, depth)`` — blocks built, weights
    encoded and activations profiled once, whichever executor asked
    first — so every forward only encodes activations and computes.

    Args:
        model: Model-zoo name or an explicit :class:`TransformerConfig`.
        num_layers: Optional cap on the executed depth (``None`` runs
            the configured depth).
        quantizer: Shared tensor quantizer; generated if omitted.
        engine: Registered engine name (``"vectorized"``, ``"torch"``,
            ``"scalar"``).
        device: Optional device for backends that take one.
        seed: Seed for the per-layer block weights.
        oracle: Run the uncached per-GEMM reference path (see
            :class:`IndexDomainEncoderExecutor`).
    """

    def __init__(
        self,
        model: Union[str, TransformerConfig] = "bert-base",
        num_layers: Optional[int] = None,
        quantizer: Optional[MokeyQuantizer] = None,
        engine: str = "vectorized",
        device: Optional[str] = None,
        seed: int = 0,
        oracle: bool = False,
    ) -> None:
        self.config = _resolve_config(model)
        depth = self.config.num_layers if num_layers is None else num_layers
        if depth < 1:
            raise ValueError(f"num_layers must be >= 1, got {depth}")
        self.num_layers = min(depth, self.config.num_layers)
        self.seed = seed
        self.executor = IndexDomainEncoderExecutor(
            quantizer=quantizer, engine=engine, device=device, oracle=oracle
        )
        self.prepared = prepare_model(
            self.config, seed, self.num_layers, self.executor.quantizer
        )

    @property
    def quantizer(self) -> MokeyQuantizer:
        return self.executor.quantizer

    @property
    def weight_cache_hits(self) -> int:
        return self.executor.weight_cache_hits

    def forward(self, hidden_states: np.ndarray) -> ModelMeasurement:
        """Forward ``(batch, seq, hidden)`` states through the whole stack.

        Every GEMM of every layer runs in the index domain; each layer's
        index-domain output feeds the next layer.  The FP forward of the
        same blocks over the same input — the same layer dataflow with
        FP32 GEMMs (:class:`~repro.transformer.prepared.FPRunner`) — is
        evaluated alongside as the accuracy oracle at every depth.
        """
        batch, seq, _hidden = hidden_states.shape
        hits_before = self.executor.weight_cache_hits
        cache_before = _plane_cache_stats(self.executor)
        layers: List[LayerMeasurement] = []
        fp_states = hidden_states
        index_states = hidden_states
        started = time.perf_counter()
        fp_seconds = 0.0
        fp_runner = FPRunner()
        for layer in self.prepared.layers:
            layer_started = time.perf_counter()
            index_states, gemms, quantize_seconds, engine_seconds = (
                self.executor.run_block(layer, index_states)
            )
            layer_seconds = time.perf_counter() - layer_started

            # The FP oracle trace rides along (excluded from the timings).
            fp_started = time.perf_counter()
            fp_states = _encoder_layer(fp_runner, {}, layer, fp_states)
            fp_seconds += time.perf_counter() - fp_started
            layer_stats = IndexComputeStats()
            for gemm in gemms:
                layer_stats.merge(gemm.stats)
            layers.append(
                LayerMeasurement(
                    model=self.config.name,
                    sequence_length=seq,
                    batch_size=batch,
                    gemms=gemms,
                    stats=layer_stats,
                    quantize_seconds=quantize_seconds,
                    engine_seconds=engine_seconds,
                    total_seconds=layer_seconds,
                    output_rms_error=_relative_rms(index_states, fp_states),
                )
            )
        total_seconds = time.perf_counter() - started - fp_seconds

        stats = IndexComputeStats()
        for measurement in layers:
            stats.merge(measurement.stats)
        return ModelMeasurement(
            model=self.config.name,
            sequence_length=seq,
            batch_size=batch,
            num_layers=self.num_layers,
            layers=layers,
            stats=stats,
            quantize_seconds=sum(m.quantize_seconds for m in layers),
            engine_seconds=sum(m.engine_seconds for m in layers),
            total_seconds=total_seconds,
            output_rms_error=layers[-1].output_rms_error,
            weight_cache_hits=self.executor.weight_cache_hits - hits_before,
            plane_cache=_plane_cache_stats(self.executor, cache_before),
        )


def execute_model(
    model: Union[str, TransformerConfig] = "bert-base",
    sequence_length: int = 128,
    batch_size: int = 1,
    num_layers: Optional[int] = None,
    quantizer: Optional[MokeyQuantizer] = None,
    engine: str = "vectorized",
    device: Optional[str] = None,
    seed: int = 0,
    oracle: bool = False,
    executor: Optional[IndexDomainModelExecutor] = None,
) -> ModelMeasurement:
    """Execute a whole encoder stack end-to-end in the index domain.

    Args:
        model: Model-zoo name (``"bert-base"``, ``"bert-large"``, ...)
            or an explicit :class:`TransformerConfig`.
        sequence_length: Tokens per input.
        batch_size: Inputs per pass.
        num_layers: Optional depth cap (tests and tiny benches).
        quantizer: Shared tensor quantizer; generated if omitted.
        engine: Registered engine name.
        device: Optional device for backends that take one.
        seed: Seed for the block weights and input activations.
        oracle: Run the uncached per-GEMM reference path (see
            :class:`IndexDomainEncoderExecutor`).
        executor: Reuse an existing model executor; the other
            construction arguments are then ignored.
    """
    if sequence_length < 1:
        raise ValueError(f"sequence_length must be >= 1, got {sequence_length}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if executor is None:
        executor = IndexDomainModelExecutor(
            model=model,
            num_layers=num_layers,
            quantizer=quantizer,
            engine=engine,
            device=device,
            seed=seed,
            oracle=oracle,
        )
    rng = np.random.default_rng(executor.seed + 7919)
    hidden_states = rng.normal(
        0.0, 1.0, size=(batch_size, sequence_length, executor.config.hidden_size)
    ).astype(np.float32)
    return executor.forward(hidden_states)


# --------------------------------------------------------------------------- #
# GPT-style decoder attention with an index-domain KV cache
# --------------------------------------------------------------------------- #
def _slice_quantized(
    tensor: QuantizedTensor, columns: slice, transpose: bool = False
) -> QuantizedTensor:
    """Column slice of a 2-D quantized tensor, sharing its dictionary.

    The encoding is elementwise, so any slice (and its transpose) of the
    codes is itself a valid encoding under the same dictionary — this is
    what lets every attention head read its ``head_dim`` columns of the
    cached K/V without re-quantizing.
    """
    codes = tensor.encoded.codes.reshape(tensor.shape)[:, columns]
    if transpose:
        codes = codes.T
    return QuantizedTensor(
        name=f"{tensor.name}[{columns.start}:{columns.stop}]",
        shape=codes.shape,
        encoded=EncodedValues(codes, tensor.encoded.half_entries),
        dictionary=tensor.dictionary,
    )


def _concat_quantized(old: QuantizedTensor, new: QuantizedTensor) -> QuantizedTensor:
    """Append ``new`` rows to ``old`` (same dictionary, same width)."""
    if old.dictionary is not new.dictionary:
        raise ValueError("can only concatenate encodings that share a dictionary")

    codes = np.concatenate(
        [old.encoded.codes.reshape(old.shape), new.encoded.codes.reshape(new.shape)], axis=0
    )
    return QuantizedTensor(
        name=old.name,
        shape=codes.shape,
        encoded=EncodedValues(codes, old.encoded.half_entries),
        dictionary=old.dictionary,
    )


class _PlaneSlab:
    """Incrementally grown decoded rows and outlier mask for one K/V tensor.

    Decoding is elementwise, so appending one encoded row's decoded slice
    to a grown buffer produces *bit-identical* arrays to decoding the
    full encoding — that is the whole correctness argument, and the
    property tests lock it.  Buffers double in capacity (amortised O(1)
    per appended row) and hold the outlier mask and the decoded centroids
    for every cached row; per-head plane sets are contiguous column
    slices of these buffers.
    """

    def __init__(self, dictionary: TensorDictionary, width: int) -> None:
        fit = dictionary.golden.fit
        # The engine's fit key, so its attached-plane check accepts ours.
        self.fit_key = (float(fit.a), float(fit.b), int(fit.num_entries))
        self._dictionary = dictionary
        self._width = int(width)
        self._rows = 0
        capacity = 16
        self._out = np.empty((capacity, self._width), dtype=bool)
        self._dec = np.empty((capacity, self._width), dtype=np.float64)

    def _ensure(self, rows: int) -> None:
        capacity = self._out.shape[0]
        if rows <= capacity:
            return
        while capacity < rows:
            capacity *= 2
        for name in ("_out", "_dec"):
            old = getattr(self, name)
            grown = np.empty((capacity, self._width), dtype=old.dtype)
            grown[: self._rows] = old[: self._rows]
            setattr(self, name, grown)

    def extend(self, tensor: QuantizedTensor) -> None:
        """Append decoded rows for ``tensor``'s rows beyond those already held."""
        total = int(tensor.shape[0])
        start = self._rows
        if total < start:
            raise ValueError(
                f"cached tensor shrank from {start} to {total} rows; plane "
                "slabs only grow"
            )
        if total == start:
            return
        self._ensure(total)
        codes = tensor.encoded.codes.reshape(tensor.shape)[start:total]
        new = EncodedValues(codes, tensor.encoded.half_entries)
        self._out[start:total] = new.is_outlier
        self._dec[start:total] = self._dictionary.decode(new, apply_fixed_point=False)
        self._rows = total

    def plane_set(self, columns: slice, transpose: bool = False) -> PlaneSet:
        """A weight-role :class:`PlaneSet` over ``columns`` of every row.

        Contiguous copies of the slab slices (transposed for the K side):
        the GEMM then consumes arrays byte-identical to the full-rebuild
        path's, so cached and uncached runs make the same BLAS calls.
        """
        rows = self._rows

        def pick(buffer: np.ndarray) -> np.ndarray:
            matrix = buffer[:rows, columns]
            return np.ascontiguousarray(matrix.T if transpose else matrix)

        return PlaneSet(
            dec=pick(self._dec), out=pick(self._out), role="rhs", fit_key=self.fit_key
        )


class IndexKVCache:
    """Per-layer cache of *encoded* key/value rows for decoder attention.

    :meth:`prefill` encodes against the layer's profiled K/V
    dictionaries and every :meth:`append` reuses them verbatim, so the
    growing cache remains one valid :class:`QuantizedTensor` per tensor:
    the index-domain engine requires a single dictionary per operand, and
    per-head column slices (:func:`_slice_quantized`) inherit it for
    free.  Nothing is fitted: each call encodes only the new rows — the
    per-token cache cost the hardware would pay.

    With ``incremental_planes`` (the default) the cache also maintains a
    :class:`_PlaneSlab` per tensor: each append decodes the *new rows*
    and takes their outlier mask once, and :meth:`head_tensors` hands the
    engine per-head plane sets assembled from the slab — so a decode
    step never re-decodes the whole cached history.  Bit identical to
    the rebuild path by construction (elementwise decoding commutes with
    slicing and concatenation).
    """

    def __init__(
        self, quantizer: MokeyQuantizer, incremental_planes: bool = True
    ) -> None:
        self.quantizer = quantizer
        self.incremental_planes = bool(incremental_planes)
        self._keys: Dict[Hashable, QuantizedTensor] = {}
        self._values: Dict[Hashable, QuantizedTensor] = {}
        self._slabs: Dict[Tuple[Hashable, str], _PlaneSlab] = {}

    def __contains__(self, layer: Hashable) -> bool:
        return layer in self._keys

    def cached_tokens(self, layer: Hashable) -> int:
        """Rows currently cached for ``layer`` (0 before prefill)."""
        tensor = self._keys.get(layer)
        return 0 if tensor is None else tensor.shape[0]

    def _extend_slabs(self, layer: Hashable) -> None:
        if not self.incremental_planes:
            return
        for kind, tensor in (
            ("key", self._keys[layer]),
            ("value", self._values[layer]),
        ):
            slab = self._slabs.get((layer, kind))
            if slab is None:
                slab = _PlaneSlab(tensor.dictionary, tensor.shape[1])
                self._slabs[(layer, kind)] = slab
            slab.extend(tensor)

    def prefill(
        self,
        layer: Hashable,
        keys: np.ndarray,
        values: np.ndarray,
        dictionaries: Tuple[Optional[TensorDictionary], Optional[TensorDictionary]],
    ) -> None:
        """Encode the prompt's K/V rows against the layer's ``(K, V)`` dictionaries."""
        if layer in self._keys:
            raise ValueError(f"layer {layer!r} is already prefilled")
        key_dictionary, value_dictionary = dictionaries
        if key_dictionary is None or value_dictionary is None:
            raise ValueError(f"layer {layer!r} needs profiled K/V dictionaries to prefill")
        self._keys[layer] = self.quantizer.quantize(
            np.asarray(keys, dtype=np.float64), f"kv.{layer}.key", dictionary=key_dictionary
        )
        self._values[layer] = self.quantizer.quantize(
            np.asarray(values, dtype=np.float64),
            f"kv.{layer}.value",
            dictionary=value_dictionary,
        )
        self._extend_slabs(layer)

    def append(self, layer: Hashable, keys: np.ndarray, values: np.ndarray) -> None:
        """Encode new K/V rows with the layer's dictionaries and append."""
        if layer not in self._keys:
            raise ValueError(f"layer {layer!r} must be prefilled before appending")
        key_tensor, value_tensor = self._keys[layer], self._values[layer]
        new_keys = self.quantizer.quantize(
            np.asarray(keys, dtype=np.float64),
            key_tensor.name,
            dictionary=key_tensor.dictionary,
        )
        new_values = self.quantizer.quantize(
            np.asarray(values, dtype=np.float64),
            value_tensor.name,
            dictionary=value_tensor.dictionary,
        )
        self._keys[layer] = _concat_quantized(key_tensor, new_keys)
        self._values[layer] = _concat_quantized(value_tensor, new_values)
        self._extend_slabs(layer)

    def tensors(self, layer: Hashable) -> Tuple[QuantizedTensor, QuantizedTensor]:
        """The cached ``(keys, values)`` quantized ``(tokens, hidden)`` tensors."""
        return self._keys[layer], self._values[layer]

    def head_tensors(
        self, layer: Hashable, columns: slice
    ) -> Tuple[QuantizedTensor, QuantizedTensor]:
        """One head's ``(keyᵀ, value)`` slices, planes attached when slabbed.

        The key slice arrives transposed (``(head_dim, tokens)``), ready
        to be the score GEMM's right operand; the value slice is
        ``(tokens, head_dim)`` for the context GEMM.  When incremental
        planes are on, both carry their slab-assembled plane sets, which
        the engine picks up instead of rebuilding.
        """
        key_slice = _slice_quantized(self._keys[layer], columns, transpose=True)
        value_slice = _slice_quantized(self._values[layer], columns)
        if self.incremental_planes:
            key_slice._plane_sets = {
                "rhs": self._slabs[(layer, "key")].plane_set(columns, transpose=True)
            }
            value_slice._plane_sets = {
                "rhs": self._slabs[(layer, "value")].plane_set(columns)
            }
        return key_slice, value_slice


def _decoder_layer(
    runner: Any,
    measurements: Dict[str, GemmMeasurement],
    cache: Any,
    layer: PreparedLayer,
    rows: List[np.ndarray],
) -> List[np.ndarray]:
    """One decoder layer for every stream, each GEMM family one call.

    ``rows[s]`` holds stream ``s``'s new ``(tokens, hidden)`` rows: the
    whole prompt at prefill, one row per decode step.  Stream ``s``
    keeps its K/V under ``(s, layer.index)`` in ``cache`` (prefilled on
    first sight, appended to afterwards) while every stream shares the
    layer's weight encodings.  New row ``i`` may attend to cached
    positions ``0..total - tokens + i``: the causal mask of a prefill,
    and no mask at all for a one-row step.  ``runner`` and ``cache`` are
    an executor and an :class:`IndexKVCache`, or an FP runner (the FP
    oracle, the profiling pass) and an FP cache, which only prefills.
    """
    block = layer.block
    attn = block.attention
    heads, head_dim = attn.num_heads, attn.head_dim
    streams = range(len(rows))
    projections = (
        ("attention.query", attn.query),
        ("attention.key", attn.key),
        ("attention.value", attn.value),
    )
    qkv = runner.gemm(
        measurements,
        [(name, rows[s], linear) for s in streams for name, linear in projections],
        layer,
    )
    for s in streams:
        _q, k, v = qkv[3 * s : 3 * s + 3]
        if (s, layer.index) in cache:
            cache.append((s, layer.index), k, v)
        else:
            cache.prefill((s, layer.index), k, v, layer.kv_dictionaries)

    head_slices = [slice(h * head_dim, (h + 1) * head_dim) for h in range(heads)]
    head_kv = [
        [cache.head_tensors((s, layer.index), columns) for columns in head_slices]
        for s in streams
    ]
    score_rows = runner.gemm(
        measurements,
        [
            ("attention.scores", qkv[3 * s][:, columns], head_kv[s][h][0])
            for s in streams
            for h, columns in enumerate(head_slices)
        ],
        layer,
    )
    probs = []
    for s in streams:
        tokens, total = rows[s].shape[0], cache.cached_tokens((s, layer.index))
        scores = np.stack(score_rows[s * heads : (s + 1) * heads]) / np.sqrt(head_dim)
        mask = np.triu(np.ones((tokens, total), dtype=bool), k=total - tokens + 1)
        probs.append(softmax(np.where(mask[None, :, :], -1e9, scores), axis=-1))

    context_rows = runner.gemm(
        measurements,
        [
            ("attention.context", probs[s][h], head_kv[s][h][1])
            for s in streams
            for h in range(heads)
        ],
        layer,
    )
    merged = [
        np.concatenate(context_rows[s * heads : (s + 1) * heads], axis=1)
        for s in streams
    ]
    attn_out = runner.gemm(
        measurements,
        [("attention.output", merged[s], attn.output) for s in streams],
        layer,
    )
    hidden = [
        block.attention_norm((rows[s] + attn_out[s]).astype(np.float32)[None])[0]
        for s in streams
    ]
    inter = runner.gemm(
        measurements,
        [("ffn.intermediate", hidden[s], block.ffn.intermediate) for s in streams],
        layer,
    )
    ffn_out = runner.gemm(
        measurements,
        [("ffn.output", gelu(inter[s]), block.ffn.output) for s in streams],
        layer,
    )
    return [
        block.output_norm((hidden[s] + ffn_out[s]).astype(np.float32)[None])[0]
        for s in streams
    ]


# --------------------------------------------------------------------------- #
# Multi-stream lockstep decoding (independent GEMMs batched across streams)
# --------------------------------------------------------------------------- #
@dataclass
class MultiStreamDecodeMeasurement:
    """Measured lockstep decode of several concurrent serving streams.

    Attributes:
        model: Configuration name the decoder was built from.
        num_streams: Concurrent streams decoded in lockstep.
        prompt_length: Prompt tokens per stream at prefill.
        decode_tokens: Autoregressive steps executed per stream.
        num_layers: Decoder layers executed.
        gemms: Per-GEMM measurements merged over prefill and all steps.
        stats: Operation counts merged over every GEMM.
        prefill_seconds: Wall time of the batched prefill pass (index
            path only; the FP reference forward is not included).
        decode_seconds: Wall time of the lockstep decode loop (index path
            only; the FP reference forward is not included).
        tokens_per_second: Aggregate decode throughput
            (``num_streams * decode_tokens / decode_seconds``).
        per_stream_tokens_per_second: Decode throughput of one stream.
        output_rms_error: Worst per-stream RMS error against each
            stream's FP oracle.
        outputs: Per-stream final-layer hidden states (prefill rows
            first, then one row per step).
        plane_cache: Plane-cache counter delta over the run (``None`` on
            the oracle path).
    """

    model: str
    num_streams: int
    prompt_length: int
    decode_tokens: int
    num_layers: int
    gemms: List[GemmMeasurement] = field(default_factory=list)
    stats: IndexComputeStats = field(default_factory=IndexComputeStats)
    prefill_seconds: float = 0.0
    decode_seconds: float = 0.0
    tokens_per_second: float = 0.0
    per_stream_tokens_per_second: float = 0.0
    output_rms_error: float = 0.0
    outputs: Optional[List[np.ndarray]] = None
    plane_cache: Optional[PlaneCacheStats] = None


class MultiStreamDecoder:
    """Decodes several independent streams through one shared model.

    All streams share the model's :class:`~repro.transformer.prepared.
    PreparedModel` (profiled causally; every decoder of the same model
    and quantizer shares it, so a decoder built per serving round fits
    nothing), the executor and one :class:`IndexKVCache` keyed
    ``(stream, layer)``.  Prefill and every decode step run in *lockstep*
    through :func:`_decoder_layer`: each GEMM family is issued as one
    ``index_domain_matmul_many`` call across streams — the projections
    share their weight tensor, so S streams collapse to one
    row-concatenated BLAS call; the per-head score/context GEMMs run
    against each stream's own KV slices, one product each.

    Stream ``s`` draws its inputs from ``default_rng(seed + 7919 +
    104729 * s)``, so stream 0 of any decoder reproduces a
    ``num_streams=1`` decoder with the same seed (values agree to
    floating-point round-off; GEMM grouping differs).  The block weights
    come from the construction-time ``seed``; the inputs from
    :attr:`seed` when :meth:`run` starts.

    Args:
        model: Decoder configuration (defaults to a GPT-2-small shape)
            or a model-zoo name.
        num_streams: Concurrent streams decoded in lockstep.
        num_layers: Optional depth cap (tests and tiny benches).
        quantizer: Shared tensor quantizer; generated if omitted.
        engine: Registered engine name.
        device: Optional device for backends that take one.
        seed: Seed for the block weights and the synthetic inputs.
        oracle: Run the uncached reference path (per-GEMM calls, no
            plane cache, KV planes rebuilt every step);
            outputs and stats equal the default path's.
    """

    def __init__(
        self,
        model: Union[str, TransformerConfig] = GPT_DECODER_CONFIG,
        num_streams: int = 4,
        num_layers: Optional[int] = None,
        quantizer: Optional[MokeyQuantizer] = None,
        engine: str = "vectorized",
        device: Optional[str] = None,
        seed: int = 0,
        oracle: bool = False,
    ) -> None:
        if num_streams < 1:
            raise ValueError(f"num_streams must be >= 1, got {num_streams}")
        self.config = _resolve_config(model)
        depth = self.config.num_layers if num_layers is None else num_layers
        depth = min(depth, self.config.num_layers)
        if depth < 1:
            raise ValueError(f"num_layers must be >= 1, got {depth}")
        self.num_layers = depth
        self.num_streams = int(num_streams)
        self.seed = seed
        self.executor = IndexDomainEncoderExecutor(
            quantizer=quantizer, engine=engine, device=device, oracle=oracle
        )
        self.prepared = prepare_model(
            self.config, seed, depth, self.executor.quantizer, causal=True
        )
        self.cache = IndexKVCache(
            self.executor.quantizer, incremental_planes=not oracle
        )

    def run(
        self, prompt_length: int = 16, decode_tokens: int = 8
    ) -> MultiStreamDecodeMeasurement:
        """Prefill every stream, then decode all of them in lockstep."""
        if prompt_length < 1:
            raise ValueError(f"prompt_length must be >= 1, got {prompt_length}")
        if decode_tokens < 0:
            raise ValueError(f"decode_tokens must be >= 0, got {decode_tokens}")
        measurements: Dict[str, GemmMeasurement] = {}
        rngs = [
            np.random.default_rng(self.seed + 7919 + 104729 * s)
            for s in range(self.num_streams)
        ]

        def draw(tokens: int) -> List[np.ndarray]:
            return [
                rng.normal(0.0, 1.0, size=(tokens, self.config.hidden_size)).astype(
                    np.float32
                )
                for rng in rngs
            ]

        def forward(rows: List[np.ndarray]) -> List[np.ndarray]:
            for layer in self.prepared.layers:
                rows = _decoder_layer(
                    self.executor, measurements, self.cache, layer, rows
                )
            return rows

        cache_before = _plane_cache_stats(self.executor)
        inputs = [draw(prompt_length)]
        started = time.perf_counter()
        index_outputs = [forward(inputs[0])]
        prefill_seconds = time.perf_counter() - started

        decode_started = time.perf_counter()
        for _step in range(decode_tokens):
            inputs.append(draw(1))
            index_outputs.append(forward(inputs[-1]))
        decode_seconds = time.perf_counter() - decode_started
        plane_cache = _plane_cache_stats(self.executor, cache_before)

        # The FP oracle: the same dataflow with float GEMMs, one causal
        # pass per layer over each stream's whole sequence.  No input
        # depends on an output (teacher forcing), so row i of that pass
        # is what the step that fed row i computes, and each weight
        # streams once per run instead of once per step.
        streams = range(self.num_streams)
        reference = [np.concatenate([step[s] for step in inputs]) for s in streams]
        fp_cache = FPKVCache()
        for layer in self.prepared.layers:
            reference = _decoder_layer(FPRunner(), {}, fp_cache, layer, reference)
        outputs = [np.concatenate([step[s] for step in index_outputs]) for s in streams]
        worst_rms = max(map(_relative_rms, outputs, reference))

        gemms = list(measurements.values())
        stats = IndexComputeStats()
        for gemm in gemms:
            stats.merge(gemm.stats)
        total_decoded = self.num_streams * decode_tokens
        return MultiStreamDecodeMeasurement(
            model=self.config.name,
            num_streams=self.num_streams,
            prompt_length=prompt_length,
            decode_tokens=decode_tokens,
            num_layers=self.num_layers,
            gemms=gemms,
            stats=stats,
            prefill_seconds=prefill_seconds,
            decode_seconds=decode_seconds,
            tokens_per_second=(
                total_decoded / decode_seconds if decode_seconds else 0.0
            ),
            per_stream_tokens_per_second=(
                decode_tokens / decode_seconds if decode_seconds else 0.0
            ),
            output_rms_error=worst_rms,
            outputs=outputs,
            plane_cache=plane_cache,
        )
