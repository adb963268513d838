"""Fit offline, encode online: one prepared artifact per model.

Mokey splits quantization into three steps (paper Section II):

1. **Weights, offline.**  Every weight tensor's dictionary is fitted and
   the tensor encoded once, when the model is deployed.
2. **Activations, profiled.**  One floating-point pass over a single
   batch of ~8 inputs gives every activation tensor's statistics; its
   dictionary is fitted from them and then frozen.
3. **Runtime: encode only.**  Each fresh activation is encoded against
   its profiled dictionary and multiplied against the stored weight
   encodings.  The accelerator has no fit unit.

:func:`prepare_model` runs steps 1-2 for one synthetic model and returns
a :class:`PreparedModel`; the index-domain executors and the KV-cache
decoder only ever do step 3 against it.  The profiling pass drives the
*executors' own layer dataflow* with floating-point GEMMs, so every
operand an executor later encodes — the attention K and V included — has
been profiled under the name the executor looks it up by.

Prepared models are memoised per quantizer by model identity
``(config, seed, depth, causal)``: every executor and decoder of one model
shares one artifact, and a decoder built per serving round fits nothing.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from itertools import cycle, islice
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.quantizer import MokeyQuantizer, QuantizedTensor
from repro.core.tensor_dictionary import TensorDictionary
from repro.transformer.attention import MultiHeadSelfAttention
from repro.transformer.config import TransformerConfig
from repro.transformer.encoder import EncoderBlock
from repro.transformer.layers import FeedForward, Linear
from repro.transformer.model_zoo import _layer_norm, _linear
from repro.transformer.profiling import ActivationProfiler
from repro.transformer.tensors import ActivationRecorder

__all__ = [
    "PROFILE_INPUTS",
    "PROFILE_LENGTHS",
    "PreparedLayer",
    "PreparedModel",
    "prepare_model",
]

#: Profiling batch: the paper profiles one batch of 8 inputs.
PROFILE_INPUTS = 8
#: Tokens of each profiling input, cycled over the batch.  Attention
#: probabilities scale as 1 / length, so one profiled length would leave
#: every other request length's probabilities outside their dictionary;
#: the batch spans the lengths executors are fed instead.
PROFILE_LENGTHS = (4, 8, 16, 32, 64, 128)
#: Values sub-sampled from each recorded activation to place outlier
#: centroids; mean, std and range come from every value.
PROFILE_SAMPLE_VALUES = 65536
#: Prepared models memoised per quantizer (least recently used go first):
#: each holds a model's FP blocks and its encoded weights.
PREPARED_PER_QUANTIZER = 2

#: The activation operands the KV cache stores: the right operands of the
#: score (K transposed) and context (V) GEMMs.
KEY_OPERAND = "attention.scores.weight"
VALUE_OPERAND = "attention.context.weight"


@dataclass
class PreparedLayer:
    """One layer of a :class:`PreparedModel`.

    Attributes:
        index: Depth of the layer in its model.
        block: The layer's FP encoder block.
        weights: Encoded weight per GEMM name (``attention.query``, ...).
        dictionaries: Profiled dictionary per activation operand, named
            ``"<gemm>.in"`` (left operand) or ``"<gemm>.weight"`` (an
            activation right operand: K for the scores, V for the context).
    """

    index: int
    block: EncoderBlock
    weights: Dict[str, QuantizedTensor]
    dictionaries: Dict[str, TensorDictionary]

    @property
    def kv_dictionaries(
        self,
    ) -> Tuple[Optional[TensorDictionary], Optional[TensorDictionary]]:
        """The profiled K and V dictionaries (``None`` while profiling)."""
        return self.dictionaries.get(KEY_OPERAND), self.dictionaries.get(VALUE_OPERAND)


@dataclass
class PreparedModel:
    """A synthetic model after Steps 1-2: FP blocks, encoded weights and
    profiled activation dictionaries, shared by every executor of it.

    Attributes:
        config: The model configuration.
        seed: Seed the block weights were drawn from.
        causal: Whether activations were profiled through the causal
            (decoder) dataflow rather than the bidirectional encoder one.
        layers: The prepared layers, in depth order.
    """

    config: TransformerConfig
    seed: int
    causal: bool
    layers: List[PreparedLayer]


def _build_block(config: TransformerConfig, seed: int) -> EncoderBlock:
    """One synthetic encoder block at full configured width."""
    rng = np.random.default_rng(seed)
    h = config.hidden_size
    if config.disentangled_attention:
        relative_key = _linear(rng, h, h)
        relative_query = _linear(rng, h, h)
        relative_embedding = np.random.default_rng(seed + 1).normal(
            0.0, 0.02, size=(2 * min(64, config.max_position_embeddings), h)
        ).astype(np.float32)
    else:
        relative_key = relative_query = relative_embedding = None
    attention = MultiHeadSelfAttention(
        query=_linear(rng, h, h),
        key=_linear(rng, h, h),
        value=_linear(rng, h, h),
        output=_linear(rng, h, h),
        num_heads=config.num_heads,
        relative_key=relative_key,
        relative_query=relative_query,
        relative_embedding=relative_embedding,
    )
    ffn = FeedForward(
        intermediate=_linear(rng, h, config.intermediate_size),
        output=_linear(rng, config.intermediate_size, h),
    )
    return EncoderBlock(
        attention=attention,
        attention_norm=_layer_norm(rng, h, config.layer_norm_eps),
        ffn=ffn,
        output_norm=_layer_norm(rng, h, config.layer_norm_eps),
    )


def _block_linears(block: EncoderBlock) -> Dict[str, Linear]:
    """Every weight layer of ``block`` under the GEMM name that reads it."""
    attn = block.attention
    linears = {
        "attention.query": attn.query,
        "attention.key": attn.key,
        "attention.value": attn.value,
        "attention.output": attn.output,
        "ffn.intermediate": block.ffn.intermediate,
        "ffn.output": block.ffn.output,
    }
    if attn.disentangled:
        linears["attention.relative_query"] = attn.relative_query
        linears["attention.relative_key"] = attn.relative_key
    return linears


class FPRunner:
    """The executors' ``gemm`` contract in FP32: the reference forward.

    Drives the executors' layer dataflow with float GEMMs, as the
    original FP32 model would run it: the reference every executor and
    decoder measures ``output_rms_error`` against.  Items that share one
    :class:`Linear` run as one row-concatenated GEMM (the decoder's
    streams collapse to one call per weight), and each activation is
    cast to the weight's dtype first, as an FP32 datapath would.  The
    cast matters: under NumPy's NEP 50 promotion rules
    :func:`~repro.transformer.functional.gelu` returns float64 for
    float32 input (``np.sqrt(2.0)`` is a float64 scalar), which would
    turn every ``ffn.output`` GEMM into a float64 copy of the weight and
    a double-precision product.  ``gelu`` itself stays as it is: the FP
    model's accuracy goldens pin its output.  Activation right operands
    (the K/V of the score and context GEMMs) run one product per item.
    """

    def gemm(
        self,
        measurements: Dict[str, Any],
        items: Sequence[Tuple[str, np.ndarray, Any]],
        layer: PreparedLayer,
    ) -> List[np.ndarray]:
        outputs: List[Any] = [None] * len(items)
        groups: Dict[int, List[int]] = {}
        for position, (_name, x, rhs) in enumerate(items):
            if isinstance(rhs, Linear):
                groups.setdefault(id(rhs), []).append(position)
            else:
                outputs[position] = x @ rhs
        for positions in groups.values():
            linear = items[positions[0]][2]
            rows = [items[position][1] for position in positions]
            product = (
                np.concatenate(rows, dtype=linear.weight.dtype) @ linear.weight
                + linear.bias
            )
            ends = np.cumsum([len(x) for x in rows])[:-1]
            for position, output in zip(positions, np.split(product, ends)):
                outputs[position] = output
        return outputs


class _ProfilingRunner:
    """The FP pass of Step 2: records each activation operand under the
    name the executor encodes it by, per layer.

    Its GEMMs are one product per item at the operands' own precision,
    not :class:`FPRunner`'s grouped FP32 ones: these numerics define the
    profiled dictionaries, so they stay fixed.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.profilers: Dict[int, ActivationProfiler] = {}
        self.recorders: Dict[int, ActivationRecorder] = {}

    def gemm(
        self,
        measurements: Dict[str, Any],
        items: Sequence[Tuple[str, np.ndarray, Any]],
        layer: PreparedLayer,
    ) -> List[np.ndarray]:
        from repro.transformer.index_execution import _activation_operands

        profiler = self.profilers.setdefault(layer.index, ActivationProfiler())
        recorder = self.recorders.get(layer.index)
        if recorder is None:
            recorder = ActivationRecorder(
                max_values_per_tensor=PROFILE_SAMPLE_VALUES,
                seed=self.seed + layer.index,
            )
            self.recorders[layer.index] = recorder
        for operand, name in _activation_operands(items):
            profiler(name, operand)
            recorder(name, operand)
        return [
            x @ rhs.weight + rhs.bias if isinstance(rhs, Linear) else x @ rhs
            for _name, x, rhs in items
        ]

    def dictionaries(
        self, quantizer: MokeyQuantizer, index: int
    ) -> Dict[str, TensorDictionary]:
        samples = self.recorders[index].concatenated()
        return {
            name: quantizer.fit_dictionary_from_stats(
                name=f"layer{index}.{name}",
                mean=stats.mean,
                std=stats.std,
                minimum=stats.minimum,
                maximum=stats.maximum,
                samples=samples[name],
            )
            for name, stats in self.profilers[index].statistics.items()
        }


class FPKVCache:
    """The :class:`~repro.transformer.index_model.IndexKVCache` prefill
    contract on float rows: the decoder's FP oracle and causal profiling
    pass, each one causal pass over every stream's whole sequence."""

    def __init__(self) -> None:
        self._rows: Dict[Hashable, Tuple[np.ndarray, np.ndarray]] = {}

    def __contains__(self, layer: Hashable) -> bool:
        return layer in self._rows

    def cached_tokens(self, layer: Hashable) -> int:
        return self._rows[layer][0].shape[0]

    def prefill(
        self, layer: Hashable, keys: np.ndarray, values: np.ndarray, dictionaries: Any
    ) -> None:
        self._rows[layer] = (keys, values)

    def head_tensors(
        self, layer: Hashable, columns: slice
    ) -> Tuple[np.ndarray, np.ndarray]:
        keys, values = self._rows[layer]
        return keys[:, columns].T, values[:, columns]


def _prepare(
    config: TransformerConfig,
    seed: int,
    num_layers: int,
    quantizer: MokeyQuantizer,
    causal: bool,
) -> PreparedModel:
    from repro.transformer.index_execution import _encoder_layer
    from repro.transformer.index_model import _decoder_layer

    layers = []
    for index in range(num_layers):
        # Spaced seeds: _build_block consumes seed and seed + 1 internally.
        block = _build_block(config, seed + 10 * index)
        weights = {
            name: quantizer.quantize(
                np.asarray(linear.weight, dtype=np.float64), f"{name}.weight"
            )
            for name, linear in _block_linears(block).items()
        }
        layers.append(PreparedLayer(index, block, weights, {}))

    # A stream of the model seed no executor input is drawn from.
    rng = np.random.default_rng([seed, PROFILE_INPUTS])
    lengths = [
        min(tokens, config.max_position_embeddings)
        for tokens in islice(cycle(PROFILE_LENGTHS), PROFILE_INPUTS)
    ]
    inputs = [
        rng.normal(0.0, 1.0, size=(tokens, config.hidden_size)).astype(np.float32)
        for tokens in lengths
    ]
    runner = _ProfilingRunner(seed)
    if causal:
        # Streams of any lengths share the decoder's layer calls.
        cache = FPKVCache()
        for layer in layers:
            inputs = _decoder_layer(runner, {}, cache, layer, inputs)
    else:
        for length in sorted(set(lengths)):
            states = np.stack([rows for rows in inputs if rows.shape[0] == length])
            for layer in layers:
                states = _encoder_layer(runner, {}, layer, states)
    for layer in layers:
        layer.dictionaries = runner.dictionaries(quantizer, layer.index)
    return PreparedModel(config=config, seed=seed, causal=causal, layers=layers)


_MEMO: "weakref.WeakKeyDictionary[MokeyQuantizer, OrderedDict]" = weakref.WeakKeyDictionary()
_MEMO_LOCK = threading.Lock()


def prepare_model(
    config: TransformerConfig,
    seed: int,
    num_layers: int,
    quantizer: MokeyQuantizer,
    causal: bool = False,
) -> PreparedModel:
    """Steps 1-2 for one synthetic model, memoised per quantizer.

    Builds ``num_layers`` FP blocks (layer ``i`` from ``seed + 10 * i``),
    fits and encodes every weight, then profiles one seeded batch of
    :data:`PROFILE_INPUTS` synthetic inputs of :data:`PROFILE_LENGTHS`
    tokens — drawn like the executors' inputs, ``N(0, 1)`` hidden states
    — through the encoder dataflow, or the causal decoder dataflow when
    ``causal``, and fits one dictionary per (layer, activation operand).

    The result is memoised by ``(config, seed, num_layers, causal)`` for
    as long as ``quantizer`` lives, :data:`PREPARED_PER_QUANTIZER` models
    deep; it is never keyed on tensor content.  Callers must treat it as
    read-only.
    """
    key = (config, int(seed), int(num_layers), bool(causal))
    with _MEMO_LOCK:
        models = _MEMO.setdefault(quantizer, OrderedDict())
        prepared = models.get(key)
        if prepared is not None:
            models.move_to_end(key)
            return prepared
    prepared = _prepare(config, int(seed), int(num_layers), quantizer, bool(causal))
    with _MEMO_LOCK:
        prepared = models.setdefault(key, prepared)
        models.move_to_end(key)
        while len(models) > PREPARED_PER_QUANTIZER:
            models.popitem(last=False)
    return prepared
