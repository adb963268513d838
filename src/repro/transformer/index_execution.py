"""Index-domain execution of encoder layers at model scale.

The analytical accelerator models count operations from GEMM *shapes*
plus assumed outlier rates; this module runs the counting datapath for
real: one full-width encoder block (BERT-Base hidden 768 up to
DeBERTa-XL hidden 1024, sequence lengths 128-512) executes forward with
**every GEMM computed by the index-domain engine** — the weights
encoded once when the layer was prepared, every activation encoded
against its profiled dictionary (:mod:`repro.transformer.prepared`) — over
the Q/K/V/output projections, the per-head attention score and
context products (both operands activations, like the hardware's
activation-by-activation GEMMs), the FFN pair, and DeBERTa's relative
projections.  Everything between GEMMs (bias, softmax, GELU, residuals,
LayerNorm) runs in floating point, mirroring the accelerator's
post-processing units.

The outcome is a :class:`LayerMeasurement`: per-GEMM *measured*
:class:`~repro.core.index_compute.IndexComputeStats` (Gaussian vs outlier
pair counts from the actual encodings, not the scheme's assumed
fractions), wall-clock timings of the encode and compute phases, and
the output error against the FP forward of the same block.  The campaign
engine joins these measured counts to scenario records
(``enrichments=Enrichments(measured=True)`` on a campaign spec) next to
the analytic counts the schemes report.

Only the vectorized engine makes this tractable — the scalar reference
engine would need hours per layer-scale GEMM — but the scalar engine
remains selectable for equivalence tests on scaled-down configurations.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.index_compute import (
    IndexComputeStats,
    PlaneCacheStats,
    get_plane_cache,
    index_domain_matmul_many,
    resolve_engine,
    use_plane_cache,
)
from repro.core.quantizer import MokeyQuantizer, QuantizedTensor
from repro.core.tensor_dictionary import EncodedValues, TensorDictionary
from repro.transformer.config import TransformerConfig
from repro.transformer.functional import gelu, softmax
from repro.transformer.layers import Linear
from repro.transformer.model_zoo import MODEL_CONFIGS
from repro.transformer.prepared import FPRunner, PreparedLayer, prepare_model

__all__ = [
    "GemmMeasurement",
    "LayerMeasurement",
    "IndexDomainEncoderExecutor",
    "execute_encoder_layer",
]

#: A GEMM's right operand: a weight layer, an encoded tensor or raw values.
Operand = Union[Linear, QuantizedTensor, np.ndarray]


@dataclass
class GemmMeasurement:
    """Measured outcome of all instances of one named layer GEMM.

    Attributes:
        name: Workload GEMM label (``attention.query``, ``ffn.output``, ...),
            matching :func:`repro.accelerator.workloads.encoder_gemms`.
        m, k, n: Shape of one instance.
        count: Instances executed (heads x batch for the attention
            score/context GEMMs, 1 otherwise).
        stats: Measured operation counts summed over all instances.
        quantize_seconds: Wall time spent encoding the activation operands
            (an operand family's one encode split evenly over its
            operands, see :meth:`IndexDomainEncoderExecutor.gemm`).
        engine_seconds: Wall time spent in the index-domain engine.
    """

    name: str
    m: int
    k: int
    n: int
    count: int = 0
    stats: IndexComputeStats = field(default_factory=IndexComputeStats)
    quantize_seconds: float = 0.0
    engine_seconds: float = 0.0


@dataclass
class LayerMeasurement:
    """Measured index-domain execution of one encoder layer.

    Attributes:
        model: Configuration name the block was built from.
        sequence_length: Tokens per input.
        batch_size: Inputs per pass.
        gemms: Per-GEMM measurements, in execution order.
        stats: Operation counts merged over every GEMM instance.
        quantize_seconds: Total activation-operand encode wall time.
        engine_seconds: Total index-domain compute wall time.
        total_seconds: Wall time of the index-domain layer forward; the
            FP reference forward is not included.
        output_rms_error: RMS error of the index-domain layer output
            against the FP forward, relative to the FP output RMS.
        plane_cache: Plane-cache counter delta over this measurement
            (``None`` when the caller did not capture one).
    """

    model: str
    sequence_length: int
    batch_size: int
    gemms: List[GemmMeasurement]
    stats: IndexComputeStats
    quantize_seconds: float
    engine_seconds: float
    total_seconds: float
    output_rms_error: float
    plane_cache: Optional[PlaneCacheStats] = None

    @classmethod
    def from_gemms(
        cls,
        model: str,
        hidden_states: np.ndarray,
        gemms: List[GemmMeasurement],
        total_seconds: float,
        output_rms_error: float,
        plane_cache: Optional[PlaneCacheStats] = None,
    ) -> "LayerMeasurement":
        """Fold one ``(batch, seq, hidden)`` forward's GEMM records."""
        stats = IndexComputeStats()
        for gemm in gemms:
            stats.merge(gemm.stats)
        batch, seq, _hidden = hidden_states.shape
        return cls(
            model=model,
            sequence_length=seq,
            batch_size=batch,
            gemms=gemms,
            stats=stats,
            quantize_seconds=sum(g.quantize_seconds for g in gemms),
            engine_seconds=sum(g.engine_seconds for g in gemms),
            total_seconds=total_seconds,
            output_rms_error=output_rms_error,
            plane_cache=plane_cache,
        )

    @property
    def measured_macs(self) -> int:
        """Total operand pairs processed (equals the layer's MAC count)."""
        return self.stats.total_pairs

    @property
    def outlier_pair_fraction(self) -> float:
        return self.stats.outlier_pair_fraction


def _activation_operands(
    items: Sequence[Tuple[str, np.ndarray, Operand]]
) -> Iterator[Tuple[np.ndarray, str]]:
    """Each distinct activation operand of ``items`` with its operand name.

    An operand is every left operand and every float right operand (the
    encoder's K/V slices); weight layers and already-encoded tensors are
    not.  An object read by several items (the Q/K/V projections' shared
    input) is named once, after its first reader: ``"<gemm>.in"`` or
    ``"<gemm>.weight"``.  The profiling pass and the executor both name
    operands here, so every encoded operand finds its profiled dictionary.
    """
    seen = set()
    for name, x, rhs in items:
        for operand, role in ((x, "in"), (rhs, "weight")):
            if isinstance(operand, (Linear, QuantizedTensor)) or id(operand) in seen:
                continue
            seen.add(id(operand))
            yield operand, f"{name}.{role}"


def _encode_family(
    quantizer: MokeyQuantizer,
    name: str,
    operands: Sequence[np.ndarray],
    dictionary: TensorDictionary,
) -> List[QuantizedTensor]:
    """Encode one operand family — operands sharing the profiled
    dictionary ``name`` — with one ``quantize`` call.

    Encoding is elementwise, so each operand's codes, split back out of
    the family's one flat encoding, equal its own ``quantize`` call's
    bit for bit.  A non-finite value in any operand fails the call.
    """
    flat = np.concatenate([np.ravel(operand) for operand in operands], dtype=np.float64)
    encoded = quantizer.quantize(flat, name, dictionary=dictionary).encoded
    ends = np.cumsum([operand.size for operand in operands])[:-1]
    parts = np.split(encoded.codes, ends)
    return [
        QuantizedTensor(
            name=name,
            shape=tuple(operand.shape),
            encoded=EncodedValues(part.reshape(operand.shape), encoded.half_entries),
            dictionary=dictionary,
        )
        for part, operand in zip(parts, operands)
    ]


class IndexDomainEncoderExecutor:
    """Runs prepared encoder layers with index-domain GEMMs.

    Every GEMM goes through :meth:`gemm`, which batches the GEMMs it is
    handed into one :func:`index_domain_matmul_many` call.  Weights come
    encoded from the layer's :class:`~repro.transformer.prepared.
    PreparedModel` and activations are encoded against the layer's
    profiled dictionaries, so a forward fits nothing: the runtime work is
    the paper's Step 3, encode and compute.

    Args:
        quantizer: Tensor-level Mokey quantizer (owns the Golden
            Dictionary); a default one is generated if omitted.
        engine: Registered engine name — ``"vectorized"`` (default; the
            NumPy oracle), ``"torch"`` (optional einsum backend) or
            ``"scalar"`` (reference; only tractable on scaled-down
            configurations).  Unknown names raise a registry error with a
            did-you-mean suggestion.
        device: Optional device for backends that take one (the torch
            engine).
        oracle: The uncached reference path: every GEMM issued alone and
            the process plane cache disabled.  Outputs and statistics
            equal the default path's; only wall time differs.
    """

    def __init__(
        self,
        quantizer: Optional[MokeyQuantizer] = None,
        engine: str = "vectorized",
        device: Optional[str] = None,
        oracle: bool = False,
    ) -> None:
        self.engine_cls = resolve_engine(engine)
        ensure = getattr(self.engine_cls, "ensure_available", None)
        if ensure is not None:
            ensure()
        self.quantizer = quantizer or MokeyQuantizer()
        self.engine = engine
        self.device = device
        self.oracle = bool(oracle)
        #: GEMMs served from stored weight encodings (monotonic).
        self.weight_cache_hits = 0

    def gemm(
        self,
        measurements: Dict[str, GemmMeasurement],
        items: Sequence[Tuple[str, np.ndarray, Operand]],
        layer: PreparedLayer,
    ) -> List[np.ndarray]:
        """Run ``(name, activation, right operand)`` GEMMs of ``layer``.

        The right operand is a :class:`Linear` (its stored weight
        encoding from ``layer``, its bias added in FP), an
        already-encoded :class:`QuantizedTensor` (the decoder's KV cache)
        or a float array (the encoder's activation-by-activation
        score/context GEMMs).  Each distinct activation operand is
        encoded once against its profiled dictionary (see
        :func:`_activation_operands`); the operands sharing a dictionary
        (an operand family, such as every head's score operand) are
        encoded by one call, and all items share one
        :func:`index_domain_matmul_many` call.  Each item is recorded
        under its name: the engine time is split evenly over the items,
        a family's encode time evenly over its operands, and an
        operand's share evenly over the items reading it.

        Returns:
            One output array per item, in order.
        """
        # Names come from the whole call, so the oracle's one-GEMM calls
        # encode each operand against the same dictionary as a batch.
        names = {id(operand): name for operand, name in _activation_operands(items)}
        if self.oracle:
            return [
                output
                for item in items
                for output in self._run(measurements, [item], layer, names)
            ]
        return self._run(measurements, items, layer, names)

    def _run(
        self,
        measurements: Dict[str, GemmMeasurement],
        items: Sequence[Tuple[str, np.ndarray, Operand]],
        layer: PreparedLayer,
        names: Dict[int, str],
    ) -> List[np.ndarray]:
        """One :func:`index_domain_matmul_many` call over ``items``."""
        families: Dict[str, List[np.ndarray]] = {}
        for operand, _ in _activation_operands(items):
            families.setdefault(names[id(operand)], []).append(operand)
        encoded: Dict[int, QuantizedTensor] = {}
        seconds: Dict[int, float] = {}
        for name, operands in families.items():
            started = time.perf_counter()
            tensors = _encode_family(
                self.quantizer, name, operands, layer.dictionaries[name]
            )
            share = (time.perf_counter() - started) / len(operands)
            for operand, quantized in zip(operands, tensors):
                # A float right operand (an encoder K/V slice) serves this
                # request only: keep its planes out of the digest cache.
                quantized.per_request = name.endswith(".weight")
                encoded[id(operand)] = quantized
                seconds[id(operand)] = share
        pairs = []
        for name, x, rhs in items:
            if isinstance(rhs, Linear):
                weights = layer.weights[name]
                self.weight_cache_hits += 1
            else:
                weights = encoded.get(id(rhs), rhs)
            pairs.append((encoded[id(x)], weights))
        readers = Counter(id(operand) for _, x, rhs in items for operand in (x, rhs))

        started = time.perf_counter()
        with use_plane_cache(None) if self.oracle else contextlib.nullcontext():
            results = index_domain_matmul_many(
                pairs, engine=self.engine_cls, device=self.device
            )
        engine_share = (time.perf_counter() - started) / len(items)

        outputs = []
        for (name, x, rhs), (_, wq), result in zip(items, pairs, results):
            record = measurements.get(name)
            if record is None:
                record = GemmMeasurement(name, x.shape[0], x.shape[1], wq.shape[1])
                measurements[name] = record
            record.count += 1
            record.stats.merge(result.stats)
            record.quantize_seconds += sum(
                seconds.get(id(operand), 0.0) / readers[id(operand)]
                for operand in (x, rhs)
            )
            record.engine_seconds += engine_share
            if isinstance(rhs, Linear):
                outputs.append(result.values + rhs.bias)
            else:
                outputs.append(result.values)
        return outputs

    def run_block(
        self, layer: PreparedLayer, hidden_states: np.ndarray
    ) -> "tuple[np.ndarray, List[GemmMeasurement]]":
        """Forward ``(batch, seq, hidden)`` states through ``layer``.

        Returns:
            The ``(batch, seq, hidden)`` block output and the per-GEMM
            measurements in execution order.
        """
        measurements: Dict[str, GemmMeasurement] = {}
        output = _encoder_layer(self, measurements, layer, hidden_states)
        return output, list(measurements.values())


def _encoder_layer(
    runner: Any,
    measurements: Dict[str, GemmMeasurement],
    layer: PreparedLayer,
    hidden_states: np.ndarray,
) -> np.ndarray:
    """One encoder layer forward with every GEMM issued through ``runner.gemm``.

    ``runner`` is an :class:`IndexDomainEncoderExecutor`, the FP
    reference (:class:`~repro.transformer.prepared.FPRunner`) or the FP
    profiling pass, which records the operands this dataflow encodes.
    """
    block = layer.block
    attn = block.attention
    batch, seq, hidden = hidden_states.shape
    heads, head_dim = attn.num_heads, attn.head_dim
    flat = hidden_states.reshape(batch * seq, hidden)

    q, k, v = runner.gemm(
        measurements,
        [
            ("attention.query", flat, attn.query),
            ("attention.key", flat, attn.key),
            ("attention.value", flat, attn.value),
        ],
        layer,
    )
    qh = attn._split_heads(q.reshape(batch, seq, hidden))
    kh = attn._split_heads(k.reshape(batch, seq, hidden))
    vh = attn._split_heads(v.reshape(batch, seq, hidden))

    score_values = runner.gemm(
        measurements,
        [
            ("attention.scores", qh[b, h], kh[b, h].T)
            for b in range(batch)
            for h in range(heads)
        ],
        layer,
    )
    scores = np.stack(score_values).reshape(batch, heads, seq, seq)
    scores /= np.sqrt(head_dim)

    if attn.disentangled:
        # The two relative projections are ordinary weight GEMMs; the
        # content/position contractions against the shared embedding
        # table run in FP like the paper's analytic GEMM set assumes.
        rel_q_flat, rel_k_flat = runner.gemm(
            measurements,
            [
                ("attention.relative_query", flat, attn.relative_query),
                ("attention.relative_key", flat, attn.relative_key),
            ],
            layer,
        )
        rel_q = rel_q_flat.reshape(batch, seq, hidden)
        rel_k = rel_k_flat.reshape(batch, seq, hidden)
        table = attn.relative_embedding
        max_dist = table.shape[0] // 2
        positions = np.arange(seq)
        distance = np.clip(
            positions[None, :] - positions[:, None], -max_dist, max_dist - 1
        )
        rel = table[distance + max_dist].reshape(seq, seq, heads, head_dim)
        c2p = np.einsum("bhid,ijhd->bhij", attn._split_heads(rel_q), rel)
        p2c = np.einsum("bhjd,ijhd->bhij", attn._split_heads(rel_k), rel)
        scores += (c2p + p2c) / np.sqrt(3.0 * head_dim)

    probs = softmax(scores, axis=-1)

    context_values = runner.gemm(
        measurements,
        [
            ("attention.context", probs[b, h], vh[b, h])
            for b in range(batch)
            for h in range(heads)
        ],
        layer,
    )
    context = np.stack(context_values).reshape(batch, heads, seq, head_dim)
    merged = attn._merge_heads(context).reshape(batch * seq, hidden)

    (attn_out,) = runner.gemm(
        measurements, [("attention.output", merged, attn.output)], layer
    )
    hidden_states = block.attention_norm(
        hidden_states + attn_out.reshape(batch, seq, hidden).astype(np.float32)
    )

    flat2 = hidden_states.reshape(batch * seq, hidden)
    (inter,) = runner.gemm(
        measurements, [("ffn.intermediate", flat2, block.ffn.intermediate)], layer
    )
    (ffn_out,) = runner.gemm(
        measurements, [("ffn.output", gelu(inter), block.ffn.output)], layer
    )
    return block.output_norm(
        hidden_states + ffn_out.reshape(batch, seq, hidden).astype(np.float32)
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


def execute_encoder_layer(
    model: Union[str, TransformerConfig] = "bert-base",
    sequence_length: int = 128,
    batch_size: int = 1,
    quantizer: Optional[MokeyQuantizer] = None,
    engine: str = "vectorized",
    seed: int = 0,
    device: Optional[str] = None,
    oracle: bool = False,
    executor: Optional[IndexDomainEncoderExecutor] = None,
) -> LayerMeasurement:
    """Execute one encoder layer end-to-end in the index domain.

    Prepares a synthetic full-width encoder layer (deterministic in
    ``seed``; see :func:`~repro.transformer.prepared.prepare_model`),
    feeds it normalised synthetic hidden states, runs every GEMM through
    the index-domain engine and returns the measured operation counts,
    timings and output error against the FP forward of the same block,
    computed through the same layer dataflow with FP32 GEMMs.

    Args:
        model: Model-zoo name (full-size configuration) or an explicit
            :class:`TransformerConfig` (e.g. a scaled one for tests).
        sequence_length: Tokens per input (the paper sweeps 128-512).
        batch_size: Inputs per pass.
        quantizer: Shared tensor quantizer; generated if omitted.
        engine: Registered engine name (``"vectorized"``, ``"torch"``,
            ``"scalar"``).
        seed: Seed for the block weights and input activations.
        device: Optional device for backends that take one.
        oracle: Run the uncached per-GEMM reference path (see
            :class:`IndexDomainEncoderExecutor`).
        executor: Reuse an existing executor (and its quantizer's
            prepared models) instead of constructing one; the other
            engine options are then ignored.
    """
    config = _resolve_config(model)
    if sequence_length < 1:
        raise ValueError(f"sequence_length must be >= 1, got {sequence_length}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if executor is None:
        executor = IndexDomainEncoderExecutor(
            quantizer=quantizer, engine=engine, device=device, oracle=oracle
        )
    (layer,) = prepare_model(config, seed, 1, executor.quantizer).layers
    rng = np.random.default_rng(seed + 2)
    hidden_states = rng.normal(
        0.0, 1.0, size=(batch_size, sequence_length, config.hidden_size)
    ).astype(np.float32)

    cache_before = _plane_cache_stats(executor)
    started = time.perf_counter()
    output, gemms = executor.run_block(layer, hidden_states)
    total_seconds = time.perf_counter() - started
    reference = _encoder_layer(FPRunner(), {}, layer, hidden_states)
    return LayerMeasurement.from_gemms(
        config.name,
        hidden_states,
        gemms,
        total_seconds,
        _relative_rms(output, reference),
        _plane_cache_stats(executor, cache_before),
    )
