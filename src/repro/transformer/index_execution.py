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

:class:`~repro.transformer.index_model.IndexDomainModelExecutor` is the
front door (one layer or a whole stack); each layer it runs yields a
:class:`LayerMeasurement`: per-GEMM *measured*
:class:`~repro.core.index_compute.IndexComputeStats` (Gaussian vs outlier
pair counts from the actual encodings, not the scheme's assumed
fractions), the layer's encode and compute wall time, and the output
error against the FP forward of the same block.  The campaign engine
joins these measured counts to scenario records
(``enrichments=Enrichments(measured=True)`` on a campaign spec) next to
the analytic counts the schemes report.

Only the vectorized engine makes this tractable — the scalar reference
engine would need hours per layer-scale GEMM — but the scalar engine
remains selectable for equivalence tests on scaled-down configurations.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.index_compute import (
    IndexComputeStats,
    index_domain_matmul_many,
    resolve_engine,
    use_plane_cache,
)
from repro.core.quantizer import MokeyQuantizer, QuantizedTensor
from repro.core.tensor_dictionary import EncodedValues, TensorDictionary
from repro.transformer.functional import gelu, softmax
from repro.transformer.layers import Linear
from repro.transformer.prepared import PreparedLayer

__all__ = [
    "GemmMeasurement",
    "LayerMeasurement",
    "IndexDomainEncoderExecutor",
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
    """

    name: str
    m: int
    k: int
    n: int
    count: int = 0
    stats: IndexComputeStats = field(default_factory=IndexComputeStats)


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
        # Encode and engine wall time over every GEMM call (monotonic).
        self._quantize_seconds = 0.0
        self._engine_seconds = 0.0

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
        :func:`index_domain_matmul_many` call.  Each item's counts are
        recorded under its name; wall time is kept per call only.

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
        started = time.perf_counter()
        for name, operands in families.items():
            tensors = _encode_family(
                self.quantizer, name, operands, layer.dictionaries[name]
            )
            for operand, quantized in zip(operands, tensors):
                # A float right operand (an encoder K/V slice) serves this
                # request only: keep its planes out of the digest cache.
                quantized.per_request = name.endswith(".weight")
                encoded[id(operand)] = quantized
        self._quantize_seconds += time.perf_counter() - started
        pairs = []
        for name, x, rhs in items:
            if isinstance(rhs, Linear):
                weights = layer.weights[name]
                self.weight_cache_hits += 1
            else:
                weights = encoded.get(id(rhs), rhs)
            pairs.append((encoded[id(x)], weights))

        started = time.perf_counter()
        with use_plane_cache(None) if self.oracle else contextlib.nullcontext():
            results = index_domain_matmul_many(
                pairs, engine=self.engine_cls, device=self.device
            )
        self._engine_seconds += time.perf_counter() - started

        outputs = []
        for (name, x, rhs), (_, wq), result in zip(items, pairs, results):
            record = measurements.get(name)
            if record is None:
                record = GemmMeasurement(name, x.shape[0], x.shape[1], wq.shape[1])
                measurements[name] = record
            record.count += 1
            record.stats.merge(result.stats)
            if isinstance(rhs, Linear):
                outputs.append(result.values + rhs.bias)
            else:
                outputs.append(result.values)
        return outputs

    def run_block(
        self, layer: PreparedLayer, hidden_states: np.ndarray
    ) -> Tuple[np.ndarray, List[GemmMeasurement], float, float]:
        """Forward ``(batch, seq, hidden)`` states through ``layer``.

        Returns:
            The ``(batch, seq, hidden)`` block output, the per-GEMM
            measurements in execution order, and the block's encode and
            engine wall time.
        """
        measurements: Dict[str, GemmMeasurement] = {}
        quantize_before, engine_before = self._quantize_seconds, self._engine_seconds
        output = _encoder_layer(self, measurements, layer, hidden_states)
        return (
            output,
            list(measurements.values()),
            self._quantize_seconds - quantize_before,
            self._engine_seconds - engine_before,
        )


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
