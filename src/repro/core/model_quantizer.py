"""Whole-model Mokey quantization (paper Section II-G "Summary").

The :class:`MokeyModelQuantizer` applies the three quantization steps to a
:class:`~repro.transformer.model.TransformerModel`:

1. (once, offline) obtain the Golden Dictionary;
2. quantize every parameter tensor (weights and embeddings) to 4-bit
   indexes, replacing the model's parameters with their dequantized
   16-bit fixed-point reconstructions;
3. run a profiling pass over a small batch of inputs to fit the
   per-activation-tensor dictionaries, which are then used to
   fake-quantize activations during inference (modelling the runtime
   encode/decode of Section II-A).

The same machinery also serves the memory-compression-only deployment: the
numerics are identical, only the accelerator model differs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Set, Tuple

import numpy as np

from repro.core.golden_dictionary import GoldenDictionary, load_golden_dictionary
from repro.core.quantizer import MokeyQuantizer, QuantizedTensor
from repro.core.tensor_dictionary import TensorDictionary
from repro.transformer.model import TransformerModel
from repro.transformer.profiling import ActivationProfiler
from repro.transformer.tasks import SyntheticDataset
from repro.transformer.tensors import ActivationRecorder

__all__ = [
    "QuantizationMode",
    "QuantizationReport",
    "ActivationQuantizationHook",
    "QuantizedModel",
    "MokeyModelQuantizer",
]

# Activations that are never quantized: the final task logits are consumed
# immediately and never stored back to memory.
DEFAULT_ACTIVATION_EXCLUDES = ("head.output",)


class QuantizationMode(enum.Enum):
    """Deployment modes evaluated in the paper."""

    WEIGHTS_ONLY = "weights_only"
    WEIGHTS_AND_ACTIVATIONS = "weights_and_activations"
    MEMORY_COMPRESSION = "memory_compression"


@dataclass
class QuantizationReport:
    """Summary of a whole-model quantization.

    Attributes:
        weight_outlier_fraction: Fraction of parameter values encoded through
            outlier dictionaries (paper Table I "W OT%").
        activation_outlier_fraction: Same for activations ("A OT%"), measured
            over the evaluation run.
        weight_values: Total number of quantized parameter values.
        activation_values: Total number of quantized activation values seen.
        weight_bits: Off-chip footprint of the quantized parameters in bits.
        original_weight_bits: Footprint of the FP parameters in bits.
        per_tensor_outlier_fraction: Outlier fraction per parameter tensor.
    """

    weight_outlier_fraction: float = 0.0
    activation_outlier_fraction: float = 0.0
    weight_values: int = 0
    activation_values: int = 0
    weight_bits: int = 0
    original_weight_bits: int = 0
    per_tensor_outlier_fraction: Dict[str, float] = field(default_factory=dict)

    @property
    def weight_compression_ratio(self) -> float:
        if self.weight_bits == 0:
            return 1.0
        return self.original_weight_bits / self.weight_bits


class ActivationQuantizationHook:
    """Forward-pass hook that fake-quantizes activations through their dictionaries.

    The hook can be passed as the ``hook`` argument of a model call.  It
    also keeps running outlier statistics so the evaluation can report the
    activation outlier fraction.
    """

    def __init__(
        self,
        dictionaries: Dict[str, TensorDictionary],
        excludes: Iterable[str] = DEFAULT_ACTIVATION_EXCLUDES,
    ) -> None:
        self.dictionaries = dictionaries
        self.excludes: Set[str] = set(excludes)
        self.outlier_values = 0
        self.total_values = 0

    def __call__(self, name: str, array: np.ndarray) -> np.ndarray:
        dictionary = self.dictionaries.get(name)
        if dictionary is None or name in self.excludes:
            return array
        encoded = dictionary.encode(np.asarray(array))
        self.outlier_values += encoded.outlier_count
        self.total_values += encoded.size
        return dictionary.decode(encoded).reshape(array.shape).astype(np.float32)

    @property
    def outlier_fraction(self) -> float:
        if self.total_values == 0:
            return 0.0
        return self.outlier_values / self.total_values

    def reset_statistics(self) -> None:
        self.outlier_values = 0
        self.total_values = 0


@dataclass
class QuantizedModel:
    """A quantized model together with everything needed to run it.

    Attributes:
        model: The model whose parameters have been replaced by their
            dequantized reconstructions.
        mode: The deployment mode the quantization targets.
        quantized_weights: Per-parameter quantized tensors (index form).
        activation_dictionaries: Per-activation-tensor dictionaries fitted by
            profiling (empty for weight-only quantization).
        report: Quantization summary statistics.
    """

    model: TransformerModel
    mode: QuantizationMode
    quantized_weights: Dict[str, QuantizedTensor]
    activation_dictionaries: Dict[str, TensorDictionary]
    report: QuantizationReport

    def activation_hook(self) -> Optional[ActivationQuantizationHook]:
        """A fresh activation fake-quantization hook (None for weight-only)."""
        if self.mode is QuantizationMode.WEIGHTS_ONLY or not self.activation_dictionaries:
            return None
        return ActivationQuantizationHook(self.activation_dictionaries)


class MokeyModelQuantizer:
    """Quantizes whole transformer models with the Mokey method.

    Args:
        golden: Pre-generated Golden Dictionary (the pinned default, loaded
            by ``load_golden_dictionary()``, if omitted).
        quantizer: Tensor-level quantizer; constructed from ``golden`` if
            omitted.
        activation_sample_values: Number of values sub-sampled per activation
            tensor during profiling to place outlier centroids.
    """

    def __init__(
        self,
        golden: Optional[GoldenDictionary] = None,
        quantizer: Optional[MokeyQuantizer] = None,
        activation_sample_values: int = 65536,
    ) -> None:
        self.golden = golden or load_golden_dictionary()
        self.quantizer = quantizer or MokeyQuantizer(self.golden)
        self.activation_sample_values = activation_sample_values

    # ------------------------------------------------------------------ #
    # Step 2/3 of the paper: parameters
    # ------------------------------------------------------------------ #
    def quantize_weights(
        self, model: TransformerModel
    ) -> Tuple[TransformerModel, Dict[str, QuantizedTensor], QuantizationReport]:
        """Quantize all parameter tensors and return the dequantized twin."""
        quantized_model = model.copy()
        quantized_weights: Dict[str, QuantizedTensor] = {}
        report = QuantizationReport()

        for name, values in model.weight_matrices().items():
            quantized = self.quantizer.quantize(values, name=name)
            quantized_weights[name] = quantized
            quantized_model.set_parameter(name, quantized.dequantize())

            report.weight_values += quantized.size
            report.weight_bits += quantized.memory_bits()
            report.original_weight_bits += quantized.size * 32
            report.per_tensor_outlier_fraction[name] = quantized.outlier_fraction

        if report.weight_values:
            total_outliers = sum(q.outlier_count for q in quantized_weights.values())
            report.weight_outlier_fraction = total_outliers / report.weight_values
        return quantized_model, quantized_weights, report

    # ------------------------------------------------------------------ #
    # Step 3 of the paper: activation profiling
    # ------------------------------------------------------------------ #
    def calibrate_activations(
        self,
        model: TransformerModel,
        dataset: SyntheticDataset,
        num_samples: int = 8,
        batch_size: int = 8,
    ) -> Dict[str, TensorDictionary]:
        """Fit per-activation dictionaries from a profiling run.

        The profiling pass records streaming statistics (mean, std, min,
        max) for every activation tensor plus a bounded sub-sample of its
        values used to place the outlier centroids — mirroring the paper's
        single-batch profiling run.
        """
        profiler = ActivationProfiler()
        recorder = ActivationRecorder(max_values_per_tensor=self.activation_sample_values)

        def combined_hook(name: str, array: np.ndarray) -> np.ndarray:
            profiler(name, array)
            recorder(name, array)
            return array

        num_samples = min(num_samples, dataset.num_samples)
        for start in range(0, num_samples, batch_size):
            end = min(start + batch_size, num_samples)
            model(
                dataset.token_ids[start:end],
                segment_ids=dataset.segment_ids[start:end],
                attention_mask=dataset.attention_mask[start:end],
                hook=combined_hook,
            )

        samples = recorder.concatenated()
        dictionaries: Dict[str, TensorDictionary] = {}
        for name, stats in profiler.statistics.items():
            if name in DEFAULT_ACTIVATION_EXCLUDES:
                continue
            dictionaries[name] = self.quantizer.fit_dictionary_from_stats(
                name=name,
                mean=stats.mean,
                std=stats.std,
                minimum=stats.minimum,
                maximum=stats.maximum,
                samples=samples.get(name),
            )
        return dictionaries

    # ------------------------------------------------------------------ #
    # Public entry point
    # ------------------------------------------------------------------ #
    def quantize(
        self,
        model: TransformerModel,
        mode: QuantizationMode = QuantizationMode.WEIGHTS_AND_ACTIVATIONS,
        profiling_dataset: Optional[SyntheticDataset] = None,
        profiling_samples: int = 8,
    ) -> QuantizedModel:
        """Quantize ``model`` for the requested deployment mode.

        Args:
            model: The FP model to quantize (left unmodified).
            mode: Weight-only, weight+activation, or memory-compression.
            profiling_dataset: Inputs for the activation profiling run;
                required unless ``mode`` is ``WEIGHTS_ONLY``.
            profiling_samples: Number of profiling inputs (paper uses 8).
        """
        quantized_model, quantized_weights, report = self.quantize_weights(model)

        activation_dictionaries: Dict[str, TensorDictionary] = {}
        if mode is not QuantizationMode.WEIGHTS_ONLY:
            if profiling_dataset is None:
                raise ValueError(f"{mode.value} quantization requires a profiling dataset")
            activation_dictionaries = self.calibrate_activations(
                quantized_model, profiling_dataset, num_samples=profiling_samples
            )

        return QuantizedModel(
            model=quantized_model,
            mode=mode,
            quantized_weights=quantized_weights,
            activation_dictionaries=activation_dictionaries,
            report=report,
        )
