"""Common interface for baseline quantization methods (Table IV).

A baseline quantizer transforms an FP model into a fake-quantized twin
(weights replaced by their dequantized reconstructions) plus an optional
activation hook, and reports the properties Table IV tabulates: bit-widths,
whether computation stays in the integer domain, whether the method is
post-training, and the footprint compression it achieves.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.schemes.base import SCHEMES
from repro.transformer.model import TransformerModel
from repro.transformer.tasks import SyntheticDataset

__all__ = ["MethodProperties", "BaselineResult", "BaselineQuantizer", "uniform_symmetric_quantize"]

ActivationHook = Callable[[str, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class MethodProperties:
    """Static properties of a quantization method (the Table IV columns).

    Attributes:
        name: Method name as printed in Table IV.
        weight_bits: Bits per parameter value.
        activation_bits: Bits per activation value (32 means unquantized).
        integer_compute: Whether inference arithmetic is fixed-point only.
        post_training: Whether the method needs no fine-tuning.
    """

    name: str
    weight_bits: float
    activation_bits: float
    integer_compute: bool
    post_training: bool


@dataclass
class BaselineResult:
    """Outcome of applying a baseline quantizer to a model.

    Attributes:
        model: The fake-quantized model (parameters replaced in place on a
            copy of the original).
        activation_hook_factory: Zero-argument callable returning a fresh
            activation hook for an evaluation run, or None when the method
            leaves activations unquantized.
        properties: The method's static properties.
        weight_bits_total: Total bits used to store the quantized parameters
            (including per-tensor metadata such as scales or dictionaries).
        original_weight_bits_total: Bits used by the FP32 parameters.
        extra: Free-form per-method details (e.g. outlier fractions).
    """

    model: TransformerModel
    activation_hook_factory: Optional[Callable[[], ActivationHook]]
    properties: MethodProperties
    weight_bits_total: int
    original_weight_bits_total: int
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def weight_compression_ratio(self) -> float:
        if self.weight_bits_total == 0:
            return 1.0
        return self.original_weight_bits_total / self.weight_bits_total


class BaselineQuantizer(abc.ABC):
    """Abstract baseline quantizer.

    Every concrete baseline also registers an accelerator-level
    quantization scheme (see :mod:`repro.schemes`) named
    :attr:`scheme_name`, so the campaign engine can sweep the method's
    cost model alongside its numerics.
    """

    #: Name of the method's registered scheme in :mod:`repro.schemes`.
    scheme_name: str = ""

    @property
    @abc.abstractmethod
    def properties(self) -> MethodProperties:
        """Static Table IV properties of the method."""

    def as_scheme(self):
        """The registered :class:`~repro.schemes.base.QuantizationScheme`."""
        if not self.scheme_name:
            raise ValueError(f"{type(self).__name__} does not declare a scheme_name")
        return SCHEMES.get(self.scheme_name)

    @abc.abstractmethod
    def quantize(
        self,
        model: TransformerModel,
        calibration: Optional[SyntheticDataset] = None,
    ) -> BaselineResult:
        """Quantize ``model`` (post-training) and return the result bundle."""

    # Convenience shared by several baselines -------------------------------- #
    @staticmethod
    def _quantize_model_weights(
        model: TransformerModel,
        quantize_fn: Callable[[str, np.ndarray], Tuple[np.ndarray, int]],
    ) -> Tuple[TransformerModel, int, int]:
        """Apply ``quantize_fn`` to every weight matrix of a model copy.

        ``quantize_fn(name, values)`` must return the dequantized
        reconstruction and the number of bits the quantized form occupies.

        Returns:
            The model copy, total quantized bits, total original FP32 bits.
        """
        quantized_model = model.copy()
        total_bits = 0
        original_bits = 0
        for name, values in model.weight_matrices().items():
            reconstruction, bits = quantize_fn(name, values)
            quantized_model.set_parameter(name, reconstruction.astype(np.float32))
            total_bits += bits
            original_bits += values.size * 32
        return quantized_model, total_bits, original_bits


def uniform_symmetric_quantize(
    values: np.ndarray, bits: int, max_value: Optional[float] = None
) -> Tuple[np.ndarray, float]:
    """Uniform symmetric (zero-centred) quantization.

    Args:
        values: Values to quantize.
        bits: Bit width (including the sign bit).
        max_value: Clipping range; defaults to ``max(|values|)``.

    Returns:
        The dequantized reconstruction and the scale used.
    """
    values = np.asarray(values, dtype=np.float64)
    if bits < 2:
        raise ValueError("uniform quantization requires at least 2 bits")
    if max_value is None:
        max_value = float(np.abs(values).max()) if values.size else 1.0
    max_value = max(max_value, 1e-12)
    levels = 2 ** (bits - 1) - 1
    scale = max_value / levels
    quantized = np.clip(np.round(values / scale), -levels - 1, levels)
    return (quantized * scale).astype(np.float32), scale
