"""On-the-fly output-activation quantization (paper Section III-B, Fig. 7).

After a layer produces its 16-bit fixed-point output activations, Mokey
quantizes them back to 4-bit indexes before they are written to memory.
The hardware does this with a comparator array: each output activation is
compared against every centroid of the (sorted) combined Gaussian+outlier
dictionary, a leading-one detector picks the two bracketing centroids, and
the nearer one wins.  This module models that unit functionally and counts
the comparator work for the energy model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.core.quantizer import QuantizedTensor
from repro.core.tensor_dictionary import TensorDictionary

__all__ = ["QuantizerStats", "OutputActivationQuantizer"]


@dataclass
class QuantizerStats:
    """Operation counts of the output-activation quantizer."""

    values: int = 0
    comparisons: int = 0
    subtractions: int = 0

    def merge(self, other: "QuantizerStats") -> "QuantizerStats":
        self.values += other.values
        self.comparisons += other.comparisons
        self.subtractions += other.subtractions
        return self


class OutputActivationQuantizer:
    """Quantizes 16-bit fixed-point output activations to 4-bit indexes.

    Args:
        dictionary: The output tensor's Gaussian + outlier dictionaries
            (prepared during profiling).
    """

    def __init__(self, dictionary: TensorDictionary) -> None:
        self.dictionary = dictionary
        # The comparator array of Fig. 7 holds the combined sorted centroids.
        self.centroids = dictionary.all_centroids()

    @property
    def num_comparators(self) -> int:
        """Number of parallel comparators in the hardware unit (up to 32)."""
        return int(self.centroids.size)

    def quantize(self, output_activations: np.ndarray, name: str = "output") -> Tuple[QuantizedTensor, QuantizerStats]:
        """Quantize output activations and report the comparator work.

        The functional result is identical to
        :meth:`TensorDictionary.encode`; the stats model the hardware cost:
        every value is compared against every centroid in parallel, then two
        subtractions and one final comparison resolve the nearer centroid.
        """
        values = np.asarray(output_activations)
        fixed = self.dictionary.fixed_point.quantize(values)
        encoded = self.dictionary.encode(fixed)
        quantized = QuantizedTensor(
            name=name,
            shape=tuple(values.shape),
            encoded=encoded,
            dictionary=self.dictionary,
        )
        stats = QuantizerStats(
            values=int(values.size),
            comparisons=int(values.size) * (self.num_comparators + 1),
            subtractions=2 * int(values.size),
        )
        return quantized, stats

    def round_trip_error(self, output_activations: np.ndarray) -> float:
        """Mean absolute reconstruction error of quantizing these outputs."""
        quantized, _ = self.quantize(output_activations)
        recon = quantized.dequantize()
        return float(np.abs(recon - np.asarray(output_activations, dtype=np.float32)).mean())
