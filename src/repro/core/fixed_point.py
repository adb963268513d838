"""Fixed-point conversion (paper Section II-F, Eq. 7-8).

Mokey performs all inference arithmetic in the fixed-point (integer)
domain.  During profiling, every tensor's parameters (dictionary
centroids, means, standard deviations, the pre-computed SoW/PoM constants)
are converted to a per-layer fixed-point format:

* the number of fractional bits is ``frac = b - ceil(log2(max - min))``
  where ``b`` is the total bit-width and ``[min, max]`` the layer's value
  range (Eq. 7), and
* a float ``fl`` maps to ``fx = round(fl * 2**frac) / 2**frac`` (Eq. 8).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = ["FixedPointFormat", "to_fixed_point", "quantization_step"]

ArrayLike = Union[float, np.ndarray]

#: Largest fractional width whose ``2.0 ** frac_bits`` is a finite float64.
MAX_FRAC_BITS = sys.float_info.max_exp - 1


@dataclass(frozen=True)
class FixedPointFormat:
    """A fixed-point number format.

    Attributes:
        total_bits: Total bit width including the sign bit (16 in the paper).
        frac_bits: Number of fractional bits.
    """

    total_bits: int
    frac_bits: int

    def __post_init__(self) -> None:
        if self.total_bits <= 0:
            raise ValueError("total_bits must be positive")

    @classmethod
    def for_range(
        cls, minimum: float, maximum: float, total_bits: int = 16
    ) -> "FixedPointFormat":
        """Derive the format for a value range per Eq. 7.

        ``frac = total_bits - ceil(log2(span))`` where the span is the width
        of the smallest zero-symmetric interval containing ``[min, max]``
        (``2 * max(|min|, |max|)``).  For the zero-centred tensors of
        transformer models this equals the paper's ``max - min``; for
        one-sided ranges it guarantees the signed format can actually
        represent the extreme values.  A degenerate all-zero range keeps all
        bits fractional.
        """
        if float(maximum) < float(minimum):
            raise ValueError("maximum must be >= minimum")
        magnitude = max(abs(float(minimum)), abs(float(maximum)))
        if magnitude == 0:
            return cls(total_bits=total_bits, frac_bits=total_bits)
        # log2(2 * magnitude), taken without forming a span that overflows.
        frac = total_bits - 1 - math.ceil(math.log2(magnitude))
        # Subnormal ranges would ask for more than 1023 fractional bits,
        # whose 2**frac overflows float64; cap so the scale stays finite.
        return cls(total_bits=total_bits, frac_bits=min(frac, MAX_FRAC_BITS))

    @property
    def scale(self) -> float:
        """The value of one least-significant bit (2**-frac_bits)."""
        return 2.0 ** (-self.frac_bits)

    @property
    def max_magnitude(self) -> float:
        """Largest representable magnitude for a signed value."""
        return (2 ** (self.total_bits - 1) - 1) * self.scale

    def quantize(self, values: ArrayLike) -> np.ndarray:
        """Map float values to their fixed-point representable values (Eq. 8)."""
        values = np.asarray(values, dtype=np.float64)
        quantized = np.round(values * 2.0 ** self.frac_bits) / 2.0 ** self.frac_bits
        return np.clip(quantized, -self.max_magnitude - self.scale, self.max_magnitude)

    def to_int(self, values: ArrayLike) -> np.ndarray:
        """Integer (raw) representation of float values in this format."""
        values = np.asarray(values, dtype=np.float64)
        ints = np.round(values * 2.0 ** self.frac_bits).astype(np.int64)
        limit = 2 ** (self.total_bits - 1)
        return np.clip(ints, -limit, limit - 1)

    def from_int(self, ints: ArrayLike) -> np.ndarray:
        """Float values corresponding to raw integer representations."""
        return np.asarray(ints, dtype=np.float64) * self.scale

    def quantization_error(self, values: ArrayLike) -> float:
        """Maximum absolute quantization error over ``values``."""
        values = np.asarray(values, dtype=np.float64)
        return float(np.max(np.abs(values - self.quantize(values)))) if values.size else 0.0


def quantization_step(minimum: float, maximum: float, total_bits: int = 16) -> float:
    """Resolution (LSB value) of the format chosen for a value range."""
    return FixedPointFormat.for_range(minimum, maximum, total_bits).scale


def to_fixed_point(
    values: ArrayLike, minimum: float, maximum: float, total_bits: int = 16
) -> np.ndarray:
    """One-shot conversion of ``values`` using the range-derived format."""
    return FixedPointFormat.for_range(minimum, maximum, total_bits).quantize(values)
