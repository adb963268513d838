"""Exponential curve fit to the Golden Dictionary (paper Section II-D, Fig. 3).

Mokey fits ``value = a**int + b`` to the positive half of the Golden
Dictionary, where ``int`` runs over the integers 0..7 (for 4-bit
quantization: 1 sign bit + 3 index bits).  The fit is weighted: the bin
closest to zero gets weight ``2**7`` and the weight halves for every bin
moving outward, emphasising the densely populated ranges near the mean.
The paper reports ``a = 1.179`` and ``b = -0.977`` for its Golden
Dictionary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

__all__ = ["ExponentialFit", "fit_exponential"]


@dataclass(frozen=True)
class ExponentialFit:
    """The fitted ``a**int + b`` approximation of a dictionary half.

    Attributes:
        a: Base of the exponential.
        b: Additive offset.
        num_entries: Number of integer exponents (8 for 4-bit quantization).
    """

    a: float
    b: float
    num_entries: int = 8

    def magnitudes(self) -> np.ndarray:
        """Centroid magnitudes ``a**int + b`` for int = 0..num_entries-1."""
        ints = np.arange(self.num_entries, dtype=np.float64)
        return self.a ** ints + self.b

    def value(self, index: np.ndarray, sign: Optional[np.ndarray] = None) -> np.ndarray:
        """Decode magnitude (or signed value) for integer index(es)."""
        index = np.asarray(index)
        magnitude = self.a ** index.astype(np.float64) + self.b
        if sign is None:
            return magnitude
        return np.where(np.asarray(sign) >= 0, magnitude, -magnitude)

    def max_exponent_sum(self) -> int:
        """Largest possible exponent sum of a product of two indexes."""
        return 2 * (self.num_entries - 1)

    def product_bases(self) -> np.ndarray:
        """``a**k`` for every possible exponent sum k (the SoI bases)."""
        sums = np.arange(self.max_exponent_sum() + 1, dtype=np.float64)
        return self.a ** sums

    def fit_error(self, half_dictionary: Sequence[float]) -> float:
        """Maximum absolute error of the fit against a dictionary half."""
        half = np.asarray(half_dictionary, dtype=np.float64)
        if half.size != self.num_entries:
            raise ValueError("dictionary half size does not match num_entries")
        return float(np.max(np.abs(self.magnitudes() - half)))


def fit_exponential(
    half_dictionary: Sequence[float],
    initial_a: float = 1.2,
    initial_b: float = -1.0,
) -> ExponentialFit:
    """Fit ``a**int + b`` to the positive half of a dictionary.

    Args:
        half_dictionary: The positive-half centroids sorted ascending
            (the entry nearest zero first), typically 8 values.
        initial_a: Initial guess for the exponential base.
        initial_b: Initial guess for the offset.

    Returns:
        The fitted :class:`ExponentialFit`.

    The weighting scheme follows the paper: unit weight for the outermost
    bin, doubling toward zero, i.e. weights ``2**(n-1) .. 2**0``.
    """
    half = np.asarray(half_dictionary, dtype=np.float64).ravel()
    if half.size < 2:
        raise ValueError("need at least two dictionary entries to fit a curve")
    if np.any(np.diff(half) < 0):
        raise ValueError("half dictionary must be sorted ascending")

    n = half.size
    ints = np.arange(n, dtype=np.float64)
    weights = 2.0 ** np.arange(n - 1, -1, -1)

    def residuals(params: np.ndarray) -> np.ndarray:
        a, b = params
        return np.sqrt(weights) * (a ** ints + b - half)

    # Imported here, not at module level: scipy is most of ``import repro``
    # (~0.7 s and ~40 MB on a 2-vCPU x86_64 host), and processes that never
    # fit a curve (the campaign service and its workers, the simulators)
    # should not pay for it.
    from scipy import optimize

    result = optimize.least_squares(
        residuals,
        x0=np.array([initial_a, initial_b]),
        bounds=([1.0 + 1e-6, -10.0], [10.0, 10.0]),
    )
    a, b = result.x
    return ExponentialFit(a=float(a), b=float(b), num_entries=n)
