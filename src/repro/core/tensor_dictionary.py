"""Per-tensor dictionaries (paper Section II-C and II-E).

Every weight and activation tensor gets two dictionaries:

* a **Gaussian dictionary** obtained by the linear transformation
  ``GD * s + m`` of the Golden Dictionary, covering the bulk of the values
  near the mean, and
* an **Outlier dictionary** of up to 16 fixed-point centroids covering the
  rare values of much larger magnitude.

For weights the mean/std/outlier statistics come straight from the tensor;
for activations they come from the profiling run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.core.agglomerative import agglomerative_cluster_1d
from repro.core.fixed_point import FixedPointFormat
from repro.core.golden_dictionary import GoldenDictionary

__all__ = ["TensorDictionary", "EncodedValues"]


def non_finite_error(name: str, values: np.ndarray) -> ValueError:
    """The one-line rejection of a tensor holding NaN or +/-Inf values."""
    bad = values.size - int(np.count_nonzero(np.isfinite(values)))
    return ValueError(
        f"tensor {name!r} has {bad} non-finite (NaN/Inf) of {values.size} "
        "values; only finite tensors can be quantized"
    )


@dataclass
class EncodedValues:
    """The raw per-value encoding produced by :meth:`TensorDictionary.encode`.

    Attributes:
        is_outlier: Boolean array marking values encoded with the outlier
            dictionary.
        sign: +1 / -1 sign of the Gaussian-normalised value (meaningful for
            Gaussian-encoded entries only).
        gaussian_index: 3-bit magnitude index into the Gaussian half
            dictionary (meaningful for Gaussian-encoded entries only).
        outlier_index: 4-bit index into the outlier dictionary (meaningful
            for outlier entries only).
    """

    is_outlier: np.ndarray
    sign: np.ndarray
    gaussian_index: np.ndarray
    outlier_index: np.ndarray

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.is_outlier.shape

    @property
    def size(self) -> int:
        return int(self.is_outlier.size)

    @property
    def outlier_count(self) -> int:
        """Number of values encoded through the outlier dictionary."""
        return int(self.is_outlier.sum())

    @property
    def outlier_fraction(self) -> float:
        """Fraction of values encoded through the outlier dictionary."""
        if self.size == 0:
            return 0.0
        return self.outlier_count / self.size


@dataclass
class TensorDictionary:
    """Gaussian + outlier dictionaries fitted to one tensor.

    Attributes:
        name: Tensor name (for reporting).
        mean: Tensor mean ``m``.
        std: Tensor standard deviation ``s``.
        golden: The Golden Dictionary this tensor dictionary was derived from.
        gaussian_half: Gaussian half magnitudes in *normalised* units
            (multiples of ``std``); scaled/shifted on decode.
        outlier_centroids: Signed outlier centroid values in the tensor's own
            units (already include mean/std), sorted ascending.  May be empty
            when the tensor has no outliers.
        fixed_point: Per-layer 16-bit fixed-point format (Eq. 7) applied to
            centroids and decoded values.
        threshold: Magnitude of ``value - mean`` above which a value is
            treated as an outlier.
    """

    name: str
    mean: float
    std: float
    golden: GoldenDictionary
    gaussian_half: np.ndarray
    outlier_centroids: np.ndarray
    fixed_point: FixedPointFormat
    threshold: float

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def fit(
        cls,
        name: str,
        golden: GoldenDictionary,
        values: Optional[np.ndarray] = None,
        mean: Optional[float] = None,
        std: Optional[float] = None,
        minimum: Optional[float] = None,
        maximum: Optional[float] = None,
        use_exponential: bool = True,
        max_outlier_entries: int = 16,
        fixed_point_bits: int = 16,
        outlier_samples: Optional[np.ndarray] = None,
    ) -> "TensorDictionary":
        """Fit the per-tensor dictionaries.

        Either ``values`` (the full tensor, used for weights) or the
        pre-computed statistics ``mean``/``std``/``minimum``/``maximum``
        plus optional ``outlier_samples`` (used for profiled activations)
        must be provided.

        Args:
            name: Tensor name.
            golden: The Golden Dictionary.
            values: Full tensor values (weights path).
            mean: Pre-computed mean (activations path).
            std: Pre-computed standard deviation (activations path).
            minimum: Pre-computed minimum (activations path).
            maximum: Pre-computed maximum (activations path).
            use_exponential: Store the exponential-curve centroids (True for
                the Mokey accelerator).
            max_outlier_entries: Outlier dictionary capacity (16 in the paper).
            fixed_point_bits: Per-layer fixed-point width (16 in the paper).
            outlier_samples: Sampled values used to place outlier centroids
                when ``values`` is not given.
        """
        if values is not None:
            values = np.asarray(values, dtype=np.float64).ravel()
            if values.size == 0:
                raise ValueError(f"tensor {name!r} is empty")
            minimum = float(values.min())
            maximum = float(values.max())
            if not (np.isfinite(minimum) and np.isfinite(maximum)):
                raise non_finite_error(name, values)
            mean = float(values.mean())
            std = float(values.std())
        else:
            if mean is None or std is None or minimum is None or maximum is None:
                raise ValueError(
                    "either values or (mean, std, minimum, maximum) must be provided"
                )

        std = max(float(std), 1e-12)
        fixed_point = FixedPointFormat.for_range(minimum, maximum, total_bits=fixed_point_bits)
        gaussian_half = golden.stored_half(use_exponential=use_exponential)
        threshold = golden.gaussian_threshold() * std

        # Outlier centroids are placed from whatever samples are available.
        if values is not None:
            sample_pool = values
        elif outlier_samples is not None:
            sample_pool = np.asarray(outlier_samples, dtype=np.float64).ravel()
        else:
            sample_pool = np.empty(0)
        outlier_centroids = cls._fit_outlier_centroids(
            sample_pool, mean, threshold, max_outlier_entries, fixed_point
        )

        return cls(
            name=name,
            mean=float(mean),
            std=std,
            golden=golden,
            gaussian_half=gaussian_half,
            outlier_centroids=outlier_centroids,
            fixed_point=fixed_point,
            threshold=threshold,
        )

    @staticmethod
    def _fit_outlier_centroids(
        samples: np.ndarray,
        mean: float,
        threshold: float,
        max_entries: int,
        fixed_point: FixedPointFormat,
    ) -> np.ndarray:
        """Cluster the outlier samples into at most ``max_entries`` centroids.

        With at most ``max_entries`` distinct outliers, each gets its own
        centroid: clustering would only split duplicates into repeated
        centroids.
        """
        if samples.size == 0 or max_entries <= 0:
            # max_entries == 0 models the ablation where outliers are clamped
            # into the Gaussian dictionary instead of getting their own.
            return np.empty(0, dtype=np.float64)
        outliers = samples[np.abs(samples - mean) > threshold]
        centroids = np.unique(outliers)
        if centroids.size > max_entries:
            centroids = agglomerative_cluster_1d(outliers, max_entries).centroids
        return fixed_point.quantize(centroids)

    # ------------------------------------------------------------------ #
    # Derived views
    # ------------------------------------------------------------------ #
    @property
    def has_outliers(self) -> bool:
        return self.outlier_centroids.size > 0

    def gaussian_centroids(self) -> np.ndarray:
        """All signed Gaussian centroid values in tensor units, ascending."""
        half = self.gaussian_half * self.std
        return self.fixed_point.quantize(
            np.concatenate([self.mean - half[::-1], self.mean + half])
        )

    def all_centroids(self) -> np.ndarray:
        """Gaussian + outlier centroid values, sorted ascending (Fig. 7 view)."""
        return np.sort(np.concatenate([self.gaussian_centroids(), self.outlier_centroids]))

    def metadata_bits(self, centroid_bits: int = 16) -> int:
        """Bits of per-tensor metadata stored alongside the model.

        A Gaussian half dictionary (8 x 16b), the outlier dictionary
        (up to 16 x 16b) and four 16-bit constants (mean, std and the
        pre-computed SoW2 / PoM terms).
        """
        gaussian = self.gaussian_half.size * centroid_bits
        outlier = max(self.outlier_centroids.size, 0) * centroid_bits
        constants = 4 * centroid_bits
        return gaussian + outlier + constants

    # ------------------------------------------------------------------ #
    # Encode / decode
    # ------------------------------------------------------------------ #
    def encode(self, values: np.ndarray) -> EncodedValues:
        """Encode a tensor into sign/index/outlier form."""
        values = np.asarray(values, dtype=np.float64)
        centred = values - self.mean
        is_outlier = np.abs(centred) > self.threshold
        if not self.has_outliers:
            is_outlier = np.zeros_like(is_outlier)

        sign = np.where(centred >= 0, 1, -1).astype(np.int8)
        normalised = np.abs(centred) / self.std
        # Nearest Gaussian half magnitude via midpoint search.
        midpoints = (self.gaussian_half[:-1] + self.gaussian_half[1:]) / 2.0
        gaussian_index = np.searchsorted(midpoints, normalised).astype(np.int8)

        if self.has_outliers:
            ot_midpoints = (self.outlier_centroids[:-1] + self.outlier_centroids[1:]) / 2.0
            outlier_index = np.searchsorted(ot_midpoints, values).astype(np.int8)
        else:
            outlier_index = np.zeros(values.shape, dtype=np.int8)

        return EncodedValues(
            is_outlier=is_outlier,
            sign=sign,
            gaussian_index=gaussian_index,
            outlier_index=outlier_index,
        )

    def decode(self, encoded: EncodedValues, apply_fixed_point: bool = True) -> np.ndarray:
        """Reconstruct tensor values from their encoding.

        Args:
            encoded: The per-value encoding.
            apply_fixed_point: Round the reconstruction to the per-layer
                16-bit fixed-point grid (the hardware behaviour).  Tests of
                the index-domain arithmetic disable this to compare exact
                real-valued results.
        """
        magnitudes = self.gaussian_half[encoded.gaussian_index]
        gaussian_values = encoded.sign * magnitudes * self.std + self.mean
        if self.has_outliers:
            outlier_values = self.outlier_centroids[encoded.outlier_index]
            decoded = np.where(encoded.is_outlier, outlier_values, gaussian_values)
        else:
            decoded = gaussian_values
        if apply_fixed_point:
            return self.fixed_point.quantize(decoded)
        return decoded

    def quantize_dequantize(self, values: np.ndarray) -> np.ndarray:
        """Round-trip ``values`` through the 4-bit encoding ("fake quantization")."""
        return self.decode(self.encode(values)).astype(np.float32)
