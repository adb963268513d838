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

#: Smallest standard deviation a dictionary uses (the smallest positive
#: float64), so normalising by it never divides by zero.
STD_FLOOR = float(np.finfo(np.float64).smallest_subnormal)


def non_finite_error(name: str, values: np.ndarray) -> ValueError:
    """The one-line rejection of a tensor holding NaN or +/-Inf values."""
    bad = values.size - int(np.count_nonzero(np.isfinite(values)))
    return ValueError(
        f"tensor {name!r} has {bad} non-finite (NaN/Inf) of {values.size} "
        "values; only finite tensors can be quantized"
    )


@dataclass
class EncodedValues:
    """The per-value encoding produced by :meth:`TensorDictionary.encode`.

    Each value is one ``uint8`` code into its dictionary's lookup table.
    With ``G`` Gaussian half entries:

    * ``0 <= code < G``: Gaussian half entry ``code``, positive sign;
    * ``G <= code < 2G``: Gaussian half entry ``code - G``, negative sign;
    * ``code >= 2G``: outlier-dictionary entry ``code - 2G``.

    For the paper's ``G = 8`` this is exactly the 5-bit on-chip form of
    Fig. 5: dictionary-select bit, sign bit, 3-bit index.

    Attributes:
        codes: ``uint8`` code per value, in the tensor's shape.
        half_entries: ``G``, the size of the Gaussian half dictionary.
    """

    codes: np.ndarray
    half_entries: int

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.codes.shape

    @property
    def size(self) -> int:
        return int(self.codes.size)

    @property
    def is_outlier(self) -> np.ndarray:
        """Values encoded through the outlier dictionary."""
        return self.codes >= 2 * self.half_entries

    @property
    def sign(self) -> np.ndarray:
        """+1 / -1 sign of each Gaussian entry (+1 for outliers, which store none)."""
        negative = (self.codes >= self.half_entries) & ~self.is_outlier
        return np.where(negative, np.int8(-1), np.int8(1))

    @property
    def gaussian_index(self) -> np.ndarray:
        """Index into the Gaussian half dictionary (meaningful for Gaussian entries only)."""
        return (self.codes % self.half_entries).astype(np.int8)

    @property
    def outlier_count(self) -> int:
        """Number of values encoded through the outlier dictionary."""
        return int(np.count_nonzero(self.is_outlier))

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
            # Overflowing statistics are rejected below, in one line.
            with np.errstate(over="ignore", invalid="ignore"):
                mean = float(values.mean())
                std = float(values.std())
        else:
            if mean is None or std is None or minimum is None or maximum is None:
                raise ValueError(
                    "either values or (mean, std, minimum, maximum) must be provided"
                )

        if not (np.isfinite(mean) and np.isfinite(std)):
            raise ValueError(
                f"tensor {name!r} statistics overflow float64 (mean={mean}, "
                f"std={std}); rescale it before quantizing"
            )
        # The floor keeps constant tensors encodable; scaling it with the
        # tensor's magnitude keeps tiny (subnormal) tensors' decode error
        # below their own values.
        magnitude = max(abs(float(minimum)), abs(float(maximum)))
        floor = 1e-12 * magnitude if magnitude > 0 else 1e-12
        std = max(float(std), floor, STD_FLOOR)
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
        """Encode a tensor into one code per value (see :class:`EncodedValues`)."""
        half_entries = self.gaussian_half.size
        if 2 * half_entries + self.outlier_centroids.size > 256:
            raise ValueError(
                f"tensor {self.name!r}: {half_entries} Gaussian half entries and "
                f"{self.outlier_centroids.size} outlier entries exceed 256 uint8 codes"
            )
        values = np.asarray(values, dtype=np.float64)
        # Encode a flat view: a 0-d input would otherwise make the
        # temporaries NumPy scalars, which cannot take ``out=``.
        flat = values.reshape(-1)
        centred = flat - self.mean
        magnitude = np.abs(centred)
        is_outlier = magnitude > self.threshold if self.has_outliers else None

        codes = np.where(centred >= 0, np.uint8(0), np.uint8(half_entries))
        # A value far outside a narrow profiled dictionary normalises to
        # inf and takes the outermost index, like any other clipped value.
        with np.errstate(over="ignore"):
            normalised = np.divide(magnitude, self.std, out=magnitude)
        # Nearest Gaussian half magnitude: the count of midpoints below the
        # value (``searchsorted``'s left insertion point, in a few passes).
        midpoints = (self.gaussian_half[:-1] + self.gaussian_half[1:]) / 2.0
        for midpoint in midpoints:
            codes += normalised > midpoint

        # Only outliers read an outlier index: search for those alone.
        if is_outlier is not None:
            ot_midpoints = (self.outlier_centroids[:-1] + self.outlier_centroids[1:]) / 2.0
            codes[is_outlier] = 2 * half_entries + np.searchsorted(
                ot_midpoints, flat[is_outlier]
            )
        return EncodedValues(codes=codes.reshape(values.shape), half_entries=half_entries)

    def decode(self, encoded: EncodedValues, apply_fixed_point: bool = True) -> np.ndarray:
        """Reconstruct tensor values from their encoding: one table lookup.

        Args:
            encoded: The per-value encoding.
            apply_fixed_point: Round the reconstruction to the per-layer
                16-bit fixed-point grid (the hardware behaviour).  Tests of
                the index-domain arithmetic disable this to compare exact
                real-valued results.
        """
        return self.decode_table(apply_fixed_point)[encoded.codes]

    def decode_table(self, apply_fixed_point: bool = True) -> np.ndarray:
        """The float64 value of every code, indexed by code.

        Positive Gaussian halves, negative Gaussian halves, then the
        outlier centroids (see :class:`EncodedValues`).

        Args:
            apply_fixed_point: Round the values to the per-layer 16-bit
                fixed-point grid, as :meth:`decode` does.
        """
        half = self.gaussian_half
        table = np.concatenate([
            np.concatenate([half, -half]) * self.std + self.mean,
            self.outlier_centroids,
        ])
        if apply_fixed_point:
            table = self.fixed_point.quantize(table)
        return table

    def quantize_dequantize(self, values: np.ndarray) -> np.ndarray:
        """Round-trip ``values`` through the 4-bit encoding ("fake quantization")."""
        return self.decode(self.encode(values)).astype(np.float32)
