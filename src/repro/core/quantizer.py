"""Tensor-level Mokey quantization API.

:class:`MokeyQuantizer` is the user-facing entry point for quantizing
individual tensors: it owns the Golden Dictionary, fits per-tensor
dictionaries, and produces :class:`QuantizedTensor` objects that know how
to decode themselves and how many bits they occupy in memory.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.core.golden_dictionary import GoldenDictionary, generate_golden_dictionary
from repro.core.tensor_dictionary import (
    EncodedValues,
    TensorDictionary,
    non_finite_error,
)

__all__ = ["QuantizedTensor", "MokeyQuantizer"]


@dataclass
class QuantizedTensor:
    """A tensor stored in Mokey's 4-bit index form.

    Attributes:
        name: Tensor name.
        shape: Original tensor shape.
        encoded: One code per value (see :class:`EncodedValues`).
        dictionary: The per-tensor Gaussian + outlier dictionaries.
        per_request: Encoded for one request only (an attention K/V
            operand): the index-domain engine never caches its planes,
            which no later call could reuse.
    """

    name: str
    shape: Tuple[int, ...]
    encoded: EncodedValues
    dictionary: TensorDictionary
    per_request: bool = False

    @property
    def size(self) -> int:
        return int(np.prod(self.shape)) if self.shape else 1

    @property
    def outlier_fraction(self) -> float:
        """Fraction of values encoded through the outlier dictionary."""
        return self.encoded.outlier_fraction

    @property
    def outlier_count(self) -> int:
        return self.encoded.outlier_count

    def dequantize(self) -> np.ndarray:
        """Reconstruct the tensor as 16-bit fixed-point values (float array)."""
        return self.dictionary.decode(self.encoded).reshape(self.shape).astype(np.float32)

    def value_bits(self, bits_per_value: int = 4) -> int:
        """Bits used by the quantized value stream alone."""
        return self.size * bits_per_value

    def memory_bits(self, bits_per_value: int = 4, group_size: Optional[int] = None) -> int:
        """Total bits in the off-chip container of Fig. 5.

        Includes the 4-bit value stream, the per-group outlier counts and
        the in-group outlier position pointers (widths shared with the
        packer in :mod:`repro.memory.layout`), plus the per-tensor
        dictionary metadata.
        """
        from repro.memory.layout import COUNT_BITS, GROUP_SIZE, POSITION_BITS

        if group_size is None:
            group_size = GROUP_SIZE
        num_groups = int(np.ceil(self.size / group_size))
        pointer_bits = num_groups * COUNT_BITS + self.outlier_count * POSITION_BITS
        return self.value_bits(bits_per_value) + pointer_bits + self.dictionary.metadata_bits()

    def compression_ratio(self, baseline_bits_per_value: int = 32) -> float:
        """Footprint reduction versus storing the tensor at ``baseline_bits_per_value``."""
        original = self.size * baseline_bits_per_value
        return original / self.memory_bits()

    def content_digest(self) -> str:
        """Content hash of the encoded stream plus its dictionary.

        Two tensors share a digest exactly when their code arrays,
        shape, and every dictionary parameter that influences decode or
        plane construction agree — so anything keyed by this digest (the
        plane cache) can never go stale: a different tensor is a
        different key by construction.  Memoised per instance; the
        encoding is immutable once constructed.
        """
        memoised = getattr(self, "_content_digest", None)
        if memoised is not None:
            return memoised
        enc, d = self.encoded, self.dictionary
        fit = d.golden.fit
        h = hashlib.sha1()
        h.update(repr(self.shape).encode())
        h.update(np.ascontiguousarray(enc.codes).tobytes())
        h.update(
            np.array(
                [d.mean, d.std, d.threshold, fit.a, fit.b], dtype=np.float64
            ).tobytes()
        )
        h.update(np.array([fit.num_entries], dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(d.gaussian_half, dtype=np.float64).tobytes())
        h.update(np.ascontiguousarray(d.outlier_centroids, dtype=np.float64).tobytes())
        digest = h.hexdigest()
        self._content_digest = digest
        return digest

    def quantization_error(self, original: np.ndarray) -> Dict[str, float]:
        """Error statistics of the reconstruction against ``original``."""
        original = np.asarray(original, dtype=np.float64).reshape(self.shape)
        recon = self.dequantize().astype(np.float64)
        diff = recon - original
        denom = float(np.abs(original).mean()) or 1.0
        return {
            "mae": float(np.abs(diff).mean()),
            "max_abs": float(np.abs(diff).max()),
            "relative_mae": float(np.abs(diff).mean() / denom),
            "mse": float((diff ** 2).mean()),
        }


class MokeyQuantizer:
    """Quantize tensors to 4-bit dictionary indexes (paper Section II).

    Args:
        golden: A pre-generated Golden Dictionary; one is generated with the
            default parameters if omitted.
        use_exponential: Snap Gaussian centroids to the fitted exponential
            curve (required for index-domain compute).
        fixed_point_bits: Per-layer fixed-point width for centroids/outputs.
        max_outlier_entries: Capacity of the outlier dictionary.
    """

    def __init__(
        self,
        golden: Optional[GoldenDictionary] = None,
        use_exponential: bool = True,
        fixed_point_bits: int = 16,
        max_outlier_entries: int = 16,
        fit_memo: bool = True,
        fit_memo_entries: int = 256,
    ) -> None:
        self.golden = golden or generate_golden_dictionary()
        self.use_exponential = use_exponential
        self.fixed_point_bits = fixed_point_bits
        self.max_outlier_entries = max_outlier_entries
        self.fit_memo = bool(fit_memo)
        self.fit_memo_entries = int(fit_memo_entries)
        self.fit_memo_hits = 0
        self.fit_memo_misses = 0
        self._fit_memo: "OrderedDict[str, TensorDictionary]" = OrderedDict()
        self._fit_memo_lock = threading.Lock()

    def __getstate__(self) -> Dict[str, Any]:
        # The lock (unpicklable) and memo (a cache, not state) stay behind.
        state = dict(self.__dict__)
        state.pop("_fit_memo_lock", None)
        state["_fit_memo"] = OrderedDict()
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._fit_memo_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Dictionary fitting
    # ------------------------------------------------------------------ #
    @staticmethod
    def _fit_digest(values: np.ndarray) -> str:
        # No shape: the fit only sees the flattened value distribution.
        data = np.ascontiguousarray(values, dtype=np.float64)
        return hashlib.sha1(data.tobytes()).hexdigest()

    def fit_dictionary(self, name: str, values: np.ndarray) -> TensorDictionary:
        """Fit per-tensor dictionaries from the full tensor (weights path).

        Fits are memoised by a content digest of the float64 value bytes
        (LRU, :attr:`fit_memo_entries` deep): refitting an identical
        tensor — warm forwards, repeated prefills — returns the previous
        fit, renamed if the caller's name differs.  Exact-bytes keying
        means a hit is the *same* fit the cold path would compute.
        """
        values = np.asarray(values)
        if not self.fit_memo:
            return self._fit_fresh(name, values)
        digest = self._fit_digest(values)
        with self._fit_memo_lock:
            memoised = self._fit_memo.get(digest)
            if memoised is not None:
                self._fit_memo.move_to_end(digest)
                self.fit_memo_hits += 1
        if memoised is not None:
            if memoised.name != name:
                memoised = replace(memoised, name=name)
            return memoised
        fitted = self._fit_fresh(name, values)
        with self._fit_memo_lock:
            self.fit_memo_misses += 1
            self._fit_memo[digest] = fitted
            while len(self._fit_memo) > self.fit_memo_entries:
                self._fit_memo.popitem(last=False)
        return fitted

    def _fit_fresh(self, name: str, values: np.ndarray) -> TensorDictionary:
        return TensorDictionary.fit(
            name=name,
            golden=self.golden,
            values=np.asarray(values),
            use_exponential=self.use_exponential,
            max_outlier_entries=self.max_outlier_entries,
            fixed_point_bits=self.fixed_point_bits,
        )

    def fit_dictionary_from_stats(
        self,
        name: str,
        mean: float,
        std: float,
        minimum: float,
        maximum: float,
        samples: Optional[np.ndarray] = None,
    ) -> TensorDictionary:
        """Fit per-tensor dictionaries from profiled statistics (activations path)."""
        return TensorDictionary.fit(
            name=name,
            golden=self.golden,
            mean=mean,
            std=std,
            minimum=minimum,
            maximum=maximum,
            use_exponential=self.use_exponential,
            max_outlier_entries=self.max_outlier_entries,
            fixed_point_bits=self.fixed_point_bits,
            outlier_samples=samples,
        )

    # ------------------------------------------------------------------ #
    # Quantization
    # ------------------------------------------------------------------ #
    def quantize(
        self,
        values: np.ndarray,
        name: str = "tensor",
        dictionary: Optional[TensorDictionary] = None,
    ) -> QuantizedTensor:
        """Quantize a tensor, fitting its dictionary first if not supplied.

        Raises:
            ValueError: ``values`` holds NaN or +/-Inf (one line naming
                the tensor and counting the non-finite values).
        """
        values = np.asarray(values)
        if dictionary is None:
            dictionary = self.fit_dictionary(name, values)
        elif not np.isfinite(values).all():
            raise non_finite_error(name, values)
        encoded = dictionary.encode(values)
        return QuantizedTensor(
            name=name,
            shape=tuple(values.shape),
            encoded=encoded,
            dictionary=dictionary,
        )

    def quantize_dequantize(self, values: np.ndarray, name: str = "tensor") -> np.ndarray:
        """Convenience round-trip used for fake-quantized inference."""
        return self.quantize(values, name=name).dequantize()
