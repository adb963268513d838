"""Index-domain computation (paper Section II-D, Fig. 4, Eq. 3-6).

Because every Gaussian-encoded value has the form
``theta * (a**int + b) * s + m``, the dot product of an activation vector
with a weight vector decomposes into four families of terms:

* ``SoI``  — sum of ``a**(int_A + int_W)`` signed by ``theta_A * theta_W``,
  accumulated as a 15-entry signed histogram of exponent sums;
* ``SoA1`` / ``SoA2`` — sums of activation exponentials signed by the
  product sign / the activation sign alone (Eq. 4);
* ``SoW1`` / ``SoW2`` — the symmetric weight-side terms (Eq. 5);
* ``PoM1..4`` — the sign-count and constant terms (Eq. 6).

Pairs in which either operand is an outlier are excluded from the
histograms and handled by a direct multiply-accumulate on their 16-bit
centroids, exactly like the hardware's OPP unit.

Two engines implement the arithmetic:

* :class:`IndexDomainEngine` — the faithful scalar engine and the home of
  the Eq. 3-6 counter formulation: one Python ``dot`` per output
  activation, histograms accumulated with ``np.add.at`` exactly as the
  GPE's counter register files do.  It is the correctness reference for
  the hardware model and for the vectorized engine, but a Python loop per
  output element makes it unusable at model scale (a single BERT-base
  GEMM holds ~10^5 outputs).
* :class:`VectorizedIndexDomainEngine` — computes whole GEMMs with NumPy
  array operations, ~100-1000x faster at layer shapes.

**Values from one decoded GEMM.**  Eq. 3-6 is an exact algebraic rewrite
of ``dec(A) @ dec(W)``: with exponential-curve centroids a Gaussian symbol
decodes to exactly ``theta * (a**i + b) * s + m`` and an outlier to its
16-bit centroid, so the counter terms plus the OPP's outlier MACs sum to
the same number as one dense product of the decoded operands.  The
rewrite is what makes the hardware datapath narrow; a host gains nothing
from it, so the vectorized engine computes values as that one GEMM
(outlier pairs included).  Both engines therefore accept only
exponential-centroid dictionaries (``MokeyQuantizer(use_exponential=True)``,
the default), and the property test vectorized == scalar is what proves
the two formulations agree.

**Float32 planes.**  The PE multiplies 16-bit fixed-point centroids and
keeps exact integer counters, so nothing asks for a float64 datapath: the
vectorized engine decodes operands to float32
(:attr:`VectorizedIndexDomainEngine.plane_dtype`, the one place the dtype
is chosen), every product is an sgemm and its values come back float32.
An operand whose values lie outside float32's safe range keeps float64
planes and its products promote to float64 (see :func:`_plane_table`).
The statistics never depend on the dtype.  A subclass with
``plane_dtype = np.float64`` is the float64 reference the tests check the
default against.

**Statistics from masks.**  Operation counts are exact integers derived
from the outlier masks alone — the Gaussian pair count of output
``(m, n)`` is the number of ``k`` at which neither operand is an outlier
— so the vectorized engine reports *identical* :class:`IndexComputeStats`
to the scalar engine (a property-test-locked guarantee), while values
agree to floating-point round-off.

**One GEMM path.**  Every GEMM runs as part of a *weight group*: the
GEMMs of one call that share a right-operand object (the serving streams'
projections against one layer weight, say) row-concatenate their decoded
activation rows against that weight's one decoded plane, so the group
costs one dense product however many GEMMs — and whatever row counts —
it holds.  A lone GEMM is the one-member group.
"""

from __future__ import annotations

import math
import os
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro._registry import Registry
from repro.core.quantizer import QuantizedTensor
from repro.core.tensor_dictionary import EncodedValues, TensorDictionary

__all__ = [
    "IndexComputeStats",
    "IndexComputeResult",
    "IndexMatmulResult",
    "PlaneSet",
    "PlaneCache",
    "PlaneCacheStats",
    "get_plane_cache",
    "set_plane_cache",
    "use_plane_cache",
    "IndexDomainEngine",
    "VectorizedIndexDomainEngine",
    "TorchIndexDomainEngine",
    "ENGINES",
    "ENGINE_DESCRIPTIONS",
    "index_domain_dot",
    "index_domain_matmul",
    "index_domain_matmul_many",
    "vectorized_index_domain_matmul",
]


@dataclass
class IndexComputeStats:
    """Operation counts of one index-domain dot product.

    These counts drive the accelerator energy model: the bulk of the work
    is narrow additions (index sums and counter updates) and the rare
    outlier pairs cost a full 16-bit MAC each.
    """

    gaussian_pairs: int = 0
    outlier_pairs: int = 0
    index_additions: int = 0
    counter_updates: int = 0
    post_processing_macs: int = 0

    @property
    def total_pairs(self) -> int:
        return self.gaussian_pairs + self.outlier_pairs

    @property
    def outlier_pair_fraction(self) -> float:
        total = self.total_pairs
        return self.outlier_pairs / total if total else 0.0

    def merge(self, other: "IndexComputeStats") -> "IndexComputeStats":
        """Accumulate another dot product's counts into this one."""
        self.gaussian_pairs += other.gaussian_pairs
        self.outlier_pairs += other.outlier_pairs
        self.index_additions += other.index_additions
        self.counter_updates += other.counter_updates
        self.post_processing_macs += other.post_processing_macs
        return self

    def scaled(self, factor: int) -> "IndexComputeStats":
        """The counts of ``factor`` identically-shaped repetitions.

        Exact for every count that depends on shape alone; models the
        repetitions' outlier pairs as matching this instance.  (The layer
        executor measures every head/batch instance directly; this is the
        cheap alternative for callers that extrapolate instead.)
        """
        return IndexComputeStats(
            gaussian_pairs=self.gaussian_pairs * factor,
            outlier_pairs=self.outlier_pairs * factor,
            index_additions=self.index_additions * factor,
            counter_updates=self.counter_updates * factor,
            post_processing_macs=self.post_processing_macs * factor,
        )

    def copy(self) -> "IndexComputeStats":
        return replace(self)


@dataclass
class IndexComputeResult:
    """Value and term breakdown of one index-domain dot product."""

    value: float
    soi: float
    soa1: float
    soa2: float
    sow1: float
    sow2: float
    pom: float
    outlier_contribution: float
    stats: IndexComputeStats

    def terms(self) -> Dict[str, float]:
        return {
            "SoI": self.soi,
            "SoA1": self.soa1,
            "SoA2": self.soa2,
            "SoW1": self.sow1,
            "SoW2": self.sow2,
            "PoM": self.pom,
            "outliers": self.outlier_contribution,
        }


@dataclass
class IndexMatmulResult:
    """Outcome of one vectorized index-domain matrix multiply.

    Attributes:
        values: The ``(M, N)`` numeric result.
        stats: Exact aggregate operation counts, identical to merging the
            scalar engine's per-output statistics.
    """

    values: np.ndarray
    stats: IndexComputeStats


# --------------------------------------------------------------------------- #
# The cross-call plane cache
# --------------------------------------------------------------------------- #

@dataclass
class PlaneCacheStats:
    """Counters of the plane cache, a sibling of :class:`IndexComputeStats`.

    Attributes:
        hits: Digest-cache lookups that found the planes already built.
        misses: Digest-cache lookups that had to build the planes.
        attached_hits: Plane sets served from the operand tensor itself
            (the KV cache's incrementally grown slabs attach these).
        evictions: Entries dropped by the LRU byte budget.
        device_uploads: Plane arrays converted/uploaded by a device
            backend (the torch engine's one-time residency cost).
        device_reuses: Device-resident plane tensors reused without a
            conversion or transfer.
        entries: Entries currently resident in the digest cache.
        bytes_cached: Bytes currently held by the digest cache.
    """

    hits: int = 0
    misses: int = 0
    attached_hits: int = 0
    evictions: int = 0
    device_uploads: int = 0
    device_reuses: int = 0
    entries: int = 0
    bytes_cached: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of plane requests served without rebuilding planes."""
        served = self.hits + self.attached_hits
        total = served + self.misses
        return served / total if total else 0.0

    def minus(self, other: "PlaneCacheStats") -> "PlaneCacheStats":
        """The delta of the monotonic counters since ``other`` was taken.

        ``entries`` / ``bytes_cached`` are point-in-time gauges and keep
        this instance's (later) values.
        """
        return PlaneCacheStats(
            hits=self.hits - other.hits,
            misses=self.misses - other.misses,
            attached_hits=self.attached_hits - other.attached_hits,
            evictions=self.evictions - other.evictions,
            device_uploads=self.device_uploads - other.device_uploads,
            device_reuses=self.device_reuses - other.device_reuses,
            entries=self.entries,
            bytes_cached=self.bytes_cached,
        )

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {f.name: int(getattr(self, f.name)) for f in fields(self)}
        data["hit_rate"] = float(self.hit_rate)
        return data


class PlaneSet:
    """The decoded operand plane and outlier mask of one operand in one role.

    ``role="lhs"`` holds an activation's ``(M, K)`` arrays, ``role="rhs"``
    a weight's ``(K, N)`` arrays.  :attr:`dec` is the operand decoded to
    its 16-bit centroids (without the fixed-point rounding) in the
    engine's plane dtype (float32 by default; float64 for an operand
    outside float32's safe range), the one array the engine's dense
    product reads; :attr:`out` is the boolean outlier mask the exact
    statistics are counted from.  The weight role also keeps
    :attr:`gauss_per_k`, the Gaussian count of every ``k`` row.
    :attr:`fit_key` is the Golden fit and requested plane dtype the
    planes were built for (see :func:`_plane_fit_key`).
    :attr:`device_tensors` is scratch space for device backends to pin an
    uploaded copy of :attr:`dec` (keyed by device).
    """

    __slots__ = ("role", "fit_key", "plane_shape", "dec", "out", "gauss_per_k", "device_tensors")

    def __init__(
        self,
        dec: np.ndarray,
        out: np.ndarray,
        role: str,
        fit_key: Tuple[float, float, int, str],
    ) -> None:
        if role not in ("lhs", "rhs"):
            raise ValueError(f"role must be 'lhs' or 'rhs', got {role!r}")
        self.role = role
        self.fit_key = fit_key
        self.plane_shape = tuple(out.shape)
        # C-contiguous everywhere: transposed/sliced sources may arrive
        # F-ordered, and a fixed layout keeps every BLAS call bitwise
        # reproducible regardless of how the planes were assembled.
        self.dec = np.ascontiguousarray(dec)
        self.out = np.ascontiguousarray(out)
        self.gauss_per_k = (
            (~self.out).sum(axis=1, dtype=np.int64) if role == "rhs" else None
        )
        self.device_tensors: Dict[str, Any] = {}

    @property
    def nbytes(self) -> int:
        """Host bytes held (decoded plane + outlier mask)."""
        return int(self.dec.nbytes) + int(self.out.nbytes)


#: Default LRU budget of the process-wide plane cache, in megabytes.
#: Override with the ``REPRO_PLANE_CACHE_MB`` environment variable.
DEFAULT_PLANE_CACHE_MB = 4096.0


class PlaneCache:
    """Cross-call LRU cache of weight-side :class:`PlaneSet` artifacts.

    Keys are the operand's content digest plus role and plane dtype (the
    float32 default and a float64 reference engine never share planes),
    so an entry can never serve stale planes: a tensor with different
    encoded values or a different dictionary has a different digest *by
    construction* — there is no invalidation protocol to get wrong.  The byte budget covers the
    host plane arrays (decoded plane and outlier mask); least-recently-used
    entries are dropped when the budget is exceeded, and any
    device-resident copies go with them.

    Thread-safe; counters are exposed as :class:`PlaneCacheStats`.
    """

    def __init__(self, max_bytes: Optional[int] = None) -> None:
        if max_bytes is None:
            raw = os.environ.get("REPRO_PLANE_CACHE_MB", str(DEFAULT_PLANE_CACHE_MB))
            try:
                megabytes = float(raw)
            except ValueError:
                megabytes = math.nan
            if not (math.isfinite(megabytes) and megabytes >= 0):
                raise ValueError(
                    "REPRO_PLANE_CACHE_MB must be a finite number of megabytes "
                    f">= 0, got {raw!r}"
                )
            max_bytes = int(megabytes * 1024 * 1024)
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes!r}")
        self.max_bytes = int(max_bytes)
        self._entries: "OrderedDict[Tuple[str, str, str], PlaneSet]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.attached_hits = 0
        self.evictions = 0
        self.device_uploads = 0
        self.device_reuses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def bytes_cached(self) -> int:
        with self._lock:
            return self._bytes

    def get(self, key: Tuple[str, str, str]) -> Optional[PlaneSet]:
        """The cached plane set for ``key``, counting the hit or miss."""
        with self._lock:
            plane_set = self._entries.get(key)
            if plane_set is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return plane_set

    def put(self, key: Tuple[str, str, str], plane_set: PlaneSet) -> None:
        """Insert ``plane_set`` under ``key``, evicting LRU entries over budget."""
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._bytes -= previous.nbytes
            self._entries[key] = plane_set
            self._bytes += plane_set.nbytes
            self._evict_over_budget()

    def _evict_over_budget(self) -> None:
        # Caller holds the lock.  Evicting the newest entry too (when it
        # alone exceeds the budget) keeps the budget strict; the caller
        # still holds a reference and proceeds, the cache just stays cold.
        while self._bytes > self.max_bytes and self._entries:
            _, evicted = self._entries.popitem(last=False)
            self._bytes -= evicted.nbytes
            self.evictions += 1

    def note_attached_hit(self) -> None:
        with self._lock:
            self.attached_hits += 1

    def note_device_upload(self) -> None:
        with self._lock:
            self.device_uploads += 1

    def note_device_reuse(self) -> None:
        with self._lock:
            self.device_reuses += 1

    def stats(self) -> PlaneCacheStats:
        """A snapshot of every counter (see :meth:`PlaneCacheStats.minus`)."""
        with self._lock:
            return PlaneCacheStats(
                hits=self.hits,
                misses=self.misses,
                attached_hits=self.attached_hits,
                evictions=self.evictions,
                device_uploads=self.device_uploads,
                device_reuses=self.device_reuses,
                entries=len(self._entries),
                bytes_cached=self._bytes,
            )

    def clear(self) -> None:
        """Drop every entry (counters keep their totals)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0


_PLANE_CACHE_LOCK = threading.Lock()
_PLANE_CACHE_UNSET = object()
_plane_cache: Any = _PLANE_CACHE_UNSET


def get_plane_cache() -> Optional[PlaneCache]:
    """The process-wide plane cache (``None`` when caching is disabled).

    Created lazily with the default budget on first use; swap or disable
    it with :func:`set_plane_cache` / :func:`use_plane_cache`.
    """
    global _plane_cache
    if _plane_cache is _PLANE_CACHE_UNSET:
        with _PLANE_CACHE_LOCK:
            if _plane_cache is _PLANE_CACHE_UNSET:
                _plane_cache = PlaneCache()
    return _plane_cache


def _swap_plane_cache(cache: Any) -> Any:
    global _plane_cache
    with _PLANE_CACHE_LOCK:
        previous = _plane_cache
        _plane_cache = cache
    return previous


def set_plane_cache(cache: Optional[PlaneCache]) -> Optional[PlaneCache]:
    """Install ``cache`` as the process-wide plane cache (``None`` disables).

    Returns the previously installed cache, if any.
    """
    previous = _swap_plane_cache(cache)
    return None if previous is _PLANE_CACHE_UNSET else previous


@contextmanager
def use_plane_cache(cache: Optional[PlaneCache]) -> Iterator[Optional[PlaneCache]]:
    """Scoped plane-cache override; ``None`` disables caching in the scope."""
    previous = _swap_plane_cache(cache)
    try:
        yield cache
    finally:
        _swap_plane_cache(previous)


class IndexDomainEngine:
    """Computes dot products directly on dictionary indexes (scalar reference).

    Args:
        activation_dictionary: Dictionary of the activation tensor.
        weight_dictionary: Dictionary of the weight tensor.

    Both dictionaries must be derived from the same Golden Dictionary so
    that they share the exponential base ``a`` and offset ``b``, and both
    must store the exponential-curve centroids
    (``MokeyQuantizer(use_exponential=True)``): Eq. 3-6 regenerate the
    ``a**int + b`` magnitudes, so any other Gaussian centroids would make
    the result silently disagree with the decoded tensors.
    """

    def __init__(
        self,
        activation_dictionary: TensorDictionary,
        weight_dictionary: TensorDictionary,
    ) -> None:
        fit_a = activation_dictionary.golden.fit
        fit_w = weight_dictionary.golden.fit
        if activation_dictionary.golden is not weight_dictionary.golden and (
            not np.isclose(fit_a.a, fit_w.a) or not np.isclose(fit_a.b, fit_w.b)
        ):
            raise ValueError(
                "activation and weight dictionaries must share the same Golden Dictionary"
            )
        for dictionary in (activation_dictionary, weight_dictionary):
            if not np.array_equal(dictionary.gaussian_half, dictionary.golden.exponential_half()):
                raise ValueError(
                    f"tensor {dictionary.name!r} does not store exponential-curve "
                    "centroids; index-domain compute needs dictionaries fit with "
                    "use_exponential=True"
                )
        self.act_dict = activation_dictionary
        self.weight_dict = weight_dictionary
        self.a = fit_a.a
        self.b = fit_a.b
        self.num_entries = fit_a.num_entries
        # Pre-computed bases a**k for every possible exponent sum (the values
        # the OPP multiplies the SoI histogram with during post-processing).
        self.soi_bases = self.a ** np.arange(2 * self.num_entries - 1, dtype=np.float64)
        self.half_bases = self.a ** np.arange(self.num_entries, dtype=np.float64)

    @property
    def post_processing_macs_per_output(self) -> int:
        """Fixed post-processing MACs per output: one per SoI bin, one per
        SoA1/SoW1 bin, one for the PoM constants (outlier MACs add on top)."""
        return (2 * self.num_entries - 1) + 2 * self.num_entries + 1

    # ------------------------------------------------------------------ #
    # Scalar (per output activation) engine
    # ------------------------------------------------------------------ #
    def dot(
        self,
        activation: EncodedValues,
        weight: EncodedValues,
    ) -> IndexComputeResult:
        """Compute one output activation from encoded input vectors."""
        if activation.shape != weight.shape:
            raise ValueError("activation and weight vectors must have the same length")

        a, b = self.a, self.b
        s_a, m_a = self.act_dict.std, self.act_dict.mean
        s_w, m_w = self.weight_dict.std, self.weight_dict.mean

        theta_a = activation.sign.astype(np.float64).ravel()
        theta_w = weight.sign.astype(np.float64).ravel()
        idx_a = activation.gaussian_index.astype(np.int64).ravel()
        idx_w = weight.gaussian_index.astype(np.int64).ravel()
        outlier_pair = (activation.is_outlier | weight.is_outlier).ravel()
        gaussian_pair = ~outlier_pair

        n_gauss = int(gaussian_pair.sum())
        n_outlier = int(outlier_pair.sum())

        # --- Histogram accumulation (what the GPE's CRFs do) -------------- #
        product_sign = (theta_a * theta_w)[gaussian_pair]
        exp_sum = (idx_a + idx_w)[gaussian_pair]
        soi_hist = np.zeros(2 * self.num_entries - 1, dtype=np.float64)
        np.add.at(soi_hist, exp_sum, product_sign)

        soa1_hist = np.zeros(self.num_entries, dtype=np.float64)
        np.add.at(soa1_hist, idx_a[gaussian_pair], product_sign)
        sow1_hist = np.zeros(self.num_entries, dtype=np.float64)
        np.add.at(sow1_hist, idx_w[gaussian_pair], product_sign)
        pom1_count = float(product_sign.sum())

        # --- Post-processing: weighted reductions (Eq. 3-6) --------------- #
        soi = s_a * s_w * float(soi_hist @ self.soi_bases)
        soa1 = s_a * s_w * b * float(soa1_hist @ self.half_bases)
        sow1 = s_w * s_a * b * float(sow1_hist @ self.half_bases)

        # Activation-only and weight-only sums over the Gaussian pairs.
        sum_theta_a_exp = float((theta_a[gaussian_pair] * self.half_bases[idx_a[gaussian_pair]]).sum())
        sum_theta_w_exp = float((theta_w[gaussian_pair] * self.half_bases[idx_w[gaussian_pair]]).sum())
        sum_theta_a = float(theta_a[gaussian_pair].sum())
        sum_theta_w = float(theta_w[gaussian_pair].sum())

        soa2 = s_a * m_w * sum_theta_a_exp
        sow2 = s_w * m_a * sum_theta_w_exp
        pom = (
            s_a * s_w * b * b * pom1_count
            + s_a * m_w * b * sum_theta_a
            + s_w * m_a * b * sum_theta_w
            + n_gauss * m_a * m_w
        )

        # --- Outlier pairs: direct MAC on decoded 16-bit centroids -------- #
        outlier_contribution = 0.0
        if n_outlier:
            decoded_a = self.act_dict.decode(activation, apply_fixed_point=False).ravel()
            decoded_w = self.weight_dict.decode(weight, apply_fixed_point=False).ravel()
            outlier_contribution = float(
                (decoded_a[outlier_pair] * decoded_w[outlier_pair]).sum()
            )

        value = soi + soa1 + soa2 + sow1 + sow2 + pom + outlier_contribution

        stats = IndexComputeStats(
            gaussian_pairs=n_gauss,
            outlier_pairs=n_outlier,
            index_additions=n_gauss,
            # Each Gaussian pair updates the SoI, SoA1, SoW1 and PoM1 counters.
            counter_updates=4 * n_gauss,
            # Post-processing: one MAC per SoI bin + per SoA1/SoW1 bin + PoM,
            # plus one MAC per outlier pair in the OPP.
            post_processing_macs=self.post_processing_macs_per_output + n_outlier,
        )
        return IndexComputeResult(
            value=value,
            soi=soi,
            soa1=soa1,
            soa2=soa2,
            sow1=sow1,
            sow2=sow2,
            pom=pom,
            outlier_contribution=outlier_contribution,
            stats=stats,
        )

    # ------------------------------------------------------------------ #
    # Batched reference
    # ------------------------------------------------------------------ #
    def matmul(
        self,
        activations: QuantizedTensor,
        weights: QuantizedTensor,
    ) -> Tuple[np.ndarray, IndexComputeStats]:
        """Index-domain matrix multiply ``activations @ weights``.

        One scalar :meth:`dot` per output element; the row and column
        slices of both encodings are precomputed once (not per output), so
        the reference stays usable in larger equivalence tests.

        Args:
            activations: Quantized ``(M, K)`` activation matrix.
            weights: Quantized ``(K, N)`` weight matrix.

        Returns:
            The ``(M, N)`` result and the merged operation statistics.
        """
        m_rows, n_cols = _check_matmul_shapes(activations, weights)

        act_rows = _split_encoded(activations.encoded, activations.shape, axis=0)
        w_cols = _split_encoded(weights.encoded, weights.shape, axis=1)
        result = np.zeros((m_rows, n_cols), dtype=np.float64)
        stats = IndexComputeStats()
        for row, a_row in enumerate(act_rows):
            for col, w_col in enumerate(w_cols):
                out = self.dot(a_row, w_col)
                result[row, col] = out.value
                stats.merge(out.stats)
        return result, stats


#: Peak decode-table magnitudes a narrow plane dtype keeps.  Inside this
#: range any product of two values, summed over up to 2**31 terms, stays
#: finite and normal in float32 (2**96 * 2**31 < 2**128; 2**-96 > 2**-126).
_NARROW_PEAK_RANGE = (2.0**-48, 2.0**48)


def _plane_table(dictionary: TensorDictionary, plane_dtype: Any) -> np.ndarray:
    """``dictionary``'s decode table, unrounded, in the dtype its planes take.

    ``plane_dtype`` unless the table's peak magnitude lies outside
    :data:`_NARROW_PEAK_RANGE`: such an operand (a huge-range or
    subnormal tensor) keeps float64 planes, so its products promote to
    float64 instead of overflowing or flushing to zero.  Gathering
    ``table[codes]`` then decodes straight into the plane dtype.
    """
    table = dictionary.decode_table(apply_fixed_point=False)
    peak = float(np.max(np.abs(table), initial=0.0))
    low, high = _NARROW_PEAK_RANGE
    if peak and not low <= peak <= high:
        return table
    return table.astype(plane_dtype)


def _plane_fit_key(fit: Any, plane_dtype: Any) -> Tuple[float, float, int, str]:
    """What a plane set is built for: the Golden fit and the plane dtype."""
    return (float(fit.a), float(fit.b), int(fit.num_entries), np.dtype(plane_dtype).str)


class VectorizedIndexDomainEngine(IndexDomainEngine):
    """Whole-GEMM index-domain compute: one decoded GEMM plus mask statistics.

    Values are one dense product of the decoded operands, which Eq. 3-6
    rewrite exactly (see the module docstring); outlier pairs need no
    separate correction because their 16-bit centroids are already in the
    decoded planes.  Produces the same values as the scalar engine up to
    floating-point round-off and bit-identical operation statistics.

    The computation is staged so backends can swap the dense product
    without touching anything else: :meth:`_plane_set` (NumPy),
    :meth:`_product` / :meth:`_plane_operand` (the backend seam — the
    only floating-point GEMM in the engine), then the exact integer
    statistics (NumPy again, from the outlier masks alone).  Any backend
    therefore reports *identical* :class:`IndexComputeStats` to this
    oracle by construction.

    Operands decode to :attr:`plane_dtype`, so every product runs at that
    precision; a subclass that sets ``plane_dtype = np.float64`` is the
    float64 reference of the same engine.
    """

    #: Dtype of the decoded planes and so of every product: float32 carries
    #: a 16-bit centroid exactly, with 8 bits of accumulation headroom.
    plane_dtype: Any = np.float32

    def __init__(
        self,
        activation_dictionary: TensorDictionary,
        weight_dictionary: TensorDictionary,
    ) -> None:
        super().__init__(activation_dictionary, weight_dictionary)
        #: What the planes this engine builds are for; attached plane sets
        #: are only used when theirs matches (same fit, same dtype).
        self._fit_key = _plane_fit_key(activation_dictionary.golden.fit, self.plane_dtype)
        #: Decode table of each role's dictionary, in its plane dtype.
        self._tables = {
            "lhs": _plane_table(activation_dictionary, self.plane_dtype),
            "rhs": _plane_table(weight_dictionary, self.plane_dtype),
        }

    # ------------------------------------------------------------------ #
    # Backend seam: the only dense floating-point product in the engine
    # ------------------------------------------------------------------ #
    def _product(self, lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """One dense ``(R, K) @ (K, C)`` product on this backend."""
        return lhs @ rhs

    def _plane_operand(self, plane_set: PlaneSet) -> Any:
        """Backend hook: may return a device-resident handle for ``plane_set.dec``.

        The NumPy oracle returns the host array unchanged; the torch
        backend pins cached weight planes on its device (uploaded once,
        reused every GEMM that touches the plane set).
        """
        return plane_set.dec

    # ------------------------------------------------------------------ #
    # Stages
    # ------------------------------------------------------------------ #
    def _build_plane_set(
        self, tensor: QuantizedTensor, role: str, shape: Tuple[int, int]
    ) -> PlaneSet:
        """Decode one operand and take its outlier mask (always NumPy).

        The decode skips the fixed-point rounding, exactly like the scalar
        engine's outlier MAC, so Gaussian entries carry the exact
        exponential-curve values Eq. 3-6 regenerate; it gathers straight
        into the plane dtype (see :func:`_plane_table`).
        """
        encoded = tensor.encoded
        return PlaneSet(
            dec=self._tables[role][encoded.codes].reshape(shape),
            out=encoded.is_outlier.reshape(shape),
            role=role,
            fit_key=self._fit_key,
        )

    def _plane_set(
        self, tensor: QuantizedTensor, role: str, shape: Tuple[int, int]
    ) -> PlaneSet:
        """Resolve one operand's planes: attached → digest cache → build.

        An operand carrying pre-built planes (``tensor._plane_sets`` — the
        KV cache's incremental slabs) wins when its fit key (Golden fit
        and plane dtype) and shape match.  Otherwise the weight (``rhs``)
        role consults the process plane cache keyed by the tensor's
        content digest and the plane dtype; activations — and right
        operands encoded for one request (``per_request``) — are built
        fresh (they change every call, hashing them would only add
        cost and cache entries nothing reads again).
        """
        cache = get_plane_cache()
        attached = getattr(tensor, "_plane_sets", None)
        if attached is not None:
            candidate = attached.get(role)
            if (
                candidate is not None
                and candidate.fit_key == self._fit_key
                and candidate.plane_shape == tuple(shape)
            ):
                if cache is not None:
                    cache.note_attached_hit()
                return candidate
        if cache is not None and role == "rhs" and not tensor.per_request:
            key = (tensor.content_digest(), role, self._fit_key[3])
            cached = cache.get(key)
            if cached is not None:
                return cached
            built = self._build_plane_set(tensor, role, shape)
            cache.put(key, built)
            return built
        return self._build_plane_set(tensor, role, shape)

    def _stats_from_planes(self, act: PlaneSet, wgt: PlaneSet) -> IndexComputeStats:
        """Exact integer statistics from the outlier masks alone.

        The Gaussian pair count of output ``(m, n)`` is the number of
        ``k`` where neither ``act.out[m, k]`` nor ``wgt.out[k, n]`` is
        set; summing over ``n`` first keeps the count computation
        ``O(MK + KN)``.  Always NumPy integer arithmetic, so every
        backend reports identical counts.
        """
        m_rows, k_len = act.plane_shape
        n_cols = wgt.plane_shape[1]
        gauss_a_int = (~act.out).astype(np.int64)
        # (M, K) @ (K,): the weight's per-k Gaussian counts live on its plane set.
        gaussian_total = int((gauss_a_int @ wgt.gauss_per_k).sum())
        outlier_total = m_rows * n_cols * k_len - gaussian_total
        return IndexComputeStats(
            gaussian_pairs=gaussian_total,
            outlier_pairs=outlier_total,
            index_additions=gaussian_total,
            counter_updates=4 * gaussian_total,
            post_processing_macs=(
                m_rows * n_cols * self.post_processing_macs_per_output + outlier_total
            ),
        )

    def matmul(  # type: ignore[override]
        self,
        activations: QuantizedTensor,
        weights: QuantizedTensor,
    ) -> "IndexMatmulResult":
        """Vectorized index-domain matrix multiply ``activations @ weights``.

        The one-GEMM case of the weight-group path every
        :func:`index_domain_matmul_many` call runs.

        Args:
            activations: Quantized ``(M, K)`` activation matrix.
            weights: Quantized ``(K, N)`` weight matrix.

        Returns:
            An :class:`IndexMatmulResult` with the ``(M, N)`` values and
            exact aggregate statistics.
        """
        return _weight_group_matmul(weights, [(self, activations)])[0]


def _weight_group_matmul(
    weights: QuantizedTensor,
    members: List[Tuple[VectorizedIndexDomainEngine, QuantizedTensor]],
) -> List[IndexMatmulResult]:
    """Every GEMM ``activations @ weights`` of one weight group.

    ``members`` pairs each activation with the engine built for its
    dictionary.  Their decoded rows are row-concatenated against the
    weight's one decoded plane, so the group costs one backend product
    however many GEMMs it holds.  Slicing rows back out is exact — GEMM
    output rows are independent.

    NumPy runs a one-row product as gemv, whose last bit differs from
    gemm's.  A one-row product against a weight that other GEMMs may share
    (any right operand not encoded ``per_request``) gets a zero second
    row, so it rounds like the same row inside a larger group: the
    per-GEMM oracle and a lone stream then match the grouped path bit for
    bit.  Per-request operands (attention K/V) are never shared, so both
    paths already issue the same shape for them.
    """
    for _, activations in members:
        _check_matmul_shapes(activations, weights)
    k_len, n_cols = weights.shape
    base = members[0][0]
    wgt = base._plane_set(weights, "rhs", (k_len, n_cols))
    acts = [
        engine._plane_set(activations, "lhs", (activations.shape[0], k_len))
        for engine, activations in members
    ]
    # A lone GEMM passes its decoded rows through uncopied; a group copies once.
    rows = acts[0].dec if len(acts) == 1 else np.concatenate([act.dec for act in acts])
    if rows.shape[0] == 1 and not weights.per_request:
        rows = np.concatenate([rows, np.zeros_like(rows)])
    values = base._product(rows, base._plane_operand(wgt))

    results = []
    row = 0
    for (engine, _), act in zip(members, acts):
        end = row + act.plane_shape[0]
        results.append(
            IndexMatmulResult(values[row:end], engine._stats_from_planes(act, wgt))
        )
        row = end
    return results


def _import_torch():
    """Import torch lazily, with an actionable error when absent."""
    try:
        import torch
    except ImportError as exc:  # pragma: no cover - exercised via mock in tests
        raise ImportError(
            "the 'torch' index-domain engine requires the optional torch "
            "dependency, which is not installed; install torch (CPU wheels "
            "suffice) or use engine='vectorized', the NumPy oracle"
        ) from exc
    return torch


class TorchIndexDomainEngine(VectorizedIndexDomainEngine):
    """Decoded-operand engine with the dense product on ``torch.einsum``.

    Decoding and the integer statistics stay on NumPy — so this backend
    reports :class:`IndexComputeStats` *identical* to the vectorized
    oracle by construction — while each weight group's one dense product
    of decoded operands (see :meth:`_product`) runs through
    ``torch.einsum`` on ``device`` at the planes' dtype (``plane_dtype``),
    with the weight's decoded plane pinned there by
    :meth:`_plane_operand`.  Values agree with the oracle to
    floating-point round-off.

    Args:
        activation_dictionary: Dictionary of the activation tensor.
        weight_dictionary: Dictionary of the weight tensor.
        device: Torch device string (``"cpu"``, ``"cuda"``, ...).
            Defaults to CUDA when available, else CPU.

    Raises:
        ImportError: When torch is not installed (the import is deferred
            to construction so environments without torch can still use
            every NumPy engine).
    """

    @staticmethod
    def ensure_available() -> None:
        """Raise the actionable ImportError now if torch is missing.

        Executors call this once at construction so a missing backend
        fails fast instead of at the first GEMM.
        """
        _import_torch()

    def __init__(
        self,
        activation_dictionary: TensorDictionary,
        weight_dictionary: TensorDictionary,
        device: Optional[str] = None,
    ) -> None:
        super().__init__(activation_dictionary, weight_dictionary)
        self._torch = _import_torch()
        if device is None:
            device = "cuda" if self._torch.cuda.is_available() else "cpu"
        self.device = str(device)

    def _tensor(self, array: np.ndarray):
        # The array's own dtype: the plane dtype, or float64 for an
        # operand outside float32's safe range.
        return self._torch.as_tensor(np.ascontiguousarray(array)).to(self.device)

    def _as_device(self, value: Any):
        """Accept either a host ndarray or an already-resident tensor."""
        if isinstance(value, np.ndarray):
            return self._tensor(value)
        return value

    def _plane_operand(self, plane_set: PlaneSet) -> Any:
        """Pin the decoded plane on the device, uploaded once.

        The handle lives on the :class:`PlaneSet`, so any engine instance
        targeting the same device reuses it — engines are constructed
        fresh per GEMM, the plane sets are what persist.
        """
        resident = plane_set.device_tensors.get(self.device)
        cache = get_plane_cache()
        if resident is None:
            resident = self._tensor(plane_set.dec)
            plane_set.device_tensors[self.device] = resident
            if cache is not None:
                cache.note_device_upload()
        elif cache is not None:
            cache.note_device_reuse()
        return resident

    def _product(self, lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        lhs, rhs = self._as_device(lhs), self._as_device(rhs)
        if lhs.dtype != rhs.dtype:
            # torch does not promote: a float64 operand makes both float64,
            # as NumPy's product would.
            lhs, rhs = lhs.double(), rhs.double()
        return self._torch.einsum("mk,kn->mn", lhs, rhs).cpu().numpy()


# --------------------------------------------------------------------------- #
# Engine dispatch
# --------------------------------------------------------------------------- #

#: One-line descriptions for ``repro registry list``.  Static strings on
#: purpose: describing the torch backend must not import torch.
ENGINE_DESCRIPTIONS: Dict[str, str] = {
    "scalar": "faithful per-output reference engine (np.add.at histograms; tests only)",
    "vectorized": "whole-GEMM NumPy float32 decoded-operand BLAS engine — the correctness oracle",
    "torch": "optional torch einsum backend (CPU/GPU, float32) — identical stats to the oracle",
}


def _describe_engine(name: str, cls: Any) -> str:
    # Static descriptions on purpose: describing the torch backend must
    # not import torch.  Unknown (user-registered) backends fall back to
    # the first docstring line.
    described = ENGINE_DESCRIPTIONS.get(name)
    if described is None:
        doc = (cls.__doc__ or "index-domain engine backend").strip()
        described = doc.splitlines()[0]
    return described


#: Engine name → engine class: the index-domain compute backends every
#: ``engine=`` switch (``index_domain_matmul``, the encoder/model
#: executors, measured campaigns) resolves through.
ENGINES = Registry(
    "engines",
    {
        "scalar": IndexDomainEngine,
        "vectorized": VectorizedIndexDomainEngine,
        "torch": TorchIndexDomainEngine,
    },
    _describe_engine,
)


def _check_matmul_shapes(
    activations: QuantizedTensor, weights: QuantizedTensor
) -> Tuple[int, int]:
    """Validate ``(M, K) @ (K, N)`` operands, returning ``(M, N)``."""
    if len(activations.shape) != 2 or len(weights.shape) != 2:
        raise ValueError("matmul expects 2-D quantized tensors")
    m_rows, k_a = activations.shape
    k_w, n_cols = weights.shape
    if k_a != k_w:
        raise ValueError("inner dimensions do not match")
    return m_rows, n_cols


def _split_encoded(
    encoded: EncodedValues, shape: Tuple[int, ...], axis: int
) -> List[EncodedValues]:
    """All rows (axis=0) or columns (axis=1) of a 2-D encoding.

    Reshapes the codes exactly once and returns views, so slicing is
    O(M + N) instead of re-reshaping the full encoding per output element.
    """
    matrix = encoded.codes.reshape(shape)
    lines = matrix if axis == 0 else matrix.T
    return [EncodedValues(line, encoded.half_entries) for line in lines]


def index_domain_dot(
    activations: QuantizedTensor, weights: QuantizedTensor
) -> IndexComputeResult:
    """Dot product of two 1-D quantized tensors in the index domain."""
    engine = IndexDomainEngine(activations.dictionary, weights.dictionary)
    return engine.dot(activations.encoded, weights.encoded)


def index_domain_matmul(
    activations: QuantizedTensor,
    weights: QuantizedTensor,
    engine: str = "vectorized",
    device: Optional[str] = None,
) -> Tuple[np.ndarray, IndexComputeStats]:
    """Matrix multiply of quantized tensors in the index domain.

    Args:
        activations: Quantized ``(M, K)`` activation matrix.
        weights: Quantized ``(K, N)`` weight matrix.
        engine: Registered engine name — ``"vectorized"`` (default;
            whole-GEMM NumPy array ops), ``"torch"`` (optional einsum
            backend) or ``"scalar"`` (the faithful per-output reference)
            — or an engine class.  Unknown names raise a registry error
            with a did-you-mean suggestion.
        device: Optional device for backends that take one; passing a
            device to a backend that does not accept it raises
            ``TypeError``.
    """
    cls = ENGINES.get(engine) if isinstance(engine, str) else engine
    kwargs = {} if device is None else {"device": device}
    out = cls(activations.dictionary, weights.dictionary, **kwargs).matmul(activations, weights)
    if isinstance(out, IndexMatmulResult):
        return out.values, out.stats
    return out


def index_domain_matmul_many(
    pairs,
    engine: str = "vectorized",
    device: Optional[str] = None,
) -> List[IndexMatmulResult]:
    """Run many index-domain GEMMs, one backend product per weight.

    Pairs are partitioned by right-operand *object*: the GEMMs of all
    serving streams against one layer weight become one weight group
    whose decoded activation rows are row-concatenated against that
    weight's decoded plane, whatever their row counts.  Each group runs
    one dense product; the exact integer statistics stay per pair, so
    every returned
    :class:`IndexMatmulResult` carries statistics *identical* to a
    per-GEMM :func:`index_domain_matmul` run (values agree to
    floating-point round-off).

    Args:
        pairs: Sequence of ``(activations, weights)`` quantized 2-D
            tensor pairs.  Per-pair dictionaries may differ (each tensor
            keeps its own std/mean scales), but all must derive from the
            same Golden Dictionary fit.
        engine: Registered engine name or engine class; the scalar
            reference has no grouped path and runs pair by pair.
        device: Optional device for backends that take one.

    Returns:
        One :class:`IndexMatmulResult` per input pair, in input order.
    """
    pairs = list(pairs)
    if not pairs:
        return []
    cls = ENGINES.get(engine) if isinstance(engine, str) else engine
    kwargs = {} if device is None else {"device": device}
    # One engine per distinct (activation, weight) dictionary pair: the
    # heads of one layer share both their profiled dictionaries.
    by_dictionaries: Dict[Tuple[int, int], IndexDomainEngine] = {}
    engines = []
    for act, weights in pairs:
        key = (id(act.dictionary), id(weights.dictionary))
        resolved = by_dictionaries.get(key)
        if resolved is None:
            resolved = cls(act.dictionary, weights.dictionary, **kwargs)
            by_dictionaries[key] = resolved
        engines.append(resolved)
    base = engines[0]
    for other in by_dictionaries.values():
        if other.act_dict.golden is base.act_dict.golden:
            continue
        if (
            not np.isclose(other.a, base.a)
            or not np.isclose(other.b, base.b)
            or other.num_entries != base.num_entries
        ):
            raise ValueError(
                "index_domain_matmul_many requires every pair to share the "
                "same Golden Dictionary fit (a, b, num_entries)"
            )
    if not isinstance(base, VectorizedIndexDomainEngine):
        return [
            IndexMatmulResult(*resolved.matmul(act, weights))
            for resolved, (act, weights) in zip(engines, pairs)
        ]

    # The partition depends only on the input pairs — never on cache
    # state — so cached and uncached runs take identical code paths.
    groups: Dict[int, List[int]] = {}
    for index, (_, weights) in enumerate(pairs):
        groups.setdefault(id(weights), []).append(index)
    results: List[Optional[IndexMatmulResult]] = [None] * len(pairs)
    for indices in groups.values():
        members = [(engines[i], pairs[i][0]) for i in indices]
        group = _weight_group_matmul(pairs[indices[0]][1], members)
        for index, result in zip(indices, group):
            results[index] = result
    return results


def vectorized_index_domain_matmul(
    activations: QuantizedTensor, weights: QuantizedTensor
) -> IndexMatmulResult:
    """Vectorized index-domain matrix multiply (values + exact statistics)."""
    engine = VectorizedIndexDomainEngine(activations.dictionary, weights.dictionary)
    return engine.matmul(activations, weights)
