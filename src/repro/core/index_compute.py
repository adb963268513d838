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

* :class:`IndexDomainEngine` — the faithful scalar engine: one Python
  ``dot`` per output activation, histograms accumulated with
  ``np.add.at`` exactly as the GPE's counter register files do.  It is the
  correctness reference for the hardware model and for the vectorized
  engine, but a Python loop per output element makes it unusable at model
  scale (a single BERT-base GEMM holds ~10^5 outputs).
* :class:`VectorizedIndexDomainEngine` — computes whole GEMMs with NumPy
  array operations, ~100-1000x faster at layer shapes.

**The bincount / indicator-product formulation.**  The symbol alphabet is
tiny — 8 Gaussian magnitudes x sign plus up to 16 outlier centroids — so
every per-output histogram is a ``np.bincount`` of 4-bit symbols, and the
post-processing step only ever multiplies a histogram by fixed per-bin
weights (``a**bin`` for SoI, Eq. 3-6 constants for the rest).  Weighted
reduction commutes with accumulation: instead of materialising the
histogram of exponent sums and then reducing it, map every symbol to its
per-bin weight *first* (an 8-entry lookup table, i.e. an indicator matrix
``X`` with ``X[s, k] = [symbol_k == s]`` contracted against the weight
table) and let one matrix product accumulate all outputs of the GEMM at
once.  Concretely, with Gaussian masks ``g`` (1 where a value is not an
outlier), signs ``theta`` and exponent indexes ``i``:

    ``U = theta_A * a**i_A * g_A``, ``T = theta_A * g_A``, ``G = g_A``
    (each ``(M, K)``), and symmetrically ``V, R, H`` for the weights
    (each ``(K, N)``).  Then, for every output at once,

    ``sum_bins SoI_hist * a**bin  = U @ V``
    ``sum_bins SoA1_hist * a**bin = U @ R``   (and ``T @ V`` for SoW1)
    ``PoM1 counts                 = T @ R``   (sign-product counts)
    ``per-output Gaussian-pair counts = G @ H``

Because every ``U``-family product enters Eq. 3-6 alongside its
``b``-weighted ``T``-family partner, the implementation folds the offset
up front — ``P = U + b*T = theta * (a**i + b) * g`` (exactly the decoded
magnitude of the symbol) and ``Q = V + b*R`` — which merges the four
SoI/SoA1/SoW1/PoM1 products into the single block ``P @ Q``.  The four
remaining pairwise products of ``{P, G}`` x ``{Q, H}`` are what one
stacked ``(2M, K) @ (K, 2N)`` BLAS call produces together.  Outlier
pairs — the pairs masked *out* of the planes above — are handled by
masked direct MACs on the decoded 16-bit centroids, mirroring the OPP.

**One GEMM path.**  Every GEMM runs as part of a *weight group*: the
GEMMs of one call that share a right-operand object (the serving streams'
projections against one layer weight, say) row-concatenate their stacked
activation planes against that weight's single ``[Q | H]`` plane set, so
the group costs one plane product plus one outlier correction however
many GEMMs — and whatever row counts — it holds.  A lone GEMM is the
one-member group.

Operation statistics are exact integer counts derived from the indicator
planes alone, so the vectorized engine reports *identical*
:class:`IndexComputeStats` to the scalar engine (a property-test-locked
guarantee), while values agree to floating-point round-off.
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
    "ENGINE_BACKENDS",
    "ENGINE_DESCRIPTIONS",
    "available_engines",
    "resolve_engine",
    "make_engine",
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
    """The indicator planes of one operand in one GEMM role.

    ``role="lhs"`` holds the activation-side planes: ``p``/``g`` are the
    ``(M, K)`` symbol and Gaussian-indicator planes, :attr:`stacked` their
    ``(2M, K)`` row concatenation ``[P; G]``.  ``role="rhs"`` holds the
    weight-side planes: ``p``/``g`` are ``(K, N)``, :attr:`stacked` the
    ``(K, 2N)`` column concatenation ``[Q | H]``.  ``p`` and ``g`` are
    views into :attr:`stacked`, so one buffer feeds the stacked BLAS call
    directly.

    The decoded centroids (:attr:`dec`) and their masked variants —
    needed only when outlier pairs exist — materialise lazily and stay
    with the plane set, so a cached weight decodes once across every GEMM
    that touches it.  :attr:`device_tensors` is scratch space for device
    backends to pin uploaded copies (keyed ``(slot, device)``).
    """

    __slots__ = (
        "role",
        "fit_key",
        "plane_shape",
        "stacked",
        "p",
        "g",
        "out",
        "has_outliers",
        "gauss_per_k",
        "device_tensors",
        "_dec",
        "_dec_out",
        "_dec_gauss",
        "_encoded",
        "_dictionary",
        "_on_grow",
    )

    def __init__(
        self,
        p: np.ndarray,
        g: np.ndarray,
        out: np.ndarray,
        role: str,
        fit_key: Tuple[float, float, int],
        dictionary: Optional[TensorDictionary] = None,
        encoded: Optional[EncodedValues] = None,
        dec: Optional[np.ndarray] = None,
    ) -> None:
        if role not in ("lhs", "rhs"):
            raise ValueError(f"role must be 'lhs' or 'rhs', got {role!r}")
        self.role = role
        self.fit_key = fit_key
        self.plane_shape = tuple(out.shape)
        rows, cols = self.plane_shape
        axis = 0 if role == "lhs" else 1
        # C-contiguous everywhere: transposed/sliced sources may arrive
        # F-ordered, and a fixed layout keeps every BLAS call bitwise
        # reproducible regardless of how the planes were assembled.
        out = np.ascontiguousarray(out)
        stacked = np.concatenate([p, g], axis=axis)
        if role == "lhs":
            self.p, self.g = stacked[:rows], stacked[rows:]
        else:
            self.p, self.g = stacked[:, :cols], stacked[:, cols:]
        self.stacked = stacked
        self.out = out
        self.has_outliers = bool(out.any())
        self.gauss_per_k = (
            (~out).sum(axis=1, dtype=np.int64) if role == "rhs" else None
        )
        self.device_tensors: Dict[Tuple[str, str], Any] = {}
        self._dec = dec
        self._dec_out: Optional[np.ndarray] = None
        self._dec_gauss: Optional[np.ndarray] = None
        self._encoded = encoded
        self._dictionary = dictionary
        self._on_grow = None

    @property
    def dec(self) -> np.ndarray:
        """Decoded 16-bit centroids in the plane orientation (lazy)."""
        if self._dec is None:
            if self._dictionary is None or self._encoded is None:
                raise ValueError("plane set was built without a decode source")
            self._dec = np.ascontiguousarray(
                self._dictionary.decode(self._encoded, apply_fixed_point=False).reshape(
                    self.plane_shape
                )
            )
            self._grew(self._dec.nbytes)
        return self._dec

    @property
    def dec_out(self) -> np.ndarray:
        """``dec`` masked to the outlier entries (lazy)."""
        if self._dec_out is None:
            self._dec_out = self.dec * self.out
            self._grew(self._dec_out.nbytes)
        return self._dec_out

    @property
    def dec_gauss(self) -> np.ndarray:
        """``dec`` masked to the Gaussian entries (lazy)."""
        if self._dec_gauss is None:
            self._dec_gauss = self.dec * self.g
            self._grew(self._dec_gauss.nbytes)
        return self._dec_gauss

    def _grew(self, nbytes: int) -> None:
        if self._on_grow is not None:
            self._on_grow(int(nbytes))

    @property
    def nbytes(self) -> int:
        """Host bytes currently held (stacked + mask + materialised lazies)."""
        total = int(self.stacked.nbytes) + int(self.out.nbytes)
        for array in (self._dec, self._dec_out, self._dec_gauss):
            if array is not None:
                total += int(array.nbytes)
        return total


#: Default LRU budget of the process-wide plane cache, in megabytes.
#: Override with the ``REPRO_PLANE_CACHE_MB`` environment variable.
DEFAULT_PLANE_CACHE_MB = 4096.0


class PlaneCache:
    """Cross-call LRU cache of weight-side :class:`PlaneSet` artifacts.

    Keys are the operand's content digest (plus role), so an entry can
    never serve stale planes: a tensor with different encoded values or a
    different dictionary has a different digest *by construction* — there
    is no invalidation protocol to get wrong.  The byte budget covers the
    host plane arrays (stacked planes, outlier mask, lazily materialised
    decoded centroids); least-recently-used entries are dropped when the
    budget is exceeded, and any device-resident copies go with them.

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
        self._entries: "OrderedDict[Tuple[str, str], PlaneSet]" = OrderedDict()
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

    def get(self, key: Tuple[str, str]) -> Optional[PlaneSet]:
        """The cached plane set for ``key``, counting the hit or miss."""
        with self._lock:
            plane_set = self._entries.get(key)
            if plane_set is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return plane_set

    def put(self, key: Tuple[str, str], plane_set: PlaneSet) -> None:
        """Insert ``plane_set`` under ``key``, evicting LRU entries over budget."""
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._bytes -= previous.nbytes
                previous._on_grow = None
            self._entries[key] = plane_set
            self._bytes += plane_set.nbytes
            plane_set._on_grow = self._grow
            self._evict_over_budget()

    def _grow(self, nbytes: int) -> None:
        """Account a cached entry's lazy materialisation (decoded centroids)."""
        with self._lock:
            self._bytes += nbytes
            self._evict_over_budget()

    def _evict_over_budget(self) -> None:
        # Caller holds the lock.  Evicting the newest entry too (when it
        # alone exceeds the budget) keeps the budget strict; the caller
        # still holds a reference and proceeds, the cache just stays cold.
        while self._bytes > self.max_bytes and self._entries:
            _, evicted = self._entries.popitem(last=False)
            self._bytes -= evicted.nbytes
            evicted._on_grow = None
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
            for plane_set in self._entries.values():
                plane_set._on_grow = None
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
    that they share the exponential base ``a`` and offset ``b``.
    """

    def __init__(
        self,
        activation_dictionary: TensorDictionary,
        weight_dictionary: TensorDictionary,
    ) -> None:
        fit_a = activation_dictionary.golden.fit
        fit_w = weight_dictionary.golden.fit
        if not np.isclose(fit_a.a, fit_w.a) or not np.isclose(fit_a.b, fit_w.b):
            raise ValueError(
                "activation and weight dictionaries must share the same Golden Dictionary"
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
        #: Golden-fit identity of the planes this engine builds; plane sets
        #: attached to tensors are only accepted when their fit matches.
        self._fit_key = (float(self.a), float(self.b), int(self.num_entries))

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


class VectorizedIndexDomainEngine(IndexDomainEngine):
    """Whole-GEMM index-domain compute via indicator-plane BLAS products.

    Implements the bincount / indicator-product formulation described in
    the module docstring: the nine cross products of the three activation
    planes against the three weight planes are evaluated by one stacked
    matrix multiply, outlier pairs by masked direct MACs on the decoded
    centroids.  Produces the same values as the scalar engine up to
    floating-point round-off and bit-identical operation statistics.

    The computation is staged so backends can swap the dense products
    without touching the formulation: :meth:`_plane_set` (NumPy),
    :meth:`_product` / :meth:`_plane_operand` (the backend seam — the
    only floating-point GEMMs in the engine), then value combination and
    the exact integer statistics (NumPy again, derived from the indicator
    planes alone).  Any backend therefore reports *identical*
    :class:`IndexComputeStats` to this oracle by construction.
    """

    # ------------------------------------------------------------------ #
    # Backend seam: the only dense floating-point products in the engine
    # ------------------------------------------------------------------ #
    def _product(self, lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """One dense ``(R, K) @ (K, C)`` product on this backend."""
        return lhs @ rhs

    def _plane_operand(self, plane_set: PlaneSet, slot: str, array: np.ndarray) -> Any:
        """Backend hook: may return a device-resident handle for ``array``.

        The NumPy oracle returns the host array unchanged; the torch
        backend pins cached plane arrays on its device (uploaded once,
        reused every GEMM that touches the plane set).
        """
        return array

    # ------------------------------------------------------------------ #
    # Stages of the indicator-plane formulation
    # ------------------------------------------------------------------ #
    def _build_plane_set(
        self,
        tensor: QuantizedTensor,
        role: str,
        shape: Tuple[int, int],
        dictionary: TensorDictionary,
    ) -> PlaneSet:
        """Build one operand's planes elementwise (always NumPy).

        The symbol-mapped exponential plane ``P = theta * (a**i + b)``
        masked to Gaussian entries (folding the offset b up front merges
        the SoI/SoA1/SoW1/PoM1 products into a single block:
        ``P @ Q = U@V + b*(U@R + T@V) + b^2 * T@R``), plus the Gaussian
        indicator plane ``G``.
        """
        encoded = tensor.encoded
        out = encoded.is_outlier.reshape(shape)
        g = (~out).astype(np.float64)
        p = (
            encoded.sign.reshape(shape).astype(np.float64)
            * (self.half_bases[encoded.gaussian_index.reshape(shape)] + self.b)
            * g
        )
        return PlaneSet(
            p=p,
            g=g,
            out=out,
            role=role,
            fit_key=self._fit_key,
            dictionary=dictionary,
            encoded=encoded,
        )

    def _plane_set(
        self, tensor: QuantizedTensor, role: str, shape: Tuple[int, int]
    ) -> PlaneSet:
        """Resolve one operand's planes: attached → digest cache → build.

        An operand carrying pre-built planes (``tensor._plane_sets`` — the
        KV cache's incremental slabs) wins when its fit and shape match.
        Otherwise the weight (``rhs``) role consults the process plane
        cache keyed by the tensor's content digest; activations are built
        fresh (they change every call, hashing them would only add cost).
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
        dictionary = self.act_dict if role == "lhs" else self.weight_dict
        if cache is not None and role == "rhs":
            key = (tensor.content_digest(), role)
            cached = cache.get(key)
            if cached is not None:
                return cached
            built = self._build_plane_set(tensor, role, shape, dictionary)
            cache.put(key, built)
            return built
        return self._build_plane_set(tensor, role, shape, dictionary)

    def _combine_values(
        self, prod: np.ndarray, outlier_values: Optional[np.ndarray]
    ) -> np.ndarray:
        """Eq. 3-6 per output, all at once, from the stacked plane product.

        ``prod`` is the ``(2M, 2N)`` product of the activation's stacked
        ``[P; G]`` with the weight's stacked ``[Q | H]``: the SoI + SoA1 +
        SoW1 + PoM1 family (``P @ Q``), the SoA2/PoM2 family (``P @ H``),
        the SoW2/PoM3 family (``G @ Q``) and the constant PoM4 term
        (``G @ H``).
        """
        M, N = prod.shape[0] // 2, prod.shape[1] // 2
        s_a, m_a = self.act_dict.std, self.act_dict.mean
        s_w, m_w = self.weight_dict.std, self.weight_dict.mean
        pq, ph = prod[:M, :N], prod[:M, N:]
        gq, gh = prod[M:, :N], prod[M:, N:]
        values = s_a * s_w * pq + s_a * m_w * ph + s_w * m_a * gq + m_a * m_w * gh
        if outlier_values is not None:
            values = values + outlier_values
        return values

    def _stats_from_planes(self, act: PlaneSet, wgt: PlaneSet) -> IndexComputeStats:
        """Exact integer statistics from the indicator planes alone.

        The Gaussian pair count of output ``(m, n)`` is ``(G @ H)[m, n]``;
        summing over ``n`` first keeps the count computation
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
    dictionary.  Their stacked ``[P; G]`` planes are row-concatenated
    against the weight's one ``[Q | H]`` plane set, so the group costs one
    backend plane product plus one outlier correction however many GEMMs
    it holds.  Slicing rows back out is exact — GEMM output rows are
    independent.
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

    def product(lhs: List[np.ndarray], slot: str, rhs: np.ndarray) -> np.ndarray:
        # A lone GEMM passes its planes through uncopied; a group copies once.
        rows = lhs[0] if len(lhs) == 1 else np.concatenate(lhs, axis=0)
        return base._product(rows, base._plane_operand(wgt, slot, rhs))

    prod = product([act.stacked for act in acts], "stacked", wgt.stacked)
    # The OPP's direct MACs on decoded centroids: (A outlier, any W) plus
    # (A Gaussian, W outlier) covers every pair in which either operand
    # is an outlier exactly once.  Rows of activations without outliers
    # come out exactly zero.
    outliers: Optional[np.ndarray] = None
    if any(act.has_outliers for act in acts):
        outliers = product([act.dec_out for act in acts], "dec", wgt.dec)
    if wgt.has_outliers:
        second = product([act.dec_gauss for act in acts], "dec_out", wgt.dec_out)
        outliers = second if outliers is None else outliers + second

    results = []
    row = 0
    for (engine, _), act in zip(members, acts):
        end = row + act.plane_shape[0]
        values = engine._combine_values(
            prod[2 * row : 2 * end], None if outliers is None else outliers[row:end]
        )
        results.append(IndexMatmulResult(values, engine._stats_from_planes(act, wgt)))
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
    """Indicator-plane engine with the dense products on ``torch.einsum``.

    Plane construction, value combination and the integer statistics stay
    on NumPy — so this backend reports :class:`IndexComputeStats`
    *identical* to the vectorized oracle by construction — while every
    dense product (each weight group's stacked plane GEMM and its outlier
    MAC matmuls, see :meth:`_product`) runs through ``torch.einsum`` in
    float64 on ``device``, with the weight-side planes pinned there by
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
        return self._torch.as_tensor(
            np.ascontiguousarray(array), dtype=self._torch.float64
        ).to(self.device)

    def _as_device(self, value: Any):
        """Accept either a host ndarray or an already-resident tensor."""
        if isinstance(value, np.ndarray):
            return self._tensor(value)
        return value

    def _plane_operand(self, plane_set: PlaneSet, slot: str, array: np.ndarray) -> Any:
        """Pin cached plane arrays on the device, uploaded once per slot.

        The handle lives on the :class:`PlaneSet`, so any engine instance
        targeting the same device reuses it — engines are constructed
        fresh per GEMM, the plane sets are what persist.
        """
        key = (slot, self.device)
        resident = plane_set.device_tensors.get(key)
        cache = get_plane_cache()
        if resident is None:
            resident = self._tensor(array)
            plane_set.device_tensors[key] = resident
            if cache is not None:
                cache.note_device_upload()
        elif cache is not None:
            cache.note_device_reuse()
        return resident

    def _product(self, lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        out = self._torch.einsum("mk,kn->mn", self._as_device(lhs), self._as_device(rhs))
        return out.cpu().numpy()



# --------------------------------------------------------------------------- #
# Engine dispatch
# --------------------------------------------------------------------------- #

#: Backing mapping of the ``"engines"`` registry (:mod:`repro.registry`):
#: engine name → engine class.  A live view — backends registered through
#: the registry are immediately selectable by every ``engine=`` switch.
ENGINE_BACKENDS: Dict[str, type] = {
    "scalar": IndexDomainEngine,
    "vectorized": VectorizedIndexDomainEngine,
    "torch": TorchIndexDomainEngine,
}

#: One-line descriptions for ``repro registry list``.  Static strings on
#: purpose: describing the torch backend must not import torch.
ENGINE_DESCRIPTIONS: Dict[str, str] = {
    "scalar": "faithful per-output reference engine (np.add.at histograms; tests only)",
    "vectorized": "whole-GEMM NumPy indicator-plane BLAS engine — the correctness oracle",
    "torch": "optional torch einsum backend (CPU/GPU) — identical stats to the oracle",
}


def available_engines() -> Tuple[str, ...]:
    """All registered engine names, sorted."""
    return tuple(sorted(ENGINE_BACKENDS))


def resolve_engine(engine: str) -> type:
    """Engine name → engine class, with registry did-you-mean errors.

    Raises:
        RegistryError: (a ``ValueError``) when the name is unknown, naming
            the nearest registered engine when one is close.
    """
    # Lazy import: repro.registry imports this module at load time to wrap
    # ENGINE_BACKENDS; reaching back only inside the function keeps the
    # modules acyclic.
    from repro.registry import ENGINES

    return ENGINES.get(engine)


def make_engine(
    engine,
    activation_dictionary: TensorDictionary,
    weight_dictionary: TensorDictionary,
    device: Optional[str] = None,
) -> IndexDomainEngine:
    """Instantiate an engine by name (or class) for one dictionary pair.

    Args:
        engine: Registered engine name (``"vectorized"``, ``"scalar"``,
            ``"torch"``) or an engine class.
        activation_dictionary: Dictionary of the activation tensor.
        weight_dictionary: Dictionary of the weight tensor.
        device: Optional device for backends that take one (the torch
            engine); passing a device to a backend that does not accept
            it raises ``TypeError``.
    """
    cls = resolve_engine(engine) if isinstance(engine, str) else engine
    if device is not None:
        return cls(activation_dictionary, weight_dictionary, device=device)
    return cls(activation_dictionary, weight_dictionary)


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

    Reshapes each field exactly once and returns views, so slicing is
    O(M + N) instead of re-reshaping the full encoding per output element.
    """
    fields = (
        encoded.is_outlier.reshape(shape),
        encoded.sign.reshape(shape),
        encoded.gaussian_index.reshape(shape),
        encoded.outlier_index.reshape(shape),
    )
    count = shape[0] if axis == 0 else shape[1]
    return [
        EncodedValues(
            *(
                (matrix[index, :] if axis == 0 else matrix[:, index])
                for matrix in fields
            )
        )
        for index in range(count)
    ]


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
            backend) or ``"scalar"`` (the faithful per-output reference).
            Unknown names raise a registry error with a did-you-mean
            suggestion.
        device: Optional device for backends that take one.
    """
    resolved = make_engine(engine, activations.dictionary, weights.dictionary, device=device)
    out = resolved.matmul(activations, weights)
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
    whose activation planes are row-concatenated against that weight's
    planes, whatever their row counts.  Each group runs one stacked-plane
    product and one outlier correction; the scale combination and exact
    integer statistics stay per pair, so every returned
    :class:`IndexMatmulResult` carries statistics *identical* to a
    per-GEMM :func:`index_domain_matmul` run (values agree to
    floating-point round-off).

    Args:
        pairs: Sequence of ``(activations, weights)`` quantized 2-D
            tensor pairs.  Per-pair dictionaries may differ (each tensor
            keeps its own std/mean scales), but all must derive from the
            same Golden Dictionary fit.
        engine: Registered engine name; the scalar reference has no
            grouped path and runs pair by pair.
        device: Optional device for backends that take one.

    Returns:
        One :class:`IndexMatmulResult` per input pair, in input order.
    """
    pairs = list(pairs)
    if not pairs:
        return []
    engines = [
        make_engine(engine, act.dictionary, weights.dictionary, device=device)
        for act, weights in pairs
    ]
    base = engines[0]
    for other in engines[1:]:
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
