"""The Golden Dictionary (paper Section II-B, Fig. 2).

The Golden Dictionary is the single, model-independent dictionary from
which every per-tensor dictionary is derived by a linear transformation
``GD * s + m``.  :func:`generate_golden_dictionary` produces it by:

1. sampling a random Gaussian distribution (50,000 samples, mean 0, std 1),
2. applying agglomerative clustering to reduce it to 16 centroids,
3. repeating and averaging over several generated distributions, and
4. exploiting the symmetry of N(0, 1) so that only the 8 positive-half
   centroids need to be stored (the negative half mirrors them).

The stored centroids are 16-bit fixed-point values, and the positive half
is additionally approximated by an exponential curve ``a**int + b``
(see :mod:`repro.core.exponential_fit`), which is what enables the
index-domain computation.

Because the build is deterministic and model-independent, the exact bits
of the parameterisations the code uses by default are pinned below, and
:func:`load_golden_dictionary` returns them without clustering or
fitting again (so a default :class:`~repro.core.quantizer.MokeyQuantizer`
never imports ``scipy``); any other parameterisation is generated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from repro.core.agglomerative import agglomerative_cluster_1d
from repro.core.exponential_fit import ExponentialFit, fit_exponential
from repro.core.fixed_point import FixedPointFormat

__all__ = ["GoldenDictionary", "generate_golden_dictionary", "load_golden_dictionary"]

DEFAULT_NUM_SAMPLES = 50_000
DEFAULT_NUM_REPEATS = 4
DEFAULT_NUM_ENTRIES = 16

#: ``generate_golden_dictionary`` output keyed by its
#: ``(num_entries, num_samples, num_repeats, seed, fixed_point_bits)``:
#: the ``half`` centroids, then ``fit.a`` and ``fit.b``, as ``float.hex``.
#: ``fit.num_entries`` is ``len(half)`` and the fixed-point format is
#: derived from ``half[-1]``, as the generator derives them.  The first
#: key is the quantizer default, the second the ``MeasurementSettings``
#: and ``AccuracySettings`` default; ``tests/test_golden_dictionary.py``
#: regenerates both.  ``half`` is pinned bit for bit.  ``fit.a`` and
#: ``fit.b`` are the bits scipy 1.17.1 (numpy 2.4.6) fits; ``least_squares``
#: stops at its ``xtol`` of 1e-8, so another scipy build may land up to
#: ~1e-8 (relative) elsewhere.  Loading the pin keeps every default path
#: on these exact bits whatever scipy is installed.
_PinnedBits = Tuple[Tuple[str, ...], str, str]
PINNED_GOLDEN_DICTIONARIES: Dict[Tuple[int, int, int, int, int], _PinnedBits] = {
    (DEFAULT_NUM_ENTRIES, DEFAULT_NUM_SAMPLES, DEFAULT_NUM_REPEATS, 0, 16): (
        (
            "0x1.beef3b9fb265bp-4", "0x1.6ea9b26ff5dafp-2",
            "0x1.4f2abd266cd71p-1", "0x1.e91f7252e764ap-1",
            "0x1.45c153cb23942p+0", "0x1.a971f9a806b03p+0",
            "0x1.113777883bbecp+1", "0x1.67b7f644d0958p+1",
        ),
        "0x1.35a8a7cadf8ecp+0",
        "-0x1.bbde58cfe3e88p-1",
    ),
    (DEFAULT_NUM_ENTRIES, 12_000, 2, 7, 16): (
        (
            "0x1.43642419ea1c8p-3", "0x1.d19f956b2e7f8p-2",
            "0x1.7e006bdfd4202p-1", "0x1.0c0dc3f87ca30p+0",
            "0x1.5f16793c74d7ep+0", "0x1.bc4ae8c573accp+0",
            "0x1.10aa01810b125p+1", "0x1.5c0a6f85e4fc3p+1",
        ),
        "0x1.35c7821a75a05p+0",
        "-0x1.9872fdfcc0378p-1",
    ),
}


@dataclass
class GoldenDictionary:
    """The symmetric, model-independent reference dictionary.

    Attributes:
        half: The positive-half centroid magnitudes, sorted ascending
            (index 0 is the centroid nearest zero).  Length is
            ``num_entries // 2`` (8 for the paper's 4-bit configuration).
        fit: The exponential approximation of ``half``.
        fixed_point: The 16-bit fixed-point format used to store centroids.
    """

    half: np.ndarray
    fit: ExponentialFit
    fixed_point: FixedPointFormat

    def __post_init__(self) -> None:
        self.half = np.asarray(self.half, dtype=np.float64)
        if self.half.ndim != 1 or self.half.size < 2:
            raise ValueError("half must be a 1-D array with at least two entries")
        if np.any(self.half < 0):
            raise ValueError("half centroids must be non-negative magnitudes")
        if np.any(np.diff(self.half) <= 0):
            raise ValueError("half centroids must be strictly increasing")

    @property
    def num_half_entries(self) -> int:
        """Number of positive-half centroids (8 for 4-bit quantization)."""
        return int(self.half.size)

    @property
    def num_entries(self) -> int:
        """Total dictionary entries including the mirrored negative half."""
        return 2 * self.num_half_entries

    @property
    def index_bits(self) -> int:
        """Bits needed for the magnitude index (3 for 8 half entries)."""
        return int(np.ceil(np.log2(self.num_half_entries)))

    @property
    def bits_per_value(self) -> int:
        """Bits per stored value: 1 sign bit + index bits (4 in the paper)."""
        return 1 + self.index_bits

    def full(self) -> np.ndarray:
        """All centroids, negative half first, sorted ascending."""
        return np.concatenate([-self.half[::-1], self.half])

    def exponential_half(self) -> np.ndarray:
        """The half centroids snapped to the fitted exponential curve.

        The values are kept exact (not rounded to the 16-bit storage grid)
        because the Mokey datapath never reads stored centroids for Gaussian
        values: the GPEs count exponent sums and the OPP regenerates the
        ``a**k`` bases during post-processing, so the arithmetic follows the
        exponential curve exactly.
        """
        return self.fit.magnitudes()

    def stored_half(self, use_exponential: bool = True) -> np.ndarray:
        """The half magnitudes used for decoding.

        Args:
            use_exponential: If True (the Mokey accelerator configuration),
                the centroids are the exponential-curve values so the
                index-domain arithmetic is exact with respect to decoding.
                If False, the raw clustered centroids rounded to the 16-bit
                fixed-point storage grid are used (the memory-compression-only
                configuration).
        """
        if use_exponential:
            return self.exponential_half()
        return self.fixed_point.quantize(self.half)

    def gaussian_threshold(self) -> float:
        """Magnitude (in units of std) above which a value is an outlier.

        The threshold is the upper edge of the outermost Gaussian bin: the
        last centroid plus half the distance to its neighbour.
        """
        return float(self.half[-1] + 0.5 * (self.half[-1] - self.half[-2]))


def generate_golden_dictionary(
    num_entries: int = DEFAULT_NUM_ENTRIES,
    num_samples: int = DEFAULT_NUM_SAMPLES,
    num_repeats: int = DEFAULT_NUM_REPEATS,
    seed: int = 0,
    fixed_point_bits: int = 16,
) -> GoldenDictionary:
    """Generate the Golden Dictionary (paper Step 1).

    Args:
        num_entries: Total dictionary size (16 for 4-bit quantization).
        num_samples: Samples per generated N(0, 1) distribution.
        num_repeats: How many generated distributions to average over.
        seed: Base random seed (each repeat uses ``seed + repeat``).
        fixed_point_bits: Bit-width of the stored fixed-point centroids.

    Returns:
        The populated :class:`GoldenDictionary`.
    """
    if num_entries < 4 or num_entries % 2 != 0:
        raise ValueError("num_entries must be an even number >= 4")
    if num_repeats < 1:
        raise ValueError("num_repeats must be >= 1")
    half_entries = num_entries // 2

    halves = []
    for repeat in range(num_repeats):
        rng = np.random.default_rng(seed + repeat)
        samples = rng.normal(0.0, 1.0, size=num_samples)
        # Cluster the magnitudes: the dictionary is symmetric around zero, so
        # clustering |x| into num_entries/2 centroids and mirroring is
        # equivalent to clustering the full symmetric distribution into
        # num_entries centroids, and needs only half the work.
        result = agglomerative_cluster_1d(np.abs(samples), half_entries)
        halves.append(result.centroids)
    half = np.mean(np.stack(halves, axis=0), axis=0)

    return _assemble(half, fit_exponential(half), fixed_point_bits)


def load_golden_dictionary(
    num_entries: int = DEFAULT_NUM_ENTRIES,
    num_samples: int = DEFAULT_NUM_SAMPLES,
    num_repeats: int = DEFAULT_NUM_REPEATS,
    seed: int = 0,
    fixed_point_bits: int = 16,
) -> GoldenDictionary:
    """The Golden Dictionary :func:`generate_golden_dictionary` builds.

    A pinned parameterisation (:data:`PINNED_GOLDEN_DICTIONARIES`) is
    returned from its stored bits, as a fresh object; any other is
    generated.  The pinned ``half`` is what the generator builds, bit for
    bit; the pinned fit matches it to the curve fit's tolerance (bit for
    bit on the scipy it was pinned with).
    """
    pinned = PINNED_GOLDEN_DICTIONARIES.get(
        (num_entries, num_samples, num_repeats, seed, fixed_point_bits)
    )
    if pinned is None:
        return generate_golden_dictionary(
            num_entries, num_samples, num_repeats, seed, fixed_point_bits
        )
    half_hex, a_hex, b_hex = pinned
    half = np.array([float.fromhex(h) for h in half_hex])
    fit = ExponentialFit(a=float.fromhex(a_hex), b=float.fromhex(b_hex), num_entries=half.size)
    return _assemble(half, fit, fixed_point_bits)


def _assemble(half: np.ndarray, fit: ExponentialFit, fixed_point_bits: int) -> GoldenDictionary:
    fixed_point = FixedPointFormat.for_range(-half[-1], half[-1], total_bits=fixed_point_bits)
    return GoldenDictionary(half=half, fit=fit, fixed_point=fixed_point)
