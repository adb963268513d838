"""Mokey's DRAM-friendly memory container (paper Section III-A, Fig. 5).

Off-chip, every tensor is stored as two sequential streams:

* the **quantized value stream**: one 4-bit index per value (sign + 3-bit
  Gaussian index for Gaussian values, 4-bit outlier-dictionary index for
  outliers), packed two values per byte;
* the **outlier pointer stream**: the values are conceptually split into
  groups of 64; for each group the stream stores a 6-bit outlier count
  followed by one 6-bit in-group position per outlier.

On-chip, values are expanded to a 5-bit form (1 bit dictionary select,
1 bit sign, 3 bits index) so that a single stream per tensor suffices.
That 5-bit form *is* the in-memory encoding: :class:`EncodedValues`
holds one such code per value, so the off-chip nibble is its low four
bits and the outlier pointers restore the select bit.  Both layouts
assume the paper's 8 Gaussian half entries and at most 16 outliers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.core.tensor_dictionary import EncodedValues

__all__ = [
    "GROUP_SIZE",
    "POSITION_BITS",
    "COUNT_BITS",
    "MokeyMemoryContainer",
    "pack_offchip",
    "unpack_offchip",
    "pack_onchip_5bit",
    "unpack_onchip_5bit",
]

GROUP_SIZE = 64
#: Bits per in-group outlier position pointer (log2 of GROUP_SIZE).
POSITION_BITS = 6
#: Bits per per-group outlier count.
COUNT_BITS = 6
#: Gaussian half entries the Fig. 5 layout encodes (3-bit index).
HALF_ENTRIES = 8


@dataclass
class MokeyMemoryContainer:
    """The packed off-chip representation of one tensor.

    Attributes:
        num_values: Number of encoded values.
        value_stream: ``uint8`` array holding two 4-bit indexes per byte.
        pointer_stream: ``uint8`` array holding the bit-packed outlier
            pointer metadata (6-bit counts and positions).
        pointer_bits: Exact number of metadata bits (before byte padding).
    """

    num_values: int
    value_stream: np.ndarray
    pointer_stream: np.ndarray
    pointer_bits: int

    @property
    def value_bits(self) -> int:
        """Bits used by the 4-bit value stream."""
        return self.num_values * 4

    @property
    def total_bits(self) -> int:
        """Bits used by both streams (excluding per-tensor dictionaries)."""
        return self.value_bits + self.pointer_bits

    @property
    def total_bytes(self) -> int:
        """Bytes occupied in DRAM (streams padded to byte boundaries)."""
        return int(self.value_stream.size + self.pointer_stream.size)

    def compression_ratio(self, baseline_bits_per_value: int = 16) -> float:
        """Footprint reduction versus an FP16/FP32 baseline."""
        if self.total_bits == 0:
            return 1.0
        return self.num_values * baseline_bits_per_value / self.total_bits


class _BitWriter:
    """Append-only bit stream writer (MSB first within each byte)."""

    def __init__(self) -> None:
        self.bits: list = []

    def write(self, value: int, width: int) -> None:
        for position in range(width - 1, -1, -1):
            self.bits.append((value >> position) & 1)

    def to_bytes(self) -> Tuple[np.ndarray, int]:
        bit_count = len(self.bits)
        padded = self.bits + [0] * ((8 - bit_count % 8) % 8)
        array = np.array(padded, dtype=np.uint8).reshape(-1, 8)
        weights = 1 << np.arange(7, -1, -1, dtype=np.uint8)
        return (array * weights).sum(axis=1).astype(np.uint8), bit_count


class _BitReader:
    """Sequential bit stream reader matching :class:`_BitWriter`."""

    def __init__(self, data: np.ndarray, bit_count: int) -> None:
        bits = np.unpackbits(np.asarray(data, dtype=np.uint8))
        self.bits = bits[:bit_count]
        self.position = 0

    def read(self, width: int) -> int:
        chunk = self.bits[self.position:self.position + width]
        self.position += width
        value = 0
        for bit in chunk:
            value = (value << 1) | int(bit)
        return value


def _fig5_codes(encoded: EncodedValues) -> np.ndarray:
    """The flat 5-bit codes, rejecting encodings the Fig. 5 layout cannot hold."""
    codes = encoded.codes.ravel()
    top = int(codes.max(initial=0))
    if encoded.half_entries != HALF_ENTRIES or top >= 4 * HALF_ENTRIES:
        raise ValueError(
            f"the Fig. 5 layout holds {HALF_ENTRIES} Gaussian half entries and "
            f"{2 * HALF_ENTRIES} outlier entries; this encoding has "
            f"{encoded.half_entries} half entries and a largest code of {top}"
        )
    return codes


def pack_offchip(encoded: EncodedValues) -> MokeyMemoryContainer:
    """Pack an encoded tensor into the Fig. 5 off-chip container."""
    codes = _fig5_codes(encoded)
    nibbles = codes & 0x0F
    num_values = nibbles.size

    # Two 4-bit values per byte, first value in the high nibble.
    if num_values % 2:
        nibbles = np.concatenate([nibbles, np.zeros(1, dtype=np.uint8)])
    value_stream = (nibbles[0::2] << 4) | nibbles[1::2]

    writer = _BitWriter()
    outlier_flags = codes >= 2 * HALF_ENTRIES
    for start in range(0, num_values, GROUP_SIZE):
        group = outlier_flags[start:start + GROUP_SIZE]
        positions = np.flatnonzero(group)
        writer.write(int(positions.size), COUNT_BITS)
        for position in positions:
            writer.write(int(position), POSITION_BITS)
    pointer_stream, pointer_bits = writer.to_bytes()

    return MokeyMemoryContainer(
        num_values=num_values,
        value_stream=value_stream.astype(np.uint8),
        pointer_stream=pointer_stream,
        pointer_bits=pointer_bits,
    )


def unpack_offchip(container: MokeyMemoryContainer) -> EncodedValues:
    """Reverse :func:`pack_offchip`, reconstructing the (flat) codes exactly."""
    codes = np.empty(container.value_stream.size * 2, dtype=np.uint8)
    codes[0::2] = container.value_stream >> 4
    codes[1::2] = container.value_stream & 0x0F
    codes = codes[:container.num_values]

    reader = _BitReader(container.pointer_stream, container.pointer_bits)
    for start in range(0, container.num_values, GROUP_SIZE):
        count = reader.read(COUNT_BITS)
        for _ in range(count):
            position = reader.read(POSITION_BITS)
            codes[start + position] |= 2 * HALF_ENTRIES
    return EncodedValues(codes, HALF_ENTRIES)


def pack_onchip_5bit(encoded: EncodedValues) -> np.ndarray:
    """The 5-bit on-chip form (one value per byte): the codes themselves.

    Layout per value: bit4 = dictionary select (1 = outlier), bit3 = sign
    (the outlier index's top bit for outliers), bits2..0 = index.  Using
    one byte per value models the single-stream on-chip access; footprint
    accounting still uses 5 bits per value.
    """
    return _fig5_codes(encoded).copy()


def unpack_onchip_5bit(packed: np.ndarray) -> EncodedValues:
    """Reverse :func:`pack_onchip_5bit`."""
    return EncodedValues(np.asarray(packed, dtype=np.uint8).ravel(), HALF_ENTRIES)
