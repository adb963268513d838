"""Accelerator design descriptors.

An :class:`AcceleratorDesign` captures everything the simulator needs to
know about a design: how many processing elements it has and what they
cost, which quantization scheme its datapath implements (a key into the
:mod:`repro.schemes` registry), and how many bits weights and activations
occupy off-chip and on-chip (which is where quantization and the
memory-compression modes enter the model).

The design is pure parameters; all per-scheme behaviour lives in the
scheme object the ``datapath`` name resolves to.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.accelerator.energy import DEFAULT_AREAS, DEFAULT_ENERGIES, OperationEnergies
from repro.schemes.base import SCHEMES

__all__ = ["AcceleratorDesign", "DEFAULT_REGISTER_REUSE"]

# Register-file level operand reuse inside the PE array: each value fetched
# from the on-chip buffer is used this many times on average before being
# re-read (spatial reuse across the unit array).
DEFAULT_REGISTER_REUSE = 16.0


@dataclass(frozen=True)
class AcceleratorDesign:
    """Parameters of one accelerator design point.

    Attributes:
        name: Design label used in reports.
        datapath: Name of a registered :mod:`repro.schemes` scheme
            (e.g. ``"fp16"``, ``"gobo"``, ``"mokey"``, ``"mokey-oc"``).
        num_units: Number of processing elements (MAC units or GPEs).
        unit_area_mm2: Area per processing element.
        weight_bits_offchip: Bits per weight value in DRAM.
        activation_bits_offchip: Bits per activation value in DRAM.
        weight_bits_onchip: Bits per weight value in the on-chip buffer.
        activation_bits_onchip: Bits per activation value in the on-chip buffer.
        buffer_interface_bits: Value width at the buffer interface (drives
            buffer area).
        gpes_per_opp: Mokey only — GPEs sharing one outlier/post-processing
            unit.
        weight_outlier_fraction: Expected fraction of outlier-encoded weights.
        activation_outlier_fraction: Same for activations.
        decompression_lut: Whether values must pass through a lookup table
            when read into the datapath (GOBO weights, compression modes).
        energies: Per-operation energy constants.
        clock_hz: Operating frequency.
        register_reuse: Average uses per value fetched from the on-chip
            buffer before it is re-read (PE-array register/spatial reuse);
            divides the buffer read traffic in the SRAM energy model.
    """

    name: str
    datapath: str
    num_units: int
    unit_area_mm2: float
    weight_bits_offchip: float = 16.0
    activation_bits_offchip: float = 16.0
    weight_bits_onchip: float = 16.0
    activation_bits_onchip: float = 16.0
    buffer_interface_bits: int = 16
    gpes_per_opp: int = 8
    weight_outlier_fraction: float = 0.015
    activation_outlier_fraction: float = 0.045
    decompression_lut: bool = False
    energies: OperationEnergies = field(default_factory=lambda: DEFAULT_ENERGIES)
    clock_hz: float = 1e9
    register_reuse: float = DEFAULT_REGISTER_REUSE

    def __post_init__(self) -> None:
        self.scheme()  # raises ValueError for unknown datapath names
        if self.num_units <= 0:
            raise ValueError("num_units must be positive")
        if self.register_reuse <= 0:
            raise ValueError("register_reuse must be positive")

    def scheme(self):
        """The registered :class:`~repro.schemes.base.QuantizationScheme`."""
        return SCHEMES.get(self.datapath)

    def summary(self) -> str:
        """One-line human description (used by ``repro registry list designs``)."""
        return (
            f"{self.name}: {self.num_units} units, {self.datapath!r} datapath, "
            f"w{self.weight_bits_offchip:g}b/a{self.activation_bits_offchip:g}b off-chip"
        )

    @property
    def compute_area_mm2(self) -> float:
        """Total processing-element array area."""
        return self.num_units * self.unit_area_mm2

    @property
    def peak_macs_per_cycle(self) -> float:
        """Peak multiply-accumulate (or pair-processing) throughput."""
        return float(self.num_units)

    def with_buffer_bits(
        self,
        weight_bits_offchip: Optional[float] = None,
        activation_bits_offchip: Optional[float] = None,
        weight_bits_onchip: Optional[float] = None,
        activation_bits_onchip: Optional[float] = None,
        name: Optional[str] = None,
        decompression_lut: Optional[bool] = None,
        buffer_interface_bits: Optional[int] = None,
        datapath: Optional[str] = None,
    ) -> "AcceleratorDesign":
        """Return a variant with different storage precisions (compression modes)."""
        updates = {}
        if weight_bits_offchip is not None:
            updates["weight_bits_offchip"] = weight_bits_offchip
        if activation_bits_offchip is not None:
            updates["activation_bits_offchip"] = activation_bits_offchip
        if weight_bits_onchip is not None:
            updates["weight_bits_onchip"] = weight_bits_onchip
        if activation_bits_onchip is not None:
            updates["activation_bits_onchip"] = activation_bits_onchip
        if name is not None:
            updates["name"] = name
        if decompression_lut is not None:
            updates["decompression_lut"] = decompression_lut
        if buffer_interface_bits is not None:
            updates["buffer_interface_bits"] = buffer_interface_bits
        if datapath is not None:
            updates["datapath"] = datapath
        return replace(self, **updates)

    def with_scheme(self, scheme_name: str, name: Optional[str] = None) -> "AcceleratorDesign":
        """Return a variant running ``scheme_name`` with that scheme's storage widths.

        The PE array (unit count, areas, energies, clock) is kept; the
        storage-related fields and the scheme-coupled outlier fractions are
        reset to the scheme's defaults.  This is what the campaign engine
        uses to sweep schemes over a fixed design.
        """
        storage = SCHEMES.get(scheme_name).storage()
        return replace(
            self,
            name=name or f"{self.name}[{scheme_name}]",
            datapath=scheme_name,
            weight_bits_offchip=storage.weight_bits_offchip,
            activation_bits_offchip=storage.activation_bits_offchip,
            weight_bits_onchip=storage.weight_bits_onchip,
            activation_bits_onchip=storage.activation_bits_onchip,
            buffer_interface_bits=storage.buffer_interface_bits,
            decompression_lut=storage.decompression_lut,
            weight_outlier_fraction=storage.weight_outlier_fraction,
            activation_outlier_fraction=storage.activation_outlier_fraction,
        )
