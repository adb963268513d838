"""Quantization-scheme interface and registry.

A :class:`QuantizationScheme` unifies the two halves of a numerics method
that the rest of the codebase used to keep apart:

* **numerics** — how tensor values are quantized/dequantized and how many
  bits a stored value nominally occupies (the Table IV axis), and
* **accelerator cost modelling** — the compute cycles and energy of one
  encoder layer on a processing-element array running the scheme, the
  on-chip/off-chip storage widths the dataflow should assume, and any
  lookup-table/outlier side costs (the Figures 9-15 axis).

Schemes are looked up by name through the :data:`SCHEMES` registry, so
adding a new method to the simulator is a registration
(``SCHEMES.register`` or the :func:`scheme` decorator), not an edit of
the simulator core:

    >>> from repro import QuantizationScheme, get_registry
    >>> class Int4Scheme(QuantizationScheme):
    ...     name = "int4"
    ...     def layer_compute(self, workload, design):
    ...         ...
    >>> get_registry("schemes").register("int4", Int4Scheme())

The :class:`~repro.accelerator.designs.AcceleratorDesign` ``datapath``
field is a registry key; the simulator dispatches to the scheme object and
never branches on the name itself.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict

import numpy as np

from repro._registry import Registry, RegistryError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (designs -> schemes)
    from repro.accelerator.designs import AcceleratorDesign
    from repro.accelerator.workloads import Workload

__all__ = [
    "SchemeStorage",
    "ComputePhase",
    "GemmAggregates",
    "QuantizationScheme",
    "SCHEMES",
    "scheme",
]


@dataclass(frozen=True)
class SchemeStorage:
    """Default per-value storage widths of a scheme.

    Design factories use these to populate an
    :class:`~repro.accelerator.designs.AcceleratorDesign`; a design may
    still override them (e.g. the memory-compression deployments).

    Attributes:
        weight_bits_offchip: Bits per weight value in DRAM.
        activation_bits_offchip: Bits per activation value in DRAM.
        weight_bits_onchip: Bits per weight value in the on-chip buffer.
        activation_bits_onchip: Bits per activation value on-chip.
        buffer_interface_bits: Value width at the buffer interface.
        decompression_lut: Whether values pass through a lookup table when
            read into the datapath.
        weight_outlier_fraction: Expected fraction of outlier-encoded
            weights under this scheme's numerics.
        activation_outlier_fraction: Same for activations.
    """

    weight_bits_offchip: float = 16.0
    activation_bits_offchip: float = 16.0
    weight_bits_onchip: float = 16.0
    activation_bits_onchip: float = 16.0
    buffer_interface_bits: int = 16
    decompression_lut: bool = False
    weight_outlier_fraction: float = 0.0
    activation_outlier_fraction: float = 0.0


@dataclass
class ComputePhase:
    """Outcome of the compute stage for one encoder layer.

    Attributes:
        cycles: Cycles the PE array is busy on one layer.
        energy_joules: Compute energy of one layer in joules.
        detail: Free-form per-scheme extras (pair counts, drain cycles, ...).
    """

    cycles: float
    energy_joules: float
    detail: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class GemmAggregates:
    """Per-layer operand/operation counts shared by every scheme's cost model."""

    macs: float
    outputs: float
    weight_values: float
    input_values: float

    @classmethod
    def of_layer(cls, workload: "Workload") -> "GemmAggregates":
        gemms = workload.layer_gemms
        return cls(
            macs=float(sum(g.macs for g in gemms)),
            outputs=float(sum(g.output_values for g in gemms)),
            weight_values=float(sum(g.weight_values for g in gemms if g.weight_static)),
            input_values=float(sum(g.input_values for g in gemms)),
        )


class QuantizationScheme(abc.ABC):
    """A numerics method plus its accelerator cost model.

    Subclasses must set :attr:`name` and implement :meth:`layer_compute`;
    the numerics hooks default to identity/FP16 so compute-only schemes
    stay small.
    """

    #: Registry key; also the valid values of ``AcceleratorDesign.datapath``.
    name: str = ""
    #: Nominal bits per stored weight value (reporting only).
    weight_bits: float = 16.0
    #: Nominal bits per stored activation value (reporting only).
    activation_bits: float = 16.0

    # ------------------------------------------------------------------ #
    # Numerics
    # ------------------------------------------------------------------ #
    def quantize_dequantize(self, values: np.ndarray, name: str = "tensor") -> np.ndarray:
        """Round-trip a tensor through the scheme's numerics.

        The default is the identity (an unquantized FP16-style scheme).
        """
        return np.asarray(values)

    # ------------------------------------------------------------------ #
    # Storage model
    # ------------------------------------------------------------------ #
    def storage(self) -> SchemeStorage:
        """Default storage widths a design built for this scheme should use."""
        return SchemeStorage()

    # ------------------------------------------------------------------ #
    # Compute model
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def layer_compute(self, workload: "Workload", design: "AcceleratorDesign") -> ComputePhase:
        """Cycles and energy for the compute of one encoder layer."""

    def describe(self) -> str:
        """One-line human description (used by ``repro registry list schemes``)."""
        return (
            f"{type(self).__name__}: w{self.weight_bits:g}b/a{self.activation_bits:g}b "
            f"numerics + accelerator cost model"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


# ---------------------------------------------------------------------- #
# Registry
# ---------------------------------------------------------------------- #
def _describe_scheme(name: str, scheme: Any) -> str:
    return scheme.describe()


def _check_scheme(name: str, scheme: Any) -> None:
    if getattr(scheme, "name", None) != name:
        raise RegistryError(
            f"scheme instance names itself {getattr(scheme, 'name', None)!r} "
            f"but is being registered as {name!r} in the 'schemes' registry",
            kind="schemes", name=name,
        )


#: Scheme name → scheme instance; ``AcceleratorDesign.datapath`` is a key.
SCHEMES = Registry("schemes", {}, _describe_scheme, on_register=_check_scheme)


def scheme(cls):
    """Class decorator: instantiate with no arguments and register."""
    SCHEMES.register(cls.name, cls())
    return cls
