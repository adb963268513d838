"""Scheme adapters for the Table IV baseline quantizers.

Each baseline in :mod:`repro.baselines` registers a scheme so the
campaign engine can sweep it like any other method: tensor-level numerics
are delegated to the baseline's quantization function and the cost model
is a uniform fixed-point/FP16 MAC array parameterised by the method's bit
widths (integer-compute methods scale the 16-bit MAC energy by their
operand width; dictionary-coded weights add a lookup per weight; methods
that quantize activations pay one re-quantization per output).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.schemes.base import (
    ComputePhase,
    GemmAggregates,
    QuantizationScheme,
    SCHEMES,
    SchemeStorage,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.accelerator.designs import AcceleratorDesign
    from repro.accelerator.workloads import Workload

__all__ = ["BaselineScheme", "BASELINE_SCHEME_NAMES"]


class BaselineScheme(QuantizationScheme):
    """A registered scheme backed by a baseline's tensor-level numerics.

    Args:
        name: Registry key.
        weight_bits: Bits per stored weight value.
        activation_bits: Bits per stored activation value.
        quantize_fn: ``values -> reconstruction`` tensor round-trip.
        integer_compute: Whether MACs run in the fixed-point domain (energy
            scales from the 16-bit MAC by operand width) or stay FP16.
        weight_lut: Whether weights are dictionary-coded and need a lookup
            per value entering the PE array.
    """

    def __init__(
        self,
        name: str,
        weight_bits: float,
        activation_bits: float,
        quantize_fn: Callable[[np.ndarray], np.ndarray],
        integer_compute: bool = False,
        weight_lut: bool = False,
    ) -> None:
        self.name = name
        self.weight_bits = float(weight_bits)
        self.activation_bits = float(activation_bits)
        self._quantize_fn = quantize_fn
        self.integer_compute = integer_compute
        self.weight_lut = weight_lut

    def quantize_dequantize(self, values: np.ndarray, name: str = "tensor") -> np.ndarray:
        return self._quantize_fn(np.asarray(values))

    def storage(self) -> SchemeStorage:
        return SchemeStorage(
            weight_bits_offchip=self.weight_bits,
            activation_bits_offchip=min(self.activation_bits, 16.0),
            weight_bits_onchip=self.weight_bits,
            activation_bits_onchip=min(self.activation_bits, 16.0),
            buffer_interface_bits=int(min(self.activation_bits, 16.0)),
        )

    def layer_compute(self, workload: "Workload", design: "AcceleratorDesign") -> ComputePhase:
        agg = GemmAggregates.of_layer(workload)
        energies = design.energies
        cycles = agg.macs / design.peak_macs_per_cycle
        if self.integer_compute:
            operand_bits = max(self.weight_bits, min(self.activation_bits, 16.0))
            mac_energy = energies.int16_mac * operand_bits / 16.0
        else:
            mac_energy = energies.fp16_mac
        energy_pj = agg.macs * mac_energy
        if self.weight_lut:
            energy_pj += agg.weight_values * energies.lut_lookup
        if self.activation_bits < 16.0:
            energy_pj += agg.outputs * energies.quantizer_value
        return ComputePhase(
            cycles=cycles,
            energy_joules=energy_pj * 1e-12,
            detail={"layer_macs": agg.macs, "layer_outputs": agg.outputs},
        )


def _q8bert_tensor(values: np.ndarray) -> np.ndarray:
    from repro.baselines.base import uniform_symmetric_quantize

    reconstruction, _ = uniform_symmetric_quantize(values, 8)
    return reconstruction


def _qbert_tensor(values: np.ndarray) -> np.ndarray:
    from repro.baselines.qbert import groupwise_quantize

    return groupwise_quantize(values, 4)


def _ternary_tensor(values: np.ndarray) -> np.ndarray:
    from repro.baselines.ternarybert import ternarize

    reconstruction, _, _ = ternarize(values)
    return reconstruction


BASELINE_SCHEME_NAMES = ("q8bert", "ibert", "qbert", "ternarybert")

for _baseline in (
    BaselineScheme("q8bert", 8, 8, _q8bert_tensor),
    BaselineScheme("ibert", 8, 8, _q8bert_tensor, integer_compute=True),
    BaselineScheme("qbert", 4, 8, _qbert_tensor, weight_lut=True),
    BaselineScheme("ternarybert", 2, 8, _ternary_tensor, integer_compute=True),
):
    SCHEMES.register(_baseline.name, _baseline)
