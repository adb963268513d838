"""Mokey scheme: 4-bit Golden-Dictionary indexes on the GPE/OPP array.

Numerics come from :class:`~repro.core.quantizer.MokeyQuantizer` (Golden
Dictionary fit + outlier dictionary); the cost model is the paper's
Section III-B array of cascaded Gaussian PEs sharing outlier/post-
processing units.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.schemes.base import ComputePhase, GemmAggregates, QuantizationScheme, SchemeStorage, scheme

if TYPE_CHECKING:  # pragma: no cover
    from repro.accelerator.designs import AcceleratorDesign
    from repro.accelerator.workloads import Workload
    from repro.core.quantizer import MokeyQuantizer

__all__ = ["MokeyScheme"]


@scheme
class MokeyScheme(QuantizationScheme):
    """4-bit dictionary numerics on the Mokey GPE/OPP datapath."""

    name = "mokey"
    weight_bits = 4.0
    activation_bits = 4.0

    def __init__(self) -> None:
        self._quantizer: Optional["MokeyQuantizer"] = None

    def _get_quantizer(self) -> "MokeyQuantizer":
        # Generating the Golden Dictionary takes ~0.15 s; defer until the
        # numerics are actually exercised and share one instance after.
        if self._quantizer is None:
            from repro.core.quantizer import MokeyQuantizer

            self._quantizer = MokeyQuantizer()
        return self._quantizer

    def quantize_dequantize(self, values: np.ndarray, name: str = "tensor") -> np.ndarray:
        return self._get_quantizer().quantize_dequantize(values, name=name)

    def storage(self) -> SchemeStorage:
        from repro.accelerator.mokey_accel import MOKEY_OFFCHIP_BITS, MOKEY_ONCHIP_BITS

        return SchemeStorage(
            weight_bits_offchip=MOKEY_OFFCHIP_BITS,
            activation_bits_offchip=MOKEY_OFFCHIP_BITS,
            weight_bits_onchip=MOKEY_ONCHIP_BITS,
            activation_bits_onchip=MOKEY_ONCHIP_BITS,
            buffer_interface_bits=5,
            weight_outlier_fraction=0.015,
            activation_outlier_fraction=0.045,
        )

    def layer_compute(self, workload: "Workload", design: "AcceleratorDesign") -> ComputePhase:
        from repro.accelerator.mokey_accel import POST_PROCESSING_MACS_PER_OUTPUT

        agg = GemmAggregates.of_layer(workload)
        energies = design.energies
        outlier_pair_fraction = (
            design.weight_outlier_fraction
            + design.activation_outlier_fraction
            - design.weight_outlier_fraction * design.activation_outlier_fraction
        )
        gaussian_pairs = agg.macs * (1.0 - outlier_pair_fraction)
        outlier_pairs = agg.macs * outlier_pair_fraction
        opp_units = max(1, design.num_units // design.gpes_per_opp)

        gpe_cycles = gaussian_pairs / design.num_units
        # The shared OPP serialises outlier pairs and the per-output
        # post-processing drains.  At the paper's outlier rates (<5% of
        # pairs) one OPP per 8 GPEs keeps up with the GPE stream, so the
        # OPP only becomes the bottleneck when its total busy time
        # exceeds the GPE time; a 5% scheduling overhead covers bursts of
        # simultaneous outliers and drain/accumulate conflicts.
        outlier_cycles = outlier_pairs / opp_units
        post_cycles = agg.outputs * POST_PROCESSING_MACS_PER_OUTPUT / opp_units
        cycles = 1.05 * max(gpe_cycles, outlier_cycles + post_cycles)

        energy_pj = (
            gaussian_pairs * energies.gaussian_pair
            + outlier_pairs * (energies.int16_mac + 2 * energies.lut_lookup)
            + agg.outputs
            * (POST_PROCESSING_MACS_PER_OUTPUT * energies.int16_mac + energies.quantizer_value)
        )
        return ComputePhase(
            cycles=cycles,
            energy_joules=energy_pj * 1e-12,
            detail={
                "layer_macs": agg.macs,
                "layer_outputs": agg.outputs,
                "gaussian_pairs": gaussian_pairs,
                "outlier_pairs": outlier_pairs,
                "post_processing_cycles": post_cycles,
            },
        )
