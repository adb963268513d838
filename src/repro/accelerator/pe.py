"""Behavioural models of the Mokey processing elements (paper Fig. 6-7).

These models execute the hardware algorithm exactly as described — GPEs
count, the OPP handles outliers one at a time and drains the counters
during post-processing — and are validated in the tests against the
mathematical index-domain engine (:mod:`repro.core.index_compute`) and
against the plain dot product of the dequantized operands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.accelerator.crf import GpeCounterSet
from repro.core.tensor_dictionary import EncodedValues, TensorDictionary

__all__ = ["GaussianPe", "OutlierPostProcessor", "MokeyTile"]


@dataclass
class GaussianPe:
    """One Gaussian PE: counts exponent sums of Gaussian pairs.

    The PE also tracks the activation-only and weight-only exponent sums
    needed by SoA2/SoW2 (in hardware these are produced while the previous
    layer's outputs are quantized; keeping them here keeps the model
    self-contained).
    """

    num_half_entries: int = 8
    counters: GpeCounterSet = field(init=False)
    cycles: int = field(init=False, default=0)
    sum_theta_a_exp: float = field(init=False, default=0.0)
    sum_theta_w_exp: float = field(init=False, default=0.0)
    sum_theta_a: float = field(init=False, default=0.0)
    sum_theta_w: float = field(init=False, default=0.0)
    gaussian_pairs: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self.counters = GpeCounterSet(self.num_half_entries)

    def process(self, act_index: int, act_sign: int, w_index: int, w_sign: int, base: float) -> None:
        """Process one Gaussian pair (one cycle)."""
        self.counters.process_pair(act_index, act_sign, w_index, w_sign)
        self.cycles += 1
        self.gaussian_pairs += 1
        self.sum_theta_a_exp += act_sign * base ** act_index
        self.sum_theta_w_exp += w_sign * base ** w_index
        self.sum_theta_a += act_sign
        self.sum_theta_w += w_sign


@dataclass
class OutlierPostProcessor:
    """The shared Outlier/Post-Processing (OPP) unit of one tile."""

    outlier_macs: int = 0
    post_processing_macs: int = 0
    accumulator: float = 0.0

    def process_outlier(self, act_value: float, weight_value: float) -> None:
        """Multiply-accumulate one outlier pair on its 16-bit centroids."""
        self.accumulator += act_value * weight_value
        self.outlier_macs += 1

    def post_process(
        self,
        pe: GaussianPe,
        act_dict: TensorDictionary,
        weight_dict: TensorDictionary,
    ) -> float:
        """Drain one GPE's counters into the final output activation value."""
        fit = act_dict.golden.fit
        a, b = fit.a, fit.b
        s_a, m_a = act_dict.std, act_dict.mean
        s_w, m_w = weight_dict.std, weight_dict.mean

        soi_counts = pe.counters.soi.drain().astype(np.float64)
        soa1_counts = pe.counters.soa1.drain().astype(np.float64)
        sow1_counts = pe.counters.sow1.drain().astype(np.float64)
        pom1_count = float(pe.counters.pom1.drain()[0])

        soi_bases = a ** np.arange(soi_counts.size)
        half_bases = a ** np.arange(soa1_counts.size)

        soi = s_a * s_w * float(soi_counts @ soi_bases)
        soa1 = s_a * s_w * b * float(soa1_counts @ half_bases)
        sow1 = s_w * s_a * b * float(sow1_counts @ half_bases)
        soa2 = s_a * m_w * pe.sum_theta_a_exp
        sow2 = s_w * m_a * pe.sum_theta_w_exp
        pom = (
            s_a * s_w * b * b * pom1_count
            + s_a * m_w * b * pe.sum_theta_a
            + s_w * m_a * b * pe.sum_theta_w
            + pe.gaussian_pairs * m_a * m_w
        )
        self.post_processing_macs += soi_counts.size + 2 * half_bases.size + 1
        return soi + soa1 + soa2 + sow1 + sow2 + pom


@dataclass
class MokeyTile:
    """A tile of GPEs sharing one OPP (8 GPEs per tile in the paper).

    The tile computes one output activation per GPE from encoded operand
    vectors, returning the values plus the cycle count including the
    serialisation penalty of outlier pairs.
    """

    num_gpes: int = 8
    num_half_entries: int = 8

    def compute_outputs(
        self,
        activation_rows: List[EncodedValues],
        weight_column: EncodedValues,
        act_dict: TensorDictionary,
        weight_dict: TensorDictionary,
    ) -> Tuple[np.ndarray, int]:
        """Compute one output activation per activation row against one weight column.

        Args:
            activation_rows: Up to ``num_gpes`` encoded activation vectors.
            weight_column: The encoded weight vector shared by all GPEs.
            act_dict: Activation dictionary.
            weight_dict: Weight dictionary.

        Returns:
            The output activation values and the tile cycle count.
        """
        if len(activation_rows) > self.num_gpes:
            raise ValueError("more activation rows than GPEs in the tile")
        base = act_dict.golden.fit.a
        opp = OutlierPostProcessor()
        pes = [GaussianPe(self.num_half_entries) for _ in activation_rows]
        accumulators = np.zeros(len(activation_rows))
        outlier_events = 0

        length = weight_column.size
        decoded_w = weight_dict.decode(weight_column, apply_fixed_point=False).ravel()
        out_w = weight_column.is_outlier.ravel()
        index_w = weight_column.gaussian_index.ravel().tolist()
        sign_w = weight_column.sign.ravel().tolist()
        for pe_index, activation in enumerate(activation_rows):
            if activation.size != length:
                raise ValueError("operand length mismatch")
            decoded_a = act_dict.decode(activation, apply_fixed_point=False).ravel()
            outlier_pair = (activation.is_outlier.ravel() | out_w).tolist()
            index_a = activation.gaussian_index.ravel().tolist()
            sign_a = activation.sign.ravel().tolist()
            for position in range(length):
                if outlier_pair[position]:
                    opp.accumulator = 0.0
                    opp.process_outlier(decoded_a[position], decoded_w[position])
                    accumulators[pe_index] += opp.accumulator
                    outlier_events += 1
                else:
                    pes[pe_index].process(
                        index_a[position], sign_a[position],
                        index_w[position], sign_w[position],
                        base,
                    )

        for pe_index, pe in enumerate(pes):
            accumulators[pe_index] += opp.post_process(pe, act_dict, weight_dict)

        # Cycle model: one cycle per Gaussian pair per GPE (GPEs run in
        # lock-step), plus one serialised cycle per outlier event, plus the
        # serial post-processing drain.
        gaussian_cycles = max((pe.cycles for pe in pes), default=0)
        cycles = gaussian_cycles + outlier_events + opp.post_processing_macs
        return accumulators, cycles
