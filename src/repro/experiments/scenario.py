"""Scenario descriptors and the accelerator-design registry.

A :class:`Scenario` is one frozen point of the evaluation grid: which
model runs which task, at what sequence length and batch size, on which
accelerator design, with which quantization scheme, and how much on-chip
buffer the chip has.  Scenarios are hashable, so they key the campaign
result cache directly.

Designs are looked up by name in the :data:`DESIGNS` registry; registering
a new design point (``DESIGNS.register(name, factory)``) immediately makes
it sweepable by every campaign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from repro._fields import known_fields
from repro._registry import Registry
from repro.accelerator.compression_modes import (
    COMPRESSION_MODE_DESIGNS,
    CompressionMode,
    tensor_cores_with_mokey_compression,
)
from repro.accelerator.designs import AcceleratorDesign
from repro.accelerator.gobo_accel import gobo_design
from repro.accelerator.mokey_accel import mokey_design
from repro.accelerator.tensor_cores import tensor_cores_design
from repro.accelerator.workloads import TASK_SEQUENCE_LENGTHS, Workload, model_workload

__all__ = [
    "Scenario",
    "DESIGNS",
]

KB = 1024


def _describe_design(name: str, factory: Any) -> str:
    return factory().summary()


#: Design name → zero-argument :class:`AcceleratorDesign` factory.
DESIGNS = Registry("designs", {}, _describe_design)
DESIGNS.register("tensor-cores", tensor_cores_design)
DESIGNS.register("gobo", gobo_design)
DESIGNS.register("mokey", mokey_design)
DESIGNS.register(
    COMPRESSION_MODE_DESIGNS[CompressionMode.OFF_CHIP],
    lambda: tensor_cores_with_mokey_compression(CompressionMode.OFF_CHIP),
)
DESIGNS.register(
    COMPRESSION_MODE_DESIGNS[CompressionMode.OFF_CHIP_AND_ON_CHIP],
    lambda: tensor_cores_with_mokey_compression(CompressionMode.OFF_CHIP_AND_ON_CHIP),
)


@dataclass(frozen=True)
class Scenario:
    """One point of the evaluation grid.

    Attributes:
        model: Model-zoo name (e.g. ``"bert-large"``).
        task: Task name; sets the default sequence length.
        sequence_length: Tokens per input; ``None`` uses the task default.
        batch_size: Inputs per inference pass.
        scheme: Optional scheme override.  ``None`` runs the design's own
            scheme; a registered scheme name re-parameterises the design's
            storage widths with that scheme's defaults (fixed PE array,
            different numerics) via
            :meth:`~repro.accelerator.designs.AcceleratorDesign.with_scheme`.
        design: Registered design name (see :data:`DESIGNS`).
        buffer_bytes: On-chip buffer capacity.
        activation_buffer_fraction: Buffer fraction reserved for activations.
    """

    model: str = "bert-base"
    task: str = "mnli"
    sequence_length: Optional[int] = None
    batch_size: int = 1
    scheme: Optional[str] = None
    design: str = "mokey"
    buffer_bytes: int = 512 * KB
    activation_buffer_fraction: float = 0.5

    @property
    def resolved_sequence_length(self) -> int:
        if self.sequence_length is not None:
            return self.sequence_length
        return TASK_SEQUENCE_LENGTHS.get(self.task, 128)

    @property
    def label(self) -> str:
        parts = [
            f"{self.model}/{self.task}/seq{self.resolved_sequence_length}",
        ]
        if self.batch_size != 1:
            parts.append(f"bs{self.batch_size}")
        parts.append(self.design if self.scheme is None else f"{self.design}[{self.scheme}]")
        parts.append(f"{self.buffer_bytes // KB}KB")
        return " ".join(parts)

    def build_workload(self) -> Workload:
        return model_workload(
            self.model, self.task, self.sequence_length, batch_size=self.batch_size
        )

    def build_design(self) -> AcceleratorDesign:
        design = DESIGNS.get(self.design)()
        if self.scheme is not None and self.scheme != design.datapath:
            design = design.with_scheme(self.scheme)
        return design

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready field mapping; inverse of :meth:`from_dict`.

        Every field is emitted explicitly (including defaults) so the
        serialized form — and therefore the store's content hash — does not
        change when a field's default value changes.
        """
        return {
            "model": self.model,
            "task": self.task,
            "sequence_length": self.sequence_length,
            "batch_size": int(self.batch_size),
            "scheme": self.scheme,
            "design": self.design,
            "buffer_bytes": int(self.buffer_bytes),
            "activation_buffer_fraction": float(self.activation_buffer_fraction),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        """Rebuild a scenario from :meth:`to_dict` output, ignoring unknown keys."""
        return cls(**known_fields(cls, data))
