"""Result dataclasses shared by the accelerator simulator and benchmarks.

All three dataclasses round-trip through ``to_dict``/``from_dict`` so the
on-disk artifact store (:mod:`repro.experiments.store`) can persist them as
JSON.  ``from_dict`` tolerates unknown fields: records written by a newer
schema with extra keys still load on older code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping

from repro._fields import known_fields

__all__ = ["EnergyBreakdown", "AreaBreakdown", "SimulationResult"]


@dataclass
class EnergyBreakdown:
    """Energy in joules, split by component (Table III rows)."""

    dram: float = 0.0
    sram: float = 0.0
    compute: float = 0.0

    @property
    def total(self) -> float:
        return self.dram + self.sram + self.compute

    def scaled(self, factor: float) -> "EnergyBreakdown":
        return EnergyBreakdown(
            dram=self.dram * factor, sram=self.sram * factor, compute=self.compute * factor
        )

    def add(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        self.dram += other.dram
        self.sram += other.sram
        self.compute += other.compute
        return self

    def to_dict(self) -> Dict[str, float]:
        return {"dram": float(self.dram), "sram": float(self.sram), "compute": float(self.compute)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EnergyBreakdown":
        return cls(**known_fields(cls, data))


@dataclass
class AreaBreakdown:
    """Area in mm^2, split by component (Table III rows)."""

    compute: float = 0.0
    buffer: float = 0.0

    @property
    def total(self) -> float:
        return self.compute + self.buffer

    def to_dict(self) -> Dict[str, float]:
        return {"compute": float(self.compute), "buffer": float(self.buffer)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AreaBreakdown":
        return cls(**known_fields(cls, data))


@dataclass
class SimulationResult:
    """End-to-end simulation outcome for one accelerator configuration.

    Attributes:
        design_name: Accelerator design label.
        workload_name: Model/task/sequence-length label.
        buffer_bytes: On-chip buffer capacity used.
        compute_cycles: Cycles the compute array is busy.
        memory_cycles: Cycles spent waiting on off-chip transfers.
        total_cycles: End-to-end cycles after compute/memory overlap.
        traffic_bytes: Total off-chip traffic.
        energy: Energy breakdown.
        area: Area breakdown.
        detail: Free-form per-simulation extras.
    """

    design_name: str
    workload_name: str
    buffer_bytes: int
    compute_cycles: float
    memory_cycles: float
    total_cycles: float
    traffic_bytes: float
    energy: EnergyBreakdown
    area: AreaBreakdown
    detail: Dict[str, float] = field(default_factory=dict)

    @property
    def overlap_fraction(self) -> float:
        """Fraction of the shorter phase hidden behind the longer one."""
        shorter = min(self.compute_cycles, self.memory_cycles)
        if shorter <= 0:
            return 1.0
        hidden = self.compute_cycles + self.memory_cycles - self.total_cycles
        return max(0.0, min(1.0, hidden / shorter))

    def speedup_over(self, other: "SimulationResult") -> float:
        """How many times faster this result is than ``other``."""
        if self.total_cycles <= 0:
            return float("inf")
        return other.total_cycles / self.total_cycles

    def energy_efficiency_over(self, other: "SimulationResult") -> float:
        """How many times less energy this result uses than ``other``."""
        if self.energy.total <= 0:
            return float("inf")
        return other.energy.total / self.energy.total

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation; inverse of :meth:`from_dict`."""
        return {
            "design_name": self.design_name,
            "workload_name": self.workload_name,
            "buffer_bytes": int(self.buffer_bytes),
            "compute_cycles": float(self.compute_cycles),
            "memory_cycles": float(self.memory_cycles),
            "total_cycles": float(self.total_cycles),
            "traffic_bytes": float(self.traffic_bytes),
            "energy": self.energy.to_dict(),
            "area": self.area.to_dict(),
            "detail": {key: float(value) for key, value in self.detail.items()},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimulationResult":
        """Rebuild a result from :meth:`to_dict` output, ignoring unknown keys."""
        known = known_fields(cls, data)
        known["energy"] = EnergyBreakdown.from_dict(known.get("energy") or {})
        known["area"] = AreaBreakdown.from_dict(known.get("area") or {})
        known["detail"] = dict(known.get("detail") or {})
        return cls(**known)
