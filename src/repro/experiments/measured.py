"""Measured index-domain statistics for campaign records.

The schemes' analytic cost models count operations from GEMM shapes plus
*assumed* outlier-pair fractions (``gaussian_pairs`` / ``outlier_pairs``
in the Mokey scheme's compute detail).  This module produces the
*measured* counterpart by actually running one encoder layer (or the
whole stack) of the scenario's workload through the vectorized
index-domain engine
(:class:`~repro.transformer.index_model.IndexDomainModelExecutor`) and
counting every Gaussian and outlier operand pair in the real encodings.

Measured statistics depend only on ``(model, sequence_length,
batch_size)`` — not on the design point, scheme override or buffer
capacity — so one layer execution (memoised per :func:`measured_key` in
the campaign's :class:`~repro.experiments.campaign.ResultCache`, and
persisted through the artifact store) serves every hardware point of a
grid.  Everything is derived from a stable hash of the key, so any
process produces a bit-identical :class:`MeasuredStats`; wall-clock
timings live in the perf benchmarks (``BENCH_PERF.json``), never in
stored records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from repro._fields import known_fields
from repro.experiments.accuracy import JoinSettings, _model_quantizer, content_digest, stable_seed
from repro.experiments.scenario import Scenario

__all__ = [
    "MeasurementSettings",
    "DEFAULT_MEASUREMENT_SETTINGS",
    "MeasuredKey",
    "MeasuredStats",
    "measured_key",
    "evaluate_measured",
    "measured_digest",
]


@dataclass(frozen=True)
class MeasurementSettings(JoinSettings):
    """Deterministic parameters of one measured-layer execution.

    All fields feed the execution deterministically: identical settings +
    key always produce a bit-identical :class:`MeasuredStats`.

    Attributes:
        golden_samples: Samples for the Golden Dictionary build (reduced
            but structurally identical, matching the accuracy campaign's
            default build).
        golden_repeats: Repeats for the Golden Dictionary build.
        golden_seed: Seed for the Golden Dictionary build.
        scope: ``"layer"`` (default) measures one encoder layer;
            ``"model"`` runs the whole encoder stack — every layer's
            index-domain output feeding the next — and sums the counts
            across the full depth.

    Raises:
        ValueError: an unknown scope, golden sample/repeat counts that
            are not positive integers, or a golden seed that is not an
            integer >= 0 (one line naming the field), when the settings
            are built — so a malformed campaign spec fails when it is
            parsed, not mid-campaign.
    """

    golden_samples: int = 12000
    golden_repeats: int = 2
    golden_seed: int = 7
    scope: str = "layer"

    def __post_init__(self) -> None:
        if self.scope not in ("layer", "model"):
            raise ValueError(
                f"measurement_settings.scope must be 'layer' or 'model', got {self.scope!r}"
            )
        for name, least in (("golden_samples", 1), ("golden_repeats", 1), ("golden_seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise ValueError(
                    f"measurement_settings.{name} must be an integer >= {least}, got {value!r}"
                )


DEFAULT_MEASUREMENT_SETTINGS = MeasurementSettings()

#: The memo key of one measurement: ``(model, sequence_length, batch_size)``.
MeasuredKey = Tuple[str, int, int]


def measured_key(scenario: Scenario) -> MeasuredKey:
    """The measurement memo key of ``scenario``.

    Deliberately excludes the design point, scheme override and buffer
    capacity: the index-domain operation mix is a property of the workload
    alone, so one layer execution serves every hardware point of a grid.
    """
    return (scenario.model, scenario.resolved_sequence_length, scenario.batch_size)


@dataclass
class MeasuredStats:
    """Measured index-domain operation counts of one encoder layer.

    The count fields mirror
    :class:`~repro.core.index_compute.IndexComputeStats`, summed over
    every GEMM instance of one encoder layer (the analytic compute detail
    is per layer too, so the two are directly comparable).

    Attributes:
        model: Model-zoo name measured.
        sequence_length: Tokens per input.
        batch_size: Inputs per pass.
        gaussian_pairs: Operand pairs handled by the GPE index path.
        outlier_pairs: Operand pairs handled by the OPP's direct MACs.
        index_additions: Narrow index additions performed.
        counter_updates: CRF counter updates performed.
        post_processing_macs: Post-processing MACs (per-bin reductions
            plus one MAC per outlier pair).
        gemm_instances: GEMM instances executed (heads x batch for the
            attention score/context GEMMs).
        output_rms_error: Relative RMS error of the index-domain output
            against the FP forward (of the block at layer scope, of the
            whole stack at model scope).
        seed: Seed the block and inputs were built from.
        settings_digest: :meth:`MeasurementSettings.digest` of the
            settings that produced the result; lookups only reuse a
            result whose digest matches.
        scope: ``"layer"`` or ``"model"`` — what the counts cover.
        layers_measured: Encoder layers the counts were summed over
            (1 at layer scope, the configured depth at model scope).
    """

    model: str = ""
    sequence_length: int = 0
    batch_size: int = 0
    gaussian_pairs: int = 0
    outlier_pairs: int = 0
    index_additions: int = 0
    counter_updates: int = 0
    post_processing_macs: int = 0
    gemm_instances: int = 0
    output_rms_error: float = 0.0
    seed: int = 0
    settings_digest: str = ""
    scope: str = "layer"
    layers_measured: int = 1

    @property
    def total_pairs(self) -> int:
        """Operand pairs processed (equals the layer's MAC count)."""
        return self.gaussian_pairs + self.outlier_pairs

    @property
    def outlier_pair_fraction(self) -> float:
        total = self.total_pairs
        return self.outlier_pairs / total if total else 0.0

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready field mapping; inverse of :meth:`from_dict`."""
        return {
            "model": self.model,
            "sequence_length": int(self.sequence_length),
            "batch_size": int(self.batch_size),
            "gaussian_pairs": int(self.gaussian_pairs),
            "outlier_pairs": int(self.outlier_pairs),
            "index_additions": int(self.index_additions),
            "counter_updates": int(self.counter_updates),
            "post_processing_macs": int(self.post_processing_macs),
            "gemm_instances": int(self.gemm_instances),
            "output_rms_error": float(self.output_rms_error),
            "seed": int(self.seed),
            "settings_digest": self.settings_digest,
            "scope": self.scope,
            "layers_measured": int(self.layers_measured),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MeasuredStats":
        """Rebuild from :meth:`to_dict` output, ignoring unknown keys."""
        return cls(**known_fields(cls, data))


def measured_digest(result: MeasuredStats) -> str:
    """Stable content digest of the full measured result (all fields)."""
    return content_digest(result.to_dict(), 16)


def evaluate_measured(
    model: str,
    sequence_length: int,
    batch_size: int = 1,
    settings: Optional[MeasurementSettings] = None,
) -> MeasuredStats:
    """Measure the index-domain operation mix of one workload.

    Runs the workload at its full model width through
    :class:`~repro.transformer.index_model.IndexDomainModelExecutor`:
    one encoder layer at the default layer scope, the entire encoder
    stack (counts summed across the full depth) at model scope
    (``settings.scope == "model"``).  Either way the outcome folds into
    a deterministic, serializable :class:`MeasuredStats`.

    Raises:
        KeyError: unknown model name.
        ValueError: non-positive sequence length or batch size.
    """
    from repro.transformer.index_model import IndexDomainModelExecutor

    settings = settings or DEFAULT_MEASUREMENT_SETTINGS
    if sequence_length < 1:
        raise ValueError(f"sequence_length must be >= 1, got {sequence_length}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    seed = stable_seed(model, sequence_length, batch_size)
    # The scope picks the depth and the input stream, nothing else.
    depth, input_seed = (None, seed + 7919) if settings.scope == "model" else (1, seed + 2)
    executor = IndexDomainModelExecutor(
        model, num_layers=depth, quantizer=_model_quantizer(settings).quantizer, seed=seed
    )
    hidden_states = np.random.default_rng(input_seed).normal(
        0.0, 1.0, size=(batch_size, sequence_length, executor.config.hidden_size)
    ).astype(np.float32)
    measurement = executor.forward(hidden_states)
    stats = measurement.stats
    return MeasuredStats(
        model=model,
        sequence_length=sequence_length,
        batch_size=batch_size,
        gaussian_pairs=stats.gaussian_pairs,
        outlier_pairs=stats.outlier_pairs,
        index_additions=stats.index_additions,
        counter_updates=stats.counter_updates,
        post_processing_macs=stats.post_processing_macs,
        gemm_instances=sum(g.count for layer in measurement.layers for g in layer.gemms),
        output_rms_error=measurement.output_rms_error,
        seed=seed,
        settings_digest=settings.digest(),
        scope=settings.scope,
        layers_measured=measurement.num_layers,
    )
