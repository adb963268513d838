"""Declarative, JSON-round-trippable serving simulations.

A :class:`ServingSpec` is the full description of one serving experiment
as a frozen value: the workload (model/task/sequence length), the scheme
× design combos to serve it on, the arrival trace
(:class:`~repro.serving.traces.TraceSpec`), the batching policy
(:class:`~repro.serving.policies.PolicySpec`), the accelerator count,
an optional latency SLO, and how to execute
(:class:`~repro.experiments.spec.ExecutionPolicy` — the same policy
campaigns use, including the pluggable store backends).

Batch size is *not* an axis here: it emerges from load under the policy.
Each distinct formed batch size becomes an ordinary campaign
:class:`~repro.experiments.scenario.Scenario` with ``batch_size=B``,
resolved through a :class:`~repro.experiments.campaign.ResultCache` over
the policy's store — so a serving campaign persists through the same
JSONL/SQLite backends as every other campaign, re-running a spec against
a warm store simulates nothing, and a killed run resumes without
re-simulating the batch shapes its completed combos already persisted.

The streaming entry point is :func:`iter_serving`::

    from repro.serving import PolicySpec, ServingSpec, TraceSpec, iter_serving

    spec = ServingSpec(
        schemes=("mokey-oc", "fp16"),
        designs=("mokey",),
        trace=TraceSpec(kind="poisson", rate_rps=200.0, num_requests=100_000, seed=7),
        policy=PolicySpec(kind="timeout", max_batch=16, timeout_ms=5.0),
    )
    for record, progress in iter_serving(spec):
        print(progress, record.metrics.p99_ms)

Determinism: the trace is generated once from the spec's seed, every
combo replays it with the same pure event loop, and fresh batch-shape
results are persisted by the parent (never by pool workers), so serial /
thread / process runs of one spec produce bit-identical metrics.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.experiments.campaign import ResultCache
from repro.experiments.scenario import KB, Scenario
from repro.experiments.spec import (
    ExecutionPolicy,
    _as_tuple,
    _check_execution,
    _is_int,
    _policy_cache,
)
from repro.experiments.store import open_store
from repro.serving.policies import PolicySpec
from repro.serving.replay import BatchCostModel, ReplayResult, ServingMetrics, replay_trace
from repro.serving.traces import TraceSpec, generate_trace

__all__ = [
    "ServingSpec",
    "ServingRecord",
    "ServingProgress",
    "ServingResult",
    "iter_serving",
    "run_serving",
]

#: Schema version of the serialized serving-spec form (see
#: :data:`repro.experiments.spec.SPEC_VERSION` for the convention).
SERVING_SPEC_VERSION = 1


def _is_real(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class ServingSpec:
    """One serving experiment, fully described as a frozen value.

    Attributes:
        name: Human label (progress output only).
        model, task, sequence_length: The served workload; ``None``
            sequence length uses the task default.
        schemes: Scheme overrides to compare (``None`` = each design's
            own scheme); crossed with :attr:`designs`.
        designs: Registered design names.
        buffer_bytes: On-chip buffer per accelerator.
        activation_buffer_fraction: Buffer fraction for activations.
        trace: The request-arrival trace (seeded, reproducible).
        policy: The dynamic batching policy.
        num_accelerators: Identical engines per combo, fed from one queue.
        slo_ms: Optional latency objective scoring goodput.
        execution: Fan-out / persistence policy (shared with campaigns).
    """

    name: str = "serving"
    model: str = "bert-base"
    task: str = "mnli"
    sequence_length: Optional[int] = None
    schemes: Tuple[Optional[str], ...] = (None,)
    designs: Tuple[str, ...] = ("mokey",)
    buffer_bytes: int = 512 * KB
    activation_buffer_fraction: float = 0.5
    trace: TraceSpec = field(default_factory=TraceSpec)
    policy: PolicySpec = field(default_factory=PolicySpec)
    num_accelerators: int = 1
    slo_ms: Optional[float] = None
    execution: ExecutionPolicy = field(default_factory=ExecutionPolicy)

    def __post_init__(self) -> None:
        object.__setattr__(self, "schemes", _as_tuple("schemes", self.schemes))
        object.__setattr__(self, "designs", _as_tuple("designs", self.designs))

    # -- validation ------------------------------------------------------

    def validate(self) -> "ServingSpec":
        """Check every name against the unified registries, numerics too.

        Raises :class:`~repro.registry.RegistryError` for unknown model /
        task / scheme / design / trace / policy names (with the nearest
        match) and ``ValueError`` for malformed numbers and flags (a
        string, bool or fraction where an integer belongs) — each in one
        line, before anything simulates.  Returns ``self`` so it chains.
        """
        from repro import registry  # deferred: registry imports this package

        registry.MODELS.get(self.model)
        registry.TASKS.get(self.task)
        for scheme in self.schemes:
            if scheme is not None:
                registry.SCHEMES.get(scheme)
        if not self.designs:
            raise ValueError("ServingSpec.designs must name at least one design")
        for design in self.designs:
            registry.DESIGNS.get(design)
        registry.TRACES.get(self.trace.kind)
        registry.POLICIES.get(self.policy.kind)
        seq = self.sequence_length
        if seq is not None and (not _is_int(seq) or seq <= 0):
            raise ValueError(f"sequence_length must be positive or None, got {seq!r}")
        trace, policy = self.trace, self.policy
        for label, value, least in (
            ("buffer_bytes", self.buffer_bytes, 1),
            ("trace.num_requests", trace.num_requests, 1),
            ("trace.seed", trace.seed, 0),
            ("policy.max_batch", policy.max_batch, 1),
            ("num_accelerators", self.num_accelerators, 1),
        ):
            if not _is_int(value) or value < least:
                raise ValueError(f"{label} must be an integer >= {least}, got {value!r}")
        if not _is_real(trace.rate_rps) or not trace.rate_rps > 0:
            raise ValueError(f"trace.rate_rps must be positive, got {trace.rate_rps!r}")
        if not _is_real(policy.timeout_ms) or not policy.timeout_ms >= 0:
            raise ValueError(f"policy.timeout_ms must be >= 0, got {policy.timeout_ms!r}")
        if self.slo_ms is not None and (not _is_real(self.slo_ms) or not self.slo_ms > 0):
            raise ValueError(f"slo_ms must be positive or None, got {self.slo_ms!r}")
        _check_execution(self.execution)
        return self

    def combos(self) -> List[Scenario]:
        """The scheme × design base scenarios (``batch_size`` is emergent).

        Each base scenario's ``batch_size`` is 1; the replay's cost model
        rewrites it per formed batch.
        """
        return [
            Scenario(
                model=self.model,
                task=self.task,
                sequence_length=self.sequence_length,
                batch_size=1,
                scheme=scheme,
                design=design,
                buffer_bytes=self.buffer_bytes,
                activation_buffer_fraction=self.activation_buffer_fraction,
            )
            for scheme in self.schemes
            for design in self.designs
        ]

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready nested mapping; inverse of :meth:`from_dict`."""
        return {
            "serving_spec_version": SERVING_SPEC_VERSION,
            "name": self.name,
            "model": self.model,
            "task": self.task,
            "sequence_length": self.sequence_length,
            "schemes": list(self.schemes),
            "designs": list(self.designs),
            "buffer_bytes": self.buffer_bytes,
            "activation_buffer_fraction": self.activation_buffer_fraction,
            "trace": self.trace.to_dict(),
            "policy": self.policy.to_dict(),
            "num_accelerators": self.num_accelerators,
            "slo_ms": self.slo_ms,
            "execution": self.execution.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServingSpec":
        """Rebuild a spec from :meth:`to_dict` output, ignoring unknown keys.

        Raises ``ValueError`` when the spec or one of its sections is not
        a mapping (a JSON object), or an axis is not a list.
        """
        if not isinstance(data, Mapping):
            raise ValueError(f"a serving spec must be an object, got {type(data).__name__}")
        sections = {"trace": TraceSpec, "policy": PolicySpec, "execution": ExecutionPolicy}
        kwargs: Dict[str, Any] = {
            f.name: data[f.name]
            for f in fields(cls)
            if f.name in data and f.name not in sections
        }
        for key, section_cls in sections.items():
            section = data.get(key) or {}
            if not isinstance(section, Mapping):
                raise ValueError(
                    f"serving spec {key!r} must be an object, got {type(section).__name__}"
                )
            kwargs[key] = section_cls.from_dict(section)
        return cls(**kwargs)

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ServingSpec":
        return cls.from_dict(json.loads(text))

    def save(self, path: Union[str, os.PathLike]) -> None:
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: Union[str, os.PathLike]) -> "ServingSpec":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    # -- derivation ------------------------------------------------------

    def with_execution(self, **changes: Any) -> "ServingSpec":
        """A copy with :class:`ExecutionPolicy` fields replaced."""
        return replace(self, execution=replace(self.execution, **changes))


@dataclass
class ServingRecord:
    """One scheme × design combo's measured serving behaviour.

    Attributes:
        base: The combo's base scenario (``batch_size`` there is the
            placeholder 1; actual batch sizes are in
            :attr:`batch_size_counts`).
        metrics: The replay's :class:`~repro.serving.replay.ServingMetrics`.
        batch_size_counts: Formed-batch histogram (size → count).
        simulated: Real simulator invocations this combo cost.
        from_store: Batch shapes served from the cache/store instead.
    """

    base: Scenario
    metrics: ServingMetrics
    batch_size_counts: Dict[int, int]
    simulated: int
    from_store: int

    @property
    def scheme_label(self) -> str:
        """The displayed scheme: the override, else the design's own."""
        return self.base.scheme if self.base.scheme is not None else self.base.design

    def to_row(self) -> Dict[str, Any]:
        """Flat dict for :func:`~repro.analysis.reporting.format_records`."""
        m = self.metrics
        return {
            "model": self.base.model,
            "task": self.base.task,
            "sequence_length": self.base.resolved_sequence_length,
            "scheme": self.scheme_label,
            "design": self.base.design,
            "requests": m.requests,
            "batches": m.batches,
            "mean_batch": round(m.mean_batch_size, 3),
            "p50_ms": m.p50_ms,
            "p95_ms": m.p95_ms,
            "p99_ms": m.p99_ms,
            "mean_ms": m.mean_ms,
            "throughput_rps": m.throughput_rps,
            "goodput_rps": m.goodput_rps,
            "energy_per_request_j": m.energy_per_request_j,
            "utilisation": m.utilisation,
            "max_queue_depth": m.max_queue_depth,
            "batch_shapes": m.distinct_batch_sizes,
            "simulated": self.simulated,
        }


@dataclass
class ServingProgress:
    """Running totals while :func:`iter_serving` streams combo records."""

    completed: int
    total: int
    requests: int
    simulated: int
    from_store: int

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready mapping of the progress counters (service status)."""
        return {
            "completed": self.completed,
            "total": self.total,
            "requests": self.requests,
            "simulated": self.simulated,
            "from_store": self.from_store,
        }

    def __str__(self) -> str:
        return (
            f"[{self.completed}/{self.total}] combos, {self.requests} requests replayed, "
            f"{self.simulated} batch shapes simulated, {self.from_store} from store"
        )


@dataclass
class ServingResult:
    """Batch outcome of :func:`run_serving`."""

    records: List[ServingRecord]
    simulated: int
    from_store: int

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [record.to_row() for record in self.records]


def _replay_combo_task(
    args: Tuple[Scenario, np.ndarray, PolicySpec, int, Optional[float],
                Optional[str], Optional[str]],
) -> Tuple[ReplayResult, int, int, List[Tuple[Scenario, Any]]]:
    """Replay one combo; runs in the parent or a pool worker.

    Workers only ever *read* the store (``write_through=False``): fresh
    results come back to the parent, which persists them before yielding
    the combo's record.  That keeps JSONL stores (single-writer) safe
    under the process executor and makes all three executors produce the
    same store contents.
    """
    base, arrivals, policy, num_accelerators, slo_ms, store_path, store_backend = args
    cache = None
    if store_path is not None:
        cache = ResultCache(store=open_store(store_path, backend=store_backend))
    model = BatchCostModel(base, cache=cache, write_through=False)
    replay = replay_trace(
        arrivals, policy, model.cost, num_accelerators=num_accelerators, slo_ms=slo_ms
    )
    return replay, model.simulated, model.from_store, model.fresh


def iter_serving(
    spec: ServingSpec,
    cache: Optional[ResultCache] = None,
) -> Iterator[Tuple[ServingRecord, ServingProgress]]:
    """Stream one serving experiment: validate, trace, replay, yield.

    Yields ``(record, progress)`` per scheme × design combo, in spec
    order.  Each combo's freshly simulated batch shapes are persisted to
    the policy's store *before* the record yields, so a consumer that
    stops mid-run loses nothing already emitted and a re-run serves those
    shapes from the store (``simulated == 0``) instead of re-simulating.

    Args:
        spec: The experiment; validated before anything simulates.
        cache: Override the cache the execution policy would build (the
            policy's ``store``/``resume`` fields are then ignored).
    """
    spec.validate()
    write_store = None
    if cache is None:
        cache, write_store = _policy_cache(spec.execution)
    return _stream_serving(spec, cache, write_store)


def _stream_serving(
    spec: ServingSpec,
    cache: ResultCache,
    write_store: Optional[Any],
) -> Iterator[Tuple[ServingRecord, ServingProgress]]:
    arrivals = generate_trace(spec.trace)
    combos = spec.combos()
    policy_exec = spec.execution

    def parent_task(base: Scenario) -> Tuple[ReplayResult, int, int, List[Tuple[Scenario, Any]]]:
        model = BatchCostModel(base, cache=cache, write_through=False)
        replay = replay_trace(
            arrivals, spec.policy, model.cost,
            num_accelerators=spec.num_accelerators, slo_ms=spec.slo_ms,
        )
        return replay, model.simulated, model.from_store, model.fresh

    if policy_exec.executor == "serial":
        outcomes: Iterator[Any] = (parent_task(base) for base in combos)
        yield from _emit_serving(spec, combos, outcomes, cache, write_store)
    elif policy_exec.executor == "thread":
        with ThreadPoolExecutor(max_workers=policy_exec.max_workers) as pool:
            yield from _emit_serving(
                spec, combos, pool.map(parent_task, combos), cache, write_store
            )
    else:  # process
        backing = cache.backing_store
        store_path = getattr(backing, "root", None)
        store_args = [
            (base, arrivals, spec.policy, spec.num_accelerators, spec.slo_ms,
             None if store_path is None else str(store_path),
             policy_exec.store_backend)
            for base in combos
        ]
        with ProcessPoolExecutor(max_workers=policy_exec.max_workers) as pool:
            yield from _emit_serving(
                spec, combos, pool.map(_replay_combo_task, store_args), cache, write_store
            )


def _emit_serving(
    spec: ServingSpec,
    combos: Sequence[Scenario],
    outcomes: Iterator[Tuple[ReplayResult, int, int, List[Tuple[Scenario, Any]]]],
    cache: ResultCache,
    write_store: Optional[Any],
) -> Iterator[Tuple[ServingRecord, ServingProgress]]:
    """Persist each combo's fresh shapes, then yield its record."""
    progress = ServingProgress(
        completed=0, total=len(combos), requests=0, simulated=0, from_store=0
    )
    for base, (replay, simulated, from_store, fresh) in zip(combos, outcomes):
        for scenario, result in fresh:
            cache.store(scenario, result)
            if write_store is not None:
                write_store.put(scenario, result)
        record = ServingRecord(
            base=base,
            metrics=replay.metrics,
            batch_size_counts=replay.batch_size_counts,
            simulated=simulated,
            from_store=from_store,
        )
        progress.completed += 1
        progress.requests += replay.metrics.requests
        progress.simulated += simulated
        progress.from_store += from_store
        yield record, replace_progress(progress)


def replace_progress(progress: ServingProgress) -> ServingProgress:
    """A snapshot copy, so consumers can keep yielded progress values."""
    return ServingProgress(
        completed=progress.completed,
        total=progress.total,
        requests=progress.requests,
        simulated=progress.simulated,
        from_store=progress.from_store,
    )


def run_serving(
    spec: ServingSpec,
    cache: Optional[ResultCache] = None,
) -> ServingResult:
    """Drain :func:`iter_serving` into a batch :class:`ServingResult`."""
    records: List[ServingRecord] = []
    progress: Optional[ServingProgress] = None
    for record, progress in iter_serving(spec, cache=cache):
        records.append(record)
    return ServingResult(
        records=records,
        simulated=progress.simulated if progress else 0,
        from_store=progress.from_store if progress else 0,
    )
